"""gridfs benchmark: real node processes on loopback, one closed-loop client.

    python3 perfbench/run.py --workload bulk|small|crypt --seed N \\
        --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S
    python3 perfbench/run.py --self-check

Run from the root of a gridfs checkout; the program is imported from its
`src/`. One workload prints a report, then as its last line one JSON
object: {"correct", "attempted", "failed", "metrics"}. With --trace 0 the
metrics are the gated end-to-end ones; with --trace 1 the node processes
start through launcher.py, the client installs the same wrappers, and the
metrics are the per-layer ones. `--workload all` runs every workload
untraced and traced, each in its own process, and prints every metric
side by side. `--self-check` proves that every wrapper records spans,
that the seed alone fixes the inputs, and that a set-up failure leaves no
node or scratch directory behind. Any failed check exits non-zero.

Everything the benchmark writes lives under `.perfbench-run/` in the
checkout and is removed on every exit path. See README.md for the
workloads, the metrics and how they relate.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
CHECKOUT = HERE.parent
SRC = CHECKOUT / "src"
SCRATCH_ROOT = CHECKOUT / ".perfbench-run"

SETUPS = 5          # set-ups per run; setup_s is their median
GATED = ("write_MBps", "read_MBps", "op_p50_ms", "ops_per_s")


def fail(message: str, code: int = 2) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def run_one(cls, seed: int, seconds: float, traced: bool,
            scratch: Path) -> dict:
    import layers
    import spans
    from nodes import vm_hwm_mib

    tracer = None
    if traced:
        tracer = spans.Tracer()
        spans.install(tracer)
    setup_times, digests = [], []
    work = None
    try:
        for attempt in range(SETUPS):
            if work is not None:
                work.close()
                shutil.rmtree(work.scratch, ignore_errors=True)
            work = cls(seed, scratch / f"{cls.name}{attempt}", SRC, tracer)
            began = time.monotonic()
            work.start()
            setup_times.append(time.monotonic() - began)
            digests.append(work.inputs.hexdigest())
        if len(set(digests)) != 1:
            raise RuntimeError("one seed gave different inputs across set-ups")
        work.measure(seconds)
        steal, clean, windows = work.steal_summary()
        node_rss = work.peak_rss()
        client_rss = vm_hwm_mib(os.getpid())
    finally:
        if work is not None:
            work.close()

    failures = list(work.failures)
    detail = {
        "workload": cls.name, "seed": seed, "seconds": seconds,
        "trace": int(traced), "input_digest": digests[0],
        "attempted": work.attempted,
        "setup_s": [statistics.median(setup_times), "s", len(setup_times)],
        "peak_rss_MiB": [client_rss + sum(node_rss.values()), "MiB",
                         1 + len(node_rss)],
        "rss_MiB": dict(node_rss, client=client_rss),
        "steal": {"share": steal, "clean_windows": clean,
                  "windows": windows},
        "results": {name: [m.value, m.unit, m.samples]
                    for name, m in work.results().items()},
        "gated": {name: [m.value, m.unit, m.samples]
                  for name, m in work.gated().items()},
    }
    if traced:
        processes = {"client": tracer.spans}
        for node in work.nodes.nodes:
            processes[node.name] = spans.load_spans(node.spans_path)
        recorded = [span for spans_of in processes.values()
                    for span in spans_of]
        missing = spans.missing_spans(recorded, cls.expected_spans())
        if missing:
            failures.append("no span recorded for wrapped "
                            + ", ".join(sorted(missing)))
        detail["layers"] = layers.per_layer(
            processes, work.window, node_rss, work.layer_context())
        detail["spans"] = len(recorded)
    detail["failures"] = failures
    return detail


def print_report(detail: dict) -> None:
    print(f"workload {detail['workload']}  seed {detail['seed']}  "
          f"seconds {detail['seconds']:g}  trace {detail['trace']}")
    print(f"input_digest {detail['workload']} {detail['input_digest']}")
    attempted, failures = detail["attempted"], detail["failures"]
    rows = [("setup_s", *detail["setup_s"]),
            ("fail_ratio", len(failures) / max(attempted, 1), "failed/op",
             attempted),
            ("peak_rss_MiB", *detail["peak_rss_MiB"])]
    rows += [(name, *value) for name, value in detail["results"].items()]
    print("end-to-end" + (" (traced: compare with a --trace 0 run)"
                          if detail["trace"] else ""))
    for name, value, unit, samples in rows:
        print(f"  {name:<22} {value:>12.4f} {unit:<10} n={samples}")
    print("gated (BENCHMARK.json end_to_end)")
    for name, (value, unit, samples) in detail["gated"].items():
        print(f"  {name:<22} {value:>12.4f} {unit:<10} n={samples}")
    rss = ", ".join(f"{name} {mib:.1f}" for name, mib in
                    detail["rss_MiB"].items())
    print(f"  peak RSS by process (MiB): {rss}")
    steal = detail["steal"]
    print(f"  steal: {steal['share']:.1%} of CPU time; "
          f"{steal['clean_windows']} of {steal['windows']} windows had none")
    if "layers" in detail:
        import layers
        print(f"per-layer ({detail['spans']} spans)")
        for name, unit in layers.PER_LAYER:
            print(f"  {name:<28} {detail['layers'][name]:>12.4f} {unit}")
    for message in failures:
        print(f"FAILED {message}")


def result_line(detail: dict) -> dict:
    if detail["trace"]:
        import layers
        metrics = {name: {"value": detail["layers"][name], "unit": unit}
                   for name, unit in layers.PER_LAYER}
    else:
        metrics = {name: {"value": detail[name][0], "unit": detail[name][1]}
                   for name in ("setup_s", "peak_rss_MiB")}
        metrics.update({name: {"value": detail["gated"][name][0],
                               "unit": detail["gated"][name][1]}
                        for name in GATED})
    return {"correct": not detail["failures"],
            "attempted": detail["attempted"],
            "failed": len(detail["failures"]), "metrics": metrics}


def child_run(workload: str, seed: int, seconds: float,
              trace: int) -> tuple[int, dict | None, str]:
    """Run one workload in its own process; returns (exit code, detail,
    output)."""
    command = [sys.executable, str(HERE / "run.py"), "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds),
               "--trace", str(trace)]
    process = subprocess.Popen(command, stdout=subprocess.PIPE, text=True)
    try:
        output, _ = process.communicate(timeout=600)
    finally:
        if process.poll() is None:
            process.terminate()
            process.wait()
    detail = None
    for line in output.splitlines():
        if line.startswith("detail "):
            detail = json.loads(line[len("detail "):])
    return process.returncode, detail, output


def run_all(seed: int, seconds: float) -> int:
    import layers
    from workloads import WORKLOADS

    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        pair = []
        for trace in (0, 1):
            code, detail, output = child_run(workload, seed, seconds, trace)
            if detail is None:
                print(output)
                fail(f"{workload} --trace {trace} printed no result", 1)
            pair.append(detail)
            combined["correct"] &= code == 0
            combined["attempted"] += detail["attempted"]
            combined["failed"] += len(detail["failures"])
        plain, traced = pair
        print(f"== {workload}  seed {seed}  seconds {seconds:g}  "
              f"input_digest {plain['input_digest']}")
        print(f"  {'metric':<22} {'untraced':>12} {'traced':>12} unit"
              "        n (untraced)")
        rows = [("setup_s", plain["setup_s"], traced["setup_s"]),
                ("fail_ratio",
                 [len(plain["failures"]) / max(plain["attempted"], 1),
                  "failed/op", plain["attempted"]],
                 [len(traced["failures"]) / max(traced["attempted"], 1),
                  "failed/op", traced["attempted"]]),
                ("peak_rss_MiB", plain["peak_rss_MiB"],
                 traced["peak_rss_MiB"])]
        rows += [(name, value, traced["results"][name])
                 for name, value in plain["results"].items()
                 if name in traced["results"]]
        rows += [(f"[gated] {name}", plain["gated"][name],
                  traced["gated"][name]) for name in GATED]
        for name, (value, unit, samples), (traced_value, _, _) in rows:
            print(f"  {name:<22} {value:>12.4f} {traced_value:>12.4f} "
                  f"{unit:<11} n={samples}")
        print(f"  per-layer, traced run ({traced['spans']} spans)")
        for name, unit in layers.PER_LAYER:
            print(f"    {name:<28} {traced['layers'][name]:>12.4f} {unit}")
        for message in plain["failures"] + traced["failures"]:
            print(f"  FAILED {message}")
        for name in GATED + ("setup_s", "peak_rss_MiB"):
            value = plain["gated"].get(name) or plain[name]
            combined["metrics"][f"{workload}.{name}"] = {
                "value": value[0], "unit": value[1]}
    print(json.dumps(combined))
    return 0 if combined["correct"] and not combined["failed"] else 1


def self_check() -> int:
    import spans
    from workloads import WORKLOADS, Crypt

    problems = []
    covered = set()
    for workload, cls in WORKLOADS.items():
        before = len(problems)
        covered |= cls.expected_spans()
        digests = []
        for seed, trace in ((1, 1), (2, 0)):
            code, detail, output = child_run(workload, seed, 1, trace)
            if code != 0 or detail is None:
                problems.append(f"{workload} seed {seed} trace {trace} "
                                f"exited {code}:\n{output}")
                continue
            digests.append(detail["input_digest"])
        if len(digests) == 2 and digests[0] == digests[1]:
            problems.append(f"{workload}: seeds 1 and 2 gave the same inputs")
        print(f"self-check {workload}: spans and digests "
              f"{'ok' if len(problems) == before else 'FAILED'}")
    if covered != spans.all_span_names():
        problems.append("wrapped but no workload calls: "
                        + ", ".join(sorted(spans.all_span_names() - covered)))

    # a set-up that fails after its nodes are up must leave nothing behind
    before = len(problems)

    class BrokenSetup(Crypt):
        def prepare(self):
            self.spawned = [node.process.pid for node in self.nodes.nodes]
            BrokenSetup.last = self
            raise RuntimeError("set-up failure injected by the self-check")

    scratch = SCRATCH_ROOT / f"{os.getpid()}-selfcheck"
    try:
        run_one(BrokenSetup, 1, 1, False, scratch)
        problems.append("injected set-up failure was not raised")
    except RuntimeError:
        pass
    finally:
        remove_scratch(scratch)
    pids = BrokenSetup.last.spawned
    alive = [pid for pid in pids if Path(f"/proc/{pid}").exists()]
    if len(pids) != 2 or alive or scratch.exists():
        problems.append(f"set-up failure left pids {alive} "
                        f"(of {pids}) or {scratch}")
    print("self-check set-up failure: "
          f"{'ok' if len(problems) == before else 'FAILED'}")

    for problem in problems:
        print(f"FAILED {problem}")
    return 1 if problems else 0


def remove_scratch(scratch: Path) -> None:
    shutil.rmtree(scratch, ignore_errors=True)
    try:
        SCRATCH_ROOT.rmdir()     # only when no other run is using it
    except OSError:
        pass


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="gridfs benchmark (see perfbench/README.md)")
    parser.add_argument("--workload",
                        choices=("bulk", "small", "crypt", "all"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-check", action="store_true")
    args = parser.parse_args(argv)
    if not args.self_check and args.workload is None:
        parser.error("--workload is required")
    if not (SRC / "gridfs" / "__init__.py").is_file():
        fail(f"no gridfs sources under {SRC}: run from a gridfs checkout")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    sys.path[:0] = [str(SRC), str(HERE)]
    # SIGTERM unwinds like Ctrl-C, so every finally below stops the nodes
    signal.signal(signal.SIGTERM, lambda signum, _: sys.exit(128 + signum))

    if args.self_check:
        return self_check()
    if args.workload == "all":
        return run_all(args.seed, args.seconds)

    import gridfs
    if Path(gridfs.__file__).resolve().parent != (SRC / "gridfs").resolve():
        fail(f"imported gridfs from {gridfs.__file__}, not from {SRC}")
    from workloads import WORKLOADS

    scratch = SCRATCH_ROOT / f"{os.getpid()}-{args.workload}"
    (scratch / "tmp").mkdir(parents=True)
    tempfile.tempdir = str(scratch / "tmp")
    try:
        detail = run_one(WORKLOADS[args.workload], args.seed, args.seconds,
                         bool(args.trace), scratch)
    finally:
        remove_scratch(scratch)
    print_report(detail)
    print("detail " + json.dumps(detail))
    result = result_line(detail)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
