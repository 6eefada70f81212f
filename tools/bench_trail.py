"""Append benchmark records to the BENCH_<workload>.json trail.

    python3 tools/bench_trail.py [--workload bulk|small|crypt|all]
        [--checkout DIR]
    python3 tools/bench_trail.py --table
    python3 tools/bench_trail.py --pairs N --against DIR
        [--workload bulk|small|crypt|all] [--checkout DIR] [--seed S]

For each workload this runs `perfbench/run.py --workload W --trace 0`,
then `--trace 1`, in the gridfs checkout DIR (default: the one holding
this script), for BENCHMARK.json's `run_seconds` and the default seed,
so that records of different commits compare like with like. It reads
the `detail` JSON line each run prints, and appends one record per run
to `BENCH_<W>.json` beside this script's checkout. A record holds the
measured commit (suffixed `-dirty` when `src/` or `perfbench/` has
uncommitted changes) and, as `tree`, a SHA-256 over the path and bytes of
every file git lists, tracked or untracked but not ignored, under those
two directories, so two uncommitted trees on one parent tell apart; the
UTC date, `nproc`, the run's
steal share, every end-to-end metric that BENCHMARK.json names with its
sample count, and, for the traced run, the per-layer split. It also
holds a machine probe taken just before and just after the run: the
seconds to MD5 and to SHA-256 64 MiB in memory, whether /proc/cpuinfo
lists the `sha_ni` or `sha2` CPU flag, since the transfer digest
(SHA-256) outruns MD5 only with such extensions, and the mean seconds
of a one-byte TCP round trip over loopback, over 1,000 of them: what
one more handshake step costs. A run that
reports failures is still recorded, with its failures, and makes the
script exit 1; the trail records numbers and gates nothing.

To compare two commits, run the script once with `--checkout` pointing
at a clone of the earlier one and once without it, on the same machine.
`--table` runs nothing: for each workload it prints the end-to-end
metrics of the trail's latest untraced record beside those of the most
recent untraced record of another build, then the per-layer split of
the latest traced record beside that of the most recent traced record
of another build, each with their ratio; two records are of different
builds when their commit or their tree differs. For records that hold
a machine probe, its SHA-256/MD5 time ratios and CPU flag, and its
loopback round trip.

`--pairs N --against DIR` compares two commits on this machine: for each
workload it runs N pairs of untraced runs, one of the checkout at DIR
(the parent) and one of this checkout (the change) in each pair, with
the order flipped from pair to pair (parent first in pair 0), so a
drift of the machine or an order effect falls on both sides alike. Every
run is appended to the trail with its pair id. Then, per end-to-end
metric of BENCHMARK.json, it prints the median and quartiles of each
side, the ratio of the medians (change/parent), how many of the N pairs
the change won, and the gap between the medians against the parent's
interquartile range; and the failed operations of each side. `--seed`
runs the pairs on another seed than the benchmark's default, to check
that a gain found on one seed holds on another.
Only the standard library is used.
"""

from __future__ import annotations

import argparse
import datetime
import hashlib
import json
import os
import socket
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

TRAIL = Path(__file__).resolve().parent.parent
WORKLOADS = ("bulk", "small", "crypt")
PROBE_BYTES = 64 << 20
ROUND_TRIPS = 1000
CPUINFO = Path("/proc/cpuinfo")


def commit_of(checkout: Path) -> str:
    def git(*args: str) -> str:
        return subprocess.run(["git", "-C", str(checkout), *args],
                              capture_output=True, text=True,
                              check=True).stdout.strip()

    dirty = git("status", "--porcelain", "--", "src", "perfbench")
    return git("rev-parse", "HEAD") + ("-dirty" if dirty else "")


def tree_of(checkout: Path) -> str:
    """SHA-256 over the path and bytes of every file under `src/` and
    `perfbench/` that git tracks or would track; a tracked file that has
    been deleted counts by its absence."""
    listed = subprocess.run(
        ["git", "-C", str(checkout), "ls-files", "-z", "-co",
         "--exclude-standard", "--", "src", "perfbench"],
        capture_output=True, check=True).stdout
    digest = hashlib.sha256()
    for name in sorted(set(listed.split(b"\0")) - {b""}):
        path = checkout / os.fsdecode(name)
        if path.is_file():
            data = path.read_bytes()
            for part in (name, data):
                digest.update(len(part).to_bytes(8, "big") + part)
    return digest.hexdigest()


def run_detail(checkout: Path, workload: str, trace: int,
               seconds: float, seed: int | None = None) -> dict:
    """Run one benchmark process and return its `detail` object."""
    seeded = [] if seed is None else ["--seed", str(seed)]
    process = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--trace", str(trace), "--seconds", str(seconds), *seeded],
        cwd=checkout, capture_output=True, text=True)
    for line in process.stdout.splitlines():
        if line.startswith("detail "):
            return json.loads(line[len("detail "):])
    raise SystemExit(f"bench_trail: {workload} --trace {trace} printed no "
                     f"detail line (exit {process.returncode}):\n"
                     f"{process.stdout}{process.stderr}")


def sha_extensions() -> bool:
    """Whether the CPU flags in /proc/cpuinfo include SHA extensions:
    `sha_ni` on x86, `sha2` on ARM."""
    try:
        text = CPUINFO.read_text()
    except OSError:
        return False
    flags = set()
    for line in text.splitlines():
        name, _, value = line.partition(":")
        if name.strip() in ("flags", "Features"):
            flags.update(value.split())
    return bool(flags & {"sha_ni", "sha2"})


def loopback_round_trip() -> float:
    """Mean seconds of a one-byte round trip over a loopback TCP
    connection with TCP_NODELAY, answered by an echo thread, over
    ROUND_TRIPS of them."""
    with socket.create_server(("127.0.0.1", 0)) as listener:
        def echo() -> None:
            conn, _ = listener.accept()
            with conn:
                conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
                while byte := conn.recv(1):
                    conn.sendall(byte)

        echoer = threading.Thread(target=echo, daemon=True)
        echoer.start()
        with socket.create_connection(listener.getsockname(),
                                      timeout=10) as sock:
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            start = time.perf_counter()
            for _ in range(ROUND_TRIPS):
                sock.sendall(b"x")
                if not sock.recv(1):
                    raise SystemExit("bench_trail: loopback echo hung up")
            elapsed = time.perf_counter() - start
        echoer.join(timeout=10)
    return elapsed / ROUND_TRIPS


def machine_probe() -> dict:
    """Seconds to MD5 and to SHA-256 PROBE_BYTES in memory, whether the
    CPU has SHA extensions, and the mean loopback round trip."""
    data = bytes(PROBE_BYTES)
    probe = {}
    for name in ("md5", "sha256"):
        start = time.perf_counter()
        hashlib.new(name, data).digest()
        probe[f"{name}_s"] = time.perf_counter() - start
    probe["sha_ext"] = sha_extensions()
    probe["loopback_rtt_s"] = loopback_round_trip()
    return probe


def measure(checkout: Path, workload: str, trace: int, contract: dict,
            build: tuple[str, str], seed: int | None = None) -> dict:
    """Run the benchmark once and return its record, with a machine probe
    taken just before and just after the run. `build` is the checkout's
    (commit, tree)."""
    before = machine_probe()
    detail = run_detail(checkout, workload, trace, contract["run_seconds"],
                        seed)
    record = record_of(detail, contract, *build)
    record["probe"] = {"before": before, "after": machine_probe()}
    return record


def probe_text(record: dict) -> str:
    probe = record.get("probe")
    if not probe:
        return "none"
    ratios = ", ".join(
        f"x{probe[when]['sha256_s'] / probe[when]['md5_s']:.3f} {when}"
        for when in ("before", "after"))
    flag = "yes" if probe["before"]["sha_ext"] else "no"
    return f"sha256/md5 time {ratios}, SHA extensions {flag}"


def loopback_text(record: dict) -> str:
    probe = record.get("probe")
    if not probe or "loopback_rtt_s" not in probe["before"]:
        return "none"
    return "round trip " + ", ".join(
        f"{probe[when]['loopback_rtt_s'] * 1e6:.1f} us {when}"
        for when in ("before", "after"))


def record_of(detail: dict, contract: dict, commit: str,
              tree: str | None = None) -> dict:
    end_to_end = {}
    for metric in contract["end_to_end"]:
        name = metric["name"]
        value, unit, samples = detail["gated"].get(name) or detail[name]
        end_to_end[name] = {"value": value, "unit": unit, "n": samples}
    record = {
        "commit": commit,
        "tree": tree,
        "date": datetime.datetime.now(datetime.timezone.utc)
        .isoformat(timespec="seconds"),
        "nproc": os.cpu_count(),
        "workload": detail["workload"],
        "seed": detail["seed"],
        "seconds": detail["seconds"],
        "trace": detail["trace"],
        "steal_share": detail["steal"]["share"],
        "clean_windows": [detail["steal"]["clean_windows"],
                          detail["steal"]["windows"]],
        "attempted": detail["attempted"],
        "failures": detail["failures"],
        "end_to_end": end_to_end,
    }
    if "layers" in detail:
        units = {metric["name"]: metric["unit"]
                 for metric in contract["per_layer"]}
        record["per_layer"] = {
            name: {"value": value, "unit": units.get(name, "")}
            for name, value in detail["layers"].items()}
    return record


def append(record: dict) -> Path:
    path = TRAIL / f"BENCH_{record['workload']}.json"
    trail = json.loads(path.read_text()) if path.exists() else []
    trail.append(record)
    partial = path.with_suffix(".json.tmp")
    partial.write_text(json.dumps(trail, indent=1) + "\n")
    os.replace(partial, path)
    return path


def table(trail: Path) -> list[str]:
    """Per workload, the end-to-end metrics of the trail's latest untraced
    record, then the per-layer split of its latest traced record, each
    beside the most recent record of the same kind from a different
    build (commit or tree), metric by metric, with the ratio
    latest/earlier."""
    def build(record: dict) -> tuple:
        return record["commit"], record.get("tree")

    def label(record: dict) -> str:
        commit, tree = build(record)
        tree = f" tree {tree[:8]}" if tree else ""
        return f"{commit[:12]}{commit[40:]}{tree} ({record['date'][:10]})"

    def compare(heading: str, records: list[dict], key: str) -> list[str]:
        latest = records[-1]
        earlier = next((record for record in reversed(records)
                        if build(record) != build(latest)), None)
        lines = [f"{heading}{label(latest)} against "
                 f"{label(earlier) if earlier else 'no other commit'}"]
        width = max([14, *map(len, latest[key])])
        for name, metric in latest[key].items():
            row = f"  {name:<{width}} {metric['value']:>10.4g} " \
                  f"{metric['unit']:<5}"
            before = earlier and earlier[key].get(name)
            if before:
                ratio = (metric["value"] / before["value"]
                         if before["value"] else float("nan"))
                row += f" {before['value']:>10.4g}  x{ratio:.3f}"
            lines.append(row.rstrip())
        if "probe" in latest:
            lines.append(f"  digest probe: {probe_text(latest)}"
                         + (f"; against {probe_text(earlier)}"
                            if earlier else ""))
            lines.append(f"  loopback probe: {loopback_text(latest)}"
                         + (f"; against {loopback_text(earlier)}"
                            if earlier else ""))
        return lines

    lines = []
    for workload in WORKLOADS:
        path = trail / f"BENCH_{workload}.json"
        records = json.loads(path.read_text()) if path.exists() else []
        untraced = [record for record in records if not record["trace"]]
        traced = [record for record in records
                  if record["trace"] and "per_layer" in record]
        if untraced:
            lines += compare(f"{workload}: ", untraced, "end_to_end")
        else:
            lines.append(f"{workload}: no untraced records")
        if traced:
            lines += compare(f"{workload} per layer: ", traced, "per_layer")
    return lines


def run_pairs(parent: Path, change: Path, workload: str, pairs: int,
              contract: dict, seed: int | None = None
              ) -> list[tuple[dict, dict]]:
    """Run `pairs` alternating pairs of untraced runs of `workload` and
    append every record to the trail. Returns the (parent, change)
    records of each pair."""
    stamp = datetime.datetime.now(datetime.timezone.utc) \
        .strftime("%Y%m%dT%H%M%SZ")
    builds = {checkout: (commit_of(checkout), tree_of(checkout))
              for checkout in (parent, change)}
    out = []
    for index in range(pairs):
        records = {}
        order = (parent, change) if index % 2 == 0 else (change, parent)
        for checkout in order:
            record = measure(checkout, workload, 0, contract,
                             builds[checkout], seed)
            record["pair"] = f"{stamp}/{workload}/{index}"
            append(record)
            records[checkout] = record
            print(f"pair {index} {workload} "
                  f"{'parent' if checkout == parent else 'change'} "
                  f"{record['commit'][:12]}{record['commit'][40:]}: "
                  + "  ".join(
                      f"{name} {metric['value']:.4g}" for name, metric
                      in record["end_to_end"].items()), flush=True)
        out.append((records[parent], records[change]))
    return out


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(first quartile, median, third quartile), inclusive method."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    low, mid, high = statistics.quantiles(values, n=4, method="inclusive")
    return low, mid, high


def pair_summary(pairs: list[tuple[dict, dict]], contract: dict) -> list[str]:
    """Per end-to-end metric of (parent, change) record pairs: each
    side's median [quartiles], the ratio change/parent of the medians,
    the pairs the change won, and the gap of the medians against the
    parent's interquartile range; then the failures of each side, and the
    median and range of each side's CPU steal share, which are reported
    only and judge nothing."""
    lines = []
    for metric in contract["end_to_end"]:
        name, lower = metric["name"], metric["better"] == "lower"
        parent = [p["end_to_end"][name]["value"] for p, _ in pairs]
        change = [c["end_to_end"][name]["value"] for _, c in pairs]
        p_low, p_mid, p_high = quartiles(parent)
        c_low, c_mid, c_high = quartiles(change)
        wins = sum((c < p) if lower else (c > p)
                   for p, c in zip(parent, change))
        ratio = c_mid / p_mid if p_mid else float("nan")
        lines.append(
            f"  {name:<13} parent {p_mid:.4g} [{p_low:.4g}, {p_high:.4g}]"
            f"  change {c_mid:.4g} [{c_low:.4g}, {c_high:.4g}]"
            f"  x{ratio:.3f}  wins {wins}/{len(pairs)}"
            f"  gap {c_mid - p_mid:+.4g} vs parent IQR "
            f"{p_high - p_low:.4g} ({metric['better']} is better)")
    failed = [sum(len(record["failures"]) for record in side)
              for side in zip(*pairs)]
    attempted = [sum(record["attempted"] for record in side)
                 for side in zip(*pairs)]
    lines.append(f"  failures      parent {failed[0]} of {attempted[0]}"
                 f"  change {failed[1]} of {attempted[1]}")
    for label, side in zip(("parent", "change"), zip(*pairs)):
        steal = [record["steal_share"] for record in side]
        lines.append(f"  steal {label}  median {statistics.median(steal):.1%}"
                     f"  range {min(steal):.1%} to {max(steal):.1%}")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="append perfbench records to BENCH_<workload>.json")
    parser.add_argument("--workload", choices=WORKLOADS + ("all",),
                        default="all")
    parser.add_argument("--checkout", type=Path, default=TRAIL,
                        help="gridfs checkout to measure (default: this one)")
    parser.add_argument("--table", action="store_true",
                        help="print the latest records against those of the "
                             "commit before, and run nothing")
    parser.add_argument("--pairs", type=int, default=0,
                        help="run this many alternating pairs of the "
                             "--against checkout and this one")
    parser.add_argument("--against", type=Path,
                        help="checkout of the parent commit for --pairs")
    parser.add_argument("--seed", type=int,
                        help="workload seed for --pairs (default: the "
                             "benchmark's)")
    args = parser.parse_args(argv)
    if args.table:
        print("\n".join(table(TRAIL)))
        return 0
    if bool(args.pairs) != (args.against is not None) or args.pairs < 0:
        parser.error("--pairs N (N > 0) and --against DIR go together")
    checkout = args.checkout.resolve()
    contract = json.loads((checkout / "BENCHMARK.json").read_text())
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    if args.pairs:
        healthy = True
        for workload in workloads:
            pairs = run_pairs(args.against.resolve(), checkout, workload,
                              args.pairs, contract, args.seed)
            print(f"{workload}: {len(pairs)} pairs, parent "
                  f"{pairs[0][0]['commit'][:12]} against change "
                  f"{pairs[0][1]['commit'][:12]}"
                  f"{pairs[0][1]['commit'][40:]}")
            print("\n".join(pair_summary(pairs, contract)), flush=True)
            healthy &= not any(record["failures"]
                               for pair in pairs for record in pair)
        return 0 if healthy else 1
    commit = commit_of(checkout)
    build = (commit, tree_of(checkout))
    healthy = True
    for workload in workloads:
        for trace in (0, 1):
            record = measure(checkout, workload, trace, contract, build)
            path = append(record)
            healthy &= not record["failures"]
            metrics = "  ".join(
                f"{name} {metric['value']:.4g}"
                for name, metric in record["end_to_end"].items())
            print(f"{path.name} {commit[:12]}{commit[40:]} trace {trace}: "
                  f"{metrics}  "
                  f"steal {record['steal_share']:.1%}  "
                  f"failures {len(record['failures'])}", flush=True)
    return 0 if healthy else 1


if __name__ == "__main__":
    sys.exit(main())
