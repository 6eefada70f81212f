"""Append benchmark records to the BENCH_<workload>.json trail.

    python3 tools/bench_trail.py [--workload bulk|small|crypt|all]
        [--checkout DIR]
    python3 tools/bench_trail.py --table

For each workload this runs `perfbench/run.py --workload W --trace 0`,
then `--trace 1`, in the gridfs checkout DIR (default: the one holding
this script), for BENCHMARK.json's `run_seconds` and the default seed,
so that records of different commits compare like with like. It reads
the `detail` JSON line each run prints, and appends one record per run
to `BENCH_<W>.json` beside this script's checkout. A record holds the measured commit (suffixed `-dirty` when `src/` or
`perfbench/` has uncommitted changes), the UTC date, `nproc`, the run's
steal share, every end-to-end metric that BENCHMARK.json names with its
sample count, and, for the traced run, the per-layer split. A run that
reports failures is still recorded, with its failures, and makes the
script exit 1; the trail records numbers and gates nothing.

To compare two commits, run the script once with `--checkout` pointing
at a clone of the earlier one and once without it, on the same machine.
`--table` runs nothing: for each workload it prints the end-to-end
metrics of the trail's latest untraced record beside those of the most
recent untraced record of another commit, then the per-layer split of
the latest traced record beside that of the most recent traced record
of another commit, each with their ratio.
Only the standard library is used.
"""

from __future__ import annotations

import argparse
import datetime
import json
import os
import subprocess
import sys
from pathlib import Path

TRAIL = Path(__file__).resolve().parent.parent
WORKLOADS = ("bulk", "small", "crypt")


def commit_of(checkout: Path) -> str:
    def git(*args: str) -> str:
        return subprocess.run(["git", "-C", str(checkout), *args],
                              capture_output=True, text=True,
                              check=True).stdout.strip()

    dirty = git("status", "--porcelain", "--", "src", "perfbench")
    return git("rev-parse", "HEAD") + ("-dirty" if dirty else "")


def run_detail(checkout: Path, workload: str, trace: int,
               seconds: float) -> dict:
    """Run one benchmark process and return its `detail` object."""
    process = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--trace", str(trace), "--seconds", str(seconds)],
        cwd=checkout, capture_output=True, text=True)
    for line in process.stdout.splitlines():
        if line.startswith("detail "):
            return json.loads(line[len("detail "):])
    raise SystemExit(f"bench_trail: {workload} --trace {trace} printed no "
                     f"detail line (exit {process.returncode}):\n"
                     f"{process.stdout}{process.stderr}")


def record_of(detail: dict, contract: dict, commit: str) -> dict:
    end_to_end = {}
    for metric in contract["end_to_end"]:
        name = metric["name"]
        value, unit, samples = detail["gated"].get(name) or detail[name]
        end_to_end[name] = {"value": value, "unit": unit, "n": samples}
    record = {
        "commit": commit,
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
    commit, metric by metric, with the ratio latest/earlier."""
    def label(record: dict) -> str:
        commit = record["commit"]
        return f"{commit[:12]}{commit[40:]} ({record['date'][:10]})"

    def compare(heading: str, records: list[dict], key: str) -> list[str]:
        latest = records[-1]
        earlier = next((record for record in reversed(records)
                        if record["commit"] != latest["commit"]), None)
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
    args = parser.parse_args(argv)
    if args.table:
        print("\n".join(table(TRAIL)))
        return 0
    checkout = args.checkout.resolve()
    contract = json.loads((checkout / "BENCHMARK.json").read_text())
    commit = commit_of(checkout)
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    healthy = True
    for workload in workloads:
        for trace in (0, 1):
            detail = run_detail(checkout, workload, trace,
                                contract["run_seconds"])
            record = record_of(detail, contract, commit)
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
