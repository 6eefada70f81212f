"""The benchmark's tracing hooks and calls still find what they use.

`perfbench/spans.py` wraps gridfs functions by name from outside the
program, and the workloads call gridfs by name and keyword. A rename or a
removed keyword under `src/` would detach a wrapper or break a run; this
catches it in the fast suite. It reads `perfbench/` and starts no node.
The summary of the `BENCH_*.json` trail is checked here too, on a
synthetic trail."""

import ast
import importlib
import importlib.util
import inspect
import json
import subprocess
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PERFBENCH = ROOT / "perfbench"
SPANS = PERFBENCH / "spans.py"


def load_module(name, path):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def load_spans():
    return load_module("perfbench_spans", SPANS)


def test_every_wrapped_target_resolves():
    spans = load_spans()
    for module_name, attribute, _ in spans.WRAPS:
        owner = importlib.import_module(f"gridfs.{module_name}")
        for part in attribute.split("."):
            owner = inspect.getattr_static(owner, part)    # AttributeError
        assert callable(owner), f"{module_name}.{attribute}"


def test_thread_modules_start_threads_through_their_own_import():
    spans = load_spans()
    for module_name in spans.THREAD_MODULES:
        module = importlib.import_module(f"gridfs.{module_name}")
        assert inspect.getattr_static(module, "threading") is threading


def gridfs_bindings(tree: ast.AST) -> dict[str, object]:
    """Every name a perfbench module binds by importing from gridfs, at
    any depth, mapped to the object it is bound to."""
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.partition(".")[0] == "gridfs":
                    module = importlib.import_module(alias.name)
                    bound[alias.asname or "gridfs"] = \
                        module if alias.asname else \
                        importlib.import_module("gridfs")
        elif isinstance(node, ast.ImportFrom) and node.module and \
                node.module.partition(".")[0] == "gridfs":
            module = importlib.import_module(node.module)
            for alias in node.names:
                assert hasattr(module, alias.name), \
                    f"{node.module}.{alias.name} is gone"
                bound[alias.asname or alias.name] = getattr(module,
                                                            alias.name)
    return bound


def resolve(expr: ast.expr, bound: dict[str, object]):
    """The object a Name or dotted Attribute chain rooted at a gridfs
    binding names, or None for any other expression."""
    if isinstance(expr, ast.Name):
        return bound.get(expr.id)
    if isinstance(expr, ast.Attribute):
        owner = resolve(expr.value, bound)
        if owner is None:
            return None
        assert hasattr(owner, expr.attr), \
            f"{ast.unparse(expr)} does not resolve"
        return getattr(owner, expr.attr)
    return None


def test_every_gridfs_name_and_keyword_perfbench_uses_exists():
    checked = 0
    for path in sorted(PERFBENCH.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        bound = gridfs_bindings(tree)
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute):
                resolve(node, bound)
            if not isinstance(node, ast.Call):
                continue
            target = resolve(node.func, bound)
            keywords = [k.arg for k in node.keywords if k.arg is not None]
            if target is None or not keywords:
                continue
            parameters = inspect.signature(target).parameters
            if any(p.kind == p.VAR_KEYWORD for p in parameters.values()):
                continue
            for keyword in keywords:
                assert keyword in parameters, \
                    f"{path.name}:{node.lineno}: {ast.unparse(node.func)}" \
                    f" takes no keyword {keyword!r}"
                checked += 1
    assert checked > 0    # the walk did find perfbench's keyword calls


# -- BENCH trail summary ----------------------------------------------------

def trail_record(commit, trace, read_MBps):
    end_to_end = {name: {"value": 2.0, "unit": unit, "n": 1}
                  for name, unit in (("setup_s", "s"), ("peak_rss_MiB", "MiB"),
                                     ("write_MBps", "MB/s"),
                                     ("read_MBps", "MB/s"),
                                     ("op_p50_ms", "ms"),
                                     ("ops_per_s", "1/s"))}
    end_to_end["read_MBps"]["value"] = read_MBps
    return {"commit": commit, "date": "2026-01-02T03:04:05+00:00",
            "trace": trace, "end_to_end": end_to_end}


def test_trail_table_pairs_the_latest_record_with_another_commit(
        tmp_path, monkeypatch, capsys):
    trail = load_module("bench_trail", ROOT / "tools" / "bench_trail.py")
    old, new = "a" * 40, "b" * 40
    (tmp_path / "BENCH_crypt.json").write_text(json.dumps([
        trail_record(old, 0, 60.0),
        trail_record(old, 1, 10.0),
        trail_record(new, 0, 80.0),
        trail_record(new + "-dirty", 1, 11.0),
        trail_record(new, 0, 90.0),
    ]))
    (tmp_path / "BENCH_bulk.json").write_text(json.dumps([
        trail_record(old, 0, 100.0)]))

    def no_runs(*args, **kwargs):
        raise AssertionError("--table ran the benchmark")

    monkeypatch.setattr(trail, "TRAIL", tmp_path)
    monkeypatch.setattr(trail, "run_detail", no_runs)
    assert trail.main(["--table"]) == 0
    lines = capsys.readouterr().out.splitlines()

    crypt = lines.index("crypt: bbbbbbbbbbbb (2026-01-02) against "
                        "aaaaaaaaaaaa (2026-01-02)")
    rows = {line.split()[0]: line.split() for line in lines[crypt + 1:]}
    assert len(rows) == 6
    # the latest untraced record (90) against the old commit's (60)
    assert rows["read_MBps"] == ["read_MBps", "90", "MB/s", "60", "x1.500"]
    assert rows["setup_s"] == ["setup_s", "2", "s", "2", "x1.000"]
    assert lines[0] == ("bulk: aaaaaaaaaaaa (2026-01-02) against "
                            "no other commit")
    assert lines[1].split() == ["setup_s", "2", "s"]
    assert "small: no untraced records" in lines


def test_trail_table_pairs_the_latest_traced_split_with_another_commit(
        tmp_path, monkeypatch, capsys):
    trail = load_module("bench_trail", ROOT / "tools" / "bench_trail.py")
    old, new = "a" * 40, "b" * 40

    def traced(commit, digest_s, date="2026-01-02T03:04:05+00:00"):
        record = trail_record(commit, 1, 10.0)
        record["date"] = date
        record["per_layer"] = {
            "ftsm.finish_ms": {"value": 100.0, "unit": "ms"},
            "ftsm.receiver_digest_s": {"value": digest_s, "unit": "s/op"}}
        return record

    (tmp_path / "BENCH_bulk.json").write_text(json.dumps([
        traced(old, 0.25),
        trail_record(old, 0, 60.0),
        trail_record(new, 1, 11.0),     # a traced record with no split
        traced(new, 0.0, "2026-01-03T00:00:00+00:00"),
        trail_record(new, 0, 90.0),
    ]))
    (tmp_path / "BENCH_small.json").write_text(json.dumps([
        traced(new, 0.5)]))
    monkeypatch.setattr(trail, "TRAIL", tmp_path)
    assert trail.main(["--table"]) == 0
    lines = capsys.readouterr().out.splitlines()

    split = lines.index("bulk per layer: bbbbbbbbbbbb (2026-01-03) against "
                        "aaaaaaaaaaaa (2026-01-02)")
    assert lines[split - 7] == ("bulk: bbbbbbbbbbbb (2026-01-02) against "
                                "aaaaaaaaaaaa (2026-01-02)")
    assert lines[split + 1].split() == \
        ["ftsm.finish_ms", "100", "ms", "100", "x1.000"]
    assert lines[split + 2].split() == \
        ["ftsm.receiver_digest_s", "0", "s/op", "0.25", "x0.000"]
    small = lines.index("small: no untraced records")
    assert lines[small + 1] == ("small per layer: bbbbbbbbbbbb (2026-01-02) "
                                "against no other commit")
    assert lines[small + 2].split() == ["ftsm.finish_ms", "100", "ms"]
    assert lines[-1] == "crypt: no untraced records"


# -- paired runs ------------------------------------------------------------

CONTRACT = {"run_seconds": 30, "per_layer": [], "end_to_end": [
    {"name": "op_p50_ms", "unit": "ms", "better": "lower"},
    {"name": "read_MBps", "unit": "MB/s", "better": "higher"}]}


def fake_detail(workload, op_p50_ms, read_MBps, failures=()):
    return {"workload": workload, "seed": 1, "seconds": 30, "trace": 0,
            "steal": {"share": 0.0, "clean_windows": 3, "windows": 3},
            "attempted": 100, "failures": list(failures),
            "gated": {"op_p50_ms": [op_p50_ms, "ms", 3],
                      "read_MBps": [read_MBps, "MB/s", 3]}}


def test_pairs_alternate_the_order_and_record_every_run(
        tmp_path, monkeypatch, capsys):
    trail = load_module("bench_trail", ROOT / "tools" / "bench_trail.py")
    parent, change = tmp_path / "parent", tmp_path / "change"
    (change / "BENCHMARK.json").parent.mkdir()
    (change / "BENCHMARK.json").write_text(json.dumps(CONTRACT))
    calls = []

    def fake_run(checkout, workload, trace, seconds, seed):
        calls.append((checkout, workload, trace, seconds, seed))
        slow = checkout == parent
        return fake_detail(workload, 2.0 if slow else 1.0,
                           10.0 if slow else 12.0)

    monkeypatch.setattr(trail, "TRAIL", tmp_path)
    monkeypatch.setattr(trail, "run_detail", fake_run)
    monkeypatch.setattr(trail, "commit_of",
                        lambda checkout: ("a" if checkout == parent
                                          else "b") * 40)
    monkeypatch.setattr(trail, "tree_of", lambda checkout: "t" * 64)
    assert trail.main(["--pairs", "3", "--against", str(parent),
                       "--checkout", str(change), "--workload", "small",
                       "--seed", "2"]) == 0
    assert [call[0] for call in calls] == \
        [parent, change, change, parent, parent, change]
    assert {call[1:] for call in calls} == {("small", 0, 30, 2)}

    records = json.loads((tmp_path / "BENCH_small.json").read_text())
    assert len(records) == 6
    pair_ids = [record["pair"] for record in records]
    assert len(set(pair_ids)) == 3
    assert pair_ids[0] == pair_ids[1] != pair_ids[2] == pair_ids[3]
    assert [record["commit"][0] for record in records] == \
        ["a", "b", "b", "a", "a", "b"]
    out = capsys.readouterr().out
    assert "op_p50_ms     parent 2 [2, 2]  change 1 [1, 1]  x0.500  " \
           "wins 3/3  gap -1 vs parent IQR 0" in out
    assert "failures      parent 0 of 300  change 0 of 300" in out


def test_two_trees_on_one_commit_are_two_builds(tmp_path, monkeypatch,
                                               capsys):
    """Runs of two uncommitted trees on one parent carry the same commit
    label; their `tree` digests tell them apart, and `--table` compares
    the later with the earlier."""
    trail = load_module("bench_trail", ROOT / "tools" / "bench_trail.py")
    checkout = tmp_path / "change"
    subprocess.run(["git", "init", "-q", str(checkout)], check=True)
    (checkout / "BENCHMARK.json").write_text(json.dumps(CONTRACT))
    (checkout / ".gitignore").write_text("*.pyc\n")
    for name in ("src", "perfbench"):
        (checkout / name).mkdir()
        (checkout / name / "a.py").write_text(f"{name} one\n")
    reads = iter([10.0, 11.0, 20.0, 21.0])

    def fake_run(checkout, workload, trace, seconds, seed):
        return {**fake_detail(workload, 1.0, next(reads)), "trace": trace}

    monkeypatch.setattr(trail, "TRAIL", tmp_path)
    monkeypatch.setattr(trail, "run_detail", fake_run)
    monkeypatch.setattr(trail, "commit_of", lambda checkout: "d" * 40
                        + "-dirty")
    monkeypatch.setattr(trail, "machine_probe", lambda: {
        "md5_s": 1.0, "sha256_s": 0.5, "sha_ext": True,
        "loopback_rtt_s": 1e-5})
    first = trail.tree_of(checkout)
    assert trail.main(["--checkout", str(checkout), "--workload",
                       "small"]) == 0
    # an ignored file, or one outside src/ and perfbench/, is no new build
    (checkout / "src" / "a.pyc").write_bytes(b"cache")
    (checkout / "notes.txt").write_text("notes")
    assert trail.tree_of(checkout) == first
    (checkout / "perfbench" / "a.py").write_text("perfbench two\n")
    second = trail.tree_of(checkout)
    assert second != first
    assert trail.main(["--checkout", str(checkout), "--workload",
                       "small"]) == 0

    records = json.loads((tmp_path / "BENCH_small.json").read_text())
    assert [record["tree"] for record in records] == [first] * 2 + \
        [second] * 2
    assert {record["commit"] for record in records} == {"d" * 40 + "-dirty"}
    capsys.readouterr()
    assert trail.main(["--table"]) == 0
    lines = capsys.readouterr().out.splitlines()
    small = lines.index(f"small: dddddddddddd-dirty tree {second[:8]} "
                        f"({records[0]['date'][:10]}) against dddddddddddd"
                        f"-dirty tree {first[:8]} "
                        f"({records[0]['date'][:10]})")
    rows = {line.split()[0]: line.split() for line in lines[small + 1:]}
    assert rows["read_MBps"] == ["read_MBps", "20", "MB/s", "10", "x2.000"]


def test_pair_summary_on_synthetic_numbers():
    trail = load_module("bench_trail", ROOT / "tools" / "bench_trail.py")

    def record(op_p50_ms, read_MBps, failures=0):
        return trail.record_of(
            fake_detail("small", op_p50_ms, read_MBps, ["x"] * failures),
            CONTRACT, "c" * 40)

    parent = [(1.5, 40), (1.4, 42), (1.6, 41), (1.2, 45), (1.7, 39)]
    change = [(1.0, 52), (1.5, 41), (0.9, 55), (1.1, 50), (0.8, 60)]
    pairs = [(record(*p, failures=1 if index == 0 else 0), record(*c))
             for index, (p, c) in enumerate(zip(parent, change))]
    lines = trail.pair_summary(pairs, CONTRACT)
    # parent op_p50_ms sorted 1.2 1.4 1.5 1.6 1.7: quartiles 1.4 and 1.6
    assert lines[0].split() == [
        "op_p50_ms", "parent", "1.5", "[1.4,", "1.6]",
        "change", "1", "[0.9,", "1.1]", "x0.667", "wins", "4/5",
        "gap", "-0.5", "vs", "parent", "IQR", "0.2",
        "(lower", "is", "better)"]
    assert lines[1].split()[:12] == [
        "read_MBps", "parent", "41", "[40,", "42]",
        "change", "52", "[50,", "55]", "x1.268", "wins", "4/5"]
    assert lines[2].split() == ["failures", "parent", "1", "of", "500",
                                "change", "0", "of", "500"]
    assert trail.quartiles([3.0]) == (3.0, 3.0, 3.0)


def test_pair_summary_reports_each_side_s_steal():
    """One line per side gives the median and range of the runs' CPU
    steal share, and the steal decides nothing else in the summary."""
    trail = load_module("bench_trail", ROOT / "tools" / "bench_trail.py")

    def record(steal):
        detail = fake_detail("small", 1.0, 40.0)
        detail["steal"]["share"] = steal
        return trail.record_of(detail, CONTRACT, "c" * 40)

    parent = [0.20, 0.05, 0.31, 0.18, 0.22]
    change = [0.29, 0.40, 0.11, 0.30, 0.27]
    lines = trail.pair_summary(
        [(record(p), record(c)) for p, c in zip(parent, change)], CONTRACT)
    assert lines[-2:] == [
        "  steal parent  median 20.0%  range 5.0% to 31.0%",
        "  steal change  median 29.0%  range 11.0% to 40.0%"]
    calm = trail.pair_summary([(record(0.0), record(0.0))] * 5, CONTRACT)
    assert lines[:-2] == calm[:-2]


def test_pairs_need_a_parent_checkout(tmp_path, monkeypatch):
    trail = load_module("bench_trail", ROOT / "tools" / "bench_trail.py")
    monkeypatch.setattr(trail, "run_detail", None)
    for argv in (["--pairs", "2"], ["--against", str(tmp_path)]):
        try:
            trail.main(argv)
        except SystemExit as exc:
            assert exc.code == 2
        else:
            raise AssertionError(f"{argv} ran")


# -- machine probe ----------------------------------------------------------

def test_each_run_records_a_digest_probe_before_and_after(
        tmp_path, monkeypatch, capsys):
    trail = load_module("bench_trail", ROOT / "tools" / "bench_trail.py")
    change = tmp_path / "change"
    change.mkdir()
    (change / "BENCHMARK.json").write_text(json.dumps(CONTRACT))
    cpuinfo = tmp_path / "cpuinfo"
    cpuinfo.write_text("processor\t: 0\nflags\t\t: fpu sse2 sha_ni avx2\n")
    probes, probes_before_run = [], []
    real_probe = trail.machine_probe

    def counted_probe():
        probes.append(real_probe())
        return probes[-1]

    def fake_run(checkout, workload, trace, seconds, seed):
        probes_before_run.append(len(probes))
        return fake_detail(workload, 1.0, 10.0)

    monkeypatch.setattr(trail, "TRAIL", tmp_path)
    monkeypatch.setattr(trail, "CPUINFO", cpuinfo)
    monkeypatch.setattr(trail, "PROBE_BYTES", 1 << 20)
    monkeypatch.setattr(trail, "ROUND_TRIPS", 50)
    monkeypatch.setattr(trail, "machine_probe", counted_probe)
    monkeypatch.setattr(trail, "run_detail", fake_run)
    monkeypatch.setattr(trail, "commit_of", lambda checkout: "d" * 40)
    monkeypatch.setattr(trail, "tree_of", lambda checkout: "t" * 64)
    assert trail.main(["--checkout", str(change), "--workload", "small"]) == 0
    assert probes_before_run == [1, 3]     # each run between its two probes

    records = json.loads((tmp_path / "BENCH_small.json").read_text())
    assert [record["probe"] for record in records] == [
        {"before": probes[0], "after": probes[1]},
        {"before": probes[2], "after": probes[3]}]
    for probe in probes:
        assert probe["md5_s"] > 0 and probe["sha256_s"] > 0
        assert probe["sha_ext"] is True
        assert probe["loopback_rtt_s"] > 0

    capsys.readouterr()
    assert trail.main(["--table"]) == 0
    lines = capsys.readouterr().out.splitlines()
    latest = records[-1]["probe"]
    ratios = [latest[when]["sha256_s"] / latest[when]["md5_s"]
              for when in ("before", "after")]
    assert f"  digest probe: sha256/md5 time x{ratios[0]:.3f} before, " \
           f"x{ratios[1]:.3f} after, SHA extensions yes" in lines
    assert f"  loopback probe: round trip " \
           f"{latest['before']['loopback_rtt_s'] * 1e6:.1f} us before, " \
           f"{latest['after']['loopback_rtt_s'] * 1e6:.1f} us after" in lines


def test_sha_extensions_read_from_the_cpu_flags(tmp_path, monkeypatch):
    trail = load_module("bench_trail", ROOT / "tools" / "bench_trail.py")
    cpuinfo = tmp_path / "cpuinfo"
    monkeypatch.setattr(trail, "CPUINFO", cpuinfo)
    assert trail.sha_extensions() is False             # no file
    for text, expected in (
            ("flags\t\t: fpu sse2 avx2\n", False),
            ("flags\t\t: fpu sha_ni\n", True),
            ("Features\t: fp asimd aes sha1 sha2\n", True),
            ("model name\t: sha_ni lookalike\nflags\t: fpu\n", False)):
        cpuinfo.write_text(text)
        assert trail.sha_extensions() is expected, text
