"""Per-layer metrics from the spans of one traced run.

Spans are kept per process (the client and each node); parentage only
links spans of one process. Only spans that start inside the measured
window count, so set-up and warm-up do not. A span's self time is its
duration minus the part of it that its child spans cover.

Times (`_s`), counts and megabytes are totals over the measured window
divided by the benchmark ops in it (`bench.*` spans), so a faster run
that fits more ops in the window does not read as more work; `_ms`
figures are medians over the calls in the window. A layer a workload
never reaches reads 0.
"""

from __future__ import annotations

import statistics
from collections import defaultdict

from spans import END, FAILED, ID, NAME, NBYTES, PARENT, START

PER_LAYER = (
    ("secchan.connect_ms", "ms"),
    ("secchan.connects_per_op", "1/op"),
    ("secchan.seal_s", "s/op"),
    ("secchan.open_s", "s/op"),
    ("secchan.sealed_MB", "MB/op"),
    ("secchan.send_s", "s/op"),
    ("secchan.recv_s", "s/op"),
    ("wire.frames", "1/op"),
    ("wire.codec_s", "s/op"),
    ("node.sessions", "1/op"),
    ("perms.checks", "1/op"),
    ("perms.check_s", "s/op"),
    ("ftsm.offer_ms", "ms"),
    ("ftsm.finish_ms", "ms"),
    ("ftsm.data_s", "s/op"),
    ("ftsm.pwrite_s", "s/op"),
    ("ftsm.sender_digest_s", "s/op"),
    ("ftsm.receiver_digest_s", "s/op"),
    ("ftsm.sidecar_s", "s/op"),
    ("ftsm.sidecar_writes", "1/op"),
    ("ftsm.quiesce_wait_s", "s/op"),
    ("ftsm.resume_skip_ratio", "ratio"),
    ("ftsm.retries", "1/op"),
    ("dfsm.read_ms", "ms"),
    ("dfsm.write_ms", "ms"),
    ("dfsm.stat_ms", "ms"),
    ("dfsm.lock_ms", "ms"),
    ("dfsm.lock_conflicts", "1/op"),
    ("taskexec.submit_ms", "ms"),
    ("taskexec.stage_ms", "ms"),
    ("taskexec.run_ms", "ms"),
    ("taskexec.collect_ms", "ms"),
    ("cryptengine.encrypt_s", "s/op"),
    ("cryptengine.blocks", "1/op"),
    ("cryptengine.requeued_parts", "1/op"),
    ("cryptengine.source_read_s", "s/op"),
    ("cryptengine.block_pull_s", "s/op"),
    ("cryptengine.decrypt_s", "s/op"),
    ("node.rss_MiB", "MiB"),
)

CODEC = ("wire.encode_frame", "wire.decode_frame", "wire.encode_fields",
         "wire.decode_fields")


class Process:
    """The spans of one process, indexed by id and by parent."""

    def __init__(self, spans: list[tuple], window: tuple[float, float]):
        self.by_id = {span[ID]: span for span in spans}
        self.children: dict[int, list[tuple]] = defaultdict(list)
        self.by_name: dict[str, list[tuple]] = defaultdict(list)
        for span in spans:
            if span[PARENT]:
                self.children[span[PARENT]].append(span)
            if window[0] <= span[START] <= window[1]:
                self.by_name[span[NAME]].append(span)

    def self_time(self, span: tuple) -> float:
        covered = 0.0
        reach = span[START]
        for start, end in sorted((child[START], child[END])
                                 for child in self.children[span[ID]]):
            start, end = max(start, reach), min(end, span[END])
            if end > start:
                covered += end - start
                reach = end
        return span[END] - span[START] - covered

    def under(self, span: tuple, name: str) -> bool:
        parent = self.by_id.get(span[PARENT])
        while parent is not None:
            if parent[NAME] == name:
                return True
            parent = self.by_id.get(parent[PARENT])
        return False


def per_layer(processes: dict[str, list[tuple]], window: tuple[float, float],
              node_rss: dict[str, float],
              context: dict[str, float]) -> dict[str, float]:
    procs = {name: Process(spans, window) for name, spans in processes.items()}
    client = procs["client"]

    def each(name: str):
        for proc in procs.values():
            for span in proc.by_name[name]:
                yield proc, span

    def count(name: str) -> int:
        return sum(1 for _ in each(name))

    def total(name: str, where=None) -> float:
        return sum(span[END] - span[START] for proc, span in each(name)
                   if where is None or where(proc, span))

    def total_self(*names: str) -> float:
        return sum(proc.self_time(span) for name in names
                   for proc, span in each(name))

    def p50_ms(name: str, where=None) -> float:
        values = [span[END] - span[START] for proc, span in each(name)
                  if where is None or where(proc, span)]
        return statistics.median(values) * 1e3 if values else 0.0

    transfers = [(proc, span) for name in ("ftsm.TransferClient.push_on",
                                           "ftsm.TransferClient.pull_on")
                 for proc, span in each(name)]
    offers, finishes = [], []
    for proc, span in transfers:
        kids = sorted(proc.children[span[ID]], key=lambda kid: kid[START])
        replies = [kid for kid in kids
                   if kid[NAME] == "secchan.Channel.recv"]
        if replies:
            offers.append(replies[0][END] - span[START])
        data = [kid for kid in kids if kid[NAME] in (
            "ftsm.TransferClient._run_senders",
            "ftsm.TransferClient._run_receivers")]
        if data:
            finishes.append(span[END] - data[-1][END])

    bench_ops = sum(len(spans) for name, spans in client.by_name.items()
                    if name.startswith("bench."))
    def under(name: str):
        return lambda proc, span: proc.under(span, name)

    queued = sum(span[NBYTES] for _, span in each("cryptengine._run_queue"))
    planned = context.get("blocks_per_distribute", 0) * \
        count("cryptengine.distribute")

    values = {
        "secchan.connect_ms": p50_ms("secchan.connect"),
        "secchan.connects_per_op": len(client.by_name["secchan.connect"]),
        "secchan.seal_s": total("secchan.ChannelKeys.seal"),
        "secchan.open_s": total("secchan.ChannelKeys.open"),
        "secchan.sealed_MB": sum(
            span[NBYTES] for _, span in each("secchan.ChannelKeys.seal")) / 1e6,
        "secchan.send_s": total_self("secchan.Channel.send"),
        "secchan.recv_s": total_self("secchan.Channel.recv"),
        "wire.frames": count("wire.encode_frame"),
        "wire.codec_s": total_self(*CODEC),
        "node.sessions": count("wire.negotiate"),
        "perms.checks": count("perms.check"),
        "perms.check_s": total("perms.check"),
        "ftsm.offer_ms": statistics.median(offers) * 1e3 if offers else 0.0,
        "ftsm.finish_ms":
            statistics.median(finishes) * 1e3 if finishes else 0.0,
        "ftsm.data_s": total("ftsm.TransferClient._run_senders")
            + total("ftsm.TransferClient._run_receivers"),
        "ftsm.pwrite_s": total_self("ftsm.RegionReceiver.write_chunk"),
        "ftsm.sender_digest_s": total(
            "ftsm.md5_region",
            lambda proc, span: not proc.under(
                span, "ftsm.RegionReceiver.finish")),
        "ftsm.receiver_digest_s": total(
            "ftsm.md5_region", under("ftsm.RegionReceiver.finish")),
        "ftsm.sidecar_s": total("ftsm.save_state"),
        "ftsm.sidecar_writes": count("ftsm.save_state"),
        "ftsm.quiesce_wait_s": total("ftsm.TransferSession.wait_quiesce"),
        "ftsm.resume_skip_ratio": context.get("resume_skip_ratio", 0.0),
        "ftsm.retries": count("ftsm.TransferClient._push_once")
            + count("ftsm.TransferClient._pull_once")
            - count("ftsm.TransferClient.push")
            - count("ftsm.TransferClient.pull"),
        "dfsm.read_ms": p50_ms("dfsm.FsClient.read"),
        "dfsm.write_ms": p50_ms("dfsm.FsClient.write"),
        "dfsm.stat_ms": p50_ms("dfsm.FsClient.stat"),
        "dfsm.lock_ms": p50_ms("dfsm.FsClient.lock"),
        "dfsm.lock_conflicts": sum(
            1 for _, span in each("dfsm.LockTable.acquire") if span[FAILED]),
        "taskexec.submit_ms": p50_ms("taskexec.TaskClient.submit"),
        "taskexec.stage_ms": p50_ms("ftsm.TransferClient.push_on",
                                    under("taskexec.TaskClient.submit")),
        "taskexec.run_ms": p50_ms("taskexec.run_builtin_task"),
        "taskexec.collect_ms": p50_ms("taskexec.TaskClient.collect"),
        "cryptengine.encrypt_s": total_self("cryptengine.encrypt_block_stream"),
        "cryptengine.blocks": count("cryptengine.encrypt_block_stream"),
        "cryptengine.requeued_parts": max(queued - planned, 0),
        "cryptengine.source_read_s": total(
            "dfsm.FsClient.read", under("cryptengine.encrypt_block_stream")),
        "cryptengine.block_pull_s": total(
            "ftsm.TransferClient.pull", under("cryptengine.reassemble")),
        "cryptengine.decrypt_s": total(
            "cryptengine.stream_decrypt", under("cryptengine.reassemble")),
        "node.rss_MiB": max(node_rss.values()) if node_rss else 0.0,
    }
    for name, unit in PER_LAYER:
        if unit.endswith("/op"):
            values[name] /= max(bench_ops, 1)
    return values
