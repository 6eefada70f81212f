"""Time distributed block encryption with a collector.

    python3 tools/collector_probe.py [--size BYTES] [--block-size BYTES]
        [--rounds N]

No benchmark workload runs a collector, so this probe measures that path.
It starts three alike `gridfs serve` processes of this checkout on
loopback with `harness.spawn_cluster(Topology.COMPLETE_GRAPH, 3)`: the
first two are the workers and the last is the collector, while the probe
process itself distributes. It writes a file of SIZE bytes from seed 1
(default 32 MiB) and, after one untimed warm-up, times N rounds (default
5) of `cryptengine.distribute` of that file to the two workers with the
collector, in blocks of BLOCK-SIZE (default 1 MiB) under AES-128 and
NONSECURE. It prints each round's rate and then their median, in MB/s
(10^6 bytes per second of the file). Last, it reassembles the file from
the collector and compares it with the source byte for byte.

There is no gate on the rate: the probe exits 1 only when the rebuilt
file differs from the source or a run raises. Stopping the cluster ends
every node process and removes the scratch tree that holds the file.
"""

from __future__ import annotations

import argparse
import os
import random
import statistics
import sys
import time
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
sys.path.insert(0, str(SRC))

from gridfs import cryptengine  # noqa: E402
from gridfs.harness import Topology, spawn_cluster  # noqa: E402
from gridfs.wire import SecurityMode  # noqa: E402

MB = 1e6
SECURITY = SecurityMode.NONSECURE


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--size", type=int, default=32 * 2 ** 20)
    parser.add_argument("--block-size", type=int, default=2 ** 20)
    parser.add_argument("--rounds", type=int, default=5)
    args = parser.parse_args(argv)
    if args.rounds < 1:
        parser.error("--rounds must be at least 1")

    # the node processes run the same checkout
    os.environ["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    rng = random.Random(1)
    params = cryptengine.CipherParams("aes128", rng.randbytes(16),
                                      rng.randbytes(16))
    with spawn_cluster(Topology.COMPLETE_GRAPH, 3) as cluster:
        source = cluster.scratch / "probe.bin"
        source.write_bytes(rng.randbytes(args.size))
        *workers, collector = [node.endpoint for node in cluster.nodes]

        def distribute():
            return cryptengine.distribute(
                source, workers, params, cluster.username, cluster.psk,
                block_size=args.block_size, security=SECURITY,
                collector=collector)

        distribute()
        rates = []
        for round_number in range(args.rounds):
            start = time.perf_counter()
            manifest = distribute()
            seconds = time.perf_counter() - start
            rates.append(args.size / seconds / MB)
            print(f"round {round_number}: {rates[-1]:.1f} MB/s")
        print(f"median: {statistics.median(rates):.1f} MB/s over "
              f"{args.rounds} rounds of {args.size} bytes in "
              f"{args.block_size}-byte blocks")

        rebuilt = cluster.scratch / "rebuilt.bin"
        cryptengine.reassemble(manifest, params, rebuilt, cluster.username,
                               cluster.psk, security=SECURITY)
        if rebuilt.read_bytes() != source.read_bytes():
            print("check: rebuilt file differs from the source")
            return 1
        print("check: rebuilt file matches the source")
    return 0


if __name__ == "__main__":
    sys.exit(main())
