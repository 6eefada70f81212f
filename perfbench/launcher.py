"""Run one gridfs node with the span wrappers installed.

    python3 launcher.py --config NODE.conf --spans OUT.json

Starts the node exactly as `gridfs serve` does (`gridfs.node.run_node`),
after `spans.install`; when SIGTERM or SIGINT stops the node, the spans it
recorded are written to OUT.json.
"""

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import spans  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--config", required=True)
    parser.add_argument("--spans", required=True)
    args = parser.parse_args()
    tracer = spans.Tracer()
    spans.install(tracer)
    from gridfs.node import load_config, run_node
    code = run_node(load_config(args.config))
    tracer.dump(args.spans)
    return code


if __name__ == "__main__":
    sys.exit(main())
