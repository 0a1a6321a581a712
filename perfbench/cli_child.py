"""Run one yieldcrit CLI command with layer spans recorded.

Usage: python -X importtime perfbench/cli_child.py SPANS_CSV ARGS...

Behaves like ``python -m yieldcrit.cli ARGS...`` (same stdout, stderr and
exit code) and writes the spans of the run to SPANS_CSV.  The package is
found through PYTHONPATH, which the benchmark points at the checkout's src/.
"""

import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import yieldcrit.cli as cli  # noqa: E402  (timed by -X importtime)

from families import CLI_PATCHES, PATCHES, patch_layers  # noqa: E402
from spans import Tracer  # noqa: E402


def main() -> int:
    spans_path, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    patch_layers(tracer, PATCHES + CLI_PATCHES)
    idx = tracer.open("cli.main")
    try:
        return cli.main(argv)
    finally:
        tracer.close(idx)
        tracer.write(spans_path)


if __name__ == "__main__":
    raise SystemExit(main())
