"""Run one naimark CLI command with every layer traced.

    python3 perfbench/cli_runner.py SPANS_FILE ARGV...

Installs the tracer, calls ``naimark.cli.main(ARGV)``, writes the spans and
counters to SPANS_FILE, also when main raises, and exits as main does.
``naimark`` must be importable: the benchmark puts the checkout's ``src`` on
PYTHONPATH.
"""

import json
import sys

import naimark.cli

from tracer import Tracer


def main() -> int:
    spans_file, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    try:
        with tracer.active():
            return naimark.cli.main(argv)
    finally:
        with open(spans_file, "w", encoding="utf-8") as fh:
            json.dump({"spans": tracer.spans, "counters": tracer.counters}, fh)


if __name__ == "__main__":
    sys.exit(main())
