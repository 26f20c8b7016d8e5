"""Run one gutzmerlab CLI command under the benchmark's tracer.

    python3 bench/cli_launcher.py [--memory] SPANS.json -- <gutzmerlab arguments>

Installs the tracer (and, with --memory, tracemalloc for the span peaks),
calls gutzmerlab.cli.main(argv), writes the spans to SPANS.json and exits
with main's return code.  gutzmerlab must
be importable (run.py puts src/ on PYTHONPATH).
"""

import json
import sys
import tracemalloc
from pathlib import Path

from tracer import Tracer


def main() -> int:
    args = sys.argv[1:]
    memory = bool(args) and args[0] == "--memory"
    args = args[1:] if memory else args
    if len(args) < 2 or args[1] != "--":
        print(__doc__, file=sys.stderr)
        return 2
    out, argv = Path(args[0]), args[2:]
    from gutzmerlab import cli

    tracer = Tracer()
    if memory:
        tracemalloc.start()
    try:
        with tracer.installed():
            return cli.main(argv)
    finally:
        tracemalloc.stop()
        out.write_text(json.dumps(tracer.dump()))


if __name__ == "__main__":
    sys.exit(main())
