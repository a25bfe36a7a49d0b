"""Run the msnlib CLI as its console script does, optionally traced.

    python3 perfbench/cli_entry.py [--trace-out FILE] <msnlib arguments>

With --trace-out, the layers are wrapped (see tracing.py) before the CLI
runs, and their span summary is written to FILE as JSON when it exits.
"""

import json
import sys


def main():
    argv = sys.argv[1:]
    trace_out = None
    if argv[:1] == ["--trace-out"]:
        trace_out, argv = argv[1], argv[2:]
    sys.argv = ["msnlib", *argv]
    from msnlib import cli

    if trace_out is None:
        cli.main()
    from tracing import Tracer

    tracer = Tracer()
    tracer.install()
    try:
        cli.main()
    finally:
        with open(trace_out, "w", encoding="utf-8") as fh:
            json.dump(tracer.summary(), fh)


if __name__ == "__main__":
    main()
