"""Run one privlog-client or privlog-server command, optionally traced.

Usage: child.py TRACE_OUT {client|server} ARGS...

TRACE_OUT is "-" for an untraced run; otherwise the folded spans of the
run are written there as JSON. The command runs through
`privlog.cli.client_main` or `server_main`, as the installed console
scripts do, from the sources of the checkout this file sits in.
"""

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]


def main() -> int:
    trace_out, side, argv = sys.argv[1], sys.argv[2], sys.argv[3:]
    from privlog import cli

    entry = {"client": cli.client_main, "server": cli.server_main}[side]
    if trace_out == "-":
        return entry(argv)

    from tracing import Tracer, install

    tracer = Tracer()
    install(tracer)
    code = tracer.wrap(f"cli.{side}_main", entry)(argv)
    with open(trace_out, "w", encoding="utf-8") as fh:
        json.dump(tracer.dump(), fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
