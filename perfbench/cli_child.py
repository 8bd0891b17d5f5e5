"""Traced stand-in for ``python3 -m liecohom``: one CLI invocation with spans.

    python3 perfbench/cli_child.py TRACE_OUT [liecohom arguments...]

Times the package import, installs the tracer, runs ``liecohom.cli.main``
inside a ``cli.main`` span and writes the import time and spans to TRACE_OUT
before exiting with the command's exit code.
"""

from __future__ import annotations

import json
import sys
import time

import tracer as tracing


def main() -> int:
    out_path, argv = sys.argv[1], sys.argv[2:]
    t0 = time.perf_counter()
    import liecohom.cli
    import_s = time.perf_counter() - t0
    tr = tracing.Tracer()
    tracing.install(tr)
    tr.query = 0
    rc = 1
    try:
        rc = tr.wrap(liecohom.cli.main, "cli.main")(argv)
    finally:
        sys.stdout.flush()
        with open(out_path, "w", encoding="utf-8") as fh:
            json.dump({"import_s": import_s, **tr.dump()}, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main())
