"""Traced entry point for one scoreplay command-line invocation.

    PYTHONPATH=src python3 bench/cli_entry.py TRACE_JSON SUBCOMMAND [ARGS...]

Installs the spans of spans.py, then runs scoreplay.cli.main(ARGS) the way
`python -m scoreplay` does: same output, same exit code, and an uncaught
exception still ends the process with a traceback and exit code 1.  The
span summary, the import time and the wall time of main() are written to
TRACE_JSON whatever happens.
"""

from __future__ import annotations

import json
import sys
import time


def main() -> None:
    trace_path, argv = sys.argv[1], sys.argv[2:]
    start = time.perf_counter()
    import scoreplay.cli
    from scoreplay import game
    import_s = time.perf_counter() - start

    import spans
    tracer = spans.Tracer()
    tracer.install()
    nodes_before = game.store_size()
    start = time.perf_counter()
    try:
        code = scoreplay.cli.main(argv)
    finally:
        wall_s = time.perf_counter() - start
        with open(trace_path, "w", encoding="utf-8") as fh:
            json.dump({"import_s": import_s, "wall_s": wall_s,
                       "nodes_interned": game.store_size() - nodes_before,
                       "summary": tracer.summary(), "spans": tracer.spans}, fh)
    raise SystemExit(code)


if __name__ == "__main__":
    main()
