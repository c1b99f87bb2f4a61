"""Run one numevents CLI call under the benchmark's tracer.

    PYTHONPATH=src python3 perfbench/trace_cli.py SPANS SPAWN_NS CALL_ID CLI_ARG...

Imports ``numevents.cli`` first, so the import is timed as the CLI pays it,
then wraps the calls between layers (see ``tracer.py``), runs ``cli.main``
on the given arguments, restores every wrapped name and writes the spans to
SPANS as JSON. SPAWN_NS is the parent's CLOCK_MONOTONIC reading just before
it started this process. Exits with the CLI's exit code.
"""

import time

ENTER_NS = time.monotonic_ns()

import sys  # noqa: E402


def main():
    spans_path, spawn_ns, call_id = sys.argv[1], int(sys.argv[2]), int(sys.argv[3])
    before = len(sys.modules)
    start_ns = time.monotonic_ns()
    import numevents.cli as cli

    imported_ns = time.monotonic_ns()
    record = {
        "call": call_id,
        "spawn_ns": spawn_ns,
        "enter_ns": ENTER_NS,
        "import_start_ns": start_ns,
        "import_end_ns": imported_ns,
        "modules": len(sys.modules) - before,
        "numpy_loaded": "numpy" in sys.modules,
    }
    import json

    from tracer import Tracer

    tracer = Tracer()
    undo = tracer.install()
    try:
        code = tracer.call("cli.main", cli.main, sys.argv[4:])
    finally:
        for owner, attr, original in undo:
            setattr(owner, attr, original)
        sys.stdout.flush()
        record.update(names=tracer.names, spans=tracer.spans, counts=tracer.counts)
        with open(spans_path, "w", encoding="utf-8") as fh:
            json.dump(record, fh, separators=(",", ":"))
    return code


if __name__ == "__main__":
    sys.exit(main())
