"""Run one layout's ``shor-mps`` calls in a fresh interpreter and time them.

Usage: python3 perfbench/worker.py '<job json>'

The job holds ``calls`` (argument lists for ``shormps.cli.main``), ``trace``
and ``out``.  Each call is timed from the call to the report written; the
interpreter start and the import are not included.  The result written to
``out`` holds those times, each call's exit code, the process's peak RSS and,
when tracing, the per-function summary.
"""

import json
import resource
import sys
import traceback
from time import perf_counter


def main() -> int:
    job = json.loads(sys.argv[1])
    tracer = None
    if job["trace"]:
        from tracing import Tracer, install

        tracer = Tracer()
        install(tracer)
    from shormps import cli

    calls = []
    for argv in job["calls"]:
        error = None
        t0 = perf_counter()
        try:
            code = cli.main(argv)
        except Exception:
            code, error = None, traceback.format_exc()
        calls.append({"argv": argv, "seconds": perf_counter() - t0,
                      "exit": code, "error": error})
    result = {
        "calls": calls,
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "trace": tracer.summary() if tracer else None,
    }
    with open(job["out"], "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
