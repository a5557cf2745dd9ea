"""Traced stand-in for ``python -m arithdyn``.

Installs the tracer, calls ``arithdyn.cli.main`` with this process's
arguments, and writes the aggregated spans to PERFBENCH_TRACE_FILE when
main returns.  ``cli.startup_s`` runs from PERFBENCH_SPAWN_T, the parent's
monotonic clock just before it started this process, to the call of main.
"""

import json
import os
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from tracer import Tracer  # noqa: E402

import arithdyn.cli  # noqa: E402


def run():
    tracer = Tracer()
    tracer.install()
    tracer.values["cli.startup_s"] = (time.monotonic()
                                      - float(os.environ["PERFBENCH_SPAWN_T"]))
    try:
        code = arithdyn.cli.main(sys.argv[1:])
    finally:
        with open(os.environ["PERFBENCH_TRACE_FILE"], "w",
                  encoding="utf-8") as fh:
            json.dump(tracer.values, fh)
    return code


if __name__ == "__main__":
    sys.exit(run())
