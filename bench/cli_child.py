"""Run the morsegrass CLI once under the tracer (the traced form of a cli_cold query).

Usage: python cli_child.py <morsegrass arguments...>

Behaves like ``python -m morsegrass.cli``: same output, exit code and
tracebacks.  In addition it times ``import morsegrass.cli`` and writes one
summary line, prefixed with ``@@bench-stats``, to stderr on the way out.
"""

import json
import sys
import time

start = time.perf_counter()
import morsegrass.cli as cli  # noqa: E402
from morsegrass import flows, graphs, polynomials, polytopes, ring, symbols, witten  # noqa: E402

import_s = time.perf_counter() - start

from tracing import STATS_PREFIX, Tracer  # noqa: E402

tracer = Tracer([symbols, polynomials, flows, polytopes, witten, ring, graphs, cli])
tracer.install()
tracer.active = True
code = 1
try:
    code = cli.main(sys.argv[1:])
except SystemExit as exc:
    code = exc.code if isinstance(exc.code, int) else int(exc.code is not None)
finally:
    tracer.active = False
    summary = tracer.summary()
    summary["import_s"] = import_s
    sys.stdout.flush()
    sys.stderr.write(STATS_PREFIX + json.dumps(summary) + "\n")
sys.exit(code)
