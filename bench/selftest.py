#!/usr/bin/env python3
"""Self-test of the benchmark: python3 bench/selftest.py

Runs every workload at a tiny size.  Each query's output must pass its
check, and a deliberately corrupted copy of the output (a flipped torsion
coefficient, an off-by-one f-vector, a wrong limit symbol, a bumped
structure constant, an altered CLI payload or a traceback) must fail it.
Also checks the independent oracles on known values, the tail-percentile
rule, and that the tracer restores every function it wraps.
"""

from __future__ import annotations

import shutil
import sys
import tempfile
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import oracles  # noqa: E402
import reference  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from morsegrass import cli, flows, graphs, polynomials, polytopes, ring, symbols, witten  # noqa: E402

# Queries drawn per workload: enough to reach every kind in its pattern.
DRAWS = {"schubert_calculus": 20, "witten_homology": 6, "moment_polytopes": 12,
         "flow_limits": 20, "cli_cold": len(workloads.CLI_ORDER)}

failures: list[str] = []


def expect(cond: bool, what: str):
    print(("ok   " if cond else "FAIL ") + what)
    if not cond:
        failures.append(what)


def test_oracles():
    expect(oracles.syt_count((2, 2)) == 2 and oracles.syt_count((3, 2, 1)) == 16, "hook-length counts")
    expect(oracles.bareiss([[2, 1], [1, 3]]) == (2, 5), "Bareiss rank and determinant")
    expect(oracles.bareiss([[1, 2], [2, 4]]) == (1, 0), "Bareiss on a singular matrix")
    expect(oracles.rank_mod2([[1, 1], [1, 1], [0, 2]]) == 1, "rank over GF(2)")
    expect(oracles.hypersimplex_f_vector(2, 4) == (6, 12, 8, 1), "octahedron f-vector")
    expect(oracles.euler_holds((6, 12, 8, 1)) and not oracles.euler_holds((7, 12, 8, 1)), "Euler relation")
    expect(oracles.universal_coefficients_mod2({0: 1, 1: 0}, {0: [2], 1: []}) == {0: 2, 1: 1},
           "universal coefficients")
    expect(run.tail_latency([float(i) for i in range(1, 101)]) == (90.0, 90.0), "tail rule at 100 samples")
    expect(run.tail_latency([1.0] * 12)[0] == 50.0, "tail rule below 20 samples falls back to p50")
    ref = reference.Reference()
    nominal = reference.NOMINAL_S
    ref.starts, ref.values = [0.0, 1.0, 2.0], [nominal, 2 * nominal, 4 * nominal]
    expect(abs(ref.scale(1.0, 1.1) - 0.05) < 1e-12, "a time is scaled by the reference ticks near it")
    expect(abs(ref.scale(5.0, 5.1) - 0.025) < 1e-12, "with no tick near, by the nearest one")


def test_workload(name, ctx):
    stream = workloads.WORKLOADS[name](7, ctx)
    kinds = Counter()
    for _ in range(DRAWS[name]):
        q = next(stream)
        out = q.call()
        err = q.check(out)
        expect(err is None, f"{name}/{q.kind}: correct output passes ({err})")
        bad = q.check(q.corrupt(out))
        expect(bad is not None, f"{name}/{q.kind}: corrupted output fails ({bad})")
        kinds[q.kind] += 1
    return kinds


def test_planted_torsion():
    """A flipped torsion coefficient on a complex that has torsion."""
    import random

    rng = random.Random(3)
    while True:
        c, ranks, torsion = workloads.planted_complex(rng, 3, 2, 4, 1)
        if any(torsion.values()):
            break
    z, m2 = witten.homology(c, "integers"), witten.homology(c, "mod2")
    expect(workloads._homology_check(z, m2, ranks, torsion) is None, "planted torsion recovered")
    bad = workloads._flip_torsion((z, m2))
    expect(workloads._homology_check(*bad, ranks, torsion) is not None, "flipped torsion coefficient fails")


def test_tracer():
    modules = [symbols, polynomials, flows, polytopes, witten, ring, graphs, cli]
    before = {(m.__name__, k): v for m in modules for k, v in vars(m).items()}
    tracer = tracing.Tracer(modules)
    tracer.install()
    expect(all(hasattr(f, "__wrapped__") for f in (ring.enumerate_symbols, polytopes.flow,
                                                  polytopes.projector, witten.smith_normal_form)),
           "cross-module and same-module names wrapped")
    tracer.active = True
    root = tracer.open("bench.query", "bench")
    ring.cup_product(ring.CohomologyClass.basis(symbols.SchubertSymbol((2, 4), 4)),
                     ring.CohomologyClass.basis(symbols.SchubertSymbol((2, 4), 4)))
    tracer.active = False
    tracer.close(root)
    tracer.uninstall()
    after = {(m.__name__, k): v for m in modules for k, v in vars(m).items()}
    expect(before == after, "uninstall restores every module attribute")
    summary = tracer.summary()
    expect(summary["counters"].get("ring.basis_products") == 1, "cup product counted once")
    expect(summary["counters"].get("ring.candidate_shapes") == 6, "candidate shapes = C(4,2)")
    expect(summary["self"].get("ring", 0) > 0 and summary["self"].get("symbols", 0) > 0,
           "self time split between ring and symbols")


def main() -> int:
    test_oracles()
    test_planted_torsion()
    test_tracer()
    (ROOT / ".bench_work").mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="selftest-", dir=ROOT / ".bench_work"))
    try:
        ctx = workloads.Context(workdir=work, tiny=True, env=run.child_env())
        for name in run.WORKLOAD_NAMES:
            kinds = test_workload(name, ctx)
            print(f"     {name}: {dict(kinds)}")
        ctx.traced = True
        out = workloads.run_cli(ctx, ["cells", "2", "4"])
        expect(out.code == 0 and len(ctx.child_summaries) == 1
               and ctx.child_summaries[0]["import_s"] > 0, "traced CLI child reports its summary")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(f"\n{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
