"""Seeded workloads: each is an endless stream of checked queries.

A workload is a generator function ``make(seed, ctx)`` that yields ``Query``
objects.  ``Query.call`` is the only part that is timed; it calls one or a
few public functions of a morsegrass module (looked up on the module at call
time, so the tracer's wrappers are seen).  ``Query.check`` compares the
output with an answer computed when the query was made, either planted in
the input or recomputed by an independent route from ``oracles``, and
returns a failure reason or None.  ``Query.corrupt`` returns a deliberately
wrong output of the same shape, which the self-test feeds to ``check``.

The same seed always yields the same stream of queries.
"""

from __future__ import annotations

import itertools
import json
import random
import subprocess
import sys
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from math import comb
from pathlib import Path
from typing import Any, Callable

import numpy as np

import oracles
from tracing import STATS_PREFIX
from morsegrass import flows, polynomials, polytopes, ring, symbols, witten


@dataclass
class Query:
    kind: str
    call: Callable[[], Any]
    check: Callable[[Any], "str | None"]
    corrupt: Callable[[Any], Any]


@dataclass
class Context:
    """Run-wide state shared by a workload's queries and the harness."""

    workdir: Path
    tiny: bool = False
    traced: bool = False
    # health values measured by the checks, as running maxima
    health: dict = field(default_factory=dict)
    # per-process summaries sent back by traced CLI children
    child_summaries: list = field(default_factory=list)
    # counts over the CLI processes run so far
    cli: Counter = field(default_factory=Counter)
    env: dict = field(default_factory=dict)

    def note_max(self, name: str, value: float):
        self.health[name] = max(self.health.get(name, 0.0), float(value))


def _fail_if(cond: bool, reason: str) -> "str | None":
    return reason if cond else None


# ------------------------------------------------------------------ symbols

def _symbol(entries, n):
    return symbols.SchubertSymbol(tuple(entries), n)


def _random_symbol(rng, k, n):
    return _symbol(sorted(rng.sample(range(1, n + 1), k)), n)


def _parts(u):
    """Codimension partition of a symbol, computed here rather than by ring."""
    k, n = u.k, u.n
    return tuple((n - k) + j - e for j, e in enumerate(u.entries, 1))


def _all_symbols(k, n):
    return [_symbol(c, n) for c in itertools.combinations(range(1, n + 1), k)]


# -------------------------------------------------------- schubert_calculus

# Each slot is (kind, Grassmannian); None picks the next of SIGMA1_SIZES or
# CHERN_SIZES.  Basis products dominate, Gr(4,9) holds the median latency
# well inside its own block, and every prefix of the stream keeps the mix.
RING_PATTERN = (
    ("basis", (4, 9)), ("triple", (3, 7)), ("basis", (3, 7)), ("basis", (4, 9)),
    ("multi", (3, 7)), ("basis", (4, 8)), ("basis", (5, 10)), ("triple", (4, 8)),
    ("basis", (4, 9)), ("sigma1", None), ("basis", (3, 7)), ("basis", (4, 9)),
    ("triple", (4, 9)), ("basis", (4, 8)), ("multi", (4, 8)), ("basis", (4, 9)),
    ("basis", (5, 10)), ("triple", (5, 10)), ("basis", (4, 9)), ("chern", None),
)
RING_TINY = (2, 5)
SIGMA1_SIZES = ((2, 4), (2, 5), (3, 5), (2, 6))
CHERN_SIZES = ((2, 4), (2, 5), (3, 5), (2, 6), (3, 6))


def _class_check(out, k, n, weight):
    if not isinstance(out, ring.CohomologyClass) or (out.k, out.n) != (k, n):
        return "product is not a class of the right Grassmannian"
    for u, c in out.coefficients.items():
        if c <= 0:
            return f"non-positive structure constant {c} at {u}"
        if sum(_parts(u)) != weight:
            return f"term {u} has codimension {sum(_parts(u))}, expected {weight}"
    return None


def _bump(cls):
    """A wrong class: one coefficient off by one, or a spurious term."""
    coeffs = dict(cls.coefficients)
    if coeffs:
        u = next(iter(coeffs))
        coeffs[u] += 1
    else:
        coeffs[symbols.SchubertSymbol(tuple(range(1, cls.k + 1)), cls.n)] = 1
    return ring.CohomologyClass(cls.k, cls.n, coeffs)


def _basis_query(rng, k, n):
    top = k * (n - k)
    special = rng.random() < 0.25
    while True:
        u = _random_symbol(rng, k, n)
        i = rng.randint(1, k)
        v = ring.special_symbol(k, n, i) if special else _random_symbol(rng, k, n)
        if sum(_parts(u)) + sum(_parts(v)) <= top:
            break
    a, b = ring.CohomologyClass.basis(u), ring.CohomologyClass.basis(v)
    reverse = ring.cup_product(b, a)
    pieri = ring.pieri_product(a, i) if special else None
    mu, nu = _parts(u), _parts(v)
    bound, fits = oracles.lr_dimension_bound(mu, nu, k, n)

    def check(out):
        bad = _class_check(out, k, n, sum(mu) + sum(nu))
        if bad:
            return bad
        if out != reverse:
            return f"z{u} z{v} != z{v} z{u}"
        if pieri is not None and out != pieri:
            return f"z{u} times special class {i} disagrees with Pieri"
        total = sum(c * oracles.syt_count(_parts(w)) for w, c in out.coefficients.items())
        if total > bound or (fits and total != bound):
            return f"sum c f^lam = {total}, hook-length count {bound} (untruncated={fits})"
        return None

    return Query("basis", lambda: ring.cup_product(a, b), check, _bump)


def _small_symbol(rng, k, n, lo, hi):
    pool = [u for u in _all_symbols(k, n) if lo <= sum(_parts(u)) <= hi]
    return rng.choice(pool)


def _multi_query(rng, k, n):
    a, b, c = (ring.CohomologyClass.basis(_small_symbol(rng, k, n, 1, 2)) for _ in range(3))
    other = ring.cup_product(c, ring.cup_product(b, a))
    weight = sum(sum(_parts(next(iter(z.coefficients)))) for z in (a, b, c))

    def run():
        return ring.cup_product(ring.cup_product(a, b), c)

    def check(out):
        bad = _class_check(out, k, n, weight) if not out.is_zero() else None
        return bad or _fail_if(out != other, "(ab)c != c(ba)")

    return Query("multi", run, check, _bump)


def _triple_query(rng, k, n):
    top = k * (n - k)
    while True:
        u, v = _random_symbol(rng, k, n), _random_symbol(rng, k, n)
        rest = top - sum(_parts(u)) - sum(_parts(v))
        pool = [w for w in _all_symbols(k, n) if sum(_parts(w)) == rest]
        if pool:
            break
    w = rng.choice(pool)
    rotated = ring.triple_product(w, u, v)
    swapped = ring.triple_product(v, w, u)

    def check(out):
        if not isinstance(out, int) or out < 0:
            return f"triple product {out!r} is not a nonnegative integer"
        return _fail_if(not out == rotated == swapped,
                        f"<z{u} z{v} z{w}> = {out}, rotations give {rotated}, {swapped}")

    return Query("triple", lambda: ring.triple_product(u, v, w), check, lambda x: x + 1)


def _sigma1_query(_rng, k, n):
    top = k * (n - k)
    s1 = ring.CohomologyClass.basis(ring.special_symbol(k, n, 1))
    point = symbols.SchubertSymbol(tuple(range(1, k + 1)), n)
    want = oracles.syt_count((n - k,) * k)

    def run():
        z = s1
        for _ in range(top - 1):
            z = ring.cup_product(z, s1)
        return z

    def check(out):
        return _fail_if(out.coefficients != {point: want},
                        f"sigma_1^{top} = {out}, expected {want} z{point}")

    return Query("sigma1", run, check, _bump)


def _chern_query(_rng, k, n):
    return Query(
        "chern",
        lambda: ring.chern_presentation_check(k, n),
        lambda out: _fail_if(out is not True, f"Chern presentation of Gr({k},{n}) failed"),
        lambda out: not out,
    )


def schubert_calculus(seed, ctx):
    rng = random.Random(seed)
    makers = {"basis": _basis_query, "triple": _triple_query, "multi": _multi_query,
              "sigma1": _sigma1_query, "chern": _chern_query}
    rotations = {"sigma1": itertools.cycle(SIGMA1_SIZES), "chern": itertools.cycle(CHERN_SIZES)}
    for kind, size in itertools.cycle(RING_PATTERN):
        if ctx.tiny:
            size = RING_TINY
        elif size is None:
            size = next(rotations[kind])
        yield makers[kind](rng, *size)


# ---------------------------------------------------------- witten_homology

TORSION_CHAINS = ((), (), (2,), (3,), (2, 4), (2, 6), (5,), (3, 9), (4,), (2, 2))


def planted_complex(rng, degrees: int, rank_lo: int, rank_hi: int, free_hi: int):
    """A complex U_{i-1} D_i U_i^-1 with known homology.

    In the standard basis C_i = A_i + H_i + B_i, d_i maps B_i onto A_{i-1} by
    a diagonal of divisors (mostly 1, plus a planted torsion chain) and is
    zero elsewhere, so dd = 0; conjugating by random unimodular matrices
    hides the structure without changing the homology.
    """
    r = [0] + [rng.randint(rank_lo, rank_hi) for _ in range(degrees - 1)] + [0]
    h = [rng.randint(0, free_hi) for _ in range(degrees)]
    dims = [r[i + 1] + h[i] + r[i] for i in range(degrees)]
    divisors = [None]
    for i in range(1, degrees):
        chain = rng.choice(TORSION_CHAINS)
        divisors.append([1] * (r[i] - len(chain)) + list(chain))
    pairs = [oracles.unimodular_pair(d, rng, ops=d) for d in dims]
    boundaries = {}
    for i in range(1, degrees):
        std = [[0] * dims[i] for _ in range(dims[i - 1])]
        for j, dv in enumerate(divisors[i]):
            std[j][dims[i] - r[i] + j] = dv
        boundaries[i] = oracles.matmul(oracles.matmul(pairs[i - 1][0], std), pairs[i][1])
    gens = {i: [f"g{i}_{j}" for j in range(dims[i])] for i in range(degrees)}
    ranks = {i: h[i] for i in range(degrees)}
    torsion = {i: [t for t in (divisors[i + 1] if i + 1 < degrees else []) if t > 1]
               for i in range(degrees)}
    return witten.WittenComplex(generators=gens, boundaries=boundaries), ranks, torsion


def _dense_complex(rng, size):
    m = [[rng.randint(-3, 3) for _ in range(size)] for _ in range(size)]
    c = witten.WittenComplex(
        generators={0: [f"a{j}" for j in range(size)], 1: [f"b{j}" for j in range(size)]},
        boundaries={1: m},
    )
    return c, m


def _homology_check(z, m2, ranks, torsion, det_matrix=None):
    if z.mode != "integers" or m2.mode != "mod2":
        return "homology modes mixed up"
    if ranks is not None:
        if z.ranks != ranks:
            return f"free ranks {z.ranks}, planted {ranks}"
        if {i: sorted(t) for i, t in z.torsion.items()} != torsion:
            return f"torsion {z.torsion}, planted {torsion}"
    if m2.ranks != oracles.universal_coefficients_mod2(z.ranks, z.torsion):
        return f"mod-2 Betti {m2.ranks} violate universal coefficients for {z.to_json()}"
    if det_matrix is not None:
        rank, det = oracles.bareiss(det_matrix)
        size = len(det_matrix)
        if z.ranks != {0: size - rank, 1: size - rank}:
            return f"free ranks {z.ranks} but Bareiss rank {rank} of {size}x{size}"
        if det:
            divisor_product = 1
            for t in z.torsion.get(0, []):
                divisor_product *= t
            if divisor_product != det:
                return f"product of divisors {divisor_product} != |det| {det}"
        if z.torsion.get(1):
            return "torsion in the top degree of a two-term complex"
        rank2 = oracles.rank_mod2(det_matrix)
        if m2.ranks != {0: size - rank2, 1: size - rank2}:
            return f"mod-2 Betti {m2.ranks} but GF(2) rank {rank2} of {size}x{size}"
    return None


def _flip_torsion(out):
    z, m2 = out
    torsion = {i: list(t) for i, t in z.torsion.items()}
    deg = max(torsion, key=lambda i: (len(torsion[i]), i))
    if torsion[deg]:
        torsion[deg][-1] += 1
    else:
        torsion[deg] = [2]
    return witten.HomologyResult(dict(z.ranks), torsion, z.mode), m2


# Dense sizes stop at 20: beyond that, SNF entry growth makes single
# instances vary by 10x, and the latency tail would follow the seed.
DENSE_SIZES = (16, 18, 20)


def witten_homology(seed, ctx):
    rng = random.Random(seed)
    for i in itertools.count():
        kind = ("planted", "dense")[i % 2]
        as_text = i % 3 == 2
        if kind == "planted":
            degrees = 3 + (i // 2) % 2
            if ctx.tiny:
                c, ranks, torsion = planted_complex(rng, degrees, 2, 4, 2)
            else:
                c, ranks, torsion = planted_complex(rng, degrees, 8, 14, 4)
            det_matrix = None
        else:
            size = 6 if ctx.tiny else DENSE_SIZES[(i // 2) % len(DENSE_SIZES)]
            c, det_matrix = _dense_complex(rng, size)
            ranks = torsion = None
        text = witten.dump_complex(c) if as_text else None

        def run(c=c, text=text):
            cx = witten.load_complex(text) if text is not None else c
            return witten.homology(cx, "integers"), witten.homology(cx, "mod2")

        def check(out, ranks=ranks, torsion=torsion, det_matrix=det_matrix):
            return _homology_check(*out, ranks, torsion, det_matrix)

        yield Query(kind + ("_text" if as_text else ""), run, check, _flip_torsion)


# --------------------------------------------------------- moment_polytopes

POLY_GRASSMANNIANS = ((2, 5), (2, 6), (3, 6), (2, 7), (3, 7))
HYPERSIMPLICES = ((2, 4), (2, 5), (1, 5), (1, 7))
FACE_MAX_VERTICES = 10
FACE_STRATA = 4


def _face_pool(tiny: bool):
    """Every Schubert polytope of the listed Grassmannians with 3..10 vertices,
    ordered by the brute-force cost C(nv, d)."""
    cap = 6 if tiny else FACE_MAX_VERTICES
    pool = []
    for k, n in POLY_GRASSMANNIANS[:1] if tiny else POLY_GRASSMANNIANS:
        for u in _all_symbols(k, n):
            verts = oracles.schubert_vertex_set(u.entries, k, n)
            if 3 <= len(verts) <= cap:
                pool.append(((comb(len(verts), oracles.affine_dimension(verts)), len(verts)), u))
    pool.sort(key=lambda p: (p[0], p[1].n, p[1].entries))
    return [u for _, u in pool]


def _stratified(rng, ranked, strata):
    """Endless picks from a cost-ranked list: the strata take turns, and each
    walks its members in its own seeded order, so every prefix of the stream
    has nearly the same mix of costs."""
    size = -(-len(ranked) // strata)
    orders = []
    for i in range(0, len(ranked), size):
        group = ranked[i:i + size]
        rng.shuffle(group)
        orders.append(itertools.cycle(group))
    for order in itertools.cycle(orders):
        yield next(order)


def _fvec_check(f, nverts, dim, closed=None):
    if closed is not None and f != closed:
        return f"f-vector {f}, closed form {closed}"
    if len(f) != dim + 1 or f[0] != nverts:
        return f"f-vector {f} does not fit {nverts} vertices in dimension {dim}"
    return _fail_if(not oracles.euler_holds(f), f"f-vector {f} violates Euler's relation")


def _off_by_one(f):
    return (f[0] + 1,) + tuple(f[1:])


def _face_query(u=None, hyper=None):
    if hyper is not None:
        k, n = hyper
        verts = [tuple(1 if i in c else 0 for i in range(1, n + 1))
                 for c in itertools.combinations(range(1, n + 1), k)]
        closed = oracles.hypersimplex_f_vector(k, n)

        def run():
            return polytopes.face_counts(polytopes.grassmannian_polytope(k, n))
    else:
        verts = oracles.schubert_vertex_set(u.entries, u.k, u.n)
        closed = None

        def run():
            return polytopes.face_counts(polytopes.schubert_polytope(u))
    dim = oracles.affine_dimension(verts)
    return Query("faces", run, lambda f: _fvec_check(tuple(f), len(verts), dim, closed), _off_by_one)


def _outside_vertex(rng, u):
    """e_v for a symbol v outside the closure of S_u (None if u is the top cell)."""
    out = [v for v in _all_symbols(u.k, u.n) if any(b > a for a, b in zip(u.entries, v.entries))]
    if not out:
        return None
    v = rng.choice(out)
    return tuple(1 if i in v.entries else 0 for i in range(1, u.n + 1))


def _member_query(rng, ctx, exact: bool):
    k, n = rng.choice(POLY_GRASSMANNIANS[:2] if ctx.tiny else POLY_GRASSMANNIANS)
    while True:
        u = _random_symbol(rng, k, n)
        outside = _outside_vertex(rng, u)
        if outside is not None:
            break
    inside = rng.random() < 0.5
    if exact and inside:
        verts = oracles.schubert_vertex_set(u.entries, k, n)
        picks = rng.sample(verts, min(len(verts), 3))
        w = [Fraction(rng.randint(1, 9)) for _ in picks]
        point = tuple(sum(wi * v[c] for wi, v in zip(w, picks)) / sum(w) for c in range(n))
    elif inside:
        # the moment image of a point planted in S_u, computed inside the query
        frame = oracles.richardson_frame(tuple(range(1, k + 1)), u.entries, n,
                                         np.random.default_rng(rng.getrandbits(64)))
        point = None
    else:
        point = outside if exact else tuple(float(x) for x in outside)

    def run():
        x = point if point is not None else polytopes.moment_map(flows.GrassmannPoint(frame))
        return polytopes.membership(x, polytopes.schubert_polytope(u))

    kind = ("member_exact" if exact else "member_float") + ("_in" if inside else "_out")
    return Query(
        kind,
        run,
        lambda out: _fail_if(out is not inside, f"{kind} for X{u}: got {out}"),
        lambda out: not out,
    )


POLY_PATTERN = ("faces", "member_float", "member_exact", "faces", "member_float", "member_exact",
                "faces", "member_float", "member_exact", "faces_hyper", "member_float", "member_exact")


def moment_polytopes(seed, ctx):
    rng = random.Random(seed)
    faces = _stratified(rng, _face_pool(ctx.tiny), 1 if ctx.tiny else FACE_STRATA)
    hypers = itertools.cycle(HYPERSIMPLICES[:1] if ctx.tiny else HYPERSIMPLICES)
    for i in itertools.count():
        kind = POLY_PATTERN[i % len(POLY_PATTERN)]
        if kind == "faces":
            yield _face_query(u=next(faces))
        elif kind == "faces_hyper":
            yield _face_query(hyper=next(hypers))
        else:
            yield _member_query(rng, ctx, exact=kind == "member_exact")


# -------------------------------------------------------------- flow_limits

# Gr(3,7) twice, so the median latency falls inside one size's block
FLOW_SIZES = ((2, 5), (3, 7), (3, 6), (4, 8), (3, 7))
FLOW_TIMES = (0.25, 0.5, 1.0)
TRACE_TIMES = (0.0, 0.5, 1.0, 2.0)
RK4_TIME, RK4_STEPS = 0.5, 40
# One query in LONG_EVERY is a long RK4 integration (the tier-1 criterion's
# step count), so the latency tail is set by real work rather than by the
# rare scheduler stall that tops a stream of identical short queries.
LONG_EVERY, LONG_SIZE, LONG_TIME, LONG_STEPS = 20, (3, 7), 1.0, 400
# RK4 with h * spread(a) <= 0.1 stays far inside this distance of the flow
RK4_TOL = 1e-6


def _planted_point(rng, k, n):
    """A frame in the stable cell of `down` and unstable cell of `up`, and a strict spectrum."""
    nprng = np.random.default_rng(rng.getrandbits(64))
    down = sorted(rng.sample(range(1, n + 1), k))
    up, prev = [], 0
    for d in down:
        prev = rng.randint(prev + 1, d)
        up.append(prev)
    frame = oracles.richardson_frame(up, down, n, nprng)
    a_vals = np.concatenate([[0.0], np.cumsum(0.3 + nprng.random(n - 1))])[::-1]
    return up, down, frame, a_vals, flows.HeightSpectrum(tuple(float(x) for x in a_vals))


def _rk4_gap(ctx, y, frame, a_vals, t):
    """Distance of an RK4 output from the closed-form flow e^{-tD} V, recorded as health."""
    ctx.note_max("projector_drift_max", oracles.idempotency_drift(y))
    gap = oracles.span_gap(y, np.exp(-t * (a_vals - a_vals.max()))[:, None] * frame)
    ctx.note_max("rk4_span_dist_max", gap)
    return _fail_if(gap > RK4_TOL, f"RK4 is {gap:.2e} from the closed form")


def _long_rk4_query(rng, ctx, k, n):
    _, _, frame, a_vals, a = _planted_point(rng, k, n)

    def run():
        return flows.integrate_flow(flows.GrassmannPoint(frame), a, LONG_TIME, steps=LONG_STEPS)

    def corrupt(y):
        return flows.GrassmannPoint(np.roll(y.matrix, 1, axis=0))

    return Query("rk4_long", run, lambda y: _rk4_gap(ctx, y.matrix, frame, a_vals, LONG_TIME), corrupt)


def _flow_query(rng, ctx, k, n):
    up, down, frame, a_vals, a = _planted_point(rng, k, n)
    weights = np.array([sum(a_vals[list(rows)]) for rows in itertools.combinations(range(n), k)])
    base_minors = oracles.minors(frame, k)

    def run():
        V = flows.GrassmannPoint(frame)
        lim_down = flows.limit_symbol(V, "down", a=a)
        lim_up = flows.limit_symbol(V, "up", a=a)
        moved = [flows.flow(V, a, t) for t in FLOW_TIMES]
        trace = polytopes.flow_moment_trace(V, a, TRACE_TIMES)
        plucker = flows.plucker_embed(V)
        rk4 = flows.integrate_flow(V, a, RK4_TIME, steps=RK4_STEPS)
        return lim_down, lim_up, moved, trace, plucker, rk4

    def check(out):
        lim_down, lim_up, moved, trace, plucker, rk4 = out
        if lim_down.entries != tuple(down) or lim_up.entries != tuple(up):
            return f"limits {lim_down}/{lim_up}, planted {tuple(down)}/{tuple(up)}"
        if not np.allclose(plucker, base_minors, rtol=1e-9, atol=1e-12):
            return "Plucker coordinates differ from the frame's minors"
        for t, W in zip(FLOW_TIMES, moved):
            ctx.note_max("projector_drift_max", oracles.idempotency_drift(W.matrix))
            want = np.exp(-t * (weights - weights.min())) * base_minors
            if oracles.same_line(oracles.minors(W.matrix, k), want) > 1e-8:
                return f"flow at t={t} breaks Plucker equivariance"
        heights = [float(np.dot(a_vals, p.coords)) for p in trace]
        if any(h2 > h1 + 1e-9 for h1, h2 in zip(heights, heights[1:])):
            return f"height rises along the flow: {heights}"
        start = np.real(np.diag(oracles.proj(frame)))
        if not np.allclose(trace[0].coords, start, atol=1e-9):
            return "moment trace does not start at the moment image of the point"
        return _rk4_gap(ctx, rk4.matrix, frame, a_vals, RK4_TIME)

    def corrupt(out):
        lim_down, *rest = out
        other = next(c for c in itertools.combinations(range(1, n + 1), k) if c != lim_down.entries)
        return (_symbol(other, n), *rest)

    return Query("flow", run, check, corrupt)


def flow_limits(seed, ctx):
    rng = random.Random(seed)
    sizes = FLOW_SIZES[:1] if ctx.tiny else FLOW_SIZES
    for i in itertools.count():
        if i % LONG_EVERY == LONG_EVERY - 1:
            yield _long_rk4_query(rng, ctx, *(sizes[0] if ctx.tiny else LONG_SIZE))
        else:
            yield _flow_query(rng, ctx, *sizes[i % len(sizes)])


# ------------------------------------------------------------------ cli_cold

@dataclass
class CliOutcome:
    code: int
    stdout: str
    stderr: str

    def payload(self):
        doc = json.loads(self.stdout)
        return doc.get("payload") if doc.get("status") == "ok" else None


def run_cli(ctx: Context, argv, env_extra=None) -> CliOutcome:
    """One fresh process running the CLI; traced runs go through cli_child."""
    if ctx.traced:
        cmd = [sys.executable, str(Path(__file__).with_name("cli_child.py")), "--json", *argv]
    else:
        cmd = [sys.executable, "-m", "morsegrass.cli", "--json", *argv]
    env = dict(ctx.env, **(env_extra or {}))
    proc = subprocess.run(cmd, cwd=ctx.workdir, env=env, capture_output=True, text=True, timeout=120)
    err = proc.stderr
    if ctx.traced:
        keep = []
        for line in err.splitlines(keepends=True):
            if line.startswith(STATS_PREFIX):
                ctx.child_summaries.append(json.loads(line[len(STATS_PREFIX):]))
            else:
                keep.append(line)
        err = "".join(keep)
    ctx.cli["processes"] += 1
    ctx.cli["exit_nonzero"] += proc.returncode != 0
    ctx.cli["tracebacks"] += "Traceback" in err
    ctx.cli["stdout_bytes"] += len(proc.stdout.encode())
    return CliOutcome(proc.returncode, proc.stdout, err)


def _same(a, b, tol=1e-9):
    """Structural equality of JSON values, floats within a relative tolerance."""
    if isinstance(a, dict) and isinstance(b, dict):
        return a.keys() == b.keys() and all(_same(a[x], b[x], tol) for x in a)
    if isinstance(a, list) and isinstance(b, list):
        return len(a) == len(b) and all(_same(x, y, tol) for x, y in zip(a, b))
    if isinstance(a, float) or isinstance(b, float):
        return isinstance(a, (int, float)) and isinstance(b, (int, float)) and \
            abs(a - b) <= tol * max(1.0, abs(a), abs(b))
    return a == b


def _cli_ok_check(expected, extra=None):
    def check(out: CliOutcome):
        if "Traceback" in out.stderr:
            return "traceback on stderr"
        if out.code != 0:
            return f"exit {out.code}, expected 0"
        try:
            payload = out.payload()
        except ValueError:
            return "stdout is not JSON"
        if not _same(payload, json.loads(json.dumps(expected))):
            return "payload differs from the library's answer"
        return extra(payload) if extra else None
    return check


def _usage_check(out: CliOutcome):
    if "Traceback" in out.stderr:
        return "traceback on stderr"
    return _fail_if(out.code != 2, f"exit {out.code}, expected 2 (usage)")


def _cli_corrupt(out: CliOutcome):
    if out.code != 0:
        return CliOutcome(1, out.stdout, out.stderr + "Traceback (most recent call last):\n")
    doc = json.loads(out.stdout)
    doc["payload"]["__extra__"] = 1
    return CliOutcome(out.code, json.dumps(doc), out.stderr)


def _write(ctx, name, text):
    path = ctx.workdir / name
    path.write_text(text)
    return name


def _cells_payload(k, n):
    return {"cells": [
        {"symbol": str(u), "dim": symbols.cell_dimension(u),
         "index_minus_f": symbols.critical_index(u, "for_minus_f"),
         "index_f": symbols.critical_index(u, "for_f"),
         "conditions": list(symbols.schubert_conditions(u))}
        for u in symbols.enumerate_symbols(k, n)]}


def _poincare_payload(k, n):
    p = polynomials.poincare_closed(k, n)
    return {"cells": polynomials.morse_polynomial_by_cells(k, n).to_json(),
            "recurrence": polynomials.poincare_recurrence(k, n).to_json(),
            "closed": p.to_json(), "agreement": True}


def _point_file(ctx, rng, name, k, n, up, down):
    frame = oracles.richardson_frame(up, down, n, np.random.default_rng(rng.getrandbits(64)))
    V = flows.GrassmannPoint(frame)
    _write(ctx, name, json.dumps(V.to_json()))
    return flows.GrassmannPoint.from_json(json.loads((ctx.workdir / name).read_text()))


def _spectrum(rng, n):
    vals = sorted(rng.sample(range(1, 4 * n), n), reverse=True)
    return ",".join(str(v) for v in vals), flows.HeightSpectrum(tuple(float(v) for v in vals))


def _usage_cases(ctx):
    _write(ctx, "nan.json", json.dumps([[[float("nan"), 0.0], [0.0, 0.0]],
                                        [[0.0, 0.0], [1.0, 0.0]],
                                        [[0.0, 0.0], [0.0, 0.0]],
                                        [[0.0, 0.0], [0.0, 0.0]]]))
    _write(ctx, "plane.json", json.dumps([[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]],
                                          [[0.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]]))
    _write(ctx, "bad.txt", "degrees: 0 2\ngens 0: a\ngens 1: b\ngens 2: c\nd 1:\n1\nd 2:\n1\n")
    return [
        ["cells", "5", "3"],
        ["cells", "two", "4"],
        ["cup", "2", "4", "(5,6)"],
        ["witten", "builtin:nope"],
        ["witten", "bad.txt"],
        ["polytope", "2", "4", "(1,2,3)"],
        ["polytope", "3", "9"],
        ["flow", "missing.json", "4,3,2,1", "1.0"],
        ["flow", "nan.json", "4,3,2,1", "1.0"],
        ["flow", "plane.json", "4,3,2,1", "inf"],
        ["limit", "plane.json", "4,4,2,1", "down"],
    ]


# ROADMAP item 1 repros that the seed gets wrong.  They run once per traced
# cli_cold run, apart from the timed loop, and are reported by name.
KNOWN_DEFECTS = (
    ("MORSEGRASS_TOL=abc cells 2 4", {"MORSEGRASS_TOL": "abc"}, ["cells", "2", "4"]),
    ("--tol -1 limit (span e1,e2) 4,3,2,1 down", {}, ["--tol", "-1", "limit", "plane.json", "4,3,2,1", "down"]),
    ("--tol nan limit (span e1,e2) 4,3,2,1 down", {}, ["--tol", "nan", "limit", "plane.json", "4,3,2,1", "down"]),
)


def known_defects(ctx) -> list[tuple[str, "str | None"]]:
    """Run each known-defect repro; the expected outcome is exit 2, no traceback."""
    _usage_cases(ctx)
    traced, ctx.traced = ctx.traced, False
    try:
        return [(name, _usage_check(run_cli(ctx, argv, env))) for name, env, argv in KNOWN_DEFECTS]
    finally:
        ctx.traced = traced


CLI_ORDER = ("cells", "poincare", "flow", "limit", "witten_builtin", "witten_file",
             "usage", "cup", "polytope", "moduli", "usage")


def _cli_query(kind, rng, ctx, serial, usage):
    if kind in ("cells", "poincare"):
        k, n = rng.choice(((2, 4), (2, 5), (3, 6), (2, 6)))
        payload = _cells_payload(k, n) if kind == "cells" else _poincare_payload(k, n)
        return [kind, str(k), str(n)], _cli_ok_check(payload)
    if kind in ("flow", "limit"):
        k, n = rng.choice(((2, 4), (2, 5), (3, 6)))
        down = sorted(rng.sample(range(1, n + 1), k))
        up = [j + 1 for j in range(k)]
        name = f"point{serial}.json"
        V = _point_file(ctx, rng, name, k, n, up, down)
        text, a = _spectrum(rng, n)
        if kind == "flow":
            t = round(rng.uniform(0.1, 2.0), 3)
            W = flows.flow(V, a, t)
            payload = {"matrix": W.to_json(), "height": flows.height_value(W, a),
                       "moment": polytopes.moment_map(W).to_json()}
            return ["flow", name, text, str(t)], _cli_ok_check(payload)
        trace = polytopes.flow_moment_trace(V, a, [0.0, 1.0, 2.0, 4.0])
        payload = {"symbol": {"entries": down, "k": k, "n": n},
                   "moment_trace": [p.to_json() for p in trace]}
        return ["limit", name, text, "down"], _cli_ok_check(payload)
    if kind == "witten_builtin":
        choice = rng.choice(("rp", "circle", "torus", "grassmannian"))
        mode = rng.choice(("integers", "mod2"))
        params = {"rp": [str(rng.randint(2, 8))], "circle": [str(rng.randint(1, 6))],
                  "torus": [], "grassmannian": ["2", str(rng.randint(4, 6))]}[choice]
        builder = {"rp": witten.rp_complex, "circle": witten.circle_complex,
                   "torus": witten.torus_complex, "grassmannian": witten.grassmannian_complex}[choice]
        h = witten.homology(builder(*(int(p) for p in params)), mode)
        return ["witten", f"builtin:{choice}", *params, mode], _cli_ok_check({"homology": h.to_json()})
    if kind == "witten_file":
        c, ranks, torsion = planted_complex(rng, 3, 3, 6, 2)
        name = _write(ctx, f"complex{serial}.txt", witten.dump_complex(c))
        h = witten.HomologyResult(ranks, torsion, "integers")
        return ["witten", name], _cli_ok_check({"homology": h.to_json()})
    if kind == "cup":
        k, n = rng.choice(((2, 5), (3, 6), (3, 7)))
        syms = [_small_symbol(rng, k, n, 1, 3) for _ in range(rng.choice((2, 3)))]
        out = ring.CohomologyClass.basis(syms[0])
        for u in syms[1:]:
            out = ring.cup_product(out, ring.CohomologyClass.basis(u))
        return ["cup", str(k), str(n), *map(str, syms)], _cli_ok_check({"product": out.to_json()})
    if kind == "polytope":
        k, n = rng.choice(((2, 4), (2, 5), (3, 6)))
        pool = [u for u in _all_symbols(k, n) if 3 <= len(oracles.schubert_vertex_set(u.entries, k, n)) <= 8]
        u = rng.choice(pool)
        P = polytopes.schubert_polytope(u)
        verts = oracles.schubert_vertex_set(u.entries, k, n)
        dim = oracles.affine_dimension(verts)

        def extra(payload):
            return _fvec_check(tuple(payload["f_vector"]), len(verts), dim)

        payload = {"polytope": P.to_json(), "f_vector": list(polytopes.face_counts(P))}
        return ["polytope", str(k), str(n), str(u)], _cli_ok_check(payload, extra)
    if kind == "moduli":
        k, n = rng.choice(((2, 4), (2, 5), (3, 6)))
        n_in, n_out = rng.randint(1, 3), rng.randint(0, 2)
        dim_m = 2 * k * (n - k)
        ins = [rng.randrange(0, dim_m + 1, 2) for _ in range(n_in)]
        outs = [rng.randrange(0, dim_m + 1, 2) for _ in range(n_out)]
        loops = rng.randint(0, 1)
        edges = [["v", None, "incoming"]] * n_in + [["v", None, "outgoing"]] * n_out
        edges += [["v", "w", "internal"]] * (1 + loops)
        doc = {"vertices": ["v", "w"], "edges": edges, "incoming_indices": ins,
               "outgoing_indices": outs, "dim_m": dim_m}
        name = _write(ctx, f"graph{serial}.json", json.dumps(doc))
        want = sum(ins) - sum(outs) - dim_m * (loops + n_in - 1)
        return ["moduli-dim", name], _cli_ok_check({"dimension": want, "first_betti": loops})
    argv = usage[serial % len(usage)]
    return argv, _usage_check


def cli_cold(seed, ctx):
    rng = random.Random(seed)
    usage = _usage_cases(ctx)
    rng.shuffle(usage)
    n_usage = 0
    for serial in itertools.count():
        kind = CLI_ORDER[serial % len(CLI_ORDER)]
        argv, check = _cli_query(kind, rng, ctx, n_usage if kind == "usage" else serial, usage)
        n_usage += kind == "usage"
        yield Query(kind, lambda argv=argv: run_cli(ctx, argv), check, _cli_corrupt)


WORKLOADS = {
    "schubert_calculus": schubert_calculus,
    "witten_homology": witten_homology,
    "moment_polytopes": moment_polytopes,
    "flow_limits": flow_limits,
    "cli_cold": cli_cold,
}
