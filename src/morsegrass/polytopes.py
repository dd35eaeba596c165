"""Moment map and momentum polytopes of Gr_k(C^n).

The moment map sends a plane to the diagonal of its orthogonal projector; its
image is the hypersimplex Delta(k, n), the convex hull of the 0/1 indicator
vectors e_u of Schubert symbols.  Schubert varieties map to the sub-polytopes
spanned by the vertices below u in the closure order.

These polytopes are Schubert matroid polytopes, cut out by
0 <= x <= 1, sum x = k and prefix bounds x_1 + ... + x_i >= c_i read off the
vertices, and their vertices are listed from the Bruhat interval below u.
Membership checks those O(n) inequalities, exactly for rational input and
with a scaled slack for floats.  They describe the polytope exactly, so its
facets, the maximal proper faces (Ziegler, Lectures on Polytopes, ch. 2), are
the proper tight vertex sets of those inequalities that no other contains.
Faces are int bitmasks over the vertices, closed under intersection within
the work budget MAX_SYMBOLS; the covers in their lattice give dimensions.
All of this is exact: only moment_map and flow_moment_trace compute floats,
and they import flows, and with it numpy, when first called.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate
from typing import TYPE_CHECKING

from .symbols import CapacityError  # noqa: F401 (re-exported)
from .symbols import MAX_SYMBOLS, SchubertSymbol, cell_count, check_budget, tolerance

if TYPE_CHECKING:
    from .flows import GrassmannPoint, HeightSpectrum


def __getattr__(name):
    # flows.flow and flows.projector stay reachable here without importing flows at load
    if name in ("flow", "projector"):
        from . import flows

        return getattr(flows, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


@dataclass(frozen=True)
class MomentPoint:
    """A point of R^n, typically diag(pi_V) with entries in [0,1] summing to k."""

    coords: tuple

    def __post_init__(self):
        object.__setattr__(self, "coords", tuple(self.coords))

    @property
    def n(self) -> int:
        return len(self.coords)

    def to_json(self) -> list:
        return [float(x) for x in self.coords]


@dataclass(frozen=True)
class VertexPolytope:
    """Convex hull of a finite set of distinct rational points in R^n."""

    vertices: tuple[tuple, ...]
    k: int
    n: int

    def __post_init__(self):
        verts = tuple(tuple(v) for v in self.vertices)
        if not verts:
            raise ValueError("a polytope needs at least one vertex")
        if len(set(verts)) != len(verts):
            raise ValueError("vertices must be pairwise distinct")
        object.__setattr__(self, "vertices", verts)

    def to_json(self) -> dict:
        return {
            "k": self.k,
            "n": self.n,
            "vertices": [[float(x) for x in v] for v in self.vertices],
        }


def symbol_vertex(u: SchubertSymbol) -> tuple[int, ...]:
    """Indicator vector e_u = e_{u_1} + ... + e_{u_k}."""
    return _indicator(u.entries, u.n)


def _indicator(entries, n: int) -> tuple[int, ...]:
    x = [0] * n
    for e in entries:
        x[e - 1] = 1
    return tuple(x)


def moment_map(V: GrassmannPoint) -> MomentPoint:
    """mu(V) = diagonal of the orthogonal projector onto V."""
    from .flows import projector

    return MomentPoint(tuple(float(x) for x in projector(V).diagonal().real))


def grassmannian_polytope(k: int, n: int) -> VertexPolytope:
    """The hypersimplex Delta(k, n), the Schubert polytope of the top cell (n-k+1, ..., n)."""
    cell_count(k, n)  # before the symbol's k entries are built
    return schubert_polytope(SchubertSymbol(tuple(range(n - k + 1, n + 1)), n))


def schubert_polytope(u: SchubertSymbol) -> VertexPolytope:
    """Moment image of the Schubert variety X_u: hull of {e_v : v in closure of S_u}.

    The closure holds the symbols v with v_j <= u_j for every j, listed in
    lexicographic order by stepping from one to the next.  CapacityError if
    Gr_k(C^n) has more than MAX_SYMBOLS cells or the vertices more coordinates.
    """
    cells = cell_count(u.k, u.n)
    if cells * u.n > MAX_SYMBOLS:  # else all C(n, k) cells fit; count the e_v above e_u's prefix sums
        check_budget(u.n, f"coordinates of a vertex of Gr({u.k},{u.n})")
        count = _lattice_paths(list(accumulate(_indicator(u.entries, u.n))), u.k)
        check_budget(count * u.n, f"Schubert polytope vertex coordinates in Gr({u.k},{u.n}), {count}*{u.n}")
    bounds, k = u.entries, u.k
    v = list(range(1, k + 1))  # the least symbol, below u since u_j >= j
    verts = []
    while True:
        verts.append(_indicator(v, u.n))
        j = k - 1
        while j >= 0 and v[j] == bounds[j]:
            j -= 1
        if j < 0:
            return VertexPolytope(tuple(verts), u.k, u.n)
        # raise the last entry below its bound, then the least tail; u_i >= u_j + (i - j)
        v[j:] = range(v[j] + 1, v[j] + 1 + k - j)


def _prefix_bounds(verts) -> list | None:
    """Prefix bounds c_i = min over the vertices of v_1 + ... + v_i (i = 1..n).

    Returns them when the vertices are exactly the 0/1 points of
    {0 <= x <= 1, x_1 + ... + x_i >= c_i, x_1 + ... + x_n = c_n}, as they are
    for every Schubert matroid polytope (Gelfand-Goresky-MacPherson-Serganova);
    otherwise None.  The rows are intervals of coordinates, so the system is
    totally unimodular and its polytope is the hull of those 0/1 points.
    """
    if not verts[0] or any(c not in (0, 1) for v in verts for c in v):
        return None
    sums = [tuple(accumulate(v)) for v in verts]
    bounds = [min(col) for col in zip(*sums)]
    if any(s[-1] != bounds[-1] for s in sums):
        return None
    return bounds if _lattice_paths(bounds, bounds[-1]) == len(verts) else None


def _lattice_paths(bounds, total: int) -> int:
    """Number of 0/1 vectors with coordinate sum total and i-th prefix sum >= bounds[i - 1].

    ways[j + 1] counts the prefixes of sum j that meet every bound so far.
    """
    n = len(bounds)
    ways = [0, 1] + [0] * total
    for i, c in enumerate(bounds, 1):
        low = max(c, total - n + i)  # sums below low cannot meet c or end at total
        for j in range(min(i, total), low - 1, -1):  # downwards, so ways[j] is the last step's
            ways[j + 1] += ways[j]
        ways[low] = 0  # sum low - 1, the only one below low that is read again
    return ways[total + 1]


def _not_supported(P: VertexPolytope) -> ValueError:
    return ValueError(
        f"the {len(P.vertices)} vertices of dimension >= 2 are not the 0/1 points "
        "of a Schubert matroid polytope's inequality system"
    )


def membership(x, P: VertexPolytope, tol: float = 1e-9) -> bool:
    """Whether x lies in the convex hull of the vertices of P.

    P must be a Schubert matroid polytope (every ``schubert_polytope`` and
    ``grassmannian_polytope`` is) or have dimension at most 1; any other
    vertex set raises ValueError.  Rational coordinates (int/Fraction) are
    decided exactly.  Float coordinates must be finite; each inequality may
    be violated by at most tol * (1 + |(x, 1)|_1).
    """
    coords = x.coords if isinstance(x, MomentPoint) else tuple(x)
    if len(coords) != P.n:
        raise ValueError(f"point has {len(coords)} coordinates, polytope ambient is {P.n}")
    tol = tolerance(tol)
    exact = all(isinstance(c, (int, Fraction)) for c in coords)
    if not exact and not all(math.isfinite(c) for c in coords):
        raise ValueError(f"point coordinates {coords} must be finite")
    slack = 0 if exact else tol * (2.0 + sum(abs(c) for c in coords))
    bounds = _prefix_bounds(P.vertices)
    if bounds is not None:
        return (
            abs(sum(coords) - bounds[-1]) <= slack
            and all(-slack <= c <= 1 + slack for c in coords)
            and all(p >= c - slack for p, c in zip(accumulate(coords), bounds))
        )
    if _affine_rank(P.vertices) > 1:
        raise _not_supported(P)
    # a point or a segment; along a line the lexicographic order is the line's order
    a, b = min(P.vertices), max(P.vertices)
    step = [q - p for p, q in zip(a, b)]
    length2 = sum(s * s for s in step)
    t = Fraction(sum((c - p) * s for c, p, s in zip(coords, a, step))) / length2 if length2 else 0
    t = min(max(t, 0), 1)
    return sum(abs(c - p - t * s) for c, p, s in zip(coords, a, step)) <= slack


def _affine_rank(points) -> int:
    """Dimension of the affine hull of rational points, by fraction-free elimination."""
    base = points[0]
    rows: list[tuple[int, list]] = []  # (pivot column, row), reduced against earlier pivots
    for p in points[1:]:
        r = [a - b for a, b in zip(p, base)]
        for col, row in rows:
            if r[col]:
                f, g = r[col], row[col]
                r = [g * a - f * b for a, b in zip(r, row)]
        col = next((i for i, a in enumerate(r) if a), None)
        if col is not None:
            rows.append((col, r))
    return len(rows)


def face_counts(P: VertexPolytope) -> tuple[int, ...]:
    """f-vector (faces per dimension, including the polytope itself).

    A face is an int whose bit j stands for vertex j.  The system 0 <= x <= 1,
    x_1 + ... + x_i >= c_i (equal at i = n) describes P, so its facets, the
    maximal proper faces (Ziegler, Lectures on Polytopes, ch. 2), are the
    proper tight sets of its at most 3n inequalities that no other contains;
    only the vertex set is ranked, for d.  Closing the facets under
    intersection gives all proper faces.  Every face G covering a face h
    meets some facet exactly in h: h is the intersection of the facets
    containing it, and one of them does not contain G.  So the smallest face
    f != h with f & g == h for a facet g covers h, and dim h = dim f - 1,
    assigned in order of decreasing size from the facets at d - 1.  Supports
    the polytopes ``membership`` does and raises ValueError otherwise.
    CapacityError if the vertex rank's coordinate updates exceed MAX_SYMBOLS,
    and before each closure round if the facet intersections so far,
    len(frontier) * len(facets) each, do.
    """
    verts = P.vertices
    nv = len(verts)
    # the rank reduces every vertex against at most n rows of n coordinates
    check_budget(nv * P.n**2, f"coordinate updates to rank {nv} vertices")
    d = _affine_rank(verts)
    if d <= 1:
        return (1,) if d == 0 else (2, 1)
    bounds = _prefix_bounds(verts)
    if bounds is None:
        raise _not_supported(P)

    sums = [tuple(accumulate(v)) for v in verts]
    every = (1 << nv) - 1
    candidates = set()
    for i in range(P.n):
        ones = sum(1 << j for j, v in enumerate(verts) if v[i])
        prefix = sum(1 << j for j, s in enumerate(sums) if s[i] == bounds[i])
        candidates.update(t for t in (every ^ ones, ones, prefix) if 0 < t < every)
    # the maximal candidates: at most 9n^2 ands, under 3 * MAX_SYMBOLS as nv >= 3
    facets = [f for f in candidates if not any(f & g == f != g for g in candidates)]

    # cover[h]: the smallest face f != h with f & g == h for a facet g.  It covers h;
    # the keys are the faces below the facets, each found first in one round's frontier
    cover: dict[int, int] = {}
    frontier = facets
    intersections = 0
    while frontier:
        intersections += len(frontier) * len(facets)
        check_budget(intersections, f"facet intersections to close the face lattice of {nv} vertices")
        new = []
        for f in frontier:
            size = f.bit_count()
            for g in facets:
                h = f & g
                if h and h != f:
                    c = cover.get(h)
                    if c is None:
                        cover[h] = f
                        new.append(h)
                    elif size < c.bit_count():
                        cover[h] = f
        frontier = new

    # a cover is larger than the face it covers, so it has its dimension first
    dims = dict.fromkeys(facets, d - 1)
    for h in sorted(cover, key=int.bit_count, reverse=True):
        dims[h] = dims[cover[h]] - 1
    counts = [0] * d + [1]  # the polytope itself
    for dim in dims.values():
        counts[dim] += 1
    return tuple(counts)


def flow_moment_trace(
    V: GrassmannPoint, a: HeightSpectrum, ts
) -> list[MomentPoint]:
    """Sample mu along the gradient flow of V at the requested times.

    One stacked QR gives an orthonormal frame per time; mu is the squared
    row norms of each frame, the diagonal of its projector.
    """
    from .flows import _flow_frames

    mus = (abs(_flow_frames(V, a, ts)) ** 2).sum(axis=2)
    return [MomentPoint(tuple(float(x) for x in mu)) for mu in mus]


def moment_height(x: MomentPoint, a: HeightSpectrum) -> float:
    """<a, mu(V)>; equals height_value(V, a) when x = moment_map(V)."""
    return float(sum(ai * xi for ai, xi in zip(a.a, x.coords)))
