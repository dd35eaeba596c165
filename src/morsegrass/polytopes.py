"""Moment map and momentum polytopes of Gr_k(C^n).

The moment map sends a plane to the diagonal of its orthogonal projector; its
image is the hypersimplex Delta(k, n), the convex hull of the 0/1 indicator
vectors e_u of Schubert symbols.  Schubert varieties map to the sub-polytopes
spanned by the vertices below u in the closure order, listed from that
Bruhat interval.  These are Schubert matroid polytopes, and their inequality
system 0 <= x <= 1, x_1 + ... + x_i >= c_i, sum x = c_n alone decides
membership, the dimension (n minus the pinned prefix sums) and the facets;
see face_counts.  All of this is exact: only moment_map and flow_moment_trace
compute floats, from frames that flows builds with numpy.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import accumulate
from typing import TYPE_CHECKING

from .symbols import (DEFAULT_TOL, MAX_SYMBOLS, Frozen, SchubertSymbol, cell_count, check_ambient, check_budget, floats,
                      reals, tolerance)

if TYPE_CHECKING:
    from .flows import GrassmannPoint, HeightSpectrum


def __getattr__(name):
    # flows.flow and flows.projector stay reachable here without importing flows at load
    if name in ("flow", "projector"):
        from . import flows

        return getattr(flows, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


class MomentPoint(Frozen):
    """A point of R^n, typically diag(pi_V) with entries in [0,1] summing to k; symbols.reals judges each coordinate."""

    __slots__ = ("coords",)

    def __init__(self, coords: tuple):
        self._init(reals(coords, "point coordinate"))

    @property
    def n(self) -> int:
        return len(self.coords)

    def to_json(self) -> list:
        return list(floats(self.coords, "point coordinate"))


class VertexPolytope(Frozen):
    """A Schubert matroid polytope of Gr_k(C^n), held by its vertices: the 0/1 points of its inequality system.

    The system is 0 <= x <= 1, x_1 + ... + x_i >= c_i, x_1 + ... + x_n = c_n = k
    (Gelfand-Goresky-MacPherson-Serganova).  schubert_polytope and grassmannian_polytope take c_i from the
    symbol; the constructor checks a vertex set from outside once, finding c_1, ..., c_n for membership and
    face_counts, and raises ValueError for any other vertex set.
    """

    __slots__ = ("vertices", "k", "n", "_bounds")  # _bounds: c_1, ..., c_n

    def __init__(self, vertices: tuple[tuple, ...], k: int, n: int):
        vertices, (k, n) = tuple(tuple(v) for v in vertices), check_ambient(k, n)
        if not vertices:
            raise ValueError("a polytope needs at least one vertex")
        if len(set(vertices)) != len(vertices):
            raise ValueError("vertices must be pairwise distinct")
        self._init(vertices, k, n, _prefix_bounds(vertices, k, n))

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
    """mu(V) = diagonal of the orthogonal projector onto V: the squared row norms of an orthonormal frame."""
    return MomentPoint._of(tuple((abs(V.orthonormal_frame()) ** 2).sum(axis=1).tolist()))


def grassmannian_polytope(k: int, n: int) -> VertexPolytope:
    """The hypersimplex Delta(k, n), the Schubert polytope of the top cell (n-k+1, ..., n)."""
    cell_count(k, n)  # before the symbol's k entries are built
    return schubert_polytope(SchubertSymbol(tuple(range(n - k + 1, n + 1)), n))


def schubert_polytope(u: SchubertSymbol) -> VertexPolytope:
    """Moment image of the Schubert variety X_u: hull of {e_v : v in closure of S_u}.

    The closure holds the symbols v with v_j <= u_j for every j, listed in lexicographic order by stepping from
    one to the next: the e_v with every prefix sum at least e_u's (Gale order), so c_i is e_u's i-th prefix sum,
    unchecked.  CapacityError if Gr_k(C^n) has more than MAX_SYMBOLS cells or the vertices more coordinates.
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
        if j < 0:  # v = u, so verts[-1] is e_u
            return VertexPolytope._of(tuple(verts), u.k, u.n, list(accumulate(verts[-1])))
        # raise the last entry below its bound, then the least tail; u_i >= u_j + (i - j)
        v[j:] = range(v[j] + 1, v[j] + 1 + k - j)


def _prefix_bounds(verts, k: int, n: int) -> list[int]:
    """The one support rule: the prefix bounds c_1, ..., c_n of a Schubert matroid polytope of Gr_k(C^n).

    c_i = min over the vertices of v_1 + ... + v_i, returned when the distinct
    vertices are exactly the 0/1 points of length n of {0 <= x <= 1,
    x_1 + ... + x_i >= c_i, x_1 + ... + x_n = k}.  The rows are intervals of
    coordinates, so the system is totally unimodular and its polytope is the
    hull of those 0/1 points.  ValueError for any other vertex set.
    """
    sums = [tuple(accumulate(v)) for v in verts]
    bounds = [int(min(col)) for col in zip(*sums)]  # Fraction(1) is a 0/1 coordinate too
    if not (all(len(v) == n and {*v} <= {0, 1} and sum(v) == k for v in verts)
            and _lattice_paths(bounds, k) == len(verts)):
        raise ValueError(
            f"the {len(verts)} vertices are not the 0/1 points of a Schubert matroid polytope of Gr({k},{n})"
        )
    return bounds


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


def membership(x, P: VertexPolytope, tol: float = DEFAULT_TOL) -> bool:
    """Whether x lies in the Schubert matroid polytope P, decided by its stored prefix bounds.

    symbols.reals judges the coordinates of a sequence x as MomentPoint's.  Rational coordinates (int/Fraction)
    are decided exactly; with any other, all are taken by symbols.floats and each inequality may be violated by at
    most tol * (1 + |(x, 1)|_1)."""
    coords = x.coords if isinstance(x, MomentPoint) else reals(x, "point coordinate")
    if len(coords) != P.n:
        raise ValueError(f"point has {len(coords)} coordinates, polytope ambient is {P.n}")
    tol = tolerance(tol)
    slack = 0
    if not all(isinstance(c, (int, Fraction)) for c in coords):
        coords = floats(coords, "point coordinate")
        slack = tol * (2.0 + sum(map(abs, coords)))
    return (
        abs(sum(coords) - P.k) <= slack
        and all(-slack <= c <= 1 + slack for c in coords)
        and all(p >= c - slack for p, c in zip(accumulate(coords), P._bounds))
    )


def face_counts(P: VertexPolytope) -> tuple[int, ...]:
    """f-vector (faces per dimension, including the polytope itself).

    The system 0 <= x <= 1, x_1 + ... + x_i >= c_i (equal at i = n), stored in P, describes it.
    Prefix sum i is at most min(i, k), at the vertex (1, ..., 1, 0, ..., 0), so
    it is pinned where c_i = min(i, k).  There the two bounding lattice paths
    meet, P splits into one connected lattice path matroid polytope per interval
    between pins, and d = n - #pins (Bonin and de Mier, Eur. J. Combin. 2006).
    The facets, the maximal proper faces (Ziegler, Lectures on Polytopes, ch. 2),
    are the proper tight sets of the at most 3n inequalities that no other
    contains.  Faces are int bitmasks over the vertices (bit j for vertex j),
    and closing the facets under intersection gives them all.  Every face G
    covering a face h meets some facet exactly in h (h is the intersection of
    the facets containing it, and one of them misses G), so the smallest face
    f != h with f & g == h for a facet g covers h, and dim h = dim f - 1,
    assigned in order of decreasing size from the facets at d - 1 (a point
    has no facet, a segment two disjoint ones).  CapacityError before each
    closure round if the facet intersections so far, len(frontier) * len(facets)
    each, exceed MAX_SYMBOLS.
    """
    verts, bounds = P.vertices, P._bounds
    nv = len(verts)
    d = sum(c < min(i, P.k) for i, c in enumerate(bounds, 1))

    sums = [tuple(accumulate(v)) for v in verts]
    every = (1 << nv) - 1
    candidates = set()
    for i in range(P.n):
        ones = sum(1 << j for j, v in enumerate(verts) if v[i])
        prefix = sum(1 << j for j, s in enumerate(sums) if s[i] == bounds[i])
        candidates.update(t for t in (every ^ ones, ones, prefix) if 0 < t < every)
    # the maximal candidates: at most 3n distinct masks, so at most 9n^2 ands
    facets = [f for f in candidates if not any(f & g == f != g for g in candidates)]

    # cover[h]: (size, f) for the smallest face f != h with f & g == h for a facet g.  It covers h;
    # the keys are the faces below the facets, each found first in one round's frontier
    cover: dict[int, tuple[int, int]] = {}
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
                        cover[h] = (size, f)
                        new.append(h)
                    elif size < c[0]:
                        cover[h] = (size, f)
        frontier = new

    # a cover is larger than the face it covers, so it has its dimension first
    dims = dict.fromkeys(facets, d - 1)
    for h in sorted(cover, key=int.bit_count, reverse=True):
        dims[h] = dims[cover[h][1]] - 1
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
    return [MomentPoint._of(tuple(mu)) for mu in mus.tolist()]


def moment_height(x: MomentPoint, a: HeightSpectrum) -> float:
    """<a, mu(V)>; equals height_value(V, a) when x = moment_map(V).  ValueError unless a and x have one length."""
    from .flows import _check_flow_input

    _check_flow_input(x, a)
    return float(sum(ai * xi for ai, xi in zip(a.a, floats(x.coords, "point coordinate"))))
