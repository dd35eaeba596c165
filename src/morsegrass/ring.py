"""The Schubert basis of H*(Gr_k(C^n); Z) and its multiplicative structure.

Classes are integer combinations of basis elements z_u, one per Schubert
symbol, with deg z_u = 2k(n-k) - 2 sum(u_i - i).  Products are computed on
the partition avatars of symbols (codimension partitions inside the
k x (n-k) box) by the Littlewood-Richardson rule: the partition with more
boxes grows by one horizontal strip per part of the other, never leaving the
box, so only shapes that occur are ever built.  Pieri multiplication by the
special classes is implemented separately and serves as an independent oracle.
"""

from __future__ import annotations

import itertools
import math
from operator import add, sub
from types import MappingProxyType

from .symbols import (
    MAX_SYMBOLS,
    Frozen,
    SchubertSymbol,
    _check_same_ambient,
    _combination,
    cell_dimension,
    check_ambient,
    check_budget,
    complement,
    enumerate_symbols,  # unused here: bench/selftest.py checks that the tracer wraps ring.enumerate_symbols
    integers,
    priced_symbol,
)


def degree(u: SchubertSymbol) -> int:
    """Real cohomological degree of z_u."""
    return 2 * (u.k * (u.n - u.k) - cell_dimension(u))


def _entries(parts: tuple[int, ...], n: int) -> tuple[int, ...]:  # symbol entries of k parts in the k x (n-k) box
    return tuple(map(sub, range(n - len(parts) + 1, n + 1), parts))  # u_j = (n - k) + j - lambda_j


def _parts(u: SchubertSymbol) -> tuple[int, ...]:  # u's codimension partition, k parts: _entries is its own inverse
    return _entries(u.entries, u.n)


def duality_pairing(u: SchubertSymbol, v: SchubertSymbol) -> int:
    """Poincare pairing of z_u and z_v in complementary degrees: 1 iff v = u^c."""
    _check_same_ambient(u.ambient, v.ambient)
    if degree(u) + degree(v) != 2 * u.k * (u.n - u.k):
        raise ValueError(
            f"degrees {degree(u)} + {degree(v)} do not fill the top degree"
        )
    return 1 if v == complement(u) else 0


_LR_WORK = "parts, prefixes and rows built by the Littlewood-Richardson rule in a {}x{} box"  # formatted to refuse


def _lr_terms(mu: tuple[int, ...], nu: tuple[int, ...], rows: int, cols: int,
              spent: list[int] | None = None) -> dict[tuple[int, ...], int]:
    """The nonzero c^lam_{mu, nu} over the shapes lam in the rows x cols box, each lam as a tuple of rows parts.

    Drops zero parts and, as c^lam_{mu, nu} = c^lam_{nu, mu}, grows the partition with more
    boxes by one horizontal strip per part of the other: strip i holds the boxes an LR tableau
    fills with i (Fulton, Young Tableaux, ch. 5).  A state is (shape, boxes per row of the
    last strip), with its number of fillings, merged after each strip.  Strip i puts a_r
    boxes in row r, where a_r <= shape_{r-1} - shape_r before the strip (a horizontal strip,
    so columns stay strict), shape_r + a_r <= cols, and a_1 + ... + a_r is at most the last
    strip's boxes in rows 1..r-1 (the reverse reading word stays a lattice word).  A strip's prefixes grow only
    at rows with room, up to the first empty row, and are padded with zeros once.  A box with more rows than
    columns is transposed, as c^lam_{mu, nu} = c^lam'_{mu', nu'} for the conjugates, and the shapes are
    conjugated back at the end, so no strip walks more than min(rows, cols) rows.  The engine's work is the
    parts it reads, its prefixes, the rows that each state walks, counts and pads, and the parts of the shapes
    it returns: CapacityError once the count passes the budget.  ``spent``, a one-item list, carries the count
    from run to run, so that the runs of one product or check share one budget.
    """
    spent = [0] if spent is None else spent
    spent[0] += len(mu) + len(nu)  # every part read, zeros too
    mu, nu = sorted((tuple(p for p in parts if p) for parts in (mu, nu)), key=sum, reverse=True)  # mu the larger
    if any(len(p) > rows or p and p[0] > cols for p in (mu, nu)):
        return {}
    if flip := rows > cols:
        mu, nu, rows, cols = _conjugate(mu, sum(mu[:1])), _conjugate(nu, sum(nu[:1])), cols, rows
    states, built = {(mu + (0,) * (rows - len(mu)), None): 1}, spent[0]
    for m in nu:
        grown = {}
        for (shape, last), count in states.items():
            built += rows
            caps = itertools.accumulate(last, initial=0) if last is not None else itertools.repeat(m)
            strips, width = [((), 0)], 0  # (boxes in rows 0..width-1, their sum), grown at rows with room
            for r, cap in zip(range(min(rows, rows - shape.count(0) + 1)), caps):  # no room below the first empty row
                if room := (shape[r - 1] if r else cols) - shape[r]:
                    pad, width = (0,) * (r - width), r + 1
                    strips = [(a + pad + (x,), t + x) for a, t in strips for x in range(min(room, cap - t, m - t) + 1)]
                    built += len(strips)
            if built > MAX_SYMBOLS:
                check_budget(built, _LR_WORK.format(rows, cols))
            pad = (0,) * (rows - width)
            for a, t in strips:
                if t == m:
                    a += pad
                    key = (tuple(map(add, shape, a)), a)
                    grown[key] = grown.get(key, 0) + count
        states = grown
    spent[0] = built = built + len(states) * (cols if flip else rows)  # a shape returned has a part per row
    if built > MAX_SYMBOLS:
        check_budget(built, _LR_WORK.format(rows, cols))
    out = {}
    for (shape, _), count in states.items():
        shape = _conjugate(shape, cols) if flip else shape
        out[shape] = out.get(shape, 0) + count
    return out


def _conjugate(parts: tuple[int, ...], length: int) -> tuple[int, ...]:
    """The first length parts of the conjugate of a weakly decreasing partition: part j counts the parts > j."""
    out, i = [], len(parts)
    for j in range(length):
        while i and parts[i - 1] <= j:
            i -= 1
        out.append(i)
    return tuple(out)


def _partition(parts, what: str) -> tuple[int, ...]:
    """The parts as ints; ValueError naming ``what`` unless they are integers, weakly decreasing to a last part >= 0."""
    parts = integers(parts, f"part of {what}")
    if any(a < b for a, b in zip(parts, (*parts[1:], 0))):
        raise ValueError(f"{what} = {parts} is not a partition: parts must be nonnegative and weakly decreasing")
    return parts


def lr_coefficient(lam: tuple[int, ...], mu: tuple[int, ...], nu: tuple[int, ...]) -> int:
    """Littlewood-Richardson coefficient c^lam_{mu, nu}; ValueError naming lam, mu or nu if one is not a partition.
    A tall lam is read on the conjugates, so that no shape the engine returns has more parts than lam has columns."""
    lam, mu, nu = _partition(lam, "lam"), _partition(mu, "mu"), _partition(nu, "nu")
    rows, cols = len(lam), lam[0] if lam else 0
    if rows > cols:  # c^lam_{mu, nu} = c^lam'_{mu', nu'}; with cols + 1 parts a part wider than lam leaves the box
        lam, mu, nu, rows, cols = _conjugate(lam, cols), _conjugate(mu, cols + 1), _conjugate(nu, cols + 1), cols, rows
    return _lr_terms(mu, nu, rows, cols).get(lam, 0)


def _nonzero(terms) -> MappingProxyType:
    """A read-only mapping of the (symbol, coefficient) terms whose coefficient is not 0, in their order."""
    return MappingProxyType({u: c for u, c in terms if c})


class CohomologyClass(Frozen):
    """Integer combination of Schubert basis classes of a fixed Gr_k(C^n); coefficients is a read-only mapping.

    The constructor checks every key and coefficient.  A class the ring derives from checked classes (a sum,
    a multiple or a cup product) is built unchecked through _of with the same contract: keys are SchubertSymbols
    of Gr_k(C^n), coefficients are nonzero ints, and the keys keep their order of first appearance."""

    __slots__ = ("k", "n", "coefficients")

    def __init__(self, k: int, n: int, coefficients=None):
        k, n = check_ambient(k, n)
        coefficients = dict(coefficients or {})
        if not {SchubertSymbol}.issuperset(map(type, coefficients)):  # one scan over the key types
            bad = next(u for u in coefficients if type(u) is not SchubertSymbol)
            raise ValueError(f"a key of type {type(bad).__name__} is not a SchubertSymbol")
        _check_same_ambient((k, n), *(u.ambient for u in coefficients))
        values = integers(coefficients.values(), "coefficient")
        self._init(k, n, _nonzero(zip(coefficients, values)))

    def __reduce__(self):  # a mappingproxy cannot be pickled: copy and pickle go through a plain dict
        return CohomologyClass, (self.k, self.n, dict(self.coefficients))

    @classmethod
    def basis(cls, u: SchubertSymbol) -> "CohomologyClass":
        return cls(u.k, u.n, {u: 1})

    @classmethod
    def unit(cls, k: int, n: int) -> "CohomologyClass":
        k, n = priced_symbol(k, n)
        top = SchubertSymbol(tuple(range(n - k + 1, n + 1)), n)
        return cls(k, n, {top: 1})

    @classmethod
    def zero(cls, k: int, n: int) -> "CohomologyClass":
        return cls(k, n, {})

    def is_zero(self) -> bool:
        return not self.coefficients

    def homogeneous_degree(self):
        """Common degree of the supported symbols, or None if mixed/zero."""
        degs = {degree(u) for u in self.coefficients}
        return degs.pop() if len(degs) == 1 else None

    def coefficient(self, u: SchubertSymbol) -> int:
        return self.coefficients.get(u, 0)

    def __hash__(self):
        return hash(((self.k, self.n), frozenset(self.coefficients.items())))

    def __add__(self, other):
        _check_classes(self, other)
        out = dict(self.coefficients)
        for u, c in other.coefficients.items():
            out[u] = out.get(u, 0) + c
        return CohomologyClass._of(self.k, self.n, _nonzero(out.items()))

    def __sub__(self, other):
        _check_classes(self, other)
        return self + other.scale(-1)

    def scale(self, c: int) -> "CohomologyClass":
        (c,) = integers([c], "scale factor")
        return CohomologyClass._of(self.k, self.n, _nonzero((u, c * x) for u, x in self.coefficients.items()))

    def __str__(self):
        order = sorted(self.coefficients, key=lambda s: (degree(s), s.entries))
        return _combination((self.coefficients[u], f"z{u}") for u in order)

    __repr__ = __str__

    def to_json(self) -> dict:
        return {str(u): c for u, c in self.coefficients.items()}


def _check_classes(z1, z2):
    """The (k, n) of two classes, the one operand rule of +, - and cup_product: ValueError unless both are
    CohomologyClasses, z1 judged first, then AmbientMismatchError unless they share a Grassmannian."""
    for z in (z1, z2):
        if not isinstance(z, CohomologyClass):
            raise ValueError(f"expected a CohomologyClass, got {type(z).__name__}")
    _check_same_ambient((z1.k, z1.n), (z2.k, z2.n))
    return z1.k, z1.n


def cup_product(z1: CohomologyClass, z2: CohomologyClass) -> CohomologyClass:
    """The cup product z1 z2 in the Schubert basis: its nonzero coefficients, in order of first appearance over the
    pairs of terms (z1's outer, z2's inner), in lexicographic symbol order within a pair's product.  ValueError
    unless both are classes, AmbientMismatchError unless they share a Grassmannian, then CapacityError once the
    engine runs of the product pass the budget together."""
    k, n = _check_classes(z1, z2)
    a, b = {_parts(u): c for u, c in z1.coefficients.items()}, {_parts(u): c for u, c in z2.coefficients.items()}
    return CohomologyClass._of(k, n, MappingProxyType({SchubertSymbol._of(_entries(lam, n), n): c
                                                      for lam, c in _product(a, b, k, n - k, [0]).items()}))


def _product(a: dict, b: dict, rows: int, cols: int, spent: list[int]) -> dict[tuple[int, ...], int]:
    """The product of two combinations of partitions in the rows x cols box, {parts: coefficient} dicts, as one of
    rows-part tuples: the nonzero coefficients, in order of first appearance over the pairs of terms (a's outer,
    b's inner), and within a pair's product in decreasing lexicographic order of parts, one engine run a pair,
    every run counting its work in ``spent``, as _lr_terms does."""
    out: dict[tuple[int, ...], int] = {}
    for mu, c1 in a.items():
        for nu, c2 in b.items():
            for lam, c in sorted(_lr_terms(mu, nu, rows, cols, spent).items(), reverse=True):
                out[lam] = out.get(lam, 0) + c1 * c2 * c
    return {lam: c for lam, c in out.items() if c}


def special_symbol(k: int, n: int, i: int) -> SchubertSymbol:
    """Symbol of the i-th special Schubert class: (n-k,...,n-k+i-1, n-k+i+1,...,n); Gr(k, k) has none."""
    k, n = priced_symbol(k, n)
    if k == n:
        raise ValueError(f"Gr({k},{n}) is a point and has no special classes: need k < n")
    (i,) = integers([i], "special class index i", 1, k)
    return SchubertSymbol._of(tuple(range(n - k, n - k + i)) + tuple(range(n - k + i + 1, n + 1)), n)


def pieri_product(z: CohomologyClass, i: int) -> CohomologyClass:
    """Multiply by the i-th special class: add a vertical strip of i boxes.

    The special class has partition (1^i), so the Pieri rule adds i boxes,
    no two in the same row; anything leaving the box is truncated to zero.
    Independent of the LR engine.
    """
    k, n = z.k, z.n
    (i,) = integers([i], "special class index i", 1, k)
    check_budget(len(z.coefficients) * math.comb(k, i), f"Pieri row sets, C({k},{i}) per term of {len(z.coefficients)}")
    out: dict[SchubertSymbol, int] = {}
    for u, c in z.coefficients.items():
        mu = _parts(u)
        for rows in itertools.combinations(range(k), i):
            new = list(mu)
            for r in rows:
                new[r] += 1
            if new[0] > n - k:
                continue
            if any(new[r] < new[r + 1] for r in range(k - 1)):
                continue
            w = SchubertSymbol(_entries(tuple(new), n), n)
            out[w] = out.get(w, 0) + c
    return CohomologyClass(k, n, out)


def triple_product(u: SchubertSymbol, v: SchubertSymbol, w: SchubertSymbol) -> int:
    """Intersection number <z_u z_v z_w> when degrees fill the top degree."""
    _check_same_ambient(u.ambient, v.ambient, w.ambient)
    k, n = u.ambient
    if degree(u) + degree(v) + degree(w) != 2 * k * (n - k):
        raise ValueError("degrees do not sum to the top degree")
    dual = tuple(n - k - p for p in reversed(_parts(w)))  # w^c's partition: lambda_j = (n - k) - lambda(w)_{k+1-j}
    return _lr_terms(_parts(u), _parts(v), k, n - k).get(dual, 0)


def chern_presentation_check(k: int, n: int) -> bool:
    """Whether (1 + c_1 + ... + c_{n-k})(1 + d_1 + ... + d_k) = 1 holds in H*(Gr_k(C^n)), with the d_i the special
    classes (none on Gr(n, n), a point) and each c_m solved from the relation in degree m <= n-k; the degrees
    n-k+1..n must then close to zero.  Works on combinations of partitions, d_i = (1^i), through ``_product``, all
    of whose engine runs share one count: CapacityError once it passes the budget."""
    k, n = check_ambient(k, n)
    c, spent = {}, [0]
    for m in range(1, n + 1):
        acc = {(1,) * m + (0,) * (k - m): 1} if m <= k < n else {}
        for i in range(max(1, m - k), min(m, n - k + 1)):  # the c_i d_{m-i} with both defined, d_{m-i} unpadded
            for lam, x in _product(c[i], {(1,) * (m - i): 1}, k, n - k, spent).items():
                acc[lam] = acc.get(lam, 0) + x
        if m <= n - k:
            c[m] = {lam: -x for lam, x in acc.items() if x}
        elif any(acc.values()):
            return False
    return True
