"""The Schubert basis of H*(Gr_k(C^n); Z) and its multiplicative structure.

Classes are integer combinations of basis elements z_u, one per Schubert
symbol, with deg z_u = 2k(n-k) - 2 sum(u_i - i).  Products are computed on
the partition avatars of symbols (codimension partitions inside the
k x (n-k) box) by Littlewood-Richardson tableau enumeration, truncating any
shape that leaves the box.  Pieri multiplication by the special classes is
implemented separately and serves as an independent oracle.
"""

from __future__ import annotations

import itertools
from types import MappingProxyType

from .symbols import (
    Frozen,
    SchubertSymbol,
    _check_same_ambient,
    cell_count,
    cell_dimension,
    check_ambient,
    check_budget,
    complement,
    enumerate_symbols,
    integers,
)


class PartitionShape(Frozen):
    """Weakly decreasing partition fitting in the k x (n-k) box."""

    __slots__ = ("parts", "k", "n")

    def __init__(self, parts: tuple[int, ...], k: int, n: int):
        parts = tuple(parts)
        if not {int}.issuperset(map(type, parts)):  # inline for all ints, as in SchubertSymbol
            parts = integers(parts, "part")
        k, n = check_ambient(k, n)
        if len(parts) != k:
            raise ValueError(f"expected {k} parts, got {parts}")
        if any(parts[i] < parts[i + 1] for i in range(len(parts) - 1)):
            raise ValueError(f"parts {parts} not weakly decreasing")
        if parts and (parts[0] > n - k or parts[-1] < 0):
            raise ValueError(f"parts {parts} leave the {k}x{n - k} box")
        object.__setattr__(self, "parts", parts)
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "n", n)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.parts == other.parts and self.k == other.k and self.n == other.n

    def __hash__(self):
        return hash((self.parts, self.k, self.n))

    @property
    def weight(self) -> int:
        return sum(self.parts)


def degree(u: SchubertSymbol) -> int:
    """Real cohomological degree of z_u."""
    return 2 * (u.k * (u.n - u.k) - cell_dimension(u))


def symbol_to_partition(u: SchubertSymbol) -> PartitionShape:
    """Codimension partition lambda_j = (n - k) + j - u_j."""
    k, n = u.ambient
    return PartitionShape(tuple((n - k) + j - uj for j, uj in enumerate(u.entries, 1)), k, n)


def partition_to_symbol(lam: PartitionShape) -> SchubertSymbol:
    k, n = lam.k, lam.n
    return SchubertSymbol(tuple((n - k) + j - p for j, p in enumerate(lam.parts, 1)), n)


def duality_pairing(u: SchubertSymbol, v: SchubertSymbol) -> int:
    """Poincare pairing of z_u and z_v in complementary degrees: 1 iff v = u^c."""
    _check_same_ambient(u.ambient, v.ambient)
    if degree(u) + degree(v) != 2 * u.k * (u.n - u.k):
        raise ValueError(
            f"degrees {degree(u)} + {degree(v)} do not fill the top degree"
        )
    return 1 if v == complement(u) else 0


def lr_coefficient(lam: tuple[int, ...], mu: tuple[int, ...], nu: tuple[int, ...]) -> int:
    """Littlewood-Richardson coefficient c^lam_{mu, nu}.

    Counts skew semistandard fillings of lam/mu with content nu whose reverse
    reading word is a lattice word.  Plain backtracking, fine at desk scale.
    """
    lam = tuple(lam)
    mu = tuple(mu) + (0,) * (len(lam) - len(mu))
    if sum(lam) != sum(mu) + sum(nu):
        return 0
    if any(l < m for l, m in zip(lam, mu)):
        return 0

    rows = len(lam)
    nu = tuple(nu)
    # counts[s] = how many s+1 entries placed so far; lattice condition keeps
    # counts weakly decreasing as the reverse reading word is consumed.
    count = 0

    # fill cells row by row, right to left within a row (reverse reading order)
    cells = [(r, c) for r in range(rows) for c in range(lam[r] - 1, mu[r] - 1, -1)]

    filling = {}
    placed = [0] * len(nu)

    def ok(r, c, val):
        # weakly increasing along rows (left neighbor <= val <= right neighbor)
        right = filling.get((r, c + 1))
        if right is not None and val > right:
            return False
        # strictly increasing down columns
        above = filling.get((r - 1, c))
        if above is not None and val <= above:
            return False
        # lattice word: after placing val, #val <= #(val-1)
        if val > 0 and placed[val] + 1 > placed[val - 1]:
            return False
        if placed[val] + 1 > nu[val]:
            return False
        return True

    def rec(i):
        nonlocal count
        if i == len(cells):
            count += 1
            return
        r, c = cells[i]
        for val in range(len(nu)):
            if ok(r, c, val):
                filling[(r, c)] = val
                placed[val] += 1
                rec(i + 1)
                placed[val] -= 1
                del filling[(r, c)]

    rec(0)
    return count


class CohomologyClass(Frozen):
    """Integer combination of Schubert basis classes of a fixed Gr_k(C^n); coefficients is a read-only mapping."""

    __slots__ = ("k", "n", "coefficients")

    def __init__(self, k: int, n: int, coefficients=None):
        k, n = check_ambient(k, n)
        coefficients = dict(coefficients or {})
        _check_same_ambient((k, n), *(u.ambient for u in coefficients))
        values = integers(coefficients.values(), "coefficient")
        self._init(k, n, MappingProxyType({u: c for u, c in zip(coefficients, values) if c}))

    def __reduce__(self):  # a mappingproxy cannot be pickled: copy, pickle and == go through a plain dict
        return CohomologyClass, (self.k, self.n, dict(self.coefficients))

    @classmethod
    def basis(cls, u: SchubertSymbol) -> "CohomologyClass":
        return cls(u.k, u.n, {u: 1})

    @classmethod
    def unit(cls, k: int, n: int) -> "CohomologyClass":
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
        self._check(other)
        out = dict(self.coefficients)
        for u, c in other.coefficients.items():
            out[u] = out.get(u, 0) + c
        return CohomologyClass(self.k, self.n, out)

    def __sub__(self, other):
        self._check(other)
        return self + other.scale(-1)

    def scale(self, c: int) -> "CohomologyClass":
        return CohomologyClass(self.k, self.n, {u: c * x for u, x in self.coefficients.items()})

    def _check(self, other):
        if not isinstance(other, CohomologyClass):
            raise ValueError(f"expected a CohomologyClass, got {type(other).__name__}")
        _check_same_ambient((self.k, self.n), (other.k, other.n))

    def __str__(self):
        if not self.coefficients:
            return "0"
        terms = []
        for u in sorted(self.coefficients, key=lambda s: (degree(s), s.entries)):
            c = self.coefficients[u]
            terms.append({1: "", -1: "-"}.get(c, str(c)) + f"z{u}")
        return " + ".join(terms).replace("+ -", "- ")

    __repr__ = __str__

    def to_json(self) -> dict:
        return {str(u): c for u, c in self.coefficients.items()}


def cup_product(z1: CohomologyClass, z2: CohomologyClass) -> CohomologyClass:
    """Cup product via Littlewood-Richardson numbers on partition shapes."""
    z1._check(z2)
    out: dict[SchubertSymbol, int] = {}
    for u1, c1 in z1.coefficients.items():
        for u2, c2 in z2.coefficients.items():
            for u, c in _basis_product(u1, u2).items():
                out[u] = out.get(u, 0) + c1 * c2 * c
    return CohomologyClass(z1.k, z1.n, out)


def _basis_product(u1: SchubertSymbol, u2: SchubertSymbol) -> dict[SchubertSymbol, int]:
    """The nonzero coefficients of z_u1 z_u2 in the Schubert basis."""
    k, n = u1.ambient
    mu = symbol_to_partition(u1).parts
    nu = symbol_to_partition(u2).parts
    size = sum(mu) + sum(nu)
    out = {}
    for lam_sym in enumerate_symbols(k, n):
        lam = symbol_to_partition(lam_sym)
        if lam.weight != size:
            continue
        c = lr_coefficient(lam.parts, mu, nu)
        if c:
            out[lam_sym] = c
    return out


def special_symbol(k: int, n: int, i: int) -> SchubertSymbol:
    """Symbol of the i-th special Schubert class: (n-k,...,n-k+i-1, n-k+i+1,...,n); Gr(k, k) has none."""
    k, n = check_ambient(k, n)
    if k == n:
        raise ValueError(f"Gr({k},{n}) is a point and has no special classes: need k < n")
    if not 1 <= i <= k:
        raise ValueError(f"need 1 <= i <= k = {k}, got i={i}")
    entries = tuple(range(n - k, n - k + i)) + tuple(range(n - k + i + 1, n + 1))
    return SchubertSymbol(entries, n)


def pieri_product(z: CohomologyClass, i: int) -> CohomologyClass:
    """Multiply by the i-th special class: add a vertical strip of i boxes.

    The special class has partition (1^i), so the Pieri rule adds i boxes,
    no two in the same row; anything leaving the box is truncated to zero.
    Independent of the LR engine.
    """
    k, n = z.k, z.n
    if not 1 <= i <= k:
        raise ValueError(f"need 1 <= i <= k = {k}, got i={i}")
    out: dict[SchubertSymbol, int] = {}
    for u, c in z.coefficients.items():
        mu = symbol_to_partition(u).parts
        for rows in itertools.combinations(range(k), i):
            new = list(mu)
            for r in rows:
                new[r] += 1
            if new[0] > n - k:
                continue
            if any(new[r] < new[r + 1] for r in range(k - 1)):
                continue
            w = partition_to_symbol(PartitionShape(tuple(new), k, n))
            out[w] = out.get(w, 0) + c
    return CohomologyClass(k, n, out)


def triple_product(u: SchubertSymbol, v: SchubertSymbol, w: SchubertSymbol) -> int:
    """Intersection number <z_u z_v z_w> when degrees fill the top degree."""
    _check_same_ambient(u.ambient, v.ambient, w.ambient)
    k, n = u.ambient
    if degree(u) + degree(v) + degree(w) != 2 * k * (n - k):
        raise ValueError("degrees do not sum to the top degree")
    prod = cup_product(CohomologyClass.basis(u), CohomologyClass.basis(v))
    return prod.coefficient(complement(w))


def chern_presentation_check(k: int, n: int) -> bool:
    """Verify the relation (1 + c_1 + ... + c_{n-k})(1 + d_1 + ... + d_k) = 1.

    The d_i are the special classes; the c_i are solved degree by degree from
    the relation, and the remaining degrees n-k+1..n must then close to zero
    in the Schubert basis (on Gr(n, n), a point, every d_i vanishes).  Each
    c_i is one Schubert class up to sign, so there are k(n-k) basis products,
    each over C(n, k) candidate shapes; CapacityError first if they exceed the budget.
    """
    cells = cell_count(k, n)
    check_budget(k * (n - k) * cells, f"candidate shapes for the Chern check of Gr({k},{n}), {k * (n - k)}*{cells}")
    d = {i: CohomologyClass.basis(special_symbol(k, n, i)) for i in range(1, k + 1) if k < n}
    c: dict[int, CohomologyClass] = {}
    for m in range(1, n + 1):
        acc = d.get(m, CohomologyClass.zero(k, n))
        for i in range(1, m):
            if i in c and m - i in d:
                acc = acc + cup_product(c[i], d[m - i])
        if m <= n - k:
            c[m] = acc.scale(-1)
        elif not acc.is_zero():
            return False
    return True
