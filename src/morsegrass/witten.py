"""Witten chain complexes and exact integer homology.

A WittenComplex stores, per degree, a list of generator names (critical
points, graded by Morse index) and the integer boundary matrices between
adjacent degrees.  Homology is computed exactly: over the integers from the
invariant factors of each boundary (elementary_divisors), over GF(2) from its
rank.  smith_normal_form, with unimodular transforms, is the independent
check of elementary_divisors.

A complex is checked once, when it is built or loaded, else
ComplexValidationError, and stored in one form: no degree without generators
and no boundary without rows or columns.  Changing its maps afterwards is
unsupported.

Built-in complexes cover the standard small instances: circle height
functions with m maxima/minima, real projective spaces, the torus, and the
(boundary-free) Grassmannian complexes coming from perfect Morse functions.
"""

from __future__ import annotations

import math
from collections import Counter
from itertools import chain

from .symbols import Frozen, cell_dimension, check_budget, enumerate_symbols, integers


class ComplexValidationError(ValueError):
    """A chain complex whose boundary maps fail shape checks or dd = 0."""


Matrix = list[list[int]]


def _mat_mul(a: Matrix, b: Matrix) -> Matrix:
    rows, inner, cols = len(a), len(b), len(b[0]) if b else 0
    out = [[0] * cols for _ in range(rows)]
    for i in range(rows):
        ai = a[i]
        for t in range(inner):
            x = ai[t]
            if x:
                bt = b[t]
                oi = out[i]
                for j in range(cols):
                    oi[j] += x * bt[j]
    return out


def smith_normal_form(m: Matrix) -> tuple[Matrix, Matrix, Matrix]:
    """Smith normal form with transforms: returns (D, U, V) with U m V = D.

    D is diagonal with d_1 | d_2 | ... and d_i >= 0; U and V are unimodular.
    Least-entry reduction by integer division alone (Kaczynski-Mischaikow-
    Mrozek, Computational Homology, section 3.4): each round moves an entry of
    least |value| in the remaining block to (t, t) and reduces column t, then
    row t, to floor-division remainders.  A nonzero remainder is a smaller pivot
    for the next round; a block entry the pivot does not divide has its row
    added to row t, which leaves one.  Otherwise d_t = |pivot| and t advances.
    Ragged rows and entries that are not integers: ValueError, as in elementary_divisors.
    """
    d = _integer_rows(m)
    rows, cols = len(d), len(d[0]) if d else 0
    u = [[1 if i == j else 0 for j in range(rows)] for i in range(rows)]
    vt = [[1 if i == j else 0 for j in range(cols)] for i in range(cols)]  # V transposed: column operations act on rows
    t = 0
    while t < min(rows, cols):
        block = [(abs(d[i][j]), i, j) for i in range(t, rows) for j in range(t, cols) if d[i][j]]
        if not block:
            break
        _, i, j = min(block)
        d[t], d[i], u[t], u[i], vt[t], vt[j] = d[i], d[t], u[i], u[t], vt[j], vt[t]
        for row in d:
            row[t], row[j] = row[j], row[t]
        p = d[t][t]
        for i in range(t + 1, rows):
            if q := d[i][t] // p:
                d[i] = [x - q * y for x, y in zip(d[i], d[t])]
                u[i] = [x - q * y for x, y in zip(u[i], u[t])]
        if any(d[i][t] for i in range(t + 1, rows)):
            continue
        for j in range(t + 1, cols):  # column t is clear below p, so in D only row t changes
            if q := d[t][j] // p:
                d[t][j] -= q * p
                vt[j] = [x - q * y for x, y in zip(vt[j], vt[t])]
        if any(d[t][t + 1:]):
            continue
        bad = next((i for i in range(t + 1, rows) if any(x % p for x in d[i][t + 1:])), None)
        if bad is not None:
            d[t] = [x + y for x, y in zip(d[t], d[bad])]
            u[t] = [x + y for x, y in zip(u[t], u[bad])]
            continue
        if p < 0:
            d[t] = [-x for x in d[t]]
            u[t] = [-x for x in u[t]]
        t += 1
    return d, u, [list(col) for col in zip(*vt)]


def elementary_divisors(m: Matrix) -> list[int]:
    """Nonzero invariant factors d_1 | d_2 | ... of an integer matrix, no transforms.

    The same numbers as the nonzero diagonal of smith_normal_form(m)[0], by
    nearest remainders (Kaczynski-Mischaikow-Mrozek, Computational Homology,
    section 3.4) with one _pivot search per factor: the first +-1 entry, else
    one of least |value|.  Euclid runs inside the pivot's column, where the
    least nonzero remainder swaps rows with the pivot; then column operations
    reduce the pivot row alone, and its least nonzero remainder is the next
    pivot.  A clear row drops its column, zero rows go as they appear, and a
    gcd/lcm pass puts the non-unit pivots in divisibility order.  Ragged rows
    and entries that are not integers: ValueError.
    """
    rows = _integer_rows(m)
    ones = 0
    others: list[int] = []
    while rows := [r for r in rows if any(r)]:
        i, j = _pivot(rows)
        prow = rows.pop(i)
        p = prow[j]
        while True:
            least = None
            for k, r in enumerate(rows):
                if x := r[j]:
                    q = (2 * x + p) // (2 * p)  # nearest to x / p, so x * p for a unit p
                    rows[k] = r = [a - q * b for a, b in zip(r, prow)]
                    if r[j] and (least is None or abs(r[j]) < abs(rows[least][j])):
                        least = k
            if least is not None:
                rows[least], prow = prow, rows[least]
            elif p in (1, -1):
                ones += 1
                break
            else:
                # column j is clear, so column operations only change the pivot row
                prow = [x - (2 * x + p) // (2 * p) * p for x in prow]
                prow[j] = p
                size = min(filter(None, map(abs, prow)))
                if size == abs(p):
                    others.append(size)
                    break
                j = prow.index(size) if size in prow else prow.index(-size)
            p = prow[j]
        for r in rows:
            del r[j]
    for a in range(len(others)):
        for b in range(a + 1, len(others)):
            g = math.gcd(others[a], others[b])
            others[a], others[b] = g, others[a] * others[b] // g
    return [1] * ones + others


def _integer_rows(m, what: str = "matrix entry") -> Matrix:
    """The rows of m as new lists of ints; ValueError for ragged rows or an entry (a ``what``) that symbols.integers
    refuses."""
    rows = [list(r) for r in m]
    if len({len(r) for r in rows}) > 1:
        raise ValueError("ragged rows: every row of the matrix needs the same length")
    if not {int}.issuperset(map(type, chain.from_iterable(rows))):  # numpy integers would wrap around in int64
        rows = [list(integers(r, what)) for r in rows]
    return rows


def _pivot(rows: Matrix) -> tuple[int, int]:
    """Position of the first +-1 entry, else of an entry of least |value| (rows nonzero)."""
    for i, r in enumerate(rows):
        for unit in (1, -1):
            if unit in r:
                return i, r.index(unit)
    size, i = min((min(filter(None, map(abs, r))), i) for i, r in enumerate(rows))
    r = rows[i]
    return i, r.index(size) if size in r else r.index(-size)


def _rank_mod2(m: Matrix) -> int:
    """Rank over GF(2): each row packed into an int (one byte per entry), reduced by an XOR basis."""
    basis: dict[int, int] = {}  # leading bit -> the basis row that has it
    for row in m:
        r = int.from_bytes(bytes([x & 1 for x in row]), "big")
        while (top := r.bit_length()) in basis:  # r = 0 has top 0, never a key
            r ^= basis[top]
        if r:
            basis[top] = r
    return len(basis)


class WittenComplex(Frozen):
    """Graded free abelian groups on named generators with integer boundaries.

    generators[i] lists the degree-i generator names; boundaries[i] is the
    matrix of d_i : C_i -> C_{i-1}, rows indexed by degree-(i-1) generators,
    columns by degree-i generators.  Construction checks integer degrees and
    entries (numpy integers pass and are stored as ints, each boundary as a
    list of lists; bool does not), shapes and dd = 0 on the maps as given, and
    the names: distinct, nonempty and without whitespace, as the text format
    needs.  It then drops degrees with no generators and boundaries with no
    rows or no columns, so complexes that differ only by those are equal.
    """

    __slots__ = ("generators", "boundaries")

    def __init__(self, generators: dict[int, list[str]] | None = None, boundaries: dict[int, Matrix] | None = None):
        generators, boundaries = generators or {}, boundaries or {}
        try:
            degrees = integers([*generators, *boundaries], "degree")
            matrices = [_integer_rows(m, "boundary entry") for m in boundaries.values()]
        except ValueError as exc:
            raise ComplexValidationError(exc) from None
        gens, maps = dict(zip(degrees, generators.values())), dict(zip(degrees[len(generators):], matrices))
        bad = [g for g in chain(*gens.values()) if not (isinstance(g, str) and g.split() == [g])]
        if bad:
            raise ComplexValidationError(f"generator name {bad[0]!r} is not a nonempty string without whitespace")
        repeated = [g for g, n in Counter(chain(*gens.values())).items() if n > 1]
        if repeated:
            raise ComplexValidationError(f"generator name {repeated[0]!r} is used more than once")
        i = _dd_failure(self._init(gens, maps))  # shapes are checked on the maps as given
        if i is not None:
            raise ComplexValidationError(f"dd != 0 between degrees {i + 1} and {i - 1}")
        self._init({d: g for d, g in gens.items() if g}, {d: m for d, m in maps.items() if m and m[0]})

    @property
    def degrees(self) -> list[int]:
        return sorted(self.generators)

    def rank(self, i: int) -> int:
        return len(self.generators.get(i, []))

    def boundary(self, i: int) -> Matrix:
        """d_i as a rank(i-1) x rank(i) matrix (zero matrix if unstored)."""
        if i in self.boundaries:
            return self.boundaries[i]
        return [[0] * self.rank(i) for _ in range(self.rank(i - 1))]

    def morse_polynomial(self):
        from .polynomials import IntPolynomial

        return IntPolynomial.from_terms({i: len(g) for i, g in self.generators.items()})


class HomologyResult(Frozen):
    """Per-degree free ranks and torsion coefficients (divisibility order)."""

    __slots__ = ("ranks", "torsion", "mode")

    def __init__(self, ranks: dict[int, int], torsion: dict[int, list[int]], mode: str = "integers"):
        self._init(ranks, torsion, mode)

    def group_str(self, i: int) -> str:
        parts = ["Z/2" if self.mode == "mod2" else "Z"] * self.ranks.get(i, 0)
        parts += [f"Z/{t}" for t in self.torsion.get(i, [])]
        return " + ".join(parts) if parts else "0"

    def poincare_polynomial(self):
        from .polynomials import IntPolynomial

        return IntPolynomial.from_terms(self.ranks)

    def to_json(self) -> dict:
        return {
            "mode": self.mode,
            "ranks": {str(i): r for i, r in self.ranks.items()},
            "torsion": {str(i): t for i, t in self.torsion.items()},
        }


def _dd_failure(c: WittenComplex) -> int | None:
    """First degree i with d_i d_{i+1} != 0, or None; raises on a shape other than rank(i-1) x rank(i).

    With rank(i-1) = 0, a boundary with no rows passes, as it shows no column count.  Multiplies only pairs
    of stored boundaries that are both nonzero.
    """
    for i, mat in c.boundaries.items():
        want_rows, want_cols = c.rank(i - 1), c.rank(i)
        rows, cols = len(mat), len(mat[0]) if mat else 0
        if (rows, cols) != (want_rows, want_cols) and not (want_rows == 0 and rows == 0):
            raise ComplexValidationError(f"boundary d_{i} has shape {rows}x{cols}, "
                                         f"expected {want_rows}x{want_cols}")
    nonzero = {i for i, mat in c.boundaries.items() if any(map(any, mat))}
    for i in sorted(nonzero):
        if i + 1 in nonzero and any(map(any, _mat_mul(c.boundaries[i], c.boundaries[i + 1]))):
            return i
    return None


def homology(c: WittenComplex, mode: str = "integers") -> HomologyResult:
    """Homology of a complex (checked when built), over Z (with torsion) or over GF(2).

    Each stored boundary is reduced once per call: to its invariant factors
    over Z, or to its GF(2) rank, kept as that many unit factors (over a field
    every invariant factor is 1).  Raises CapacityError when the degrees span
    more than MAX_SYMBOLS, before listing any of them.
    """
    if mode not in ("integers", "mod2"):
        raise ValueError(f"mode must be 'integers' or 'mod2', got {mode!r}")
    lo, hi = min(c.generators, default=0), max(c.generators, default=-1)
    check_budget(hi - lo + 1, f"degrees {lo}..{hi} to list")
    if mode == "mod2":
        factors = {i: [1] * _rank_mod2(m) for i, m in c.boundaries.items()}
    else:
        factors = {i: elementary_divisors(m) for i, m in c.boundaries.items()}

    ranks: dict[int, int] = {}
    torsion: dict[int, list[int]] = {}
    for i in range(lo, hi + 1):
        high = factors.get(i + 1, [])  # d_{i+1} : C_{i+1} -> C_i
        ranks[i] = c.rank(i) - len(factors.get(i, [])) - len(high)
        torsion[i] = [t for t in high if t > 1]
    return HomologyResult(ranks=ranks, torsion=torsion, mode=mode)


def circle_complex(m: int) -> WittenComplex:
    """Height-style Morse function on the circle with m maxima and m minima.

    With the clockwise orientation convention, maximum j bounds
    minimum j minus minimum j+1 (indices mod m).
    """
    (m,) = integers([m], "maximum count m", 1)
    check_budget(m * m, f"boundary entries of circle_complex({m})")
    minima = [f"A{j}" for j in range(m)]
    maxima = [f"M{j}" for j in range(m)]
    d1 = [[0] * m for _ in range(m)]
    for j in range(m):
        d1[j][j] += 1
        d1[(j + 1) % m][j] -= 1
    return WittenComplex(generators={0: minima, 1: maxima}, boundaries={1: d1})


def rp_complex(n: int) -> WittenComplex:
    """Real projective n-space: one generator per degree, d_i = (2) for even i."""
    (n,) = integers([n], "dimension n", 1)
    check_budget(n + 1, f"degrees of rp_complex({n})")
    gens = {i: [f"V{n - i}"] for i in range(n + 1)}
    bnds = {i: [[2 if i % 2 == 0 else 0]] for i in range(1, n + 1)}
    return WittenComplex(generators=gens, boundaries=bnds)


def grassmannian_complex(k: int, n: int) -> WittenComplex:
    """Perfect Morse function on Gr_k(C^n): all generators in even degree, d = 0."""
    gens: dict[int, list[str]] = {}
    for u in enumerate_symbols(k, n):
        gens.setdefault(2 * cell_dimension(u), []).append(str(u))
    return WittenComplex(generators=gens, boundaries={})


def torus_complex() -> WittenComplex:
    """Standard Morse-Smale height function on the 2-torus; boundaries vanish.

    The zero boundary is a recorded fixture (the signed flow-line counts
    cancel in pairs for the Morse-Smale tilt of the height function), not a
    geometric computation.
    """
    return WittenComplex(
        generators={0: ["min"], 1: ["saddle1", "saddle2"], 2: ["max"]},
        boundaries={1: [[0, 0]], 2: [[0], [0]]},
    )


def dump_complex(c: WittenComplex) -> str:
    """Serialize to the plain-text chain-complex format (see load_complex): the degrees from the least to the
    greatest holding generators (0..0 for none), one gens line per degree holding them, then each stored boundary."""
    lo, hi = min(c.generators, default=0), max(c.generators, default=0)
    lines = [f"degrees: {lo} {hi}"]
    lines += [f"gens {i}: " + " ".join(g) for i, g in sorted(c.generators.items())]
    for i, mat in sorted(c.boundaries.items()):
        lines.append(f"d {i}:")
        lines += [" ".join(str(x) for x in row) for row in mat]
    return "\n".join(lines) + "\n"


def load_complex(text: str) -> WittenComplex:
    """Parse the plain-text chain-complex format; building the result checks it.

    Format: a "degrees: lo hi" header with lo <= hi, then a "gens <i>: name ..."
    line per degree with generators, then blocks "d <i>:" followed by the rows of
    the boundary matrix (targets x sources), every i in lo..hi and none repeated.
    """
    gens: dict[int, list[str]] = {}
    bnds: dict[int, Matrix] = {}
    lo = hi = None
    lines = enumerate(text.splitlines(), 1)

    def fail(lineno, msg):
        raise ComplexValidationError(f"line {lineno}: {msg}")

    for no, line in lines:
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        head, colon, rest = line.partition(":")
        words = head.split() if colon else []
        if words == ["degrees"] and lo is None:  # a second header is an unrecognized line
            try:
                lo, hi = (int(x) for x in rest.split())
            except ValueError:
                fail(no, "expected 'degrees: lo hi'")
            if lo > hi:
                fail(no, f"degrees: lo = {lo} exceeds hi = {hi}")
            continue
        if words[:1] not in (["gens"], ["d"]):
            fail(no, f"unrecognized line {line!r}")
        try:
            (deg,) = (int(x) for x in words[1:])
        except ValueError:
            fail(no, "expected 'gens <degree>: names'" if words[0] == "gens" else "expected 'd <degree>:'")
        if lo is None:
            fail(no, "missing 'degrees:' header")
        if not lo <= deg <= hi:
            fail(no, f"degree {deg} outside the header's degrees {lo}..{hi}")
        if deg in (gens if words[0] == "gens" else bnds):
            fail(no, f"repeated '{words[0]} {deg}:' line")
        if words[0] == "gens":
            gens[deg] = rest.split()
            continue
        if rest.strip():
            fail(no, f"unexpected text {rest.strip()!r} after 'd {deg}:'; rows go on the lines below")
        want, width = len(gens.get(deg - 1, [])), len(gens.get(deg, []))
        bnds[deg] = []
        for _ in range(want):
            no, line = next(lines, (no, None))
            if line is None:
                fail(no, f"boundary d {deg}: expected {want} rows")
            try:
                row = [int(x) for x in line.split()]
            except ValueError:
                fail(no, "boundary rows must be integers")
            if len(row) != width:
                fail(no, f"boundary d {deg}: row width {len(row)}, expected {width}")
            bnds[deg].append(row)
    if lo is None:
        raise ComplexValidationError("missing 'degrees:' header")
    return WittenComplex(generators=gens, boundaries=bnds)
