"""Schubert symbols, cells, indices and the Bruhat order on Gr_k(C^n).

A Schubert symbol is a strictly increasing k-tuple u = (u_1, ..., u_k) with
entries in 1..n.  It labels the coordinate k-plane V_u spanned by the basis
vectors e_{u_1}, ..., e_{u_k}, which is a critical point of every diagonal
height function, and the Schubert cell S_u of planes limiting to V_u.

Generalized symbols handle the Morse-Bott case, where the height spectrum has
repeated values and critical points come in manifolds indexed by how many
dimensions of the plane sit in each eigenspace block.
"""

from __future__ import annotations

import itertools
import math
import operator

# the one work budget: check_budget refuses any engine whose stated cost exceeds it
MAX_SYMBOLS = 100_000

DEFAULT_TOL = 1e-9

_INT = frozenset({int})  # built once: integers tests each call's value types against it


def tolerance(value) -> float:
    """A numerical tolerance as a float; ValueError unless finite and positive.  A string, as --tol and
    MORSEGRASS_TOL are, is parsed with float() first; any other value must pass reals, the rule for real input."""
    (tol,) = floats((float(value) if isinstance(value, str) else value,), "tolerance")
    if not tol > 0:
        raise ValueError(f"tolerance must be finite and positive, got {value!r}")
    return tol


class AmbientMismatchError(ValueError):
    """Symbols or classes from different Grassmannians were combined."""


class CapacityError(ValueError):
    """A request whose stated cost exceeds the work budget MAX_SYMBOLS."""


class AmbiguousCellError(ValueError):
    """Echelon pivots too small to classify the cell of a point reliably."""


class Frozen:
    """Immutable base of the value classes, set in __init__ or by _of: the fields are the __slots__ without a
    leading _, and ==, hash and repr are a frozen dataclass's over them."""

    __slots__ = ()

    def __init_subclass__(cls):  # _names: the field names; _fields(x): x's field tuple, a 1-tuple for one field
        cls._names = tuple(f for f in cls.__slots__ if not f.startswith("_"))
        get = operator.attrgetter(*cls._names)
        cls._fields = staticmethod(get if len(cls._names) > 1 else lambda x: (get(x),))

    @classmethod
    def _of(cls, *values):  # a value from parts already checked, skipping __init__
        return object.__new__(cls)._init(*values)

    def _init(self, *values):  # sets the slots in __slots__ order; returns self
        for f, v in zip(self.__slots__, values):
            object.__setattr__(self, f, v)
        return self

    def __setattr__(self, name, value=None):
        raise AttributeError(f"cannot assign to or delete field {name!r} of a frozen {type(self).__name__}")

    __delattr__ = __setattr__

    def __reduce__(self):  # (class, field tuple): copy and pickle rebuild through __init__
        return type(self), self._fields(self)

    def __eq__(self, other):
        return self._fields(self) == self._fields(other) if other.__class__ is self.__class__ else NotImplemented

    def __hash__(self):
        return hash(self._fields(self))

    def __repr__(self):
        return f"{type(self).__name__}({', '.join(f'{f}={getattr(self, f)!r}' for f in self._names)})"


class SchubertSymbol(Frozen):
    """Strictly increasing k-tuple indexing a cell of Gr_k(C^n)."""

    __slots__ = ("entries", "n")

    def __init__(self, entries: tuple[int, ...], n: int):
        entries = integers(entries, "symbol entry")
        _, n = check_ambient(len(entries), n)
        if any(b <= a for a, b in zip(entries, entries[1:])):
            raise ValueError(f"entries {entries} not strictly increasing")
        if entries and (entries[0] < 1 or entries[-1] > n):
            raise ValueError(f"entries {entries} out of range 1..{n}")
        self._init(entries, n)

    @property
    def k(self) -> int:
        return len(self.entries)

    @property
    def ambient(self) -> tuple[int, int]:
        return (self.k, self.n)

    def __iter__(self):
        return iter(self.entries)

    def __str__(self):
        return "(" + ",".join(str(e) for e in self.entries) + ")"

    def to_json(self) -> dict:
        return {"entries": list(self.entries), "k": self.k, "n": self.n}


class GeneralizedSchubertSymbol(Frozen):
    """Occupancy counts c_j of a k-plane against eigenspace blocks of sizes m_j."""

    __slots__ = ("counts", "blocks")

    def __init__(self, counts: tuple[int, ...], blocks: tuple[int, ...]):
        counts = integers(counts, "count")
        blocks = integers(blocks, "block size", 1)
        if len(counts) != len(blocks):
            raise ValueError("counts and blocks must have equal length")
        if any(c < 0 or c > m for c, m in zip(counts, blocks)):
            raise ValueError(f"counts {counts} out of range for blocks {blocks}")
        self._init(counts, blocks)

    @property
    def k(self) -> int:
        return sum(self.counts)

    @property
    def n(self) -> int:
        return sum(self.blocks)

    def to_json(self) -> dict:
        return {"blocks": list(self.blocks), "counts": list(self.counts)}


def integers(values, what: str, lo: int | None = None, hi: int | None = None) -> tuple[int, ...]:
    """The values as a tuple of ints, the one rule for integer input: ValueError naming ``what`` unless each has a
    type with __index__, not bool (2.0, Fraction(2), "2" and True are refused, numpy integers become ints), and,
    every type judged first, unless each is at least lo and at most hi where given ("a step count must be at least
    1, got 0")."""
    values = tuple(values)
    if not _INT.issuperset(map(type, values)):
        for v in values:
            if isinstance(v, bool) or not hasattr(type(v), "__index__"):
                raise ValueError(f"a {what} of type {type(v).__name__} is not an integer")
        values = tuple(map(operator.index, values))
    if lo is None and hi is None:
        return values
    for v in values:
        if lo is not None and v < lo or hi is not None and v > hi:
            span = f"at least {lo}" if hi is None else f"at most {hi}" if lo is None else f"from {lo} to {hi}"
            raise ValueError(f"a {what} must be {span}, got {v}")
    return values


def reals(values, what: str) -> tuple:
    """The values as a tuple, the one rule for real input: ValueError naming ``what`` unless each is a numbers.Real,
    not bool ("1.5", True, None, 1+0j and Decimal are never parsed), and finite unless exact (ints, Fractions)."""
    values = tuple(values)
    if {float}.issuperset(map(type, values)) and all(map(math.isfinite, values)) or {int}.issuperset(map(type, values)):
        return values
    kinds = set(map(type, values))
    import numbers  # here, not at load: the CLI's exact subcommands never load it
    for t in kinds:  # ABC checks once per type, not per value: each costs more than the finite test
        if t is bool or not issubclass(t, numbers.Real):
            raise ValueError(f"a {what} of type {t.__name__} is not a real number")
    exact = {t for t in kinds if issubclass(t, numbers.Rational)}  # never math.isfinite: 10**400 overflows
    for v in values:
        if type(v) not in exact and not math.isfinite(v):
            raise ValueError(f"a {what} must be finite, got {v!r}")
    return values


def floats(values, what: str) -> tuple[float, ...]:
    """The values as floats once reals passes them; ValueError naming ``what`` for one too large for a float."""
    try:
        return tuple(map(float, reals(values, what)))
    except OverflowError:  # an exact value past the float range, such as 10**400
        raise ValueError(f"a {what} is too large to be a float") from None


def check_ambient(k: int, n: int) -> tuple[int, int]:
    """(k, n) as ints; ValueError unless both are integers with 0 <= k <= n, the one check on Gr_k(C^n)."""
    if type(k) is not int or type(n) is not int:
        (k,), (n,) = integers([k], "dimension k"), integers([n], "dimension n")
    if k < 0 or n < 0 or k > n:
        raise ValueError(f"need 0 <= k <= n, got k={k}, n={n}")
    return k, n


def _combination(terms) -> str:
    """Text of an integer combination of (coefficient, basis name) pairs, the name "" for a constant: zero terms
    are dropped, a named term's coefficient 1 or -1 prints as its sign, "+ -" as "- " and no term as "0"."""
    text = " + ".join({1: "", -1: "-"}.get(c, str(c)) + name if name else str(c) for c, name in terms if c)
    return text.replace("+ -", "- ") or "0"


def check_budget(cost: int, what: str) -> None:
    """CapacityError if cost, stated in the unit ``what`` names before that work, exceeds MAX_SYMBOLS."""
    if cost > MAX_SYMBOLS:
        shown = cost if cost < 2**64 else f"2^{cost.bit_length() - 1} or more"
        raise CapacityError(f"{what}: {shown} exceeds the budget MAX_SYMBOLS = {MAX_SYMBOLS}")


def cell_count(k: int, n: int) -> int:
    """C(n, k), the number of Schubert cells of Gr_k(C^n); ValueError unless 0 <= k <= n, CapacityError past the
    budget."""
    k, n = check_ambient(k, n)
    # past min(k, n - k) = 20, C(n, k) >= C(n, 21) >= C(42, 21) > MAX_SYMBOLS: price C(n, 21)
    j = min(k, n - k, 21)
    cells = math.comb(n, j)
    if cells > MAX_SYMBOLS:  # the message is built only for a refusal
        check_budget(cells, f"Schubert cells of Gr({k},{n}), {'at least ' * (j == 21)}C({n},{j})")
    return cells


def symbol_units(k: int) -> int:
    """1 + k // 16, the budget units of one symbol with its k entries: the unit of every price of symbols."""
    return 1 + k // 16


def priced_symbol(k: int, n: int) -> tuple[int, int]:
    """(k, n) as check_ambient returns them; CapacityError if one symbol of Gr_k(C^n) exceeds the budget."""
    k, n = check_ambient(k, n)
    if symbol_units(k) > MAX_SYMBOLS:  # the message is built only for a refusal
        check_budget(symbol_units(k), f"a Schubert symbol of Gr({k},{n}) with its entries, 1+{k}//16")
    return k, n


def enumerate_symbols(k: int, n: int) -> list[SchubertSymbol]:
    """All C(n, k) Schubert symbols of Gr_k(C^n), in lexicographic order; CapacityError, before any is built, if
    C(n, k) * (1 + k // 16), the symbols and their entries, exceeds the budget."""
    k, n = check_ambient(k, n)
    check_budget(cell_count(k, n) * symbol_units(k), f"Schubert symbols with their entries, C({n},{k})*(1+{k}//16)")
    return [SchubertSymbol._of(c, n) for c in itertools.combinations(range(1, n + 1), k)]


def cell_dimension(u: SchubertSymbol) -> int:
    """Complex dimension of the Schubert cell S_u: sum of u_i - i."""
    return sum(e - i for i, e in enumerate(u.entries, start=1))


def critical_index(u: SchubertSymbol, sign: str = "for_minus_f") -> int:
    """Morse index of the critical point V_u for f ("for_f") or -f ("for_minus_f"): the real dimension of the
    unstable manifold, twice its complex one."""
    d = cell_dimension(u)
    top = u.k * (u.n - u.k)
    if sign == "for_minus_f":
        return 2 * d
    if sign == "for_f":
        return 2 * (top - d)
    raise ValueError(f"sign must be 'for_f' or 'for_minus_f', got {sign!r}")


def schubert_conditions(u: SchubertSymbol) -> tuple[int, ...]:
    """Jump sequence v_i = dim(V cap C^i) characterizing the cell of u: the prefix sums over 1..n of the indicator
    of u's entries, in one pass."""
    marks = [0] * u.n
    for e in u.entries:
        marks[e - 1] = 1
    return tuple(itertools.accumulate(marks))


def complement(u: SchubertSymbol) -> SchubertSymbol:
    """Dual symbol u^c = (n - u_k + 1, ..., n - u_1 + 1)."""
    return SchubertSymbol._of(tuple(u.n - e + 1 for e in reversed(u.entries)), u.n)


def _check_same_ambient(*ambients: tuple[int, int]) -> None:
    """AmbientMismatchError unless every (k, n) is the same, the one check that objects share a Gr_k(C^n)."""
    if len(set(ambients)) > 1:
        raise AmbientMismatchError(f"different Grassmannians: {' vs '.join(map(str, ambients))}")


def bruhat_leq(u1: SchubertSymbol, u2: SchubertSymbol) -> bool:
    """Closure order: u1 <= u2 iff the closure of S_{u1} contains S_{u2}, iff (u2)_j <= (u1)_j for every j."""
    _check_same_ambient(u1.ambient, u2.ambient)
    return all(b <= a for a, b in zip(u1.entries, u2.entries))


def flow_line_exists(u_from: SchubertSymbol, u_to: SchubertSymbol) -> bool:
    """Whether a gradient flow line runs from the cell of u_from down to u_to."""
    return bruhat_leq(u_from, u_to) and u_from != u_to


def enumerate_generalized_symbols(
    blocks: tuple[int, ...] | list[int], k: int
) -> list[GeneralizedSchubertSymbol]:
    """All occupancy vectors (c_1, ..., c_l) with 0 <= c_j <= m_j and sum k, in lexicographic order, each stepped
    to from the one before.  CapacityError, before any is built, if their count times (1 + l // 16) exceeds the
    budget; they are counted block by block over the partial sums that can still reach k, each priced first."""
    blocks = integers(blocks, "block size", 1)
    k, _ = check_ambient(k, sum(blocks))
    tails = list(itertools.accumulate(reversed(blocks), initial=0))[::-1]  # tails[j] = sum(blocks[j:])
    what = f"occupancy vectors of {k} in {len(blocks)} blocks"
    ways, lo = [1], 0  # ways[s - lo]: prefixes over the blocks so far that sum to s
    for m, tail in zip(blocks, tails[1:]):
        new_lo, hi = max(0, k - tail), min(k, lo + len(ways) - 1 + m)
        check_budget(max(sum(ways), hi - new_lo + 1), f"{what}, at least")
        cum = [0, *itertools.accumulate(ways)]  # the new ways at s sum the old ones at s - m .. s
        ways = [cum[min(s - lo + 1, len(ways))] - cum[max(s - m - lo, 0)] for s in range(new_lo, hi + 1)]
        lo = new_lo
    check_budget(ways[0] * symbol_units(len(blocks)), f"{what} with their entries, count*(1+{len(blocks)}//16)")
    # step from each vector to the next, carrying the sum left for the entries after j
    out, v, rest, j = [], [0] * len(blocks), k, -1
    while True:
        for i in range(j + 1, len(blocks)):  # the least tail: each entry the least the blocks after it allow
            v[i] = c = max(0, rest - tails[i + 1])
            rest -= c
        out.append(GeneralizedSchubertSymbol._of(tuple(v), blocks))  # blocks checked above, v in range
        j = len(blocks) - 1  # the last entry that can take one from the entries after it
        while j >= 0 and (v[j] == blocks[j] or rest == 0):
            rest += v[j]
            j -= 1
        if j < 0:
            return out
        v[j] += 1
        rest -= 1


def generalized_index(c: GeneralizedSchubertSymbol) -> int:
    """Morse-Bott index (for -f) of the critical manifold of c, the least Morse index of its refinements:
    2 * sum_{i<j} c_j (m_i - c_i)."""
    total = above = 0  # above: sum of m_i - c_i over the blocks before j
    for cj, mj in zip(c.counts, c.blocks):
        total += cj * above
        above += mj - cj
    return 2 * total


def ndcm_dimension(c: GeneralizedSchubertSymbol) -> int:
    """Complex dimension of the critical manifold Gr_{c_1}(C^{m_1}) x ... x Gr_{c_l}(C^{m_l}) of c."""
    return sum(cj * (mj - cj) for cj, mj in zip(c.counts, c.blocks))


def morse_refinements(c: GeneralizedSchubertSymbol) -> list[SchubertSymbol]:
    """Schubert symbols compatible with c, c_j rows picked inside each block; CapacityError, before any is built,
    if the product of the C(m_j, c_j) times (1 + k // 16) exceeds the budget."""
    count = math.prod(cell_count(cj, mj) for cj, mj in zip(c.counts, c.blocks))
    check_budget(count * symbol_units(c.k), f"Morse refinements of {c.counts} in blocks {c.blocks} "
                                            f"with their entries, prod C(m_j,c_j)*(1+{c.k}//16)")
    offsets = itertools.accumulate(c.blocks, initial=0)
    per_block = [itertools.combinations(range(o + 1, o + m + 1), cj) for o, m, cj in zip(offsets, c.blocks, c.counts)]
    return [SchubertSymbol._of(tuple(itertools.chain.from_iterable(choice)), c.n)
            for choice in itertools.product(*per_block)]
