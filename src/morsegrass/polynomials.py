"""Integer polynomials in t and the Poincare / Morse / Morse-Bott polynomials.

Three independent routes to the Poincare polynomial of Gr_k(C^n) are provided
(cell enumeration, the deletion recurrence, and the closed product formula),
plus the Morse-inequality factorization M(t) - P(t) = (1 + t) Q(t).

Grading convention: all polynomials here live in real degrees.  Complex cell
dimensions are doubled by the callers in the symbol layer, never here.
"""

from __future__ import annotations

from collections import Counter
from itertools import accumulate

from .symbols import (
    Frozen,
    GeneralizedSchubertSymbol,
    _combination,
    cell_dimension,
    check_ambient,
    check_budget,
    enumerate_symbols,
    generalized_index,
    integers,
)


class IntPolynomial(Frozen):
    """Polynomial in t with integer coefficients, indexed by degree."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        coeffs = list(integers(coeffs, "coefficient"))
        while coeffs and coeffs[-1] == 0:
            coeffs.pop()
        self._init(tuple(coeffs))

    @classmethod
    def from_terms(cls, terms) -> "IntPolynomial":
        """The sum of c * t^d over a {d: c} map; ValueError unless every d and c is an integer and no d of a nonzero c
        is negative.  CapacityError first if its coefficients, in hundreds, exceed the budget."""
        terms = {d: c for d, c in zip(integers(terms, "degree"), integers(terms.values(), "coefficient")) if c}
        if min(terms, default=0) < 0:
            raise ValueError(f"a polynomial in t has no negative degrees, got {min(terms)}")
        top = max(terms, default=-1)
        check_budget((top + 100) // 100, f"hundreds of coefficients of a polynomial of degree {top}")
        coeffs = [0] * (top + 1)
        for d, c in terms.items():
            coeffs[d] = c
        return cls._of(tuple(coeffs))

    @classmethod
    def monomial(cls, degree: int, coefficient: int = 1) -> "IntPolynomial":
        """coefficient * t^degree, by from_terms; ValueError unless degree is an integer."""
        (degree,) = integers([degree], "monomial degree")
        return cls.from_terms({degree: coefficient})

    zero: "IntPolynomial"
    one: "IntPolynomial"

    @property
    def degree(self) -> int:
        """Degree of the polynomial; -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    def coefficient(self, d: int) -> int:
        return self.coeffs[d] if 0 <= d < len(self.coeffs) else 0

    def __eq__(self, other):
        if (other := _operand(other)) is NotImplemented:
            return other
        return self.coeffs == other.coeffs

    def __hash__(self):
        # constants compare equal to ints, so they must hash like them
        return hash(self.coeffs) if len(self.coeffs) > 1 else hash(self.coefficient(0))

    def __add__(self, other):
        if (other := _operand(other)) is NotImplemented:
            return other
        n = max(len(self.coeffs), len(other.coeffs))
        return IntPolynomial(
            [self.coefficient(i) + other.coefficient(i) for i in range(n)]
        )

    __radd__ = __add__

    def __neg__(self):
        return IntPolynomial([-c for c in self.coeffs])

    def __sub__(self, other):
        if (other := _operand(other)) is NotImplemented:
            return other
        return self + (-other)

    def __mul__(self, other):
        if (other := _operand(other)) is NotImplemented:
            return other
        # CapacityError past 10^6 coefficient updates, counted in tens: the loop skips self's zero coefficients
        check_budget(sum(map(bool, self.coeffs)) * len(other.coeffs) // 10,
                     f"tens of coefficient updates to multiply polynomials of degrees {self.degree} and {other.degree}")
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1 or 1)
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return IntPolynomial(out)

    __rmul__ = __mul__

    def __call__(self, t: int) -> int:
        value = 0
        for c in reversed(self.coeffs):
            value = value * t + c
        return value

    def substitute_power(self, p: int) -> "IntPolynomial":
        """Replace t by t^p, by from_terms; ValueError unless p is an integer >= 1."""
        (p,) = integers([p], "power p", 1)
        return IntPolynomial.from_terms({p * d: c for d, c in enumerate(self.coeffs)})

    def is_zero(self) -> bool:
        return not self.coeffs

    def __str__(self):
        return _combination((c, "t" if d == 1 else f"t^{d}" if d else "") for d, c in enumerate(self.coeffs))

    def __repr__(self):
        return f"IntPolynomial({list(self.coeffs)})"

    def to_json(self) -> dict:
        return {"coeffs": list(self.coeffs)}

    @classmethod
    def from_json(cls, data: dict) -> "IntPolynomial":
        return cls(data["coeffs"])


def _operand(other):
    """other as an IntPolynomial, an integer as a constant one; NotImplemented for anything else."""
    try:
        return other if isinstance(other, IntPolynomial) else IntPolynomial([other])
    except ValueError:
        return NotImplemented


IntPolynomial.zero = IntPolynomial([])
IntPolynomial.one = IntPolynomial([1])


class MorseViolation(Frozen):
    """Witness that (M, P) cannot come from a Morse function: M - P leaves a remainder on division by 1 + t, or the
    quotient Q has a negative coefficient."""

    __slots__ = ("reason", "degree")

    def __init__(self, reason: str, degree: int):
        self._init(reason, degree)

    def __bool__(self):
        return False

    def __str__(self):
        return f"Morse inequality violation in degree {self.degree}: {self.reason}"


def morse_polynomial_by_cells(k: int, n: int) -> IntPolynomial:
    """Morse polynomial of -f on Gr_k(C^n), one term t^(2 dim S_u) per cell."""
    return IntPolynomial.from_terms(Counter(2 * cell_dimension(u) for u in enumerate_symbols(k, n)))


def gaussian_generating(k: int, n: int) -> IntPolynomial:
    """Gaussian binomial [n choose k]_t by k = min(k, n - k) passes over one coefficient list.

    Pass i turns [n-k+i-1 choose i-1]_t into [n-k+i choose i]_t: multiply by 1 - t^(n-k+i), then divide
    exactly by 1 - t^i.  CapacityError first if the passes' 2k(k(n - k) + 1) coefficient updates, counted
    in 64-bit words (every coefficient is below 2^n), exceed the budget.
    """
    k, n = check_ambient(k, n)
    what = f"thousands of word updates for the closed form of Gr({k},{n})"
    k = min(k, n - k)  # [n choose k]_t = [n choose n - k]_t
    check_budget(2 * k * (k * (n - k) + 1) * (1 + n // 64) // 1000, what)
    cut = k * (n - k)
    c = [1] + [0] * cut
    for i in range(1, k + 1):
        a, top = n - k + i, min(cut, i * (n - k) + i)  # top: degree after the multiply, cut at the last pass
        for d in range(top, a - 1, -1):
            c[d] -= c[d - a]
        for d in range(i, top + 1):
            c[d] += c[d - i]
    return IntPolynomial(c)


def poincare_recurrence(k: int, n: int) -> IntPolynomial:
    """Poincare polynomial of Gr_k(C^n) via P_{k,n} = P_{k,n-1} + t^{2(n-k)} P_{k-1,n-1}, over Pascal rows.

    After step nn, row[kk] holds P_{kk,nn} for max(0, k - (n - nn)) <= kk <= min(k, nn), the kk that P_{k,n} needs.
    CapacityError first if n min(k, n - k)(2k(n - k) + 1) coefficient updates, in thousands, exceed the budget.
    """
    k, n = check_ambient(k, n)
    updates = n * min(k, n - k) * (2 * k * (n - k) + 1)
    check_budget(updates // 1000, f"thousands of coefficient updates for the recurrence of Gr({k},{n})")
    row = [[1] for _ in range(k + 1)]
    for nn in range(1, n + 1):
        for kk in range(min(k, nn - 1), max(0, k - (n - nn) - 1), -1):
            shift, low = 2 * (nn - kk), row[kk - 1]
            out = row[kk] + [0] * (shift + len(low) - len(row[kk]))
            for d, c in enumerate(low, shift):
                out[d] += c
            row[kk] = out
    return IntPolynomial(row[k])


def poincare_closed(k: int, n: int) -> IntPolynomial:
    """Poincare polynomial of Gr_k(C^n) via the closed product formula."""
    return gaussian_generating(k, n).substitute_power(2)


def mb_polynomial(cs: list[GeneralizedSchubertSymbol]) -> IntPolynomial:
    """Morse-Bott polynomial: sum over critical manifolds of t^index * P(manifold), each product priced by __mul__."""
    if not cs:
        return IntPolynomial.zero
    blocks = cs[0].blocks
    k = cs[0].k
    if any(c.blocks != blocks or c.k != k for c in cs):
        raise ValueError("all generalized symbols must share blocks and k")
    out = IntPolynomial.zero
    for c in cs:
        factor = IntPolynomial.monomial(generalized_index(c))
        for cj, mj in zip(c.counts, c.blocks):
            factor = factor * poincare_closed(cj, mj)
        out = out + factor
    return out


def morse_inequalities(m_poly: IntPolynomial, p_poly: IntPolynomial):
    """Q with M(t) - P(t) = (1 + t) Q(t) and every coefficient of Q >= 0, else a MorseViolation: at degree 0 when
    1 + t leaves the remainder (M - P)(-1) != 0, or at the degree of Q's lowest negative coefficient."""
    diff = m_poly - p_poly
    if remainder := diff(-1):
        return MorseViolation(f"M - P is not divisible by 1 + t (remainder {remainder})", degree=0)
    # (1 + t) Q = M - P coefficient by coefficient: q_d = (M - P)_d - q_{d-1}
    q = IntPolynomial(accumulate(diff.coeffs[:-1], lambda q, c: c - q))
    for d, c in enumerate(q.coeffs):
        if c < 0:
            return MorseViolation(f"Q coefficient {c} is negative", degree=d)
    return q


def euler_characteristic(m_poly: IntPolynomial) -> int:
    """Alternating sum of coefficients: the polynomial evaluated at t = -1."""
    return m_poly(-1)


def is_lacunary_perfect(m_poly: IntPolynomial) -> bool:
    """Whether every odd-degree coefficient vanishes (lacunary principle)."""
    return all(c == 0 for d, c in enumerate(m_poly.coeffs) if d % 2 == 1)
