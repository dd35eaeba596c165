import itertools
import random
import time
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

import morsegrass.symbols as symbols_module
from morsegrass.polynomials import (
    IntPolynomial,
    MorseViolation,
    euler_characteristic,
    gaussian_generating,
    is_lacunary_perfect,
    mb_polynomial,
    morse_inequalities,
    morse_polynomial_by_cells,
    poincare_closed,
    poincare_recurrence,
)
from morsegrass.symbols import CapacityError, GeneralizedSchubertSymbol, enumerate_generalized_symbols
from morsegrass.witten import WittenComplex, circle_complex, grassmannian_complex, homology, rp_complex, torus_complex


def poly(*coeffs):
    return IntPolynomial(coeffs)


def long_division(num, den):
    """num / den by schoolbook long division, ValueError unless the remainder is zero: the oracle for
    gaussian_generating's passes and for the quotient of the Morse inequalities."""
    rem, dd, lead = list(num.coeffs), den.degree, den.coeffs[-1]
    q = [0] * max(len(rem) - dd, 1)
    for i in range(len(rem) - 1, dd - 1, -1):
        if rem[i] == 0:
            continue
        if rem[i] % lead != 0:
            raise ValueError("inexact polynomial division (leading coefficient)")
        q[i - dd] = factor = rem[i] // lead
        for j, b in enumerate(den.coeffs):
            rem[i - dd + j] -= factor * b
    if any(rem):
        raise ValueError("inexact polynomial division (nonzero remainder)")
    return IntPolynomial(q)


def morse_by_long_division(m, p):
    """morse_inequalities(m, p) with Q from the long division of M - P by 1 + t."""
    diff = m - p
    try:
        q = long_division(diff, poly(1, 1))
    except ValueError:
        return MorseViolation(f"M - P is not divisible by 1 + t (remainder {diff(-1)})", degree=0)
    for d, c in enumerate(q.coeffs):
        if c < 0:
            return MorseViolation(f"Q coefficient {c} is negative", degree=d)
    return q


def gaussian_by_products(k, n):
    """[n choose k]_t as the product of the 1 - t^(n-k+i) over that of the 1 - t^i,
    by general polynomial products and one long division: the oracle for the passes."""
    num = den = IntPolynomial.one
    for i in range(1, k + 1):
        num = num * (IntPolynomial.one - IntPolynomial.monomial(n - k + i))
        den = den * (IntPolynomial.one - IntPolynomial.monomial(i))
    return long_division(num, den)


class TestIntPolynomial:
    def test_normalization(self):
        assert IntPolynomial([1, 0, 0]).coeffs == (1,)
        assert IntPolynomial([0, 0]).is_zero()

    def test_arithmetic(self):
        p = poly(1, 2)
        q = poly(0, 1, 1)
        assert (p + q).coeffs == (1, 3, 1)
        assert (p - p).is_zero()
        assert (p * q).coeffs == (0, 1, 3, 2)
        assert (3 * p).coeffs == (3, 6)

    def test_evaluation(self):
        assert poly(1, 2, 1)(-1) == 0
        assert poly(1, 0, 1)(2) == 5

    def test_exact_division(self):
        p = poly(1, 2, 1)
        assert long_division(p, poly(1, 1)).coeffs == (1, 1)
        with pytest.raises(ValueError):
            long_division(poly(1, 0, 1), poly(1, 1))

    def test_pretty_print(self):
        assert str(poly(1, 0, 1, 0, 2)) == "1 + t^2 + 2t^4"
        assert str(poly(0, -1)) == "-t"
        assert str(IntPolynomial()) == "0"

    def test_degree_and_power_ranges(self):
        # monomial(-2) was 1 and substitute_power(0) turned 1 + 2t into 2; substitute_power(-1) raised IndexError
        assert IntPolynomial.monomial(0, 3) == 3 and IntPolynomial([1, 2]).substitute_power(1) == IntPolynomial([1, 2])
        with pytest.raises(ValueError, match="a polynomial in t has no negative degrees, got -2"):
            IntPolynomial.monomial(-2)
        for p in (0, -1):
            with pytest.raises(ValueError, match=f"^a power p must be at least 1, got {p}$"):
                IntPolynomial([1, 2]).substitute_power(p)

    def test_constants_hash_like_ints(self):
        for c in (0, 1, 5, -3, 2**70):
            assert IntPolynomial([c]) == c
            assert hash(IntPolynomial([c])) == hash(c)
        assert {IntPolynomial([5]), 5} == {5}
        assert hash(poly(1, 2)) == hash(poly(1, 2, 0))

    def test_json_round_trip(self):
        p = poly(1, 0, 2)
        assert IntPolynomial.from_json(p.to_json()) == p

    @pytest.mark.parametrize("op", ["p + x", "x + p", "p - x", "p * x", "x * p"])
    @pytest.mark.parametrize("x", [0.5, 2.0, Fraction(2), "2"])
    def test_other_operands_are_type_errors(self, op, x):
        # p + 0.5 and 0.5 * p raised AttributeError: 'float' object has no attribute 'coeffs'
        p = poly(1, 2)
        with pytest.raises(TypeError):
            eval(op)
        assert p != x



def filled(terms):
    """The sum of c * t^d filled into one coefficient list, as the four hand-built fills did before from_terms."""
    return IntPolynomial([terms.get(d, 0) for d in range(max(terms, default=-1) + 1)])


def monomial_fill(d, c):
    return IntPolynomial([0] * d + [c])


def substitute_fill(f, p):
    out = [0] * (p * len(f.coeffs) or 1)
    for d, c in enumerate(f.coeffs):
        out[p * d] = c
    return IntPolynomial(out)


def cells_fill(k, n):
    out = [0] * (2 * k * (n - k) + 1)
    for u in symbols_module.enumerate_symbols(k, n):
        out[2 * symbols_module.cell_dimension(u)] += 1
    return IntPolynomial(out)


WITTEN_BUILTINS = [
    *(pytest.param(circle_complex(m), id=f"circle-{m}") for m in (1, 2, 3, 5)),
    *(pytest.param(rp_complex(n), id=f"rp-{n}") for n in (1, 2, 3, 4, 7)),
    pytest.param(torus_complex(), id="torus"),
    *(pytest.param(grassmannian_complex(k, n), id=f"grassmannian-{k}-{n}") for k, n in ((0, 3), (1, 4), (2, 4), (2, 5),
                                                                                       (3, 6), (4, 9))),
]


class TestFromTerms:
    def test_terms(self):
        assert IntPolynomial.from_terms({}) == IntPolynomial.zero
        assert IntPolynomial.from_terms({2: 3, 0: -1}).coeffs == (-1, 0, 3)
        assert IntPolynomial.from_terms({np.int64(1): np.int64(2)}).coeffs == (0, 2)
        assert all(type(c) is int for c in IntPolynomial.from_terms({np.int64(1): np.int64(2)}).coeffs)

    def test_zero_coefficients_are_dropped_before_the_price(self):
        # a zero term has no degree to fill: not even a negative or unpriced one
        assert IntPolynomial.from_terms({5: 0, 2: 3}).coeffs == (0, 0, 3)
        assert IntPolynomial.from_terms({0: 0}).is_zero()
        assert IntPolynomial.from_terms({10**30: 0, -4: 0, 1: 1}).coeffs == (0, 1)

    def test_negative_degrees_refused_once(self):
        for terms in ({-2: 1}, {-2: 1, 3: 1}, {-5: 2, -2: 1, 0: 1}):
            with pytest.raises(ValueError, match=f"^a polynomial in t has no negative degrees, got {min(terms)}$"):
                IntPolynomial.from_terms(terms)

    @pytest.mark.parametrize("terms,message", [
        ({1.0: 1}, "a degree of type float"), ({1: 0.5}, "a coefficient of type float"),
        ({True: 1}, "a degree of type bool"), ({1: "1"}, "a coefficient of type str"),
    ])
    def test_integers_only(self, terms, message):
        with pytest.raises(ValueError, match=f"^{message} is not an integer$"):
            IntPolynomial.from_terms(terms)

    def test_priced_in_hundreds_of_coefficients(self, monkeypatch):
        monkeypatch.setattr(symbols_module, "MAX_SYMBOLS", 10)
        assert IntPolynomial.from_terms({999: 1}).degree == 999  # 1000 coefficients, 10 hundreds
        with pytest.raises(CapacityError, match="^hundreds of coefficients of a polynomial of degree 1000: 11 exceeds"):
            IntPolynomial.from_terms({1000: 1})

    # each built its whole coefficient list unpriced; at the default budget the degree 10**9 of each took seconds
    # and gigabytes, so the budget is lowered to 10**4 coefficients and the degree kept at 10**6
    REPROS = [
        pytest.param(lambda: IntPolynomial.monomial(10**6), id="monomial"),
        pytest.param(lambda: IntPolynomial([1, 1]).substitute_power(10**6), id="substitute_power"),
        pytest.param(lambda: WittenComplex({10**6: ["a"]}).morse_polynomial(), id="morse_polynomial"),
        pytest.param(lambda: homology(WittenComplex({10**6: ["a"]})).poincare_polynomial(), id="poincare_polynomial"),
        pytest.param(lambda: mb_polynomial([GeneralizedSchubertSymbol((0, 500), (500, 500))]), id="mb_polynomial"),
    ]

    @pytest.mark.parametrize("build", REPROS)
    def test_priced_before_the_list_is_allocated(self, monkeypatch, build):
        monkeypatch.setattr(symbols_module, "MAX_SYMBOLS", 100)
        tracemalloc.start()
        start = time.perf_counter()
        try:
            with pytest.raises(CapacityError, match="^hundreds of coefficients of a polynomial of degree"):
                build()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert time.perf_counter() - start < 0.1
        assert peak < 200_000  # a list of 10**6 coefficients takes 8 MB

    def test_edge_cases_answered(self):
        # the largest polynomials the CLI's cells and closed routes build stay below the price
        assert morse_polynomial_by_cells(1, 100000).degree == 199998
        assert poincare_closed(1, 50000).coeffs == (1, 0) * 49999 + (1,)

    TABLE = [
        *(pytest.param(lambda d=d, c=c: IntPolynomial.monomial(d, c), lambda d=d, c=c: monomial_fill(d, c),
                       id=f"monomial-{d}-{c}") for d in (0, 1, 7) for c in (1, -3, 0)),
        *(pytest.param(lambda f=f, p=p: f.substitute_power(p), lambda f=f, p=p: substitute_fill(f, p),
                       id=f"substitute_power-{f.coeffs}-{p}")
          for f in (IntPolynomial.zero, IntPolynomial.one, poly(1, 2), poly(0, -1, 0, 4)) for p in (1, 2, 5)),
        *(pytest.param(lambda k=k, n=n: morse_polynomial_by_cells(k, n), lambda k=k, n=n: cells_fill(k, n),
                       id=f"cells-{k}-{n}") for n in range(10) for k in range(n + 1)),
    ]

    @pytest.mark.parametrize("got,want", TABLE)
    def test_equal_to_the_hand_built_fills(self, got, want):
        assert got() == want()

    @pytest.mark.parametrize("c", WITTEN_BUILTINS)
    def test_witten_polynomials_equal_the_hand_built_fill(self, c):
        assert c.morse_polynomial() == filled({i: len(g) for i, g in c.generators.items()})
        for mode in ("integers", "mod2"):
            h = homology(c, mode)
            assert h.poincare_polynomial() == filled({i: r for i, r in h.ranks.items() if r})


class TestProductPrice:
    def test_priced_in_tens_of_updates(self, monkeypatch):
        monkeypatch.setattr(symbols_module, "MAX_SYMBOLS", 100)
        a, b = poly(*[1] * 40), poly(*[1] * 25)
        assert (a * b).degree == 63  # 40 x 25 updates, 100 tens
        with pytest.raises(CapacityError, match="^tens of coefficient updates to multiply polynomials of degrees 39 "
                                                "and 25: 104 exceeds"):
            a * poly(*[1] * 26)

    def test_zero_coefficients_of_the_left_factor_are_free(self, monkeypatch):
        # the loop skips them: t^1000 times b runs 25 updates, while b times t^39 runs 25 x 40
        monkeypatch.setattr(symbols_module, "MAX_SYMBOLS", 100)
        b = poly(*[1] * 25)
        assert (IntPolynomial.monomial(1000) * b).degree == 1024
        assert (b * IntPolynomial.monomial(39)).degree == 63
        with pytest.raises(CapacityError, match="^tens of coefficient updates to multiply polynomials of degrees 24 "
                                                "and 40: 102 exceeds"):
            b * IntPolynomial.monomial(40)

    def test_morse_bott_products_priced(self, monkeypatch):
        # t^58 P(Gr_1(C^30)), 30 nonzero terms, times P(Gr_1(C^30)), 59 terms: with blocks (2000, 2000) this
        # took 0.58 s unpriced
        monkeypatch.setattr(symbols_module, "MAX_SYMBOLS", 100)
        with pytest.raises(CapacityError, match="^tens of coefficient updates to multiply polynomials of degrees 116 "
                                                "and 58: 177 exceeds"):
            mb_polynomial([GeneralizedSchubertSymbol((1, 1), (30, 30))])

    def test_morse_bott_shift_costs_one_row(self):
        # t^1200 times P(Gr_1(C^600)) runs 1199 updates, where a price on the monomial's length, 1201 x 1199 in
        # tens, is past the budget
        got = mb_polynomial([GeneralizedSchubertSymbol((0, 1), (600, 600))])
        assert got == IntPolynomial.from_terms({d: 1 for d in range(1200, 2399, 2)})

    @pytest.mark.parametrize("verb,build", [
        ("multiply", lambda: poly(*[1] * 4000) * poly(*[1] * 2000)),  # took 0.62 s
    ])
    def test_refused_before_the_loop(self, verb, build):
        start = time.perf_counter()
        with pytest.raises(CapacityError, match=f"^tens of coefficient updates to {verb} polynomials"):
            build()
        assert time.perf_counter() - start < 0.1


class TestPoincareRoutes:
    def test_gr24_paper_value(self):
        want = poly(1, 0, 1, 0, 2, 0, 1, 0, 1)
        assert morse_polynomial_by_cells(2, 4) == want
        assert poincare_recurrence(2, 4) == want
        assert poincare_closed(2, 4) == want

    def test_projective_space(self):
        assert morse_polynomial_by_cells(1, 5) == poly(1, 0, 1, 0, 1, 0, 1, 0, 1)

    def test_trivial_cases(self):
        assert morse_polynomial_by_cells(0, 5) == poly(1)
        assert poincare_recurrence(3, 3) == poly(1)
        assert poincare_recurrence(2, 3) == poly(1, 0, 1, 0, 1)

    def test_three_way_agreement_up_to_nine(self):
        for n in range(10):
            for k in range(n + 1):
                cells = morse_polynomial_by_cells(k, n)
                assert cells == poincare_recurrence(k, n)
                assert cells == poincare_closed(k, n)

    def test_recurrence_against_closed_form(self):
        for n in range(10, 15):
            for k in range(n + 1):
                assert poincare_recurrence(k, n) == poincare_closed(k, n)
        # deeper than the default recursion limit
        assert poincare_recurrence(1, 1500) == poincare_closed(1, 1500)
        assert poincare_recurrence(1499, 1500) == poincare_recurrence(1, 1500)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            poincare_closed(4, 2)

    def test_cells_fill_one_list(self):
        # C(447, 2) = 99 681 cells, just within the budget: the route must stay
        # linear in the cells, not in cells times degree
        start = time.perf_counter()
        assert morse_polynomial_by_cells(2, 447) == poincare_closed(2, 447)
        assert time.perf_counter() - start < 2.0


class TestGaussianGenerating:
    def test_gr24(self):
        assert gaussian_generating(2, 4) == poly(1, 1, 2, 1, 1)

    def test_single_row(self):
        assert gaussian_generating(1, 5) == poly(1, 1, 1, 1, 1)

    def test_symmetry(self):
        for n in range(8):
            for k in range(n + 1):
                assert gaussian_generating(k, n) == gaussian_generating(n - k, n)

    def test_passes_match_products_and_long_division(self):
        for n in range(15):
            for k in range(n + 1):
                assert gaussian_generating(k, n) == gaussian_by_products(k, n), (k, n)

    def test_large_cases_match_the_recurrence(self):
        assert gaussian_generating(50, 100).substitute_power(2) == poincare_recurrence(50, 100)
        assert poincare_closed(1499, 1500) == poincare_recurrence(1499, 1500)

    def test_substitution_matches_cells(self):
        for n in range(8):
            for k in range(n + 1):
                assert gaussian_generating(k, n).substitute_power(2) == \
                    morse_polynomial_by_cells(k, n)


class TestPartitionCount:
    # the t^d coefficient of [k + cap choose k]_t counts the partitions of d into at most k parts, each at most cap
    def test_examples(self):
        assert gaussian_generating(2, 4).coefficient(4) == 1
        assert gaussian_generating(3, 8).coefficient(0) == 1
        assert gaussian_generating(2, 5).coefficient(7) == 0

    def test_brute_force_oracle(self):
        def brute(d, k, cap):
            return sum(
                1
                for parts in itertools.product(range(cap + 1), repeat=k)
                if sum(parts) == d and all(a >= b for a, b in zip(parts, parts[1:]))
            )

        for k, cap in [(2, 2), (3, 3), (2, 4), (3, 2), (2, 3)]:
            g = gaussian_generating(k, k + cap)
            for d in range(k * cap + 2):
                assert g.coefficient(d) == brute(d, k, cap)

    def test_partition_numbers(self):
        # with k, cap >= d the count is p(d), here from the coin-change recurrence over parts 1..d
        d = 60
        ways = [1] + [0] * d
        for part in range(1, d + 1):
            for total in range(part, d + 1):
                ways[total] += ways[total - part]
        assert gaussian_generating(d, 2 * d).coefficient(d) == ways[d]


class TestMorseBott:
    def test_cp6_example(self):
        cs = enumerate_generalized_symbols((2, 3, 2), 1)
        mb = mb_polynomial(cs)
        want = poly(1, 0, 1) + IntPolynomial.monomial(4) * poly(1, 0, 1, 0, 1) \
            + IntPolynomial.monomial(10) * poly(1, 0, 1)
        assert mb == want
        assert mb == poincare_closed(1, 7)

    def test_two_block_recurrence_shape(self):
        for k, n in [(2, 5), (3, 6)]:
            cs = enumerate_generalized_symbols((1, n - 1), k)
            want = poincare_recurrence(k, n - 1) + \
                IntPolynomial.monomial(2 * (n - k)) * poincare_recurrence(k - 1, n - 1)
            assert mb_polynomial(cs) == want

    def test_single_block(self):
        cs = enumerate_generalized_symbols((5,), 2)
        assert mb_polynomial(cs) == poincare_closed(2, 5)

    def test_morse_case_equals_cell_polynomial(self):
        for k, n in [(2, 4), (2, 5), (1, 6)]:
            cs = enumerate_generalized_symbols((1,) * n, k)
            assert mb_polynomial(cs) == morse_polynomial_by_cells(k, n)

    def test_mixed_blocks_rejected(self):
        a = enumerate_generalized_symbols((2, 2), 1)
        b = enumerate_generalized_symbols((1, 3), 1)
        with pytest.raises(ValueError):
            mb_polynomial(a + b)

    def test_perfect_for_all_block_structures_gr24(self):
        p = poincare_closed(2, 4)
        for blocks in [(1, 1, 1, 1), (2, 2), (1, 3), (3, 1), (2, 1, 1), (4,)]:
            mb = mb_polynomial(enumerate_generalized_symbols(blocks, 2))
            q = morse_inequalities(mb, p)
            assert isinstance(q, IntPolynomial) and q.is_zero()


class TestMorseInequalities:
    def test_torus_perfect(self):
        q = morse_inequalities(poly(1, 2, 1), poly(1, 2, 1))
        assert isinstance(q, IntPolynomial) and q.is_zero()

    def test_sphere_four_critical_points(self):
        q = morse_inequalities(poly(1, 1, 2), poly(1, 0, 1))
        assert q == poly(0, 1)

    def test_violation(self):
        bad = morse_inequalities(poly(1, 0, 1), poly(1, 1, 1))
        assert isinstance(bad, MorseViolation)
        assert not bad

    def test_negative_quotient_is_violation(self):
        # M - P = -1 - t = (1+t)(-1): divisible but Q < 0
        bad = morse_inequalities(poly(0, 0, 1), poly(1, 1, 1))
        assert isinstance(bad, MorseViolation)

    def test_equal_to_long_division(self):
        # the four cases in turn: M = P, M - P = (1 + t) Q with Q >= 0, the same with some q_d < 0, and a random M
        def outcome(r):
            if isinstance(r, IntPolynomial):
                return "zero" if r.is_zero() else "quotient"
            return "negative" if r.reason.startswith("Q") else "remainder"

        rng = random.Random(1)
        seen = set()
        for i in range(2000):
            p = IntPolynomial([rng.randint(0, 5) for _ in range(rng.randint(0, 10))])
            q = IntPolynomial([rng.randint(-3 if i % 4 == 2 else 0, 4) for _ in range(rng.randint(1, 9))])
            m = (p, p + poly(1, 1) * q, p + poly(1, 1) * q,
                 IntPolynomial([rng.randint(-2, 6) for _ in range(rng.randint(0, 11))]))[i % 4]
            got, want = morse_inequalities(m, p), morse_by_long_division(m, p)
            assert type(got) is type(want) and got == want, (m, p)
            seen.add((i % 4, outcome(want)))
        assert {(0, "zero"), (1, "quotient"), (2, "negative"), (3, "remainder")} <= seen


class TestEulerAndLacunary:
    def test_euler(self):
        assert euler_characteristic(poly(1, 2, 1)) == 0
        assert euler_characteristic(poincare_closed(2, 4)) == 6
        assert euler_characteristic(poly(1)) == 1

    def test_euler_equals_cell_count(self):
        import math

        for n in range(8):
            for k in range(n + 1):
                assert euler_characteristic(poincare_closed(k, n)) == math.comb(n, k)

    def test_lacunary(self):
        assert is_lacunary_perfect(poincare_closed(2, 4))
        assert not is_lacunary_perfect(poly(1, 2, 1))
        assert is_lacunary_perfect(IntPolynomial())
