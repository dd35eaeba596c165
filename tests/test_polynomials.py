import itertools
import time
from fractions import Fraction

import pytest

from morsegrass.polynomials import (
    IntPolynomial,
    MorseViolation,
    euler_characteristic,
    gaussian_generating,
    is_lacunary_perfect,
    mb_polynomial,
    morse_inequalities,
    morse_polynomial_by_cells,
    partition_count,
    poincare_closed,
    poincare_recurrence,
)
from morsegrass.symbols import CapacityError, enumerate_generalized_symbols


def poly(*coeffs):
    return IntPolynomial(coeffs)


def gaussian_by_products(k, n):
    """[n choose k]_t as the product of the 1 - t^(n-k+i) over that of the 1 - t^i,
    by general polynomial products and one long division: the oracle for the passes."""
    num = den = IntPolynomial.one
    for i in range(1, k + 1):
        num = num * (IntPolynomial.one - IntPolynomial.monomial(n - k + i))
        den = den * (IntPolynomial.one - IntPolynomial.monomial(i))
    return num.divide_exact(den)


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
        assert p.divide_exact(poly(1, 1)).coeffs == (1, 1)
        with pytest.raises(ValueError):
            poly(1, 0, 1).divide_exact(poly(1, 1))

    def test_pretty_print(self):
        assert str(poly(1, 0, 1, 0, 2)) == "1 + t^2 + 2t^4"
        assert str(poly(0, -1)) == "-t"
        assert str(IntPolynomial()) == "0"

    def test_degree_and_power_ranges(self):
        # monomial(-2) was 1 and substitute_power(0) turned 1 + 2t into 2; substitute_power(-1) raised IndexError
        assert IntPolynomial.monomial(0, 3) == 3 and IntPolynomial([1, 2]).substitute_power(1) == IntPolynomial([1, 2])
        with pytest.raises(ValueError, match="a monomial needs degree >= 0, got -2"):
            IntPolynomial.monomial(-2)
        for p in (0, -1):
            with pytest.raises(ValueError, match=f"substitute_power needs p >= 1, got {p}"):
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
    def test_examples(self):
        assert partition_count(4, 2, 2) == 1
        assert partition_count(0, 3, 5) == 1
        assert partition_count(7, 2, 3) == 0

    def test_brute_force_oracle(self):
        def brute(d, k, cap):
            return sum(
                1
                for parts in itertools.product(range(cap + 1), repeat=k)
                if sum(parts) == d and all(a >= b for a, b in zip(parts, parts[1:]))
            )

        for k, cap in [(2, 2), (3, 3), (2, 4)]:
            for d in range(k * cap + 2):
                assert partition_count(d, k, cap) == brute(d, k, cap)

    def test_no_recursion_limit(self):
        # the former recursion raised RecursionError at d = 350; with k, cap >= d
        # the count is p(d), here from the coin-change recurrence over parts 1..d
        d = 350
        ways = [1] + [0] * d
        for part in range(1, d + 1):
            for total in range(part, d + 1):
                ways[total] += ways[total - part]
        assert partition_count(d, d, d) == ways[d] == partition_count(d, 10**9, 10**9)
        assert partition_count(10**8, 1, 1) == 0  # more than k * cap boxes, nothing to compute

    def test_priced_by_the_budget(self):
        with pytest.raises(CapacityError, match="word updates for the partitions of 1000000"):
            partition_count(10**6, 10**6, 10**6)

    def test_matches_gaussian_coefficients(self):
        for k, cap in [(2, 2), (3, 2), (2, 3)]:
            g = gaussian_generating(k, k + cap)
            for d in range(g.degree + 1):
                assert partition_count(d, k, cap) == g.coefficient(d)


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
