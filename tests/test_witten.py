import ast
import json
import math
import random
import time
from fractions import Fraction
from operator import mul
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from morsegrass import witten
from morsegrass.polynomials import IntPolynomial, morse_inequalities
from morsegrass.symbols import MAX_SYMBOLS, CapacityError
from morsegrass.witten import (
    ComplexValidationError,
    WittenComplex,
    circle_complex,
    dump_complex,
    elementary_divisors,
    grassmannian_complex,
    homology,
    load_complex,
    rp_complex,
    smith_normal_form,
    torus_complex,
)


def groups(result):
    degs = sorted(result.ranks)
    return [result.group_str(i) for i in degs]


def exact_det(m):
    from fractions import Fraction

    a = [[Fraction(x) for x in row] for row in m]
    n = len(a)
    det = Fraction(1)
    for c in range(n):
        p = next((r for r in range(c, n) if a[r][c] != 0), None)
        if p is None:
            return 0
        if p != c:
            a[c], a[p] = a[p], a[c]
            det = -det
        det *= a[c][c]
        inv = 1 / a[c][c]
        for r in range(c + 1, n):
            if a[r][c] != 0:
                f = a[r][c] * inv
                a[r] = [x - f * y for x, y in zip(a[r], a[c])]
    return det


@st.composite
def int_matrices(draw):
    """Integer matrices up to 8x8, entries in [-6, 6], some rows and columns zeroed."""
    rows, cols = draw(st.integers(0, 8)), draw(st.integers(0, 8))
    m = draw(st.lists(st.lists(st.integers(-6, 6), min_size=cols, max_size=cols),
                      min_size=rows, max_size=rows))
    zero_rows = draw(st.sets(st.integers(0, 7), max_size=3))
    zero_cols = draw(st.sets(st.integers(0, 7), max_size=3))
    return [[0 if i in zero_rows or j in zero_cols else x for j, x in enumerate(r)]
            for i, r in enumerate(m)]


class TestSmithNormalForm:
    def test_scalar(self):
        d, u, v = smith_normal_form([[2]])
        assert d == [[2]]

    def test_identity(self):
        d, u, v = smith_normal_form([[1, 0], [0, 1]])
        assert d == [[1, 0], [0, 1]]

    def test_circle_boundary(self):
        m = [[1, 0, -1], [-1, 1, 0], [0, -1, 1]]
        d, u, v = smith_normal_form(m)
        assert [d[i][i] for i in range(3)] == [1, 1, 0]

    def test_divisibility_and_factorization_random(self):
        rng = np.random.default_rng(7)
        for _ in range(25):
            rows, cols = rng.integers(1, 8, size=2)
            m = rng.integers(-10, 11, size=(rows, cols)).tolist()
            d, u, v = smith_normal_form(m)
            # U m V = D exactly
            um = [[sum(u[i][t] * m[t][j] for t in range(rows)) for j in range(cols)]
                  for i in range(rows)]
            umv = [[sum(um[i][t] * v[t][j] for t in range(cols)) for j in range(cols)]
                   for i in range(rows)]
            assert umv == d
            diag = [d[i][i] for i in range(min(rows, cols))]
            for a, b in zip(diag, diag[1:]):
                if a != 0:
                    assert b % a == 0
                else:
                    assert b == 0
            for i in range(rows):
                for j in range(cols):
                    if i != j:
                        assert d[i][j] == 0
            # unimodularity (exact: float det overflows for the larger transforms)
            assert abs(exact_det(u)) == 1
            assert abs(exact_det(v)) == 1

    @settings(max_examples=300, deadline=None)
    @given(int_matrices())
    @example([])
    @example([[], []])
    @example([[0, 0, 0], [0, 0, 0]])
    @example([[4, 6], [6, 9], [0, 0]])
    def test_certificate(self, m):
        rows, cols = len(m), len(m[0]) if m else 0
        d, u, v = smith_normal_form(m)
        assert [len(r) for r in u] == [rows] * rows and [len(r) for r in v] == [cols] * cols
        um = [[sum(u[i][s] * m[s][j] for s in range(rows)) for j in range(cols)] for i in range(rows)]
        assert [[sum(um[i][s] * v[s][j] for s in range(cols)) for j in range(cols)]
                for i in range(rows)] == d
        assert abs(exact_det(u)) == 1 and abs(exact_det(v)) == 1
        assert all(d[i][j] == 0 for i in range(rows) for j in range(cols) if i != j)
        diag = [d[t][t] for t in range(min(rows, cols))]
        assert all(x >= 0 for x in diag)
        assert all(b % a == 0 if a else b == 0 for a, b in zip(diag, diag[1:]))

    def test_independent_of_the_engine_it_checks(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("smith_normal_form called the homology engine")

        monkeypatch.setattr(witten, "elementary_divisors", refuse)
        monkeypatch.setattr(witten, "_pivot", refuse)
        d, _, _ = smith_normal_form([[4, 6], [6, 9], [2, 0]])
        assert d == [[1, 0], [0, 6], [0, 0]]


def snf_divisors(m):
    d = smith_normal_form(m)[0]
    return [abs(d[t][t]) for t in range(min(len(d), len(d[0]) if d else 0)) if d[t][t]]


class TestElementaryDivisors:
    @settings(max_examples=300, deadline=None)
    @given(int_matrices())
    @example([])
    @example([[], []])
    @example([[0, 0, 0], [0, 0, 0]])
    @example([[4, 6], [6, 9], [0, 0]])
    def test_matches_smith_normal_form(self, m):
        before = [r[:] for r in m]
        assert elementary_divisors(m) == snf_divisors(m)
        assert m == before

    def test_diagonal_is_normalised(self):
        assert elementary_divisors([[2, 0], [0, 3]]) == [1, 6]
        assert elementary_divisors([[6, 0, 0], [0, 4, 0], [0, 0, 10]]) == [2, 2, 60]

    def test_dense_30x30_against_smith_normal_form(self):
        rng = np.random.default_rng(30)
        m = rng.integers(-3, 4, size=(30, 30)).tolist()
        assert elementary_divisors(m) == snf_divisors(m)

    @pytest.mark.parametrize("size", [16, 20, 24])
    def test_dense_against_smith_normal_form(self, size):
        rng = np.random.default_rng(size)
        for _ in range(3):
            m = rng.integers(-3, 4, size=(size, size)).tolist()
            before = [r[:] for r in m]
            assert elementary_divisors(m) == snf_divisors(m)
            assert m == before

    @pytest.mark.parametrize("chains", [[(2, 4), (3, 9)], [(2, 2), ()], [(), (2, 6)], [(5,), (4,)]])
    def test_planted_complexes(self, chains):
        for seed in range(4):
            c = _planted_complex(seed, chains)
            for i, chain in enumerate(chains, start=1):
                m = c.boundaries[i]
                before = [r[:] for r in m]
                assert elementary_divisors(m) == [1] * 3 + list(chain) == snf_divisors(m)
                assert m == before
            h = homology(c)
            assert h.ranks == {i: 2 for i in range(len(chains) + 1)}
            assert h.torsion == {i: list(chains[i]) if i < len(chains) else [] for i in range(len(chains) + 1)}

    def test_large_entries_common_factors_and_dependent_rows(self):
        rng = random.Random(18)
        for t in range(60):
            rows, cols = rng.randint(1, 8), rng.randint(1, 8)
            big = (10**18, 1000, 3)[t % 3]
            factor = (1, 2, 3, 12)[t % 4]
            m = [[factor * rng.randint(-big, big) for _ in range(cols)] for _ in range(rows)]
            if rows > 1:
                a, b = rng.sample(range(rows), 2)
                m.append([x - rng.randint(-3, 3) * y for x, y in zip(m[a], m[b])])
            before = [r[:] for r in m]
            got = elementary_divisors(m)
            assert got == snf_divisors(m)
            assert all(d % factor == 0 for d in got)
            assert m == before

    def test_product_is_the_determinant_on_a_nonsingular_40x40(self):
        m = np.random.default_rng(40).integers(-3, 4, size=(40, 40)).tolist()
        det = exact_det(m)
        assert det != 0
        assert math.prod(elementary_divisors(m)) == abs(det)

    def test_one_pivot_search_per_factor(self, monkeypatch):
        calls = []
        real = witten._pivot
        monkeypatch.setattr(witten, "_pivot", lambda rows: calls.append(1) or real(rows))
        rng = np.random.default_rng(20)
        matrices = [rng.integers(-3, 4, size=(20, 20)).tolist() for _ in range(3)]
        matrices += [_planted_complex(1, [(2, 4), (3, 9)]).boundaries[i] for i in (1, 2)]
        matrices += [[[12, 18], [30, 42]], [[0, 0], [0, 0]], [[4, 6], [6, 9], [0, 0]]]
        for m in matrices:
            calls.clear()
            assert len(elementary_divisors(m)) == len(calls)

    def test_tuple_and_numpy_rows(self):
        assert elementary_divisors(((2, 4), (6, 8))) == [2, 4]
        got = elementary_divisors(np.array([[2, 4], [6, 8]]))
        assert got == [2, 4] and {type(d) for d in got} == {int}
        assert elementary_divisors([[np.int64(3), np.int64(-1)], [np.int64(1), np.int64(1)]]) == [1, 4]

    @pytest.mark.parametrize("m", [
        [[2, 2**62 + 1], [3, 5]],
        [[1, 0], [2**62, 3]],  # 2 * 2**62 wraps around in int64
        [[3, 2**62], [2, 5]],
    ])
    def test_numpy_integers_reduced_exactly(self, m):
        with np.errstate(over="ignore"):
            assert elementary_divisors([[np.int64(x) for x in r] for r in m]) == snf_divisors(m)
            assert elementary_divisors([[r[0], np.int64(r[1])] for r in m]) == snf_divisors(m)

    @pytest.mark.parametrize("m", [[[1, 2], [3]], [[1], [2, 3]], [[], [0]]])
    def test_ragged_rows_refused(self, m):
        with pytest.raises(ValueError, match="ragged rows"):
            elementary_divisors(m)

    def test_smith_normal_form_takes_the_same_rule(self):
        # it gave d_2 = 4611686018427387919, a wrapped int64, kept 1.5 and True, and raised IndexError on ragged rows
        m = np.array([[2**62, 3], [5, 7]])
        d = smith_normal_form(m)[0]
        assert [d[0][0], d[1][1]] == elementary_divisors(m) == [1, 7 * 2**62 - 15]
        for bad, kind in (([[1.5, 2], [3, 4]], "float"), ([[True, 2], [3, 4]], "bool"), ([["1"]], "str")):
            with pytest.raises(ValueError, match=f"^a matrix entry of type {kind} is not an integer$"):
                smith_normal_form(bad)
        for ragged in ([[1, 2], [3]], [[1], [2, 3]]):
            with pytest.raises(ValueError, match="ragged rows"):
                smith_normal_form(ragged)


def _unimodular_pair(rng, size):
    """A random unimodular P and its inverse, as products of 2 * size elementary row moves."""
    p = [[int(i == j) for j in range(size)] for i in range(size)]
    q = [row[:] for row in p]
    for _ in range(2 * size):
        i, j = rng.sample(range(size), 2)
        s = rng.choice((-1, 1))
        p[i] = [x + s * y for x, y in zip(p[i], p[j])]  # P <- E P, so P^-1 <- P^-1 E^-1
        for row in q:
            row[j] -= s * row[i]
    return p, q


def _planted_complex(seed, chains, ones=3, free=2):
    """Degrees 0..len(chains), with d_i = P_{i-1} D_i P_i^-1 for random unimodular P.

    In the standard basis C_i = A_i + H_i + B_i, D_i maps B_i onto A_{i-1} by
    the diagonal (1,) * ones + chains[i - 1] and is zero elsewhere, so dd = 0,
    H_i = Z^free plus the torsion of chains[i], whatever P hides it behind.
    """
    rng = random.Random(seed)
    r = [0] + [ones + len(t) for t in chains] + [0]
    dims = [r[i + 1] + free + r[i] for i in range(len(chains) + 1)]
    pairs = [_unimodular_pair(rng, d) for d in dims]
    boundaries = {}
    for i, chain in enumerate(chains, start=1):
        std = [[0] * dims[i] for _ in range(dims[i - 1])]
        for t, d in enumerate([1] * ones + list(chain)):
            std[t][dims[i] - r[i] + t] = d
        boundaries[i] = _matmul(_matmul(pairs[i - 1][0], std), pairs[i][1])
    gens = {i: [f"g{i}_{j}" for j in range(d)] for i, d in enumerate(dims)}
    return WittenComplex(generators=gens, boundaries=boundaries)


def _matmul(a, b):
    return [[sum(map(mul, row, col)) for col in zip(*b)] for row in a]


def rank_mod2_by_elimination(m):
    """GF(2) rank by column-by-column Gauss-Jordan elimination on rows packed as ints."""
    rows = [sum((x & 1) << j for j, x in enumerate(row)) for row in m]
    rank = 0
    for col in range(len(m[0]) if m else 0):
        bit = 1 << col
        pivot = next((i for i in range(rank, len(rows)) if rows[i] & bit), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        for i in range(len(rows)):
            if i != rank and rows[i] & bit:
                rows[i] ^= rows[rank]
        rank += 1
    return rank


class TestRankMod2:
    @settings(max_examples=300, deadline=None)
    @given(int_matrices())
    @example([])
    @example([[], []])
    @example([[0, 0, 0], [0, 0, 0]])
    @example([[-1, 2, -3], [3, -4, 1], [2, 2, 2]])
    @example([[1] * 12, [1] * 11 + [0], [0] * 11 + [-1]])  # rows wider than 8 bytes
    @example([[np.int64(3), np.int64(-1)], [np.int64(1), np.int64(1)]])  # numpy integer entries
    def test_matches_elimination(self, m):
        before = [r[:] for r in m]
        assert witten._rank_mod2(m) == rank_mod2_by_elimination(m)
        assert m == before


def _homology_inputs():
    dense = WittenComplex(
        generators={0: [f"a{j}" for j in range(6)], 1: [f"b{j}" for j in range(6)]},
        boundaries={1: np.random.default_rng(6).integers(-3, 4, size=(6, 6)).tolist()},
    )
    return [circle_complex(4), rp_complex(6), torus_complex(), grassmannian_complex(2, 4), dense]


class TestHomologyReductions:
    @pytest.mark.parametrize("mode", ["integers", "mod2"])
    def test_each_boundary_reduced_once(self, monkeypatch, mode):
        seen = []
        for name in ("elementary_divisors", "_rank_mod2"):
            real = getattr(witten, name)
            monkeypatch.setattr(witten, name, lambda m, real=real: seen.append(id(m)) or real(m))
        for c in _homology_inputs():
            seen.clear()
            homology(c, mode)
            stored = [id(m) for m in c.boundaries.values() if m and m[0]]
            assert sorted(seen) == sorted(stored)

    def test_smith_normal_form_not_called(self, monkeypatch):
        def refuse(m):
            raise AssertionError("homology called smith_normal_form")

        monkeypatch.setattr(witten, "smith_normal_form", refuse)
        for c in _homology_inputs():
            homology(c, "integers")
            homology(c, "mod2")

    def test_torsion_matches_smith_normal_form(self):
        for c in _homology_inputs():
            h = homology(c)
            for i in h.ranks:
                high = snf_divisors(c.boundary(i + 1)) if c.rank(i) and c.rank(i + 1) else []
                assert h.torsion[i] == [t for t in high if t > 1]


class TestCapacity:
    def test_degree_gap_refused(self):
        c = WittenComplex(generators={0: ["a"], 3_000_000: ["b"]})
        start = time.perf_counter()
        with pytest.raises(CapacityError, match="MAX_SYMBOLS"):
            homology(c)
        assert time.perf_counter() - start < 1.0

    def test_widest_span_allowed(self):
        h = homology(WittenComplex(generators={0: ["a"], MAX_SYMBOLS - 1: ["b"]}))
        assert len(h.ranks) == MAX_SYMBOLS

    @pytest.mark.parametrize("build", [lambda: circle_complex(10**6), lambda: rp_complex(10**6)])
    def test_builtins_refused_before_building(self, build):
        start = time.perf_counter()
        with pytest.raises(CapacityError, match="MAX_SYMBOLS"):
            build()
        assert time.perf_counter() - start < 1.0

    def test_morse_polynomial_of_the_largest_rp(self):
        # linear in the degrees, not quadratic
        c = rp_complex(MAX_SYMBOLS - 1)
        start = time.perf_counter()
        m = c.morse_polynomial()
        assert time.perf_counter() - start < 1.0
        assert m.coeffs == (1,) * MAX_SYMBOLS

    def test_largest_builtins_allowed(self):
        assert circle_complex(316).rank(1) == 316
        with pytest.raises(CapacityError):
            circle_complex(317)
        assert rp_complex(MAX_SYMBOLS - 1).rank(0) == 1
        with pytest.raises(CapacityError):
            rp_complex(MAX_SYMBOLS)


class TestValidation:
    def test_builtins_valid(self):
        for c in (circle_complex(3), rp_complex(5), torus_complex(), grassmannian_complex(2, 4)):
            assert WittenComplex(c.generators, c.boundaries) == c

    def test_nonzero_composition_rejected(self):
        with pytest.raises(ComplexValidationError, match="between degrees 2 and 0"):
            WittenComplex(
                generators={0: ["a"], 1: ["b"], 2: ["c"]},
                boundaries={1: [[1]], 2: [[1]]},
            )

    def test_dd_failure_names_the_degrees(self):
        with pytest.raises(ComplexValidationError, match="between degrees 3 and 1"):
            WittenComplex(
                generators={0: ["a"], 1: ["b"], 2: ["c"], 3: ["d"]},
                boundaries={1: [[0]], 2: [[1]], 3: [[1]]},
            )
        text = "degrees: 0 3\ngens 0: a\ngens 1: b\ngens 2: c\ngens 3: d\nd 1:\n0\nd 2:\n1\nd 3:\n1\n"
        with pytest.raises(ComplexValidationError, match="between degrees 3 and 1"):
            load_complex(text)

    def test_shape_mismatch(self):
        with pytest.raises(ComplexValidationError, match="d_1 has shape 1x2, expected 1x1"):
            WittenComplex(generators={0: ["a"], 1: ["b"]}, boundaries={1: [[1, 2]]})
        with pytest.raises(ComplexValidationError, match="ragged rows"):
            WittenComplex(generators={0: ["a", "b"], 1: ["c", "d"]}, boundaries={1: [[1, 0], [0]]})

    @pytest.mark.parametrize("gens", [{0: ["a", "b", "a"], 1: ["x"]}, {0: ["a"], 1: ["x", "a"]}])
    def test_repeated_generator_name_refused(self, gens):
        # within one degree or across two, a name would no longer pick out one generator
        with pytest.raises(ComplexValidationError, match="generator name 'a' is used more than once"):
            WittenComplex(generators=gens)

    @pytest.mark.parametrize("gens,bad", [
        ({0: ["a b"], 1: ["x"]}, "'a b'"),  # the text format would read two names
        ({0: [""], 1: ["x"]}, "''"),  # the text format would read no name
        ({0: [1], 1: [2]}, "1"),  # dump_complex joins strings only
    ])
    def test_names_the_text_format_cannot_hold_refused(self, gens, bad):
        with pytest.raises(ComplexValidationError, match=f"generator name {bad} is not a nonempty string"):
            WittenComplex(generators=gens, boundaries={1: [[1]]})

    @pytest.mark.parametrize("gens,bnds,bad", [
        ({0: ["a"], 1: ["b"]}, {1: [[2.5]]}, "a boundary entry of type float"),  # homology read it as Z/2.5
        ({0: ["a"], 1: ["b"]}, {1: [[2.0]]}, "a boundary entry of type float"),
        ({0: ["a"], 1: ["b"]}, {1: [[True]]}, "a boundary entry of type bool"),
        ({0: ["a"], 1: ["b"]}, {1: [[Fraction(2)]]}, "a boundary entry of type Fraction"),
        ({0.5: ["a"], 1: ["b"]}, {}, "a degree of type float"),
        ({0: ["a"], 1: ["b"]}, {1.0: [[1]]}, "a degree of type float"),
        ({True: ["a"], 2: ["b"]}, {}, "a degree of type bool"),
    ])
    def test_non_integer_degrees_and_entries_refused(self, gens, bnds, bad):
        with pytest.raises(ComplexValidationError, match=f"{bad} is not an integer"):
            WittenComplex(generators=gens, boundaries=bnds)

    def test_numpy_integers_and_tuple_rows_accepted(self):
        two = np.int64(2)
        for c in (WittenComplex(generators={np.int64(0): ["a"], 1: ["b"]}, boundaries={1: [[two]]}),
                  WittenComplex(generators={0: ["a"], 1: ["b"]}, boundaries={1: ((2,),)})):
            h = homology(c)
            assert h.torsion == {0: [2], 1: []} and h.ranks == {0: 0, 1: 0}
            assert json.dumps(h.to_json()) == '{"mode": "integers", "ranks": {"0": 0, "1": 0}, "torsion": {"0": [2], "1": []}}'

    def test_fields_are_frozen(self):
        c = WittenComplex(generators={0: ["a"], 1: ["b"], 2: ["c"]}, boundaries={1: [[0]], 2: [[1]]})
        with pytest.raises(AttributeError, match="cannot assign to or delete field 'boundaries' of a frozen WittenComplex"):
            c.boundaries = {}


def _mat_mul_sites(node, where):
    """The enclosing function of each call to _mat_mul below node."""
    for child in ast.iter_child_nodes(node):
        inner = child.name if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)) else where
        if isinstance(child, ast.Call) and getattr(child.func, "id", getattr(child.func, "attr", None)) == "_mat_mul":
            yield where
        yield from _mat_mul_sites(child, inner)


class TestCheckedOnce:
    @pytest.fixture
    def checks(self, monkeypatch):
        calls = []
        real = witten._dd_failure
        monkeypatch.setattr(witten, "_dd_failure", lambda c: calls.append(c) or real(c))
        return calls

    @pytest.mark.parametrize("mode", ["integers", "mod2"])
    def test_homology_checks_nothing(self, checks, mode):
        for c in _homology_inputs():
            checks.clear()
            homology(c, mode)
            assert checks == []

    def test_load_complex_checks_once(self, checks):
        text = dump_complex(rp_complex(4))
        checks.clear()
        c = load_complex(text)
        assert checks == [c]

    def test_composite_formed_in_one_function(self):
        # d_i d_{i+1} is multiplied out only where a complex is checked
        package = Path(witten.__file__).parent
        sites = [
            (path.name, where)
            for path in sorted(package.glob("*.py"))
            for where in _mat_mul_sites(ast.parse(path.read_text()), None)
        ]
        assert sites == [("witten.py", "_dd_failure")]


class TestCircle:
    def test_boundary_equations_m3(self):
        d1 = circle_complex(3).boundaries[1]
        # columns D, E, F against minima A, B, C
        assert [row[0] for row in d1] == [1, -1, 0]
        assert [row[1] for row in d1] == [0, 1, -1]
        assert [row[2] for row in d1] == [-1, 0, 1]

    def test_m1_zero_boundary(self):
        assert circle_complex(1).boundaries[1] == [[0]]

    def test_homology_independent_of_m(self):
        for m in range(1, 7):
            h = homology(circle_complex(m))
            assert (h.ranks[0], h.ranks[1]) == (1, 1)
            assert not h.torsion[0] and not h.torsion[1]

    def test_bad_m(self):
        with pytest.raises(ValueError):
            circle_complex(0)


class TestProjectiveSpaces:
    def test_rp2(self):
        assert groups(homology(rp_complex(2))) == ["Z", "Z/2", "0"]

    def test_rp3(self):
        assert groups(homology(rp_complex(3))) == ["Z", "Z/2", "0", "Z"]

    def test_rp_pattern_through_8(self):
        for n in range(1, 9):
            h = homology(rp_complex(n))
            assert h.ranks[0] == 1 and not h.torsion[0]
            for i in range(1, n):
                if i % 2 == 1:
                    assert h.ranks[i] == 0 and h.torsion[i] == [2]
                else:
                    assert h.ranks[i] == 0 and not h.torsion[i]
            assert h.ranks[n] == (1 if n % 2 == 1 else 0)
            assert not h.torsion[n]

    def test_mod2_perfect(self):
        for n in range(1, 9):
            h = homology(rp_complex(n), "mod2")
            assert all(h.ranks[i] == 1 for i in range(n + 1))


class TestGrassmannianAndTorus:
    def test_gr24_poincare(self):
        h = homology(grassmannian_complex(2, 4))
        assert h.poincare_polynomial() == IntPolynomial([1, 0, 1, 0, 2, 0, 1, 0, 1])

    def test_sphere(self):
        h = homology(grassmannian_complex(1, 2))
        assert groups(h) == ["Z", "0", "Z"]

    def test_euler_characteristic(self):
        for n in range(7):
            for k in range(n + 1):
                c = grassmannian_complex(k, n)
                chi_cells = sum((-1) ** i * c.rank(i) for i in c.degrees)
                h = homology(c)
                chi_h = sum((-1) ** i * h.ranks[i] for i in h.ranks)
                assert chi_cells == chi_h == math.comb(n, k)

    def test_torus(self):
        h = homology(torus_complex())
        assert [h.ranks[i] for i in (0, 1, 2)] == [1, 2, 1]
        assert torus_complex().morse_polynomial() == IntPolynomial([1, 2, 1])
        assert h.poincare_polynomial() == IntPolynomial([1, 2, 1])

    def test_negative_degrees_have_no_polynomial(self):
        # a polynomial in t has nowhere to put them
        c = WittenComplex(generators={-1: ["a"], 0: ["b"]})
        with pytest.raises(ValueError, match="negative degrees"):
            c.morse_polynomial()
        with pytest.raises(ValueError, match="negative degrees"):
            homology(c).poincare_polynomial()


class TestUniversalCoefficients:
    def test_mod2_rank_formula_on_builtins(self):
        builtins = [circle_complex(3), rp_complex(4), rp_complex(5),
                    torus_complex(), grassmannian_complex(2, 4)]
        for c in builtins:
            hz = homology(c, "integers")
            h2 = homology(c, "mod2")
            for i in h2.ranks:
                t_i = sum(1 for t in hz.torsion.get(i, []) if t % 2 == 0)
                t_prev = sum(1 for t in hz.torsion.get(i - 1, []) if t % 2 == 0)
                assert h2.ranks[i] == hz.ranks.get(i, 0) + t_i + t_prev


class TestMorseInequalitiesOnBuiltins:
    def test_q_nonnegative(self):
        builtins = [circle_complex(m) for m in range(1, 6)]
        builtins += [rp_complex(n) for n in range(1, 7)]
        builtins += [torus_complex(), grassmannian_complex(2, 4)]
        for c in builtins:
            q = morse_inequalities(c.morse_polynomial(),
                                   homology(c).poincare_polynomial())
            assert isinstance(q, IntPolynomial)
            assert all(x >= 0 for x in q.coeffs)


BUILTIN_COMPLEXES = {
    **{f"circle{m}": circle_complex(m) for m in range(1, 7)},
    **{f"rp{n}": rp_complex(n) for n in range(1, 9)},
    "torus": torus_complex(),
    **{f"gr{k}_{n}": grassmannian_complex(k, n) for n in range(5) for k in range(n + 1)},
}


class TestFileFormat:
    def test_round_trip(self):
        c = circle_complex(3)
        c2 = load_complex(dump_complex(c))
        assert c2.generators == c.generators
        assert c2.boundaries[1] == c.boundaries[1]

    def test_rp4_from_text(self):
        text = dump_complex(rp_complex(4))
        h = homology(load_complex(text))
        assert groups(h) == ["Z", "Z/2", "0", "Z/2", "0"]

    def test_parse_error_reports_line(self):
        text = "degrees: 0 1\ngens 0: a b\ngens 1: c\nd 1:\n1 2\n3\n"
        with pytest.raises(ComplexValidationError) as err:
            load_complex(text)
        assert "line" in str(err.value)

    def test_dd_nonzero_rejected(self):
        text = (
            "degrees: 0 2\n"
            "gens 0: a\ngens 1: b\ngens 2: c\n"
            "d 1:\n1\n"
            "d 2:\n1\n"
        )
        with pytest.raises(ComplexValidationError):
            load_complex(text)

    def test_missing_header(self):
        with pytest.raises(ComplexValidationError):
            load_complex("gens 0: a\n")

    @pytest.mark.parametrize("text,where", [
        ("degrees: 0 0\ngens 0: a\ngens 7: b\n", "line 3: degree 7 outside the header's degrees 0..0"),
        ("degrees: 1 2\ngens 0: a\n", "line 2: degree 0 outside"),
        ("degrees: 0 1\ngens 0: a\ngens 1: b\nd 2:\n", "line 4: degree 2 outside"),
        ("degrees: 2 0\ngens 0: a\n", "line 1: degrees: lo = 2 exceeds hi = 0"),
        ("degrees: 0 1\ndegrees: 0 5\n", "line 2: unrecognized line"),
        ("degrees: 0 1\ngens 0: a\ngens 1: b\ndd 1:\n1\n", "line 4: unrecognized line"),
        ("degrees: 0 1\ngensXYZ 0: a\n", "line 2: unrecognized line"),
        ("degrees: 0 1\ngens 0 1: a\n", "line 2: expected 'gens <degree>: names'"),
        ("degrees: 0 1 2\n", "line 1: expected 'degrees: lo hi'"),
        # a row written on the "d <i>:" line would be dropped or shift the rows below it
        ("degrees: 0 1\ngens 0: a\ngens 1: b\nd 1: 7\n1\n", "line 4: unexpected text '7' after 'd 1:'"),
    ])
    def test_header_and_keywords_are_exact(self, text, where):
        with pytest.raises(ComplexValidationError, match=where):
            load_complex(text)

    @pytest.mark.parametrize("text,where", [
        ("degrees: 0 1\ngens 0: a\ngens 0: b c\ngens 1: x\n", "line 3: repeated 'gens 0:' line"),
        # the second block would replace d_1 = [1], leaving H_1 = Z
        ("degrees: 0 1\ngens 0: a\ngens 1: x\nd 1:\n1\nd 1:\n0\n", "line 6: repeated 'd 1:' line"),
    ])
    def test_repeated_lines_refused(self, text, where):
        with pytest.raises(ComplexValidationError, match=where):
            load_complex(text)

    @pytest.mark.parametrize("name", BUILTIN_COMPLEXES)
    def test_every_builtin_round_trips(self, name):
        c = BUILTIN_COMPLEXES[name]
        assert load_complex(dump_complex(c)) == c

    def test_only_degrees_with_generators_are_written(self):
        # a gens line for every degree in lo..hi took 0.94 s and 44 MB with 3 000 000 in place of 10**5
        c = WittenComplex({0: ["a"], 10**5: ["b"]})
        text = dump_complex(c)
        assert text == "degrees: 0 100000\ngens 0: a\ngens 100000: b\n"
        assert load_complex(text) == c

    @pytest.mark.parametrize("name", [*BUILTIN_COMPLEXES, "empty"])
    def test_text_is_the_full_writer_less_its_empty_gens_lines(self, name):
        # byte-identical wherever no degree between the least and the greatest is empty
        c = BUILTIN_COMPLEXES.get(name, WittenComplex())
        lo, hi = min(c.generators, default=0), max(c.generators, default=0)
        full = [f"degrees: {lo} {hi}", *(f"gens {i}: " + " ".join(c.generators.get(i, [])) for i in range(lo, hi + 1))]
        for i, mat in sorted(c.boundaries.items()):
            full += [f"d {i}:", *(" ".join(map(str, row)) for row in mat)]
        kept = [line for line in full if not (line.startswith("gens ") and line.endswith(": "))]
        assert dump_complex(c) == "\n".join(kept) + "\n"
        assert (kept == full) == (len(c.generators) == hi - lo + 1)

    @pytest.mark.parametrize("c", _homology_inputs(), ids=["circle", "rp", "torus", "gr24", "dense"])
    def test_dump_round_trips(self, c):
        c2 = load_complex(dump_complex(c))
        assert c2.generators == c.generators
        assert {i: m for i, m in c2.boundaries.items() if m and m[0]} == \
            {i: m for i, m in c.boundaries.items() if m and m[0]}


@st.composite
def complexes_with_empty_parts(draw):
    """Complexes on a few adjacent degrees, some with no generators, each boundary absent or given, empty ones too.

    Only even degrees get nonzero boundaries, so dd = 0.
    """
    lo = draw(st.integers(-2, 2))
    ranks = draw(st.lists(st.integers(0, 3), max_size=5))
    gens = {lo + j: [f"g{lo + j}_{t}" for t in range(r)] for j, r in enumerate(ranks)}
    bnds = {}
    for i in range(lo - 1, lo + len(ranks) + 1):
        rows, cols = len(gens.get(i - 1, [])), len(gens.get(i, []))
        if draw(st.booleans()):
            entries = st.integers(-3, 3) if i % 2 == 0 else st.just(0)
            bnds[i] = draw(st.lists(st.lists(entries, min_size=cols, max_size=cols), min_size=rows, max_size=rows))
    return WittenComplex(generators=gens, boundaries=bnds)


class TestStoredForm:
    @settings(max_examples=200, deadline=None)
    @given(complexes_with_empty_parts())
    @example(WittenComplex({0: ["a"], 1: []}))
    @example(WittenComplex({0: [], 1: ["b"]}, {1: []}))
    def test_text_round_trip_keeps_the_complex(self, c):
        c2 = load_complex(dump_complex(c))
        assert c2 == c
        for mode in ("integers", "mod2"):
            assert homology(c2, mode) == homology(c, mode)

    def test_empty_degrees_and_maps_are_not_stored(self):
        g = {0: [], 1: ["b"], 2: []}
        c = WittenComplex(g, {1: [], 2: [[]], 5: []})
        assert c == WittenComplex(g) == WittenComplex({1: ["b"]})
        assert c.generators == {1: ["b"]} and c.boundaries == {} and c.degrees == [1]
        assert homology(c).ranks == {1: 1}

    @pytest.mark.parametrize("gens,bnds,shape", [
        ({0: ["a", "b"], 1: []}, {1: []}, "0x0, expected 2x0"),  # a 2x0 map has two empty rows
        ({0: ["a"], 1: []}, {1: [[], []]}, "2x0, expected 1x0"),
        ({0: [], 1: ["b"]}, {1: [[]]}, "1x0, expected 0x1"),
        ({0: ["a"], 1: ["b"]}, {1: []}, "0x0, expected 1x1"),
        ({0: ["a"], 1: ["b"]}, {1: [[]]}, "1x0, expected 1x1"),
    ])
    def test_wrongly_shaped_empty_maps_refused(self, gens, bnds, shape):
        with pytest.raises(ComplexValidationError, match=f"^boundary d_1 has shape {shape}$"):
            WittenComplex(generators=gens, boundaries=bnds)
