import math

import numpy as np
import pytest

from morsegrass.polynomials import IntPolynomial, morse_inequalities
from morsegrass.witten import (
    ComplexValidationError,
    WittenComplex,
    circle_complex,
    dump_complex,
    grassmannian_complex,
    homology,
    load_complex,
    rp_complex,
    smith_normal_form,
    torus_complex,
    validate_complex,
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


class TestValidation:
    def test_builtins_valid(self):
        assert validate_complex(circle_complex(3))
        assert validate_complex(rp_complex(5))
        assert validate_complex(torus_complex())
        assert validate_complex(grassmannian_complex(2, 4))

    def test_nonzero_composition_rejected(self):
        c = WittenComplex(
            generators={0: ["a"], 1: ["b"], 2: ["c"]},
            boundaries={1: [[1]], 2: [[1]]},
        )
        assert not validate_complex(c)
        with pytest.raises(ComplexValidationError):
            homology(c)

    def test_dd_failure_names_the_degrees(self):
        c = WittenComplex(
            generators={0: ["a"], 1: ["b"], 2: ["c"], 3: ["d"]},
            boundaries={1: [[0]], 2: [[1]], 3: [[1]]},
        )
        with pytest.raises(ComplexValidationError, match="between degrees 3 and 1"):
            homology(c)
        with pytest.raises(ComplexValidationError, match="between degrees 3 and 1"):
            load_complex(dump_complex(c))

    def test_shape_mismatch(self):
        c = WittenComplex(generators={0: ["a"], 1: ["b"]}, boundaries={1: [[1, 2]]})
        with pytest.raises(ComplexValidationError):
            validate_complex(c)


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
