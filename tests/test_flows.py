import itertools
import math
import warnings

import numpy as np
import pytest

from morsegrass.flows import (
    AmbiguousCellError,
    DegenerateInputError,
    DivergenceError,
    GrassmannPoint,
    HeightSpectrum,
    flow,
    gradient,
    height_value,
    integrate_flow,
    limit_symbol,
    plucker_embed,
    plucker_weights,
    projective_distance,
    projector,
    random_point,
    span_distance,
    tolerance,
)
from morsegrass.symbols import SchubertSymbol, critical_index, enumerate_symbols

RNG = np.random.default_rng(20240824)

A4 = HeightSpectrum((3.0, 2.0, 1.0, 0.0))


def coordinate(entries, n):
    return GrassmannPoint.coordinate_plane(SchubertSymbol(tuple(entries), n))


class TestTypes:
    def test_spectrum_validation(self):
        with pytest.raises(ValueError):
            HeightSpectrum((1.0, 2.0))
        with pytest.raises(ValueError):
            HeightSpectrum((1.0, -1.0))
        assert HeightSpectrum((2.0, 1.0, 1.0)).is_strict is False
        assert A4.is_strict

    def test_rank_deficient_rejected(self):
        with pytest.raises(DegenerateInputError):
            GrassmannPoint([[1, 1], [0, 0], [1, 1]])

    def test_frame_immutable(self):
        V = random_point(2, 4, RNG)
        with pytest.raises(ValueError):
            V.matrix[0, 0] = 0

    def test_json_round_trip(self):
        V = random_point(2, 4, RNG)
        W = GrassmannPoint.from_json(V.to_json())
        assert span_distance(V, W) < 1e-12


class TestProjector:
    def test_coordinate_plane(self):
        V = coordinate((1, 3), 4)
        np.testing.assert_allclose(projector(V), np.diag([1, 0, 1, 0]), atol=1e-12)

    def test_line_in_c2(self):
        V = GrassmannPoint([[1], [1]])
        np.testing.assert_allclose(projector(V), 0.5 * np.ones((2, 2)), atol=1e-12)

    def test_column_operations_invariant(self):
        V = random_point(2, 4, RNG)
        g = RNG.standard_normal((2, 2)) + 1j * RNG.standard_normal((2, 2))
        W = GrassmannPoint(V.matrix @ g)
        assert span_distance(V, W) < 1e-9

    def test_hermitian_idempotent_trace(self):
        V = random_point(3, 6, RNG)
        p = projector(V)
        assert np.linalg.norm(p - p.conj().T) < 1e-12
        assert np.linalg.norm(p @ p - p) < 1e-12
        assert abs(np.trace(p).real - 3) < 1e-12


class TestHeightAndGradient:
    def test_height_at_critical_points(self):
        for u in enumerate_symbols(2, 4):
            V = GrassmannPoint.coordinate_plane(u)
            want = sum(A4.a[i - 1] for i in u.entries)
            assert abs(height_value(V, A4) - want) < 1e-12

    def test_height_line(self):
        V = GrassmannPoint([[1], [1]])
        a = HeightSpectrum((1.0, 0.0))
        assert abs(height_value(V, a) - 0.5) < 1e-12

    def test_gradient_vanishes_at_critical_points(self):
        for u in enumerate_symbols(2, 4):
            V = GrassmannPoint.coordinate_plane(u)
            assert gradient(V, A4).norm() < 1e-12

    def test_gradient_nonzero_generic(self):
        for _ in range(5):
            V = random_point(2, 4, RNG)
            assert gradient(V, A4).norm() > 1e-6

    def test_gradient_span_invariance(self):
        V = random_point(2, 4, RNG)
        W = GrassmannPoint(V.matrix * np.exp(0.7j))
        assert abs(gradient(V, A4).norm() - gradient(W, A4).norm()) < 1e-10

    def test_finite_difference_directional_derivative(self):
        # df(V)[xi] should equal <grad f, xi>; check via the projector curve
        # pi(s) = e^{s X} pi e^{-s X} for skew-Hermitian tangent direction X
        for n, k in [(3, 1), (4, 2), (5, 2)]:
            a = HeightSpectrum(tuple(float(x) for x in range(n, 0, -1)))
            V = random_point(k, n, RNG)
            pi = projector(V)
            perp = np.eye(n) - pi
            t = RNG.standard_normal((n, n)) + 1j * RNG.standard_normal((n, n))
            t = pi @ t @ perp
            x = t - t.conj().T  # tangent direction, skew-Hermitian
            h = 1e-5
            from scipy.linalg import expm

            def f_at(s):
                frame = expm(s * x) @ V.matrix
                return height_value(GrassmannPoint(frame), a)

            fd = (f_at(h) - f_at(-h)) / (2 * h)
            # pairing <grad f, X> in the ambient metric <A,B> = Re tr(A* B)/...
            # gradient() returns -grad f as -i(pi D perp + perp D pi); the
            # directional derivative is Re tr((i pi') D) with pi' = [X, pi]
            pi_dot = x @ pi - pi @ x
            analytic = float(np.real(np.trace(pi_dot @ np.diag(a.a))))
            assert abs(fd - analytic) < 1e-6


class TestFlow:
    def test_t_zero_identity(self):
        V = random_point(2, 4, RNG)
        assert span_distance(V, flow(V, A4, 0.0)) < 1e-12

    def test_line_closed_form(self):
        V = GrassmannPoint([[1], [1]])
        a = HeightSpectrum((1.0, 0.0))
        for t in (0.5, 1.0, 3.0):
            W = flow(V, a, t)
            want = GrassmannPoint([[np.exp(-t)], [1.0]])
            assert span_distance(W, want) < 1e-12
        assert abs(height_value(flow(V, a, 40.0), a)) < 1e-12

    def test_semigroup(self):
        V = random_point(2, 5, RNG)
        a = HeightSpectrum((4.0, 3.0, 2.0, 1.0, 0.0))
        W1 = flow(flow(V, a, 0.7), a, 1.1)
        W2 = flow(V, a, 1.8)
        assert span_distance(W1, W2) < 1e-9

    def test_monotone_decreasing(self):
        V = random_point(2, 4, RNG)
        values = [height_value(flow(V, A4, t), A4) for t in np.linspace(0, 3, 20)]
        assert all(b < a + 1e-12 for a, b in zip(values, values[1:]))

    def test_extreme_time_no_overflow(self):
        V = random_point(2, 4, RNG)
        W = flow(V, A4, 1e6)
        assert np.isfinite(W.matrix).all()


class TestIntegrateFlow:
    def test_t_zero(self):
        V = random_point(2, 4, RNG)
        assert span_distance(V, integrate_flow(V, A4, 0.0, steps=1)) < 1e-12

    def test_matches_closed_form_line(self):
        V = GrassmannPoint([[1], [1]])
        a = HeightSpectrum((1.0, 0.0))
        W = integrate_flow(V, a, 1.0, steps=1000)
        assert span_distance(W, flow(V, a, 1.0)) < 1e-8

    def test_matches_closed_form_random(self):
        for _ in range(5):
            V = random_point(2, 4, RNG)
            t = float(RNG.uniform(0.2, 3.0))
            err = span_distance(integrate_flow(V, A4, t, steps=400), flow(V, A4, t))
            assert err < 1e-6

    def test_order_four_convergence(self):
        V = random_point(2, 4, RNG)
        t = 1.0
        target = flow(V, A4, t)
        errs = [
            span_distance(integrate_flow(V, A4, t, steps=s), target)
            for s in (8, 16, 32)
        ]
        ratios = [errs[i] / errs[i + 1] for i in range(2)]
        assert all(12.0 < r < 20.0 for r in ratios)

    @pytest.mark.parametrize("k,n", [(1, 3), (2, 5), (3, 7), (4, 8), (5, 10)])
    def test_same_spans_as_per_step_qr(self, k, n):
        # the field commutes with Y -> YA, so one final QR gives the spans of a QR per step
        rng = np.random.default_rng(1000 * k + n)
        a = HeightSpectrum(tuple(float(x) for x in range(n, 0, -1)))
        for steps in (40, 400):
            V = random_point(k, n, rng)
            t = float(rng.uniform(0.0, 3.0))
            old = integrate_by_per_step_qr(V, a, t, steps)
            assert span_distance(integrate_flow(V, a, t, steps=steps), old) <= 1e-12

    @pytest.mark.parametrize("t", [np.inf, -np.inf, np.nan])
    def test_non_finite_time_refused_before_stepping(self, t):
        # used to step on NaN frames, warn, and blame the frame entries
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="flow time must be finite"):
                integrate_flow(coordinate((1, 2), 4), A4, t)


def integrate_by_per_step_qr(V, a, t, steps):
    """The former integrator, n x n projectors and a QR after every step, kept as the oracle."""
    d = a.diagonal()
    eye = np.eye(V.n, dtype=complex)

    def vel(y):
        pi = y @ np.linalg.solve(y.conj().T @ y, y.conj().T)
        return -(eye - pi) @ d @ y

    h = t / steps
    y = V.orthonormal_frame()
    for _ in range(steps):
        k1 = vel(y)
        k2 = vel(y + 0.5 * h * k1)
        k3 = vel(y + 0.5 * h * k2)
        k4 = vel(y + h * k3)
        y, _ = np.linalg.qr(y + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4))
    return GrassmannPoint(y)


class TestDivergence:
    # frames whose single RK4 step over t = 1 under A4 (h * spread = 3) moves
    # Y^H Y by 1.05 and 0.31 in Frobenius norm; two steps move it by 0.027 and 0.014
    FRAMES = ([[1], [0], [0], [2]], [[1, 0], [0, 1], [0, 1], [1, 0]])

    def test_oversized_spectrum_raises(self):
        # h * spread = 90: this used to return a plane 1.58 from the closed form
        rng = np.random.default_rng(30)
        a = HeightSpectrum((30.0, 20.0, 10.0, 0.0))
        for _ in range(5):
            with pytest.raises(DivergenceError, match="Gram matrix drifted"):
                integrate_flow(random_point(2, 4, rng), a, 3.0, steps=1)

    @pytest.mark.parametrize("frame", FRAMES)
    def test_one_step_raises_two_steps_do_not(self, frame):
        V = GrassmannPoint(frame)
        with pytest.raises(DivergenceError):
            integrate_flow(V, A4, 1.0, steps=1)
        assert span_distance(integrate_flow(V, A4, 1.0, steps=2), flow(V, A4, 1.0)) < 0.1

    def test_two_steps_never_raise(self):
        rng = np.random.default_rng(31)
        for k in (1, 2, 3):
            for _ in range(50):
                integrate_flow(random_point(k, 4, rng), A4, 1.0, steps=2)

    def test_singular_stage_gram_raises(self):
        # one stage of this step leaves a frame of rank < k: numpy's solve
        # raises LinAlgError, which must not escape
        a = HeightSpectrum((1e100, 0, 0, 0))
        with pytest.raises(DivergenceError, match="singular"):
            integrate_flow(random_point(2, 4, np.random.default_rng(3)), a, 1.0, steps=1)

    def test_non_finite_gram_raises(self):
        # overflow leaves NaN in Y^H Y, which every comparison calls false
        a = HeightSpectrum((1e200, 0.0, 0.0, 0.0))
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(DivergenceError, match="nan"):
                integrate_flow(random_point(2, 4, np.random.default_rng(32)), a, 1.0, steps=1)


class TestLimitSymbol:
    def test_critical_points_fixed(self):
        for u in enumerate_symbols(2, 4):
            V = GrassmannPoint.coordinate_plane(u)
            assert limit_symbol(V, "down") == u
            assert limit_symbol(V, "up") == u

    def test_generic_point_top_cells(self):
        for _ in range(10):
            V = random_point(2, 4, RNG)
            assert limit_symbol(V, "down").entries == (3, 4)
            assert limit_symbol(V, "up").entries == (1, 2)

    def test_echelon_cells(self):
        # reduced echelon representative of each cell of Gr_2(C^4)
        for u in enumerate_symbols(2, 4):
            m = np.zeros((4, 2), dtype=complex)
            for col, row in enumerate(u.entries):
                m[row - 1, col] = 1.0
                for r in range(row - 1):
                    if r + 1 not in u.entries[: col + 1]:
                        m[r, col] = 0.3 + 0.2j * (col + 1)
            V = GrassmannPoint(m)
            assert limit_symbol(V, "down") == u

    def test_echelon_pivot_rows_gr38(self):
        m = np.zeros((8, 3), dtype=complex)
        for col, row in enumerate((3, 4, 6)):
            m[row - 1, col] = 1.0
        m[0, 0] = 0.5
        m[1, 1] = -0.25j
        m[4, 2] = 1.5
        V = GrassmannPoint(m)
        assert limit_symbol(V, "down").entries == (3, 4, 6)

    def test_limits_match_long_time_flow(self):
        for _ in range(3):
            V = random_point(2, 4, RNG)
            u = limit_symbol(V, "down")
            W = flow(V, A4, 25.0)
            target = GrassmannPoint.coordinate_plane(u)
            assert span_distance(W, target) < 1e-6

    def test_tolerance_must_be_finite_and_positive(self):
        V = GrassmannPoint.coordinate_plane(SchubertSymbol((1, 2), 4))
        for tol in (-1.0, 0.0, float("nan"), float("inf")):
            with pytest.raises(ValueError, match="tolerance"):
                limit_symbol(V, "down", tol=tol)
        assert tolerance("1e-6") == 1e-6
        with pytest.raises(ValueError):
            tolerance("abc")

    def test_nonstrict_spectrum_rejected(self):
        V = random_point(2, 4, RNG)
        with pytest.raises(ValueError):
            limit_symbol(V, "down", a=HeightSpectrum((1.0, 1.0, 0.0, 0.0)))

    def test_boundary_point_ambiguous(self):
        m = np.array([[1.0, 0], [0, 1.0], [0, 1e-10], [0, 0]], dtype=complex)
        with pytest.raises(AmbiguousCellError):
            limit_symbol(GrassmannPoint(m), "down")


def plucker_by_minor(V):
    """The former per-minor loop, kept as the oracle for the stacked det."""
    rows = list(itertools.combinations(range(V.n), V.k))
    out = np.empty(len(rows), dtype=complex)
    for idx, r in enumerate(rows):
        out[idx] = np.linalg.det(V.matrix[list(r), :]) if V.k else 1.0
    return out


class TestPlucker:
    def test_stacked_det_matches_minor_loop(self):
        for n in range(8):
            for k in range(n + 1):
                V = random_point(k, n, RNG) if k else GrassmannPoint(np.zeros((n, 0)))
                p = plucker_embed(V)
                assert p.shape == (math.comb(n, k),) and p.dtype == complex
                np.testing.assert_allclose(p, plucker_by_minor(V), rtol=1e-12, atol=1e-12)

    def test_coordinate_plane_embeds_to_basis_vector(self):
        syms = enumerate_symbols(2, 4)
        for idx, u in enumerate(syms):
            p = plucker_embed(GrassmannPoint.coordinate_plane(u))
            assert abs(abs(p[idx]) - 1) < 1e-12
            assert np.linalg.norm(np.delete(p, idx)) < 1e-12

    def test_plucker_relation(self):
        for _ in range(5):
            V = random_point(2, 4, RNG)
            p = plucker_embed(V)
            rel = p[0] * p[5] - p[1] * p[4] + p[2] * p[3]
            assert abs(rel) < 1e-10 * np.linalg.norm(p) ** 2

    def test_column_scaling(self):
        V = random_point(2, 4, RNG)
        m = V.matrix.copy()
        m[:, 0] *= 2.5
        W = GrassmannPoint(m)
        np.testing.assert_allclose(plucker_embed(W), 2.5 * plucker_embed(V), atol=1e-10)

    def test_weights(self):
        assert plucker_weights(A4, 2) == [5.0, 4.0, 3.0, 3.0, 2.0, 1.0]
        assert plucker_weights(A4, 1) == list(A4.a)

    def test_generic_weights_distinct(self):
        a = HeightSpectrum((11.0, 6.5, 3.0, 1.0, 0.0))
        w = plucker_weights(a, 2)
        assert len(set(w)) == len(w)

    def test_equivariance(self):
        for n, k in [(4, 2), (5, 2), (5, 3)]:
            a = HeightSpectrum(tuple(float(x) ** 1.5 for x in range(n, 0, -1)))
            w = np.array(plucker_weights(a, k))
            for _ in range(5):
                V = random_point(k, n, RNG)
                t = float(RNG.uniform(0.0, 3.0))
                lhs = plucker_embed(flow(V, a, t))
                rhs = np.exp(-t * (w - w.min())) * plucker_embed(V)
                assert projective_distance(lhs, rhs) < 1e-9


class TestIndexConsistency:
    def test_hessian_signature_matches_index(self):
        # quadratic model of f at V_u on the chart V_u + sum x_{ij} E_{ij}:
        # second-order change in f for perturbing row r into column of u_i is
        # proportional to a_r - a_{u_i}; count of negative directions (real
        # dimensions) must equal critical_index(u, for_f)
        for n, k in [(3, 1), (4, 2)]:
            a = HeightSpectrum(tuple(float(x) for x in range(n, 0, -1)))
            for u in enumerate_symbols(k, n):
                V0 = GrassmannPoint.coordinate_plane(u)
                f0 = height_value(V0, a)
                neg = 0
                h = 1e-4
                for col, row in enumerate(u.entries):
                    for r in range(1, n + 1):
                        if r in u.entries:
                            continue
                        m = V0.matrix.copy()
                        m[r - 1, col] = h
                        d2 = height_value(GrassmannPoint(m), a) - f0
                        if d2 < 0:
                            neg += 2  # complex direction: two real dimensions
                assert neg == critical_index(u, "for_f")


class TestNonFiniteInput:
    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    def test_spectrum_refuses(self, bad):
        # NaN used to pass, because the ordering checks compare false
        with pytest.raises(ValueError, match="finite"):
            HeightSpectrum((bad, 1.0, 0.5))
        with pytest.raises(ValueError, match="finite"):
            HeightSpectrum((3.0, 1.0, bad))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0, np.nan)])
    def test_frame_refuses(self, bad):
        m = np.array([[1, 0], [0, 1], [0, 0]], dtype=complex)
        m[2, 0] = bad
        with pytest.raises(ValueError, match="finite") as err:
            GrassmannPoint(m)
        assert "SVD" not in str(err.value)

    @pytest.mark.parametrize("t", [np.inf, -np.inf, np.nan])
    def test_flow_time_refuses(self, t):
        V = coordinate((1, 2), 3)
        with pytest.raises(ValueError, match="flow time must be finite"):
            flow(V, HeightSpectrum((2.0, 1.0, 0.0)), t)

    def test_extreme_finite_time_still_flows(self):
        V = GrassmannPoint(np.array([[1, 1], [1, -1], [1, 0], [0, 1]], dtype=complex))
        W = flow(V, A4, 1e300)
        assert np.isfinite(W.matrix).all()


class TestFrameJson:
    @pytest.mark.parametrize("data", [
        [1, 2], [[1]], [[[1, 2, 3]]], [[["a", 0]]], "ab", None, 5, {"rows": []},
        [[[1, 0]], [[0, 1], [1, 1]]], [[[10 ** 400, 0]]],
    ])
    def test_wrong_shape_is_value_error(self, data):
        with pytest.raises(ValueError):
            GrassmannPoint.from_json(data)

    def test_k_zero_round_trip(self):
        V = GrassmannPoint(np.zeros((3, 0), dtype=complex))
        assert GrassmannPoint.from_json(V.to_json()).matrix.shape == (3, 0)
