import copy
import itertools
import math
import pickle
import re
import sys
import time
import warnings
from fractions import Fraction

import numpy as np
import pytest

from morsegrass.flows import (
    MAX_EXPONENT,
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
import morsegrass.flows as flows_module
from morsegrass.symbols import CapacityError, SchubertSymbol, critical_index, enumerate_symbols

RNG = np.random.default_rng(20240824)

A4 = HeightSpectrum((3.0, 2.0, 1.0, 0.0))


def coordinate(entries, n):
    return GrassmannPoint.coordinate_plane(SchubertSymbol(tuple(entries), n))


def flow_unsorted(V, a, t):
    """The closed form factored with the rows in their own order, as flow once did; exact for small |t|."""
    ta = t * np.array(a.a)
    exps = np.maximum(ta.min() - ta, -MAX_EXPONENT)
    return GrassmannPoint(np.linalg.qr(np.exp(exps)[:, None] * V.matrix)[0])


def morse_bott_limit(V, blocks):
    """lim flow(V, a, t) as t -> +inf, for a tied on blocks E_1, ..., E_l (largest values first).

    The limit is the sum over j of pi_j(V cap (E_1 + ... + E_j)), with the
    intersection dimensions of a generic V.
    """
    m = V.matrix
    n, k = m.shape
    cols, start, below = [], 0, 0
    for size in blocks:
        end = start + size
        dim = max(0, k - (n - end))
        if dim > below:
            # the combinations of V's columns that vanish on the rows past E_j
            null = np.linalg.svd(m[end:])[2][k - dim:].conj().T
            part = np.zeros((n, dim), dtype=complex)
            part[start:end] = (m @ null)[start:end]
            cols.append(np.linalg.svd(part, full_matrices=False)[0][:, :dim - below])
        start, below = end, dim
    return GrassmannPoint(np.hstack(cols))


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


class TestOrthonormalFrame:
    # the frame's QR runs once per point; the result is read-only and outside ==, hash, repr and pickle

    def test_one_qr_per_point(self, monkeypatch):
        from morsegrass.polytopes import moment_map

        calls = []
        qr = np.linalg.qr
        monkeypatch.setattr(np.linalg, "qr", lambda m, *args, **kw: calls.append(m.shape) or qr(m, *args, **kw))
        V, a = random_point(3, 7, RNG), HeightSpectrum(tuple(float(x) for x in range(6, -1, -1)))
        limit_symbol(V, "down"), limit_symbol(V, "up")
        integrate_flow(V, a, 0.5, steps=20)
        moment_map(V), height_value(V, a), projector(V)
        assert calls == [(7, 3), (7, 3)]  # the frame's, then the RK4 end-of-run QR

    def test_same_read_only_array(self):
        V = random_point(2, 5, RNG)
        q = V.orthonormal_frame()
        assert V.orthonormal_frame() is q and not q.flags.writeable
        np.testing.assert_array_equal(q, np.linalg.qr(V.matrix)[0])
        with pytest.raises(ValueError):
            q[0, 0] = 0

    @pytest.mark.parametrize("clone", [copy.copy, copy.deepcopy, lambda V: pickle.loads(pickle.dumps(V))])
    def test_clone_recomputes_an_equal_frame(self, clone):
        V = random_point(3, 6, RNG)
        q = V.orthonormal_frame()
        W = clone(V)
        assert W._frame is None and W is not V and W != V
        assert W.orthonormal_frame() is not q and np.array_equal(W.orthonormal_frame(), q)

    def test_identity_eq_hash_and_repr_unchanged(self):
        V = GrassmannPoint([[1, 0], [0, 1], [0, 0]])
        text, h = repr(V), hash(V)
        V.orthonormal_frame()
        assert repr(V) == text and hash(V) == h == object.__hash__(V) and GrassmannPoint._names == ("matrix",)
        assert text.startswith("GrassmannPoint(matrix=array(") and "_frame" not in text
        assert V == V and V != GrassmannPoint(V.matrix)

    def test_first_call_raises_nothing_internally(self):
        V = random_point(2, 4, RNG)
        raised = []

        def tracer(frame, event, arg):
            if event == "exception":
                raised.append(arg[0])
            return tracer

        sys.settrace(tracer)
        try:
            V.orthonormal_frame()
        finally:
            sys.settrace(None)
        assert raised == [] and V._frame is not None


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

    def test_matches_unsorted_formula_at_short_times(self):
        rng = np.random.default_rng(11)
        for k, n in [(1, 3), (2, 4), (3, 7)]:
            a = HeightSpectrum(tuple(float(x) for x in sorted(rng.uniform(0, 4, n), reverse=True)))
            for _ in range(20):
                V = random_point(k, n, rng)
                for t in np.linspace(-2.0, 2.0, 9):
                    assert span_distance(flow(V, a, t), flow_unsorted(V, a, t)) < 1e-12


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


    @pytest.mark.parametrize("steps", [True, False, 2.5, 2.0, "3", None, 0, -1, np.int64(0)])
    def test_steps_must_be_an_integer_of_at_least_one(self, steps):
        # True used to run one step and 2.5 escaped as a TypeError from range; refused before the time is read
        integer = type(steps) in (int, np.int64)
        with pytest.raises(ValueError, match="step count must be at least 1" if integer else "a step count of type"):
            integrate_flow(coordinate((1, 2), 4), A4, np.nan, steps=steps)

    def test_numpy_integer_steps(self):
        V = random_point(2, 4, RNG)
        for steps in (np.int64(8), np.uint8(8)):
            assert np.array_equal(integrate_flow(V, A4, 1.0, steps=steps).matrix, integrate_flow(V, A4, 1.0, steps=8).matrix)


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


def integrate_by_linalg_solve(V, a, t, steps):
    """integrate_flow as it was with np.linalg.solve in every stage, kept as the oracle of the direct LAPACK call."""
    d = np.array(a.a)[:, None]
    eye = np.eye(V.k)

    def vel(y, gram=None):
        yh = y.conj().T
        dy = d * y
        return y @ np.linalg.solve(yh @ y if gram is None else gram, yh @ dy) - dy

    h = float(t) / steps
    y = V.orthonormal_frame()
    gram = y.conj().T @ y
    for _ in range(steps):
        k1 = vel(y, gram)
        try:
            k2 = vel(y + (h / 2) * k1)
            k3 = vel(y + (h / 2) * k2)
            k4 = vel(y + h * k3)
        except np.linalg.LinAlgError:
            raise DivergenceError("a stage's Gram matrix is singular; reduce the step size") from None
        y = y + (h / 6) * (k1 + k4) + (h / 3) * (k2 + k3)
        gram = y.conj().T @ y
        err = gram - eye
        drift = math.sqrt(np.vdot(err, err).real)
        if not drift <= 0.1:
            raise DivergenceError(f"Gram matrix drifted {drift:.3g} from the identity; reduce the step size")
    q, _ = np.linalg.qr(y)
    return GrassmannPoint(q)


def rk4_outcome(integrate, *args):
    """The frame an integrator returns, or the class and message of the DivergenceError it raises."""
    try:
        return integrate(*args).matrix
    except DivergenceError as exc:
        return type(exc), str(exc)


class TestLinalgSolveOracle:
    # integrate_flow calls zgesv, the gufunc behind np.linalg.solve, itself; frames must match bit for bit

    @pytest.mark.parametrize("k,n", [(0, 0), (0, 3), (3, 3), (1, 3), (2, 4), (2, 5), (3, 6), (3, 7), (4, 8), (5, 10)])
    def test_bitwise_equal(self, k, n):
        rng = np.random.default_rng(2000 + 10 * k + n)
        raised = 0
        for steps in (1, 2, 40, 400):
            a = HeightSpectrum(tuple(sorted(rng.uniform(0.0, 4.0, n), reverse=True)))
            args = (random_point(k, n, rng), a, float(rng.uniform(-3.0, 3.0)), steps)
            old, new = rk4_outcome(integrate_by_linalg_solve, *args), rk4_outcome(integrate_flow, *args)
            if isinstance(old, tuple):
                raised += 1
                assert new == old
            else:
                assert isinstance(new, np.ndarray) and new.dtype == old.dtype and np.array_equal(new, old)
        assert raised < 4

    def test_divergence_inputs_raise_alike(self):
        # the inputs of TestDivergence: same class and message, singular stages and NaN drift included
        rng = np.random.default_rng(30)
        cases = [(random_point(2, 4, rng), HeightSpectrum((30.0, 20.0, 10.0, 0.0)), 3.0, 1) for _ in range(5)]
        cases += [(GrassmannPoint(frame), A4, 1.0, 1) for frame in TestDivergence.FRAMES]
        cases.append((random_point(2, 4, np.random.default_rng(3)), HeightSpectrum((1e100, 0, 0, 0)), 1.0, 1))
        cases.append((random_point(2, 4, np.random.default_rng(32)), HeightSpectrum((1e200, 0.0, 0.0, 0.0)), 1.0, 1))
        messages = []
        with np.errstate(over="ignore", invalid="ignore"):
            for args in cases:
                old = rk4_outcome(integrate_by_linalg_solve, *args)
                assert isinstance(old, tuple) and rk4_outcome(integrate_flow, *args) == old
                messages.append(old[1])
        assert any("singular" in m for m in messages) and any("drifted nan" in m for m in messages)


class TestStageErrstate:
    def test_built_once_not_per_step(self, monkeypatch):
        # the stage solve's errstate is made at import; a 40-step run constructs none
        built = []

        class Counting(np.errstate):
            def __init__(self, **kw):
                built.append(kw)
                super().__init__(**kw)

        monkeypatch.setattr(np, "errstate", Counting)
        V, a = random_point(3, 6, np.random.default_rng(33)), HeightSpectrum((5.0, 4.0, 3.0, 2.0, 1.0, 0.0))
        W = integrate_flow(V, a, 1.0, steps=40)
        assert built == [] and span_distance(W, flow(V, a, 1.0)) < 1e-6
        with np.errstate(over="ignore"):  # the patch counts
            pass
        assert built == [{"over": "ignore"}]

    def test_errstate_covers_the_solve_alone(self):
        # outside the stage solve numpy's own settings hold again
        before = np.geterr()
        with pytest.raises(DivergenceError, match="singular"):
            integrate_flow(random_point(2, 4, np.random.default_rng(3)), HeightSpectrum((1e100, 0, 0, 0)), 1.0, steps=1)
        assert np.geterr() == before and np.geterrcall() is None


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
        # rows of e^{-tD} V span e^{t * gap}; factored in their own order, most
        # of these points landed more than 1e-6 from their limit
        rng = np.random.default_rng(0)
        strict = [(2, (3.0, 2.0, 1.0, 0.0), 25.0), (3, tuple(float(x) for x in range(6, -1, -1)), 25.0)]
        for k, a, t in strict:
            for _ in range(1000):
                V = random_point(k, len(a), rng)
                target = GrassmannPoint.coordinate_plane(limit_symbol(V, "down"))
                assert span_distance(flow(V, HeightSpectrum(a), t), target) < 1e-6
        tied = [((1, 3, 2), (2.0, 1.0, 1.0, 1.0, 0.0, 0.0), 40.0, (3, 4, 5)),
                ((2, 2, 1), (2.0, 2.0, 1.0, 1.0, 0.0), 25.0, (2, 3, 4))]
        for blocks, a, t, ks in tied:
            for k in ks:
                for _ in range(1000):
                    V = random_point(k, len(a), rng)
                    target = morse_bott_limit(V, blocks)
                    assert span_distance(flow(V, HeightSpectrum(a), t), target) < 1e-6

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

    @pytest.mark.parametrize("a", [(3.0, 2.0, 1.0), (5.0, 4.0, 3.0, 2.0, 1.0)])
    def test_spectrum_length_must_match(self, a):
        # as for height_value, gradient, flow and integrate_flow
        V = random_point(2, 4, RNG)
        with pytest.raises(ValueError, match="spectrum length does not match ambient dimension"):
            limit_symbol(V, "down", a=HeightSpectrum(a))

    def test_boundary_point_ambiguous(self):
        m = np.array([[1.0, 0], [0, 1.0], [0, 1e-10], [0, 0]], dtype=complex)
        with pytest.raises(AmbiguousCellError):
            limit_symbol(GrassmannPoint(m), "down")


def limit_symbol_by_numpy(V, direction, tol):
    """limit_symbol's column elimination as it was on numpy scalar indexing, kept as the oracle of the list form."""
    m = V.orthonormal_frame().copy()
    n, k = m.shape
    rows = range(n - 1, -1, -1) if direction == "down" else range(n)
    free = list(range(k))
    pivots = []
    for row in rows:
        if not free:
            break
        mags = [abs(m[row, c]) for c in free]
        best = int(np.argmax(mags))
        col = free[best]
        colnorm = max(float(np.linalg.norm(m[:, col])), 1e-300)
        if mags[best] <= tol * colnorm:
            if mags[best] > 0.01 * tol * colnorm:
                raise AmbiguousCellError(
                    f"pivot candidate in row {row + 1} has marginal magnitude "
                    f"{mags[best]:.3e}; point is numerically on a cell boundary"
                )
            continue
        pivots.append(row + 1)
        for c in free:
            if c != col:
                m[:, c] -= (m[row, c] / m[row, col]) * m[:, col]
        free.remove(col)
    if free:
        raise AmbiguousCellError("could not locate pivots for every column")
    return SchubertSymbol(tuple(sorted(pivots)), n)


def limit_outcome(limit, V, direction, tol=1e-6):
    """The symbol, or the row an AmbiguousCellError names (its message if it names none)."""
    try:
        return limit(V, direction, tol)
    except AmbiguousCellError as exc:
        row = re.search(r"row (\d+)", str(exc))
        return ("ambiguous", int(row.group(1)) if row else str(exc))


class TestEchelonOracle:
    EPS = (0.0, 1e-16, 1e-13, 1e-11, 1e-10, 3e-10, 1e-9, 1e-8, 1e-6)

    @pytest.mark.parametrize("n", range(1, 9))
    def test_planted_cells_match_numpy_elimination(self, n):
        # column j on rows <= u_j, mixed by a random k x k matrix, perturbed at eps: every cell, both directions
        rng = np.random.default_rng(3300 + n)
        outcomes = {"symbol": 0, "ambiguous": 0}
        for k in range(n + 1):
            for u in enumerate_symbols(k, n):
                planted = np.zeros((n, k), dtype=complex)
                for j, uj in enumerate(u.entries):
                    planted[:uj, j] = rng.standard_normal(uj) + 1j * rng.standard_normal(uj)
                mixed = planted @ (rng.standard_normal((k, k)) + 1j * rng.standard_normal((k, k)))
                for eps in self.EPS:
                    V = GrassmannPoint(mixed + eps * (rng.standard_normal((n, k)) + 1j * rng.standard_normal((n, k))))
                    for direction in ("down", "up"):
                        new = limit_outcome(limit_symbol, V, direction)
                        assert new == limit_outcome(limit_symbol_by_numpy, V, direction)
                        outcomes["ambiguous" if isinstance(new, tuple) else "symbol"] += 1
                    if eps == 0.0:
                        assert limit_symbol(V, "down") == u
        assert outcomes["symbol"] > 0 and (n < 3 or outcomes["ambiguous"] > 0)


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

    def test_priced_by_the_cells(self):
        # C(20, 10) = 184 756 minors took 1.2 s, and as many weights were returned
        V, a = random_point(10, 20, 1), HeightSpectrum(tuple(range(20, 0, -1)))
        for call in (lambda: plucker_embed(V), lambda: plucker_weights(a, 10)):
            start = time.perf_counter()
            with pytest.raises(CapacityError, match=r"Schubert cells of Gr\(10,20\), C\(20,10\): 184756"):
                call()
            assert time.perf_counter() - start < 1.0


TOO_BIG = r"a vector entry must be finite and of modulus at most 1e\+150, got"


class TestProjectiveDistance:
    def test_lines_not_vectors(self):
        x = np.array([1 + 2j, 3.0, -1j])
        assert projective_distance(x, (2 - 1j) * x) < 1e-15
        assert projective_distance([1, 0], [0, 1]) == pytest.approx(math.sqrt(2))

    @pytest.mark.parametrize("x,y", [([0, 0], [1, 0]), ([1, 0], [0, 0]), ([0, 0], [0, 0])])
    def test_zero_vector_refused(self, x, y):
        # used to divide by a zero norm and return NaN with a RuntimeWarning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="spans no line"):
                projective_distance(np.array(x), np.array(y))

    @pytest.mark.parametrize("x,message", [
        ([1, np.nan], rf"^{TOO_BIG} \(nan\+0j\)$"),
        ([1, np.inf], rf"^{TOO_BIG} \(inf\+0j\)$"),
        (np.array([1, complex(0, -np.inf)]), f"^{TOO_BIG} -infj$"),
        ([1e200, 1], rf"^{TOO_BIG} \(1e\+200\+0j\)$"),
        ([[1, 0]], "^a vector must be a 1-d array, got a 2-d one$"),
        (1.0, "^a vector must be a 1-d array, got a 0-d one$"),
        ([10 ** 400, 0], "^a vector entry is too large to be a complex float$"),
        ([1, 0, 0], "^projective_distance needs nonzero vectors of one length"),
        ([1], "^projective_distance needs nonzero vectors of one length"),
    ], ids=["nan", "inf", "complex-inf", "past-MAX_ENTRY", "2-d", "0-d", "huge", "longer", "shorter"])
    def test_vectors_pass_the_complex_rule(self, x, message):
        # nan and 1e200 (whose norm overflows) gave nan with RuntimeWarnings; [1] was broadcast against [1, 0]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=message):
                projective_distance(x, [1, 0])
            with pytest.raises(ValueError, match=message):
                projective_distance([1, 0], x)


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

    @pytest.mark.parametrize("frame,kind", [
        ([["1", "0"], ["0", "1"], ["0", "0"]], "str"),
        (np.array([[b"1", b"0"], [b"0", b"1"], [b"0", b"0"]]), "bytes"),
        ([[True, False], [False, True], [False, False]], "bool"),
    ], ids=["str", "bytes", "bool"])
    def test_frame_of_non_numbers_refuses(self, frame, kind):
        # the cast to complex parsed the strings and took True as 1, building the plane span(e1, e2)
        with pytest.raises(ValueError, match=f"^a frame entry of type {kind} is not a number$"):
            GrassmannPoint(frame)

    @pytest.mark.parametrize("frame,kind", [
        (np.array([["1", 0], [0, 1], [0, 0]], dtype=object), "str"),
        ([[1, True], [0, 1], [0, 0]], "bool"),
        ([[1, 0], [0, np.bool_(True)], [0, 0]], "bool"),
        ([[1, 0], [0, 1], [0, None]], "NoneType"),
    ], ids=["object-str", "list-bool", "numpy-bool", "None"])
    def test_frame_entries_judged_by_type(self, frame, kind):
        # "1" was parsed and True taken as 1, where the array's dtype did not show them
        with pytest.raises(ValueError, match=f"^a frame entry of type {kind} is not a number$"):
            GrassmannPoint(frame)

    @pytest.mark.parametrize("x,kind", [(["1", "0"], "str"), ([True, False], "bool"), ([1, "0"], "str")])
    def test_vector_entries_judged_by_type(self, x, kind):
        # both gave 0.0, the distance of [1, 0] to itself
        with pytest.raises(ValueError, match=f"^a vector entry of type {kind} is not a number$"):
            projective_distance(x, [1, 0])
        with pytest.raises(ValueError, match=f"^a vector entry of type {kind} is not a number$"):
            projective_distance([1, 0], x)

    @pytest.mark.parametrize("frame,message", [
        ([[10 ** 400, 0], [0, 1]], "^a frame entry is too large to be a complex float$"),
        ([[1, 0, 0], [0, 1, 0]], r"^need 0 <= k <= n, got k=3, n=2$"),
        (np.ones((2, 2, 1)), "^a frame must be a 2-d array, got a 3-d one$"),
        ([[1.7e308 + 1.7e308j], [0]], r"^a frame entry must be finite and of modulus at most 1e\+150, got"),
        ([[1e308], [1e308]], r"^a frame entry must be finite and of modulus at most 1e\+150, got"),
    ], ids=["huge-int", "wide", "3-d", "modulus-past-the-float-range", "QR-overflows"])
    def test_frame_shape_and_size(self, frame, message):
        # the huge int raised OverflowError, the huge modulus IndexError from the finite scan, and the last
        # frame was built, but its orthonormal frame, flow and moment map are NaN
        with pytest.raises(ValueError, match=message):
            GrassmannPoint(frame)

    def test_numeric_arrays_are_not_scanned(self, monkeypatch):
        # the hot case: a scan of the entries' types would need flows.numbers
        monkeypatch.setattr(flows_module, "numbers", None)
        assert GrassmannPoint(np.eye(3, 2)).k == 2 and GrassmannPoint(np.eye(3, 2, dtype=np.int8)).k == 2
        assert projective_distance(np.ones(2), np.ones(2, dtype=complex)) == 0.0

    @pytest.mark.parametrize("frame", [
        [[1, 0], [0, 1], [0, 0]],
        np.array([[Fraction(1), Fraction(0)], [Fraction(1, 2), Fraction(1)], [0, 0]], dtype=object),
        np.eye(3, 2, dtype=np.float32),
        np.eye(3, 2, dtype=np.int8),
    ], ids=["int", "Fraction", "float32", "int8"])
    def test_numeric_frames_still_build(self, frame):
        assert np.array_equal(GrassmannPoint(frame).matrix, np.array(frame, dtype=complex))

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
        [[[1, 0]], [[0, 1], [1, 1]]], [[[10 ** 400, 0]]], {"": False}, ["", ""], [[(1, 0)]],
    ])
    def test_wrong_shape_is_value_error(self, data):
        # {"": False} and ["", ""] were read as frames of Gr(0, 1) and Gr(0, 2): a key or string was an empty row
        with pytest.raises(ValueError):
            GrassmannPoint.from_json(data)

    @pytest.mark.parametrize("data", [
        [[[True, False]], [[0, 0]]],
        [[[1, 0]], [[0, False]]],
        [[[1.0, 0.0], [0, np.bool_(True)]], [[0, 0], [1, 0]]],
    ], ids=["re", "im", "numpy-bool"])
    def test_bool_in_a_pair_is_refused(self, data):
        # complex(True, False) built span(e1): the pair's parts go through symbols.floats
        with pytest.raises(ValueError, match="^a frame entry of type bool_? is not a real number$"):
            GrassmannPoint.from_json(data)

    def test_k_zero_round_trip(self):
        V = GrassmannPoint(np.zeros((3, 0), dtype=complex))
        assert GrassmannPoint.from_json(V.to_json()).matrix.shape == (3, 0)
