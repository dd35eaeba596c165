"""Gradient flow of diagonal height functions on Gr_k(C^n).

A point of the Grassmannian is a full-rank n x k complex frame, standing for
its column span.  The height f(V) = trace(pi_V D), D = diag(a_1, ..., a_n),
has the negative gradient flow V -> e^{-tD} V in closed form; an RK4
integrator of the same field on frames is its independent oracle.

This is the only floating-point module in the package.
"""

from __future__ import annotations

import itertools
import math
import numbers

import numpy as np
# np.linalg.solve's LAPACK gufunc: on k x k systems its Python checks and errstate
# cost more than the solve, and integrate_flow's arguments already pass them
from numpy.linalg._umath_linalg import solve as _gesv

# tolerance, DEFAULT_TOL and AmbiguousCellError live in symbols so that the CLI
# can parse --tol and map exit codes without importing numpy
from .symbols import (DEFAULT_TOL, AmbiguousCellError, Frozen, SchubertSymbol, cell_count, check_ambient,
                      check_budget, floats, integers, tolerance)

# exp() overflows past ~709; flows clamp the largest exponent magnitude here
MAX_EXPONENT = 700.0
# GrassmannPoint refuses frames with sigma_min <= RANK_FLOOR * max(1, largest |entry|)
RANK_FLOOR = 1e-12
# _complex_array refuses larger entries: the norms and QR factors built from them must stay finite
MAX_ENTRY = 1e150


class DegenerateInputError(ValueError):
    """A frame whose columns are numerically rank deficient."""


class DivergenceError(RuntimeError):
    """An RK4 step moved the Gram matrix Y^H Y more than 0.1 from I: the step size is too large."""


def _singular_stage(err, flag):  # np.errstate call: zgesv met a zero pivot in an RK4 stage
    raise DivergenceError("a stage's Gram matrix is singular; reduce the step size")


@np.errstate(call=_singular_stage, invalid="call", over="ignore", divide="ignore", under="ignore")
def _stage_solve(g: np.ndarray, r: np.ndarray) -> np.ndarray:
    """X with g X = r for an RK4 stage's Gram matrix g, under one errstate built at import that covers the solve
    alone: overflow in the products around it reads as drift, a zero pivot raises DivergenceError."""
    return _gesv(g, r, signature="DD->D")


class HeightSpectrum(Frozen):
    """Diagonal entries a_1 >= ... >= a_n >= 0 of the height function, as floats once symbols.reals passes each."""

    __slots__ = ("a",)

    def __init__(self, a: tuple[float, ...]):
        a = floats(a, "height")
        if any(a[i] < a[i + 1] for i in range(len(a) - 1)):
            raise ValueError(f"spectrum {a} must be nonincreasing")
        if a and a[-1] < 0:
            raise ValueError("spectrum entries must be nonnegative")
        self._init(a)

    @property
    def n(self) -> int:
        return len(self.a)

    @property
    def is_strict(self) -> bool:
        return all(self.a[i] > self.a[i + 1] for i in range(len(self.a) - 1))

    def diagonal(self) -> np.ndarray:
        return np.diag(self.a).astype(complex)


class GrassmannPoint(Frozen):
    """Immutable full-rank n x k complex frame representing its column span.

    Its orthonormal frame is computed once per point, on first use, and is read-only; it is kept in the private
    _frame slot, outside ==, hash, repr and pickle."""

    __slots__ = ("matrix", "_frame")
    # identity ==: a frame is not a canonical form of its plane, and span_distance compares planes
    __eq__, __hash__ = object.__eq__, object.__hash__

    def __init__(self, matrix):
        m, top = _complex_array(matrix, "frame", 2)
        check_ambient(m.shape[1], m.shape[0])
        if m.shape[1] > 0:
            smin = np.linalg.svd(m, compute_uv=False)[-1]
            if smin <= RANK_FLOOR * max(1.0, top):
                raise DegenerateInputError(f"columns are rank deficient (sigma_min={smin:.3e})")
        m.setflags(write=False)
        self._init(m, None)

    @property
    def n(self) -> int:
        return self.matrix.shape[0]

    @property
    def k(self) -> int:
        return self.matrix.shape[1]

    @classmethod
    def coordinate_plane(cls, u: SchubertSymbol) -> "GrassmannPoint":
        m = np.zeros((u.n, u.k), dtype=complex)
        for col, row in enumerate(u.entries):
            m[row - 1, col] = 1.0
        m.setflags(write=False)
        return cls._of(m, None)

    def orthonormal_frame(self) -> np.ndarray:
        """Q of the reduced QR of the frame, the same read-only array on every call."""
        q = self._frame
        if q is None:
            q, _ = np.linalg.qr(self.matrix)
            q.setflags(write=False)
            self._init(self.matrix, q)
        return q

    def to_json(self) -> list:
        return [[[z.real, z.imag] for z in row] for row in self.matrix]

    @classmethod
    def from_json(cls, data) -> "GrassmannPoint":
        """Frame from a list of lists of [re, im] pairs, each through symbols.floats; ValueError on any other shape."""
        if not isinstance(data, list) or not all(
                isinstance(row, list) and all(isinstance(p, list) and len(p) == 2 for p in row) for row in data):
            raise ValueError("a frame must be a list of rows of [re, im] number pairs")
        return cls([[complex(*floats(pair, "frame entry")) for pair in row] for row in data])


def _complex_array(x, what: str, ndim: int) -> tuple[np.ndarray, float]:
    """x as a new complex ndarray and its largest entry modulus (0 if empty), the one rule for complex input:
    ValueError naming ``what`` unless x has rows of one length; then unless each entry is a numbers.Complex, not bool
    (strings are never parsed, True never taken as 1), judged once per type and not at all in a numeric ndarray, the
    hot case; then unless x has ndim dimensions; then unless every entry is finite, of modulus at most MAX_ENTRY."""
    try:
        m = np.asarray(x)
    except ValueError:  # numpy's "inhomogeneous shape": a ragged nested list
        raise ValueError(f"a {what} must have rows of one length") from None
    if m is not x or m.dtype.kind not in "iufc":  # a list turns True into 1 before the cast: judge x itself
        for t in set(map(type, np.asarray(x, dtype=object).flat)):
            if t is bool or not issubclass(t, numbers.Complex):
                raise ValueError(f"a {what} entry of type {t.__name__} is not a number")
    if m.ndim != ndim:
        raise ValueError(f"a {what} must be a {ndim}-d array, got a {m.ndim}-d one")
    try:
        m = m.astype(complex)
    except OverflowError:  # an exact entry past the float range, such as 10**400
        raise ValueError(f"a {what} entry is too large to be a complex float") from None
    modulus = np.abs(m)
    top = float(modulus.max(initial=0.0))  # NaN if any entry is NaN
    if not top <= MAX_ENTRY:
        raise ValueError(f"a {what} entry must be finite and of modulus at most {MAX_ENTRY:g}, "
                         f"got {m[~(modulus <= MAX_ENTRY)][0]}")
    return m, top


class TangentVector(Frozen):
    """Tangent vector at a point, as a skew-Hermitian n x n matrix."""

    __slots__ = ("skew",)

    def __init__(self, skew: np.ndarray):
        self._init(skew)

    def norm(self) -> float:
        return float(np.linalg.norm(self.skew))


def projector(V: GrassmannPoint) -> np.ndarray:
    """Orthogonal projection onto the span: Hermitian, idempotent, trace k."""
    q = V.orthonormal_frame()
    return q @ q.conj().T


def span_distance(V: GrassmannPoint, W: GrassmannPoint) -> float:
    """Frobenius distance between projectors; zero iff equal spans."""
    return float(np.linalg.norm(projector(V) - projector(W)))


def _check_flow_input(V: GrassmannPoint, a: HeightSpectrum, ts=()) -> tuple[float, ...]:
    """The times ts as floats; ValueError unless a has one height per coordinate of V and symbols.floats passes ts."""
    if a.n != V.n:
        raise ValueError("spectrum length does not match ambient dimension")
    return floats(ts, "flow time")


def height_value(V: GrassmannPoint, a: HeightSpectrum) -> float:
    """f(V) = trace(pi_V D) = sum_i a_i (pi_V)_{ii}; (pi_V)_{ii} is row i's squared norm in an orthonormal frame."""
    _check_flow_input(V, a)
    return float(np.sum(np.array(a.a) * (abs(V.orthonormal_frame()) ** 2).sum(axis=1)))


def gradient(V: GrassmannPoint, a: HeightSpectrum) -> TangentVector:
    """Negative gradient -grad f = -i (pi D pi_perp + pi_perp D pi)."""
    _check_flow_input(V, a)
    pi = projector(V)
    perp = np.eye(V.n, dtype=complex) - pi
    d = a.diagonal()
    return TangentVector(-1j * (pi @ d @ perp + perp @ d @ pi))


def _flow_frames(V: GrassmannPoint, a: HeightSpectrum, ts) -> np.ndarray:
    """Read-only orthonormal frames of e^{-tD} V for each t in ts, stacked (len(ts), n, k) by one QR; ValueError as
    _check_flow_input.

    The exponent is recentered per time and clamped at -MAX_EXPONENT.  For t > 0 the rows grow downwards and are
    factored in reverse, as Householder QR is row-wise stable on rows sorted by decreasing size (Powell and Reid
    1969; Cox and Higham 1998).
    """
    ts = _check_flow_input(V, a, ts)
    ta = np.multiply.outer(ts, a.a)
    exps = np.maximum(ta.min(axis=1, keepdims=True) - ta, -MAX_EXPONENT)
    m = np.exp(exps)[:, :, None] * V.matrix
    late = np.array(ts) > 0
    m[late] = m[late, ::-1]
    q, _ = np.linalg.qr(m)
    q[late] = q[late, ::-1]
    q.setflags(write=False)
    return q


def flow(V: GrassmannPoint, a: HeightSpectrum, t: float) -> GrassmannPoint:
    """Closed-form gradient flow: column span of e^{-tD} V, re-orthonormalized (see _flow_frames)."""
    return GrassmannPoint._of(_flow_frames(V, a, [t])[0], None)


def integrate_flow(V: GrassmannPoint, a: HeightSpectrum, t: float, steps: int = 100) -> GrassmannPoint:
    """RK4 oracle for flow, in steps >= 1 steps of Y' = -(I - pi_Y) D Y on frames, pi_Y = Y (Y^H Y)^{-1} Y^H.

    The field keeps Y^H Y fixed and commutes with Y -> YA, so the steps start from an orthonormal frame and one QR
    at the end gives the span (Hairer, Lubich and Wanner, Geometric Numerical Integration, ch. IV).
    DivergenceError if a step's Y^H Y drifts more than 0.1 from I (Frobenius) or a stage's is singular.
    """
    (steps,) = integers([steps], "step count", 1)
    (t,) = _check_flow_input(V, a, [t])
    d = np.array(a.a, dtype=complex)[:, None]
    eye = np.eye(V.k)

    def stage(y):  # the field at a stage's frame, from its own Gram matrix
        yh, dy = y.conj().T, d * y
        return y @ _stage_solve(yh @ y, yh @ dy) - dy

    h = t / steps
    y = V.orthonormal_frame()
    yh = y.conj().T
    gram = yh @ y
    for _ in range(steps):
        dy = d * y
        k1 = y @ _gesv(gram, yh @ dy, signature="DD->D") - dy  # Y^H and the Gram matrix of the drift check
        k2 = stage(y + (h / 2) * k1)
        k3 = stage(y + (h / 2) * k2)
        k4 = stage(y + h * k3)
        y = y + (h / 6) * (k1 + k4) + (h / 3) * (k2 + k3)
        yh = y.conj().T
        gram = yh @ y
        err = gram - eye
        drift = math.sqrt(np.vdot(err, err).real)
        if not drift <= 0.1:  # NaN fails too
            raise DivergenceError(f"Gram matrix drifted {drift:.3g} from the identity; reduce the step size")
    q, _ = np.linalg.qr(y)
    q.setflags(write=False)
    return GrassmannPoint._of(q, None)


def limit_symbol(
    V: GrassmannPoint,
    direction: str = "down",
    tol: float = DEFAULT_TOL,
    a: HeightSpectrum | None = None,
) -> SchubertSymbol:
    """Schubert cell of V: the symbol of lim flow(V, a, t) as t -> +/- infinity.

    direction="down" classifies the stable cell S_u (pivots are the lowest
    nonzero rows of the column echelon form); "up" classifies the unstable
    cell by the mirrored convention.  The cells only depend on the ordering
    a_1 > ... > a_n, so the spectrum argument is optional; if given it must
    be strict (Morse-Bott limits land on critical manifolds, not points).
    """
    if direction not in ("down", "up"):
        raise ValueError(f"direction must be 'down' or 'up', got {direction!r}")
    tol = tolerance(tol)
    if a is not None:
        _check_flow_input(V, a)
        if not a.is_strict:
            raise ValueError(
                "limit_symbol needs a strict (Morse) spectrum; tied values give "
                "Morse-Bott limits on critical manifolds"
            )
    cols = V.orthonormal_frame().T.tolist()  # the columns as lists of Python complex numbers
    n = V.n
    rows = range(n - 1, -1, -1) if direction == "down" else range(n)
    free = list(range(V.k))
    pivots = []
    for row in rows:
        if not free:
            break
        mags = [abs(cols[c][row]) for c in free]
        best = mags.index(max(mags))
        col = free[best]
        pivot = cols[col]
        colnorm = max(math.hypot(*map(abs, pivot)), 1e-300)
        if mags[best] <= tol * colnorm:
            # no pivot in this row; error out if the value is marginal rather
            # than clean numerical noise (point near a cell boundary)
            if mags[best] > 0.01 * tol * colnorm:
                raise AmbiguousCellError(
                    f"pivot candidate in row {row + 1} has marginal magnitude "
                    f"{mags[best]:.3e}; point is numerically on a cell boundary"
                )
            continue
        pivots.append(row + 1)
        # eliminate this row from the other free columns
        for c in free:
            if c != col:
                f = cols[c][row] / pivot[row]
                cols[c] = [z - f * p for z, p in zip(cols[c], pivot)]
        free.remove(col)
    if free:
        raise AmbiguousCellError("could not locate pivots for every column")
    return SchubertSymbol._of(tuple(sorted(pivots)), n)


def plucker_embed(V: GrassmannPoint) -> np.ndarray:
    """Plucker coordinates: maximal minors in lexicographic symbol order.

    One stacked det over the C(n, k) row selections, priced by symbols.cell_count first; k = 0 gives [1].
    """
    cell_count(V.k, V.n)
    if V.k == 0:
        return np.ones(1, dtype=complex)
    rows = np.array(list(itertools.combinations(range(V.n), V.k)))
    return np.linalg.det(V.matrix[rows])


def plucker_weights(a: HeightSpectrum, k: int) -> list[float]:
    """Flow weights a_{u_1} + ... + a_{u_k} per symbol, lexicographic order; CapacityError first past C(n, k) cells."""
    cell_count(k, a.n)  # checks k too
    return [sum(a.a[i] for i in rows) for rows in itertools.combinations(range(a.n), k)]


def projective_distance(x: np.ndarray, y: np.ndarray) -> float:
    """Distance between the lines through x and y: norm of the difference after normalizing and aligning phases via
    the largest coordinate of x.  ValueError unless both pass the complex rule as vectors of one length, nonzero."""
    (x, _), (y, _) = (_complex_array(v, "vector", 1) for v in (x, y))
    nx, ny = np.linalg.norm(x), np.linalg.norm(y)
    if nx == 0 or ny == 0 or len(x) != len(y):
        raise ValueError("projective_distance needs nonzero vectors of one length (a zero vector spans no line)")
    xn, yn = x / nx, y / ny
    pivot = int(np.argmax(np.abs(xn)))
    xn = xn * (np.abs(xn[pivot]) / xn[pivot])
    if yn[pivot] != 0:
        yn = yn * (np.abs(yn[pivot]) / yn[pivot])
    return float(np.linalg.norm(xn - yn))


def random_point(k: int, n: int, rng=None) -> GrassmannPoint:
    """Generic point: complex Gaussian frame (almost surely in the top cell); CapacityError before any is drawn if
    its n*k entries exceed the budget."""
    k, n = check_ambient(k, n)
    check_budget(n * k, f"Gaussian frame entries of Gr({k},{n}), {n}*{k}")
    rng = np.random.default_rng(rng)
    m = rng.standard_normal((n, k)) + 1j * rng.standard_normal((n, k))
    return GrassmannPoint(m)
