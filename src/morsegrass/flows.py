"""Gradient flow of diagonal height functions on Gr_k(C^n).

A point of the Grassmannian is a full-rank n x k complex frame; the plane is
its column span, and span equality is measured by projector distance.  The
height function f(V) = trace(pi_V D) with D = diag(a_1, ..., a_n) has
negative gradient flow given in closed form by V -> e^{-tD} V; an RK4
integrator of the same vector field acts as an independent numerical oracle.
On frames that field is Y' = -(I - pi_Y) D Y, which keeps the Gram matrix
Y^H Y fixed (a quadratic first integral) and commutes with Y -> YA, so the
integrator steps unnormalized frames at k x k cost and takes one QR at the
end, which gives the same spans as a QR after every step; Gram drift above
0.1 raises DivergenceError (Hairer, Lubich and Wanner, Geometric Numerical
Integration, ch. IV).

This is the only floating-point module in the package.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

# tolerance, DEFAULT_TOL and AmbiguousCellError live in symbols so that the CLI
# can parse --tol and map exit codes without importing numpy
from .symbols import DEFAULT_TOL, AmbiguousCellError, SchubertSymbol, tolerance

# exp() overflows past ~709; flows clamp the largest exponent magnitude here
MAX_EXPONENT = 700.0
# GrassmannPoint refuses frames with sigma_min <= RANK_FLOOR * max(1, largest |entry|)
RANK_FLOOR = 1e-12


class DegenerateInputError(ValueError):
    """A frame whose columns are numerically rank deficient."""


class DivergenceError(RuntimeError):
    """An RK4 step moved the Gram matrix Y^H Y more than 0.1 from I: the step size is too large."""


@dataclass(frozen=True)
class HeightSpectrum:
    """Diagonal entries a_1 >= ... >= a_n >= 0 of the height function."""

    a: tuple[float, ...]

    def __post_init__(self):
        a = tuple(float(x) for x in self.a)
        object.__setattr__(self, "a", a)
        if not all(map(math.isfinite, a)):
            raise ValueError(f"spectrum entries must be finite, got {a}")
        if any(a[i] < a[i + 1] for i in range(len(a) - 1)):
            raise ValueError(f"spectrum {a} must be nonincreasing")
        if a and a[-1] < 0:
            raise ValueError("spectrum entries must be nonnegative")

    @property
    def n(self) -> int:
        return len(self.a)

    @property
    def is_strict(self) -> bool:
        return all(self.a[i] > self.a[i + 1] for i in range(len(self.a) - 1))

    def diagonal(self) -> np.ndarray:
        return np.diag(self.a).astype(complex)


class GrassmannPoint:
    """Immutable full-rank n x k complex frame representing its column span."""

    __slots__ = ("matrix",)

    def __init__(self, matrix):
        m = np.array(matrix, dtype=complex)
        if m.ndim != 2:
            raise ValueError("expected a 2-d matrix")
        if m.shape[1] > m.shape[0]:
            raise ValueError(f"need k <= n, got shape {m.shape}")
        if m.shape[1] > 0:
            scale = float(np.abs(m).max())  # NaN or inf if any entry is
            if not math.isfinite(scale):
                raise ValueError(f"frame entries must be finite, got {m[~np.isfinite(m)][0]}")
            smin = np.linalg.svd(m, compute_uv=False)[-1]
            if smin <= RANK_FLOOR * max(1.0, scale):
                raise DegenerateInputError(f"columns are rank deficient (sigma_min={smin:.3e})")
        m.setflags(write=False)
        self.matrix = m

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
        return cls(m)

    def orthonormal_frame(self) -> np.ndarray:
        q, _ = np.linalg.qr(self.matrix)
        return q

    def to_json(self) -> list:
        return [[[z.real, z.imag] for z in row] for row in self.matrix]

    @classmethod
    def from_json(cls, data) -> "GrassmannPoint":
        """Frame from a list of rows of [re, im] pairs; ValueError on any other shape."""
        try:
            m = [[complex(re, im) for re, im in row] for row in data]
        except (TypeError, ValueError, OverflowError) as exc:
            raise ValueError(f"a frame must be a list of rows of [re, im] number pairs ({exc})") from None
        return cls(m)


@dataclass(frozen=True)
class TangentVector:
    """Tangent vector at a point, as a skew-Hermitian n x n matrix."""

    skew: np.ndarray

    def norm(self) -> float:
        return float(np.linalg.norm(self.skew))


def projector(V: GrassmannPoint) -> np.ndarray:
    """Orthogonal projection onto the span: Hermitian, idempotent, trace k."""
    q = V.orthonormal_frame()
    return q @ q.conj().T


def span_distance(V: GrassmannPoint, W: GrassmannPoint) -> float:
    """Frobenius distance between projectors; zero iff equal spans."""
    return float(np.linalg.norm(projector(V) - projector(W)))


def height_value(V: GrassmannPoint, a: HeightSpectrum) -> float:
    """f(V) = trace(pi_V D) = sum_i a_i (pi_V)_{ii}."""
    if a.n != V.n:
        raise ValueError("spectrum length does not match ambient dimension")
    return float(np.real(np.sum(np.array(a.a) * np.diag(projector(V)))))


def gradient(V: GrassmannPoint, a: HeightSpectrum) -> TangentVector:
    """Negative gradient -grad f = -i (pi D pi_perp + pi_perp D pi)."""
    if a.n != V.n:
        raise ValueError("spectrum length does not match ambient dimension")
    pi = projector(V)
    perp = np.eye(V.n, dtype=complex) - pi
    d = a.diagonal()
    return TangentVector(-1j * (pi @ d @ perp + perp @ d @ pi))


def _flow_frames(V: GrassmannPoint, a: HeightSpectrum, ts) -> np.ndarray:
    """Orthonormal frames of e^{-tD} V for each t in ts, stacked (len(ts), n, k) by one QR.

    The exponent is recentered per time (an overall scalar does not change
    the span) and clamped to avoid overflow; long-time limits should go
    through limit_symbol instead of large t.
    """
    if a.n != V.n:
        raise ValueError("spectrum length does not match ambient dimension")
    ts = [float(t) for t in ts]
    for t in ts:
        if not math.isfinite(t):
            raise ValueError(f"flow time must be finite, got {t}")
    ta = np.multiply.outer(ts, a.a)
    exps = np.maximum(ta.min(axis=1, keepdims=True) - ta, -MAX_EXPONENT)
    q, _ = np.linalg.qr(np.exp(exps)[:, :, None] * V.matrix)
    return q


def flow(V: GrassmannPoint, a: HeightSpectrum, t: float) -> GrassmannPoint:
    """Closed-form gradient flow: column span of e^{-tD} V, re-orthonormalized (see _flow_frames)."""
    return GrassmannPoint(_flow_frames(V, a, [t])[0])


def integrate_flow(V: GrassmannPoint, a: HeightSpectrum, t: float, steps: int = 100) -> GrassmannPoint:
    """RK4 oracle for the same flow, integrating Y' = -(I - pi_Y) D Y on frames.

    pi_Y = Y (Y^H Y)^{-1} Y^H, so the velocity costs k x k algebra.  The field
    keeps Y^H Y fixed and commutes with Y -> YA, so RK4 from an orthonormal
    frame needs no per-step QR: one QR at the end gives the same span.  A
    step whose Y^H Y drifts more than 0.1 from I (Frobenius) or whose stage
    Gram matrix is singular raises DivergenceError; exact flow keeps Y^H Y = I.
    """
    if steps < 1:
        raise ValueError("need steps >= 1")
    if a.n != V.n:
        raise ValueError("spectrum length does not match ambient dimension")
    if not math.isfinite(t):
        raise ValueError(f"flow time must be finite, got {t}")
    d = np.array(a.a)[:, None]
    eye = np.eye(V.k)

    def vel(y, gram=None):
        yh = y.conj().T
        dy = d * y
        return y @ np.linalg.solve(yh @ y if gram is None else gram, yh @ dy) - dy

    h = t / steps
    y = V.orthonormal_frame()
    gram = y.conj().T @ y
    for _ in range(steps):
        k1 = vel(y, gram)  # the Gram matrix the drift check computed
        try:
            k2 = vel(y + (h / 2) * k1)
            k3 = vel(y + (h / 2) * k2)
            k4 = vel(y + h * k3)
        except np.linalg.LinAlgError:  # a stage's frame lost rank
            raise DivergenceError("a stage's Gram matrix is singular; reduce the step size") from None
        y = y + (h / 6) * (k1 + k4) + (h / 3) * (k2 + k3)
        gram = y.conj().T @ y
        err = gram - eye
        drift = math.sqrt(np.vdot(err, err).real)
        if not drift <= 0.1:  # NaN fails too
            raise DivergenceError(f"Gram matrix drifted {drift:.3g} from the identity; reduce the step size")
    q, _ = np.linalg.qr(y)
    return GrassmannPoint(q)


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
    if a is not None and not a.is_strict:
        raise ValueError(
            "limit_symbol needs a strict (Morse) spectrum; tied values give "
            "Morse-Bott limits on critical manifolds, classified blockwise"
        )
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
                m[:, c] -= (m[row, c] / m[row, col]) * m[:, col]
        free.remove(col)
    if free:
        raise AmbiguousCellError("could not locate pivots for every column")
    return SchubertSymbol(tuple(sorted(pivots)), n)


def plucker_embed(V: GrassmannPoint) -> np.ndarray:
    """Plucker coordinates: maximal minors in lexicographic symbol order.

    One stacked det over the C(n, k) row selections; k = 0 gives [1].
    """
    if V.k == 0:
        return np.ones(1, dtype=complex)
    rows = np.array(list(itertools.combinations(range(V.n), V.k)))
    return np.linalg.det(V.matrix[rows])


def plucker_weights(a: HeightSpectrum, k: int) -> list[float]:
    """Flow weights a_{u_1} + ... + a_{u_k} per symbol, lexicographic order."""
    return [sum(a.a[i] for i in rows) for rows in itertools.combinations(range(a.n), k)]


def projective_distance(x: np.ndarray, y: np.ndarray) -> float:
    """Distance between lines through x and y: norm of the difference after
    normalizing and aligning phases via the largest coordinate of x."""
    x = np.asarray(x, dtype=complex)
    y = np.asarray(y, dtype=complex)
    xn = x / np.linalg.norm(x)
    yn = y / np.linalg.norm(y)
    pivot = int(np.argmax(np.abs(xn)))
    xn = xn * (np.abs(xn[pivot]) / xn[pivot])
    if abs(yn[pivot]) == 0:
        return float(np.linalg.norm(xn - yn))
    yn = yn * (np.abs(yn[pivot]) / yn[pivot])
    return float(np.linalg.norm(xn - yn))


def random_point(k: int, n: int, rng=None) -> GrassmannPoint:
    """Generic point: complex Gaussian frame (almost surely in the top cell)."""
    rng = np.random.default_rng(rng)
    m = rng.standard_normal((n, k)) + 1j * rng.standard_normal((n, k))
    return GrassmannPoint(m)
