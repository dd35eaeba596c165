"""Independent answers for the benchmark's checks.

Nothing here calls into morsegrass: each function recomputes a quantity by a
route the library does not use (hook lengths, Bareiss determinants, closed
forms, numpy projectors), so a wrong library answer cannot agree with it by
sharing code.
"""

from __future__ import annotations

from math import comb, factorial, prod
from operator import mul

import numpy as np


# ---------------------------------------------------------------- partitions

def syt_count(shape) -> int:
    """Standard Young tableaux of a partition, by the hook-length formula."""
    parts = [p for p in shape if p > 0]
    if not parts:
        return 1
    cols = [sum(1 for p in parts if p > j) for j in range(parts[0])]
    hooks = prod(parts[i] - j + cols[j] - i - 1 for i in range(len(parts)) for j in range(parts[i]))
    return factorial(sum(parts)) // hooks


def lr_dimension_bound(mu, nu, k: int, n: int) -> tuple[int, bool]:
    """f^mu f^nu C(|mu|+|nu|, |mu|) and whether no product term can leave the box.

    In the ring of symmetric functions sum_lam c^lam_{mu,nu} f^lam equals the
    first number; truncating to the k x (n-k) box drops terms, so the sum
    over a Grassmannian product is at most it, with equality when the widths
    and lengths of mu and nu cannot overflow the box.
    """
    a, b = sum(mu), sum(nu)
    bound = syt_count(mu) * syt_count(nu) * comb(a + b, a)
    length = sum(1 for p in mu if p) + sum(1 for p in nu if p)
    fits = (max(mu, default=0) + max(nu, default=0) <= n - k) and length <= k
    return bound, fits


# -------------------------------------------------------------- integer rank

def bareiss(m: list[list[int]]) -> tuple[int, int]:
    """(rank, |det| if square and nonsingular else 0), fraction-free elimination."""
    a = [row[:] for row in m]
    rows, cols = len(a), len(a[0]) if a else 0
    rank, prev = 0, 1
    for c in range(cols):
        piv = next((i for i in range(rank, rows) if a[i][c]), None)
        if piv is None:
            continue
        a[rank], a[piv] = a[piv], a[rank]
        p = a[rank][c]
        for i in range(rank + 1, rows):
            ai, ar = a[i], a[rank]
            f = ai[c]
            a[i] = [(p * ai[j] - f * ar[j]) // prev for j in range(cols)]
        prev = p
        rank += 1
        if rank == rows:
            break
    det = abs(prev) if rows == cols == rank else 0
    return rank, det


def rank_mod2(m: list[list[int]]) -> int:
    """Rank over GF(2) with numpy boolean elimination."""
    a = (np.array(m, dtype=np.int64) & 1).astype(bool)
    rank = 0
    for c in range(a.shape[1] if a.ndim == 2 else 0):
        rows = np.nonzero(a[rank:, c])[0]
        if rows.size == 0:
            continue
        piv = rank + rows[0]
        a[[rank, piv]] = a[[piv, rank]]
        hit = np.nonzero(a[:, c])[0]
        hit = hit[hit != rank]
        a[hit] ^= a[rank]
        rank += 1
        if rank == a.shape[0]:
            break
    return rank


def universal_coefficients_mod2(ranks: dict, torsion: dict) -> dict:
    """Mod-2 Betti numbers from integral homology: b_i + t2_i + t2_{i-1}."""
    even = {i: sum(1 for t in ts if t % 2 == 0) for i, ts in torsion.items()}
    return {i: r + even.get(i, 0) + even.get(i - 1, 0) for i, r in ranks.items()}


def unimodular_pair(size: int, rng, ops: int) -> tuple[list[list[int]], list[list[int]]]:
    """A random unimodular P and its inverse, as products of elementary moves."""
    p = [[int(i == j) for j in range(size)] for i in range(size)]
    q = [row[:] for row in p]
    for _ in range(ops):
        i, j = rng.sample(range(size), 2)
        s = rng.choice((-1, 1))
        # P <- E P with E adding s * row j to row i; P^-1 <- P^-1 E^-1.
        p[i] = [x + s * y for x, y in zip(p[i], p[j])]
        for row in q:
            row[j] -= s * row[i]
    perm = list(range(size))
    rng.shuffle(perm)
    return [p[i] for i in perm], [[row[i] for i in perm] for row in q]


def matmul(a, b):
    bt = list(zip(*b))
    return [[sum(map(mul, row, col)) for col in bt] for row in a]


# ----------------------------------------------------------------- polytopes

def hypersimplex_f_vector(k: int, n: int) -> tuple[int, ...]:
    """f-vector of Delta(k, n) for 0 < k < n.

    Each face fixes some coordinates to 0 and some to 1 and is the
    hypersimplex of the rest; a face Delta(k', m) with 0 < k' < m has
    dimension m - 1, and a vertex is the case m = 0 (all fixed).
    """
    f = [0] * n
    f[0] = comb(n, k)
    for m in range(2, n + 1):
        for kk in range(1, m):
            ones = k - kk
            zeros = n - m - ones
            if ones < 0 or zeros < 0:
                continue
            f[m - 1] += comb(n, m) * comb(n - m, ones)
    return tuple(f)


def euler_holds(f: tuple[int, ...]) -> bool:
    """Euler-Poincare relation for a polytope's f-vector (top entry is 1)."""
    d = len(f) - 1
    if f[-1] != 1:
        return False
    return sum((-1) ** i * x for i, x in enumerate(f[:-1])) == 1 - (-1) ** d


def affine_dimension(vertices) -> int:
    v = np.array(vertices, dtype=float)
    return int(np.linalg.matrix_rank(v[1:] - v[0])) if len(v) > 1 else 0


def schubert_vertex_set(u_entries, k: int, n: int):
    """0/1 vertices e_v over the closure of S_u: v_j <= u_j for every j."""
    from itertools import combinations

    return [
        tuple(1 if i in set(v) else 0 for i in range(1, n + 1))
        for v in combinations(range(1, n + 1), k)
        if all(b <= a for a, b in zip(u_entries, v))
    ]


# --------------------------------------------------------------------- flows

def richardson_frame(up, down, n: int, rng) -> np.ndarray:
    """Frame whose column j lives in rows up_j..down_j, mixed by a random GL_k.

    With up_j <= down_j its lowest pivots are `down` and its highest are
    `up`, so the plane lies in the stable cell of `down` and the unstable
    cell of `up`.  The mixing matrix has singular values in [0.5, 2], so the
    echelon structure is recoverable far above rounding noise.
    """
    k = len(down)
    m = np.zeros((n, k), dtype=complex)
    for j, (lo, hi) in enumerate(zip(up, down)):
        size = hi - lo + 1
        col = rng.standard_normal(size) + 1j * rng.standard_normal(size)
        col[0] = col[0] / abs(col[0]) * (0.5 + rng.random())
        col[-1] = col[-1] / abs(col[-1]) * (0.5 + rng.random())
        m[lo - 1:hi, j] = col
    z = rng.standard_normal((k, k)) + 1j * rng.standard_normal((k, k))
    q1, _ = np.linalg.qr(z)
    z = rng.standard_normal((k, k)) + 1j * rng.standard_normal((k, k))
    q2, _ = np.linalg.qr(z)
    g = q1 @ np.diag(0.5 + 1.5 * rng.random(k)) @ q2
    return m @ g


def proj(frame: np.ndarray) -> np.ndarray:
    q, _ = np.linalg.qr(np.asarray(frame, dtype=complex))
    return q @ q.conj().T


def span_gap(f1, f2) -> float:
    return float(np.linalg.norm(proj(f1) - proj(f2)))


def idempotency_drift(frame) -> float:
    """||P^2 - P|| for P = Y Y^H built from an output frame taken as orthonormal."""
    y = np.asarray(frame)
    p = y @ y.conj().T
    return float(np.linalg.norm(p @ p - p))


def minors(frame: np.ndarray, k: int) -> np.ndarray:
    """All k x k minors in lexicographic row order, by batched determinants."""
    from itertools import combinations

    idx = np.array(list(combinations(range(frame.shape[0]), k)))
    return np.linalg.det(frame[idx])


def same_line(x: np.ndarray, y: np.ndarray) -> float:
    """Distance between the complex lines through x and y (0 when equal)."""
    x = x / np.linalg.norm(x)
    y = y / np.linalg.norm(y)
    overlap = np.vdot(y, x)
    phase = overlap / abs(overlap) if overlap else 1.0
    return float(np.linalg.norm(x - phase * y))
