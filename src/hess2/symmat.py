"""Algebra of small real symmetric matrices, on plain arrays: one matrix
(n, n) or a stack (..., n, n).

One batched kernel per 2-Hessian formula (`invariants`: S1, S2 of frame
blocks; `cofactor`: tr(A)I - A; `comatrix`: tr(A)A - A^2), and a seeded
sampler whose semidefinite draws take their eigenbasis from a batched
Householder QR (`householder_q`).  Every eigendecomposition in the package
runs here, by LAPACK: `eigenvalues` where only the eigenvalues are read (the
commands' one eigen entry point), `jacobi_eigh` where the eigenvectors are
read too, and the sampler's own batched call for indefinite draws.
Dimensions are capped at 8; everything is dense and deterministic.
"""
from __future__ import annotations

import itertools
import math

import numpy as np

from .errors import InputError, NumericalError

MAX_DIM = 8

# Probability that a sampled semidefinite matrix has at least one zero
# eigenvalue, so suites exercise the cone boundary.
ZERO_EIGENVALUE_PROB = 0.2

# Samples per chunk of a sample stream: each chunk has its own seed, and a
# campaign draws and checks one chunk at a time.
CAMPAIGN_CHUNK = 2048


def jacobi_eigh(a) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a symmetric matrix, or of a stack of them, by LAPACK.

    Returns (lam, vecs) with lam ascending along the last axis and
    a = vecs @ diag(lam) @ vecs.T; only the lower triangle of a is read.
    Raises NumericalError when the spectrum is not finite.  No command calls
    it: its callers are `analysis.critical_point_report`, `fields.convexity_scan`
    and the tests' one-pair inequality oracle.  The name outlives the
    cyclic-Jacobi solver this call replaced, because perfbench's tracer wraps
    `jacobi_eigh` by name in every module that imports it.
    """
    try:
        lam, vecs = np.linalg.eigh(np.asarray(a, dtype=float))
    except np.linalg.LinAlgError:   # LAPACK's answer to some non-finite input
        lam = vecs = np.array([np.nan])
    return _finite(lam), vecs


def eigenvalues(a) -> np.ndarray:
    """Eigenvalues alone of a symmetric matrix or a stack, ascending along the last
    axis, by LAPACK; only the lower triangle of a is read.  Raises NumericalError
    when the spectrum is not finite, as `jacobi_eigh` does."""
    try:
        lam = np.linalg.eigvalsh(np.asarray(a, dtype=float))
    except np.linalg.LinAlgError:
        lam = np.array([np.nan])
    return _finite(lam)


def _finite(lam: np.ndarray) -> np.ndarray:
    if not np.all(np.isfinite(lam)):
        raise NumericalError("eigendecomposition produced a non-finite spectrum")
    return lam


def invariants(hess: np.ndarray, w=None) -> tuple[np.ndarray, np.ndarray]:
    """S1 and S2 of the matrices given by frame blocks H (..., k, k) whose axis i
    stands for w_i directions of R^N (all ones by default, so H is the matrix):
        S1 = sum_i w_i H_ii,
        S2 = sum_{i<j} w_i w_j (H_ii H_jj - H_ij^2) + sum_i C(w_i, 2) H_ii^2.
    """
    w = (1,) * hess.shape[-1] if w is None else w
    diag = [hess[..., i, i] for i in range(len(w))]
    s1 = sum(wi * d for wi, d in zip(w, diag))
    # Left to right, the plane's S2 is uxx*uyy - uxy*uxy bit for bit.
    s2 = sum(w[i] * w[j] * diag[i] * diag[j] - w[i] * w[j] * hess[..., i, j] ** 2
             for i, j in itertools.combinations(range(len(w)), 2))
    return s1, s2 + sum(math.comb(wi, 2) * d**2 for wi, d in zip(w, diag) if wi > 1)


def cofactor(a: np.ndarray) -> np.ndarray:
    """The S2 cofactor (gradient of S_2 in the entries) tr(a) I - a of a stack (..., n, n)."""
    return np.trace(a, axis1=-2, axis2=-1)[..., None, None] * np.eye(a.shape[-1]) - a


def comatrix(a: np.ndarray) -> np.ndarray:
    """The Newton comatrix tr(a) a - a^2 of a stack (..., n, n); its trace is 2 S_2(a)."""
    return np.trace(a, axis1=-2, axis2=-1)[..., None, None] * a - a @ a


def _sign_code(sign: str) -> int:
    codes = {"positive": 0, "negative": 1, "indefinite": 2}
    if sign not in codes:
        raise InputError(f"sign must be one of {sorted(codes)}, got {sign!r}")
    return codes[sign]


def householder_q(x: np.ndarray) -> np.ndarray:
    """Orthogonal factor Q of x = QR for a stack x of shape (n, n, batch).

    The batch axis is last, so each step is a handful of array operations
    over the whole stack.  The reflectors follow LAPACK's dgeqrf/dorgqr
    conventions (dlarfg: beta = -sign(x_0) |x|, tau = 0 where the tail below
    the diagonal is zero), so Q equals np.linalg.qr's Q, column signs
    included, up to rounding.  Every sum runs over the matrix axes in a fixed
    order, so a matrix gets the same bits in any stack.
    """
    r = np.array(x, dtype=float, order="C")  # batch axis contiguous
    n = r.shape[0]
    reflectors = []
    for k in range(n - 1):
        alpha, tail = r[k, k], r[k + 1:, k]
        xnorm2 = tail[0] * tail[0]
        for t in tail[1:]:
            xnorm2 += t * t
        live = xnorm2 > 0.0
        beta = np.where(live, -np.copysign(np.sqrt(alpha * alpha + xnorm2), alpha), 1.0)
        tau = np.where(live, (beta - alpha) / beta, 0.0)
        u = tail * (1.0 / np.where(live, alpha - beta, 1.0))
        _reflect(r[k:, k + 1:], tau, u)
        reflectors.append((tau, u))
    q = np.zeros_like(r)
    q[np.arange(n), np.arange(n)] = 1.0
    for k in range(n - 2, -1, -1):
        tau, u = reflectors[k]
        _reflect(q[k:, k + 1:], tau, u)
        q[k, k] = 1.0 - tau
        q[k + 1:, k] = -tau * u
    return q


def _reflect(c: np.ndarray, tau: np.ndarray, u: np.ndarray) -> None:
    """c <- (I - tau [1, u][1, u]^T) c in place, for c of shape (m, cols, batch)."""
    d = c[0].copy()
    tmp = np.empty_like(d)
    for ui, row in zip(u, c[1:]):
        d += np.multiply(ui, row, out=tmp)
    d *= tau
    c[0] -= d
    for ui, row in zip(u, c[1:]):
        row -= np.multiply(ui, d, out=tmp)


def _sample_chunk(seed: int, dim: int, sign: str, scale: float, chunk: int,
                  lo: int, hi: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Samples lo..hi-1 of chunk `chunk`; the chunk's draws are made in full."""
    ss = np.random.SeedSequence([seed, dim, _sign_code(sign)], spawn_key=(chunk,))
    rng = np.random.default_rng(ss)
    size = CAMPAIGN_CHUNK
    if sign == "indefinite":
        g = rng.standard_normal((size, dim, dim))[lo:hi]
        a = 0.5 * scale * (g + g.transpose(0, 2, 1))
        lam, q = np.linalg.eigh(a)
    else:
        lam = rng.uniform(0.0, scale, size=(size, dim))[lo:hi]
        wipe = (rng.uniform(size=size) < ZERO_EIGENVALUE_PROB)[lo:hi]
        nzero = rng.integers(1, dim + 1, size=size)[lo:hi]
        lam[wipe[:, None] & (np.arange(dim)[None, :] < nzero[:, None])] = 0.0
        g = rng.standard_normal((size, dim, dim))[lo:hi]
        q = np.ascontiguousarray(householder_q(g.transpose(1, 2, 0)).transpose(2, 0, 1))
        a = (q * lam[:, None, :]) @ q.transpose(0, 2, 1)
        a = a + a.transpose(0, 2, 1)
        if sign == "negative":
            a *= -0.5
            lam = -lam
        else:
            a *= 0.5
    v = rng.standard_normal((size, dim))[lo:hi]
    w = np.einsum("bij,bi->bj", q, v)
    return a, v, lam, w


def sample_batch(seed: int, dim: int, sign: str, scale: float, count: int,
                 first: int = 0) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Samples first..first+count-1 of a seeded stream: (a, v, lam, w).

    Shapes are (count, n, n), (count, n), (count, n), (count, n); w = Q^T v is
    the probe in the eigenbasis Q of a, so a = Q diag(lam) Q^T up to rounding.
    positive/negative draws are +/- Q diag(lam) Q^T with lam in [0, scale] and,
    with probability ZERO_EIGENVALUE_PROB, at least one exact zero eigenvalue;
    their lam (negated for negative draws, unsorted) and Q (householder_q of
    a Gaussian) are the generator's own, so no eigensolver runs.  indefinite
    draws are plain symmetrized Gaussians scaled by `scale`, and their
    (lam, Q) come from np.linalg.eigh.
    The stream is cut into chunks of CAMPAIGN_CHUNK samples; chunk k draws
    from the k-th child of SeedSequence([seed, dim, sign]) and always draws
    a full chunk.  So sample i depends on (seed, dim, sign, scale, i) only:
    any prefix, and any piece drawn with `first`, is bit for bit the same
    as in one long batch.
    """
    if not (2 <= dim <= MAX_DIM):
        raise InputError(f"dim must be in [2, {MAX_DIM}], got {dim}")
    if not (math.isfinite(scale) and scale > 0):
        raise InputError("scale must be positive and finite")
    if count < 1 or first < 0:
        raise InputError(f"need count >= 1 and first >= 0, got {count} and {first}")
    stop = first + count
    pieces = []
    for k in range(first // CAMPAIGN_CHUNK, (stop - 1) // CAMPAIGN_CHUNK + 1):
        start = k * CAMPAIGN_CHUNK
        pieces.append(_sample_chunk(seed, dim, sign, scale, k, max(first - start, 0),
                                    min(stop - start, CAMPAIGN_CHUNK)))
    if len(pieces) == 1:
        return pieces[0]
    return tuple(np.concatenate(parts) for parts in zip(*pieces))
