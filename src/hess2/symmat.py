"""Algebra of small real symmetric matrices.

Spectra, elementary symmetric functions of eigenvalues, the rank-2 cofactor
matrix, the Newton comatrix tr(A)A - A^2, omitted symmetric functions, and a
seeded semidefinite sampler.  Every eigendecomposition in the package runs
here, by LAPACK: `jacobi_eigh` for one matrix or a stack, and the sampler's
own batched call for indefinite draws.  Dimensions are capped at 8;
everything is dense and deterministic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InputError, NumericalError

MAX_DIM = 8

# Probability that a sampled semidefinite matrix has at least one zero
# eigenvalue, so suites exercise the cone boundary.
ZERO_EIGENVALUE_PROB = 0.2


@dataclass(frozen=True)
class SymmetricMatrix:
    """Dense real symmetric matrix stored as its row-major upper triangle."""

    dim: int
    upper: np.ndarray  # packed upper triangle, length dim*(dim+1)//2

    def __post_init__(self):
        if not (2 <= self.dim <= MAX_DIM):
            raise InputError(f"dim must be in [2, {MAX_DIM}], got {self.dim}")
        upper = np.asarray(self.upper, dtype=float)
        if upper.shape != (self.dim * (self.dim + 1) // 2,):
            raise InputError("packed upper triangle has wrong length")
        if not np.all(np.isfinite(upper)):
            raise InputError("matrix entries must be finite")
        object.__setattr__(self, "upper", upper)

    @classmethod
    def from_full(cls, a) -> "SymmetricMatrix":
        """Build from a square array; only the upper triangle is read."""
        a = np.asarray(a, dtype=float)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise InputError("expected a square matrix")
        n = a.shape[0]
        iu = np.triu_indices(n)
        return cls(dim=n, upper=a[iu].copy())

    @classmethod
    def from_diag(cls, values) -> "SymmetricMatrix":
        return cls.from_full(np.diag(np.asarray(values, dtype=float)))

    @classmethod
    def identity(cls, n: int) -> "SymmetricMatrix":
        return cls.from_full(np.eye(n))

    def full(self) -> np.ndarray:
        """Unpack to a dense (dim, dim) symmetric array."""
        a = np.zeros((self.dim, self.dim))
        iu = np.triu_indices(self.dim)
        a[iu] = self.upper
        a.T[iu] = self.upper
        return a

    def trace(self) -> float:
        idx = np.cumsum([0] + list(range(self.dim, 1, -1)))
        return float(self.upper[idx].sum())

    def norm(self) -> float:
        return float(np.linalg.norm(self.full()))


@dataclass(frozen=True)
class Spectrum:
    """Eigenvalues of a symmetric matrix, sorted ascending."""

    eigenvalues: np.ndarray

    def __post_init__(self):
        lam = np.asarray(self.eigenvalues, dtype=float)
        if np.any(np.diff(lam) < 0):
            raise InputError("eigenvalues must be sorted ascending")
        object.__setattr__(self, "eigenvalues", lam)

    @property
    def dim(self) -> int:
        return self.eigenvalues.size


@dataclass(frozen=True)
class SemidefSample:
    """A seeded semidefinite draw together with its provenance."""

    matrix: SymmetricMatrix
    sign: str  # "positive" | "negative"
    seed: int
    scale: float


def jacobi_eigh(a) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a symmetric matrix, or of a stack of them, by LAPACK.

    Returns (lam, vecs) with lam ascending along the last axis and
    a = vecs @ diag(lam) @ vecs.T; only the lower triangle of a is read.
    Raises NumericalError when the spectrum is not finite.  The name outlives
    the cyclic-Jacobi solver this call replaced, because perfbench's tracer
    wraps `jacobi_eigh` by name in every module that imports it.
    """
    try:
        lam, vecs = np.linalg.eigh(np.asarray(a, dtype=float))
    except np.linalg.LinAlgError:   # LAPACK's answer to some non-finite input
        lam = vecs = np.array([np.nan])
    if not np.all(np.isfinite(lam)):
        raise NumericalError("eigendecomposition produced a non-finite spectrum")
    return lam, vecs


def spectrum(a: SymmetricMatrix) -> Spectrum:
    """Eigenvalues of a, ascending, with a reconstruction cross-check."""
    full = a.full()
    lam, vecs = jacobi_eigh(full)
    recon = vecs @ np.diag(lam) @ vecs.T
    tol = 1e-10 * max(np.linalg.norm(full), 1e-300)
    if np.linalg.norm(recon - full) > tol:
        raise NumericalError("eigendecomposition reconstruction check failed")
    return Spectrum(eigenvalues=lam)


def elem_sym_from_eigenvalues(lam: np.ndarray, k: int) -> float:
    """S_k of a set of eigenvalues via the standard partial-sum recursion."""
    lam = np.asarray(lam, dtype=float)
    n = lam.size
    if k == 0:
        return 1.0
    if k > n:
        return 0.0
    e = np.zeros(k + 1)
    e[0] = 1.0
    for i in range(n):
        top = min(i + 1, k)
        for j in range(top, 0, -1):
            e[j] += lam[i] * e[j - 1]
    return float(e[k])


def _elem_sym_newton(a: np.ndarray, k: int) -> float:
    """S_k from traces of matrix powers (characteristic-polynomial route)."""
    n = a.shape[0]
    power = np.eye(n)
    p = np.empty(k + 1)
    for j in range(1, k + 1):
        power = power @ a
        p[j] = np.trace(power)
    e = np.empty(k + 1)
    e[0] = 1.0
    for m in range(1, k + 1):
        acc = 0.0
        for j in range(1, m + 1):
            acc += (-1.0) ** (j - 1) * e[m - j] * p[j]
        e[m] = acc / m
    return float(e[k])


def elem_sym(a: SymmetricMatrix, k: int) -> float:
    """k-th elementary symmetric function of the eigenvalues of a.

    Computed from characteristic-polynomial coefficients and cross-checked
    against the eigenvalue-subset recursion to 1e-9 relative.
    """
    if not (0 <= k <= a.dim):
        raise InputError(f"order k must be in [0, {a.dim}], got {k}")
    full = a.full()
    primary = _elem_sym_newton(full, k) if k > 0 else 1.0
    lam, _ = jacobi_eigh(full)
    check = elem_sym_from_eigenvalues(lam, k)
    scale = max(1.0, abs(primary), abs(check), float(np.linalg.norm(full)) ** max(k, 1))
    if abs(primary - check) > 1e-9 * scale:
        raise NumericalError(
            f"elementary symmetric function cross-check failed: {primary} vs {check}")
    return primary


def cofactor_s2(a: SymmetricMatrix) -> SymmetricMatrix:
    """Gradient of S_2 with respect to the matrix entries: (tr a) I - a."""
    full = a.full()
    return SymmetricMatrix.from_full(np.trace(full) * np.eye(a.dim) - full)


def newton_comatrix(a: SymmetricMatrix) -> SymmetricMatrix:
    """The comatrix B = tr(a) a - a^2, whose trace is twice S_2(a)."""
    full = a.full()
    return SymmetricMatrix.from_full(np.trace(full) * full - full @ full)


def omitted_sym(spec: Spectrum, k: int, m: int) -> float:
    """S_k of the eigenvalue tuple with the m-th (1-based) entry removed.

    Returns 0 when fewer than k eigenvalues remain.
    """
    n = spec.dim
    if not (1 <= m <= n):
        raise InputError(f"index m must be in [1, {n}], got {m}")
    if n - 1 < k:
        return 0.0
    rest = np.delete(spec.eigenvalues, m - 1)
    return elem_sym_from_eigenvalues(rest, k)


def _sign_code(sign: str) -> int:
    codes = {"positive": 0, "negative": 1, "indefinite": 2}
    if sign not in codes:
        raise InputError(f"sign must be one of {sorted(codes)}, got {sign!r}")
    return codes[sign]


def sample_batch(seed: int, dim: int, sign: str, scale: float,
                 count: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Seeded batch (a, v, lam, w) of matrices, probes and their spectra.

    Shapes are (count, n, n), (count, n), (count, n), (count, n); w = Q^T v is
    the probe in the eigenbasis Q of a, so a = Q diag(lam) Q^T up to rounding.
    positive/negative draws are +/- Q diag(lam) Q^T with lam in [0, scale] and,
    with probability ZERO_EIGENVALUE_PROB, at least one exact zero eigenvalue;
    their lam (negated for negative draws, unsorted) and Q are the generator's
    own, so no eigensolver runs.  indefinite draws are plain symmetrized
    Gaussians scaled by `scale`, and their (lam, Q) come from np.linalg.eigh.
    Deterministic for fixed (seed, dim, sign, scale, count).  A prefix is not
    stable: sample i changes with `count`, because each quantity is drawn for
    the whole batch before the next one.
    """
    if not (2 <= dim <= MAX_DIM):
        raise InputError(f"dim must be in [2, {MAX_DIM}], got {dim}")
    if not (math.isfinite(scale) and scale > 0):
        raise InputError("scale must be positive and finite")
    rng = np.random.default_rng([seed, dim, _sign_code(sign)])
    if sign == "indefinite":
        g = rng.standard_normal((count, dim, dim))
        a = 0.5 * scale * (g + g.transpose(0, 2, 1))
        lam, q = np.linalg.eigh(a)
    else:
        lam = rng.uniform(0.0, scale, size=(count, dim))
        wipe = rng.uniform(size=count) < ZERO_EIGENVALUE_PROB
        nzero = rng.integers(1, dim + 1, size=count)
        cols = np.arange(dim)
        zero_mask = wipe[:, None] & (cols[None, :] < nzero[:, None])
        lam[zero_mask] = 0.0
        g = rng.standard_normal((count, dim, dim))
        q, _ = np.linalg.qr(g)
        del g
        a = np.einsum("bik,bk,bjk->bij", q, lam, q)
        a = a + a.transpose(0, 2, 1)
        if sign == "negative":
            a *= -0.5
            lam = -lam
        else:
            a *= 0.5
    v = rng.standard_normal((count, dim))
    w = np.einsum("bij,bi->bj", q, v)
    return a, v, lam, w


def sample_semidefinite(seed: int, dim: int, sign: str, scale: float) -> SemidefSample:
    """One deterministic semidefinite draw; see sample_batch for the recipe."""
    if sign not in ("positive", "negative"):
        raise InputError("sample sign must be 'positive' or 'negative'")
    a = sample_batch(seed, dim, sign, scale, 1)[0]
    sample = SemidefSample(matrix=SymmetricMatrix.from_full(a[0]), sign=sign,
                           seed=seed, scale=scale)
    lam = spectrum(sample.matrix).eigenvalues
    if (lam[0] if sign == "positive" else -lam[-1]) < -1e-12 * scale:
        raise NumericalError(f"{sign} semidefinite sample violates its cone tolerance")
    return sample
