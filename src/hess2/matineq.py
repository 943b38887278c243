"""Quadratic-form inequalities built on the Newton comatrix.

For a symmetric matrix A with comatrix B = tr(A)A - A^2 and a probe vector v,
the central object is the gap between

    rhs = 2(Av, Bv) - (Av, v) tr(B)   and   lhs = (1/3)|v|^2 {2 tr(BA) - tr(B) tr(A)}.

In the eigenbasis the gap has the closed form 2 sum_k w_k^2 S3^(k), with w the
rotated probe and S3^(k) the third elementary symmetric function of the
eigenvalues with the k-th one omitted.  The gap is therefore nonnegative for
positive semidefinite A (nonpositive for negative semidefinite A) and vanishes
identically in dimension 3, where no three eigenvalues remain.

The same functional, applied to the Hessian of a monotone composition U(u),
factors as U'(u)^3 times its value on the Hessian of u (gate G04a).  This
module samples both facts on plain arrays: stacks (..., n, n) of matrices with
stacks (..., n) of probes.  Every check bounds its error in units of
`inequality_scale`, 1 + |A|_F^3 |v|^2, the functional's degree in (A, v): a
bound relative to computed values would measure rounding noise where they
vanish identically (dimensions 2 and 3, low-rank matrices).  The CLI runs
`inequality_campaign` (`ineq`), and `in_positive_cone` and
`factorization_campaign` (`identity-scan`).  The one-pair routes and the
expansion-coefficient check (gate G04b) are test oracles, in `tests/oracles.py`.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .errors import InputError
# jacobi_eigh is unused here: perfbench's tracer wraps `matineq.jacobi_eigh` by name.
from .symmat import CAMPAIGN_CHUNK, comatrix, jacobi_eigh, sample_batch  # noqa: F401

SIGN_RTOL = 1e-12  # eigenvalues within this share of the spectrum's scale count as zero
FACTORIZATION_DIMS = (2, 3, 4, 5, 6, 7, 8)
_OVERFLOW = "{} overflows the residuals or their scale 1 + |A|_F^3 |v|^2{}"
_UNDERFLOW = "{} underflows |A|_F^3 |v|^2 in every sample{}, so every check would pass vacuously"


def _dot(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    return np.einsum("...i,...i->...", x, y)


def _sides(a: np.ndarray, v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """lhs and rhs of the inequality; works on stacks (..., n, n), (..., n)."""
    tra = np.trace(a, axis1=-2, axis2=-1)
    b = comatrix(a)
    trb = np.trace(b, axis1=-2, axis2=-1)
    trba = np.einsum("...ij,...ji->...", b, a)
    av = np.einsum("...ij,...j->...i", a, v)
    bv = np.einsum("...ij,...j->...i", b, v)
    lhs = (_dot(v, v) / 3.0) * (2.0 * trba - trb * tra)
    rhs = 2.0 * _dot(av, bv) - _dot(av, v) * trb
    return lhs, rhs


def comatrix_functional(a: np.ndarray, v: np.ndarray) -> np.ndarray:
    """lhs - rhs of the inequality (nonpositive on the positive cone)."""
    return np.subtract(*_sides(a, v))


def _closed_residual(lam: np.ndarray, w: np.ndarray) -> np.ndarray:
    """2 sum_k w_k^2 S3^(k)(lam) for stacked eigenvalues/rotated probes.

    Odd in lam bit for bit: every cube is a product, and IEEE rounding is
    symmetric in sign, so -lam gives exactly the negated residual."""
    s1 = np.sum(lam, axis=-1)
    p2 = np.sum(lam * lam, axis=-1)
    p3 = np.sum(lam * lam * lam, axis=-1)
    s2 = 0.5 * (s1 * s1 - p2)
    s3 = (s1 * s1 * s1 - 3.0 * s1 * p2 + 2.0 * p3) / 6.0
    s1k = s1[..., None] - lam
    s2k = s2[..., None] - lam * s1k
    s3k = s3[..., None] - lam * s2k
    return 2.0 * np.einsum("...k,...k->...", w * w, s3k)


def _form_size(a: np.ndarray, v: np.ndarray) -> np.ndarray:
    """|A|_F^3 |v|^2, the degree of the functional in (A, v)."""
    return np.linalg.norm(a, axis=(-2, -1)) ** 3 * _dot(v, v)


def inequality_scale(a: np.ndarray, v: np.ndarray) -> np.ndarray:
    """1 + |A|_F^3 |v|^2, the unit of every error bound on the functional."""
    return 1.0 + _form_size(a, v)


def _range_flags(a, v, direct, closed, size) -> tuple[bool, bool, bool]:
    """(a residual or 1 + size overflows; every |A|_F^3 |v|^2 is below the smallest
    normal float; the same, with a nonzero matrix and probe in some pair)."""
    tiny = bool(np.all(size < np.finfo(float).tiny))
    return (not all(np.isfinite(x).all() for x in (direct, closed, size)), tiny,
            tiny and bool(np.any(np.any(a, axis=(-2, -1)) & np.any(v, axis=-1))))


def in_positive_cone(lam: np.ndarray) -> np.ndarray:
    """The positive-cone rule on ascending spectra (..., n): the least eigenvalue
    is at least -SIGN_RTOL * max(1, |lam|_max)."""
    lam = np.asarray(lam)
    return lam[..., 0] >= -SIGN_RTOL * np.maximum(1.0, np.max(np.abs(lam), axis=-1))


def _rows_ok(rel, disc, sign, dim: int) -> np.ndarray:
    """The one residual check, per row of a campaign chunk, on rel = direct / scl and disc = |direct - closed| / scl in units of
    scl = inequality_scale: disc <= 1e-9; rel >= -1e-9 on "positive" rows and
    <= 1e-9 on "negative" ones (`sign`: one label or one per row);
    |rel| <= 1e-10 in dimension 3, where the residual vanishes for every
    symmetric matrix."""
    ok = disc <= 1e-9
    ok &= (sign != "positive") | (rel >= -1e-9)
    ok &= (sign != "negative") | (rel <= 1e-9)
    return ok & (np.abs(rel) <= 1e-10) if dim == 3 else ok


class CampaignWitness(NamedTuple):
    """The worst sample of a dimension: sample_batch(seed, dim, sign, scale, 1,
    first=index) draws it again, and its residuals are reproduced bit for bit."""

    index: int
    matrix: np.ndarray       # (n, n)
    probe: np.ndarray        # (n,)
    residual_direct: float
    residual_closed: float


class DimCampaignSummary(NamedTuple):
    """Per-dimension outcome of an inequality sampling campaign."""

    dim: int
    count: int
    min_residual_over_scale: float
    max_residual_over_scale: float
    max_discrepancy_over_scale: float
    ok: bool
    witness: CampaignWitness


class CampaignResult(NamedTuple):
    """Inequality campaign outcome, one summary per dimension."""

    seed: int
    sign: str
    summaries: tuple[DimCampaignSummary, ...]

    @property
    def ok(self) -> bool:
        return all(s.ok for s in self.summaries)


def _campaign_residuals(a: np.ndarray, v: np.ndarray, lam: np.ndarray, w: np.ndarray):
    """lhs, rhs, direct residual, closed residual from (lam, w) only, |A|_F^3 |v|^2."""
    with np.errstate(over="ignore", invalid="ignore"):
        lhs, rhs = _sides(a, v)
        return lhs, rhs, rhs - lhs, _closed_residual(lam, w), _form_size(a, v)


def inequality_campaign(seed: int, dims, count: int, sign: str,
                        scale: float = 1.0, records=None) -> CampaignResult:
    """Run the comatrix inequality over seeded samples for each dimension.

    Each dimension streams samples 0..count-1 through sample_batch in chunks
    of CAMPAIGN_CHUNK, so memory does not grow with count and the records of a
    smaller count are a prefix of those of a larger one.  When given,
    records(dim, first, columns) receives each chunk's finite columns (lhs,
    rhs, residual_direct, residual_closed, scale) for samples first, first + 1,
    ... in index order.  The direct residual reads the matrices and probes
    only, the closed one the spectra and rotated probes of sample_batch (the
    generator's own for semidefinite draws, np.linalg.eigh for indefinite
    ones).  A dimension is ok when every sample passes `_rows_ok` with `sign`
    as its label.  Each summary names its worst sample (least residual/scale
    on the positive cone, greatest on the negative, greatest |residual|/scale
    on indefinite draws; the first on a tie) as a CampaignWitness.  Raises
    InputError, possibly after records has received chunks, when a dimension
    breaks the range rules `_range_flags`: a residual or its
    scale overflows, or |A|_F^3 |v|^2 is below the smallest normal float in
    every sample while some sample has a nonzero matrix and probe.
    """
    if count < 1:
        raise InputError("count must be >= 1")
    summaries = []
    for dim in dims:
        lo, hi, disc_max, ok = np.inf, -np.inf, 0.0, True
        worst, witness, all_tiny, any_live = -np.inf, None, True, False
        for first in range(0, count, CAMPAIGN_CHUNK):
            a, v, lam, w = sample_batch(seed, dim, sign, scale,
                                        min(CAMPAIGN_CHUNK, count - first), first)
            lhs, rhs, direct, closed, size = _campaign_residuals(a, v, lam, w)
            scl = 1.0 + size
            over, tiny, live = _range_flags(a, v, direct, closed, size)
            if over:
                raise InputError(_OVERFLOW.format(f"scale {scale:g}", f" in dim {dim}"))
            all_tiny, any_live = all_tiny and tiny, any_live or live
            rel, disc = direct / scl, np.abs(direct - closed) / scl
            ok = ok and bool(np.all(_rows_ok(rel, disc, sign, dim)))
            lo, hi = min(lo, float(np.min(rel))), max(hi, float(np.max(rel)))
            disc_max = max(disc_max, float(np.max(disc)))
            key = -rel if sign == "positive" else rel if sign == "negative" else np.abs(rel)
            i = int(np.argmax(key))
            if key[i] > worst:
                worst = key[i]
                witness = CampaignWitness(
                    index=first + i, matrix=a[i].copy(), probe=v[i].copy(),
                    residual_direct=float(direct[i]), residual_closed=float(closed[i]))
            if records is not None:
                records(dim, first, (lhs, rhs, direct, closed, scl))
        if all_tiny and any_live:
            raise InputError(_UNDERFLOW.format(f"scale {scale:g}", f" of dim {dim}"))
        summaries.append(DimCampaignSummary(
            dim=dim, count=count, min_residual_over_scale=lo, max_residual_over_scale=hi,
            max_discrepancy_over_scale=disc_max, ok=ok, witness=witness))
    return CampaignResult(seed=seed, sign=sign, summaries=tuple(summaries))


def factorization_campaign(seed: int, count: int) -> float:
    """Sample (A, v, U', U'') tuples and verify the cubic factorization (gate G04a)
    M(U'A + U'' v (x) v, v) = U'^3 M(A, v), with M = `comatrix_functional`.

    Each dimension of FACTORIZATION_DIMS draws max(count // 7, 1) tuples, with
    U' of either sign, in chunks of CAMPAIGN_CHUNK from one seeded stream, so
    memory does not grow with count.  Returns the worst |direct - factored| over
    the larger `inequality_scale` of the composed matrix and of U'A.
    """
    rng = np.random.default_rng([seed, 97])
    worst = 0.0
    per_dim = max(count // len(FACTORIZATION_DIMS), 1)
    for dim in FACTORIZATION_DIMS:
        for first in range(0, per_dim, CAMPAIGN_CHUNK):
            n = min(CAMPAIGN_CHUNK, per_dim - first)
            g = rng.standard_normal((n, dim, dim))
            a = 0.5 * (g + g.transpose(0, 2, 1))
            v = rng.standard_normal((n, dim))
            up = rng.uniform(0.2, 2.0, size=n) * rng.choice([-1.0, 1.0], size=n)
            us = rng.uniform(-2.0, 2.0, size=n)
            hess = up[:, None, None] * a + us[:, None, None] * np.einsum("bi,bj->bij", v, v)
            m_direct = comatrix_functional(hess, v)
            m_factored = up * up * up * comatrix_functional(a, v)
            scale = np.maximum(inequality_scale(hess, v),
                               inequality_scale(up[:, None, None] * a, v))
            worst = max(worst, float(np.max(np.abs(m_direct - m_factored) / scale)))
    return worst
