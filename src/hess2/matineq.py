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
factors as U'(u)^3 times its value on the Hessian of u: all mixed expansion
coefficients in (U', U'') cancel.  This module evaluates and verifies both
facts pointwise and at sampling scale.  Every function takes plain arrays: one
matrix (n, n) with one vector (n,), or stacks (..., n, n) and (..., n).  The
CLI runs `inequality_campaign` (`ineq`) and `in_positive_cone`
(`identity-scan`).  The one-pair functions (`comatrix_inequality`,
`negative_semidefinite_inequality`, `contraction_scalars`,
`composed_hessian_functional`, `expansion_coefficients`) serve library
callers, the tests and gate G04b; the first two are the campaign's route on
a stack of one and share its residual check, `_rows_ok`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InputError, NumericalError, PreconditionError, SingularTransformError
from .symmat import (CAMPAIGN_CHUNK, cofactor, comatrix, eigenvalues, jacobi_eigh,
                     sample_batch, square_matrix)

#: (alpha, beta) probe pairs; unisolvent for {a^3, a^2 b, a b^2, b^3}.
EXPANSION_PROBES = ((1.0, 0.0), (0.0, 1.0), (1.0, 1.0), (2.0, 1.0))
SIGN_RTOL = 1e-12  # eigenvalues within this share of the spectrum's scale count as zero
FACTORIZATION_DIMS = (2, 3, 4, 5, 6, 7, 8)


@dataclass(frozen=True)
class InequalityRecord:
    """The comatrix inequality on a (matrix, vector) pair: each field is a number,
    or an array over a stack of pairs."""

    lhs: np.ndarray
    rhs: np.ndarray
    residual_direct: np.ndarray   # rhs - lhs
    residual_closed: np.ndarray   # eigenbasis closed form
    matrix_sign: np.ndarray       # "positive" | "negative" | "indefinite"


@dataclass(frozen=True)
class ContractionScalars:
    """The scalars r=|v|^2, s=tr A, q=<Av,v>, t=|Av|^2 of a contraction identity set."""

    r: np.ndarray
    s: np.ndarray
    q: np.ndarray
    t: np.ndarray


@dataclass(frozen=True)
class ExpansionCoeffs:
    """Coefficients of a^3, a^2 b, a b^2, b^3 in the composed-Hessian functional."""

    m30: np.ndarray
    m21: np.ndarray
    m12: np.ndarray
    m03: np.ndarray


def _probe(a: np.ndarray, v) -> np.ndarray:
    """v as a finite float probe of shape a.shape[:-1]; raises InputError otherwise."""
    v = np.asarray(v, dtype=float)
    if v.shape != a.shape[:-1]:
        raise InputError(f"vector has shape {v.shape}, expected {a.shape[:-1]}")
    if not np.all(np.isfinite(v)):
        raise InputError("probe vector must be finite")
    return v


def _outer(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    return x[..., :, None] * y[..., None, :]


def _dot(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    return np.einsum("...i,...i->...", x, y)


def _frob(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    return np.sum(x * y, axis=(-2, -1))


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
    lhs, rhs = _sides(a, v)
    return lhs - rhs


def _closed_residual(lam: np.ndarray, w: np.ndarray) -> np.ndarray:
    """2 sum_k w_k^2 S3^(k)(lam) for stacked eigenvalues/rotated probes."""
    s1 = np.sum(lam, axis=-1)
    p2 = np.sum(lam * lam, axis=-1)
    p3 = np.sum(lam ** 3, axis=-1)
    s2 = 0.5 * (s1 * s1 - p2)
    s3 = (s1 ** 3 - 3.0 * s1 * p2 + 2.0 * p3) / 6.0
    s1k = s1[..., None] - lam
    s2k = s2[..., None] - lam * s1k
    s3k = s3[..., None] - lam * s2k
    return 2.0 * np.einsum("...k,...k->...", w * w, s3k)


def _form_size(a: np.ndarray, v: np.ndarray) -> np.ndarray:
    """|A|_F^3 |v|^2, the degree of each side of the inequality in (A, v)."""
    return np.linalg.norm(a, axis=(-2, -1)) ** 3 * _dot(v, v)


def inequality_scale(a: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Tolerance scale 1 + |A|_F^3 |v|^2."""
    return 1.0 + _form_size(a, v)


def in_positive_cone(lam: np.ndarray) -> np.ndarray:
    """The positive-cone rule on ascending spectra (..., n): the least eigenvalue
    is at least -SIGN_RTOL * max(1, |lam|_max)."""
    lam = np.asarray(lam)
    return lam[..., 0] >= -SIGN_RTOL * np.maximum(1.0, np.max(np.abs(lam), axis=-1))


def sign_of_spectrum(lam: np.ndarray) -> np.ndarray:
    """The one sign rule, per ascending spectrum (..., n): eigenvalues within
    SIGN_RTOL * max(1, |lam|_max) of zero count as zero; positive wins a tie.
    One label for one spectrum, an array of labels for a stack."""
    lam = np.asarray(lam)
    return np.where(in_positive_cone(lam), "positive",
                    np.where(in_positive_cone(-lam[..., ::-1]), "negative", "indefinite"))[()]


def _rows_ok(direct, closed, scl, sign, dim: int, sides=None) -> np.ndarray:
    """The one residual check, per row of a campaign chunk or a one-pair record:
    |direct - closed| <= 1e-9 * scl, and also <= 1e-9 * max(1, |lhs|, |rhs|)
    where the one-pair route passes its `sides` (lhs, rhs; the campaign does
    not, as those sides vanish identically in dimension 2 and on low-rank
    draws, so away from unit scale that bound fails on rounding noise);
    direct >= -1e-9 * scl on "positive" rows and <= 1e-9 * scl on "negative"
    ones (`sign`: one label or one per row); |direct| <= 1e-10 * scl in
    dimension 3, where the residual vanishes for every symmetric matrix."""
    gap = np.abs(direct - closed)
    rel = direct / scl
    ok = gap / scl <= 1e-9
    if sides is not None:
        lhs, rhs = sides
        ok &= gap <= 1e-9 * np.maximum(1.0, np.maximum(np.abs(lhs), np.abs(rhs)))
    ok &= (sign != "positive") | (rel >= -1e-9)
    ok &= (sign != "negative") | (rel <= 1e-9)
    return ok & (np.abs(rel) <= 1e-10) if dim == 3 else ok


def comatrix_inequality(a, v) -> InequalityRecord:
    """Evaluate both sides and both residual routes on a (matrix, vector) pair or
    a stack of them: the campaign's route on a stack of one.

    jacobi_eigh gives (lam, Q) and the rotated probe w = Q^T v; the direct
    residual reads (a, v) only, the closed one (lam, w) only, and
    sign_of_spectrum(lam) labels each row.  Raises NumericalError when a row
    fails the residual check `_rows_ok`, with the one-pair agreement bound.
    """
    a = square_matrix(a)
    return _record(a, _probe(a, v), *jacobi_eigh(a))


def negative_semidefinite_inequality(a, v) -> InequalityRecord:
    """comatrix_inequality for negative semidefinite input, which is checked first:
    PreconditionError for any other matrix."""
    a = square_matrix(a)
    lam, vecs = jacobi_eigh(a)
    if not np.all(in_positive_cone(-lam[..., ::-1])):
        raise PreconditionError("input matrix is not negative semidefinite")
    return _record(a, _probe(a, v), lam, vecs)


def _record(a: np.ndarray, v: np.ndarray, lam: np.ndarray, vecs: np.ndarray) -> InequalityRecord:
    lhs, rhs, direct, closed = _campaign_residuals(a, v, lam,
                                                   np.einsum("...ij,...i->...j", vecs, v))
    sign = sign_of_spectrum(lam)
    bad = ~_rows_ok(direct, closed, inequality_scale(a, v), sign, a.shape[-1], (lhs, rhs))
    if np.any(bad):
        raise NumericalError(
            f"residual check failed on {np.asarray(sign)[bad]} input: direct residual "
            f"{np.asarray(direct)[bad]}, closed residual {np.asarray(closed)[bad]}")
    return InequalityRecord(lhs=lhs, rhs=rhs, residual_direct=direct,
                            residual_closed=closed, matrix_sign=sign)


def contraction_scalars(a, v) -> ContractionScalars:
    """Compute (r, s, q, t) and verify the rank-one contraction identities.

    With P = v (x) v and C = r I - P, the verified identities are
      S2'(A) : (AP + PA) = 2sq - 2t,      C : A^2 = r tr(A^2) - t,
      S2'(A) : (Av)(v)^T  = sq - t,       C : (Av)(Av)^T = rt - q^2,
      C : (AP + PA) = 0,                  C : P^2 = 0,
    each to 1e-10 relative.
    """
    a = square_matrix(a)
    v = _probe(a, v)
    av = np.einsum("...ij,...j->...i", a, v)
    r, s, q, t = _dot(v, v), np.trace(a, axis1=-2, axis2=-1), _dot(av, v), _dot(av, av)
    s2ij = cofactor(a)
    proj = _outer(v, v)
    comp = cofactor(proj)   # r I - P, as tr P = r
    ap_pa = a @ proj + proj @ a
    checks = [
        (_frob(s2ij, ap_pa), 2.0 * s * q - 2.0 * t),
        (_frob(comp, a @ a), r * np.trace(a @ a, axis1=-2, axis2=-1) - t),
        (_frob(s2ij, _outer(av, v)), s * q - t),
        (_frob(comp, _outer(av, av)), r * t - q * q),
        (_frob(comp, ap_pa), 0.0),
        (_frob(comp, proj @ proj), 0.0),
    ]
    scale = np.maximum(np.maximum(1.0, np.linalg.norm(a, axis=(-2, -1)) ** 2 * np.maximum(r, 1.0)),
                       r ** 2)
    for got, expect in checks:
        if np.any(np.abs(got - expect) > 1e-10 * np.maximum(scale, np.abs(expect))):
            raise NumericalError(f"contraction identity failed: {got} != {expect}")
    return ContractionScalars(r=r, s=s, q=q, t=t)


def composed_hessian_functional(hess_composed, grad_u, u_prime,
                                u_second) -> tuple[np.ndarray, np.ndarray]:
    """Evaluate the functional on D^2 U(u) directly and in factored form.

    The composed Hessian must equal U' A + U'' grad (x) grad for the Hessian A
    of the underlying function, recovered here by inverting that relation;
    U' and U'' are numbers, or arrays over a stack.  Returns (m_direct,
    m_factored) with m_factored = U'^3 times the functional of A; the two
    agree to 1e-8 relative, and m_direct is nonpositive wherever the composed
    Hessian is positive semidefinite and U is increasing (U' > 0).
    """
    h = square_matrix(hess_composed)
    g = _probe(h, grad_u)
    up, us = np.asarray(u_prime, dtype=float), np.asarray(u_second, dtype=float)
    if np.any(np.abs(up) < 1e-10):
        raise SingularTransformError("transform derivative vanishes; cannot factor")
    a_u = (h - us[..., None, None] * _outer(g, g)) / up[..., None, None]
    m_direct = comatrix_functional(h, g)
    m_factored = up ** 3 * comatrix_functional(a_u, g)
    scale = np.maximum(1.0, np.maximum(np.abs(m_direct), np.abs(m_factored)))
    if np.any(np.abs(m_direct - m_factored) > 1e-8 * scale):
        raise NumericalError(
            f"factorization mismatch: direct {m_direct} vs factored {m_factored}")
    cone = (up > 0) & in_positive_cone(eigenvalues(h))
    if np.any(cone & (m_direct > 1e-9 * inequality_scale(h, g))):
        raise NumericalError(
            f"functional should be nonpositive on the positive cone, got {m_direct}")
    return m_direct, m_factored


def expansion_coefficients(a_u, grad_u) -> ExpansionCoeffs:
    """Fit the cubic (alpha, beta) expansion of the composed functional.

    Probes the functional at EXPANSION_PROBES, solves the 4x4 monomial system,
    and verifies that all coefficients except the pure alpha^3 one vanish and
    that the alpha^3 coefficient matches a direct evaluation.
    """
    a = square_matrix(a_u)
    g = _probe(a, grad_u)
    proj = _outer(g, g)
    vander = np.array([[al ** 3, al ** 2 * be, al * be ** 2, be ** 3]
                       for al, be in EXPANSION_PROBES])
    values = np.stack([comatrix_functional(al * a + be * proj, g) for al, be in EXPANSION_PROBES])
    m30, m21, m12, m03 = np.linalg.solve(vander, values.reshape(4, -1)).reshape(values.shape)
    tol = 1e-8 * np.maximum(1.0, np.abs(m30))
    for name, val in (("m21", m21), ("m12", m12), ("m03", m03),
                      ("m30 - direct value", m30 - comatrix_functional(a, g))):
        if np.any(np.abs(val) > tol):
            raise NumericalError(f"expansion coefficient {name} = {val} exceeds {tol}")
    return ExpansionCoeffs(m30=m30, m21=m21, m12=m12, m03=m03)


@dataclass(frozen=True)
class CampaignWitness:
    """The worst sample of a dimension: sample_batch(seed, dim, sign, scale, 1,
    first=index) draws it again, and its residuals are reproduced bit for bit."""

    index: int
    matrix: np.ndarray       # (n, n)
    probe: np.ndarray        # (n,)
    residual_direct: float
    residual_closed: float


@dataclass(frozen=True)
class DimCampaignSummary:
    """Per-dimension outcome of an inequality sampling campaign."""

    dim: int
    count: int
    min_residual_over_scale: float
    max_residual_over_scale: float
    max_discrepancy_over_scale: float
    ok: bool
    witness: CampaignWitness


@dataclass(frozen=True)
class CampaignResult:
    """Inequality campaign outcome, one summary per dimension."""

    seed: int
    sign: str
    summaries: tuple[DimCampaignSummary, ...]

    @property
    def ok(self) -> bool:
        return all(s.ok for s in self.summaries)


def _campaign_residuals(a: np.ndarray, v: np.ndarray, lam: np.ndarray, w: np.ndarray):
    """Direct residuals from (a, v) only, closed ones from (lam, w) only."""
    lhs, rhs = _sides(a, v)
    closed = _closed_residual(lam, w)
    return lhs, rhs, rhs - lhs, closed


def inequality_campaign(seed: int, dims, count: int, sign: str,
                        scale: float = 1.0, records=None) -> CampaignResult:
    """Run the comatrix inequality over seeded samples for each dimension.

    Each dimension streams samples 0..count-1 in chunks of CAMPAIGN_CHUNK
    through sample_batch, so memory does not grow with count, and the records
    of a smaller count are a prefix of those of a larger one.  When given,
    records(dim, first, columns) receives each chunk's columns (lhs, rhs,
    residual_direct, residual_closed, scale) for samples first, first + 1, ...
    in index order, once the chunk's values are known to be finite.  The
    direct residual sees only the matrices and probes;
    the closed one sees only the spectra and rotated probes that sample_batch
    returns: the generator's own spectrum for semidefinite draws,
    np.linalg.eigh for indefinite ones.  A dimension is ok when every
    sample passes `_rows_ok`, the residual check of the one-pair route, with
    `sign` as its label and without the one-pair agreement bound.  Each summary names its worst sample (least
    residual/scale on the positive cone, greatest on the negative, greatest
    |residual|/scale on indefinite draws; the first one on a tie) as a
    CampaignWitness.  Raises InputError when `scale` is so large that a
    residual or its scale 1 + |A|_F^3 |v|^2 overflows, or so small that
    |A|_F^3 |v|^2 is below the smallest normal float in every sample of a
    dimension that draws a nonzero matrix: its checks would read underflow.
    Either may be raised after records has received some chunks.
    """
    if count < 1:
        raise InputError("count must be >= 1")
    summaries = []
    for dim in dims:
        lo, hi, disc_max, ok = np.inf, -np.inf, 0.0, True
        all_tiny, any_nonzero = True, False
        worst, witness = -np.inf, None
        for first in range(0, count, CAMPAIGN_CHUNK):
            a, v, lam, w = sample_batch(seed, dim, sign, scale,
                                        min(CAMPAIGN_CHUNK, count - first), first)
            with np.errstate(over="ignore", invalid="ignore"):
                lhs, rhs, direct, closed = _campaign_residuals(a, v, lam, w)
                size = _form_size(a, v)
            scl = 1.0 + size
            if not all(np.isfinite(x).all() for x in (direct, closed, scl)):
                raise InputError(f"scale {scale:g} overflows the residuals or their "
                                 f"scale 1 + |A|_F^3 |v|^2 in dim {dim}")
            all_tiny = all_tiny and bool(np.all(size < np.finfo(float).tiny))
            any_nonzero = any_nonzero or bool(np.any(a))
            rel = direct / scl
            disc = np.abs(direct - closed) / scl
            ok = ok and bool(np.all(_rows_ok(direct, closed, scl, sign, dim)))
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
        if all_tiny and any_nonzero:
            raise InputError(f"scale {scale:g} underflows |A|_F^3 |v|^2 in every sample "
                             f"of dim {dim}, so every residual check would pass vacuously")
        summaries.append(DimCampaignSummary(
            dim=dim, count=count, min_residual_over_scale=lo, max_residual_over_scale=hi,
            max_discrepancy_over_scale=disc_max, ok=ok, witness=witness))
    return CampaignResult(seed=seed, sign=sign, summaries=tuple(summaries))


def factorization_campaign(seed: int, count: int):
    """Sample (A, v, U', U'') tuples and verify the cubic factorization.

    U' is drawn from both signs.  Returns the worst relative mismatch between
    the direct and factored evaluations over all samples.
    """
    rng = np.random.default_rng([seed, 97])
    worst = 0.0
    per_dim = max(count // len(FACTORIZATION_DIMS), 1)
    for dim in FACTORIZATION_DIMS:
        g = rng.standard_normal((per_dim, dim, dim))
        a = 0.5 * (g + g.transpose(0, 2, 1))
        v = rng.standard_normal((per_dim, dim))
        up = rng.uniform(0.2, 2.0, size=per_dim) * rng.choice([-1.0, 1.0], size=per_dim)
        us = rng.uniform(-2.0, 2.0, size=per_dim)
        hess = up[:, None, None] * a + us[:, None, None] * np.einsum("bi,bj->bij", v, v)
        m_direct = comatrix_functional(hess, v)
        m_factored = up ** 3 * comatrix_functional(a, v)
        scale = np.maximum(1.0, np.maximum(np.abs(m_direct), np.abs(m_factored)))
        worst = max(worst, float(np.max(np.abs(m_direct - m_factored) / scale)))
    return worst
