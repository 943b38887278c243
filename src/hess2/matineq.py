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
facts pointwise and at sampling scale.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InputError, NumericalError, PreconditionError, SingularTransformError
from .symmat import CAMPAIGN_CHUNK, SymmetricMatrix, cofactor, comatrix, jacobi_eigh, sample_batch

#: (alpha, beta) probe pairs; unisolvent for {a^3, a^2 b, a b^2, b^3}.
EXPANSION_PROBES = ((1.0, 0.0), (0.0, 1.0), (1.0, 1.0), (2.0, 1.0))
SIGN_RTOL = 1e-12  # eigenvalues within this share of the spectrum's scale count as zero
FACTORIZATION_DIMS = (2, 3, 4, 5, 6, 7, 8)


@dataclass(frozen=True)
class InequalityRecord:
    """One evaluation of the comatrix inequality on a (matrix, vector) pair."""

    lhs: float
    rhs: float
    residual_direct: float   # rhs - lhs
    residual_closed: float   # eigenbasis closed form
    matrix_sign: str         # "positive" | "negative" | "indefinite"


@dataclass(frozen=True)
class ContractionScalars:
    """The scalars r=|v|^2, s=tr A, q=<Av,v>, t=|Av|^2 of a contraction identity set."""

    r: float
    s: float
    q: float
    t: float


@dataclass(frozen=True)
class ExpansionCoeffs:
    """Coefficients of a^3, a^2 b, a b^2, b^3 in the composed-Hessian functional."""

    m30: float
    m21: float
    m12: float
    m03: float


@dataclass(frozen=True)
class TransformEval:
    """Pointwise data of a strictly monotone scalar transform U at one value."""

    u_value: float
    U_prime: float
    U_second: float
    monotone: str  # "increasing" | "decreasing"

    def __post_init__(self):
        if self.monotone not in ("increasing", "decreasing"):
            raise InputError("monotone must be 'increasing' or 'decreasing'")
        if self.monotone == "increasing" and not self.U_prime > 0:
            raise InputError("increasing transform requires U' > 0")
        if self.monotone == "decreasing" and not self.U_prime < 0:
            raise InputError("decreasing transform requires U' < 0")


def _sides(a: np.ndarray, v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """lhs and rhs of the inequality; works on stacks (..., n, n), (..., n)."""
    tra = np.trace(a, axis1=-2, axis2=-1)
    b = comatrix(a)
    trb = np.trace(b, axis1=-2, axis2=-1)
    trba = np.einsum("...ij,...ji->...", b, a)
    av = np.einsum("...ij,...j->...i", a, v)
    bv = np.einsum("...ij,...j->...i", b, v)
    vv = np.einsum("...i,...i->...", v, v)
    lhs = (vv / 3.0) * (2.0 * trba - trb * tra)
    rhs = 2.0 * np.einsum("...i,...i->...", av, bv) - np.einsum("...i,...i->...", av, v) * trb
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
    return np.linalg.norm(a, axis=(-2, -1)) ** 3 * np.einsum("...i,...i->...", v, v)


def inequality_scale(a: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Tolerance scale 1 + |A|_F^3 |v|^2."""
    return 1.0 + _form_size(a, v)


def in_positive_cone(lam: np.ndarray) -> np.ndarray:
    """The positive-cone rule on ascending spectra (..., n): the least eigenvalue
    is at least -SIGN_RTOL * max(1, |lam|_max)."""
    lam = np.asarray(lam)
    return lam[..., 0] >= -SIGN_RTOL * np.maximum(1.0, np.max(np.abs(lam), axis=-1))


def sign_of_spectrum(lam: np.ndarray) -> str:
    """The one sign rule, on an ascending spectrum: eigenvalues within
    SIGN_RTOL * max(1, |lam|_max) of zero count as zero; positive wins a tie."""
    return ("positive" if in_positive_cone(lam) else
            "negative" if in_positive_cone(-lam[::-1]) else "indefinite")


def classify_sign(a: SymmetricMatrix) -> str:
    """Classify a as positive/negative semidefinite or indefinite."""
    return sign_of_spectrum(jacobi_eigh(a.full())[0])


def is_negative_semidefinite(a: SymmetricMatrix) -> bool:
    """Whether -a, whose spectrum is -lam reversed, is positive semidefinite."""
    return bool(in_positive_cone(-jacobi_eigh(a.full())[0][::-1]))


def comatrix_inequality(a: SymmetricMatrix, v) -> InequalityRecord:
    """Evaluate both sides and both residual routes on one (matrix, vector) pair.

    One eigendecomposition serves the closed residual and the sign of a.
    Raises NumericalError if the direct and closed residuals disagree, or if
    a semidefinite matrix produces a residual on the wrong side of zero.
    """
    full = a.full()
    return _inequality_record(full, *jacobi_eigh(full), v)


def _inequality_record(full: np.ndarray, lam: np.ndarray, vecs: np.ndarray, v) -> InequalityRecord:
    v = np.asarray(v, dtype=float)
    if v.shape != (len(full),):
        raise InputError(f"vector has dimension {v.shape}, expected ({len(full)},)")
    if not np.all(np.isfinite(v)):
        raise InputError("probe vector must be finite")
    lhs, rhs = _sides(full, v)
    closed = _closed_residual(lam, vecs.T @ v)
    rec = InequalityRecord(lhs=float(lhs), rhs=float(rhs),
                           residual_direct=float(rhs - lhs),
                           residual_closed=float(closed),
                           matrix_sign=sign_of_spectrum(lam))
    _check_record(rec, float(inequality_scale(full, v)))
    return rec


def _check_record(rec: InequalityRecord, scale: float) -> None:
    agree_tol = 1e-9 * max(1.0, abs(rec.lhs), abs(rec.rhs))
    if abs(rec.residual_direct - rec.residual_closed) > agree_tol:
        raise NumericalError(
            f"direct residual {rec.residual_direct} and closed residual "
            f"{rec.residual_closed} disagree beyond {agree_tol}")
    if rec.matrix_sign == "positive" and rec.residual_direct < -1e-9 * scale:
        raise NumericalError(f"positive semidefinite input produced residual "
                             f"{rec.residual_direct} < -1e-9 * {scale}")
    if rec.matrix_sign == "negative" and rec.residual_direct > 1e-9 * scale:
        raise NumericalError(f"negative semidefinite input produced residual "
                             f"{rec.residual_direct} > 1e-9 * {scale}")


def negative_semidefinite_inequality(a: SymmetricMatrix, v) -> InequalityRecord:
    """Reversed-sign variant; requires a negative semidefinite input, checked first."""
    full = a.full()
    lam, vecs = jacobi_eigh(full)
    if not in_positive_cone(-lam[::-1]):
        raise PreconditionError("input matrix is not negative semidefinite")
    return _inequality_record(full, lam, vecs, v)


def contraction_scalars(a: SymmetricMatrix, v) -> ContractionScalars:
    """Compute (r, s, q, t) and verify the rank-one contraction identities.

    With P = v (x) v and C = r I - P, the verified identities are
      S2'(A) : (AP + PA) = 2sq - 2t,      C : A^2 = r tr(A^2) - t,
      S2'(A) : (Av)(v)^T  = sq - t,       C : (Av)(Av)^T = rt - q^2,
      C : (AP + PA) = 0,                  C : P^2 = 0,
    each to 1e-10 relative.
    """
    v = np.asarray(v, dtype=float)
    full = a.full()
    if v.shape != (a.dim,):
        raise InputError(f"vector has dimension {v.shape}, expected ({a.dim},)")
    av = full @ v
    r, s, q, t = float(v @ v), float(np.trace(full)), float(av @ v), float(av @ av)
    s2ij = cofactor(full)
    proj = np.outer(v, v)
    comp = cofactor(proj)   # r I - P, as tr P = r
    ap_pa = full @ proj + proj @ full
    checks = [
        (float(np.sum(s2ij * ap_pa)), 2.0 * s * q - 2.0 * t),
        (float(np.sum(comp * (full @ full))), r * float(np.trace(full @ full)) - t),
        (float(np.sum(s2ij * np.outer(av, v))), s * q - t),
        (float(np.sum(comp * np.outer(av, av))), r * t - q * q),
        (float(np.sum(comp * ap_pa)), 0.0),
        (float(np.sum(comp * (proj @ proj))), 0.0),
    ]
    scale = max(1.0, float(np.linalg.norm(full)) ** 2 * max(r, 1.0), r ** 2)
    for got, expect in checks:
        if abs(got - expect) > 1e-10 * max(scale, abs(expect)):
            raise NumericalError(f"contraction identity failed: {got} != {expect}")
    return ContractionScalars(r=r, s=s, q=q, t=t)


def composed_hessian_functional(hess_composed: SymmetricMatrix, grad_u,
                                ev: TransformEval) -> tuple[float, float]:
    """Evaluate the functional on D^2 U(u) directly and in factored form.

    The composed Hessian must equal U' A + U'' grad (x) grad for the Hessian A
    of the underlying function, recovered here by inverting that relation.
    Returns (m_direct, m_factored) with m_factored = U'^3 times the functional
    of A; the two agree to 1e-8 relative, and m_direct is nonpositive whenever
    the composed Hessian is positive semidefinite and U is increasing.
    """
    g = np.asarray(grad_u, dtype=float)
    if g.shape != (hess_composed.dim,):
        raise InputError("gradient dimension mismatch")
    if abs(ev.U_prime) < 1e-10:
        raise SingularTransformError("transform derivative vanishes; cannot factor")
    h = hess_composed.full()
    a_u = (h - ev.U_second * np.outer(g, g)) / ev.U_prime
    m_direct = float(comatrix_functional(h, g))
    m_factored = ev.U_prime ** 3 * float(comatrix_functional(a_u, g))
    scale = max(1.0, abs(m_direct), abs(m_factored))
    if abs(m_direct - m_factored) > 1e-8 * scale:
        raise NumericalError(
            f"factorization mismatch: direct {m_direct} vs factored {m_factored}")
    if ev.monotone == "increasing" and classify_sign(hess_composed) == "positive":
        sign_scale = float(inequality_scale(h, g))
        if m_direct > 1e-9 * sign_scale:
            raise NumericalError(
                f"functional should be nonpositive on the positive cone, got {m_direct}")
    return m_direct, m_factored


def expansion_coefficients(a_u: SymmetricMatrix, grad_u) -> ExpansionCoeffs:
    """Fit the cubic (alpha, beta) expansion of the composed functional.

    Probes the functional at EXPANSION_PROBES, solves the 4x4 monomial system,
    and verifies that all coefficients except the pure alpha^3 one vanish and
    that the alpha^3 coefficient matches a direct evaluation.
    """
    g = np.asarray(grad_u, dtype=float)
    if g.shape != (a_u.dim,):
        raise InputError("gradient dimension mismatch")
    full = a_u.full()
    proj = np.outer(g, g)
    vander = np.array([[al ** 3, al ** 2 * be, al * be ** 2, be ** 3]
                       for al, be in EXPANSION_PROBES])
    values = np.array([float(comatrix_functional(al * full + be * proj, g))
                       for al, be in EXPANSION_PROBES])
    try:
        coeffs = np.linalg.solve(vander, values)
    except np.linalg.LinAlgError as exc:  # unreachable for distinct probes
        raise NumericalError("expansion probe system is singular") from exc
    m30, m21, m12, m03 = (float(c) for c in coeffs)
    direct = float(comatrix_functional(full, g))
    tol = 1e-8 * max(1.0, abs(m30))
    for name, val in (("m21", m21), ("m12", m12), ("m03", m03)):
        if abs(val) > tol:
            raise NumericalError(f"mixed expansion coefficient {name}={val} exceeds {tol}")
    if abs(m30 - direct) > tol:
        raise NumericalError(f"pure coefficient {m30} disagrees with direct value {direct}")
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
    np.linalg.eigh for indefinite ones.  Tolerances: residual sign 1e-9 per
    unit scale on semidefinite draws, direct/closed agreement 1e-9, and an
    identity tolerance of 1e-10 in dimension 3 where the residual vanishes for
    every symmetric matrix.  Each summary names its worst sample (least
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
            ok = ok and bool(np.all(disc <= 1e-9))
            if sign == "positive":
                ok = ok and bool(np.all(rel >= -1e-9))
            elif sign == "negative":
                ok = ok and bool(np.all(rel <= 1e-9))
            if dim == 3:
                ok = ok and bool(np.all(np.abs(rel) <= 1e-10))
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
