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
facts pointwise and at sampling scale, on plain arrays: one matrix (n, n) with
one vector (n,), or stacks (..., n, n) and (..., n).  Every check bounds its
error in units of `inequality_scale`, 1 + |A|_F^3 |v|^2, the functional's
degree in (A, v): a bound relative to computed values would measure rounding
noise where they vanish identically (dimensions 2 and 3, low-rank matrices).
The CLI runs `inequality_campaign` (`ineq`) and `in_positive_cone`
(`identity-scan`); the rest serves library callers, the tests and gate G04b.
`comatrix_inequality` and `negative_semidefinite_inequality` are the campaign's
route on a stack of one, with its residual check and range rules.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .errors import InputError, NumericalError
from .symmat import (CAMPAIGN_CHUNK, cofactor, comatrix, eigenvalues, jacobi_eigh,
                     sample_batch, square_matrix)

#: (alpha, beta) probe pairs; unisolvent for {a^3, a^2 b, a b^2, b^3}.
EXPANSION_PROBES = ((1.0, 0.0), (0.0, 1.0), (1.0, 1.0), (2.0, 1.0))
SIGN_RTOL = 1e-12  # eigenvalues within this share of the spectrum's scale count as zero
FACTORIZATION_DIMS = (2, 3, 4, 5, 6, 7, 8)
_OVERFLOW = "{} overflows the residuals or their scale 1 + |A|_F^3 |v|^2{}"
_UNDERFLOW = "{} underflows |A|_F^3 |v|^2 in every sample{}, so every check would pass vacuously"


class InequalityRecord(NamedTuple):
    """The comatrix inequality on a (matrix, vector) pair: each field is a number,
    or an array over a stack of pairs."""

    lhs: np.ndarray
    rhs: np.ndarray
    residual_direct: np.ndarray   # rhs - lhs
    residual_closed: np.ndarray   # eigenbasis closed form
    matrix_sign: np.ndarray       # "positive" | "negative" | "indefinite"


class ContractionScalars(NamedTuple):
    """The scalars r=|v|^2, s=tr A, q=<Av,v>, t=|Av|^2 of a contraction identity set."""

    r: np.ndarray
    s: np.ndarray
    q: np.ndarray
    t: np.ndarray


class ExpansionCoeffs(NamedTuple):
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


def sign_of_spectrum(lam: np.ndarray) -> np.ndarray:
    """The one sign rule, per ascending spectrum (..., n): eigenvalues within
    SIGN_RTOL * max(1, |lam|_max) of zero count as zero; positive wins a tie.
    One label for one spectrum, an array of labels for a stack."""
    lam = np.asarray(lam)
    return np.where(in_positive_cone(lam), "positive",
                    np.where(in_positive_cone(-lam[..., ::-1]), "negative", "indefinite"))[()]


def _rows_ok(rel, disc, sign, dim: int) -> np.ndarray:
    """The one residual check, per row of a campaign chunk or a one-pair record,
    on rel = direct / scl and disc = |direct - closed| / scl in units of
    scl = inequality_scale: disc <= 1e-9; rel >= -1e-9 on "positive" rows and
    <= 1e-9 on "negative" ones (`sign`: one label or one per row);
    |rel| <= 1e-10 in dimension 3, where the residual vanishes for every
    symmetric matrix."""
    ok = disc <= 1e-9
    ok &= (sign != "positive") | (rel >= -1e-9)
    ok &= (sign != "negative") | (rel <= 1e-9)
    return ok & (np.abs(rel) <= 1e-10) if dim == 3 else ok


def comatrix_inequality(a, v) -> InequalityRecord:
    """Evaluate both sides and both residual routes on a (matrix, vector) pair or
    a stack of them: the campaign's route on a stack of one.

    jacobi_eigh gives (lam, Q) and the rotated probe w = Q^T v; the direct
    residual reads (a, v) only, the closed one (lam, w) only, and
    sign_of_spectrum(lam) labels each row.  Raises InputError by the range rules
    `_range_flags`, NumericalError when a row fails the residual check `_rows_ok`.
    """
    a = square_matrix(a)
    return _record(a, _probe(a, v), *jacobi_eigh(a))


def negative_semidefinite_inequality(a, v) -> InequalityRecord:
    """comatrix_inequality for negative semidefinite input, which is checked first:
    InputError for any other matrix."""
    a = square_matrix(a)
    lam, vecs = jacobi_eigh(a)
    if not np.all(in_positive_cone(-lam[..., ::-1])):
        raise InputError("input matrix is not negative semidefinite")
    return _record(a, _probe(a, v), lam, vecs)


def _record(a: np.ndarray, v: np.ndarray, lam: np.ndarray, vecs: np.ndarray) -> InequalityRecord:
    lhs, rhs, direct, closed, size = _campaign_residuals(
        a, v, lam, np.einsum("...ij,...i->...j", vecs, v))
    over, tiny, live = _range_flags(a, v, direct, closed, size)
    if over or (tiny and live):
        raise InputError((_OVERFLOW if over else _UNDERFLOW).format("the input", ""))
    sign = sign_of_spectrum(lam)
    scl = 1.0 + size
    bad = ~_rows_ok(direct / scl, np.abs(direct - closed) / scl, sign, a.shape[-1])
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
    m_factored) with m_factored = U'^3 times the functional of A; they agree to
    1e-8 of the larger inequality_scale of H and U'A, and m_direct is
    nonpositive where H is positive semidefinite and U is increasing (U' > 0).
    """
    h = square_matrix(hess_composed)
    g = _probe(h, grad_u)
    up, us = np.asarray(u_prime, dtype=float), np.asarray(u_second, dtype=float)
    if np.any(np.abs(up) < 1e-10):
        raise InputError("transform derivative vanishes; cannot factor")
    up_a = h - us[..., None, None] * _outer(g, g)
    m_direct = comatrix_functional(h, g)
    m_factored = up * up * up * comatrix_functional(up_a / up[..., None, None], g)
    scale = np.maximum(inequality_scale(h, g), inequality_scale(up_a, g))
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
    and verifies to 1e-8 of the largest inequality_scale of a probe matrix that
    all but the alpha^3 coefficient vanish and that it matches a direct value.
    """
    a = square_matrix(a_u)
    g = _probe(a, grad_u)
    proj = _outer(g, g)
    vander = np.array([[al ** 3, al ** 2 * be, al * be ** 2, be ** 3]
                       for al, be in EXPANSION_PROBES])
    probes = [al * a + be * proj for al, be in EXPANSION_PROBES]
    values = np.stack([comatrix_functional(m, g) for m in probes])
    m30, m21, m12, m03 = np.linalg.solve(vander, values.reshape(4, -1)).reshape(values.shape)
    tol = 1e-8 * np.max([inequality_scale(m, g) for m in probes], axis=0)
    for name, val in (("m21", m21), ("m12", m12), ("m03", m03),
                      ("m30 - direct value", m30 - comatrix_functional(a, g))):
        if np.any(np.abs(val) > tol):
            raise NumericalError(f"expansion coefficient {name} = {val} exceeds {tol}")
    return ExpansionCoeffs(m30=m30, m21=m21, m12=m12, m03=m03)


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
    breaks the one-pair route's range rules `_range_flags`: a residual or its
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


def factorization_campaign(seed: int, count: int):
    """Sample (A, v, U', U'') tuples and verify the cubic factorization.

    U' is drawn from both signs.  Returns the worst mismatch between the direct
    and factored evaluations over the scale of composed_hessian_functional.
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
        m_factored = up * up * up * comatrix_functional(a, v)
        scale = np.maximum(inequality_scale(hess, v), inequality_scale(up[:, None, None] * a, v))
        worst = max(worst, float(np.max(np.abs(m_direct - m_factored) / scale)))
    return worst
