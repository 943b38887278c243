"""Test oracles that no command runs: the one-pair routes of the comatrix
inequality, the rank-one contraction identities, the composed-Hessian
factorization on one tuple and its expansion coefficients (gate G04b), the sign
label of a spectrum, and the finite-difference check of the closed-form
fields' derivatives.

The matrix oracles take one matrix (n, n) with one vector (n,), or stacks
(..., n, n) and (..., n), and bound their errors in units of
`matineq.inequality_scale`, as the package's campaigns do.
"""

from typing import NamedTuple

import numpy as np

from hess2.errors import InputError, NumericalError
from hess2.fields import SyntheticField
from hess2.matineq import (
    _OVERFLOW,
    _UNDERFLOW,
    _campaign_residuals,
    _dot,
    _range_flags,
    _rows_ok,
    comatrix_functional,
    in_positive_cone,
    inequality_scale,
)
from hess2.symmat import MAX_DIM, cofactor, eigenvalues, jacobi_eigh

#: (alpha, beta) probe pairs; unisolvent for {a^3, a^2 b, a b^2, b^3}.
EXPANSION_PROBES = ((1.0, 0.0), (0.0, 1.0), (1.0, 1.0), (2.0, 1.0))
FD_STEP = 1e-4   # central-difference step of finite_difference_consistency
FD_RTOL = 1e-6   # worst relative disagreement it accepts


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


def square_matrix(a) -> np.ndarray:
    """a as a float matrix (n, n) or stack (..., n, n), its lower triangle
    mirrored from the upper one, which alone is read.  Raises InputError
    unless a is square with 2 <= n <= MAX_DIM and finite entries."""
    a = np.asarray(a, dtype=float)
    if a.ndim < 2 or a.shape[-1] != a.shape[-2]:
        raise InputError("expected a square matrix")
    n = a.shape[-1]
    if not 2 <= n <= MAX_DIM:
        raise InputError(f"dim must be in [2, {MAX_DIM}], got {n}")
    if not np.all(np.isfinite(a)):
        raise InputError("matrix entries must be finite")
    return np.where(np.triu(np.ones((n, n), dtype=bool)), a, np.swapaxes(a, -1, -2))


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


def _frob(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    return np.sum(x * y, axis=(-2, -1))


def sign_of_spectrum(lam: np.ndarray) -> np.ndarray:
    """The one sign rule, per ascending spectrum (..., n): eigenvalues within
    matineq.SIGN_RTOL * max(1, |lam|_max) of zero count as zero; positive wins a tie.
    One label for one spectrum, an array of labels for a stack."""
    lam = np.asarray(lam)
    return np.where(in_positive_cone(lam), "positive",
                    np.where(in_positive_cone(-lam[..., ::-1]), "negative", "indefinite"))[()]


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


def finite_difference_consistency(fld: SyntheticField, points) -> float:
    """Check grad/Hessian evaluators against central differences of u.

    Returns the worst relative error over the points; raises NumericalError
    beyond FD_RTOL.
    """
    x = np.atleast_2d(np.asarray(points, dtype=float))[:, None, :]
    e = FD_STEP * np.eye(fld.dim)   # row i of x + e is x moved along axis i
    g_fd = (fld.u(x + e) - fld.u(x - e)) / (2 * FD_STEP)
    h_fd = (fld.grad(x + e) - fld.grad(x - e)) / (2 * FD_STEP)
    g, h = fld.grad(x[:, 0]), fld.hess(x[:, 0])
    scale = np.maximum(np.max(np.abs(g), axis=-1, initial=1.0), np.max(np.abs(h), axis=(-2, -1)))
    err = np.maximum(np.max(np.abs(g_fd - g), axis=-1),
                     np.max(np.abs(0.5 * (h_fd + np.swapaxes(h_fd, -1, -2)) - h), axis=(-2, -1)))
    worst = float(np.max(err / scale))
    if worst > FD_RTOL:
        raise NumericalError(f"derivative evaluators disagree with finite differences "
                             f"({worst:.3e} > {FD_RTOL:.1e})")
    return worst
