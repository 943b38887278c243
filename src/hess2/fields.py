"""Closed-form scalar fields with analytic derivatives, plus identity checks on point stacks.

The fields exist to exercise curvature and homogeneity identities without
solving any PDE: each family carries exact evaluators for u, grad u and the
Hessian, validated against finite differences.  Every evaluator and check
takes one point (d,) or a stack (..., d) and answers per point: (...) for u
and the scalar identities, (..., d) for grad u and (..., d, d) for Hessians.
"""

from __future__ import annotations

from typing import Callable, NamedTuple

import numpy as np

from .errors import InputError, NumericalError
from .symmat import cofactor, comatrix, invariants, jacobi_eigh
from .transforms import ConvexityReport, Transform

#: Probes closer than this to a critical point are rejected.
MIN_GRADIENT_NORM = 1e-8
FD_STEP = 1e-4   # central-difference step of finite_difference_consistency
FD_RTOL = 1e-6   # worst relative disagreement it accepts


class SyntheticField(NamedTuple):
    """A scalar field with closed-form value, gradient and Hessian evaluators,
    mapping points (..., d) to (...), (..., d) and (..., d, d)."""

    dim: int
    family: str  # quadratic | radial-power | gaussian-bump | polynomial
    fn_u: Callable[[np.ndarray], np.ndarray]
    fn_grad: Callable[[np.ndarray], np.ndarray]
    fn_hess: Callable[[np.ndarray], np.ndarray]

    def u(self, x) -> np.ndarray:
        return np.asarray(self.fn_u(np.asarray(x, dtype=float)), dtype=float)

    def grad(self, x) -> np.ndarray:
        return np.asarray(self.fn_grad(np.asarray(x, dtype=float)), dtype=float)

    def hess(self, x) -> np.ndarray:
        return np.asarray(self.fn_hess(np.asarray(x, dtype=float)), dtype=float)


class CurvatureProbe(NamedTuple):
    """Level-set curvature data at one point, or per point of a stack."""

    point: np.ndarray
    grad_norm: float
    s2_value: float
    lhs_334: float          # cofactor-gradient contraction S2'(H) u_i u_l u_lj
    h2_extracted: float     # (S2 |grad|^2 - lhs) / |grad|^3
    s2_kappa_geometric: float  # S2 of the level-set shape-operator eigenvalues


def _outer(x: np.ndarray) -> np.ndarray:
    return x[..., :, None] * x[..., None, :]


def quadratic_field(q, b=None, c: float = 0.0) -> SyntheticField:
    """u(x) = x^T Q x / 2 + b.x + c for a symmetric Q."""
    q = np.asarray(q, dtype=float)
    n = q.shape[0]
    if q.shape != (n, n) or not np.allclose(q, q.T):
        raise InputError("quadratic form matrix must be square symmetric")
    b = np.zeros(n) if b is None else np.asarray(b, dtype=float)
    return SyntheticField(
        dim=n, family="quadratic",
        fn_u=lambda x: np.sum((0.5 * x) @ q * x, axis=-1) + x @ b + c,
        fn_grad=lambda x: x @ q.T + b,
        fn_hess=lambda x: np.broadcast_to(q, x.shape + (n,)).copy(),
    )


def radial_power_field(dim: int, amplitude, power: float,
                       offset: float = 0.0) -> SyntheticField:
    """u(x) = amplitude * (|x|^power + offset); power >= 2 keeps the origin smooth.

    The amplitude may be an array that broadcasts over the points' leading axes.
    """
    if power < 2:
        raise InputError("radial power must be >= 2")
    amplitude = np.asarray(amplitude, dtype=float)
    # np.power, not **: float64 ** 2.0 calls pow, so a point would round unlike a stack.

    def _grad(x):
        r = np.linalg.norm(x, axis=-1)
        return (amplitude * power * np.power(r, power - 2.0))[..., None] * x

    def _hess(x):
        r = np.linalg.norm(x, axis=-1)
        # r^(power-4) only multiplies x (x) x, which vanishes at r = 0; there
        # r^(power-2) is 1 for power 2 and 0 beyond, so H = 2a I or 0.
        r4 = np.where(r > 0.0, r, 1.0) ** (power - 4.0)
        return (amplitude * power)[..., None, None] * (
            ((power - 2.0) * r4)[..., None, None] * _outer(x)
            + np.power(r, power - 2.0)[..., None, None] * np.eye(dim))

    return SyntheticField(
        dim=dim, family="radial-power",
        fn_u=lambda x: amplitude * (np.power(np.linalg.norm(x, axis=-1), power) + offset),
        fn_grad=_grad, fn_hess=_hess,
    )


def ball_quadratic_field(dim: int, amplitude, radius: float = 1.0) -> SyntheticField:
    """u(x) = amplitude * (|x|^2 - radius^2), the workhorse radial test field."""
    return radial_power_field(dim, amplitude, 2.0, offset=-radius ** 2)


def gaussian_bump_field(dim: int, amplitude, width: float,
                        center=None) -> SyntheticField:
    """u(x) = amplitude * exp(-|x - c|^2 / (2 width^2))."""
    c = np.zeros(dim) if center is None else np.asarray(center, dtype=float)
    w2 = width * width

    def _u(x):
        d = x - c
        return amplitude * np.exp(-0.5 * np.sum(d * d, axis=-1) / w2)

    def _grad(x):
        return (-_u(x) / w2)[..., None] * (x - c)

    def _hess(x):
        return (_u(x) / w2)[..., None, None] * (_outer(x - c) / w2 - np.eye(dim))

    return SyntheticField(dim=dim, family="gaussian-bump",
                          fn_u=_u, fn_grad=_grad, fn_hess=_hess)


def polynomial_field(coeffs_quartic, coeffs_cross) -> SyntheticField:
    """u(x) = sum_i a_i x_i^4 + sum_{i<j} b_ij x_i^2 x_j^2 with closed derivatives."""
    a = np.asarray(coeffs_quartic, dtype=float)
    b = np.asarray(coeffs_cross, dtype=float)
    n = a.size
    if b.shape != (n, n):
        raise InputError("cross-coefficient matrix must be (dim, dim)")
    b = np.triu(b, 1)
    sym = b + b.T

    def _u(x):
        x2 = x * x
        return (x2 * x2) @ a + np.sum(x2 @ b * x2, axis=-1)

    def _grad(x):
        x2 = x * x
        return 4.0 * a * x2 * x + 2.0 * x * (x2 @ sym)

    def _hess(x):
        x2 = x * x
        diag = 12.0 * a * x2 + 2.0 * (x2 @ sym)
        return 4.0 * _outer(x) * sym + diag[..., None] * np.eye(n)

    return SyntheticField(dim=n, family="polynomial",
                          fn_u=_u, fn_grad=_grad, fn_hess=_hess)


def saddle_quartic_field() -> SyntheticField:
    """A planar quartic with indefinite Hessian away from the origin."""
    return polynomial_field([1.0, 1.0], [[0.0, -6.0], [0.0, 0.0]])


def standard_menagerie(dim: int) -> list[SyntheticField]:
    """The stock field families used by identity scans in a given dimension."""
    fields = [
        quadratic_field(np.diag(np.linspace(1.0, 2.0, dim))),
        ball_quadratic_field(dim, 0.5),
        radial_power_field(dim, 0.25, 4.0, offset=-1.0),
        gaussian_bump_field(dim, -1.0, 0.8),
    ]
    if dim == 2:
        fields.append(saddle_quartic_field())
    return fields


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


def euler_identity_gap(fld: SyntheticField, x) -> np.ndarray:
    """Contraction of the S2 cofactor with the Hessian minus twice S2, per point,
    in units of 1 + |H|_F^2.

    Zero in exact arithmetic by degree-2 homogeneity; the returned gap
    measures floating-point residue only.  Raises NumericalError if any
    point's gap exceeds 1e-10 in those units.
    """
    h = fld.hess(x)
    scale = 1.0 + np.linalg.norm(h, axis=(-2, -1)) ** 2
    gap = (np.sum(cofactor(h) * h, axis=(-2, -1)) - 2.0 * invariants(h)[1]) / scale
    over = np.abs(gap) > 1e-10
    if np.any(over):
        raise NumericalError(f"homogeneity contraction gap {gap[over][0]} (over 1 + |H|_F^2) "
                             "exceeds 1e-10")
    return gap


def levelset_curvature_probe(fld: SyntheticField, x) -> CurvatureProbe:
    """Extract the second-mean-curvature candidate of the level set through x.

    h2_extracted solves  S2(H)|g|^2 - S2'(H):(g (x) Hg) = h2 |g|^3  for h2,
    where H is the Hessian and g the gradient.  The geometric shape-operator
    value S2(kappa) is computed alongside so callers can fit the convention
    factor relating the two (|g| on radial fields).  Raises InputError
    if any point lies within MIN_GRADIENT_NORM of a critical point.
    """
    x = np.asarray(x, dtype=float)
    g = fld.grad(x)
    gnorm = np.linalg.norm(g, axis=-1)
    if np.any(gnorm < MIN_GRADIENT_NORM):
        raise InputError("probe rejected: too close to a critical point")
    h = fld.hess(x)
    # Products and last-axis sums, not einsum, and np.power, not ** (which calls
    # pow on the float64 scalar |g| of one point): a point rounds as its stack row.
    lhs = np.sum(np.sum(comatrix(h) * g[..., None, :], axis=-1) * g, axis=-1)
    s2 = invariants(h)[1]
    gnorm2 = np.power(gnorm, 2)
    h2 = (s2 * gnorm2 - lhs) / np.power(gnorm, 3)
    # The shape operator is H/|g| on n^perp; with P = I - n (x) n, PHP has its
    # eigenvalues and one more 0, so S2(kappa) = S2(PHP)/|g|^2.
    proj = np.eye(fld.dim) - _outer(g / gnorm[..., None])
    s2_kappa = invariants(proj @ h @ proj)[1] / gnorm2
    return CurvatureProbe(point=x, grad_norm=gnorm, s2_value=s2, lhs_334=lhs,
                          h2_extracted=h2, s2_kappa_geometric=s2_kappa)


def philippin_safoui_gap(fld: SyntheticField, x) -> np.ndarray:
    """Gap of the classical gradient-Hessian inequality, per point,

        |grad u|^2 S2(H) >= (g^T H g) tr(H) - |Hg|^2,

    nonnegative wherever the Hessian is positive semidefinite.
    """
    g, h = fld.grad(x), fld.hess(x)
    hg = (h @ g[..., None])[..., 0]
    s1, s2 = invariants(h)
    return np.sum(g * g, axis=-1) * s2 - np.sum(g * hg, axis=-1) * s1 + np.sum(hg * hg, axis=-1)


def transform_hessian(fld: SyntheticField, tr: Transform, x) -> np.ndarray:
    """Hessian of the composition U(u(.)) per point: U' H + U'' g (x) g."""
    return tr.composed_hessian(fld.u(x), fld.grad(x), fld.hess(x))


def convexity_scan(fld: SyntheticField, tr: Transform, points) -> ConvexityReport:
    """Convexity verdict on the composed Hessian over a batch of points.

    One batched eigendecomposition; a domain violation at any point raises.
    """
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    return ConvexityReport.of(tr.name, jacobi_eigh(transform_hessian(fld, tr, pts))[0], pts)


def sample_points_in_ball(seed: int, dim: int, count: int, radius: float = 1.0,
                          min_radius: float = 0.0) -> np.ndarray:
    """Seeded uniform-ish points in a spherical shell, for probe batches."""
    rng = np.random.default_rng([seed, dim, 11])
    raw = rng.standard_normal((count, dim))
    raw /= np.linalg.norm(raw, axis=1, keepdims=True)
    radii = min_radius + (radius - min_radius) * rng.uniform(size=count) ** (1.0 / dim)
    return raw * radii[:, None]
