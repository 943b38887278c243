"""Closed-form scalar fields with analytic derivatives, plus pointwise identity checks.

The fields exist to exercise curvature and homogeneity identities without
solving any PDE: each family carries exact evaluators for u, grad u and the
Hessian, validated against finite differences.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import InputError, NumericalError, PreconditionError
from .symmat import SymmetricMatrix, elem_sym_from_eigenvalues, jacobi_eigh
from .transforms import Transform

#: Probes closer than this to a critical point are rejected.
MIN_GRADIENT_NORM = 1e-8
#: A convexity scan passes when its least eigenvalue is above -CONVEXITY_TOL
#: times the scan's eigenvalue scale.
CONVEXITY_TOL = 1e-8
FD_STEP = 1e-4   # central-difference step of finite_difference_consistency
FD_RTOL = 1e-6   # worst relative disagreement it accepts


@dataclass(frozen=True)
class SyntheticField:
    """A scalar field with closed-form value, gradient and Hessian evaluators."""

    dim: int
    family: str  # quadratic | radial-power | gaussian-bump | polynomial
    fn_u: Callable[[np.ndarray], float]
    fn_grad: Callable[[np.ndarray], np.ndarray]
    fn_hess: Callable[[np.ndarray], np.ndarray]

    def u(self, x) -> float:
        return float(self.fn_u(np.asarray(x, dtype=float)))

    def grad(self, x) -> np.ndarray:
        return np.asarray(self.fn_grad(np.asarray(x, dtype=float)), dtype=float)

    def hess(self, x) -> np.ndarray:
        return np.asarray(self.fn_hess(np.asarray(x, dtype=float)), dtype=float)


@dataclass(frozen=True)
class CurvatureProbe:
    """Level-set curvature data extracted at one point."""

    point: np.ndarray
    grad_norm: float
    s2_value: float
    lhs_334: float          # cofactor-gradient contraction S2'(H) u_i u_l u_lj
    h2_extracted: float     # (S2 |grad|^2 - lhs) / |grad|^3
    s2_kappa_geometric: float  # S2 of the level-set shape-operator eigenvalues


@dataclass(frozen=True)
class ConvexityReport:
    """Outcome of scanning the composed Hessian over a batch of points."""

    transform_name: str
    n_points: int
    min_eigenvalue: float
    argmin_point: np.ndarray
    convex: bool
    tolerance: float

    @classmethod
    def of(cls, transform_name: str, low, scale: float, points) -> "ConvexityReport":
        """Verdict on the least eigenvalue `low[i]` at each `points[i]`: convex iff
        min(low) >= -CONVEXITY_TOL * scale; the first point attaining it is kept."""
        k = int(np.argmin(low))
        tolerance = CONVEXITY_TOL * scale
        return cls(transform_name=transform_name, n_points=len(low),
                   min_eigenvalue=float(low[k]), argmin_point=np.atleast_1d(points[k]).copy(),
                   convex=bool(low[k] >= -tolerance), tolerance=tolerance)


def quadratic_field(q, b=None, c: float = 0.0) -> SyntheticField:
    """u(x) = x^T Q x / 2 + b.x + c for a symmetric Q."""
    q = np.asarray(q, dtype=float)
    n = q.shape[0]
    if q.shape != (n, n) or not np.allclose(q, q.T):
        raise InputError("quadratic form matrix must be square symmetric")
    b = np.zeros(n) if b is None else np.asarray(b, dtype=float)
    return SyntheticField(
        dim=n, family="quadratic",
        fn_u=lambda x: 0.5 * x @ q @ x + b @ x + c,
        fn_grad=lambda x: q @ x + b,
        fn_hess=lambda x: q.copy(),
    )


def radial_power_field(dim: int, amplitude: float, power: float,
                       offset: float = 0.0) -> SyntheticField:
    """u(x) = amplitude * (|x|^power + offset); power >= 2 keeps the origin smooth."""
    if power < 2:
        raise InputError("radial power must be >= 2")

    def _grad(x):
        r = np.linalg.norm(x)
        if r == 0.0:
            return np.zeros(dim)
        return amplitude * power * r ** (power - 2.0) * x

    def _hess(x):
        r = np.linalg.norm(x)
        if r == 0.0:
            if power == 2.0:
                return 2.0 * amplitude * np.eye(dim)
            return np.zeros((dim, dim))
        eye = np.eye(dim)
        outer = np.outer(x, x)
        return amplitude * power * (
            (power - 2.0) * r ** (power - 4.0) * outer + r ** (power - 2.0) * eye)

    return SyntheticField(
        dim=dim, family="radial-power",
        fn_u=lambda x: amplitude * (np.linalg.norm(x) ** power + offset),
        fn_grad=_grad, fn_hess=_hess,
    )


def ball_quadratic_field(dim: int, amplitude: float, radius: float = 1.0) -> SyntheticField:
    """u(x) = amplitude * (|x|^2 - radius^2), the workhorse radial test field."""
    return radial_power_field(dim, amplitude, 2.0, offset=-radius ** 2)


def gaussian_bump_field(dim: int, amplitude: float, width: float,
                        center=None) -> SyntheticField:
    """u(x) = amplitude * exp(-|x - c|^2 / (2 width^2))."""
    c = np.zeros(dim) if center is None else np.asarray(center, dtype=float)
    w2 = width * width

    def _u(x):
        d = x - c
        return amplitude * np.exp(-0.5 * (d @ d) / w2)

    def _grad(x):
        d = x - c
        return -_u(x) / w2 * d

    def _hess(x):
        d = x - c
        val = _u(x)
        return val / w2 * (np.outer(d, d) / w2 - np.eye(dim))

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

    def _u(x):
        x2 = x * x
        return float(a @ (x2 * x2) + x2 @ b @ x2)

    def _grad(x):
        x2 = x * x
        cross = (b + b.T) @ x2
        return 4.0 * a * x2 * x + 2.0 * x * cross

    def _hess(x):
        x2 = x * x
        sym = b + b.T
        cross = sym @ x2
        h = np.diag(12.0 * a * x2 + 2.0 * cross)
        h += 4.0 * np.outer(x, x) * sym
        return h

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

    Returns the worst relative error; raises NumericalError beyond FD_RTOL.
    """
    worst = 0.0
    for x in np.atleast_2d(np.asarray(points, dtype=float)):
        g_exact = fld.grad(x)
        h_exact = fld.hess(x)
        g_fd = np.zeros_like(g_exact)
        h_fd = np.zeros_like(h_exact)
        for i in range(fld.dim):
            e = np.zeros(fld.dim)
            e[i] = FD_STEP
            g_fd[i] = (fld.u(x + e) - fld.u(x - e)) / (2 * FD_STEP)
            h_fd[:, i] = (fld.grad(x + e) - fld.grad(x - e)) / (2 * FD_STEP)
        scale = max(1.0, float(np.max(np.abs(g_exact))), float(np.max(np.abs(h_exact))))
        err = max(float(np.max(np.abs(g_fd - g_exact))),
                  float(np.max(np.abs(0.5 * (h_fd + h_fd.T) - h_exact)))) / scale
        worst = max(worst, err)
    if worst > FD_RTOL:
        raise NumericalError(f"derivative evaluators disagree with finite differences "
                             f"({worst:.3e} > {FD_RTOL:.1e})")
    return worst


def _s2(h: np.ndarray) -> float:
    tr = np.trace(h)
    return 0.5 * float(tr * tr - np.trace(h @ h))


def euler_identity_gap(fld: SyntheticField, x) -> float:
    """Contraction of the S2 cofactor with the Hessian minus twice S2.

    Zero in exact arithmetic by degree-2 homogeneity; the returned gap
    measures floating-point residue only.
    """
    h = fld.hess(x)
    s2ij = np.trace(h) * np.eye(fld.dim) - h
    gap = float(np.sum(s2ij * h)) - 2.0 * _s2(h)
    tol = 1e-10 * (1.0 + float(np.linalg.norm(h)) ** 2)
    if abs(gap) > tol:
        raise NumericalError(f"homogeneity contraction gap {gap} exceeds {tol}")
    return gap


def levelset_curvature_probe(fld: SyntheticField, x) -> CurvatureProbe:
    """Extract the second-mean-curvature candidate of the level set through x.

    h2_extracted solves  S2(H)|g|^2 - S2'(H):(g (x) Hg) = h2 |g|^3  for h2,
    where H is the Hessian and g the gradient.  The geometric shape-operator
    value S2(kappa) is computed alongside so callers can fit the convention
    factor relating the two (|g| on radial fields).
    """
    x = np.asarray(x, dtype=float)
    g = fld.grad(x)
    gnorm = float(np.linalg.norm(g))
    if gnorm < MIN_GRADIENT_NORM:
        raise PreconditionError("probe rejected: too close to a critical point")
    h = fld.hess(x)
    newton_b = np.trace(h) * h - h @ h
    lhs = float(g @ newton_b @ g)
    s2 = _s2(h)
    h2 = (s2 * gnorm ** 2 - lhs) / gnorm ** 3
    # Shape operator of the level set: project H/|g| onto the tangent space.
    n = g / gnorm
    tangent = _tangent_basis(n)
    shape = tangent.T @ (h / gnorm) @ tangent
    kappa, _ = jacobi_eigh(shape)
    s2_kappa = elem_sym_from_eigenvalues(kappa, 2)
    return CurvatureProbe(point=x, grad_norm=gnorm, s2_value=s2, lhs_334=lhs,
                          h2_extracted=float(h2), s2_kappa_geometric=float(s2_kappa))


def _tangent_basis(normal: np.ndarray) -> np.ndarray:
    """Orthonormal basis of the hyperplane orthogonal to `normal`, as columns."""
    n = normal.size
    idx = int(np.argmax(np.abs(normal)))
    cols = []
    for i in range(n):
        if i == idx:
            continue
        e = np.zeros(n)
        e[i] = 1.0
        e -= (e @ normal) * normal
        for c in cols:
            e -= (e @ c) * c
        e /= np.linalg.norm(e)
        cols.append(e)
    return np.column_stack(cols)


def philippin_safoui_gap(fld: SyntheticField, x) -> float:
    """Gap of the classical gradient-Hessian inequality

        |grad u|^2 S2(H) >= (g^T H g) tr(H) - |Hg|^2,

    nonnegative wherever the Hessian is positive semidefinite.
    """
    g = fld.grad(x)
    h = fld.hess(x)
    hg = h @ g
    gnorm2 = float(g @ g)
    return gnorm2 * _s2(h) - float(g @ hg) * float(np.trace(h)) + float(hg @ hg)


def transform_hessian(fld: SyntheticField, tr: Transform, x) -> SymmetricMatrix:
    """Hessian of the composition U(u(.)) at x: U' H + U'' g (x) g."""
    uval = fld.u(x)
    tr.check_domain(uval)
    g = fld.grad(x)
    h = fld.hess(x)
    composed = tr.du(uval) * h + tr.d2u(uval) * np.outer(g, g)
    return SymmetricMatrix.from_full(composed)


def convexity_scan(fld: SyntheticField, tr: Transform, points) -> ConvexityReport:
    """Convexity verdict on the composed Hessian over a batch of points.

    One batched eigendecomposition; the scale is max(1, largest |eigenvalue|).
    Domain violations propagate per point.
    """
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    lam, _ = jacobi_eigh(np.stack([transform_hessian(fld, tr, x).full() for x in pts]))
    return ConvexityReport.of(tr.name, lam[:, 0], max(1.0, float(np.max(np.abs(lam)))), pts)


def sample_points_in_ball(seed: int, dim: int, count: int, radius: float = 1.0,
                          min_radius: float = 0.0) -> np.ndarray:
    """Seeded uniform-ish points in a spherical shell, for probe batches."""
    rng = np.random.default_rng([seed, dim, 11])
    raw = rng.standard_normal((count, dim))
    raw /= np.linalg.norm(raw, axis=1, keepdims=True)
    radii = min_radius + (radius - min_radius) * rng.uniform(size=count) ** (1.0 / dim)
    return raw * radii[:, None]
