"""Auxiliary P-function fields, extreme-principle verdicts and a priori bounds.

The central object is the field

    Phi(x; alpha) = |grad u(x)|^2 + 2 alpha * int_{u(x)}^0 f(s)^gamma ds

built on a solved problem.  Verdicts compare its interior and boundary
extremes; bound reports specialize alpha = 1 at the critical point of u,
where the field value collapses to the printed a priori estimates.

gamma is configurable because the two natural conventions (square-rooted
source versus plain source in the integral) do not agree for non-constant
sources; reports carry the convention they were evaluated under.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from ._quad import adaptive_simpson
from .domain import DomainSpec, signed_distance
from .errors import InputError
from .fields import ConvexityReport
from .solver import Solution, SourceTerm
from .symmat import elem_sym_from_eigenvalues, jacobi_eigh
from .transforms import (
    Transform,
    identity_transform,
    negative_log_transform,
    negative_power_transform,
    negative_sqrt_transform,
)

GAMMA_CHOICES = (0.5, 1.0)
BOUND_TOL = 1e-6  # slack a bound report may miss by and still hold


@dataclass(frozen=True)
class PFunctionSpec:
    """Parameters of the auxiliary field: alpha and the source exponent."""

    alpha: float
    gamma: float = 0.5

    def __post_init__(self):
        if not math.isfinite(self.alpha):
            raise InputError("alpha must be finite")
        if self.gamma not in GAMMA_CHOICES:
            raise InputError(f"gamma must be one of {GAMMA_CHOICES}")


@dataclass(frozen=True)
class PFunctionField:
    """The auxiliary field sampled on a solution's nodes and boundary."""

    alpha: float
    gamma: float
    kind: str                      # "radial" | "grid2d"
    positions: np.ndarray          # (n,) radii or (n, 2) coordinates
    u_values: np.ndarray
    grad_sq: np.ndarray
    integral: np.ndarray           # int_u^0 f^gamma per node
    interior: np.ndarray           # bool mask over nodes
    boundary_positions: np.ndarray
    boundary_grad_sq: np.ndarray
    source_label: str = ""
    domain: Optional[DomainSpec] = None
    radius: Optional[float] = None

    @property
    def phi(self) -> np.ndarray:
        return self.grad_sq + 2.0 * self.alpha * self.integral

    @property
    def boundary_phi(self) -> np.ndarray:
        # u = 0 on the boundary, so the integral term vanishes exactly.
        return self.boundary_grad_sq

    def scale(self) -> float:
        return max(1.0, float(np.max(np.abs(self.phi))),
                   float(np.max(np.abs(self.boundary_phi))))


@dataclass(frozen=True)
class PrincipleVerdict:
    """Comparison of interior and boundary extremes of a scalar field."""

    mode: str                       # "min" | "max"
    interior_extreme: float
    interior_argpoint: np.ndarray
    boundary_extreme: float
    boundary_argpoint: np.ndarray
    margin: float                   # >= -tol_margin iff the principle holds
    tol_margin: float
    holds: bool
    distance_argextreme_to_boundary: float


@dataclass(frozen=True)
class BoundsReport:
    """A priori bound audit: global slack at the critical point and pointwise."""

    application: int
    gamma: float
    lhs: float
    rhs: float
    slack: float
    pointwise_min_slack: float
    hypothesis_ok: bool
    transform_name: str
    holds: bool


@dataclass(frozen=True)
class CriticalPointReport:
    """Hessian data at the interior minimum of a solution."""

    location: np.ndarray
    hessian_spectrum: np.ndarray
    max_ratio: float                # max Hessian eigenvalue / sqrt(f at minimum)
    binom_bound: float              # (N choose 2)^(-1/2)
    s2_value: float
    f_value: float
    spectrum_positive: bool


def source_integral(f: SourceTerm, gamma: float, u_values) -> np.ndarray:
    """I(u) = int_u^0 f(s)^gamma ds for each u <= 0, by adaptive quadrature.

    Values are accumulated over the sorted inputs so each segment is
    integrated once; per-segment adaptive tolerances keep the total relative
    error near 1e-10.
    """
    u = np.asarray(u_values, dtype=float)
    if np.any(u > 1e-14):
        raise InputError("the source integral is defined for u <= 0")
    u = np.minimum(u, 0.0)

    def integrand(s):
        val = float(np.asarray(f.f(s)))
        if val < 0:
            raise InputError("source must be nonnegative on the solution range")
        return val ** gamma

    flat = u.ravel()
    order = np.argsort(flat)
    out = np.empty_like(flat)
    acc = 0.0
    prev = 0.0
    # Power-law sources have integrable endpoint singularities at zero; the
    # absolute floor keeps the subdivision finite there at no visible cost.
    atol = 1e-16
    for idx in order[::-1]:           # from the value closest to zero downward
        val = flat[idx]
        if val < prev:
            acc += adaptive_simpson(integrand, val, prev, rtol=1e-10, atol=atol)
            prev = val
        out[idx] = acc
    return out.reshape(u.shape)


def boundary_gradient_samples(sol: Solution) -> tuple[np.ndarray, np.ndarray]:
    """(points, |grad u|) sampled on the boundary of a solved problem."""
    return sol.boundary_samples()


def pfunction_field(sol: Solution, f: SourceTerm, spec: PFunctionSpec) -> PFunctionField:
    """Sample the auxiliary field on a solved problem."""
    bpts, bvals = boundary_gradient_samples(sol)
    return PFunctionField(
        alpha=spec.alpha, gamma=spec.gamma, kind=sol.kind,
        positions=sol.positions, u_values=sol.u, grad_sq=sol.grad_sq(),
        integral=source_integral(f, spec.gamma, sol.u), interior=sol.interior,
        boundary_positions=bpts, boundary_grad_sq=bvals**2,
        source_label=f.label(), **sol.boundary_geometry())


def verify_principle(pf: PFunctionField, mode: str,
                     tol_margin: float) -> PrincipleVerdict:
    """Check whether the field attains its min/max on the boundary.

    Ties within tol_margin count as boundary attainment, so constant fields
    satisfy both modes.
    """
    if mode not in ("min", "max"):
        raise InputError("mode must be 'min' or 'max'")
    phi = pf.phi[pf.interior]
    pos = pf.positions[pf.interior]
    bphi = pf.boundary_phi
    if mode == "min":
        i = int(np.argmin(phi))
        b = int(np.argmin(bphi))
        margin = float(phi[i] - bphi[b])
        global_interior = phi[i] < bphi[b]
    else:
        i = int(np.argmax(phi))
        b = int(np.argmax(bphi))
        margin = float(bphi[b] - phi[i])
        global_interior = phi[i] > bphi[b]
    interior_arg = np.atleast_1d(pos[i])
    boundary_arg = np.atleast_1d(pf.boundary_positions[b])
    if global_interior:
        distance = _distance_to_boundary(pf, interior_arg)
    else:
        distance = 0.0
    return PrincipleVerdict(
        mode=mode, interior_extreme=float(phi[i]), interior_argpoint=interior_arg,
        boundary_extreme=float(bphi[b]), boundary_argpoint=boundary_arg,
        margin=margin, tol_margin=tol_margin, holds=bool(margin >= -tol_margin),
        distance_argextreme_to_boundary=float(distance))


def _distance_to_boundary(pf: PFunctionField, point: np.ndarray) -> float:
    if pf.kind == "radial":
        return float(pf.radius - abs(float(point[0])))
    return float(-signed_distance(pf.domain, np.atleast_2d(point))[0])


def transform_preset(application: int, p: float | None = None) -> Transform:
    """The convexity transform attached to each application family.

    1: constant source, U(t) = -sqrt(-t).
    2: eigenvalue source, U(t) = -log(-t).
    3: power source with exponent 0 < p < 2, U(t) = -(-t)^((2-p)/4);
       p >= 2 makes the transform decreasing and is rejected.
    """
    if application == 1:
        return negative_sqrt_transform()
    if application == 2:
        return negative_log_transform()
    if application == 3:
        if p is None:
            raise InputError("application 3 needs the exponent p")
        return negative_power_transform(p)
    raise InputError(f"unknown application {application}")


def convexity_scan_solution(sol: Solution, tr: Transform) -> ConvexityReport:
    """Minimum eigenvalue of D^2 U(u) over a solution's strictly interior nodes."""
    interior = sol.interior
    u = sol.u[interior]
    tr.check_domain(u)
    low, scale = sol.transform_hessian_min(tr.du(u), tr.d2u(u))
    return ConvexityReport.of(tr.name, low, scale, sol.positions[interior])


def bounds_report(sol: Solution, f: SourceTerm, application: int, *,
                  p: float | None = None, gamma: float = 1.0) -> BoundsReport:
    """Audit the application's a priori bound on a solved problem.

    lhs is twice the source integral at the solution minimum (the field value
    at the critical point for alpha = 1), rhs the squared minimum boundary
    gradient.  The convexity hypothesis is scanned with the application's
    transform; planar solutions may fall back to the identity transform,
    whose convexity follows from admissibility in the plane.
    """
    if gamma not in GAMMA_CHOICES:
        raise InputError(f"gamma must be one of {GAMMA_CHOICES}")
    transform = transform_preset(application, p)
    scan = convexity_scan_solution(sol, transform)
    used = transform.name
    if not scan.convex:
        scan = convexity_scan_solution(sol, identity_transform())
        used = "identity"
    hypothesis_ok = bool(scan.convex and f.nonincreasing)

    pf = pfunction_field(sol, f, PFunctionSpec(alpha=1.0, gamma=gamma))
    rhs = float(np.min(pf.boundary_phi))
    lhs = 2.0 * float(np.max(pf.integral))
    slack = lhs - rhs
    pointwise = pf.phi[pf.interior] - rhs
    pointwise_min = float(np.min(pointwise))
    holds = bool(hypothesis_ok and slack >= -BOUND_TOL and pointwise_min >= -BOUND_TOL)
    return BoundsReport(application=application, gamma=gamma, lhs=lhs, rhs=rhs,
                        slack=slack, pointwise_min_slack=pointwise_min,
                        hypothesis_ok=hypothesis_ok, transform_name=used,
                        holds=holds)


def critical_point_report(sol: Solution, f: SourceTerm) -> CriticalPointReport:
    """Hessian spectrum and saturation ratio at the solution's interior minimum."""
    location, hess = sol.hessian_at_minimum()
    spectrum, _ = jacobi_eigh(hess)
    f_val = float(np.asarray(f.f(sol.u_min)))
    if f_val <= 0:
        raise InputError("source must be positive at the solution minimum")
    return CriticalPointReport(
        location=np.atleast_1d(location),
        hessian_spectrum=np.asarray(spectrum, dtype=float),
        max_ratio=float(np.max(spectrum)) / math.sqrt(f_val),
        binom_bound=math.comb(len(spectrum), 2) ** -0.5,
        s2_value=elem_sym_from_eigenvalues(spectrum, 2), f_value=f_val,
        spectrum_positive=bool(np.min(spectrum) > 0))
