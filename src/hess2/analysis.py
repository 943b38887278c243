"""Auxiliary P-function fields, extreme-principle verdicts and a priori bounds.

The central object is the field

    Phi(x; alpha) = |grad u(x)|^2 + 2 alpha * int_{u(x)}^0 f(s)^gamma ds

built on a solved problem.  Verdicts compare its interior and boundary
extremes; bound reports read the alpha = 1 field at the critical point of u,
where it gives the printed a priori estimates; one field per gamma serves both.

gamma is configurable because the two natural conventions (square-rooted
source versus plain source in the integral) do not agree for non-constant
sources; reports carry the convention they were evaluated under.
"""

from __future__ import annotations

import math
from typing import Callable, NamedTuple

import numpy as np

from ._quad import adaptive_simpson
from .errors import InputError, NumericalError, SolverError
from .solver import Solution, SourceTerm
from .symmat import eigenvalues, invariants, jacobi_eigh
from .transforms import (
    ConvexityReport,
    Transform,
    negative_log_transform,
    negative_power_transform,
    negative_sqrt_transform,
)

GAMMA_CHOICES = (0.5, 1.0)
BOUND_TOL = 1e-6  # slack a bound report may miss by and still hold
#: Near-minimal grid nodes within this many grid steps of their mean count as
#: one critical point; a wider spread is reported as separated minima.
MINIMUM_CLUSTER_STEPS = 3.0


class _PFunctionParams(NamedTuple):
    alpha: float
    gamma: float = 0.5


class PFunctionSpec(_PFunctionParams):
    """Parameters of the auxiliary field: alpha and the source exponent, checked
    whenever a spec is made, `_replace` included."""

    __slots__ = ()

    def __new__(cls, alpha: float, gamma: float = 0.5):
        if not math.isfinite(alpha):
            raise InputError("alpha must be finite")
        if gamma not in GAMMA_CHOICES:
            raise InputError(f"gamma must be one of {GAMMA_CHOICES}")
        return super().__new__(cls, alpha, gamma)

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)


class PFunctionField(NamedTuple):
    """The auxiliary field sampled on a solution's nodes and boundary."""

    alpha: float
    gamma: float
    h: float                       # the solution's grid step, `Solution.h_eff`
    positions: np.ndarray          # (n, d) rows: radii (n, 1) or coordinates (n, 2)
    grad_sq: np.ndarray
    integral: np.ndarray           # int_u^0 f^gamma per node
    interior: np.ndarray           # bool mask over nodes
    boundary_positions: np.ndarray  # (b, d) rows
    boundary_grad_sq: np.ndarray
    distance_to_boundary: Callable[[np.ndarray], np.ndarray]  # per row of `positions`

    @property
    def phi(self) -> np.ndarray:
        # Not finite where alpha times the integral overflows (`verify_principle` refuses it).
        with np.errstate(over="ignore", invalid="ignore"):
            return self.grad_sq + 2.0 * self.alpha * self.integral

    @property
    def boundary_phi(self) -> np.ndarray:
        # u = 0 on the boundary, so the integral term vanishes exactly.
        return self.boundary_grad_sq


class PrincipleVerdict(NamedTuple):
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


class BoundsReport(NamedTuple):
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


class CriticalPointReport(NamedTuple):
    """Hessian data at the interior minimum of a solution."""

    location: np.ndarray
    hessian_spectrum: np.ndarray
    max_ratio: float                # max Hessian eigenvalue / sqrt(f at minimum)
    binom_bound: float              # (N choose 2)^(-1/2)
    s2_value: float
    f_value: float
    spectrum_positive: bool


def source_integral(f: SourceTerm, gamma: float, u_values) -> np.ndarray:
    """I(u) = int_u^0 f(s)^gamma ds for each u <= 0, by batched adaptive Simpson.

    One quadrature call integrates every gap between consecutive distinct
    values (and from the largest to zero) to relative tolerance 1e-10; a
    cumulative sum from zero downward then gives each value's integral.
    """
    u = np.asarray(u_values, dtype=float)
    if not np.all(u <= 1e-14):
        raise InputError("the source integral is defined for u <= 0")
    values, inverse = np.unique(np.minimum(u, 0.0), return_inverse=True)

    def integrand(s):
        val = np.asarray(f.f(s), dtype=float)
        if np.any(val < 0):
            raise InputError("source must be nonnegative on the solution range")
        return val ** gamma

    # The absolute floor ends the subdivision at a power source's singular endpoint 0.
    try:
        gaps = adaptive_simpson(integrand, values, np.append(values[1:], 0.0),
                                rtol=1e-10, atol=1e-16)
        with np.errstate(over="ignore"):
            integral = np.cumsum(gaps[::-1])[::-1]
        if not np.all(np.isfinite(integral)):
            raise NumericalError("the integral overflows")
    except NumericalError as exc:
        raise NumericalError(f"int_u^0 f^gamma ds for f = {f.label()}, gamma = {gamma:g}: "
                             f"{exc}") from None
    return integral[inverse].reshape(u.shape)


def boundary_gradient_samples(sol: Solution) -> tuple[np.ndarray, np.ndarray]:
    """(points, |grad u|) sampled on the boundary of a solved problem."""
    return sol.boundary_samples()


def pfunction_field(sol: Solution, f: SourceTerm, spec: PFunctionSpec) -> PFunctionField:
    """Sample the auxiliary field on a solved problem."""
    bpts, bvals = boundary_gradient_samples(sol)
    grad = sol.gradient()
    return PFunctionField(
        alpha=spec.alpha, gamma=spec.gamma, h=sol.h_eff,
        positions=sol.positions, grad_sq=np.einsum("ij,ij->i", grad, grad),
        integral=source_integral(f, spec.gamma, sol.u), interior=sol.interior,
        boundary_positions=bpts, boundary_grad_sq=bvals**2,
        distance_to_boundary=sol.distance_to_boundary)


def _finite_field(pf: PFunctionField) -> tuple[np.ndarray, np.ndarray]:
    """The field on the interior nodes and on the boundary samples; raises
    NumericalError, naming alpha and gamma, where either is not finite."""
    phi, bphi = pf.phi[pf.interior], pf.boundary_phi
    if not np.all(np.isfinite(np.append(phi, bphi))):
        raise NumericalError(f"P-function at alpha = {pf.alpha:g}, gamma = {pf.gamma:g} "
                             "is not finite on the interior nodes or boundary samples")
    return phi, bphi


def verify_principle(pf: PFunctionField, mode: str) -> PrincipleVerdict:
    """Check whether the field attains its min/max on the boundary.

    Ties within tol_margin = 5 h^2 max(1, |Phi|), with h = pf.h and |Phi| the
    largest over nodes and boundary samples, count as boundary attainment, so
    constant fields satisfy both modes.
    """
    if mode not in ("min", "max"):
        raise InputError("mode must be 'min' or 'max'")
    phi, bphi = _finite_field(pf)
    pos = pf.positions[pf.interior]
    tol_margin = 5.0 * pf.h**2 * max(1.0, float(np.max(np.abs(pf.phi))),
                                     float(np.max(np.abs(bphi))))
    # A max is a min of -phi; a negative margin puts the extreme strictly inside.
    sign = 1.0 if mode == "min" else -1.0
    i, b = int(np.argmin(sign * phi)), int(np.argmin(sign * bphi))
    margin = float(sign * (phi[i] - bphi[b]))
    distance = pf.distance_to_boundary(pos[i:i + 1])[0] if margin < 0 else 0.0
    return PrincipleVerdict(
        mode=mode, interior_extreme=float(phi[i]), interior_argpoint=pos[i],
        boundary_extreme=float(bphi[b]), boundary_argpoint=pf.boundary_positions[b],
        margin=margin, tol_margin=tol_margin, holds=bool(margin >= -tol_margin),
        distance_argextreme_to_boundary=float(distance))


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
    """Minimum eigenvalue of D^2 U(u) = U' D^2 u + U'' grad u (x) grad u over a
    solution's strictly interior nodes, one eigendecomposition of the frame
    blocks."""
    interior = sol.interior
    composed = tr.composed_hessian(sol.u[interior], sol.gradient()[interior],
                                   sol.hessian()[interior])
    return ConvexityReport.of(tr.name, eigenvalues(composed), sol.positions[interior])


def bounds_report(pf: PFunctionField, scan: ConvexityReport, f: SourceTerm,
                  application: int) -> BoundsReport:
    """Audit the application's a priori bound on a field and the solution's scan.

    lhs is twice the source integral at the solution minimum (the alpha = 1
    field at the critical point), rhs the squared minimum boundary gradient;
    the pointwise slack reads the alpha = 1 field whatever alpha `pf` carries.
    The hypothesis: `scan` (the application's transform) is convex, f nonincreasing.
    An alpha = 1 field that is not finite raises NumericalError, as in
    `verify_principle`.  A finite one keeps lhs finite too: at the minimum of u
    the field is at least lhs.
    """
    hypothesis_ok = bool(scan.convex and f.nonincreasing)
    phi, bphi = _finite_field(pf._replace(alpha=1.0))
    rhs = float(np.min(bphi))
    lhs = 2.0 * float(np.max(pf.integral))
    slack = lhs - rhs
    pointwise_min = float(np.min(phi - rhs))
    holds = bool(hypothesis_ok and slack >= -BOUND_TOL and pointwise_min >= -BOUND_TOL)
    return BoundsReport(application=application, gamma=pf.gamma, lhs=lhs, rhs=rhs,
                        slack=slack, pointwise_min_slack=pointwise_min,
                        hypothesis_ok=hypothesis_ok, transform_name=scan.transform_name,
                        holds=holds)


# No command calls this yet: `verify` is to write it (ROADMAP item 22, step 3).
def critical_point_report(sol: Solution, f: SourceTerm) -> CriticalPointReport:
    """Hessian spectrum and saturation ratio at the solution's interior minimum.

    Near-minimal nodes spread over more than MINIMUM_CLUSTER_STEPS grid steps
    are separated minima, and raise SolverError.  The spectrum is that of the
    full N x N Hessian: the frame block's eigenvalues, and H_ii once more for
    each further direction that axis i stands for.  S2 comes from the frame
    block and its multiplicities by `symmat.invariants`.
    """
    k = int(np.argmin(sol.u))
    near = sol.positions[sol.u <= sol.u[k] * (1.0 - 1e-9)]
    if len(near) > 1:
        spread = np.max(np.linalg.norm(near - near.mean(axis=0), axis=1))
        if spread > MINIMUM_CLUSTER_STEPS * sol.h_eff:
            raise SolverError("multiple separated minima; critical point not unique")
    hess = sol.hessian()[k]
    lam = np.sort(np.concatenate([jacobi_eigh(hess)[0], np.repeat(
        np.diagonal(hess), np.subtract(sol.multiplicity, 1))]))
    f_val = float(np.asarray(f.f(sol.u_min)))
    if f_val <= 0:
        raise InputError("source must be positive at the solution minimum")
    return CriticalPointReport(
        location=sol.positions[k],
        hessian_spectrum=lam,
        max_ratio=float(np.max(lam)) / math.sqrt(f_val),
        binom_bound=math.comb(len(lam), 2) ** -0.5,
        s2_value=float(invariants(hess, sol.multiplicity)[1]), f_value=f_val,
        spectrum_positive=bool(np.min(lam) > 0))
