"""Admissible solutions of S2(D^2 u) = f(u) with zero boundary data.

Three solvers:

* `solve_radial` - balls in dimension 2 <= N <= 106 (unit ball, 1024 nodes;
  above that r^(N-2) underflows near the origin).  For radial u the Hessian
  eigenvalues are u'' and u'/r (multiplicity N-1), so
      S2 = (N-1) u'' u'/r + C(N-1, 2) (u'/r)^2,
  and multiplying by 2 r^{N-1}/(N-1) turns the equation into
      d/dr [ r^{N-2} (u')^2 ] = (2/(N-1)) r^{N-1} f(u),
  a monotone integral fixed point solved by Picard iteration.  Cumulative
  integrals use one-sided quartic windows (smooth error from node to node)
  and integrate the weight s^(N-1) exactly against the quartic interpolant
  (product integration), so dividing by powers of r and differentiating the
  result keeps defect measurements clean near r = 0 in every dimension.
  The Picard map T is homogeneous of degree 1/2, so for f = lam (-u)^p the
  passes iterate only the shape w = T[|w|^p]/s, s = max |T[|w|^p]|, at sup
  norm 1 (`_radial_passes`), and u = A w with A^(1-p/2) = sqrt(lam) s, p < 2.

* `solve_eigen_radial` - the same shape passes at p = 2, inverse iteration for
  S2(D^2 u) = lambda (-u)^2 on a ball in any dimension N >= 2: lambda = 1/s^2.

* `solve_grid2d` - the planar case, where S2 is the Hessian determinant, by
  damped Newton on central differences with one-sided curved-boundary stencils
  at boundary-adjacent nodes.  Steps that leave the discrete elliptic branch
  (Delta u > 0, det D^2 u > 0) are halved.  Each step is one flexible GMRES
  cycle, right-preconditioned with a Jacobian's float32 factor, lagged or
  fresh, and Newton stops at |S2 - f| <= 2^-35 max |f(u)|.  A `Lattice` builds the
  stencil tables (`Stencil`) and the plan of their direct LU (`hess2.multifrontal`,
  imported then) on first read, so radial and eigenvalue solves never compile it.

Solutions implement `Solution`: per-node gradient and Hessian frame blocks,
from which `admissibility_report` and `hess2.analysis` derive every invariant.
"""

from __future__ import annotations

import itertools
import json
import math
from functools import cached_property
from typing import Callable, ClassVar, NamedTuple, Protocol

import numpy as np

from ._quad import cumulative_quartic, deriv_uniform, forward_first_derivative
from .domain import (AXIS_SLOTS, CENTER, STENCIL, DomainSpec, GridMask, rasterize,
                     signed_distance)
from .errors import InputError, SolverError
from .symmat import cofactor, eigenvalues, invariants

SOLUTION_SCHEMA_VERSION = 2

#: Boundary crossings whose axis direction is this far from the normal are
#: skipped when sampling |grad u| on the boundary (the better-aligned axis
#: always covers the same stretch of boundary).
MIN_NORMAL_ALIGNMENT = 0.5

#: Near-minimal grid nodes within this many grid steps of their mean count as
#: one critical point; a wider spread is reported as separated minima.
MINIMUM_CLUSTER_STEPS = 3.0

# Iteration controls of the radial and grid solvers.
#: Radial passes stop at max |u_new - u| <= PICARD_TOL max |u|, so scale-covariant.
PICARD_TOL = 1e-13
PICARD_MAX_ITER = 400
#: Newton stops at |S2 - f| <= NEWTON_RTOL max |f(u)|, or NEWTON_TOL where f(u) = 0.
NEWTON_RTOL = 2.0**-35
NEWTON_TOL = 1e-10
NEWTON_MAX_ITER = 50
NEWTON_MIN_STEP = 1e-6
GMRES_RTOL, GMRES_RESTART = 1e-3, 30
ANDERSON_DEPTH = 5
#: Intervals on [0, R] of the radial and eigenvalue solvers (`--nodes`).
RADIAL_NODES = 1024


class SourceTerm(NamedTuple):
    """Source f(u) with its derivative and whether it is nonincreasing (on u <= 0)."""

    preset: str
    f: Callable[[np.ndarray], np.ndarray]
    fprime: Callable[[np.ndarray], np.ndarray]
    nonincreasing: bool
    params: tuple[float, ...] = ()

    def label(self) -> str:
        if self.params:
            return self.preset + ":" + ",".join(f"{p:g}" for p in self.params)
        return self.preset


def _require_positive(message: str, *values: float) -> None:
    """Preset parameters must be positive and finite (NaN is neither)."""
    if not all(math.isfinite(v) and v > 0 for v in values):
        raise InputError(message)


def constant_source(value: float = 1.0) -> SourceTerm:
    _require_positive("constant source must be positive and finite", value)
    return SourceTerm(preset="const",
                      f=lambda t: np.full_like(np.asarray(t, dtype=float), value),
                      fprime=lambda t: np.zeros_like(np.asarray(t, dtype=float)),
                      nonincreasing=True, params=(value,))


def exp_decreasing_source(rate: float = 0.5) -> SourceTerm:
    """f(t) = exp(-rate t), strictly decreasing for rate > 0.

    The default rate 1/2 keeps the planar problems on all stock domains well
    inside the solvable regime: sources growing with depth are Gelfand-like,
    and the unit-rate exponential already sits past the solvability fold of
    the (2, 1) ellipse (continuation locates the fold near rate 0.97).
    """
    _require_positive("decreasing exponential needs a finite rate > 0", rate)
    return SourceTerm(preset="exp-dec",
                      f=lambda t: np.exp(-rate * np.asarray(t, dtype=float)),
                      fprime=lambda t: -rate * np.exp(-rate * np.asarray(t, dtype=float)),
                      nonincreasing=True, params=(rate,))


def exp_increasing_source(rate: float = 1.0) -> SourceTerm:
    """f(t) = exp(rate t), strictly increasing; self-damping for u < 0."""
    _require_positive("increasing exponential needs a finite rate > 0", rate)
    return SourceTerm(preset="exp-inc",
                      f=lambda t: np.exp(rate * np.asarray(t, dtype=float)),
                      fprime=lambda t: rate * np.exp(rate * np.asarray(t, dtype=float)),
                      nonincreasing=False, params=(rate,))


def eigen_source(lam1: float) -> SourceTerm:
    """f(t) = lam1 t^2, nonincreasing on t <= 0."""
    _require_positive("eigenvalue factor must be positive and finite", lam1)
    return SourceTerm(preset="eigen",
                      f=lambda t: lam1 * np.asarray(t, dtype=float) ** 2,
                      fprime=lambda t: 2.0 * lam1 * np.asarray(t, dtype=float),
                      nonincreasing=True, params=(lam1,))


def power_source(lam: float, p: float) -> SourceTerm:
    """f(t) = lam (-t)^p on t <= 0, nonincreasing there."""
    _require_positive("power source needs finite lam > 0 and p > 0", lam, p)

    def _f(t):
        return lam * np.abs(np.minimum(np.asarray(t, dtype=float), 0.0)) ** p

    def _fp(t):
        tt = np.minimum(np.asarray(t, dtype=float), 0.0)
        with np.errstate(divide="ignore", invalid="ignore"):
            out = -lam * p * np.abs(tt) ** (p - 1.0)
        return np.where(tt == 0.0, 0.0 if p > 1 else -lam * p, out)

    return SourceTerm(preset="power", f=_f, fprime=_fp, nonincreasing=True, params=(lam, p))


SOURCE_PRESETS = {
    "const": constant_source,
    "exp-dec": exp_decreasing_source,
    "exp-inc": exp_increasing_source,
    "eigen": eigen_source,
    "power": power_source,
}


class Solution(Protocol):
    """What analysis and the CLI read from a solved problem, radial or planar.

    Gradient and Hessian come in each node's own orthonormal frame of k axes;
    axis i stands for `multiplicity[i]` directions of R^N on which the Hessian
    acts as H_ii (radial: e_r and one tangent, (1, N-1); planar: x and y).
    `admissibility_report` and `hess2.analysis` derive every invariant from
    them.  Every per-node array covers every node; `interior` marks the
    strictly interior nodes, the ones invariants are read on (sources
    vanishing at zero make S2 degenerate on the boundary).
    """

    kind: ClassVar[str]             # "radial" | "grid2d", as saved and reported
    u: np.ndarray

    @property
    def u_min(self) -> float: ...
    @property
    def positions(self) -> np.ndarray: ...      # (n, d): radii (n, 1) or coordinates (n, 2)
    @property
    def interior(self) -> np.ndarray: ...       # bool mask over nodes
    @property
    def h_eff(self) -> float: ...               # grid step setting verdict tolerances
    @property
    def domain_label(self) -> str: ...
    @property
    def multiplicity(self) -> tuple[int, ...]: ...  # directions per frame axis, sum N
    def gradient(self) -> np.ndarray: ...       # (n, k) over all nodes
    def hessian(self) -> np.ndarray: ...        # (n, k, k) over all nodes
    # Distance to the boundary per point, given as rows of `positions`.
    def distance_to_boundary(self, points) -> np.ndarray: ...
    # (points, |grad u|) on the boundary.
    def boundary_samples(self) -> tuple[np.ndarray, np.ndarray]: ...
    # Solve-summary fields, leading plot columns (names, arrays), and the
    # header fields and arrays of the saved file.
    def summary_fields(self) -> dict: ...
    def profile_columns(self) -> tuple[str, list[np.ndarray]]: ...
    def saved_fields(self) -> tuple[dict, dict[str, np.ndarray]]: ...


class RadialProfile(NamedTuple):
    """Radial solution u(r) on [0, R]: nodes, values and radial derivative."""

    kind = "radial"
    dim: int
    radius: float
    r: np.ndarray
    u: np.ndarray
    up: np.ndarray
    picard_iterations: int = 0
    picard_delta: float = 0.0
    ode_residual_sup: float = 0.0

    @property
    def u_min(self) -> float:
        return float(self.u[0])

    @property
    def boundary_gradient(self) -> float:
        return float(self.up[-1])

    def hessian_eigenvalues(self) -> np.ndarray:
        """Per-node Hessian eigenvalues [radial u'', tangential u'/r].  At r = 0
        both are u''(0), the limit of u'/r, Richardson-extrapolated."""
        upp = deriv_uniform(self.up, float(self.r[1] - self.r[0]))
        tang = np.empty_like(self.up)
        tang[1:] = self.up[1:] / self.r[1:]
        r1, r2, c1, c2 = (float(v) for v in (*self.r[1:3], *tang[1:3]))
        tang[0] = upp[0] = (c1 * r2**2 - c2 * r1**2) / (r2**2 - r1**2)
        return np.column_stack([upp, tang])

    # Solution interface: the boundary is the last node.

    @property
    def positions(self) -> np.ndarray:
        return self.r[:, None]

    @property
    def interior(self) -> np.ndarray:
        mask = np.ones(self.r.size, dtype=bool)
        mask[-1] = False
        return mask

    @property
    def h_eff(self) -> float:
        return self.radius / (self.r.size - 1)

    @property
    def domain_label(self) -> str:
        return f"ball:{self.radius:g}(dim{self.dim})"

    @property
    def multiplicity(self) -> tuple[int, int]:
        return 1, self.dim - 1

    def gradient(self) -> np.ndarray:
        return np.column_stack([self.up, np.zeros_like(self.up)])

    def hessian(self) -> np.ndarray:
        """Diagonal (u'', u'/r) per node: (e_r, tangent) are eigen-axes."""
        return self.hessian_eigenvalues()[:, :, None] * np.eye(2)

    def distance_to_boundary(self, points) -> np.ndarray:
        return self.radius - np.abs(np.asarray(points, dtype=float)[:, 0])

    def boundary_samples(self) -> tuple[np.ndarray, np.ndarray]:
        return np.array([[self.radius]]), np.array([self.boundary_gradient])

    def summary_fields(self) -> dict:
        return {"kind": self.kind, "dim": self.dim, "radius": self.radius,
                "iterations": self.picard_iterations,
                "ode_residual_sup": self.ode_residual_sup}

    def profile_columns(self) -> tuple[str, list[np.ndarray]]:
        return "r u up", [self.r, self.u, self.up]

    def saved_fields(self) -> tuple[dict, dict[str, np.ndarray]]:
        header = {"dim": self.dim, "radius": self.radius,
                  "picard_iterations": self.picard_iterations,
                  "picard_delta": self.picard_delta,
                  "ode_residual_sup": self.ode_residual_sup}
        return header, {"r": self.r, "u": self.u, "up": self.up}


def _picard_pass(n_dim, r, h, rhs_vals):
    # Unchecked: r^(N-2) and the integrals may leave the float range (`_check_pass`).
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        g = cumulative_quartic(rhs_vals, h, power=n_dim - 1)
        up2 = np.zeros_like(r)
        up2[1:] = (2.0 / (n_dim - 1)) * g[1:] / r[1:] ** (n_dim - 2)
        up = np.sqrt(np.maximum(up2, 0.0))
        tail = cumulative_quartic(up, h)
        return -(tail[-1] - tail), up


def _radial_grid(n_dim: int, radius: float, m: int) -> tuple[np.ndarray, float]:
    """Nodes 0 = r_0 < ... < r_m = radius of the radial solvers in dimension
    n_dim >= 2, and their step.  Squared radii enter the start iterates and the
    Hessian's limit at r = 0, so r_m^2 must be finite and r_1^2 normal."""
    if n_dim < 2:
        raise InputError("radial solves need dimension >= 2")
    if m < 16:
        raise InputError("need at least 16 radial intervals")
    _require_positive("radius must be positive and finite", radius)
    tiny = np.finfo(float).tiny
    try:
        r = np.linspace(0.0, radius, m + 1)
    except (MemoryError, ValueError):   # ValueError: beyond numpy's array size
        raise InputError(f"--nodes {m} needs {m + 1} radii, which cannot be allocated; "
                         "lower --nodes") from None
    h = radius / m
    if not (radius * radius < math.inf and h * h >= tiny):
        raise InputError(f"--radius {radius:g} is out of range: the squared radii of its "
                         f"{m}-interval grid need it in [{m * math.sqrt(tiny):.1e}, "
                         f"{math.sqrt(np.finfo(float).max):.1e})")
    return r, h


def _subnormal_power(r: np.ndarray, n_dim: int) -> bool:
    """Whether r_1^(N-2) is below the smallest normal float."""
    return (n_dim - 2) * math.log(r[1]) < math.log(np.finfo(float).tiny)


def _check_pass(label: str, n_dim: int, r: np.ndarray, u: np.ndarray) -> None:
    """Raise unless a Picard pass gave a finite iterate negative inside the ball, naming why."""
    if not np.all(np.isfinite(u)):
        what = "a non-finite iterate"
        cause = (f"r^{n_dim - 2} underflows near the origin" if _subnormal_power(r, n_dim)
                 else "the Picard integral overflowed")
    elif np.any(u[:-1] >= 0):
        what, cause = "an iterate that vanishes inside the ball", "the Picard integral underflowed"
    else:
        return
    raise SolverError(f"{label} produced {what} in dimension {n_dim} ({cause})")


def _source_values(f: SourceTerm, u: np.ndarray, where: str, n_dim: int) -> np.ndarray:
    """f(u) as Picard data; raises where it is not finite or is negative."""
    with np.errstate(over="ignore", invalid="ignore"):
        vals = np.asarray(f.f(u), dtype=float)
    if not np.all(np.isfinite(vals)):
        raise SolverError(f"{where} overflowed the source in dimension {n_dim} (f = "
                          f"{f.label()} is not finite at u_min = {float(np.min(u)):.3e})")
    if np.any(vals < -1e-14):
        raise SolverError("source became negative during the radial solve")
    return np.maximum(vals, 0.0)


def _finish_radial(profile: RadialProfile, f: SourceTerm) -> RadialProfile:
    """The profile with its residual sup, once f(u) is finite and its Hessian
    passes the cone check (`_check_pass` has made u negative inside the ball).
    S1 and S2 come from the diagonal Hessian (u'', u'/r) with multiplicities
    (1, N-1); at r = 0 both are u''(0), which gives S2 = C(N, 2) u''(0)^2."""
    fu = _source_values(f, profile.u, "radial solve", profile.dim)
    hess = profile.hessian()
    s1, s2 = invariants(hess, profile.multiplicity)
    profile = profile._replace(ode_residual_sup=float(np.max(np.abs(s2 - fu))))
    if np.min(s1) < -1e-8 * max(1.0, float(np.max(np.abs(hess)))):
        reason = "trace of the Hessian left the admissible cone"
        # A subnormal r^(N-2) at the first nodes, or a subnormal Picard integral
        # up to r_1, keeps the passes finite but costs them their precision.
        if _subnormal_power(profile.r, profile.dim):
            reason += (f" in dimension {profile.dim} (r^{profile.dim - 2} is subnormal "
                       "near the origin)")
        elif (cumulative_quartic(fu, profile.h_eff, power=profile.dim - 1)[1]
              < np.finfo(float).tiny):
            reason += (f" in dimension {profile.dim} (the Picard integral is subnormal "
                       "near the origin)")
        raise SolverError(reason)
    return profile


def _radial_passes(label: str, n_dim: int, r: np.ndarray, h: float,
                   f: SourceTerm | None, p: float = 0.0):
    """Picard passes u <- T[f(u)] from (r^2 - R^2)/2, or with f None shape passes
    w <- T[|w|^p]/s from (r^2 - R^2)/R^2, until max |u_new - u| <= PICARD_TOL max |u_new|:
    (u, u', passes, last delta, s), s the last pass's sup norm before rescaling."""
    radius = r[-1]
    u = 0.5 * (r**2 - radius**2) if f else (r**2 - radius**2) / radius**2
    for k in range(1, PICARD_MAX_ITER + 1):
        where = f"{label} {k}"
        v, vp = _picard_pass(n_dim, r, h,
                             _source_values(f, u, where, n_dim) if f else np.abs(u) ** p)
        _check_pass(where, n_dim, r, v)
        s = float(np.max(np.abs(v)))
        first = s if k == 1 else first
        if p == 2 and not 0.0 < (1.0 / (s * s) if s * s > 0 else math.inf) < math.inf:
            raise SolverError(f"{where} produced an eigenvalue 1/s^2 out of float range in "
                              f"dimension {n_dim} (sup norm s = {s:.3e})")
        if not f:
            v, vp = v / s, vp / s
        delta, u = float(np.max(np.abs(v - u))), v
        if delta <= PICARD_TOL * (s if f else 1.0):
            return u, vp, k, delta, s
    raise SolverError(f"radial Picard iteration did not converge (last delta {delta:.3e} "
                      f"at max |u| {s:.3e} after {PICARD_MAX_ITER} passes, "
                      f"from max |u| {first:.3e} after pass 1)")


def solve_radial(n_dim: int, radius: float, f: SourceTerm,
                 nodes: int = RADIAL_NODES) -> RadialProfile:
    """Admissible radial solution on a ball by Picard passes over `nodes` intervals;
    for f = lam (-u)^p, p < 2, passes of the shape w, and u = (sqrt(lam) s)^(2/(2-p)) w."""
    r, h = _radial_grid(n_dim, radius, nodes)
    if f.preset != "power" or f.params[1] >= 2:
        u, up, it, delta, _ = _radial_passes("radial Picard pass", n_dim, r, h, f)
    else:
        lam, p = f.params
        w, wp, it, delta, s = _radial_passes("radial Picard pass", n_dim, r, h, None, p)
        with np.errstate(over="ignore", under="ignore", invalid="ignore"):
            amp = float(np.float64(math.sqrt(lam) * s) ** (2.0 / (2.0 - p)))
            u, up = amp * w, amp * wp
        if not (amp >= np.finfo(float).tiny and np.all(np.isfinite(up))):
            raise SolverError(f"radial solve amplitude A = {amp:.3e} takes u or u' out of float "
                              f"range in dimension {n_dim} (f = {f.label()})")
    return _finish_radial(RadialProfile(dim=n_dim, radius=radius, r=r, u=u, up=up,
                                        picard_iterations=it, picard_delta=delta), f)


def solve_eigen_radial(n_dim: int, radius: float,
                       nodes: int = RADIAL_NODES) -> tuple[float, RadialProfile]:
    """First eigenpair of S2(D^2 u) = lambda (-u)^2 on a ball in R^N: the shape
    passes at p = 2, with sup norm 1, and lambda = 1/s^2."""
    r, h = _radial_grid(n_dim, radius, nodes)
    u, up, k, delta, s = _radial_passes("inverse iteration step", n_dim, r, h, None, 2.0)
    lam = 1.0 / (s * s)
    return lam, _finish_radial(RadialProfile(
        dim=n_dim, radius=radius, r=r, u=u, up=up, picard_iterations=k, picard_delta=delta),
        eigen_source(lam))


# ----------------------------------------------------------------------
# Planar grid solver
# ----------------------------------------------------------------------

def _second_derivative_row(theta_plus, theta_minus, h):
    """One-sided 3-point second-derivative coefficients (center, plus, minus)."""
    denom = h * h
    c_plus = 2.0 / (theta_plus * (theta_plus + theta_minus)) / denom
    c_minus = 2.0 / (theta_minus * (theta_plus + theta_minus)) / denom
    c_center = -2.0 / (theta_plus * theta_minus) / denom
    return c_center, c_plus, c_minus


def _first_derivative_row(theta_plus, theta_minus, h):
    """Nonuniform central first-derivative coefficients (center, plus, minus)."""
    tp, tm = theta_plus, theta_minus
    denom = tp * tm * (tp + tm) * h
    c_plus = tm * tm / denom
    c_minus = -tp * tp / denom
    c_center = (tp * tp - tm * tm) / denom
    return c_center, c_plus, c_minus


class Stencil(NamedTuple):
    """A lattice operator over the inside nodes, zero boundary data: row i holds
    coef[k, i] in column columns[slots[k], i] (`GridMask.columns`), and nothing
    where that arm leaves the domain.  Slots ascend, so their columns do too,
    and `@` sums each row as CSR would, bit for bit."""

    columns: np.ndarray
    slots: tuple[int, ...]
    coef: np.ndarray

    @property
    def nnz(self) -> int:
        """Stored entries: the centre and each arm that reaches a neighbour."""
        n = self.coef.shape[1]
        return int(np.count_nonzero(self.columns[list(self.slots)] < n))

    def __matmul__(self, x: np.ndarray) -> np.ndarray:
        padded = np.append(x, 0.0)   # an arm that leaves the domain reads 0
        out = np.zeros(x.size)
        # Like CSR, no warning: callers check what they read for overflow.
        with np.errstate(over="ignore", invalid="ignore"):
            for k, c in zip(self.slots, self.coef):
                out += c * padded[self.columns[k]]
        return out


def _stencil(columns: np.ndarray, coef: dict) -> Stencil:
    """The operator with coefficients coef[slot], its slots ascending."""
    slots = tuple(sorted(coef))
    return Stencil(columns, slots, np.array([coef[k] for k in slots]))


def _stencil_sum(terms, diagonal=None) -> Stencil:
    """sum_k diag(w_k) A_k + diag(diagonal), for (w_k, A_k) in `terms`."""
    coef = {} if diagonal is None else {CENTER: diagonal}
    for w, op in terms:
        for k, c in zip(op.slots, op.coef):
            coef[k] = coef[k] + w * c if k in coef else w * c
    return _stencil(terms[0][1].columns, coef)


def _axis_operator(mask: GridMask, row, i: int) -> Stencil:
    """The derivative along axis i whose 3-point coefficients `row` gives."""
    ip, im = AXIS_SLOTS[2 * i:2 * i + 2]   # the +/- arms of axis i
    cc, cp, cm = row(mask.theta[:, ip], mask.theta[:, im], mask.h)
    return _stencil(mask.columns, {CENTER: cc, ip: cp, im: cm})


def build_operators(mask: GridMask) -> dict[tuple[int, int], Stencil]:
    """Second derivatives over inside nodes (zero boundary data), keyed by
    axis: ops[i, j] is d^2/dx_i dx_j (i <= j), axes 0 = x, 1 = y.  A new dict
    on each call; `Lattice.ops` keeps one.  A lattice whose coefficients
    2/(theta (theta + theta') h^2) overflow (h^2 subnormal) is refused."""
    th = mask.theta
    # On a tiny lattice the coefficients read inf; the check below refuses it.
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        ops = {(i, i): _axis_operator(mask, _second_derivative_row, i)
               for i in range(2)}
        # Cross derivative from the two diagonal second derivatives:
        # slots 8/0 are +/-(1,1)/sqrt2, 6/2 are +/-(1,-1)/sqrt2.
        sqrt2h = math.sqrt(2.0) * mask.h
        cc1, cp1, cm1 = _second_derivative_row(th[:, 8], th[:, 0], sqrt2h)
        cc2, cp2, cm2 = _second_derivative_row(th[:, 6], th[:, 2], sqrt2h)
        ops[0, 1] = _stencil(mask.columns, {CENTER: 0.5 * (cc1 - cc2), 8: 0.5 * cp1,
                                            0: 0.5 * cm1, 6: -0.5 * cp2, 2: -0.5 * cm2})
    if not all(np.all(np.isfinite(op.coef)) for op in ops.values()):
        raise InputError(f"--h {mask.h:g} on --domain {mask.spec.label()} is out of range: "
                         "its stencil coefficients 2/(theta (theta + theta') h^2) overflow; "
                         "scale the domain and --h up together")
    return ops


class Lattice:
    """A planar domain's mask; its operators and their LU's plan are built on first read."""

    def __init__(self, mask: GridMask):
        self.mask = mask

    @cached_property
    def ops(self) -> dict[tuple[int, int], Stencil]:
        return build_operators(self.mask)

    @cached_property
    def plan(self):
        from .multifrontal import Plan

        return Plan(self.mask.grid_index, self.mask.columns)


def factorized(a: Stencil, lattice: Lattice, dtype=np.float64):
    """Direct LU of `a` on the lattice's plan (`hess2.multifrontal.factor`),
    stored in `dtype`, as a solve function.  A singular pivot block raises
    SolverError."""
    from .multifrontal import factor

    return factor(a, lattice.plan, dtype)


def _gmres(a: Stencil, b: np.ndarray, precond):
    """x with |b - a x| <= GMRES_RTOL |b| by one flexible GMRES cycle (Saad,
    SIAM J. Sci. Comput. 14, 1993) of at most GMRES_RESTART steps, right-
    preconditioned: z_j = precond(v_j) is kept and x = Z y; None where it misses.

    a Z = V H holds whether or not precond is linear (a float32 solve is not,
    to rounding), so each step's least-squares residual is the true residual
    and one stop test serves both; it is checked once more on the returned x.
    b is first scaled by a power of two near max |b|, exactly, so its norms
    cannot overflow.
    """
    e = np.frexp(np.max(np.abs(b)))[1]
    b = np.ldexp(b, -e)
    bnorm, m = np.linalg.norm(b), GMRES_RESTART
    if bnorm == 0:
        return np.zeros_like(b)
    v, z = np.empty((m + 1, b.size)), np.empty((m, b.size))
    h, g = np.zeros((m + 1, m)), np.zeros(m + 1)
    v[0], g[0], tol = b / bnorm, bnorm, GMRES_RTOL * bnorm   # min |g - h y| over y
    for j in range(m):
        z[j] = precond(v[j])
        w = a @ z[j]
        for k in range(j + 1):   # modified Gram-Schmidt
            h[k, j] = v[k] @ w
            w -= h[k, j] * v[k]
        h[j + 1, j] = np.linalg.norm(w)
        if not np.isfinite(h[j + 1, j]):   # a non-finite a or b; lstsq would raise
            return None
        y = np.linalg.lstsq(h[:j + 2, :j + 1], g[:j + 2], rcond=None)[0]
        if np.linalg.norm(h[:j + 2, :j + 1] @ y - g[:j + 2]) <= tol or h[j + 1, j] == 0:
            break
        v[j + 1] = w / h[j + 1, j]
    else:
        return None
    x = y @ z[:j + 1]
    return np.ldexp(x, e) if np.linalg.norm(b - a @ x) <= tol else None


def spsolve(a: Stencil, b: np.ndarray, lattice: Lattice, lu):
    """Newton step a x = b, and the solve function of the factor to reuse.

    GMRES, right-preconditioned by `lu` (an earlier Jacobian's float32 factor),
    solves to relative residual GMRES_RTOL; where it misses within
    GMRES_RESTART steps, or where `lu` is None, `a` is factored in float32 and
    GMRES runs again with that factor (lagged-Jacobian inexact Newton: Knoll &
    Keyes, J. Comput. Phys. 193, 2004).  The step is None where it misses with
    the fresh factor too.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        if lu is not None and (x := _gmres(a, b, lu)) is not None:
            return x, lu
        lu = factorized(a, lattice, np.float32)
        return _gmres(a, b, lu), lu


class ScalarField2D(NamedTuple):
    """Planar solution on a lattice, zero on the boundary."""

    kind = "grid2d"
    multiplicity = (1, 1)   # frame (x, y)
    lattice: Lattice
    u: np.ndarray
    newton_iterations: int = 0
    residual_sup: float = 0.0

    @property
    def u_min(self) -> float:
        return float(np.min(self.u))

    # Solution interface: every inside node is interior; the boundary is
    # sampled at the feet of the axis stencil arms that cross it.

    def gradient(self) -> np.ndarray:
        # Built on each read and not kept: `solve` never reads the first derivatives.
        return np.column_stack([_axis_operator(self.lattice.mask, _first_derivative_row, i)
                                @ self.u for i in range(2)])

    def hessian(self) -> np.ndarray:
        return _hessian(self.lattice.ops, self.u)

    def distance_to_boundary(self, points) -> np.ndarray:
        return -signed_distance(self.lattice.mask.spec, points)

    @property
    def positions(self) -> np.ndarray:
        return self.lattice.mask.node_xy

    @property
    def interior(self) -> np.ndarray:
        return np.ones(self.u.size, dtype=bool)

    @property
    def h_eff(self) -> float:
        return self.lattice.mask.h

    @property
    def domain_label(self) -> str:
        return self.lattice.mask.spec.label()

    def boundary_samples(self) -> tuple[np.ndarray, np.ndarray]:
        """(feet, |grad u|) at the boundary crossings of the axis stencil arms.

        The tangential derivative of u vanishes on the boundary, so the full
        gradient is the normal derivative; it is recovered from a one-sided
        derivative along the grid line through the crossing, divided by the
        cosine between that line and the normal.  Crossings nearly tangential
        to the boundary are skipped.  A sample that is not finite (u within a
        few orders of the float maximum) raises SolverError.
        """
        mask, c = self.lattice.mask, self.lattice.mask.crossings
        align = np.einsum("ij,ij->i", c.normal, STENCIL[c.slot])
        keep = np.abs(align) >= MIN_NORMAL_ALIGNMENT
        if not np.any(keep):
            raise SolverError("no usable boundary crossings for gradient sampling")
        k, slot = c.node_index[keep], c.slot[keep]
        prev = mask.columns[8 - slot, k]   # the neighbour opposite the crossing
        d1 = mask.theta[k, slot] * mask.h
        u1, u2 = self.u[k], np.append(self.u, 0.0)[prev]
        # Without that neighbour (prev = n_inside) u is taken linear from the node
        # to the boundary; the three-point value read at u2 = 0 is discarded.
        with np.errstate(over="ignore", invalid="ignore"):
            deriv_inward = np.where(
                prev < self.u.size, forward_first_derivative(0.0, u1, u2, d1, d1 + mask.h),
                u1 / d1)
            # deriv_inward differentiates along -slot; flip to the outward axis.
            grads = np.abs(-deriv_inward / align[keep])
        if not np.all(np.isfinite(grads)):
            raise SolverError(f"boundary sampling: |grad u| overflowed (u_min "
                              f"{self.u_min:.3e}, h {mask.h:.3e})")
        return c.foot[keep], grads

    def summary_fields(self) -> dict:
        return {"kind": self.kind, "h": self.lattice.mask.h, "domain": self.domain_label,
                "iterations": self.newton_iterations,
                "newton_residual_sup": self.residual_sup}

    def profile_columns(self) -> tuple[str, list[np.ndarray]]:
        xy = self.lattice.mask.node_xy
        return "x y u", [xy[:, 0], xy[:, 1], self.u]

    def saved_fields(self) -> tuple[dict, dict[str, np.ndarray]]:
        spec = self.lattice.mask.spec
        header = {"h": self.lattice.mask.h, "newton_iterations": self.newton_iterations,
                  "residual_sup": self.residual_sup,
                  "domain": {"kind": spec.kind, "semi_axes": list(spec.semi_axes),
                             "vertices": None if spec.vertices is None
                             else [list(v) for v in spec.vertices]}}
        return header, {"u": self.u, "node_xy": self.lattice.mask.node_xy}


def _hessian(ops, u) -> np.ndarray:
    """(n, 2, 2) Hessian blocks of u in the frame (x, y)."""
    uxx, uxy, uyy = (ops[key] @ u for key in ((0, 0), (0, 1), (1, 1)))
    return np.stack([uxx, uxy, uxy, uyy], axis=-1).reshape(-1, 2, 2)


def _newton_jacobian(ops, f, u, hess) -> Stencil:
    """Derivative of S2(D^2 u) - f(u), a cofactor-weighted discrete Laplacian:
    sum_{i<=j} (2 - delta_ij) B_ij D_ij - f'(u) with B = `cofactor`(H) = S1 I - H."""
    b = cofactor(hess)
    pairs = itertools.combinations_with_replacement(range(hess.shape[-1]), 2)
    with np.errstate(over="ignore"):   # the caller rejects the non-finite step
        return _stencil_sum([((2.0 - (i == j)) * b[:, i, j], ops[i, j]) for i, j in pairs],
                            diagonal=-np.asarray(f.fprime(u), dtype=float))


def _inadmissible_nodes(s1, s2) -> int:
    """How many nodes lie off the discrete elliptic branch S1, S2 > 0 (or are not finite)."""
    return int(np.count_nonzero(~((s1 > 0) & (s2 > 0))))


def _start_laplacian(spec: DomainSpec, f: SourceTerm) -> float:
    """c of the linear start Delta u0 = c (see `solve_grid2d`).

    For f = lam (-u)^p with p < 2, solutions scale exactly as
    u(x) = lam^(1/(2-p)) R^(4/(2-p)) u_1(x/R), u_1 the lam = 1 solution on the
    domain shrunk by R, so the start takes c = lam^(1/(2-p)) L^(2p/(2-p)), L the
    radius of the disk with the domain's area.  Beyond the float range c reads
    inf or 0, and the start fails as not finite or off the branch.
    """
    f0 = float(np.asarray(f.f(0.0)))
    if f0 > 0:
        return 2.0 * math.sqrt(f0)
    if f.preset != "power" or f.params[1] >= 2:
        return 1.0
    lam, p = f.params
    if spec.kind == "ellipse":
        l2 = spec.semi_axes[0] * spec.semi_axes[1]
    else:   # the shoelace area over pi
        x, y = (spec.vertices - spec.center).T
        l2 = 0.5 * float(np.sum(x * np.roll(y, -1) - np.roll(x, -1) * y)) / math.pi
    with np.errstate(over="ignore", under="ignore", invalid="ignore"):
        return float(np.float64(lam) ** (1.0 / (2.0 - p)) * np.float64(l2) ** (p / (2.0 - p)))


def _warm_start(lattice: Lattice, f: SourceTerm):
    """(u, Hessian blocks) of an iterate on the discrete elliptic branch.  The
    initial iterate solves the linear problem Delta u0 = c (see `solve_grid2d`).
    On an ellipse it is the closed form, which the stencils reproduce,
    quadratics being exact for them (Shortley & Weller, J. Appl. Phys. 9, 1938),
    and one Jacobi correction clears the rounding of short boundary arms; where
    that iterate is not finite or off the branch, SolverError is raised.  On
    a polygon one Laplacian factor solves it and serves Anderson-mixed
    Poisson-style sweeps until every inside node is on the branch."""
    ops, n = lattice.ops, lattice.mask.n_inside
    c = _start_laplacian(lattice.mask.spec, f)
    lap = _stencil_sum([(1.0, ops[0, 0]), (1.0, ops[1, 1])])
    if lattice.mask.spec.kind == "ellipse":
        (a, b), (x, y) = lattice.mask.spec.semi_axes, lattice.mask.node_xy.T
        # Out of the float range u reads inf or NaN, and so does its Hessian.
        with np.errstate(over="ignore", invalid="ignore"):
            u = 0.5 * c * ((x / a) ** 2 + (y / b) ** 2 - 1.0) / (1.0 / a**2 + 1.0 / b**2)
            u += (c - lap @ u) / lap.coef[lap.slots.index(CENTER)]
            bad = _inadmissible_nodes(*invariants(hess := _hessian(ops, u)))
        if bad:   # a non-finite node counts as off the branch
            raise SolverError(f"warm start: the closed form is not finite or off the discrete "
                              f"elliptic branch at {bad} of {n} inside nodes")
        return u, hess
    lap_solve = factorized(lap, lattice)
    u = lap_solve(np.full(n, c))
    hess = _hessian(ops, u)
    sweeps, g_hist, r_hist = 0, [], []
    while bad := _inadmissible_nodes(*invariants(hess)):
        if sweeps == 200:
            raise SolverError(f"warm start: {bad} of {n} inside nodes still off the "
                              f"discrete elliptic branch after {sweeps} Poisson-style sweeps")
        with np.errstate(over="ignore", invalid="ignore"):
            rhs = np.sqrt(np.maximum(2.0 * np.asarray(f.f(u), dtype=float)
                                     + (hess[:, 0, 0] - hess[:, 1, 1]) ** 2
                                     + 4.0 * hess[:, 0, 1] ** 2, 0.0))
        sweeps += 1
        g = lap_solve(rhs)
        if not np.all(np.isfinite(g)):
            raise SolverError(f"warm start: Poisson-style sweep {sweeps} produced a "
                              "non-finite iterate")
        # Anderson mixing of the last sweeps (Walker & Ni, SIAM J. Numer. Anal. 49, 2011).
        g_hist, r_hist = g_hist[-ANDERSON_DEPTH:] + [g], r_hist[-ANDERSON_DEPTH:] + [g - u]
        u = g
        if sweeps > 1:
            gamma = np.linalg.lstsq(np.diff(r_hist, axis=0).T, r_hist[-1], rcond=None)[0]
            u = g - np.diff(g_hist, axis=0).T @ gamma
        hess = _hessian(ops, u)
    return u, hess


def solve_grid2d(spec: DomainSpec, f: SourceTerm, h: float) -> ScalarField2D:
    """Damped-Newton solve of det D^2 u = f(u) on a convex planar domain.

    The initial iterate solves the linear problem Delta u0 = c = 2 sqrt(f(0)),
    which starts inside the discrete elliptic branch by the arithmetic-
    geometric inequality det <= (Delta u / 2)^2 on smooth strictly convex
    domains.  Sources with f(0) = 0 (power, eigen) have the trivial solution
    u = 0, which Newton chases from a shallow start, so they start from
    Delta u0 = 1 instead, or for a power source with p < 2 from the c its
    exact scaling in lam and in the domain's size gives (`_start_laplacian`).
    On an ellipse that problem has the closed form
    u0 = c (x^2/a^2 + y^2/b^2 - 1) / (2/a^2 + 2/b^2); on a polygon one LU
    factor of the Laplacian solves it (`_warm_start`).  Near polygon corners
    that iterate leaves the branch, so the solver falls back to the Poisson-style
    fixed point
        Delta u <- sqrt(2 f + (u_xx - u_yy)^2 + 4 u_xy^2),
    whose sweeps do not require branch membership, until the iterate enters
    the discrete cone.  Its fixed point has det = f/2, not f: the sweeps only
    have to enter the cone, and Newton then solves det = f.

    The sweeps are Anderson-mixed and reuse the Laplacian's float64 factor.
    Every Newton step is one flexible GMRES cycle right-preconditioned with a
    float32 factor of a Jacobian, lagged or, where GMRES misses its tolerance
    within GMRES_RESTART steps, fresh (`spsolve`); a miss with the fresh factor
    is a SolverError.  Every factor reads the lattice's one plan.  Newton stops
    at |S2 - f| <= NEWTON_RTOL F, where F = max |f(u)| (NEWTON_TOL at F = 0):
    S2 - f is rounded relative to f, and the stop scales with f.
    """
    lattice = Lattice(rasterize(spec, h))

    # The Laplacian factor dies with the warm start, before Newton factors.
    u, hess = _warm_start(lattice, f)
    with np.errstate(over="ignore", invalid="ignore"):
        if not np.all(np.isfinite(np.asarray(f.f(u), dtype=float))):
            raise SolverError(f"warm start overflowed the source (f = {f.label()} is not "
                              f"finite at u_min = {float(np.min(u)):.3e})")

    def s2_defect(s2, u):   # S2 - f(u), and the Newton stop on u
        with np.errstate(over="ignore"):
            fu = np.asarray(f.f(u), dtype=float)
            return s2 - fu, NEWTON_RTOL * float(np.max(np.abs(fu))) or NEWTON_TOL

    residual, tol = s2_defect(invariants(hess)[1], u)
    res_sup = float(np.max(np.abs(residual)))
    it, lu = 0, None
    while res_sup > tol:
        it += 1
        if it > NEWTON_MAX_ITER:
            raise SolverError(f"Newton iteration did not reach tolerance in "
                              f"{NEWTON_MAX_ITER} steps (residual {res_sup:.3e})")
        step, lu = spsolve(_newton_jacobian(lattice.ops, f, u, hess), -residual, lattice, lu)
        if step is None or not np.all(np.isfinite(step)):
            raise SolverError(f"Newton step {it}: GMRES with a fresh Jacobian factor found "
                              f"no finite step within its tolerance (residual {res_sup:.3e})")
        # Halve the step until the iterate stays on the discrete elliptic
        # branch and the residual actually decreases.
        factor = 1.0
        while factor >= NEWTON_MIN_STEP:
            trial = u + factor * step
            s1, s2 = invariants(hess := _hessian(lattice.ops, trial))
            if not _inadmissible_nodes(s1, s2):
                trial_res, trial_tol = s2_defect(s2, trial)
                trial_sup = float(np.max(np.abs(trial_res)))
                if np.isfinite(trial_sup) and trial_sup <= res_sup * (1.0 - 1e-4 * factor):
                    u, residual, res_sup, tol = trial, trial_res, trial_sup, trial_tol
                    break
            factor *= 0.5
        else:
            raise SolverError(
                f"damped Newton stalled at step {it} (residual {res_sup:.3e}): "
                "admissibility or residual descent unattainable (the problem may "
                "sit beyond its solvability fold)")

    if np.any(u >= 0):
        raise SolverError("solution must be negative at inside nodes")
    return ScalarField2D(lattice=lattice, u=u, newton_iterations=it, residual_sup=res_sup)


# ----------------------------------------------------------------------
# Admissibility reporting
# ----------------------------------------------------------------------

class AdmissibilityReport(NamedTuple):
    """Margins of the ellipticity cone over all nodes of a solution."""

    min_s1: float
    min_s2: float
    min_cofactor_eigenvalue: float
    admissible: bool


def admissibility_report(sol: Solution) -> AdmissibilityReport:
    """Minimum S1, S2 (`invariants` of the frame blocks) and cofactor-matrix
    eigenvalue over strictly interior nodes; the cofactor matrix S1 I - H has
    least eigenvalue S1 - lambda_max(H)."""
    hess = sol.hessian()[sol.interior]
    s1, s2 = invariants(hess, sol.multiplicity)
    cof_min = s1 - eigenvalues(hess)[:, -1]
    return AdmissibilityReport(
        min_s1=float(np.min(s1)), min_s2=float(np.min(s2)),
        min_cofactor_eigenvalue=float(np.min(cof_min)),
        admissible=bool(np.min(s1) > 0 and np.min(s2) > 0 and np.min(cof_min) > 0))


# ----------------------------------------------------------------------
# Serialization
# ----------------------------------------------------------------------

def save_solution(sol: Solution, path) -> None:
    """Write a solution to a versioned columnar .npz file (bit-exact arrays)."""
    fields, arrays = sol.saved_fields()
    header = {"schema": SOLUTION_SCHEMA_VERSION, "kind": sol.kind, **fields}
    np.savez(path, header=json.dumps(header, sort_keys=True), **arrays)


def load_solution(path):
    """Read a solution written by save_solution; a grid solution's (deterministic)
    lattice is rebuilt from its domain and spacing."""
    with np.load(path, allow_pickle=False) as data:
        header = json.loads(str(data["header"]))
        if header["schema"] != SOLUTION_SCHEMA_VERSION:
            raise InputError(f"unsupported solution schema {header['schema']}")
        if header["kind"] == "radial":
            return RadialProfile(dim=header["dim"], radius=header["radius"],
                                 r=data["r"], u=data["u"], up=data["up"],
                                 picard_iterations=header["picard_iterations"],
                                 picard_delta=header["picard_delta"],
                                 ode_residual_sup=header["ode_residual_sup"])
        if header["kind"] == "grid2d":
            dom = header["domain"]
            from .domain import convex_polygon, ellipse as make_ellipse
            if dom["kind"] == "ellipse":
                spec = make_ellipse(*dom["semi_axes"])
            else:
                spec = convex_polygon(dom["vertices"])
            lattice = Lattice(rasterize(spec, header["h"]))
            sol = ScalarField2D(lattice=lattice, u=data["u"],
                                newton_iterations=header["newton_iterations"],
                                residual_sup=header["residual_sup"])
            if sol.u.shape != (lattice.mask.n_inside,):
                raise InputError("solution file does not match the rebuilt grid")
            return sol
    raise InputError("unrecognized solution file")
