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

* `solve_eigen_radial` - the eigenvalue problem S2(D^2 u) = lambda (-u)^2 on a
  ball in R^3 by inverse iteration: one Picard pass with the previous
  normalized iterate as data, renormalize in sup norm, read the eigenvalue off
  the normalization.

* `solve_grid2d` - the planar case, where S2 is the Hessian determinant, by
  damped Newton on central differences with one-sided curved-boundary stencils
  at boundary-adjacent nodes.  Steps that leave the discrete elliptic branch
  (Delta u > 0, det D^2 u > 0) are halved.  This is the only scipy user: its
  sparse operators and LU solves import `scipy.sparse` on first use, so
  radial and eigenvalue solves never load scipy.

Solutions implement `Solution`: per-node gradient and Hessian frame blocks,
from which `admissibility_report` and `hess2.analysis` derive every invariant.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Callable, ClassVar, Protocol

import numpy as np

from ._quad import cumulative_quartic, deriv_uniform, forward_first_derivative
from .domain import DIRECTIONS, DomainSpec, GridMask, rasterize, signed_distance
from .errors import InputError, SolverError, SourceError
from .symmat import cofactor, eigenvalues, invariants

if TYPE_CHECKING:
    import scipy.sparse as sp

SOLUTION_SCHEMA_VERSION = 2

#: Boundary crossings whose axis direction is this far from the normal are
#: skipped when sampling |grad u| on the boundary (the better-aligned axis
#: always covers the same stretch of boundary).
MIN_NORMAL_ALIGNMENT = 0.5

#: Near-minimal grid nodes within this many grid steps of their mean count as
#: one critical point; a wider spread is reported as separated minima.
MINIMUM_CLUSTER_STEPS = 3.0

# Iteration controls of the radial, eigenvalue and grid solvers.
PICARD_TOL = 1e-13
PICARD_MAX_ITER = 400
NEWTON_TOL = 1e-10
NEWTON_MAX_ITER = 50
NEWTON_MIN_STEP = 1e-6
GMRES_RTOL, GMRES_RESTART, GMRES_CYCLES = 1e-3, 30, 3
ANDERSON_DEPTH = 5
EIGEN_TOL = 1e-11
EIGEN_MAX_ITER = 400
#: Intervals on [0, R] of the radial and eigenvalue solvers (`--nodes`).
RADIAL_NODES = 1024
#: SuperLU's panel, in columns (Demmel et al., SIAM J. Matrix Anal. Appl. 20,
#: 1999).  Scipy's default panel adds about 15 MB of work arrays to the peak
#: of the h = 1/128 disk, this one about 3 MB, at no measurable cost in factor
#: time on nested-dissection orders.
SPLU_PANEL = 4


@dataclass(frozen=True)
class SourceTerm:
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
    them.  `interior` marks the strictly interior nodes, which the Hessian
    covers (sources vanishing at zero make S2 degenerate on the boundary).
    """

    kind: ClassVar[str]             # "radial" | "grid2d", as saved and reported
    u: np.ndarray

    @property
    def u_min(self) -> float: ...
    @property
    def positions(self) -> np.ndarray: ...      # (n,) radii or (n, 2) coordinates
    @property
    def interior(self) -> np.ndarray: ...       # bool mask over nodes
    @property
    def h_eff(self) -> float: ...               # grid step setting verdict tolerances
    @property
    def domain_label(self) -> str: ...
    @property
    def multiplicity(self) -> tuple[int, ...]: ...  # directions per frame axis, sum N
    def gradient(self) -> np.ndarray: ...       # (n, k) over all nodes
    def hessian(self) -> np.ndarray: ...        # (m, k, k) over the interior nodes
    # Distance to the boundary per point, given as rows of `positions`.
    def distance_to_boundary(self, points) -> np.ndarray: ...
    # (points, |grad u|) on the boundary.
    def boundary_samples(self) -> tuple[np.ndarray, np.ndarray]: ...
    # Solve-summary fields, leading plot columns (names, arrays), and the
    # header fields and arrays of the saved file.
    def summary_fields(self) -> dict: ...
    def profile_columns(self) -> tuple[str, list[np.ndarray]]: ...
    def saved_fields(self) -> tuple[dict, dict[str, np.ndarray]]: ...


@dataclass(frozen=True)
class RadialProfile:
    """Radial solution u(r) on [0, R]: nodes, values and radial derivative."""

    kind: ClassVar[str] = "radial"
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
        return self.r

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
        """Diagonal (u'', u'/r) per interior node: (e_r, tangent) are eigen-axes."""
        return self.hessian_eigenvalues()[:-1, :, None] * np.eye(2)

    def distance_to_boundary(self, points) -> np.ndarray:
        return self.radius - np.abs(np.asarray(points, dtype=float))

    def boundary_samples(self) -> tuple[np.ndarray, np.ndarray]:
        return np.array([self.radius]), np.array([self.boundary_gradient])

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


def _radial_grid(radius: float, m: int) -> tuple[np.ndarray, float]:
    """Nodes 0 = r_0 < ... < r_m = radius of the radial solvers, and their step.
    Squared radii enter the start iterates and the Hessian's limit at r = 0, so
    r_m^2 must be finite and r_1^2 normal."""
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


def _subnormal_integral(profile: RadialProfile, f: SourceTerm) -> bool:
    """Whether the Picard integral of f(u) s^(N-1) up to the first node r_1 is
    below the smallest normal float."""
    h = profile.radius / (len(profile.r) - 1)
    g = cumulative_quartic(np.maximum(f.f(profile.u), 0.0), h, power=profile.dim - 1)
    return g[1] < np.finfo(float).tiny


def _finish_radial(profile: RadialProfile, f: SourceTerm) -> RadialProfile:
    """The profile with its residual sup, once it passes the checks of a radial solution.
    S1 and S2 come from the Hessian eigenvalues (u'', u'/r) with multiplicities
    (1, N-1); at r = 0 both are u''(0), which gives S2 = C(N, 2) u''(0)^2."""
    eigs = profile.hessian_eigenvalues()
    s1, s2 = invariants(eigs[:, :, None] * np.eye(2), profile.multiplicity)
    profile = replace(profile, ode_residual_sup=float(np.max(np.abs(s2 - f.f(profile.u)))))
    u, up = profile.u, profile.up
    for failed, reason in (
            (abs(u[-1]) > 1e-14 * max(1.0, float(np.max(np.abs(u)))),
             "boundary value failed to vanish"),
            (up[0] != 0.0, "radial derivative at the origin must vanish"),
            (np.any(up < 0), "radial derivative must be nonnegative"),
            (np.any(u[:-1] >= 0), "solution must be negative inside the ball"),
            (np.min(s1) < -1e-8 * max(1.0, float(np.max(np.abs(eigs)))),
             "trace of the Hessian left the admissible cone")):
        if failed:
            # A subnormal r^(N-2) at the first nodes, or a subnormal Picard
            # integral, keeps the passes finite but costs them their precision.
            if _subnormal_power(profile.r, profile.dim):
                reason += (f" in dimension {profile.dim} (r^{profile.dim - 2} is subnormal "
                           "near the origin)")
            elif _subnormal_integral(profile, f):
                reason += (f" in dimension {profile.dim} (the Picard integral is subnormal "
                           "near the origin)")
            raise SolverError(reason)
    return profile


def solve_radial(n_dim: int, radius: float, f: SourceTerm,
                 nodes: int = RADIAL_NODES) -> RadialProfile:
    """Admissible radial solution on a ball, by Picard iteration on the integral form
    over `nodes` intervals."""
    if n_dim < 2:
        raise InputError("radial solves need dimension >= 2")
    r, h = _radial_grid(radius, nodes)
    u = 0.5 * (r**2 - radius**2)
    delta = math.inf
    for it in range(1, PICARD_MAX_ITER + 1):
        with np.errstate(over="ignore", invalid="ignore"):
            vals = np.asarray(f.f(u), dtype=float)
        if not np.all(np.isfinite(vals)):
            raise SolverError(f"radial Picard pass {it} overflowed the source in dimension "
                              f"{n_dim} (f = {f.label()} is not finite at u_min = "
                              f"{float(np.min(u)):.3e})")
        if np.any(vals < -1e-14):
            raise SourceError("source became negative during the radial solve")
        u_new, up = _picard_pass(n_dim, r, h, np.maximum(vals, 0.0))
        _check_pass(f"radial Picard pass {it}", n_dim, r, u_new)
        delta = float(np.max(np.abs(u_new - u)))
        u = u_new
        if delta <= PICARD_TOL * max(1.0, float(np.max(np.abs(u)))):
            break
    else:
        raise SolverError(f"radial Picard iteration did not converge "
                          f"(last delta {delta:.3e} after {PICARD_MAX_ITER} passes)")
    return _finish_radial(RadialProfile(dim=n_dim, radius=radius, r=r, u=u, up=up,
                                        picard_iterations=it, picard_delta=delta), f)


def solve_eigen_radial(n_dim: int, radius: float,
                       nodes: int = RADIAL_NODES) -> tuple[float, RadialProfile]:
    """First eigenpair of S2(D^2 u) = lambda (-u)^2 on a ball in R^3.

    Inverse iteration with sup-norm normalization: each step is one Picard
    pass, since its data u^2 does not depend on the new iterate.  The returned
    profile has sup norm 1, the eigenvalue is the inverse square of the last
    pass's sup norm, and `picard_iterations` counts the steps.
    """
    if n_dim != 3:
        raise InputError("the eigenvalue solver is wired for dimension 3")
    r, h = _radial_grid(radius, nodes)
    u = (r**2 - radius**2) / radius**2   # sup norm 1, at the origin
    lam = math.inf
    for k in range(1, EIGEN_MAX_ITER + 1):
        v, vp = _picard_pass(n_dim, r, h, u**2)
        _check_pass(f"inverse iteration step {k}", n_dim, r, v)
        s = float(np.max(np.abs(v)))
        lam_prev, lam = lam, 1.0 / (s * s) if s * s > 0 else math.inf
        if not 0.0 < lam < math.inf:
            raise SolverError(f"inverse iteration step {k} produced an eigenvalue 1/s^2 out of "
                              f"float range in dimension {n_dim} (sup norm s = {s:.3e})")
        delta = abs(lam - lam_prev)
        u = v / s
        if delta <= EIGEN_TOL * max(1.0, lam):
            break
    else:
        raise SolverError(f"inverse iteration stagnated before the eigenvalue settled "
                          f"(|delta lambda| {delta:.3e} after {k} steps)")
    profile = RadialProfile(dim=n_dim, radius=radius, r=r, u=u, up=vp / s,
                            picard_iterations=k, picard_delta=delta)
    return lam, _finish_radial(profile, eigen_source(lam))


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


def _assemble(mask: GridMask, center, arms) -> sp.csr_matrix:
    """`center` on the diagonal; each (direction, coefficients) arm lands on the
    neighbor column where one exists (boundary data are zero)."""
    import scipy.sparse as sp

    n, nb = mask.n_inside, mask.neighbor
    rows, cols, vals = [np.arange(n)], [np.arange(n)], [center]
    for m, coeff in arms:
        has = nb[:, m] >= 0
        rows.append(np.nonzero(has)[0])
        cols.append(nb[has, m])
        vals.append(coeff[has])
    return sp.csr_matrix((np.concatenate(vals),
                          (np.concatenate(rows), np.concatenate(cols))), shape=(n, n))


def _axis_operator(mask: GridMask, row, i: int) -> sp.csr_matrix:
    """The derivative along axis i whose 3-point coefficients `row` gives."""
    ip, im = 2 * i, 2 * i + 1   # directions 2i and 2i+1 are +/- axis i
    cc, cp, cm = row(mask.theta[:, ip], mask.theta[:, im], mask.h)
    return _assemble(mask, cc, ((ip, cp), (im, cm)))


def build_operators(mask: GridMask) -> dict[tuple[int, int] | int, sp.csr_matrix]:
    """Sparse second derivatives over inside nodes (zero boundary data), keyed by
    axis: ops[i, j] is d^2/dx_i dx_j (i <= j), axes 0 = x, 1 = y.  They are kept
    in `mask._op_cache`, where `ScalarField2D.gradient` adds the first
    derivatives ops[i] = d/dx_i on first use.  A lattice whose coefficients
    2/(theta (theta + theta') h^2) overflow (h^2 subnormal) is refused."""
    cache = mask._op_cache
    if (0, 1) in cache:
        return cache
    th = mask.theta
    # On a tiny lattice the coefficients read inf; the check below refuses it.
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        ops = {(i, i): _axis_operator(mask, _second_derivative_row, i)
               for i in range(2)}
        # Cross derivative from the two diagonal second derivatives:
        # directions 4/5 are +/-(1,1)/sqrt2, 6/7 are +/-(1,-1)/sqrt2.
        sqrt2h = math.sqrt(2.0) * mask.h
        cc1, cp1, cm1 = _second_derivative_row(th[:, 4], th[:, 5], sqrt2h)
        cc2, cp2, cm2 = _second_derivative_row(th[:, 6], th[:, 7], sqrt2h)
        ops[0, 1] = _assemble(mask, 0.5 * (cc1 - cc2), ((4, 0.5 * cp1), (5, 0.5 * cm1),
                                                         (6, -0.5 * cp2), (7, -0.5 * cm2)))
    if not all(np.all(np.isfinite(op.data)) for op in ops.values()):
        raise InputError(f"--h {mask.h:g} on --domain {mask.spec.label()} is out of range: "
                         "its stencil coefficients 2/(theta (theta + theta') h^2) overflow; "
                         "scale the domain and --h up together")
    cache.update(ops)
    return cache


def dissection_path(grid_index: np.ndarray) -> np.ndarray:
    """The side each inside node takes at every split of nested dissection.

    The bounding box of the inside nodes is cut across its longer side at its
    middle lattice line, and each half is cut the same way until every node
    lies on a cut line.  Row k of the (levels, n_inside) result holds, per
    node, 0 or 1 for the first or second half of its level-k box, or 2 once
    the node lies on a cut line (at level k or before).  Stencil arms span one
    lattice step, so a cut line separates its two halves (A. George, SIAM J.
    Numer. Anal. 10, 1973).
    """
    ii, jj = np.nonzero(grid_index >= 0)
    pos = np.empty((2, ii.size), dtype=int)
    pos[:, grid_index[ii, jj]] = ii, jj
    lo = np.repeat(pos.min(axis=1, keepdims=True), ii.size, axis=1)
    hi = np.repeat(pos.max(axis=1, keepdims=True) + 1, ii.size, axis=1)
    nodes = np.arange(ii.size)
    side = np.zeros(ii.size, dtype=np.int8)
    rows = []
    while not np.all(side == 2):
        # The coordinate that runs along the box's longer side (rows on a tie).
        axis = (hi[1] - lo[1] > hi[0] - lo[0]).astype(int)
        c, a, b = pos[axis, nodes], lo[axis, nodes], hi[axis, nodes]
        mid = (a + b) // 2
        side = np.where((side == 2) | (c == mid), 2, c > mid).astype(np.int8)
        hi[axis, nodes] = np.where(side == 0, mid, b)
        lo[axis, nodes] = np.where(side == 1, mid + 1, a)
        rows.append(side)
    return np.array(rows)


def nested_dissection_order(grid_index: np.ndarray) -> np.ndarray:
    """Inside-node indices with each box's halves first, then its cut line.

    The stable sort keeps a cut line's nodes in index (lattice) order.
    """
    return np.lexsort(dissection_path(grid_index)[::-1])


def factorized(a: sp.spmatrix, order: np.ndarray):
    """SuperLU of `a` with rows and columns taken in `order`, as a solve function.

    Beside the factor, SuperLU's work arrays grow as panel x n (about 16 panel n
    bytes), hence the small SPLU_PANEL.  An exactly singular factor raises
    SolverError.
    """
    from scipy.sparse.linalg import splu

    try:
        lu = splu(a.tocsr()[order][:, order].tocsc(), permc_spec="NATURAL",
                  panel_size=SPLU_PANEL)
    except RuntimeError as exc:   # SuperLU: "Factor is exactly singular"
        raise SolverError(f"sparse LU of a {a.shape[0]}-node operator failed: {exc}") from None

    def solve(b):
        x = np.empty_like(b)
        x[order] = lu.solve(b[order])
        return x
    return solve


def spsolve(a: sp.spmatrix, b: np.ndarray, order: np.ndarray, lu):
    """Newton step a x = b, and the solve function of the factor to reuse.

    GMRES, preconditioned by `lu` (an earlier Jacobian's factor), solves to
    relative residual GMRES_RTOL; where it misses within GMRES_CYCLES restart
    cycles, or where `lu` is None, `a` is factored and solved directly (lagged-
    Jacobian inexact Newton: Knoll & Keyes, J. Comput. Phys. 193, 2004).
    """
    if lu is not None:
        from scipy.sparse.linalg import LinearOperator, gmres

        # Huge residuals overflow GMRES's norms; the caller rejects a non-finite step.
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            x, info = gmres(a, b, rtol=GMRES_RTOL, restart=GMRES_RESTART,
                            maxiter=GMRES_CYCLES, M=LinearOperator(a.shape, matvec=lu))
        if info == 0:
            return x, lu
    lu = factorized(a, order)
    return lu(b), lu


@dataclass(frozen=True)
class ScalarField2D:
    """Planar solution on a grid mask, zero on the boundary."""

    kind: ClassVar[str] = "grid2d"
    multiplicity: ClassVar[tuple[int, int]] = (1, 1)     # frame (x, y)
    mask: GridMask
    u: np.ndarray
    newton_iterations: int = 0
    residual_sup: float = 0.0

    @property
    def u_min(self) -> float:
        return float(np.min(self.u))

    # Solution interface: every inside node is interior; the boundary is
    # sampled at the feet of the axis stencil arms that cross it.

    def gradient(self) -> np.ndarray:
        # Built on first use: `solve` never reads the first derivatives.
        ops = self.mask._op_cache
        for i in range(2):
            if i not in ops:
                ops[i] = _axis_operator(self.mask, _first_derivative_row, i)
        return np.column_stack([ops[0] @ self.u, ops[1] @ self.u])

    def hessian(self) -> np.ndarray:
        return _hessian(build_operators(self.mask), self.u)

    def distance_to_boundary(self, points) -> np.ndarray:
        return -signed_distance(self.mask.spec, points)

    @property
    def positions(self) -> np.ndarray:
        return self.mask.node_xy

    @property
    def interior(self) -> np.ndarray:
        return np.ones(self.u.size, dtype=bool)

    @property
    def h_eff(self) -> float:
        return self.mask.h

    @property
    def domain_label(self) -> str:
        return self.mask.spec.label()

    def boundary_samples(self) -> tuple[np.ndarray, np.ndarray]:
        """(feet, |grad u|) at the boundary crossings of the axis stencil arms.

        The tangential derivative of u vanishes on the boundary, so the full
        gradient is the normal derivative; it is recovered from a one-sided
        derivative along the grid line through the crossing, divided by the
        cosine between that line and the normal.  Crossings nearly tangential
        to the boundary are skipped.  A sample that is not finite (u within a
        few orders of the float maximum) raises SolverError.
        """
        mask, c = self.mask, self.mask.crossings
        align = np.einsum("ij,ij->i", c.normal, DIRECTIONS[c.direction])
        keep = np.abs(align) >= MIN_NORMAL_ALIGNMENT
        if not np.any(keep):
            raise SolverError("no usable boundary crossings for gradient sampling")
        k, direction = c.node_index[keep], c.direction[keep]
        prev = mask.neighbor[k, direction ^ 1]   # neighbor opposite the crossing
        d1 = mask.theta[k, direction] * mask.h
        u1 = self.u[k]
        # Without that neighbor (prev = -1) u is taken linear from the node to
        # the boundary; the three-point value read at u[-1] is discarded.
        with np.errstate(over="ignore", invalid="ignore"):
            deriv_inward = np.where(
                prev >= 0, forward_first_derivative(0.0, u1, self.u[prev], d1, d1 + mask.h),
                u1 / d1)
            # deriv_inward differentiates along -direction; flip to the outward axis.
            grads = np.abs(-deriv_inward / align[keep])
        if not np.all(np.isfinite(grads)):
            raise SolverError(f"boundary sampling: |grad u| overflowed (u_min "
                              f"{self.u_min:.3e}, h {mask.h:.3e})")
        return c.foot[keep], grads

    def summary_fields(self) -> dict:
        return {"kind": self.kind, "h": self.mask.h, "domain": self.domain_label,
                "iterations": self.newton_iterations,
                "newton_residual_sup": self.residual_sup}

    def profile_columns(self) -> tuple[str, list[np.ndarray]]:
        xy = self.mask.node_xy
        return "x y u", [xy[:, 0], xy[:, 1], self.u]

    def saved_fields(self) -> tuple[dict, dict[str, np.ndarray]]:
        spec = self.mask.spec
        header = {"h": self.mask.h, "newton_iterations": self.newton_iterations,
                  "residual_sup": self.residual_sup,
                  "domain": {"kind": spec.kind, "semi_axes": list(spec.semi_axes),
                             "vertices": None if spec.vertices is None
                             else [list(v) for v in spec.vertices]}}
        return header, {"u": self.u, "node_xy": self.mask.node_xy}


def _hessian(ops, u) -> np.ndarray:
    """(n, 2, 2) Hessian blocks of u in the frame (x, y)."""
    uxx, uxy, uyy = (ops[key] @ u for key in ((0, 0), (0, 1), (1, 1)))
    return np.stack([uxx, uxy, uxy, uyy], axis=-1).reshape(-1, 2, 2)


def _newton_jacobian(ops, f, u, hess):
    """Derivative of S2(D^2 u) - f(u), a cofactor-weighted discrete Laplacian:
    sum_{i<=j} (2 - delta_ij) B_ij D_ij - f'(u) with B = `cofactor`(H) = S1 I - H."""
    import scipy.sparse as sp

    b = cofactor(hess)
    pairs = itertools.combinations_with_replacement(range(hess.shape[-1]), 2)
    return sum((sp.diags((2.0 - (i == j)) * b[:, i, j]) @ ops[i, j] for i, j in pairs),
               -sp.diags(np.asarray(f.fprime(u), dtype=float)))


def _inadmissible_nodes(hess) -> int:
    """How many nodes lie off the discrete elliptic branch S1, S2 > 0 (or are not finite)."""
    s1, s2 = invariants(hess)
    return int(np.count_nonzero(~((s1 > 0) & (s2 > 0))))


def _warm_start(ops, f: SourceTerm, order: np.ndarray):
    """(u, Hessian blocks) of an iterate on the discrete elliptic branch: the linear
    start, then Anderson-mixed Poisson-style sweeps with one Laplacian factor until
    every inside node is on the branch (see `solve_grid2d`)."""
    n = order.size
    f0 = float(np.asarray(f.f(0.0)))
    lap_solve = factorized(ops[0, 0] + ops[1, 1], order)
    u = lap_solve(np.full(n, 2.0 * math.sqrt(f0) if f0 > 0 else 1.0))
    hess = _hessian(ops, u)
    sweeps, g_hist, r_hist = 0, [], []
    while bad := _inadmissible_nodes(hess):
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

    The initial iterate solves the linear problem Delta u0 = 2 sqrt(f(0)),
    which starts inside the discrete elliptic branch by the arithmetic-
    geometric inequality det <= (Delta u / 2)^2 on smooth strictly convex
    domains.  Sources with f(0) = 0 (power, eigen) have the trivial solution
    u = 0, which Newton chases from a shallow start, so they start from
    Delta u0 = 1 instead.  Near polygon corners that iterate leaves the
    branch, so the solver falls back to the Poisson-style fixed point
        Delta u <- sqrt(2 f + (u_xx - u_yy)^2 + 4 u_xy^2),
    whose sweeps do not require branch membership, until the iterate enters
    the discrete cone.  Its fixed point has det = f/2, not f: the sweeps only
    have to enter the cone, and Newton then solves det = f.

    The sweeps are Anderson-mixed and reuse one SuperLU factor of the
    Laplacian.  Newton steps are GMRES solves preconditioned with the factor
    of the first Jacobian, refactored where GMRES stalls (`spsolve`).  Every
    factorisation takes one nested-dissection order of the inside nodes
    (`nested_dissection_order`), computed once per call: the Laplacian and
    the Newton Jacobians share its sparsity pattern.
    """
    mask = rasterize(spec, h)
    ops = build_operators(mask)

    order = nested_dissection_order(mask.grid_index)
    # The Laplacian factor dies with the warm start, before Newton factors.
    u, hess = _warm_start(ops, f, order)

    def s2_defect(hess, u):
        with np.errstate(over="ignore"):
            return invariants(hess)[1] - np.asarray(f.f(u), dtype=float)

    residual = s2_defect(hess, u)
    res_sup = float(np.max(np.abs(residual)))
    it, lu = 0, None
    while res_sup > NEWTON_TOL:
        it += 1
        if it > NEWTON_MAX_ITER:
            raise SolverError(f"Newton iteration did not reach tolerance in "
                              f"{NEWTON_MAX_ITER} steps (residual {res_sup:.3e})")
        step, lu = spsolve(_newton_jacobian(ops, f, u, hess), -residual, order, lu)
        if not np.all(np.isfinite(step)):
            raise SolverError(f"Newton linearization produced a non-finite step "
                              f"at step {it} (residual {res_sup:.3e})")
        # Halve the step until the iterate stays on the discrete elliptic
        # branch and the residual actually decreases.
        factor = 1.0
        while factor >= NEWTON_MIN_STEP:
            trial = u + factor * step
            hess = _hessian(ops, trial)
            if not _inadmissible_nodes(hess):
                trial_res = s2_defect(hess, trial)
                trial_sup = float(np.max(np.abs(trial_res)))
                if np.isfinite(trial_sup) and trial_sup <= res_sup * (1.0 - 1e-4 * factor):
                    u, residual, res_sup = trial, trial_res, trial_sup
                    break
            factor *= 0.5
        else:
            raise SolverError(
                f"damped Newton stalled at step {it} (residual {res_sup:.3e}): "
                "admissibility or residual descent unattainable (the problem may "
                "sit beyond its solvability fold)")

    if np.any(u >= 0):
        raise SolverError("solution must be negative at inside nodes")
    return ScalarField2D(mask=mask, u=u, newton_iterations=it, residual_sup=res_sup)


# ----------------------------------------------------------------------
# Admissibility reporting
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class AdmissibilityReport:
    """Margins of the ellipticity cone over all nodes of a solution."""

    min_s1: float
    min_s2: float
    min_cofactor_eigenvalue: float
    admissible: bool


def admissibility_report(sol: Solution) -> AdmissibilityReport:
    """Minimum S1, S2 (`invariants` of the frame blocks) and cofactor-matrix
    eigenvalue over strictly interior nodes; the cofactor matrix S1 I - H has
    least eigenvalue S1 - lambda_max(H)."""
    hess = sol.hessian()
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
    mask is rebuilt from its domain and spacing."""
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
            mask = rasterize(spec, header["h"])
            sol = ScalarField2D(mask=mask, u=data["u"],
                                newton_iterations=header["newton_iterations"],
                                residual_sup=header["residual_sup"])
            if sol.u.shape != (mask.n_inside,):
                raise InputError("solution file does not match the rebuilt grid")
            return sol
    raise InputError("unrecognized solution file")
