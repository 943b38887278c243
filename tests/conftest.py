"""Shared cached solves so expensive cases run once per session, the test
oracles for spectra and elementary symmetric functions, the radial ODE
defect and the identity transform."""

from functools import lru_cache

import numpy as np

from hess2.analysis import (
    PFunctionSpec,
    bounds_report,
    convexity_scan_solution,
    pfunction_field,
    transform_preset,
)
from hess2.domain import ball, ellipse, rasterize
from hess2.solver import (
    constant_source,
    eigen_source,
    exp_decreasing_source,
    exp_increasing_source,
    power_source,
    solve_eigen_radial,
    solve_grid2d,
    solve_radial,
)
from hess2.symmat import invariants, jacobi_eigh
from hess2.transforms import Transform

SOURCES = {
    "const": constant_source,
    "exp-dec": exp_decreasing_source,
    "exp-inc": exp_increasing_source,
}


def make_source(key: str):
    if key.startswith("power:"):
        lam, p = (float(tok) for tok in key.split(":")[1].split(","))
        return power_source(lam, p)
    if key.startswith("eigen:"):
        return eigen_source(float(key.split(":")[1]))
    if ":" in key:
        name, arg = key.split(":")
        return SOURCES[name](float(arg))
    return SOURCES[key]()


@lru_cache(maxsize=None)
def cached_radial(dim: int, f_key: str, nodes: int = 1024, radius: float = 1.0):
    return solve_radial(dim, radius, make_source(f_key), nodes)


DOMAINS = {"disk": lambda: ball(1.0), "ellipse": lambda: ellipse(2.0, 1.0)}


@lru_cache(maxsize=None)
def cached_mask(domain_key: str, h: float):
    return rasterize(DOMAINS[domain_key](), h)


@lru_cache(maxsize=None)
def cached_grid(domain_key: str, f_key: str, h: float):
    return solve_grid2d(DOMAINS[domain_key](), make_source(f_key), h)


@lru_cache(maxsize=None)
def cached_eigen(radius: float = 1.0, nodes: int = 1024):
    return solve_eigen_radial(3, radius, nodes)


def audit_bounds(sol, f, application: int, p=None, gamma: float = 1.0):
    """The bound report `hess2 verify` prints: the alpha = 1 field at gamma,
    audited with the scan of the application's transform."""
    pf = pfunction_field(sol, f, PFunctionSpec(alpha=1.0, gamma=gamma))
    scan = convexity_scan_solution(sol, transform_preset(application, p))
    return bounds_report(pf, scan, f, application)


def checked_spectrum(a) -> np.ndarray:
    """Eigenvalues of a symmetric matrix by `jacobi_eigh`, ascending, after a
    reconstruction check: |Q diag(lam) Q^T - a|_F <= 1e-10 |a|_F."""
    a = np.asarray(a, dtype=float)
    lam, vecs = jacobi_eigh(a)
    recon = vecs @ np.diag(lam) @ vecs.T
    assert np.linalg.norm(recon - a) <= 1e-10 * max(np.linalg.norm(a), 1e-300)
    return lam


def elem_sym_from_eigenvalues(lam, k: int) -> float:
    """S_k of a set of eigenvalues: (-1)^k times the coefficient of x^(n-k) in
    prod_i (x - lam_i), which np.poly expands one factor at a time."""
    lam = np.asarray(lam, dtype=float)
    return 0.0 if k > lam.size else float((-1) ** k * np.atleast_1d(np.poly(lam))[k])


def elem_sym_newton(a, k: int) -> float:
    """S_k of a matrix from traces of its powers (Newton's identities)."""
    n = a.shape[0]
    power = np.eye(n)
    p = np.empty(k + 1)
    for j in range(1, k + 1):
        power = power @ a
        p[j] = np.trace(power)
    e = np.empty(k + 1)
    e[0] = 1.0
    for m in range(1, k + 1):
        acc = 0.0
        for j in range(1, m + 1):
            acc += (-1.0) ** (j - 1) * e[m - j] * p[j]
        e[m] = acc / m
    return float(e[k])


def elem_sym(a, k: int) -> float:
    """S_k of a symmetric matrix, 0 <= k <= n, by Newton's identities, after a
    cross-check against the closed form on its spectrum to 1e-9 relative."""
    a = np.asarray(a, dtype=float)
    primary = elem_sym_newton(a, k) if k > 0 else 1.0
    check = elem_sym_from_eigenvalues(jacobi_eigh(a)[0], k)
    scale = max(1.0, abs(primary), abs(check), float(np.linalg.norm(a)) ** max(k, 1))
    assert abs(primary - check) <= 1e-9 * scale, (primary, check)
    return primary


def radial_ode_residual(profile, f) -> np.ndarray:
    """Pointwise defect S2(D^2 u) - f(u) of a radial profile on the frame
    (u'', u'/r) with multiplicities (1, N-1); at r = 0 both eigenvalues are
    u''(0), which gives C(N, 2) u''(0)^2."""
    eigs = profile.hessian_eigenvalues()
    return invariants(eigs[:, :, None] * np.eye(2), profile.multiplicity)[1] - f.f(profile.u)


def identity_transform() -> Transform:
    """U(t) = t, for which a convexity scan reads the Hessian of u itself."""
    return Transform(name="identity", u=lambda t: t,
                     du=lambda t: np.ones_like(t, dtype=float),
                     d2u=lambda t: np.zeros_like(t, dtype=float))
