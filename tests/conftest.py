"""Shared cached solves so expensive cases run once per session."""

from functools import lru_cache

from hess2.analysis import (
    PFunctionSpec,
    bounds_report,
    convexity_scan_solution,
    pfunction_field,
    transform_preset,
)
from hess2.domain import ball, ellipse, rasterize
from hess2.solver import (
    SolveConfig,
    constant_source,
    eigen_source,
    exp_decreasing_source,
    exp_increasing_source,
    power_source,
    solve_eigen_radial,
    solve_grid2d,
    solve_radial,
)

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
    cfg = SolveConfig(radial_nodes=nodes)
    return solve_radial(dim, radius, make_source(f_key), cfg)


@lru_cache(maxsize=None)
def cached_mask(domain_key: str, h: float):
    if domain_key == "disk":
        spec = ball(1.0)
    elif domain_key == "ellipse":
        spec = ellipse(2.0, 1.0)
    else:
        raise KeyError(domain_key)
    return rasterize(spec, h)


@lru_cache(maxsize=None)
def cached_grid(domain_key: str, f_key: str, h: float):
    mask = cached_mask(domain_key, h)
    return solve_grid2d(mask.spec, make_source(f_key), h, mask=mask)


@lru_cache(maxsize=None)
def cached_eigen(radius: float = 1.0, nodes: int = 1024):
    cfg = SolveConfig(radial_nodes=nodes)
    return solve_eigen_radial(3, radius, cfg)


def audit_bounds(sol, f, application: int, p=None, gamma: float = 1.0):
    """The bound report `hess2 verify` prints: the alpha = 1 field at gamma,
    audited with the scan of the application's transform."""
    pf = pfunction_field(sol, f, PFunctionSpec(alpha=1.0, gamma=gamma))
    scan = convexity_scan_solution(sol, transform_preset(application, p))
    return bounds_report(pf, scan, f, application)
