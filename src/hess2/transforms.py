"""Strictly monotone scalar transforms with first and second derivatives, and the
verdict of a convexity scan of a composition U(u)."""

from __future__ import annotations

from typing import Callable, NamedTuple

import math

import numpy as np

from .errors import HypothesisError

#: A convexity scan passes when its least eigenvalue is above -CONVEXITY_TOL
#: times the scan's eigenvalue scale.
CONVEXITY_TOL = 1e-8


class Transform(NamedTuple):
    """A scalar transform U with evaluators for U, U' and U''.

    The evaluators take a float or an array of floats and apply elementwise.
    `domain` is the open interval on which the transform is defined; points
    outside it raise HypothesisError.
    """

    name: str
    u: Callable
    du: Callable
    d2u: Callable
    domain: tuple[float, float] = (-math.inf, math.inf)

    def check_domain(self, t) -> None:
        t = np.asarray(t, dtype=float)
        lo, hi = self.domain
        if np.any(t <= lo) or np.any(t >= hi):
            raise HypothesisError(
                f"value outside the open domain ({lo}, {hi}) of transform {self.name}")

    def composed_hessian(self, t, grad, hess) -> np.ndarray:
        """Hessian U'(t) H + U''(t) g (x) g of U(u) per point, from u's values t, gradients
        g (..., k) and Hessians H (..., k, k); raises outside the domain."""
        self.check_domain(t)
        outer = grad[..., :, None] * grad[..., None, :]
        return (np.asarray(self.du(t))[..., None, None] * hess
                + np.asarray(self.d2u(t))[..., None, None] * outer)


def negative_sqrt_transform() -> Transform:
    """U(t) = -sqrt(-t) on t < 0; increasing with U'' > 0."""
    return Transform(
        name="neg-sqrt",
        u=lambda t: -np.sqrt(-t),
        du=lambda t: 0.5 * (-t) ** -0.5,
        d2u=lambda t: 0.25 * (-t) ** -1.5,
        domain=(-math.inf, 0.0),
    )


def negative_log_transform() -> Transform:
    """U(t) = -log(-t) on t < 0; increasing with U'' > 0."""
    return Transform(
        name="neg-log",
        u=lambda t: -np.log(-t),
        du=lambda t: -1.0 / t,
        d2u=lambda t: 1.0 / (t * t),
        domain=(-math.inf, 0.0),
    )


def negative_power_transform(p: float) -> Transform:
    """U(t) = -(-t)^((2-p)/4) on t < 0; increasing only for p < 2.

    For p >= 2 the exponent is nonpositive and the transform is no longer
    strictly increasing on (-inf, 0); such p are rejected.
    """
    if not (0.0 < p < 2.0):
        raise HypothesisError(
            f"power transform requires 0 < p < 2; for p = {p} the map "
            "-(-t)^((2-p)/4) is not strictly increasing on (-inf, 0)")
    q = (2.0 - p) / 4.0
    return Transform(
        name=f"neg-power-{p:g}",
        u=lambda t: -((-t) ** q),
        du=lambda t: q * (-t) ** (q - 1.0),
        d2u=lambda t: q * (1.0 - q) * (-t) ** (q - 2.0),
        domain=(-math.inf, 0.0),
    )


class ConvexityReport(NamedTuple):
    """Outcome of scanning the composed Hessian over a batch of points."""

    transform_name: str
    n_points: int
    min_eigenvalue: float
    argmin_point: np.ndarray
    convex: bool
    tolerance: float

    @classmethod
    def of(cls, transform_name: str, lam, points) -> "ConvexityReport":
        """Verdict on the ascending spectra `lam` (m, k) at `points` (m, d): convex iff
        min(lam) >= -CONVEXITY_TOL * max(1, max |lam|); the first point attaining
        the minimum is kept."""
        k = int(np.argmin(lam[:, 0]))
        tolerance = CONVEXITY_TOL * max(1.0, float(np.max(np.abs(lam))))
        return cls(transform_name=transform_name, n_points=len(lam),
                   min_eigenvalue=float(lam[k, 0]), argmin_point=points[k].copy(),
                   convex=bool(lam[k, 0] >= -tolerance), tolerance=tolerance)
