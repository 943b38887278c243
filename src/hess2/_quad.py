"""Small quadrature and finite-difference helpers used across modules."""

from __future__ import annotations

import numpy as np

from .errors import NumericalError


def _quartic_interval_weights() -> np.ndarray:
    """Weights integrating the quartic through 5 unit-spaced nodes over [s, s+1].

    Row s gives the five node weights for the interval starting at offset s.
    """
    powers = np.arange(5)
    vander = np.vander(np.arange(5.0), 5, increasing=True).T  # vander[i, k] = k^i
    weights = np.empty((4, 5))
    for s in range(4):
        moments = ((s + 1.0) ** (powers + 1) - float(s) ** (powers + 1)) / (powers + 1)
        weights[s] = np.linalg.solve(vander, moments)
    return weights

_QUARTIC_WEIGHTS = _quartic_interval_weights()
SIMPSON_MAX_DEPTH = 48  # bisection levels before adaptive_simpson gives up


def cumulative_quartic_uniform(y: np.ndarray, dx: float) -> np.ndarray:
    """Cumulative integral with per-interval quartic fits on one-sided windows.

    Unlike alternating-window composite rules, every interior interval uses the
    same relative stencil, so the quadrature error varies smoothly from node to
    node; differentiating the cumulative result stays clean.  Exact for quartic
    integrands; composite error O(dx^5).
    """
    y = np.asarray(y, dtype=float)
    m = y.size - 1
    if m < 4:
        raise NumericalError("cumulative quartic rule needs at least 5 samples")
    j = np.arange(m)
    ws = np.clip(j - 1, 0, m - 4)        # window start per interval
    s = j - ws                            # interval offset inside its window
    idx = ws[:, None] + np.arange(5)[None, :]
    inc = dx * np.einsum("jk,jk->j", _QUARTIC_WEIGHTS[s], y[idx])
    out = np.empty(m + 1)
    out[0] = 0.0
    np.cumsum(inc, out=out[1:])
    return out


def adaptive_simpson(func, a: float, b: float, rtol: float = 1e-10,
                     atol: float = 1e-300) -> float:
    """Adaptive Simpson quadrature of a scalar function on [a, b]."""
    if a == b:
        return 0.0
    fa, fm, fb = func(a), func(0.5 * (a + b)), func(b)
    whole = (b - a) / 6.0 * (fa + 4.0 * fm + fb)
    return _simpson_rec(func, a, b, fa, fm, fb, whole, rtol, atol, SIMPSON_MAX_DEPTH)


def _simpson_rec(func, a, b, fa, fm, fb, whole, rtol, atol, depth):
    # atol is deliberately not halved on descent: leaves hugging an integrable
    # endpoint singularity keep a constant relative error, so they terminate
    # through the absolute budget once their measure is small enough.
    m = 0.5 * (a + b)
    lm, rm = 0.5 * (a + m), 0.5 * (m + b)
    flm, frm = func(lm), func(rm)
    left = (m - a) / 6.0 * (fa + 4.0 * flm + fm)
    right = (b - m) / 6.0 * (fm + 4.0 * frm + fb)
    err = left + right - whole
    if abs(err) <= 15.0 * max(atol, rtol * abs(left + right)):
        return left + right + err / 15.0
    if depth <= 0:
        raise NumericalError(f"adaptive quadrature failed to converge on [{a}, {b}]")
    return (_simpson_rec(func, a, m, fa, flm, fm, left, rtol, atol, depth - 1)
            + _simpson_rec(func, m, b, fm, frm, fb, right, rtol, atol, depth - 1))


def deriv_uniform(y: np.ndarray, h: float) -> np.ndarray:
    """First derivative of uniformly sampled y, fourth-order five-point stencils.

    Needs at least 5 samples; one-sided stencils at the two ends.
    """
    y = np.asarray(y, dtype=float)
    n = y.size
    if n < 5:
        raise NumericalError("five-point differentiation needs at least 5 samples")
    d = np.empty_like(y)
    d[2:-2] = (y[:-4] - 8.0 * y[1:-3] + 8.0 * y[3:-1] - y[4:]) / (12.0 * h)
    d[0] = (-25.0 * y[0] + 48.0 * y[1] - 36.0 * y[2] + 16.0 * y[3] - 3.0 * y[4]) / (12.0 * h)
    d[1] = (-3.0 * y[0] - 10.0 * y[1] + 18.0 * y[2] - 6.0 * y[3] + y[4]) / (12.0 * h)
    d[-2] = (3.0 * y[-1] + 10.0 * y[-2] - 18.0 * y[-3] + 6.0 * y[-4] - y[-5]) / (12.0 * h)
    d[-1] = (25.0 * y[-1] - 48.0 * y[-2] + 36.0 * y[-3] - 16.0 * y[-4] + 3.0 * y[-5]) / (12.0 * h)
    return d


def forward_first_derivative(u0: float, u1: float, u2: float,
                             d1: float, d2: float) -> float:
    """Derivative at x=0 from samples u0=f(0), u1=f(d1), u2=f(d2), 0 < d1 < d2.

    Three-point one-sided formula, exact for quadratics.
    """
    return (u1 * d2 * d2 - u2 * d1 * d1 - u0 * (d2 * d2 - d1 * d1)) / (d1 * d2 * (d2 - d1))
