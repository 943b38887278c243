"""Small quadrature and finite-difference helpers used across modules."""

from __future__ import annotations

import functools

import numpy as np

from .errors import NumericalError
from .symmat import eigenvalues


SIMPSON_MAX_DEPTH = 48  # bisection levels before adaptive_simpson gives up


def _legendre_series(x: np.ndarray, c: list) -> np.ndarray:
    """sum_k c[k] P_k(x) for len(c) >= 3, by Clenshaw's recurrence in the order
    of operations of `numpy.polynomial.legendre.legval`."""
    c0, c1 = c[-2], c[-1]
    for nd in range(len(c) - 1, 1, -1):
        c0, c1 = c[nd - 2] - c1 * ((nd - 1) / nd), c0 + c1 * x * ((2 * nd - 1) / nd)
    return c0 + c1 * x


def _gauss_legendre(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The n-point Gauss-Legendre rule on [-1, 1], n >= 3, as
    `numpy.polynomial.legendre.leggauss(n)` computes it, bit for bit.

    The points are the eigenvalues of P_n's symmetric companion matrix (Golub &
    Welsch, Math. Comp. 23, 1969), refined by one Newton step whose P_n' is also
    the weights'; the weights 1/(P_n' P_(n-1)) are then symmetrised with the
    points and scaled to sum 2.
    """
    scl = 1.0 / np.sqrt(2 * np.arange(n) + 1)
    off = np.arange(1, n) * scl[:-1] * scl[1:]
    x = eigenvalues(np.diag(off, 1) + np.diag(off, -1))
    p_n = [0.0] * n + [1.0]
    # P_n' = sum of (2k + 1) P_k over k = n - 1, n - 3, ...
    dp_n = [float(2 * k + 1) if (n - 1 - k) % 2 == 0 else 0.0 for k in range(n)]
    df = _legendre_series(x, dp_n)
    x = x - _legendre_series(x, p_n) / df
    fm = _legendre_series(x, p_n[1:])
    w = 1.0 / ((fm / np.abs(fm).max()) * (df / np.abs(df).max()))
    w = (w + w[::-1]) / 2
    x = (x - x[::-1]) / 2
    return x, w * (2.0 / w.sum())


@functools.cache
def _quartic_rule(power: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Gauss points on [0, 1], their weights and the window basis for `power`.

    Built on first use per power and kept; the power//2 + 3 Gauss-Legendre
    points come from `_gauss_legendre`, so no command loads `numpy.polynomial`.
    """
    x, a = _gauss_legendre(power // 2 + 3)
    x = 0.5 * (x + 1.0)                   # Gauss points on [0, 1]
    # basis[o, g, k]: Lagrange polynomial of window node k at point g of the
    # interval at offset o in its window, as prod over i != k of (t-i)/(k-i).
    t = np.arange(4.0)[:, None] + x
    nodes = np.arange(5.0)
    off = ~np.eye(5, dtype=bool)
    ratio = (t[..., None, None] - nodes) / np.where(off, nodes[:, None] - nodes, 1.0)
    basis = np.prod(np.where(off, ratio, 1.0), axis=-1)
    for arr in (x, a, basis):
        arr.flags.writeable = False       # shared by every call at this power
    return x, a, basis


def cumulative_quartic(y: np.ndarray, h: float, power: int = 0) -> np.ndarray:
    """Cumulative integral of s^power y(s) from 0 over nodes s_k = k h.

    Product integration: each interval integrates s^power times the quartic
    through y on a one-sided five-node window.  Interior intervals share one
    relative stencil, so the error varies smoothly from node to node and
    differentiating the result stays clean.  power//2 + 3 Gauss-Legendre
    points per interval make the rule exact for quartic y at any power, with
    O(h^5) composite error relative to the s^(power+1) growth near s = 0.
    """
    y = np.asarray(y, dtype=float)
    m = y.size - 1
    if m < 4:
        raise NumericalError("cumulative quartic rule needs at least 5 samples")
    j = np.arange(m)
    ws = np.clip(j - 1, 0, m - 4)        # window start per interval
    x, a, basis = _quartic_rule(power)
    vals = np.einsum("jgk,jk->jg", basis[j - ws], y[ws[:, None] + np.arange(5)])
    inc = (0.5 * h) * (((h * (j[:, None] + x)) ** power * vals) @ a)
    out = np.empty(m + 1)
    out[0] = 0.0
    np.cumsum(inc, out=out[1:])
    return out


@np.errstate(over="ignore", invalid="ignore")   # a non-finite sum raises, naming its cause
def adaptive_simpson(func, a, b, rtol: float = 1e-10, atol: float = 1e-300) -> np.ndarray:
    """Adaptive Simpson quadrature of array `func` on each segment [a[i], b[i]], batched.

    Each level bisects every unconverged segment at once; the halves are summed
    back up pairwise, so each result equals the depth-first recursion's bit for bit.
    atol is deliberately not halved on descent: leaves hugging an integrable
    endpoint singularity keep a constant relative error, so they terminate
    through the absolute budget once their measure is small enough.
    """
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    fa, fm, fb = np.split(func(np.concatenate([a, 0.5 * (a + b), b])), 3)
    whole = (b - a) / 6.0 * (fa + 4.0 * fm + fb)
    levels = []                       # (value, split mask) per level, outermost first
    for depth in range(SIMPSON_MAX_DEPTH, -1, -1):
        m = 0.5 * (a + b)
        flm, frm = np.split(func(np.concatenate([0.5 * (a + m), 0.5 * (m + b)])), 2)
        left = (m - a) / 6.0 * (fa + 4.0 * flm + fm)
        right = (b - m) / 6.0 * (fm + 4.0 * frm + fb)
        if not np.all(np.isfinite(left + right)):
            i = np.argmin(np.isfinite(left + right))
            finite = np.all(np.isfinite([fa[i], flm[i], fm[i], frm[i], fb[i]]))
            raise NumericalError(f"{'the integral overflows' if finite else 'non-finite integrand'}"
                                 f" on [{a[i]}, {b[i]}]")
        err = left + right - whole
        split = ~(np.abs(err) <= 15.0 * np.maximum(atol, rtol * np.abs(left + right)))
        levels.append((left + right + err / 15.0, split))
        if not split.any():
            break
        if depth == 0:
            i = np.argmax(split)
            raise NumericalError(f"adaptive quadrature failed to converge on [{a[i]}, {b[i]}]")
        # Each split segment becomes its left half followed by its right half.
        a, b, fa, fm, fb, whole = (np.stack([lo[split], hi[split]], axis=1).ravel()
                                   for lo, hi in ((a, m), (m, b), (fa, fm), (flm, frm),
                                                  (fm, fb), (left, right)))
    for (value, split), (halves, _) in zip(levels[-2::-1], levels[:0:-1]):
        value[split] = halves[0::2] + halves[1::2]
    return levels[0][0]


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
    unit = np.ldexp(1.0, np.frexp(d1)[1])   # exact rescaling: squared lengths stay in range
    d1, d2 = d1 / unit, d2 / unit
    return (u1 * d2 * d2 - u2 * d1 * d1 - u0 * (d2 * d2 - d1 * d1)) / (d1 * d2 * (d2 - d1)) / unit
