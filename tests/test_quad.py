import numpy as np
import pytest
from numpy.polynomial import Polynomial

from conftest import make_source
from hess2 import _quad, analysis
from hess2._quad import cumulative_quartic, forward_first_derivative
from hess2.analysis import source_integral
from hess2.errors import InputError, NumericalError
from hess2.solver import SourceTerm, power_source


class TestCumulativeQuartic:
    @pytest.mark.parametrize("power", range(16))
    def test_quartic_times_power_exact(self, power):
        rng = np.random.default_rng(power)
        y = Polynomial(rng.standard_normal(5))
        s = np.linspace(0.0, 1.3, 27)
        antider = (y * Polynomial.basis(power)).integ()
        exact = antider(s) - antider(0.0)
        got = cumulative_quartic(y(s), s[1] - s[0], power)
        assert np.max(np.abs(got - exact)) <= 1e-12 * np.max(np.abs(exact))

    def test_fifth_order_with_weight(self):
        # int_0^r s^5 e^s ds = e^r P(r) + 120 with P(r) = r^5 - 5r^4 + 20r^3 - 60r^2 + 120r - 120.
        p = Polynomial([-120.0, 120.0, -60.0, 20.0, -5.0, 1.0])
        errs = []
        for m in (8, 16, 32, 64):
            s = np.linspace(0.0, 1.0, m + 1)
            exact = np.exp(s) * p(s) + 120.0
            errs.append(np.max(np.abs(cumulative_quartic(np.exp(s), 1.0 / m, 5) - exact)))
        ratios = np.array(errs[:-1]) / np.array(errs[1:])
        assert np.all(ratios >= 16.0), ratios

    def test_needs_five_samples(self):
        with pytest.raises(NumericalError):
            cumulative_quartic(np.ones(4), 0.1)

    def test_rule_built_once_per_power(self):
        s = np.linspace(0.0, 1.0, 65)
        y = np.exp(s)
        _quad._quartic_rule.cache_clear()
        first = {p: cumulative_quartic(y, s[1], p) for p in (0, 1, 5)}
        _quad._quartic_rule.cache_clear()
        for _ in range(3):
            for p in (0, 1, 5):
                assert np.array_equal(cumulative_quartic(y, s[1], p), first[p])
        # Powers 0 and 1 share a point count but are cached apart: three builds.
        info = _quad._quartic_rule.cache_info()
        assert (info.misses, info.currsize, info.hits) == (3, 3, 6)

    @pytest.mark.parametrize("n", range(3, 11))
    def test_gauss_rule_is_numpys_bit_for_bit(self, n):
        from numpy.polynomial.legendre import leggauss

        x, w = _quad._gauss_legendre(n)
        want_x, want_w = leggauss(n)
        assert x.tobytes() == want_x.tobytes()
        assert w.tobytes() == want_w.tobytes()


# ----------------------------------------------------------------------
# Batched adaptive Simpson against the depth-first recursion
# ----------------------------------------------------------------------


class TestForwardFirstDerivative:
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("scale", [1e-150, 2.0**-40, 1.0, 3.0, 1e150])
    def test_quadratic_exact_at_every_scale(self, scale):
        # u(x) = R^2 q(x/R) with q(t) = t^2 - 3t - 2 has u'(0) = -3R; arms of
        # 0.01R and 1.01R square to more than the float range at R = 1e150.
        d1, d2 = 0.01 * scale, 1.01 * scale
        u0, u1, u2 = (scale**2 * ((d / scale) ** 2 - 3.0 * d / scale - 2.0) for d in (0.0, d1, d2))
        assert forward_first_derivative(u0, u1, u2, d1, d2) == pytest.approx(-3.0 * scale,
                                                                            rel=1e-12)


def recursive_simpson(func, a, b, rtol=1e-10, atol=1e-300):
    """Reference: the scalar depth-first adaptive Simpson rule, one segment per call."""
    if a == b:
        return 0.0
    fa, fm, fb = func(a), func(0.5 * (a + b)), func(b)
    whole = (b - a) / 6.0 * (fa + 4.0 * fm + fb)
    return _simpson_rec(func, a, b, fa, fm, fb, whole, rtol, atol, _quad.SIMPSON_MAX_DEPTH)


def _simpson_rec(func, a, b, fa, fm, fb, whole, rtol, atol, depth):
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


def loop_source_integral(func, u):
    """Reference: one recursive quadrature of array `func` per distinct value,
    accumulated from zero down, under the absolute floor 1e-16 (-min u) max func
    over the distinct values and 0."""
    flat = np.minimum(np.asarray(u, dtype=float), 0.0).ravel()
    values = np.unique(flat)   # the array source_integral evaluates, so the floors agree
    atol = 1e-16 * -np.min(values, initial=0.0) * np.max(func(np.append(values, 0.0)))
    integrand = _scalar(func)
    out = np.empty_like(flat)
    acc, prev = 0.0, 0.0
    for idx in np.argsort(flat)[::-1]:
        if flat[idx] < prev:
            acc += recursive_simpson(integrand, flat[idx], prev, rtol=1e-10, atol=atol)
            prev = flat[idx]
        out[idx] = acc
    return out.reshape(np.shape(u))


def _integrand(key, gamma):
    f = make_source(key)
    return lambda s: np.asarray(f.f(s), dtype=float) ** gamma


def _scalar(func):
    # One-element arrays take numpy's array loops, as the batched calls do;
    # numpy scalars take its scalar math, whose pow can differ in the last bit.
    return lambda s: float(func(np.array([s]))[0])


def _segments(rng, low):
    """Random gaps of a sorted solution range plus long segments that must subdivide."""
    u = np.sort(low * rng.random(400))
    a = np.concatenate([u, [low, low, 0.5 * low, low]])
    b = np.concatenate([np.append(u[1:], 0.0), [0.0, 0.5 * low, 0.0, 0.9 * low]])
    return a, b


SMOOTH = ["const:1", "const:2.5", "exp-dec:0.5", "exp-dec:2", "exp-inc:1", "eigen:3"]
POWER = ["power:1,0.5", "power:1,1.5", "power:2,0.5"]


class TestBatchedSimpson:
    @pytest.mark.parametrize("gamma", [0.5, 1.0])
    @pytest.mark.parametrize("key", SMOOTH + POWER)
    def test_matches_recursion_bit_for_bit(self, key, gamma):
        func = _integrand(key, gamma)
        a, b = _segments(np.random.default_rng(len(key)), -3.0)
        # Power sources are singular at zero and converge only with an absolute floor.
        for rtol, atol in ((1e-10, 1e-16), (1e-12, 1e-18) if key in POWER else (1e-13, 1e-300)):
            got = _quad.adaptive_simpson(func, a, b, rtol=rtol, atol=atol)
            want = [recursive_simpson(_scalar(func), x, y, rtol, atol) for x, y in zip(a, b)]
            assert np.asarray(want).tobytes() == got.tobytes()

    @pytest.mark.parametrize("gamma", [0.5, 1.0])
    @pytest.mark.parametrize("key", SMOOTH + POWER)
    def test_source_integral_matches_the_loop(self, key, gamma):
        rng = np.random.default_rng(3)
        u = np.round(-1.5 * rng.random((40, 30)), 3)   # repeated values and zeros
        u[0, :4] = 0.0
        want = loop_source_integral(_integrand(key, gamma), u)
        got = source_integral(make_source(key), gamma, u)
        assert got.shape == u.shape and got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("gamma", [0.5, 1.0])
    @pytest.mark.parametrize("p", [0.5, 1.5, 1.9])
    def test_power_source_integral_rescales(self, p, gamma):
        # int_{cu}^0 ((-s)^p)^gamma ds = c^(p gamma + 1) int_u^0 for c = 2^k: the
        # absolute floor scales with u and f, so every length scale is resolved alike.
        f = power_source(1.0, p)
        u = np.append(-np.random.default_rng(7).random(200), 0.0)
        base = source_integral(f, gamma, u)
        for k in (-40, -20, 0, 20, 40, 60):
            got = source_integral(f, gamma, np.ldexp(u, k))
            np.testing.assert_allclose(got, np.ldexp(base, round(k * (p * gamma + 1.0))),
                                       rtol=1e-12, atol=0.0, err_msg=f"k = {k}")

    def test_zero_length_segments_are_zero(self):
        got = _quad.adaptive_simpson(np.exp, [0.5, -1.0, 2.0, 2.0, -0.0], [0.5, 0.0, 2.0, 3.0, 0.0])
        assert got[[0, 2, 4]].tobytes() == np.zeros(3).tobytes()
        assert got[1] == pytest.approx(1.0 - np.exp(-1.0), rel=1e-12)
        assert got[3] == pytest.approx(np.exp(3.0) - np.exp(2.0), rel=1e-12)
        assert _quad.adaptive_simpson(np.exp, [], []).shape == (0,)

    def test_one_call_per_source_integral(self, monkeypatch):
        calls = []
        real = analysis.adaptive_simpson
        monkeypatch.setattr(analysis, "adaptive_simpson",
                            lambda *args, **kw: calls.append(1) or real(*args, **kw))
        source_integral(make_source("exp-dec"), 0.5, -np.random.default_rng(0).random(500))
        source_integral(make_source("const"), 1.0, np.zeros(3))
        assert len(calls) == 2

    def test_negative_source_rejected(self):
        neg = SourceTerm(preset="neg", f=lambda t: np.asarray(t, dtype=float) - 1.0,
                         fprime=lambda t: np.ones_like(np.asarray(t, dtype=float)),
                         nonincreasing=False)
        with pytest.raises(InputError, match="nonnegative"):
            source_integral(neg, 1.0, np.array([-0.5, -0.2, 0.0]))


class TestSimpsonGuards:
    # A small depth makes a missing guard fail fast instead of doubling the
    # active segments for 48 levels.
    @pytest.fixture(autouse=True)
    def shallow(self, monkeypatch):
        monkeypatch.setattr(_quad, "SIMPSON_MAX_DEPTH", 8)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_integrand_named_before_bisection(self, bad):
        calls = []

        def func(x):
            calls.append(len(x))
            return np.where(x > 1.5, bad, x)

        with pytest.raises(NumericalError, match=r"non-finite integrand on \[1\.0, 2\.0\]"):
            _quad.adaptive_simpson(func, [0.0, 1.0, 2.0], [1.0, 2.0, 3.0])
        assert calls == [9, 6]              # endpoints and midpoints, then one level

    def test_non_finite_everywhere(self):
        with pytest.raises(NumericalError, match=r"non-finite integrand on \[-1\.0, 0\.0\]"):
            _quad.adaptive_simpson(lambda x: np.full_like(x, np.nan), [-1.0, 0.0], [0.0, 1.0])

    def test_overflowing_sums_named_apart_from_the_integrand(self):
        # A finite integrand whose Simpson sums overflow, without a warning.
        with pytest.raises(NumericalError, match=r"^the integral overflows on \[0\.0, 1e\+200\]$"):
            _quad.adaptive_simpson(lambda x: np.full_like(x, 1e300), [0.0, 0.0], [1.0, 1e200])

    def test_depth_exhaustion_names_the_segment(self):
        def step(x):
            return np.where(x > 0.3, 1.0, 0.0)

        with pytest.raises(NumericalError) as batched:
            _quad.adaptive_simpson(step, [-1.0, 0.0], [0.0, 1.0])
        with pytest.raises(NumericalError) as recursive:
            recursive_simpson(_scalar(step), 0.0, 1.0)
        assert str(batched.value) == str(recursive.value)
        assert str(batched.value).startswith("adaptive quadrature failed to converge on [0.296875")
