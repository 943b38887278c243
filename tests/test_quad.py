import numpy as np
import pytest
from numpy.polynomial import Polynomial

from hess2 import _quad
from hess2._quad import cumulative_quartic
from hess2.errors import NumericalError


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

    def test_rule_built_once_per_power(self, monkeypatch):
        s = np.linspace(0.0, 1.0, 65)
        y = np.exp(s)
        _quad._quartic_rule.cache_clear()
        first = {p: cumulative_quartic(y, s[1], p) for p in (0, 1, 5)}
        degrees = []
        leggauss = np.polynomial.legendre.leggauss

        def counting(deg):
            degrees.append(deg)
            return leggauss(deg)

        monkeypatch.setattr(np.polynomial.legendre, "leggauss", counting)
        _quad._quartic_rule.cache_clear()
        for _ in range(3):
            for p in (0, 1, 5):
                assert np.array_equal(cumulative_quartic(y, s[1], p), first[p])
        # Powers 0 and 1 share a point count but are cached apart.
        assert degrees == [3, 3, 5]
