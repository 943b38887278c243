import numpy as np
import pytest

import oracles
from hess2 import matineq, symmat
from hess2.errors import InputError, NumericalError
from hess2.matineq import (
    comatrix_functional,
    factorization_campaign,
    inequality_campaign,
    inequality_scale,
)
from hess2.symmat import sample_batch
from oracles import (
    comatrix_inequality,
    composed_hessian_functional,
    contraction_scalars,
    expansion_coefficients,
    negative_semidefinite_inequality,
    sign_of_spectrum,
)

#: Scales of the families below, from where the floor 1 of inequality_scale
#: dominates to where |A|_F^3 |v|^2 nears the top of the float range.
SCALES = [1e-5, 1.0, 1e3, 1e30, 1e60]


def scaled_pairs(dim, scale, count=50):
    """Symmetrised Gaussian matrices times `scale`, with unit Gaussian probes."""
    rng = np.random.default_rng(0)
    g = rng.standard_normal((count, dim, dim))
    return scale * 0.5 * (g + g.transpose(0, 2, 1)), rng.standard_normal((count, dim))


class TestComatrixInequality:
    def test_identity_matrix_unit_probe(self):
        rec = comatrix_inequality(np.eye(4), [1.0, 0.0, 0.0, 0.0])
        assert rec.lhs == pytest.approx(-8.0)
        assert rec.rhs == pytest.approx(-6.0)
        assert rec.residual_direct == pytest.approx(2.0)
        assert rec.residual_closed == pytest.approx(2.0)
        assert rec.matrix_sign == "positive"

    def test_diagonal_ones_probe(self):
        rec = comatrix_inequality(np.diag([1.0, 2.0, 3.0, 4.0]), np.ones(4))
        assert rec.lhs == pytest.approx(-400.0)
        assert rec.rhs == pytest.approx(-300.0)
        # omitted third symmetric functions of (1,2,3,4): 24, 12, 8, 6
        assert rec.residual_direct == pytest.approx(2.0 * (24 + 12 + 8 + 6))

    def test_dimension_three_identity_for_indefinite(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            g = rng.standard_normal((3, 3))
            a = (g + g.T) / 2
            v = rng.standard_normal(3)
            rec = comatrix_inequality(a, v)
            scale = float(inequality_scale(a, v))
            assert abs(rec.residual_direct) <= 1e-10 * scale

    def test_dimension_mismatch(self):
        with pytest.raises(InputError):
            comatrix_inequality(np.eye(4), [1.0, 0.0])

    def test_closed_equals_direct_random(self):
        rng = np.random.default_rng(1)
        for _ in range(200):
            n = int(rng.integers(2, 9))
            g = rng.standard_normal((n, n))
            a = (g + g.T) / 2
            v = rng.standard_normal(n)
            rec = comatrix_inequality(a, v)
            tol = 1e-9 * max(1.0, abs(rec.lhs), abs(rec.rhs))
            assert abs(rec.residual_direct - rec.residual_closed) <= tol


class TestOneResidualCheck:
    @pytest.mark.parametrize("sign, scale", [
        pytest.param(sign, scale, id=sign if scale == 1.0 else f"{sign}-{scale:g}")
        for scale in (1.0, 1e3, 1e30) for sign in ("positive", "negative", "indefinite")])
    def test_one_pair_route_replays_each_campaign_witness(self, sign, scale):
        result = inequality_campaign(seed=42, dims=range(2, 9), count=5000, sign=sign,
                                     scale=scale)
        for s in result.summaries:
            w = s.witness
            rec = comatrix_inequality(w.matrix, w.probe)
            assert rec.residual_direct == w.residual_direct, s.dim
            tol = 1e-9 * float(inequality_scale(w.matrix, w.probe))
            assert abs(rec.residual_closed - w.residual_closed) <= tol, s.dim

    @pytest.mark.parametrize("scale", SCALES)
    def test_closed_residual_off_by_a_share_of_the_scale_fails(self, monkeypatch, scale):
        # 1e-8 of inequality_scale is ten times the agreement bound at every scale.
        a, v = scale * np.diag([1.0, -2.0, 3.0, 4.0]), np.ones(4)
        comatrix_inequality(a, v)
        bump = 1e-8 * float(inequality_scale(a, v))
        real = matineq._closed_residual
        monkeypatch.setattr(matineq, "_closed_residual", lambda lam, w: real(lam, w) + bump)
        with pytest.raises(NumericalError, match="residual check failed"):
            comatrix_inequality(a, v)

    def test_sign_labels_per_row(self):
        rel = np.array([-2e-9, 2e-9, -2e-9, 2e-9])
        sign = np.array(["positive", "negative", "negative", "positive"])
        assert matineq._rows_ok(rel, np.zeros(4), sign, 4).tolist() == [False, False, True, True]

    def test_dimension_three_identity_tolerance(self):
        rel = np.array([5e-11, 5e-10])
        ok = matineq._rows_ok(rel, np.zeros(2), "indefinite", 3)
        assert ok.tolist() == [True, False]

    @pytest.mark.parametrize("dim", range(2, 9))
    def test_mirrored_samples_give_negated_residuals(self, dim):
        # IEEE rounding is symmetric in sign, so (-A, v) with spectrum -lam gives
        # exactly the negated lhs, rhs and both residuals, and the same scale.
        a, v, lam, w = sample_batch(5, dim, "positive", 1.0, 4096)
        plain = matineq._campaign_residuals(a, v, lam, w)
        mirror = matineq._campaign_residuals(-a, v, -lam, w)
        for got, want in zip(mirror[:4], plain[:4]):
            assert np.array_equal(got, -want)
        assert np.array_equal(mirror[4], plain[4])

    def test_one_pair_route_catches_a_wrong_spectrum(self, monkeypatch):
        real = oracles.jacobi_eigh
        monkeypatch.setattr(oracles, "jacobi_eigh", lambda a: (real(a)[0] * 1.001, real(a)[1]))
        with pytest.raises(NumericalError, match="residual check failed"):
            comatrix_inequality(np.diag([1.0, 2.0, 3.0, 4.0]), np.ones(4))


class TestStacks:
    def _pairs(self, seed, dim, count=6):
        rng = np.random.default_rng([seed, dim])
        g = rng.standard_normal((count, dim, dim))
        return 0.5 * (g + g.transpose(0, 2, 1)), rng.standard_normal((count, dim))

    @pytest.mark.parametrize("dim", [2, 3, 5, 8])
    def test_inequality_rows_equal_one_pair_calls(self, dim):
        a, v = self._pairs(1, dim)
        a[0] = np.diag(np.arange(1.0, dim + 1))     # a positive row among indefinite ones
        rec = comatrix_inequality(a, v)
        assert rec.matrix_sign.shape == (6,) and rec.matrix_sign[0] == "positive"
        for k in range(6):
            one = comatrix_inequality(a[k], v[k])
            assert rec.matrix_sign[k] == one.matrix_sign
            assert rec.residual_direct[k] == one.residual_direct
            assert rec.residual_closed[k] == pytest.approx(one.residual_closed, rel=1e-12, abs=1e-12)

    @pytest.mark.parametrize("dim", [2, 4, 7])
    def test_identity_functions_on_a_stack(self, dim):
        a, v = self._pairs(2, dim)
        up = np.linspace(-2.0, 2.0, 6) + 0.1
        us = np.linspace(-1.0, 1.0, 6)
        cs = contraction_scalars(a, v)
        co = expansion_coefficients(a, v)
        hess = up[:, None, None] * a + us[:, None, None] * np.einsum("bi,bj->bij", v, v)
        m_direct, m_factored = composed_hessian_functional(hess, v, up, us)
        for k in range(6):
            one = contraction_scalars(a[k], v[k])
            for name in "rsqt":
                assert getattr(cs, name)[k] == pytest.approx(getattr(one, name), rel=1e-12)
            assert co.m30[k] == pytest.approx(expansion_coefficients(a[k], v[k]).m30,
                                              rel=1e-10, abs=1e-10)
            d, f = composed_hessian_functional(hess[k], v[k], up[k], us[k])
            assert (m_direct[k], m_factored[k]) == pytest.approx((d, f), rel=1e-12, abs=1e-12)

    def test_stack_probe_shape_must_match(self):
        a, v = self._pairs(3, 4)
        with pytest.raises(InputError, match="shape"):
            comatrix_inequality(a, v[0])
        with pytest.raises(InputError, match="finite"):
            contraction_scalars(a[0], [1.0, np.nan, 0.0, 0.0])


class TestSignRule:
    def test_one_eigendecomposition_per_record(self, monkeypatch):
        calls = []
        eigh = oracles.jacobi_eigh

        def counting(a):
            calls.append(np.shape(a))
            return eigh(a)

        monkeypatch.setattr(oracles, "jacobi_eigh", counting)
        rec = comatrix_inequality(np.diag([1.0, 2.0, 3.0, 4.0]), [1.0, 1.0, 1.0, 1.0])
        assert calls == [(4, 4)]
        assert rec.matrix_sign == "positive"

    @pytest.mark.parametrize("diag, sign, negative", [
        ([0.0, 0.0, 0.0], "positive", True),
        ([1e-13, 0.0, -1e-13], "positive", True),
        ([-2.0, -1.0, 0.0], "negative", True),
        ([-1.0, 0.0, 1.0], "indefinite", False),
        ([-1e-11, 0.0, 1.0], "indefinite", False),
        ([-1e-13, 0.0, 1.0], "positive", False),
        ([-1.0, 0.0, 1e-13], "negative", True),
    ])
    def test_classify_and_negative_test_share_one_rule(self, diag, sign, negative):
        a = np.diag(diag)
        assert sign_of_spectrum(np.sort(diag)) == sign
        assert comatrix_inequality(a, np.ones(3)).matrix_sign == sign
        if negative:
            negative_semidefinite_inequality(a, np.ones(3))
        else:
            with pytest.raises(InputError, match="not negative semidefinite"):
                negative_semidefinite_inequality(a, np.ones(3))


class TestReversedInequality:
    def test_negated_identity(self):
        rec = negative_semidefinite_inequality(-np.eye(4), [1.0, 0.0, 0.0, 0.0])
        assert rec.residual_direct == pytest.approx(-2.0)
        assert rec.matrix_sign == "negative"

    def test_zero_matrix(self):
        rec = negative_semidefinite_inequality(np.zeros((3, 3)), [1.0, 2.0, 3.0])
        assert rec.lhs == 0.0 and rec.rhs == 0.0

    def test_sampled_negative(self):
        a = sample_batch(11, 5, "negative", 1.0, 1)[0][0]
        rng = np.random.default_rng(11)
        v = rng.standard_normal(5)
        rec = negative_semidefinite_inequality(a, v)
        scale = float(inequality_scale(a, v))
        assert rec.residual_direct <= 1e-9 * scale

    def test_rejects_positive_definite(self):
        with pytest.raises(InputError, match="not negative semidefinite"):
            negative_semidefinite_inequality(np.eye(3), np.ones(3))

    def test_one_decomposition(self, monkeypatch):
        calls = []
        real = oracles.jacobi_eigh

        def counted(a):
            calls.append(1)
            return real(a)

        monkeypatch.setattr(oracles, "jacobi_eigh", counted)
        rec = negative_semidefinite_inequality(-np.eye(4), [1.0, 0.0, 0.0, 0.0])
        assert rec.matrix_sign == "negative"
        assert len(calls) == 1

    def test_precondition_before_probe_and_residual(self, monkeypatch):
        def no_residual(*args):
            raise AssertionError("residual checked before the precondition")

        monkeypatch.setattr(oracles, "_rows_ok", no_residual)
        with pytest.raises(InputError, match="not negative semidefinite"):
            negative_semidefinite_inequality(np.eye(3), np.ones(2))


class TestContractionScalars:
    def test_diagonal_case(self):
        cs = contraction_scalars(np.diag([1.0, 2.0, 3.0, 4.0]), np.ones(4))
        assert (cs.r, cs.s, cs.q, cs.t) == pytest.approx((4.0, 10.0, 10.0, 30.0))

    def test_identity_matrix(self):
        rng = np.random.default_rng(2)
        v = rng.standard_normal(5)
        cs = contraction_scalars(np.eye(5), v)
        assert cs.q == pytest.approx(cs.r)
        assert cs.t == pytest.approx(cs.r)

    def test_zero_vector(self):
        cs = contraction_scalars(np.diag([1.0, -2.0, 3.0]), np.zeros(3))
        assert cs.r == 0.0 and cs.q == 0.0 and cs.t == 0.0

    def test_cauchy_schwarz_invariant(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            n = int(rng.integers(2, 9))
            g = rng.standard_normal((n, n))
            a = (g + g.T) / 2
            v = rng.standard_normal(n)
            cs = contraction_scalars(a, v)
            assert cs.r >= 0 and cs.t >= 0
            assert cs.q**2 <= cs.r * cs.t * (1 + 1e-12) + 1e-12


class TestComposedFunctional:
    def test_identity_transform_dimension_three(self):
        m_direct, m_factored = composed_hessian_functional(
            np.eye(3), np.array([0.3, -0.1, 0.7]), 1.0, 0.0)
        assert m_direct == pytest.approx(0.0, abs=1e-12)
        assert m_factored == pytest.approx(0.0, abs=1e-12)

    def test_dimension_three_always_vanishes(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            g = rng.standard_normal((3, 3))
            a = (g + g.T) / 2
            v = rng.standard_normal(3)
            up, us = rng.uniform(0.3, 2.0), rng.uniform(-1.0, 1.0)
            hess = up * a + us * np.outer(v, v)
            m_direct, _ = composed_hessian_functional(hess, v, up, us)
            scale = float(inequality_scale(hess, v))
            assert abs(m_direct) <= 1e-10 * scale

    @pytest.mark.parametrize("u_second", [0.25, -0.25])
    def test_square_root_transform_composition(self, u_second):
        # hess = U' I4 + U'' e1 e1^T factors as U'^3 times the base functional,
        # which equals -2 for (I4, e1); the second-derivative term drops out.
        v = np.array([1.0, 0.0, 0.0, 0.0])
        hess = 0.5 * np.eye(4) + u_second * np.outer(v, v)
        m_direct, m_factored = composed_hessian_functional(hess, v, 0.5, u_second)
        assert m_factored == pytest.approx(0.5**3 * -2.0)
        assert m_direct == pytest.approx(-0.25)

    def test_base_functional_is_minus_inequality_residual(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            n = int(rng.integers(2, 9))
            g = rng.standard_normal((n, n))
            a = (g + g.T) / 2
            v = rng.standard_normal(n)
            rec = comatrix_inequality(a, v)
            m = float(comatrix_functional(a, v))
            assert m == pytest.approx(-rec.residual_direct, rel=1e-9, abs=1e-9)

    def test_singular_transform_rejected(self):
        with pytest.raises(InputError, match="transform derivative vanishes"):
            composed_hessian_functional(np.eye(4), np.ones(4), 1e-12, 0.0)

    def test_decreasing_transform_flips_sign(self):
        # For a positive semidefinite base and U' < 0 the factored value is
        # -|U'|^3 times a nonpositive quantity, hence nonnegative.
        rng = np.random.default_rng(6)
        for _ in range(50):
            n = int(rng.integers(4, 9))
            a, v_all, _, _ = sample_batch(int(rng.integers(1000)), n, "positive", 1.0, 1)
            v = v_all[0]
            up, us = -0.7, 0.3
            hess = up * a[0] + us * np.outer(v, v)
            _, m_factored = composed_hessian_functional(hess, v, up, us)
            scale = float(inequality_scale(a[0], v))
            assert m_factored >= -1e-9 * scale


class TestScaledFamilies:
    """Both identity checks on the same draws at every scale: their bound is in
    units of inequality_scale, not of the values, which vanish identically in
    dimensions 2 and 3."""

    U_PRIME, U_SECOND = 0.7, 0.3

    def _composed(self, dim, scale):
        a, v = scaled_pairs(dim, scale)
        gg = np.einsum("bi,bj->bij", v, v)
        hess = self.U_PRIME * a + self.U_SECOND * gg
        scl = np.maximum(inequality_scale(hess, v), inequality_scale(hess - self.U_SECOND * gg, v))
        return hess, v, float(np.min(scl))

    @pytest.mark.parametrize("scale", SCALES)
    @pytest.mark.parametrize("dim", range(2, 9))
    def test_composed_functional_factors(self, dim, scale):
        hess, v, _ = self._composed(dim, scale)
        composed_hessian_functional(hess, v, self.U_PRIME, self.U_SECOND)

    @pytest.mark.parametrize("scale", SCALES)
    @pytest.mark.parametrize("dim", range(2, 9))
    def test_mixed_coefficients_vanish(self, dim, scale):
        expansion_coefficients(*scaled_pairs(dim, scale))

    @pytest.mark.parametrize("scale", SCALES)
    def test_factorization_off_by_a_share_of_the_scale_fails(self, monkeypatch, scale):
        # Every functional value off by 1e-7 of the check's least scale moves
        # m_direct - m_factored by (1 - U'^3) of that, 6.6 times the bound 1e-8.
        hess, v, scl = self._composed(4, scale)
        real = oracles.comatrix_functional
        monkeypatch.setattr(oracles, "comatrix_functional", lambda m, g: real(m, g) + 1e-7 * scl)
        with pytest.raises(NumericalError, match="factorization mismatch"):
            composed_hessian_functional(hess, v, self.U_PRIME, self.U_SECOND)

    @pytest.mark.parametrize("scale", SCALES)
    def test_expansion_off_by_a_share_of_the_scale_fails(self, monkeypatch, scale):
        # Every probe value off by c moves m21 by -3c: at c = 1e-7 of the least
        # scale of the (2, 1) probe matrix, 30 times the bound 1e-8.
        a, v = scaled_pairs(4, scale)
        scl = float(np.min(inequality_scale(2.0 * a + np.einsum("bi,bj->bij", v, v), v)))
        real = oracles.comatrix_functional
        monkeypatch.setattr(oracles, "comatrix_functional", lambda m, g: real(m, g) + 1e-7 * scl)
        with pytest.raises(NumericalError, match="expansion coefficient m21"):
            expansion_coefficients(a, v)


class TestExpansionCoefficients:
    def test_identity_base(self):
        co = expansion_coefficients(np.eye(4), [1.0, 0.0, 0.0, 0.0])
        assert co.m30 == pytest.approx(-2.0)
        assert abs(co.m21) <= 1e-8 * 2.0
        assert abs(co.m12) <= 1e-8 * 2.0
        assert abs(co.m03) <= 1e-8 * 2.0

    def test_zero_gradient(self):
        co = expansion_coefficients(np.diag([1.0, 2.0, 3.0, 4.0]), np.zeros(4))
        assert (co.m30, co.m21, co.m12, co.m03) == (0.0, 0.0, 0.0, 0.0)

    def test_dimension_three_all_vanish(self):
        rng = np.random.default_rng(7)
        for _ in range(25):
            g = rng.standard_normal((3, 3))
            a = (g + g.T) / 2
            co = expansion_coefficients(a, rng.standard_normal(3))
            assert abs(co.m30) <= 1e-8

    def test_mixed_coefficients_vanish_randomly(self):
        rng = np.random.default_rng(8)
        for _ in range(50):
            n = int(rng.integers(2, 9))
            g = rng.standard_normal((n, n))
            a = (g + g.T) / 2
            co = expansion_coefficients(a, rng.standard_normal(n))
            tol = 1e-8 * max(1.0, abs(co.m30))
            assert abs(co.m21) <= tol and abs(co.m12) <= tol and abs(co.m03) <= tol


class TestCampaigns:
    def test_positive_smoke(self):
        result = inequality_campaign(seed=42, dims=(2, 4, 6), count=2000, sign="positive")
        assert result.ok
        for s in result.summaries:
            assert s.min_residual_over_scale >= -1e-9
            assert s.max_discrepancy_over_scale <= 1e-9

    def test_negative_smoke(self):
        result = inequality_campaign(seed=42, dims=(4, 5), count=2000, sign="negative")
        assert result.ok
        for s in result.summaries:
            assert s.max_residual_over_scale <= 1e-9

    def test_dimension_three_identity_campaign(self):
        result = inequality_campaign(seed=7, dims=(3,), count=5000, sign="indefinite")
        assert result.ok
        s = result.summaries[0]
        assert max(abs(s.min_residual_over_scale), abs(s.max_residual_over_scale)) <= 1e-10

    def test_records_shape(self):
        chunks = []
        count = symmat.CAMPAIGN_CHUNK + 100
        result = inequality_campaign(seed=1, dims=(4, 6), count=count, sign="positive",
                                     records=lambda *chunk: chunks.append(chunk))
        assert result.ok
        # Each dimension's chunks arrive in index order and cover every sample once.
        assert [(dim, first) for dim, first, _ in chunks] == [
            (4, 0), (4, symmat.CAMPAIGN_CHUNK), (6, 0), (6, symmat.CAMPAIGN_CHUNK)]
        for dim, first, columns in chunks:
            assert len(columns) == 5
            assert {len(c) for c in columns} == {min(symmat.CAMPAIGN_CHUNK, count - first)}
            lhs, rhs, direct, closed, scale = columns
            assert np.array_equal(direct, rhs - lhs) and np.all(scale >= 1.0)

    def test_count_guard(self):
        with pytest.raises(InputError):
            inequality_campaign(seed=1, dims=(4,), count=0, sign="positive")

    @pytest.mark.parametrize("sign", ["positive", "negative"])
    def test_closed_route_catches_a_wrong_matrix(self, monkeypatch, sign):
        # The closed residual must not read the matrix: a sampler whose
        # matrices drift from the spectra it reports fails the campaign.
        def perturbed(seed, dim, sign, scale, count, first=0):
            a, v, lam, w = sample_batch(seed, dim, sign, scale, count, first)
            bump = np.zeros((dim, dim))
            bump[0, 1] = bump[1, 0] = 1e-3 * scale
            return a + bump, v, lam, w

        monkeypatch.setattr(matineq, "sample_batch", perturbed)
        result = inequality_campaign(seed=3, dims=(4, 6), count=200, sign=sign)
        assert not result.ok
        for s in result.summaries:
            assert s.max_discrepancy_over_scale > 1e-9
            assert not s.ok

    def test_overflowing_scale_rejected(self):
        # The one-pair route keeps the campaign's range rules.
        with pytest.raises(InputError, match="overflows"):
            inequality_campaign(seed=1, dims=(4,), count=5, sign="positive", scale=1e200)
        with pytest.raises(InputError, match="overflows"):
            comatrix_inequality(1e200 * np.diag([1.0, 2.0, 3.0, 4.0]), np.ones(4))

    @pytest.mark.parametrize("sign", ["positive", "negative", "indefinite"])
    def test_overflowing_draws_rejected_without_a_warning(self, sign):
        # At 1e308 the drawn matrices themselves overflow: the range rules name
        # it, no numpy warning escapes the sampler (the suite makes one an error),
        # and an indefinite draw's eigensolver does not fail the batch.
        assert not np.all(np.isfinite(sample_batch(1, 4, sign, 1e308, 100)[0]))
        with pytest.raises(InputError, match="overflows"):
            inequality_campaign(seed=1, dims=(4,), count=100, sign=sign, scale=1e308)

    @pytest.mark.parametrize("sign", ["positive", "negative", "indefinite"])
    def test_underflowing_scale_rejected(self, sign):
        # At 1e-200 every |A|_F^3 |v|^2 underflows to zero, so every residual
        # and its discrepancy would read 0 and every check would pass, on the
        # campaign and on the one-pair route alike.
        with pytest.raises(InputError, match="underflows"):
            inequality_campaign(seed=1, dims=(2, 4), count=50, sign=sign, scale=1e-200)
        with pytest.raises(InputError, match="underflows"):
            comatrix_inequality(*sample_batch(1, 4, sign, 1e-200, 50)[:2])

    def test_small_scale_above_underflow_accepted(self):
        result = inequality_campaign(seed=1, dims=(4,), count=50, sign="positive",
                                     scale=1e-90)
        assert result.ok

    def test_zero_matrix_draw_is_not_underflow(self):
        # Seed 1 draws the zero matrix as its only dimension-2 sample: its
        # residuals are exactly zero at any scale, not an underflow.
        a = sample_batch(1, 2, "positive", 1.0, 1)[0]
        assert not np.any(a)
        result = inequality_campaign(seed=1, dims=(2,), count=1, sign="positive")
        assert result.ok
        assert result.summaries[0].max_residual_over_scale == 0.0
        # So is a zero matrix or probe on the one-pair route, where a nonzero
        # pair at the same scale underflows.
        a = 1e-110 * np.diag([1.0, 2.0, 3.0, 4.0])
        with pytest.raises(InputError, match="underflows"):
            comatrix_inequality(a, np.ones(4))
        assert comatrix_inequality(a, np.zeros(4)).residual_direct == 0.0
        assert comatrix_inequality(np.zeros((4, 4)), np.ones(4)).residual_direct == 0.0

    def test_factorization_campaign(self):
        worst = factorization_campaign(seed=3, count=2000)
        assert worst <= 1e-8
