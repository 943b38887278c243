import numpy as np
import pytest

from hess2 import matineq, symmat
from hess2.errors import InputError, PreconditionError, SingularTransformError
from hess2.matineq import (
    TransformEval,
    classify_sign,
    comatrix_functional,
    comatrix_inequality,
    composed_hessian_functional,
    contraction_scalars,
    expansion_coefficients,
    factorization_campaign,
    inequality_campaign,
    inequality_scale,
    is_negative_semidefinite,
    negative_semidefinite_inequality,
    sign_of_spectrum,
)
from hess2.symmat import SymmetricMatrix, sample_batch, sample_semidefinite


class TestComatrixInequality:
    def test_identity_matrix_unit_probe(self):
        rec = comatrix_inequality(SymmetricMatrix.identity(4), [1.0, 0.0, 0.0, 0.0])
        assert rec.lhs == pytest.approx(-8.0)
        assert rec.rhs == pytest.approx(-6.0)
        assert rec.residual_direct == pytest.approx(2.0)
        assert rec.residual_closed == pytest.approx(2.0)
        assert rec.matrix_sign == "positive"

    def test_diagonal_ones_probe(self):
        rec = comatrix_inequality(SymmetricMatrix.from_diag([1.0, 2.0, 3.0, 4.0]),
                                  np.ones(4))
        assert rec.lhs == pytest.approx(-400.0)
        assert rec.rhs == pytest.approx(-300.0)
        # omitted third symmetric functions of (1,2,3,4): 24, 12, 8, 6
        assert rec.residual_direct == pytest.approx(2.0 * (24 + 12 + 8 + 6))

    def test_dimension_three_identity_for_indefinite(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            g = rng.standard_normal((3, 3))
            a = SymmetricMatrix.from_full((g + g.T) / 2)
            v = rng.standard_normal(3)
            rec = comatrix_inequality(a, v)
            scale = float(inequality_scale(a.full(), v))
            assert abs(rec.residual_direct) <= 1e-10 * scale

    def test_dimension_mismatch(self):
        with pytest.raises(InputError):
            comatrix_inequality(SymmetricMatrix.identity(4), [1.0, 0.0])

    def test_closed_equals_direct_random(self):
        rng = np.random.default_rng(1)
        for _ in range(200):
            n = int(rng.integers(2, 9))
            g = rng.standard_normal((n, n))
            a = SymmetricMatrix.from_full((g + g.T) / 2)
            v = rng.standard_normal(n)
            rec = comatrix_inequality(a, v)
            tol = 1e-9 * max(1.0, abs(rec.lhs), abs(rec.rhs))
            assert abs(rec.residual_direct - rec.residual_closed) <= tol


class TestSignRule:
    def test_one_eigendecomposition_per_record(self, monkeypatch):
        calls = []
        eigh = matineq.jacobi_eigh

        def counting(a):
            calls.append(np.shape(a))
            return eigh(a)

        monkeypatch.setattr(matineq, "jacobi_eigh", counting)
        rec = comatrix_inequality(SymmetricMatrix.from_diag([1.0, 2.0, 3.0, 4.0]),
                                  [1.0, 1.0, 1.0, 1.0])
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
        a = SymmetricMatrix.from_diag(diag)
        assert sign_of_spectrum(np.sort(diag)) == sign
        assert classify_sign(a) == sign
        assert is_negative_semidefinite(a) is negative


class TestReversedInequality:
    def test_negated_identity(self):
        rec = negative_semidefinite_inequality(
            SymmetricMatrix.from_full(-np.eye(4)), [1.0, 0.0, 0.0, 0.0])
        assert rec.residual_direct == pytest.approx(-2.0)
        assert rec.matrix_sign == "negative"

    def test_zero_matrix(self):
        rec = negative_semidefinite_inequality(
            SymmetricMatrix.from_full(np.zeros((3, 3))), [1.0, 2.0, 3.0])
        assert rec.lhs == 0.0 and rec.rhs == 0.0

    def test_sampled_negative(self):
        s = sample_semidefinite(11, 5, "negative", 1.0)
        rng = np.random.default_rng(11)
        v = rng.standard_normal(5)
        rec = negative_semidefinite_inequality(s.matrix, v)
        scale = float(inequality_scale(s.matrix.full(), v))
        assert rec.residual_direct <= 1e-9 * scale

    def test_rejects_positive_definite(self):
        with pytest.raises(PreconditionError):
            negative_semidefinite_inequality(SymmetricMatrix.identity(3), np.ones(3))

    def test_one_decomposition(self, monkeypatch):
        calls = []
        real = matineq.jacobi_eigh

        def counted(a):
            calls.append(1)
            return real(a)

        monkeypatch.setattr(matineq, "jacobi_eigh", counted)
        rec = negative_semidefinite_inequality(
            SymmetricMatrix.from_full(-np.eye(4)), [1.0, 0.0, 0.0, 0.0])
        assert rec.matrix_sign == "negative"
        assert len(calls) == 1

    def test_precondition_before_probe_and_residual(self, monkeypatch):
        def no_residual(*args):
            raise AssertionError("residual checked before the precondition")

        monkeypatch.setattr(matineq, "_check_record", no_residual)
        with pytest.raises(PreconditionError):
            negative_semidefinite_inequality(SymmetricMatrix.identity(3), np.ones(2))


class TestContractionScalars:
    def test_diagonal_case(self):
        cs = contraction_scalars(SymmetricMatrix.from_diag([1.0, 2.0, 3.0, 4.0]),
                                 np.ones(4))
        assert (cs.r, cs.s, cs.q, cs.t) == pytest.approx((4.0, 10.0, 10.0, 30.0))

    def test_identity_matrix(self):
        rng = np.random.default_rng(2)
        v = rng.standard_normal(5)
        cs = contraction_scalars(SymmetricMatrix.identity(5), v)
        assert cs.q == pytest.approx(cs.r)
        assert cs.t == pytest.approx(cs.r)

    def test_zero_vector(self):
        cs = contraction_scalars(SymmetricMatrix.from_diag([1.0, -2.0, 3.0]), np.zeros(3))
        assert cs.r == 0.0 and cs.q == 0.0 and cs.t == 0.0

    def test_cauchy_schwarz_invariant(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            n = int(rng.integers(2, 9))
            g = rng.standard_normal((n, n))
            a = SymmetricMatrix.from_full((g + g.T) / 2)
            v = rng.standard_normal(n)
            cs = contraction_scalars(a, v)
            assert cs.r >= 0 and cs.t >= 0
            assert cs.q**2 <= cs.r * cs.t * (1 + 1e-12) + 1e-12


class TestComposedFunctional:
    def test_identity_transform_dimension_three(self):
        ev = TransformEval(u_value=0.0, U_prime=1.0, U_second=0.0, monotone="increasing")
        m_direct, m_factored = composed_hessian_functional(
            SymmetricMatrix.identity(3), np.array([0.3, -0.1, 0.7]), ev)
        assert m_direct == pytest.approx(0.0, abs=1e-12)
        assert m_factored == pytest.approx(0.0, abs=1e-12)

    def test_dimension_three_always_vanishes(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            g = rng.standard_normal((3, 3))
            a = (g + g.T) / 2
            v = rng.standard_normal(3)
            up, us = rng.uniform(0.3, 2.0), rng.uniform(-1.0, 1.0)
            hess = SymmetricMatrix.from_full(up * a + us * np.outer(v, v))
            ev = TransformEval(u_value=-1.0, U_prime=up, U_second=us, monotone="increasing")
            m_direct, _ = composed_hessian_functional(hess, v, ev)
            scale = float(inequality_scale(hess.full(), v))
            assert abs(m_direct) <= 1e-10 * scale

    @pytest.mark.parametrize("u_second", [0.25, -0.25])
    def test_square_root_transform_composition(self, u_second):
        # hess = U' I4 + U'' e1 e1^T factors as U'^3 times the base functional,
        # which equals -2 for (I4, e1); the second-derivative term drops out.
        v = np.array([1.0, 0.0, 0.0, 0.0])
        hess = SymmetricMatrix.from_full(0.5 * np.eye(4) + u_second * np.outer(v, v))
        ev = TransformEval(u_value=-1.0, U_prime=0.5, U_second=u_second,
                           monotone="increasing")
        m_direct, m_factored = composed_hessian_functional(hess, v, ev)
        assert m_factored == pytest.approx(0.5**3 * -2.0)
        assert m_direct == pytest.approx(-0.25)

    def test_base_functional_is_minus_inequality_residual(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            n = int(rng.integers(2, 9))
            g = rng.standard_normal((n, n))
            a = SymmetricMatrix.from_full((g + g.T) / 2)
            v = rng.standard_normal(n)
            rec = comatrix_inequality(a, v)
            m = float(comatrix_functional(a.full(), v))
            assert m == pytest.approx(-rec.residual_direct, rel=1e-9, abs=1e-9)

    def test_singular_transform_rejected(self):
        ev = TransformEval(u_value=0.0, U_prime=1e-12, U_second=0.0, monotone="increasing")
        with pytest.raises(SingularTransformError):
            composed_hessian_functional(SymmetricMatrix.identity(4), np.ones(4), ev)

    def test_monotone_consistency_enforced(self):
        with pytest.raises(InputError):
            TransformEval(u_value=0.0, U_prime=-1.0, U_second=0.0, monotone="increasing")
        with pytest.raises(InputError):
            TransformEval(u_value=0.0, U_prime=1.0, U_second=0.0, monotone="decreasing")

    def test_decreasing_transform_flips_sign(self):
        # For a positive semidefinite base and U' < 0 the factored value is
        # -|U'|^3 times a nonpositive quantity, hence nonnegative.
        rng = np.random.default_rng(6)
        for _ in range(50):
            n = int(rng.integers(4, 9))
            a, v_all, _, _ = sample_batch(int(rng.integers(1000)), n, "positive", 1.0, 1)
            v = v_all[0]
            up, us = -0.7, 0.3
            hess = SymmetricMatrix.from_full(up * a[0] + us * np.outer(v, v))
            ev = TransformEval(u_value=-1.0, U_prime=up, U_second=us, monotone="decreasing")
            _, m_factored = composed_hessian_functional(hess, v, ev)
            scale = float(inequality_scale(a[0], v))
            assert m_factored >= -1e-9 * scale


class TestExpansionCoefficients:
    def test_identity_base(self):
        co = expansion_coefficients(SymmetricMatrix.identity(4), [1.0, 0.0, 0.0, 0.0])
        assert co.m30 == pytest.approx(-2.0)
        assert abs(co.m21) <= 1e-8 * 2.0
        assert abs(co.m12) <= 1e-8 * 2.0
        assert abs(co.m03) <= 1e-8 * 2.0

    def test_zero_gradient(self):
        co = expansion_coefficients(SymmetricMatrix.from_diag([1.0, 2.0, 3.0, 4.0]),
                                    np.zeros(4))
        assert (co.m30, co.m21, co.m12, co.m03) == (0.0, 0.0, 0.0, 0.0)

    def test_dimension_three_all_vanish(self):
        rng = np.random.default_rng(7)
        for _ in range(25):
            g = rng.standard_normal((3, 3))
            a = SymmetricMatrix.from_full((g + g.T) / 2)
            co = expansion_coefficients(a, rng.standard_normal(3))
            assert abs(co.m30) <= 1e-8

    def test_mixed_coefficients_vanish_randomly(self):
        rng = np.random.default_rng(8)
        for _ in range(50):
            n = int(rng.integers(2, 9))
            g = rng.standard_normal((n, n))
            a = SymmetricMatrix.from_full((g + g.T) / 2)
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
        with pytest.raises(InputError, match="overflows"):
            inequality_campaign(seed=1, dims=(4,), count=5, sign="positive", scale=1e200)

    @pytest.mark.parametrize("sign", ["positive", "negative", "indefinite"])
    def test_underflowing_scale_rejected(self, sign):
        # At 1e-200 every |A|_F^3 |v|^2 underflows to zero, so every residual
        # and its discrepancy would read 0 and every check would pass.
        with pytest.raises(InputError, match="underflows"):
            inequality_campaign(seed=1, dims=(2, 4), count=50, sign=sign, scale=1e-200)

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

    def test_factorization_campaign(self):
        worst = factorization_campaign(seed=3, count=2000)
        assert worst <= 1e-8
