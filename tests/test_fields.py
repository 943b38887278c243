import numpy as np
import pytest

from conftest import identity_transform
from hess2.errors import HypothesisError, InputError
from hess2.fields import (
    ball_quadratic_field,
    convexity_scan,
    euler_identity_gap,
    gaussian_bump_field,
    levelset_curvature_probe,
    philippin_safoui_gap,
    quadratic_field,
    radial_power_field,
    saddle_quartic_field,
    sample_points_in_ball,
    standard_menagerie,
    transform_hessian,
)
from hess2.symmat import eigenvalues, householder_q
from hess2.transforms import (
    negative_log_transform,
    negative_power_transform,
    negative_sqrt_transform,
)
from oracles import finite_difference_consistency

A3 = 1.0 / (2.0 * np.sqrt(3.0))  # amplitude of the unit-ball reference field


class TestEvaluators:
    @pytest.mark.parametrize("dim", [2, 3, 4, 6])
    def test_finite_difference_consistency(self, dim):
        pts = sample_points_in_ball(seed=0, dim=dim, count=15, radius=0.9,
                                    min_radius=0.2)
        for fld in standard_menagerie(dim):
            worst = finite_difference_consistency(fld, pts)
            assert worst <= 1e-6

    def test_quadratic_exact(self):
        fld = quadratic_field(np.diag([1.0, 2.0, 3.0]))
        x = np.array([0.5, -0.5, 1.0])
        assert fld.u(x) == pytest.approx(0.5 * (0.25 + 0.5 + 3.0))
        np.testing.assert_allclose(fld.hess(x), np.diag([1.0, 2.0, 3.0]))


def _rowwise(stacked, one_point, points):
    """Assert that a stack evaluation equals per-point evaluations row by row."""
    for x, row in zip(points, stacked):
        np.testing.assert_allclose(row, one_point(x), rtol=1e-14, atol=0.0)


class TestStacks:
    @pytest.mark.parametrize("dim", [2, 3, 4, 5, 6])
    def test_stack_matches_points(self, dim):
        # The origin is r = 0 of both radial-power members (powers 2 and 4).
        pts = np.vstack([np.zeros(dim),
                         sample_points_in_ball(seed=12, dim=dim, count=40, radius=1.1)])
        for fld in standard_menagerie(dim):
            for fn in (fld.u, fld.grad, fld.hess,
                       lambda x: euler_identity_gap(fld, x),
                       lambda x: philippin_safoui_gap(fld, x)):
                _rowwise(fn(pts), fn, pts)

    @pytest.mark.parametrize("power", [2.0, 4.0])
    def test_radial_origin(self, power):
        fld = radial_power_field(3, 0.5, power)
        expect = np.eye(3) if power == 2.0 else np.zeros((3, 3))
        np.testing.assert_array_equal(fld.hess(np.zeros((2, 3))), [expect, expect])
        np.testing.assert_array_equal(fld.grad(np.zeros(3)), np.zeros(3))

    def test_amplitude_array(self):
        rng = np.random.default_rng(3)
        amps = rng.uniform(0.1, 1.0, size=30)
        pts = sample_points_in_ball(seed=4, dim=3, count=30, radius=1.2, min_radius=0.2)
        stacked = ball_quadratic_field(3, amps)
        values = {fn: getattr(stacked, fn)(pts) for fn in ("u", "grad", "hess")}
        probe = levelset_curvature_probe(stacked, pts)
        for k, (a, x) in enumerate(zip(amps, pts)):
            fld = ball_quadratic_field(3, a)
            for fn, stack in values.items():
                np.testing.assert_allclose(stack[k], getattr(fld, fn)(x), rtol=1e-14, atol=0.0)
            one = levelset_curvature_probe(fld, x)
            for name in ("grad_norm", "s2_value", "lhs_334", "h2_extracted",
                         "s2_kappa_geometric"):
                assert getattr(probe, name)[k] == pytest.approx(getattr(one, name), rel=1e-14)

    @pytest.mark.parametrize("dim", [2, 3, 4, 5, 6])
    def test_probe_point_matches_its_stack_row(self, dim):
        # Bit for bit: a one-point probe works on float64 scalars, a stack on arrays.
        amps = np.random.default_rng(dim).uniform(0.1, 1.0, size=60)
        pts = sample_points_in_ball(seed=20 + dim, dim=dim, count=60, radius=1.2,
                                    min_radius=0.2)
        fields = [(fld, lambda k, fld=fld: fld) for fld in standard_menagerie(dim)]
        fields.append((ball_quadratic_field(dim, amps),
                       lambda k: ball_quadratic_field(dim, amps[k])))
        for stacked, one_field in fields:
            probe = levelset_curvature_probe(stacked, pts)
            for k, x in enumerate(pts):
                one = levelset_curvature_probe(one_field(k), x)
                for name in ("grad_norm", "s2_value", "lhs_334", "h2_extracted",
                             "s2_kappa_geometric"):
                    assert getattr(probe, name)[k] == getattr(one, name), (name, k)

    def test_probe_stack_with_a_critical_point(self):
        fld = ball_quadratic_field(3, 1.0)
        pts = sample_points_in_ball(seed=5, dim=3, count=10, radius=1.0, min_radius=0.2)
        pts[6] = 0.0
        with pytest.raises(InputError, match="too close to a critical point"):
            levelset_curvature_probe(fld, pts)


class TestEulerIdentityGap:
    def test_diagonal_quadratic(self):
        fld = quadratic_field(np.diag([1.0, 2.0, 3.0]))
        assert euler_identity_gap(fld, [0.2, 0.1, 0.4]) == pytest.approx(0.0, abs=1e-12)

    def test_isotropic_quadratic_any_dim(self):
        for dim in (2, 3, 4, 5):
            fld = quadratic_field(np.eye(dim))
            assert euler_identity_gap(fld, np.full(dim, 0.3)) == pytest.approx(0.0, abs=1e-12)

    def test_gaussian_bump_seeded_points(self):
        fld = gaussian_bump_field(3, -1.0, 0.7)
        for x in sample_points_in_ball(seed=5, dim=3, count=100, radius=1.5):
            assert abs(euler_identity_gap(fld, x)) <= 1e-10

    @pytest.mark.parametrize("dim", [2, 3, 4, 5, 6])
    def test_all_families_all_dims(self, dim):
        pts = sample_points_in_ball(seed=1, dim=dim, count=25, radius=0.9,
                                    min_radius=0.1)
        for fld in standard_menagerie(dim):
            for x in pts:
                euler_identity_gap(fld, x)  # raises beyond tolerance


class TestLevelsetCurvature:
    def test_radial_ball_closed_form(self):
        # u = a(|x|^2 - 1) in R^3: extracted curvature is 2a/r; at r = 1 the
        # contraction term is 32 a^4 and the extracted value 2a.
        fld = ball_quadratic_field(3, A3)
        x = np.array([1.0, 0.0, 0.0])
        probe = levelset_curvature_probe(fld, x)
        assert probe.lhs_334 == pytest.approx(32.0 * A3**4)
        assert probe.lhs_334 == pytest.approx(2.0 / 9.0)
        assert probe.h2_extracted == pytest.approx(2.0 * A3)
        assert probe.h2_extracted == pytest.approx(1.0 / np.sqrt(3.0))

    def test_radial_profile_in_r(self):
        fld = ball_quadratic_field(3, A3)
        for r in (0.3, 0.6, 0.9):
            x = np.array([0.0, r, 0.0])
            probe = levelset_curvature_probe(fld, x)
            assert probe.h2_extracted == pytest.approx(2.0 * A3 / r, rel=1e-12)

    def test_sphere_shape_operator_oracle_n4(self):
        # Level sets of the radial field are spheres: S2 of the curvatures is
        # C(dim-1, 2) / r^2, and the extracted value carries an extra |grad u|.
        a = 0.25
        fld = ball_quadratic_field(4, a)
        x = np.array([1.0, 0.0, 0.0, 0.0])
        probe = levelset_curvature_probe(fld, x)
        assert probe.s2_kappa_geometric == pytest.approx(3.0, rel=1e-10)
        assert probe.h2_extracted == pytest.approx(probe.grad_norm * 3.0, rel=1e-10)

    def test_convention_factor_is_gradient_norm(self):
        rng = np.random.default_rng(2)
        for _ in range(25):
            a = rng.uniform(0.1, 1.0)
            fld = ball_quadratic_field(3, a)
            x = sample_points_in_ball(seed=int(rng.integers(1000)), dim=3,
                                      count=1, radius=1.2, min_radius=0.3)[0]
            probe = levelset_curvature_probe(fld, x)
            fit = probe.h2_extracted / (probe.grad_norm * probe.s2_kappa_geometric)
            assert fit == pytest.approx(1.0, rel=1e-8)

    def test_planar_extraction_vanishes(self):
        # In the plane the comatrix is det(H) I, so the extracted value is
        # identically zero whatever the field.
        fld = saddle_quartic_field()
        for x in sample_points_in_ball(seed=3, dim=2, count=50, radius=1.0,
                                       min_radius=0.3):
            probe = levelset_curvature_probe(fld, x)
            scale = 1.0 + abs(probe.s2_value) * probe.grad_norm**2
            assert abs(probe.h2_extracted) * probe.grad_norm**3 <= 1e-10 * scale

    def test_critical_point_rejected(self):
        fld = ball_quadratic_field(3, 1.0)
        with pytest.raises(InputError, match="too close to a critical point"):
            levelset_curvature_probe(fld, np.zeros(3))

    def test_mean_curvature_anchor(self):
        # First-order anchor: contracting the S2 cofactor with grad (x) grad
        # equals H1 |grad u|^3 with H1 = 2/r, the level-sphere mean curvature.
        rng = np.random.default_rng(9)
        for _ in range(25):
            a = rng.uniform(0.1, 1.0)
            fld = ball_quadratic_field(3, a)
            x = sample_points_in_ball(int(rng.integers(1000)), 3, 1,
                                      radius=1.1, min_radius=0.2)[0]
            r = np.linalg.norm(x)
            g = fld.grad(x)
            h = fld.hess(x)
            s2ij = np.trace(h) * np.eye(3) - h
            contraction = float(g @ s2ij @ g)
            expect = (2.0 / r) * np.linalg.norm(g) ** 3
            assert contraction == pytest.approx(expect, rel=1e-10)


class TestCurvatureClosedForm:
    @pytest.mark.parametrize("dim", [2, 3, 4, 5, 6])
    def test_matches_the_tangent_basis_route(self, dim):
        # Reference: S2 of the eigenvalues of T^T H T / |g|, with T the last d-1
        # columns of Q in the QR of [n, 0, ..., 0] (an orthonormal basis of n^perp).
        # Tolerance 1e-13 (1 + |H|_F^2 / |g|^2), the size of S2(kappa) (measured
        # below 3e-15 of it).
        pts = sample_points_in_ball(seed=5, dim=dim, count=200, radius=0.9, min_radius=0.2)
        for fld in standard_menagerie(dim):
            g, h = fld.grad(pts), fld.hess(pts)
            gnorm = np.linalg.norm(g, axis=-1)
            normals = np.zeros((dim, dim, len(pts)))
            normals[:, 0] = (g / gnorm[:, None]).T
            tangent = householder_q(normals)[:, 1:].transpose(2, 0, 1)
            kappa = eigenvalues(np.swapaxes(tangent, -1, -2) @ h @ tangent / gnorm[:, None, None])
            expect = 0.5 * (np.sum(kappa, axis=-1) ** 2 - np.sum(kappa * kappa, axis=-1))
            got = levelset_curvature_probe(fld, pts).s2_kappa_geometric
            scale = 1.0 + np.linalg.norm(h, axis=(-2, -1)) ** 2 / gnorm ** 2
            assert np.all(np.abs(got - expect) <= 1e-13 * scale), fld.family


class TestPhilippinSafoui:
    def test_radial_closed_form(self):
        # gap = 16 a^4 r^2 for u = a(|x|^2 - 1) in R^3.
        fld = ball_quadratic_field(3, A3)
        for r in (0.25, 0.5, 1.0):
            x = np.array([r, 0.0, 0.0])
            assert philippin_safoui_gap(fld, x) == pytest.approx(16.0 * A3**4 * r**2)

    def test_zero_gradient_point(self):
        fld = ball_quadratic_field(3, A3)
        assert philippin_safoui_gap(fld, np.zeros(3)) == pytest.approx(0.0)

    def test_nonnegative_on_convex_quadratics(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            dim = int(rng.integers(2, 6))
            g = rng.standard_normal((dim, dim))
            fld = quadratic_field(g @ g.T + 0.1 * np.eye(dim))
            for x in sample_points_in_ball(seed=int(rng.integers(1000)),
                                           dim=dim, count=50, radius=1.0):
                h = fld.hess(x)
                scale = 1.0 + np.linalg.norm(h) ** 2 * (1.0 + float(x @ x))
                assert philippin_safoui_gap(fld, x) >= -1e-9 * scale


class TestTransformHessian:
    def test_identity_transform(self):
        fld = ball_quadratic_field(2, 0.5)
        x = np.array([0.3, 0.1])
        np.testing.assert_allclose(transform_hessian(fld, identity_transform(), x),
                                   fld.hess(x))

    def test_negative_sqrt_at_reference_point(self):
        # U(t) = -sqrt(-t): U'(-1) = 1/2, U''(-1) = +1/4, so for D^2 u = I2 and
        # grad u = e1 the composed Hessian is diag(3/4, 1/2).
        fld = quadratic_field(np.eye(2), b=[1.0, 0.0], c=-1.0)
        x = np.zeros(2)
        assert fld.u(x) == -1.0
        np.testing.assert_allclose(fld.grad(x), [1.0, 0.0])
        composed = transform_hessian(fld, negative_sqrt_transform(), x)
        np.testing.assert_allclose(composed, np.diag([0.75, 0.5]), atol=1e-14)

    def test_negative_log_zero_gradient(self):
        fld = quadratic_field(np.eye(2), c=-1.0)
        x = np.zeros(2)
        composed = transform_hessian(fld, negative_log_transform(), x)
        np.testing.assert_allclose(composed, np.eye(2), atol=1e-14)

    def test_finite_difference_of_composition(self):
        fld = ball_quadratic_field(3, 0.4)
        tr = negative_sqrt_transform()
        x = np.array([0.3, -0.2, 0.1])
        composed = transform_hessian(fld, tr, x)
        h = 1e-4
        fd = np.zeros((3, 3))
        for i in range(3):
            for j in range(3):
                ei, ej = np.zeros(3), np.zeros(3)
                ei[i], ej[j] = h, h
                fd[i, j] = (tr.u(fld.u(x + ei + ej)) - tr.u(fld.u(x + ei - ej))
                            - tr.u(fld.u(x - ei + ej)) + tr.u(fld.u(x - ei - ej))) / (4 * h * h)
        np.testing.assert_allclose(composed, fd, rtol=1e-6, atol=1e-6)

    def test_domain_violation(self):
        fld = quadratic_field(np.eye(2), c=1.0)  # u(0) = 1 > 0
        with pytest.raises(HypothesisError, match="outside the open domain"):
            transform_hessian(fld, negative_sqrt_transform(), np.zeros(2))


class TestConvexityScan:
    def test_unit_disk_identity(self):
        fld = ball_quadratic_field(2, 0.5)
        pts = sample_points_in_ball(seed=6, dim=2, count=200, radius=0.99)
        report = convexity_scan(fld, identity_transform(), pts)
        assert report.convex
        assert report.min_eigenvalue == pytest.approx(1.0)

    def test_unit_ball_sqrt_transform(self):
        fld = ball_quadratic_field(3, A3)
        pts = sample_points_in_ball(seed=7, dim=3, count=300, radius=0.98)
        report = convexity_scan(fld, negative_sqrt_transform(), pts)
        assert report.convex

    def test_saddle_is_not_convex(self):
        fld = saddle_quartic_field()
        pts = sample_points_in_ball(seed=8, dim=2, count=100, radius=1.0,
                                    min_radius=0.2)
        report = convexity_scan(fld, identity_transform(), pts)
        assert not report.convex
        assert report.min_eigenvalue < 0

    def test_first_point_wins_a_tie(self):
        # A quadratic field has one Hessian everywhere, so every point ties.
        fld = quadratic_field(np.diag([3.0, 1.0, 2.0]))
        pts = np.array([[0.1, 0.2, 0.3], [0.0, 0.0, 0.0], [-0.5, 0.4, 0.1]])
        report = convexity_scan(fld, identity_transform(), pts)
        np.testing.assert_array_equal(report.argmin_point, pts[0])
        assert report.min_eigenvalue == pytest.approx(1.0)
        assert report.tolerance == pytest.approx(3e-8)
        assert report.n_points == 3

    def test_scale_and_argmin_over_the_batch(self):
        # The least eigenvalue of the saddle's Hessian is smallest at one
        # point; the batch scale is the largest |eigenvalue| over all points.
        fld = saddle_quartic_field()
        pts = np.array([[0.5, 0.5], [1.0, 1.0], [0.2, 0.0]])
        lams = [np.linalg.eigvalsh(fld.hess(x)) for x in pts]
        report = convexity_scan(fld, identity_transform(), pts)
        k = int(np.argmin([lam[0] for lam in lams]))
        np.testing.assert_array_equal(report.argmin_point, pts[k])
        assert report.min_eigenvalue == pytest.approx(lams[k][0], abs=1e-12)
        scale = max(1.0, max(float(np.max(np.abs(lam))) for lam in lams))
        assert report.tolerance == pytest.approx(1e-8 * scale)


class TestTransformPresetDerivatives:
    def test_power_transform_rejects_large_exponent(self):
        with pytest.raises(HypothesisError):
            negative_power_transform(2.5)
        with pytest.raises(HypothesisError):
            negative_power_transform(2.0)

    @pytest.mark.parametrize("make,expect", [
        (negative_sqrt_transform, (-1.0, 0.5, 0.25)),
        (negative_log_transform, (0.0, 1.0, 1.0)),
        (lambda: negative_power_transform(1.0), (-1.0, 0.25, 3.0 / 16.0)),
    ])
    def test_values_at_minus_one(self, make, expect):
        tr = make()
        assert (tr.u(-1.0), tr.du(-1.0), tr.d2u(-1.0)) == pytest.approx(expect)

    @pytest.mark.parametrize("make", [negative_sqrt_transform, negative_log_transform,
                                      lambda: negative_power_transform(0.5),
                                      lambda: negative_power_transform(1.5)])
    def test_derivatives_against_finite_differences(self, make):
        tr = make()
        for t in (-0.25, -1.0, -3.0):
            h1, h2 = 1e-6, 1e-4
            du_fd = (tr.u(t + h1) - tr.u(t - h1)) / (2 * h1)
            d2u_fd = (tr.u(t + h2) - 2 * tr.u(t) + tr.u(t - h2)) / (h2 * h2)
            assert tr.du(t) == pytest.approx(du_fd, rel=1e-8)
            assert tr.d2u(t) == pytest.approx(d2u_fd, rel=1e-4)
            assert tr.du(t) > 0
