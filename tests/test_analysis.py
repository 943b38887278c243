import numpy as np
import pytest

from conftest import (
    audit_bounds,
    cached_eigen,
    cached_grid,
    cached_mask,
    cached_radial,
    elem_sym_from_eigenvalues,
    identity_transform,
    make_source,
)
from hess2.analysis import (
    PFunctionField,
    PFunctionSpec,
    boundary_gradient_samples,
    bounds_report,
    convexity_scan_solution,
    critical_point_report,
    pfunction_field,
    source_integral,
    transform_preset,
    verify_principle,
)
from hess2.errors import HypothesisError, InputError, SolverError
from hess2.fields import ConvexityReport
from hess2.solver import Lattice, ScalarField2D
from hess2.symmat import eigenvalues
from hess2.transforms import CONVEXITY_TOL

SQRT3 = np.sqrt(3.0)


class TestSourceIntegral:
    def test_constant_source(self):
        f = make_source("const")
        u = np.array([-1.0, -0.5, 0.0])
        np.testing.assert_allclose(source_integral(f, 0.5, u), [1.0, 0.5, 0.0],
                                   rtol=1e-12, atol=1e-14)

    def test_eigen_source_cubic(self):
        lam = 2.0
        f = make_source(f"eigen:{lam}")
        u = np.array([-1.5, -1.0, -0.25])
        expect_g1 = lam * (-u) ** 3 / 3.0
        np.testing.assert_allclose(source_integral(f, 1.0, u), expect_g1, rtol=1e-10)
        expect_g05 = np.sqrt(lam) * u**2 / 2.0
        np.testing.assert_allclose(source_integral(f, 0.5, u), expect_g05, rtol=1e-10)

    def test_power_source_closed_form(self):
        for p in (0.5, 1.0, 1.5):
            f = make_source(f"power:1,{p}")
            u = np.array([-0.8, -0.3, -0.01])
            expect = (-u) ** (p + 1.0) / (p + 1.0)
            np.testing.assert_allclose(source_integral(f, 1.0, u), expect, rtol=1e-9)

    def test_positive_values_rejected(self):
        with pytest.raises(InputError):
            source_integral(make_source("const"), 1.0, np.array([0.5]))

    def test_gamma_validation(self):
        with pytest.raises(InputError):
            PFunctionSpec(alpha=1.0, gamma=0.75)
        # A replaced spec is checked as a new one is.
        with pytest.raises(InputError):
            PFunctionSpec(alpha=1.0)._replace(gamma=0.75)
        with pytest.raises(InputError):
            PFunctionSpec(alpha=1.0)._replace(alpha=float("inf"))


class TestPFunctionField:
    def test_radial_closed_form(self):
        prof = cached_radial(3, "const")
        pf = pfunction_field(prof, make_source("const"), PFunctionSpec(alpha=1.0))
        exact = prof.r**2 / 3.0 + (1.0 - prof.r**2) / SQRT3
        assert np.max(np.abs(pf.phi - exact)) <= 1e-10
        assert pf.phi[0] == pytest.approx(1.0 / SQRT3, abs=1e-10)
        assert pf.boundary_phi[0] == pytest.approx(1.0 / 3.0, abs=1e-10)

    def test_radial_critical_alpha_constant(self):
        prof = cached_radial(3, "const")
        pf = pfunction_field(prof, make_source("const"),
                             PFunctionSpec(alpha=1.0 / SQRT3))
        assert np.max(pf.phi) - np.min(pf.phi) <= 1e-6

    def test_disk_equality_case(self):
        sol = cached_grid("disk", "const", 1.0 / 64)
        pf = pfunction_field(sol, make_source("const"), PFunctionSpec(alpha=1.0))
        assert np.max(np.abs(pf.phi - 1.0)) <= 5.0 * (1.0 / 64) ** 2
        assert np.max(np.abs(pf.boundary_phi - 1.0)) <= 5.0 * (1.0 / 64) ** 2

    def test_alpha_monotone_structure(self):
        prof = cached_radial(3, "exp-dec")
        f = make_source("exp-dec")
        pf1 = pfunction_field(prof, f, PFunctionSpec(alpha=1.0))
        pf2 = pfunction_field(prof, f, PFunctionSpec(alpha=2.5))
        diff = pf2.phi - pf1.phi
        expect = 2.0 * (2.5 - 1.0) * pf1.integral
        np.testing.assert_allclose(diff, expect, rtol=1e-12, atol=1e-14)
        assert np.all(diff >= -1e-14)


class TestBoundaryGradient:
    def test_disk_unit_gradient(self):
        sol = cached_grid("disk", "const", 1.0 / 64)
        pts, vals = boundary_gradient_samples(sol)
        assert len(vals) > 100
        assert np.max(np.abs(vals - 1.0)) <= 2e-3

    def test_ellipse_gradient_closed_form(self):
        sol = cached_grid("ellipse", "const", 1.0 / 64)
        pts, vals = boundary_gradient_samples(sol)
        exact = np.sqrt(pts[:, 0] ** 2 / 4.0 + 4.0 * pts[:, 1] ** 2)
        assert np.max(np.abs(vals - exact)) <= 2e-3


class TestVerifyPrinciple:
    def test_radial_minimum_on_boundary(self):
        prof = cached_radial(3, "const")
        pf = pfunction_field(prof, make_source("const"), PFunctionSpec(alpha=1.0))
        v = verify_principle(pf, "min")
        assert v.holds
        assert v.boundary_extreme == pytest.approx(1.0 / 3.0, abs=1e-10)
        assert v.distance_argextreme_to_boundary == 0.0

    def test_constant_field_holds_both_modes(self):
        prof = cached_radial(3, "const")
        pf = pfunction_field(prof, make_source("const"),
                             PFunctionSpec(alpha=1.0 / SQRT3))
        assert verify_principle(pf, "min").holds
        assert verify_principle(pf, "max").holds

    def test_synthetic_interior_extreme(self):
        # phi = -r^2 on [0, 1]: minimum on the boundary, maximum inside.
        r = np.linspace(0.0, 1.0, 101)
        interior = np.ones_like(r, dtype=bool)
        interior[-1] = False
        pf = PFunctionField(alpha=0.0, gamma=0.5, h=0.01, positions=r[:, None], grad_sq=-r**2,
                            integral=np.zeros_like(r), interior=interior,
                            boundary_positions=np.array([[1.0]]),
                            boundary_grad_sq=np.array([-1.0]),
                            distance_to_boundary=lambda pts: 1.0 - np.abs(pts[:, 0]))
        assert verify_principle(pf, "min").holds
        vmax = verify_principle(pf, "max")
        assert not vmax.holds
        assert vmax.distance_argextreme_to_boundary == pytest.approx(1.0)

    def test_mode_validation(self):
        prof = cached_radial(3, "const")
        pf = pfunction_field(prof, make_source("const"), PFunctionSpec(alpha=1.0))
        with pytest.raises(InputError):
            verify_principle(pf, "saddle")


class TestAlphaGrids:
    """Planar verdict grids measured on the solved unit disk."""

    def _margins(self, sol, fkey, alphas, mode):
        f = make_source(fkey)
        out = {}
        for alpha in alphas:
            pf = pfunction_field(sol, f, PFunctionSpec(alpha=alpha))
            out[alpha] = verify_principle(pf, mode)
        return out

    def test_max_mode_nondecreasing_sources(self):
        for fkey in ("const", "exp-inc"):
            sol = cached_grid("disk", fkey, 1.0 / 64)
            verdicts = self._margins(sol, fkey, [-2.0, -1.0, 0.0, 0.5, 1.0], "max")
            assert all(v.holds for v in verdicts.values())

    def test_min_mode_nonincreasing_sources_alpha_above_one(self):
        for fkey in ("const", "exp-dec"):
            sol = cached_grid("disk", fkey, 1.0 / 64)
            verdicts = self._margins(sol, fkey, [1.0, 1.5, 2.0], "min")
            assert all(v.holds for v in verdicts.values())

    def test_min_mode_fails_for_negative_alpha(self):
        # With alpha < 0 the field is negative at the critical point of u but
        # nonnegative on the boundary, so a boundary minimum is impossible;
        # the interior failure margin is order one.
        sol = cached_grid("disk", "const", 1.0 / 64)
        verdicts = self._margins(sol, "const", [-1.0, -0.5], "min")
        for v in verdicts.values():
            assert not v.holds
            assert v.margin < -0.5
            assert v.distance_argextreme_to_boundary > 0.5

    def test_radial_max_mode_at_critical_alpha(self):
        # At alpha = (N(N-1)/2)^(-1/2) the maximum sits on the boundary for
        # nondecreasing sources.
        alpha_star = 1.0 / SQRT3
        for fkey in ("const", "exp-inc"):
            prof = cached_radial(3, fkey)
            f = make_source(fkey)
            pf = pfunction_field(prof, f, PFunctionSpec(alpha=alpha_star))
            assert verify_principle(pf, "max").holds


class TestTransformPreset:
    def test_preset_values(self):
        for tr, expect in ((transform_preset(1), (-1.0, 0.5, 0.25)),
                           (transform_preset(2), (0.0, 1.0, 1.0)),
                           (transform_preset(3, 1.0), (-1.0, 0.25, 3.0 / 16.0))):
            assert (tr.u(-1.0), tr.du(-1.0), tr.d2u(-1.0)) == pytest.approx(expect)

    def test_large_exponent_rejected(self):
        with pytest.raises(HypothesisError):
            transform_preset(3, 2.5)

    def test_missing_exponent(self):
        with pytest.raises(InputError):
            transform_preset(3)

    def test_unknown_application(self):
        with pytest.raises(InputError):
            transform_preset(7)


class TestComposedHessian:
    @pytest.mark.parametrize("app", [1, 2, 3])
    def test_one_formula_bit_for_bit(self, app):
        tr = transform_preset(app, 0.5)
        rng = np.random.default_rng(app)
        u = -rng.uniform(0.01, 2.0, size=40)
        g = rng.standard_normal((40, 3))
        a = rng.standard_normal((40, 3, 3))
        h = a + np.swapaxes(a, -1, -2)
        expect = (tr.du(u)[:, None, None] * h
                  + tr.d2u(u)[:, None, None] * (g[:, :, None] * g[:, None, :]))
        assert np.array_equal(tr.composed_hessian(u, g, h), expect)

    @pytest.mark.parametrize("app", [1, 2, 3])
    def test_raises_outside_the_domain(self, app):
        tr = transform_preset(app, 0.5)
        for bad in (0.0, 0.3):
            with pytest.raises(HypothesisError, match="outside the open domain"):
                tr.composed_hessian(np.array([-1.0, bad]), np.ones((2, 2)), np.ones((2, 2, 2)))


class TestConvexityScanSolution:
    def test_radial_constant_with_sqrt_transform(self):
        scan = convexity_scan_solution(cached_radial(3, "const"), transform_preset(1))
        assert scan.convex

    def test_eigen_with_log_transform(self):
        _, prof = cached_eigen(1.0)
        scan = convexity_scan_solution(prof, transform_preset(2))
        assert scan.convex

    def test_power_solutions_with_power_transform(self):
        for p in (0.5, 1.0, 1.5):
            prof = cached_radial(3, f"power:1,{p}")
            scan = convexity_scan_solution(prof, transform_preset(3, p))
            assert scan.convex

    def test_power_solution_not_convex_untransformed(self):
        # The power-source solutions bend concavely near the boundary, where
        # the equation degenerates; only the transformed composition is convex.
        prof = cached_radial(3, "power:1,1.5")
        scan = convexity_scan_solution(prof, identity_transform())
        assert not scan.convex

    def test_grid_identity_convex(self):
        scan = convexity_scan_solution(cached_grid("disk", "exp-dec", 1.0 / 64),
                                       identity_transform())
        assert scan.convex

    @pytest.mark.parametrize("kind", ["radial", "ellipse"])
    def test_tolerance_is_the_spectral_scale_of_the_composed_blocks(self, kind):
        # One rule for every scan: CONVEXITY_TOL * max(1, max |lambda|) over the
        # composed blocks of the interior nodes.  Radial blocks are diagonal, so
        # there it is the largest |entry| too, bit for bit; planar blocks are not.
        sol = (cached_radial(3, "exp-dec") if kind == "radial"
               else cached_grid("ellipse", "exp-dec", 1.0 / 64))
        tr, inner = transform_preset(1), sol.interior
        composed = tr.composed_hessian(sol.u[inner], sol.gradient()[inner],
                                       sol.hessian()[inner])
        spectral = max(1.0, float(np.max(np.abs(eigenvalues(composed)))))
        entries = max(1.0, float(np.max(np.abs(composed))))
        scan = convexity_scan_solution(sol, tr)
        assert scan.tolerance == CONVEXITY_TOL * spectral
        assert (spectral == entries) == (kind == "radial")


class TestBoundsReports:
    def test_application1_radial(self):
        rep = audit_bounds(cached_radial(3, "const"), make_source("const"), 1)
        assert rep.hypothesis_ok and rep.holds
        assert rep.lhs == pytest.approx(1.0 / SQRT3, abs=1e-8)
        assert rep.rhs == pytest.approx(1.0 / 3.0, abs=1e-8)
        assert rep.slack == pytest.approx(1.0 / SQRT3 - 1.0 / 3.0, abs=1e-8)
        assert rep.pointwise_min_slack >= -1e-6

    def test_application1_disk_equality(self):
        rep = audit_bounds(cached_grid("disk", "const", 1.0 / 64),
                           make_source("const"), 1)
        assert rep.holds
        assert abs(rep.slack) <= 5.0 * (1.0 / 64) ** 2
        assert rep.pointwise_min_slack >= -1e-6

    def test_application2_both_conventions(self):
        lam, prof = cached_eigen(1.0)
        f = make_source(f"eigen:{lam}")
        for gamma in (0.5, 1.0):
            rep = audit_bounds(prof, f, 2, gamma=gamma)
            assert rep.hypothesis_ok and rep.holds
            assert rep.slack >= -1e-6
        rep1 = audit_bounds(prof, f, 2, gamma=1.0)
        assert rep1.lhs == pytest.approx((2.0 / 3.0) * lam, rel=1e-8)

    def test_application2_normalization_covariance(self):
        # Doubling the eigenfunction keeps the eigenvalue; the rooted-integral
        # bound scales covariantly (slack and both sides pick up the same
        # factor 4), so its verdict is normalization-independent.  The plain
        # convention scales lhs by 8 and rhs by 4.
        lam, prof = cached_eigen(1.0)
        f = make_source(f"eigen:{lam}")
        doubled = prof._replace(u=2.0 * prof.u, up=2.0 * prof.up)
        base = audit_bounds(prof, f, 2, gamma=0.5)
        scaled = audit_bounds(doubled, f, 2, gamma=0.5)
        assert scaled.lhs == pytest.approx(4.0 * base.lhs, rel=1e-9)
        assert scaled.rhs == pytest.approx(4.0 * base.rhs, rel=1e-9)
        assert scaled.slack == pytest.approx(4.0 * base.slack, rel=1e-9)
        assert scaled.holds == base.holds
        plain = audit_bounds(doubled, f, 2, gamma=1.0)
        plain_base = audit_bounds(prof, f, 2, gamma=1.0)
        assert plain.lhs == pytest.approx(8.0 * plain_base.lhs, rel=1e-9)

    @pytest.mark.parametrize("p", [0.5, 1.0, 1.5])
    def test_application3_sqrt_convention_holds(self, p):
        prof = cached_radial(3, f"power:1,{p}")
        rep = audit_bounds(prof, make_source(f"power:1,{p}"), 3, p=p, gamma=0.5)
        assert rep.hypothesis_ok and rep.holds
        assert rep.lhs == pytest.approx(
            4.0 / (p + 2.0) * (-prof.u_min) ** ((p + 2.0) / 2.0), rel=1e-8)

    def test_application3_plain_convention_measured(self):
        # The un-rooted convention only survives at p = 0.5; for larger p the
        # inequality fails outright on the solved profiles.
        expectations = {0.5: True, 1.0: False, 1.5: False}
        for p, should_hold in expectations.items():
            prof = cached_radial(3, f"power:1,{p}")
            rep = audit_bounds(prof, make_source(f"power:1,{p}"), 3, p=p, gamma=1.0)
            assert rep.hypothesis_ok
            assert rep.holds == should_hold
            if not should_hold:
                assert rep.slack < -1e-6

    def test_nonconvex_scan_fails_hypothesis(self):
        prof, f = cached_radial(3, "const"), make_source("const")
        pf = pfunction_field(prof, f, PFunctionSpec(alpha=1.0))
        scan = ConvexityReport(transform_name="-sqrt(-t)", n_points=1, min_eigenvalue=-1.0,
                               argmin_point=np.zeros(1), convex=False, tolerance=1e-9)
        rep = bounds_report(pf, scan, f, 1)
        assert not rep.hypothesis_ok and not rep.holds
        assert rep.transform_name == scan.transform_name
        assert rep.slack >= -1e-6  # the bound itself is met; the hypothesis is not

    def test_nondecreasing_source_fails_hypothesis(self):
        prof, f = cached_radial(3, "exp-inc"), make_source("exp-inc")
        pf = pfunction_field(prof, f, PFunctionSpec(alpha=1.0))
        scan = convexity_scan_solution(prof, transform_preset(1))
        assert scan.convex and not f.nonincreasing
        rep = bounds_report(pf, scan, f, 1)
        assert not rep.hypothesis_ok and not rep.holds
        assert rep.transform_name == scan.transform_name

    def test_pointwise_bound_every_interior_node(self):
        for key, maker in (("radial", lambda: cached_radial(3, "const")),
                           ("disk", lambda: cached_grid("disk", "const", 1.0 / 64))):
            rep = audit_bounds(maker(), make_source("const"), 1)
            assert rep.pointwise_min_slack >= -1e-6, key


class TestCriticalPointReport:
    def test_radial_isotropic_saturation(self):
        cp = critical_point_report(cached_radial(3, "const"), make_source("const"))
        assert cp.spectrum_positive
        assert cp.max_ratio == pytest.approx(cp.binom_bound, abs=1e-6)
        assert cp.binom_bound == pytest.approx(1.0 / SQRT3)
        assert cp.s2_value == pytest.approx(1.0, abs=1e-6)

    def test_disk_saturation(self):
        cp = critical_point_report(cached_grid("disk", "const", 1.0 / 64),
                                   make_source("const"))
        assert cp.max_ratio == pytest.approx(1.0, abs=1e-4)
        assert cp.binom_bound == 1.0
        assert cp.spectrum_positive

    def test_ellipse_consistency(self):
        cp = critical_point_report(cached_grid("ellipse", "const", 1.0 / 64),
                                   make_source("const"))
        assert cp.s2_value == pytest.approx(1.0, abs=5e-3)
        assert cp.spectrum_positive
        # Hessian at the center is diag(1/2, 2) for u = x^2/4 + y^2 - 1.
        np.testing.assert_allclose(cp.hessian_spectrum, [0.5, 2.0], atol=1e-6)

    def test_radial_spectrum_has_every_direction(self):
        # The tangent axis stands for N - 1 directions: five eigenvalues in R^5,
        # each sqrt(C(5, 2))^-1 for the constant source.
        cp = critical_point_report(cached_radial(5, "const"), make_source("const"))
        assert cp.hessian_spectrum.shape == (5,)
        np.testing.assert_allclose(cp.hessian_spectrum, 10.0 ** -0.5, rtol=1e-6)
        assert cp.binom_bound == pytest.approx(10.0 ** -0.5)
        # S2 from the frame block's kernel is the closed form on the full spectrum.
        assert cp.s2_value == pytest.approx(
            elem_sym_from_eigenvalues(cp.hessian_spectrum, 2), rel=1e-12)

    def test_separated_equal_minima_rejected(self):
        mask = cached_mask("ellipse", 1.0 / 16)
        xy = mask.node_xy
        u = np.full(mask.n_inside, -0.5)
        u[np.argmin(np.linalg.norm(xy - [1.0, 0.0], axis=1))] = -1.0
        u[np.argmin(np.linalg.norm(xy + [1.0, 0.0], axis=1))] = -1.0
        with pytest.raises(SolverError, match="separated minima"):
            critical_point_report(ScalarField2D(lattice=Lattice(mask), u=u), make_source("const"))
