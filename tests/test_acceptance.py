"""Release gates: every check below runs at its frozen tolerance.

Run with `pytest tests/test_acceptance.py -v -s` to see one line per gate.
Three sub-checks are marked strict-xfail because the stated target is
mathematically unattainable; each has a passing companion that pins the
corrected value and a note explaining the discrepancy:

* G10: the first-eigenvalue ratio between the radius-2 and radius-1 balls is
  1/16 (the operator scales as R^-4 under x -> x/R), not 1/4.
* G09: a boundary minimum of the auxiliary field is impossible for alpha < 0
  (the field is negative at the critical point, nonnegative on the boundary).
* G11: the un-rooted integral convention of the power-family bound fails for
  p in {1.0, 1.5}; the square-rooted convention holds for all p tested.
"""

import math
import time

import numpy as np
import pytest

from conftest import audit_bounds, cached_eigen, cached_grid, cached_radial, make_source
from hess2.analysis import (
    convexity_scan_solution,
    critical_point_report,
    pfunction_field,
    transform_preset,
    verify_principle,
)
from hess2.errors import HypothesisError
from hess2.fields import (
    ball_quadratic_field,
    euler_identity_gap,
    levelset_curvature_probe,
    philippin_safoui_gap,
    sample_points_in_ball,
    standard_menagerie,
)
from hess2.matineq import (
    factorization_campaign,
    in_positive_cone,
    inequality_campaign,
)
from hess2.solver import solve_radial
from hess2.symmat import eigenvalues
from oracles import expansion_coefficients

SQRT3 = math.sqrt(3.0)


def _gate(label: str, ok: bool, details: str = "") -> None:
    print(f"[{label}] {'PASS' if ok else 'FAIL'} {details}".rstrip())
    assert ok, f"{label}: {details}"


class TestGate01PositiveCampaign:
    def test_positive_semidefinite_campaign(self):
        start = time.time()
        result = inequality_campaign(seed=42, dims=range(2, 9), count=100_000,
                                     sign="positive")
        elapsed = time.time() - start
        worst_min = min(s.min_residual_over_scale for s in result.summaries)
        worst_disc = max(s.max_discrepancy_over_scale for s in result.summaries)
        _gate("G01 psd inequality campaign",
              result.ok and worst_min >= -1e-9 and worst_disc <= 1e-9
              and elapsed <= 60.0,
              f"min residual/scale {worst_min:+.2e}, direct-vs-closed "
              f"{worst_disc:.2e}, {elapsed:.1f}s")


class TestGate02DimensionThreeIdentity:
    def test_identity_for_indefinite_matrices(self):
        result = inequality_campaign(seed=7, dims=(3,), count=100_000,
                                     sign="indefinite")
        s = result.summaries[0]
        worst = max(abs(s.min_residual_over_scale), abs(s.max_residual_over_scale))
        _gate("G02 dimension-3 identity", worst <= 1e-10,
              f"max |residual|/scale {worst:.2e} over 1e5 indefinite samples")


class TestGate03NegativeCampaign:
    def test_negative_semidefinite_campaign(self):
        result = inequality_campaign(seed=42, dims=range(2, 9), count=100_000,
                                     sign="negative")
        worst_max = max(s.max_residual_over_scale for s in result.summaries)
        worst_disc = max(s.max_discrepancy_over_scale for s in result.summaries)
        _gate("G03 nsd reversed campaign",
              result.ok and worst_max <= 1e-9 and worst_disc <= 1e-9,
              f"max residual/scale {worst_max:+.2e}")


class TestGate04Factorization:
    def test_factorization_campaign(self):
        worst = factorization_campaign(seed=3, count=10_000)
        _gate("G04a cubic factorization", worst <= 1e-8,
              f"worst |m_direct - m_factored|/scale {worst:.2e} over 1e4 tuples")

    def test_expansion_coefficients_vanish(self):
        rng = np.random.default_rng(11)
        worst = 0.0
        for _ in range(1000):
            n = int(rng.integers(2, 9))
            g = rng.standard_normal((n, n))
            co = expansion_coefficients((g + g.T) / 2, rng.standard_normal(n))
            rel = max(abs(co.m21), abs(co.m12), abs(co.m03)) / max(1.0, abs(co.m30))
            worst = max(worst, rel)
        _gate("G04b mixed coefficients vanish", worst <= 1e-8,
              f"worst |m21,m12,m03|/max(1,|m30|) = {worst:.2e} over 1e3 tuples")


class TestGate05RadialOracle:
    def test_unit_ball_constant_source(self):
        prof = cached_radial(3, "const")
        u_min_err = abs(prof.u_min + 1.0 / (2.0 * SQRT3))
        grad_err = abs(prof.boundary_gradient - 1.0 / SQRT3)
        rep = audit_bounds(prof, make_source("const"), 1)
        slack_err = abs(rep.slack - (1.0 / SQRT3 - 1.0 / 3.0))
        _gate("G05 radial oracle",
              u_min_err <= 1e-6 and grad_err <= 1e-6 and slack_err <= 1e-5,
              f"u_min err {u_min_err:.1e}, boundary-gradient err {grad_err:.1e}, "
              f"slack err {slack_err:.1e}")

    def test_constant_source_every_dimension(self):
        # The solution u = (r^2 - 1)/(2 sqrt C(N,2)) is quadratic in every
        # dimension, so the radial quadrature must reproduce it exactly.
        worst_u, worst_res = 0.0, 0.0
        for n in range(2, 17):
            prof = cached_radial(n, "const")
            exact = -1.0 / (2.0 * math.sqrt(math.comb(n, 2)))
            worst_u = max(worst_u, abs(prof.u_min - exact) / abs(exact))
            worst_res = max(worst_res, prof.ode_residual_sup)
        _gate("G05b radial oracle, N = 2..16", worst_u <= 1e-12 and worst_res <= 1e-11,
              f"worst relative u_min err {worst_u:.1e}, worst ode residual {worst_res:.1e}")


class TestGate06DiskEquality:
    def test_constant_field_and_zero_slack(self):
        h = 1.0 / 64
        sol = cached_grid("disk", "const", h)
        pf = pfunction_field(sol, make_source("const"))
        variation = max(float(np.max(np.abs(pf.phi(1.0) - 1.0))),
                        float(np.max(np.abs(pf.boundary_grad_sq - 1.0))))
        rep = audit_bounds(sol, make_source("const"), 1)
        _gate("G06 disk equality case",
              variation <= 5.0 * h * h and abs(rep.slack) <= 5.0 * h * h,
              f"sup |phi - 1| = {variation:.2e}, slack = {rep.slack:+.2e}")


class TestGate07ConstantFieldAnchor:
    def test_critical_alpha_gives_constant_field(self):
        prof = cached_radial(3, "const")
        phi = pfunction_field(prof, make_source("const")).phi(1.0 / SQRT3)
        variation = float(np.max(phi) - np.min(phi))
        _gate("G07 constant-field anchor", variation <= 1e-6,
              f"sup variation {variation:.2e} at alpha = 3^(-1/2)")


class TestGate08MinimumPrincipleSuite:
    CASES = [("radial", "const"), ("radial", "exp-dec"),
             ("disk", "const"), ("disk", "exp-dec"),
             ("ellipse", "const"), ("ellipse", "exp-dec")]
    ALPHAS = (1.0, 1.5, 2.0)

    def test_suite(self):
        start = time.time()
        failures = []
        for dom, fkey in self.CASES:
            f = make_source(fkey)
            sol = (cached_radial(3, fkey) if dom == "radial"
                   else cached_grid(dom, fkey, 1.0 / 64))
            scan = convexity_scan_solution(sol, transform_preset(1))
            if not scan.convex:
                failures.append((dom, fkey, "convexity"))
                continue
            pf = pfunction_field(sol, f)
            for alpha in self.ALPHAS:
                verdict = verify_principle(pf, alpha, "min")
                if not verdict.holds:
                    failures.append((dom, fkey, alpha, verdict.margin))
        elapsed = time.time() - start
        _gate("G08 minimum principle suite",
              not failures and elapsed <= 300.0,
              f"{len(self.CASES) * len(self.ALPHAS)} verdicts in {elapsed:.1f}s"
              + (f"; failures: {failures}" if failures else ""))


class TestGate09PlanarAlphaGrids:
    def _verdict(self, sol, fkey, alpha, mode):
        f = make_source(fkey)
        return verify_principle(pfunction_field(sol, f), alpha, mode)

    def test_maximum_grid_nondecreasing(self):
        bad = []
        for fkey in ("const", "exp-inc"):
            sol = cached_grid("disk", fkey, 1.0 / 64)
            for alpha in (-2.0, -1.0, 0.0, 0.5, 1.0):
                if not self._verdict(sol, fkey, alpha, "max").holds:
                    bad.append((fkey, alpha))
        _gate("G09a planar maximum grid", not bad, f"failures: {bad}" if bad else
              "10 verdicts hold")

    def test_minimum_grid_nonincreasing_alpha_geq_one(self):
        bad = []
        for fkey in ("const", "exp-dec"):
            sol = cached_grid("disk", fkey, 1.0 / 64)
            for alpha in (1.0, 2.0):
                if not self._verdict(sol, fkey, alpha, "min").holds:
                    bad.append((fkey, alpha))
        _gate("G09b planar minimum grid (alpha >= 1)", not bad,
              f"failures: {bad}" if bad else "4 verdicts hold")

    @pytest.mark.xfail(strict=True, reason=(
        "a boundary minimum cannot hold for alpha < 0: the field equals "
        "2*alpha*integral < 0 at the critical point of u yet is a squared "
        "gradient >= 0 on the boundary; kept as stated for the record"))
    def test_minimum_grid_negative_alpha_as_stated(self):
        sol = cached_grid("disk", "const", 1.0 / 64)
        for alpha in (-1.0, -0.5):
            verdict = self._verdict(sol, "const", alpha, "min")
            print(f"[G09c] alpha={alpha}: margin={verdict.margin:+.3f} "
                  f"(boundary minimum impossible)")
            assert verdict.holds

    def test_minimum_grid_negative_alpha_measured(self):
        # Companion record: the failure is structural, with order-one margin.
        sol = cached_grid("disk", "const", 1.0 / 64)
        margins = {}
        for alpha in (-1.0, -0.5):
            v = self._verdict(sol, "const", alpha, "min")
            margins[alpha] = v.margin
            assert not v.holds
            assert v.margin < -0.5
            assert v.distance_argextreme_to_boundary > 0.5
        _gate("G09c planar minimum, negative alpha (measured)", True,
              f"interior minima with margins {margins} as dictated by the sign "
              "structure; the as-stated claim is an expected failure")


class TestGate10Eigenproblem:
    def test_convergence_and_residual(self):
        lam, prof = cached_eigen(1.0)
        _gate("G10a eigen inverse iteration",
              lam > 0 and prof.ode_residual_sup <= 1e-6,
              f"lambda1 = {lam:.6f}, equation residual {prof.ode_residual_sup:.2e}")

    def test_bound_both_conventions(self):
        lam, prof = cached_eigen(1.0)
        f = make_source(f"eigen:{lam}")
        slacks = {}
        for gamma in (0.5, 1.0):
            rep = audit_bounds(prof, f, 2, gamma=gamma)
            slacks[gamma] = rep.slack
            assert rep.hypothesis_ok
            assert rep.slack >= -1e-6
            assert rep.pointwise_min_slack >= -1e-6
        _gate("G10b eigen a priori bound", True,
              f"slacks under sup-norm normalization: {slacks}")

    @pytest.mark.xfail(strict=True, reason=(
        "lambda1 scales as R^-4 between balls (degree-2 operator under "
        "x -> x/R), so the ratio between radii 2 and 1 is 1/16, not 1/4; "
        "kept as stated for the record"))
    def test_radius_scaling_as_stated(self):
        lam1, _ = cached_eigen(1.0)
        lam2, _ = cached_eigen(2.0)
        ratio = lam2 / lam1
        print(f"[G10c] measured lambda1(B2)/lambda1(B1) = {ratio:.8f}")
        assert abs(ratio - 0.25) <= 1e-4

    def test_radius_scaling_rescaling_oracle(self):
        # Substituting u_R(x) = u(x/R) multiplies every Hessian entry by R^-2
        # and the operator by R^-4 while the squared right side is unchanged.
        lam1, _ = cached_eigen(1.0)
        lam2, _ = cached_eigen(2.0)
        ratio = lam2 / lam1
        _gate("G10c eigen radius scaling (rescaling oracle)",
              abs(ratio - 1.0 / 16.0) <= 1e-4 / 4.0,
              f"lambda1(B2)/lambda1(B1) = {ratio:.8f} vs 1/16")


class TestGate11PowerFamily:
    PS = (0.5, 1.0, 1.5)

    def test_convexity_of_power_transform(self):
        bad = []
        for p in self.PS:
            prof = cached_radial(3, f"power:1,{p}")
            scan = convexity_scan_solution(prof, transform_preset(3, p))
            if not scan.convex:
                bad.append(p)
        _gate("G11a power-transform convexity", not bad,
              f"transform composition convex for p in {self.PS}")

    def test_sqrt_convention_bound(self):
        slacks = {}
        for p in self.PS:
            prof = cached_radial(3, f"power:1,{p}")
            rep = audit_bounds(prof, make_source(f"power:1,{p}"), 3, p=p,
                               gamma=0.5)
            slacks[p] = rep.slack
            assert rep.holds and rep.slack >= -1e-6
        _gate("G11b power bound (rooted integral)", True, f"slacks {slacks}")

    def test_plain_convention_bound_small_exponent(self):
        prof = cached_radial(3, "power:1,0.5")
        rep = audit_bounds(prof, make_source("power:1,0.5"), 3, p=0.5, gamma=1.0)
        _gate("G11c power bound p=0.5 (plain integral)",
              rep.slack >= -1e-6 and rep.holds,
              f"slack {rep.slack:+.2e}")

    @pytest.mark.xfail(strict=True, reason=(
        "the plain-integral convention fails on the solved profiles for "
        "p in {1.0, 1.5} (slacks about -3.5e-3 and -6.5e-6); the rooted "
        "convention, which the minimum principle actually controls, holds; "
        "kept as stated for the record"))
    def test_plain_convention_bound_as_stated(self):
        for p in (1.0, 1.5):
            prof = cached_radial(3, f"power:1,{p}")
            rep = audit_bounds(prof, make_source(f"power:1,{p}"), 3, p=p,
                               gamma=1.0)
            print(f"[G11d] p={p}: plain-integral slack {rep.slack:+.3e}")
            assert rep.slack >= -1e-6

    def test_plain_convention_bound_measured(self):
        slacks = {}
        for p in (1.0, 1.5):
            prof = cached_radial(3, f"power:1,{p}")
            rep = audit_bounds(prof, make_source(f"power:1,{p}"), 3, p=p,
                               gamma=1.0)
            slacks[p] = rep.slack
            assert rep.slack < -1e-6 and not rep.holds
        _gate("G11d power bound (plain integral, measured)", True,
              f"negative slacks {slacks}; the as-stated claim is an expected "
              "failure while the rooted convention passes")

    def test_large_exponent_rejected_with_reason(self):
        with pytest.raises(HypothesisError) as err:
            transform_preset(3, 2.5)
        message = str(err.value)
        _gate("G11e exponent 2.5 rejected",
              "not strictly increasing" in message,
              f"reason: {message}")


class TestGate12IdentityScan:
    def test_homogeneity_contraction(self):
        worst = 0.0
        for dim in range(2, 7):
            pts = sample_points_in_ball(100 + dim, dim, 50, radius=0.9,
                                        min_radius=0.05)
            for fld in standard_menagerie(dim):
                for x in pts:
                    worst = max(worst, abs(euler_identity_gap(fld, x)))
        _gate("G12a homogeneity contraction", worst <= 1e-10,
              f"worst gap/scale {worst:.2e} across dims 2-6")

    def test_gradient_hessian_inequality(self):
        worst = 0.0
        n = 0
        for dim in (2, 3, 4):
            pts = sample_points_in_ball(200 + dim, dim, 120, radius=0.95)
            for fld in standard_menagerie(dim):
                for x in pts:
                    hess = fld.hess(x)
                    if not in_positive_cone(eigenvalues(hess)):
                        continue
                    scale = (1.0 + float(np.linalg.norm(hess)) ** 2
                             * (1.0 + float(x @ x)))
                    worst = min(worst, philippin_safoui_gap(fld, x) / scale)
                    n += 1
        _gate("G12b gradient-Hessian inequality", worst >= -1e-9,
              f"min gap/scale {worst:+.2e} over {n} admissible probes")

    def test_curvature_convention_fit(self):
        rng = np.random.default_rng(0)
        ratios = []
        for _ in range(200):
            amp = float(rng.uniform(0.1, 1.0))
            fld = ball_quadratic_field(3, amp)
            x = sample_points_in_ball(int(rng.integers(2**32)), 3, 1,
                                      radius=1.2, min_radius=0.2)[0]
            probe = levelset_curvature_probe(fld, x)
            ratios.append(probe.h2_extracted
                          / (probe.grad_norm * probe.s2_kappa_geometric))
        factor = float(np.mean(ratios))
        resid = float(np.max(np.abs(np.asarray(ratios) - factor)))
        _gate("G12c curvature convention fit",
              resid <= 1e-8 and abs(factor - 1.0) <= 1e-8,
              f"extracted = factor * |grad u| * S2(kappa) with factor "
              f"{factor:.12f}, fit residual {resid:.2e}")


class TestGate13CriticalSaturation:
    def test_radial_isotropic_cases(self):
        details = []
        ok = True
        for dim in (2, 3):
            prof = cached_radial(dim, "const")
            cp = critical_point_report(prof, make_source("const"))
            err = abs(cp.max_ratio - cp.binom_bound)
            details.append(f"dim {dim}: ratio {cp.max_ratio:.8f} vs "
                           f"{cp.binom_bound:.8f}")
            ok &= err <= 1e-4 and cp.spectrum_positive
        _gate("G13 critical-point saturation", ok, "; ".join(details))


class TestGate14ConvergenceOrders:
    def test_radial_order(self):
        # Dimension 6, non-polynomial truth: measure against a fine radial solve.
        ref = cached_radial(6, "exp-dec", 4096)
        errs = []
        for m in (16, 32):
            prof = cached_radial(6, "exp-dec", m)
            exact = np.interp(prof.r, ref.r, ref.u)
            errs.append(float(np.max(np.abs(prof.u - exact))))
        ratio = errs[0] / errs[1]
        _gate("G14a radial convergence", errs[0] > 1e-12 and ratio >= 16.0,
              f"errors {errs[0]:.2e} -> {errs[1]:.2e}, ratio {ratio:.2f}")

    def test_grid_order_constant_source(self):
        # The closed-form solution is a global quadratic the one-sided
        # stencils reproduce exactly, so both errors sit at solver precision;
        # the ratio requirement applies whenever the errors are measurable.
        errs = []
        for h in (1.0 / 64, 1.0 / 128):
            sol = cached_grid("disk", "const", h)
            r2 = np.sum(sol.lattice.mask.node_xy**2, axis=1)
            errs.append(float(np.max(np.abs(sol.u - (r2 - 1.0) / 2.0))))
        exact_floor = 1e-9
        scheme_exact = max(errs) <= exact_floor
        ratio = errs[0] / errs[1] if errs[1] > 0 else math.inf
        _gate("G14b grid convergence (constant source)",
              scheme_exact or ratio >= 3.2,
              f"errors {errs[0]:.2e} -> {errs[1]:.2e}"
              + ("; scheme-exact on the quadratic solution, ratio vacuous"
                 if scheme_exact else f", ratio {ratio:.2f}"))

    def test_grid_order_exponential_source(self):
        # Non-quadratic truth: measure against a high-resolution radial solve.
        ref = solve_radial(2, 1.0, make_source("exp-dec"), 8192)
        errs = []
        for h in (1.0 / 64, 1.0 / 128):
            sol = cached_grid("disk", "exp-dec", h)
            radii = np.linalg.norm(sol.lattice.mask.node_xy, axis=1)
            exact = np.interp(radii, ref.r, ref.u)
            errs.append(float(np.max(np.abs(sol.u - exact))))
        ratio = errs[0] / errs[1]
        _gate("G14c grid convergence (exponential source)", ratio >= 3.2,
              f"errors {errs[0]:.2e} -> {errs[1]:.2e}, ratio {ratio:.2f}")
