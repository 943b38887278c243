import json
import math
import weakref

import numpy as np
import pytest

from conftest import cached_eigen, cached_grid, cached_radial, make_source
from hess2 import solver
from hess2.domain import ball, convex_polygon, ellipse, rasterize
from hess2.errors import InputError
from hess2.solver import (
    _hessian,
    _newton_jacobian,
    admissibility_report,
    build_operators,
    constant_source,
    dissection_path,
    eigen_source,
    factorized,
    load_solution,
    nested_dissection_order,
    power_source,
    radial_ode_residual,
    save_solution,
    solve_eigen_radial,
    solve_grid2d,
    solve_radial,
    spsolve,
)

SQRT3 = np.sqrt(3.0)


class TestSources:
    def test_monotonicity_tags(self):
        for key in ("const", "exp-dec", "power:1,0.5", "eigen:2"):
            assert make_source(key).nonincreasing
        assert not make_source("exp-inc").nonincreasing

    def test_positivity_guards(self):
        with pytest.raises(InputError):
            constant_source(0.0)
        with pytest.raises(InputError):
            power_source(-1.0, 1.0)
        with pytest.raises(InputError):
            eigen_source(0.0)

    def test_derivative_consistency(self):
        for key in ("const", "exp-dec", "exp-inc", "power:1,1.5", "eigen:3"):
            src = make_source(key)
            t = np.linspace(-2.0, -0.05, 40)
            fd = (src.f(t + 1e-6) - src.f(t - 1e-6)) / 2e-6
            np.testing.assert_allclose(src.fprime(t), fd, rtol=1e-5, atol=1e-7)


class TestRadialSolver:
    def test_ball_constant_source_closed_form(self):
        prof = cached_radial(3, "const")
        exact = (prof.r**2 - 1.0) / (2.0 * SQRT3)
        assert np.max(np.abs(prof.u - exact)) <= 1e-8
        assert prof.u_min == pytest.approx(-1.0 / (2.0 * SQRT3), abs=1e-10)
        assert prof.boundary_gradient == pytest.approx(1.0 / SQRT3, abs=1e-10)

    def test_disk_constant_source_closed_form(self):
        prof = cached_radial(2, "const")
        exact = (prof.r**2 - 1.0) / 2.0
        assert np.max(np.abs(prof.u - exact)) <= 1e-10
        assert prof.boundary_gradient == pytest.approx(1.0, abs=1e-12)

    def test_exp_decreasing_equation_residual(self):
        prof = cached_radial(3, "exp-dec")
        res = radial_ode_residual(prof, make_source("exp-dec"))
        assert np.max(np.abs(res)) <= 1e-7

    def test_profile_invariants(self):
        for key in ("const", "exp-dec", "exp-inc"):
            prof = cached_radial(3, key)
            assert prof.u[-1] == 0.0
            assert prof.up[0] == 0.0
            assert np.all(prof.up >= 0)
            assert np.all(prof.u[:-1] < 0)

    def test_admissibility_margins_constant(self):
        prof = cached_radial(3, "const")
        rep = admissibility_report(prof)
        assert rep.admissible
        assert rep.min_s1 == pytest.approx(SQRT3, rel=1e-8)
        assert rep.min_s2 == pytest.approx(1.0, rel=1e-8)
        assert rep.min_cofactor_eigenvalue == pytest.approx(2.0 / SQRT3, rel=1e-8)

    def test_power_sources_solve(self):
        for p in (0.5, 1.0, 1.5):
            prof = cached_radial(3, f"power:1,{p}")
            assert prof.u_min < 0
            assert admissibility_report(prof).admissible

    def test_convergence_order_f1(self):
        # Dimension 6 keeps the quadrature honest: the exp-dec solution is not
        # polynomial, and the source integrand carries the weight s^5.
        ref = cached_radial(6, "exp-dec", 4096)
        errs = []
        for m in (16, 32):
            prof = cached_radial(6, "exp-dec", m)
            exact = np.interp(prof.r, ref.r, ref.u)
            errs.append(np.max(np.abs(prof.u - exact)))
        assert errs[0] > 1e-12  # the measurement is real, not rounding noise
        assert errs[0] / errs[1] >= 16.0

    def test_input_guards(self):
        with pytest.raises(InputError):
            solve_radial(1, 1.0, make_source("const"))
        with pytest.raises(InputError):
            solve_radial(3, -1.0, make_source("const"))

    @pytest.mark.parametrize("dim", [2, 3, 8, 64])
    @pytest.mark.parametrize("f_key", ["const", "exp-dec"])
    def test_residual_is_the_eigenvalue_form(self, dim, f_key):
        # Off the origin S2 = (N-1) u'' u'/r + C(N-1, 2) (u'/r)^2 bit for bit; at
        # r = 0 both eigenvalues are t = u''(0), and S2 = C(N, 2) t^2 to an ulp.
        prof, f = cached_radial(dim, f_key), make_source(f_key)
        eigs = prof.hessian_eigenvalues()
        upp, tang = eigs[:, 0], eigs[:, 1]
        res = radial_ode_residual(prof, f)
        expect = (dim - 1) * upp * tang + (dim - 1) * (dim - 2) / 2.0 * tang**2 - f.f(prof.u)
        assert np.array_equal(res[1:], expect[1:])
        s2_origin = math.comb(dim, 2) * tang[0] ** 2
        assert upp[0] == tang[0]
        assert abs(res[0] - (s2_origin - f.f(prof.u[0]))) <= np.spacing(s2_origin)


class TestEigenSolver:
    def test_converges_with_small_residual(self):
        lam, prof = cached_eigen(1.0)
        assert lam > 0
        assert np.max(np.abs(prof.u)) == pytest.approx(1.0)
        res = radial_ode_residual(prof, eigen_source(lam))
        assert np.max(np.abs(res)) <= 1e-6

    def test_radius_scaling_fourth_power(self):
        # u_R(x) = u(x/R) maps an eigenpair on the unit ball to one on B_R
        # with eigenvalue divided by R^4 (the operator is degree 2 in D^2 u).
        lam1, _ = cached_eigen(1.0)
        lam2, _ = cached_eigen(2.0)
        assert lam2 / lam1 == pytest.approx(1.0 / 16.0, rel=1e-6)

    def test_dimension_guard(self):
        with pytest.raises(InputError):
            solve_eigen_radial(2, 1.0)

    def test_one_picard_pass_per_step(self, monkeypatch):
        # Each step's data u^2 does not depend on the new iterate, so a second
        # Picard pass on it would only repeat the first.
        passes = []
        real = solver._picard_pass
        monkeypatch.setattr(solver, "_picard_pass", lambda *a: passes.append(1) or real(*a))
        _, prof = solve_eigen_radial(3, 1.0, 256)
        assert len(passes) == prof.picard_iterations > 1


class TestGridSolver:
    def test_disk_constant_center_value(self):
        sol = cached_grid("disk", "const", 1.0 / 64)
        mask = sol.mask
        nx, ny = mask.grid_index.shape
        center = mask.grid_index[nx // 2, ny // 2]
        assert sol.u[center] == pytest.approx(-0.5, abs=2e-3)

    def test_disk_constant_matches_closed_form(self):
        sol = cached_grid("disk", "const", 1.0 / 64)
        r2 = np.sum(sol.mask.node_xy**2, axis=1)
        assert np.max(np.abs(sol.u - (r2 - 1.0) / 2.0)) <= 2e-3

    def test_ellipse_constant_matches_closed_form(self):
        # det D^2 u = 1 on the (2, 1) ellipse has the exact quadratic solution
        # u = x^2/4 + y^2 - 1 with minimum -ab/2 = -1.
        sol = cached_grid("ellipse", "const", 1.0 / 64)
        x, y = sol.mask.node_xy.T
        assert np.max(np.abs(sol.u - (x**2 / 4.0 + y**2 - 1.0))) <= 2e-3
        assert sol.u_min == pytest.approx(-1.0, abs=2e-3)

    def test_exp_decreasing_admissible(self):
        sol = cached_grid("disk", "exp-dec", 1.0 / 64)
        rep = admissibility_report(sol)
        assert rep.admissible
        assert sol.residual_sup <= 1e-9

    def test_minimum_attained_inside(self):
        for key in ("const", "exp-dec"):
            sol = cached_grid("disk", key, 1.0 / 64)
            argmin = int(np.argmin(sol.u))
            assert np.all(sol.mask.neighbor[argmin, :4] >= 0)  # all axis neighbors inside
            assert np.all(sol.u < 0)

    def test_solution_negative_everywhere(self):
        sol = cached_grid("ellipse", "const", 1.0 / 64)
        assert np.all(sol.u < 0)

    def test_square_polygon_solve(self):
        # Corners put the Poisson warm start outside the elliptic branch; the
        # fixed-point fallback walks back in.  The minimum is bracketed by
        # the inscribed (radius 1) and circumscribed (radius sqrt 2) disks.
        from hess2.domain import convex_polygon
        square = convex_polygon([[-1, -1], [1, -1], [1, 1], [-1, 1]])
        sol = solve_grid2d(square, constant_source(1.0), 1.0 / 32)
        assert sol.residual_sup <= 1e-9
        assert -1.0 < sol.u_min < -0.5
        assert admissibility_report(sol).admissible

    @pytest.mark.parametrize("p", [0.5, 1.5])
    def test_power_source_matches_radial(self, p):
        # f(0) = 0 admits the trivial solution u = 0; the warm start must not
        # hand Newton an iterate so shallow that it converges there.
        f = power_source(1.0, p)
        sol = solve_grid2d(ball(1.0), f, 1.0 / 32)
        assert sol.u_min == pytest.approx(solve_radial(2, 1.0, f).u_min, abs=1e-3)


DISSECTED = [(ball(1.0), 0.05), (ellipse(2.0, 1.0), 0.05),
             (convex_polygon([[-1, -1], [1, -1], [1, 1], [-1, 1]]), 1.0 / 16),
             (convex_polygon([[-1.0, -0.8], [1.2, -1.0], [0.9, 1.1], [-0.7, 0.8]]), 0.04)]


class TestNestedDissection:
    @pytest.mark.parametrize("spec,h", DISSECTED, ids=["ball", "ellipse", "square",
                                                       "skewed-quad"])
    def test_order_puts_halves_before_their_cut_line(self, spec, h):
        mask = rasterize(spec, h)
        order = nested_dissection_order(mask.grid_index)
        assert np.array_equal(np.sort(order), np.arange(mask.n_inside))
        path = dissection_path(mask.grid_index)
        assert np.all(path[-1] == 2)
        # Between consecutive nodes of the order, the side at the first level
        # where they differ goes up: first half, second half, then cut line.
        p = path[:, order]
        differs = p[:, 1:] != p[:, :-1]
        level = differs.argmax(axis=0)
        cols = np.arange(p.shape[1] - 1)
        assert np.all(~differs.any(axis=0) | (p[level, cols + 1] > p[level, cols]))

    @pytest.mark.parametrize("spec,h", DISSECTED, ids=["ball", "ellipse", "square",
                                                       "skewed-quad"])
    def test_cut_lines_separate_the_stencil(self, spec, h):
        mask = rasterize(spec, h)
        path = dissection_path(mask.grid_index)
        a, m = np.nonzero(mask.neighbor >= 0)
        b = mask.neighbor[a, m]
        same_box = np.ones(a.size, dtype=bool)
        for side in path:
            # Sides 0 and 1 of one box are never stencil neighbours.
            assert not np.any(same_box & (side[a] + side[b] == 1))
            same_box &= side[a] == side[b]

    def test_ordered_solve_matches_scipy(self):
        from scipy.sparse.linalg import spsolve as scipy_spsolve
        sol = cached_grid("ellipse", "exp-dec", 1.0 / 64)
        mask, f = sol.mask, make_source("exp-dec")
        ops = build_operators(mask)
        u = 0.9 * sol.u   # off the solution, so the residual is not tiny
        hess = _hessian(ops, u)
        uxx, uyy, uxy = hess[:, 0, 0], hess[:, 1, 1], hess[:, 0, 1]
        jac = _newton_jacobian(ops, f, u, hess)
        rhs = f.f(u) - (uxx * uyy - uxy * uxy)
        expect = scipy_spsolve(jac.tocsc(), rhs)
        got = factorized(jac, nested_dissection_order(mask.grid_index))(rhs)
        assert np.max(np.abs(got - expect)) <= 1e-12 * np.max(np.abs(expect))


class TestNewtonStep:
    @staticmethod
    def _jacobian(sol, f, scale):
        ops = build_operators(sol.mask)
        u = scale * sol.u
        hess = _hessian(ops, u)
        uxx, uyy, uxy = hess[:, 0, 0], hess[:, 1, 1], hess[:, 0, 1]
        return ops, _newton_jacobian(ops, f, u, hess), f.f(u) - (uxx * uyy - uxy * uxy)

    def test_lagged_factor_meets_the_gmres_tolerance(self):
        sol, f = cached_grid("ellipse", "exp-dec", 1.0 / 64), make_source("exp-dec")
        order = nested_dissection_order(sol.mask.grid_index)
        first = factorized(self._jacobian(sol, f, 0.9)[1], order)
        _, jac, rhs = self._jacobian(sol, f, 0.95)
        step, lu = spsolve(jac, rhs, order, first)
        assert lu is first
        assert np.linalg.norm(jac @ step - rhs) <= solver.GMRES_RTOL * np.linalg.norm(rhs)

    def test_stale_factor_falls_back_to_a_fresh_one(self):
        f = make_source("exp-dec")
        sol = solve_grid2d(convex_polygon([[1, -1], [1, 1], [-1, 1], [-1, -1]]), f, 1.0 / 64)
        order = nested_dissection_order(sol.mask.grid_index)
        ops, jac, rhs = self._jacobian(sol, f, 0.9)
        lap = factorized(ops[0, 0] + ops[1, 1], order)
        step, lu = spsolve(jac, rhs, order, lap)
        assert lu is not lap
        assert np.array_equal(step, factorized(jac, order)(rhs))


class TestWarmStartFactor:
    def test_laplacian_factor_is_freed_before_newton(self, monkeypatch):
        # Newton never reads the warm start's Laplacian factor: it must be gone
        # (no reference left) by the first Newton solve.
        real_factorized, real_spsolve = solver.factorized, solver.spsolve
        factors, alive_at_newton = [], []

        def factorized(a, order):
            solve = real_factorized(a, order)
            factors.append(weakref.ref(solve))
            return solve

        def spsolve(*args):
            if not alive_at_newton:
                alive_at_newton.append(factors[0]() is not None)
            return real_spsolve(*args)

        monkeypatch.setattr(solver, "factorized", factorized)
        monkeypatch.setattr(solver, "spsolve", spsolve)
        sol = solve_grid2d(ellipse(2.0, 1.0), make_source("exp-dec"), 1.0 / 16)
        assert sol.newton_iterations > 0
        assert alive_at_newton == [False]


class TestAdmissibilityCounterexample:
    def test_inadmissible_field_flagged(self):
        from dataclasses import replace
        sol = cached_grid("disk", "const", 1.0 / 64)
        bad = replace(sol, u=-sol.u)  # concave bump: Delta u < 0
        rep = admissibility_report(bad)
        assert not rep.admissible
        assert rep.min_s1 < 0


class TestSerialization:
    def test_radial_roundtrip_bit_exact(self, tmp_path):
        prof = cached_radial(3, "exp-dec")
        path = tmp_path / "radial.npz"
        save_solution(prof, path)
        back = load_solution(path)
        assert back.dim == prof.dim and back.radius == prof.radius
        assert back.u.tobytes() == prof.u.tobytes()
        assert back.up.tobytes() == prof.up.tobytes()
        assert back.r.tobytes() == prof.r.tobytes()

    def test_grid_roundtrip_bit_exact(self, tmp_path):
        sol = cached_grid("disk", "const", 1.0 / 32)
        path = tmp_path / "grid.npz"
        save_solution(sol, path)
        back = load_solution(path)
        assert back.u.tobytes() == sol.u.tobytes()
        assert back.mask.n_inside == sol.mask.n_inside
        assert back.newton_iterations == sol.newton_iterations

    @pytest.mark.parametrize("make", [
        lambda: cached_grid("ellipse", "const", 1.0 / 64),
        lambda: solve_grid2d(convex_polygon([[-1.0, 1.0], [1.0, 1.0], [1.0, -1.0], [-1.0, -1.0]]),
                             constant_source(1.0), 1.0 / 16),
    ], ids=["ellipse", "polygon"])
    def test_grid_roundtrip_rebuilds_each_domain(self, tmp_path, make):
        # The mask is rebuilt from the saved domain: the same domain, the same nodes.
        sol = make()
        path = tmp_path / "grid.npz"
        save_solution(sol, path)
        back = load_solution(path)
        spec, again = sol.mask.spec, back.mask.spec
        assert again.kind == spec.kind and again.semi_axes == spec.semi_axes
        assert again.center.tobytes() == spec.center.tobytes()
        assert (spec.vertices is None) == (again.vertices is None)
        if spec.vertices is not None:
            assert again.vertices.tobytes() == spec.vertices.tobytes()
        assert back.u.tobytes() == sol.u.tobytes()
        assert back.mask.node_xy.tobytes() == sol.mask.node_xy.tobytes()
        assert back.mask.theta.tobytes() == sol.mask.theta.tobytes()
        assert back.residual_sup == sol.residual_sup

    @pytest.mark.parametrize("change, message", [
        ({"schema": 2}, "unsupported solution schema 2"),
        ({"h": 1.0 / 16}, "does not match the rebuilt grid"),
        ({"kind": "sphere"}, "unrecognized solution file"),
    ], ids=["schema", "grid-mismatch", "unknown-kind"])
    def test_bad_solution_file_rejected(self, tmp_path, change, message):
        path = tmp_path / "grid.npz"
        save_solution(cached_grid("disk", "const", 1.0 / 32), path)
        with np.load(path) as data:
            header = {**json.loads(str(data["header"])), **change}
            arrays = {name: data[name] for name in data.files if name != "header"}
        np.savez(path, header=json.dumps(header), **arrays)
        with pytest.raises(InputError, match=message):
            load_solution(path)


class TestSolutionInterface:
    """Each derived quantity has one implementation, on the frame blocks."""

    @pytest.mark.parametrize("domain", ["disk", "ellipse"])
    def test_planar_s2_is_the_determinant_bit_for_bit(self, domain):
        sol = cached_grid(domain, "const", 1.0 / 64)
        hess = _hessian(build_operators(sol.mask), sol.u)
        uxx, uyy, uxy = hess[:, 0, 0], hess[:, 1, 1], hess[:, 0, 1]
        assert admissibility_report(sol).min_s2 == float(np.min(uxx * uyy - uxy * uxy))

    @pytest.mark.parametrize("domain", ["disk", "ellipse"])
    def test_planar_cofactor_matches_the_closed_form(self, domain):
        # In the plane S1 I - H has the spectrum of H: its least eigenvalue is
        # the closed-form lambda_min of the 2 x 2 Hessian.
        sol = cached_grid(domain, "const", 1.0 / 64)
        hess = _hessian(build_operators(sol.mask), sol.u)
        a, c, b = hess[:, 0, 0], hess[:, 1, 1], hess[:, 0, 1]
        closed = 0.5 * (a + c) - np.sqrt(0.25 * (a - c) ** 2 + b * b)
        got = admissibility_report(sol).min_cofactor_eigenvalue
        assert abs(got - float(np.min(closed))) <= 1e-13

    @pytest.mark.parametrize("dim", [2, 3, 8, 64])
    def test_radial_invariants_match_the_eigenvalue_forms(self, dim):
        prof = cached_radial(dim, "const")
        eigs = prof.hessian_eigenvalues()[:-1]
        upp, tang = eigs[:, 0], eigs[:, 1]
        rep = admissibility_report(prof)
        assert rep.min_s1 == float(np.min(upp + (dim - 1) * tang))
        assert rep.min_s2 == float(np.min((dim - 1) * upp * tang
                                          + (dim - 1) * (dim - 2) / 2.0 * tang**2))
        assert rep.min_cofactor_eigenvalue == float(
            np.min(np.minimum(upp + (dim - 1) * tang - upp, upp + (dim - 1) * tang - tang)))
        assert prof.multiplicity == (1, dim - 1)

    def test_radial_arrays_stay_per_node_in_high_dimension(self):
        prof = cached_radial(64, "const")
        assert prof.hessian().shape == (prof.r.size - 1, 2, 2)
        assert prof.gradient().shape == (prof.r.size, 2)

    def test_planar_frame_is_x_y(self):
        sol = cached_grid("disk", "const", 1.0 / 32)
        assert sol.multiplicity == (1, 1)
        assert sol.gradient().shape == (sol.mask.n_inside, 2)
        hess = sol.hessian()
        assert hess.shape == (sol.mask.n_inside, 2, 2)
        assert np.array_equal(hess[:, 0, 1], hess[:, 1, 0])

    def test_distance_to_boundary_radial(self):
        prof = cached_radial(3, "const")
        np.testing.assert_array_equal(prof.distance_to_boundary(np.array([0.0, 0.25, 1.0])),
                                      [1.0, 0.75, 0.0])

    def test_distance_to_boundary_disk(self):
        sol = cached_grid("disk", "const", 1.0 / 32)
        pts = np.array([[0.0, 0.0], [0.5, 0.0], [0.6, 0.8]])
        np.testing.assert_allclose(sol.distance_to_boundary(pts), [1.0, 0.5, 0.0], atol=1e-15)
