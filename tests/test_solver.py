import inspect
import json
import math
import re
import weakref

import numpy as np
import pytest

from conftest import (DOMAINS, cached_eigen, cached_grid, cached_mask, cached_radial, make_source,
                      radial_ode_residual)
from hess2 import solver
from hess2._quad import forward_first_derivative
from hess2.domain import AXIS_SLOTS, CENTER, STENCIL, ball, convex_polygon, ellipse, rasterize
from hess2.errors import InputError, SolverError
from hess2.multifrontal import LEAF_LEVELS, dissection_path
from hess2.solver import (
    Lattice,
    ScalarField2D,
    Stencil,
    _first_derivative_row,
    _gmres,
    _hessian,
    _newton_jacobian,
    _stencil_sum,
    admissibility_report,
    build_operators,
    constant_source,
    eigen_source,
    factorized,
    load_solution,
    power_source,
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

    @pytest.mark.parametrize("radius", [1.0, 2.0, 3.0])
    def test_exp_dec_in_dimension_four_is_the_closed_form_branch(self, radius):
        # In N = 4, u = (3/b) ln((1 + c r^2/R^2)/(1 + c)) solves S2(D^2 u) = e^(-b u)
        # on B_R where 216 c^2 / (b^2 (1 + c)^3) = R^4; that is increasing on
        # (0, 2], and Picard finds the shallow root there.
        beta = 0.5
        lo, hi = 0.0, 2.0
        for _ in range(100):
            mid = 0.5 * (lo + hi)
            if 216.0 * mid**2 / (beta**2 * (1.0 + mid) ** 3) < radius**4:
                lo = mid
            else:
                hi = mid
        prof = solve_radial(4, radius, solver.SOURCE_PRESETS["exp-dec"](beta))
        exact = 3.0 / beta * np.log((1.0 + lo * (prof.r / radius) ** 2) / (1.0 + lo))
        assert np.max(np.abs(prof.u - exact)) <= 1e-10 * -prof.u_min

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

    @pytest.mark.parametrize("n_dim", [2, 4, 8])
    def test_every_dimension_scales_with_the_fourth_power(self, n_dim):
        # The grid on [0, 2] is the unit one doubled, exactly, so the eigenvalue
        # divides by 16 to rounding in every dimension, not only in R^3.
        lam1, _ = solve_eigen_radial(n_dim, 1.0)
        lam2, _ = solve_eigen_radial(n_dim, 2.0)
        assert lam2 == pytest.approx(lam1 / 16.0, rel=1e-12)
        with pytest.raises(InputError, match="dimension >= 2"):
            solve_eigen_radial(1, 1.0)

    @pytest.mark.parametrize("n_dim", [2, 4, 8])
    def test_every_dimension_solves_its_ode(self, n_dim):
        lam, prof = solve_eigen_radial(n_dim, 1.0)
        assert prof.ode_residual_sup <= 1e-6
        assert np.max(np.abs(radial_ode_residual(prof, eigen_source(lam)))) <= 1e-6

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
        mask = sol.lattice.mask
        nx, ny = mask.grid_index.shape
        center = mask.grid_index[nx // 2, ny // 2]
        assert sol.u[center] == pytest.approx(-0.5, abs=2e-3)

    def test_disk_constant_matches_closed_form(self):
        sol = cached_grid("disk", "const", 1.0 / 64)
        r2 = np.sum(sol.lattice.mask.node_xy**2, axis=1)
        assert np.max(np.abs(sol.u - (r2 - 1.0) / 2.0)) <= 2e-3

    def test_ellipse_constant_matches_closed_form(self):
        # det D^2 u = 1 on the (2, 1) ellipse has the exact quadratic solution
        # u = x^2/4 + y^2 - 1 with minimum -ab/2 = -1.
        sol = cached_grid("ellipse", "const", 1.0 / 64)
        x, y = sol.lattice.mask.node_xy.T
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
            # all axis neighbours inside
            assert np.all(sol.lattice.mask.columns[list(AXIS_SLOTS), argmin] < sol.u.size)
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

    @pytest.mark.parametrize("domain, k", [
        *(("disk", k) for k in (17, 18, 19, 21, 23, 24, 27, 29, 34, 41)),
        *(("ellipse", k) for k in (17, 19, 20, 26, 30)),
    ])
    def test_constant_source_exact_off_powers_of_two(self, domain, k):
        # These lattices put nodes within rounding of the boundary (k fl(1/k)
        # < 1, or Pythagorean points such as (9/41, 40/41)).  Such nodes are
        # boundary nodes, and the one-sided stencils, exact on quadratics,
        # reproduce the closed-form solution.
        sol = solve_grid2d(DOMAINS[domain](), constant_source(1.0), 1.0 / k)
        x, y = sol.lattice.mask.node_xy.T
        exact = (x**2 + y**2 - 1.0) / 2.0 if domain == "disk" else x**2 / 4.0 + y**2 - 1.0
        assert np.max(np.abs(sol.u - exact)) <= 1e-10

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("scale", [1e-100, 1.0, 1e100])
    @pytest.mark.parametrize("a", [1.0, 2.0], ids=["disk", "ellipse"])
    def test_constant_source_at_every_scale(self, a, scale):
        # On the ellipse with semi-axes (aR, R), det D^2 u = 1 has the solution
        # u = (a R^2/2)(x'^2/a^2 + y'^2 - 1) with x' = x/R, y' = y/R, and
        # |grad u|/R = a |(x'/a^2, y')| on the boundary.
        sol = solve_grid2d(ellipse(a * scale, scale), constant_source(1.0), scale / 10)
        x, y = (sol.lattice.mask.node_xy / scale).T
        exact = a / 2.0 * (x**2 / a**2 + y**2 - 1.0)
        assert np.max(np.abs(sol.u / scale**2 - exact)) <= 1e-10
        feet, grads = sol.boundary_samples()
        fx, fy = (feet / scale).T
        np.testing.assert_allclose(grads / scale, a * np.hypot(fx / a**2, fy), rtol=1e-10)

    def test_boundary_sampling_overflow_is_a_solver_error(self):
        # u near the float maximum: its one-sided derivatives overflow.
        mask = cached_mask("disk", 1.0 / 32)
        sol = ScalarField2D(lattice=Lattice(mask), u=np.full(mask.n_inside, -1e308))
        with pytest.raises(SolverError, match=r"boundary sampling: \|grad u\| overflowed"):
            sol.boundary_samples()

    @pytest.mark.parametrize("vertices,lone", [
        ([[-1.0, -0.8], [1.2, -1.0], [0.9, 1.1], [-0.7, 0.8]], 1),
        ([[0.0, 1.0], [-0.9, -0.6], [1.0, -0.5]], 3)], ids=["skewed-quad", "triangle"])
    def test_boundary_sampling_linear_fallback(self, vertices, lone):
        # A kept crossing whose node has no inside neighbour on the opposite arm
        # takes u linear from the node to the boundary; every other crossing
        # takes the three-point formula through that neighbour.  The opposite
        # neighbour is looked up on the lattice, not through the stencil slots.
        sol = solve_grid2d(convex_polygon(vertices), constant_source(1.0), 1.0 / 16)
        mask, c = sol.lattice.mask, sol.lattice.mask.crossings
        align = np.einsum("ij,ij->i", c.normal, STENCIL[c.slot])
        keep = np.abs(align) >= solver.MIN_NORMAL_ALIGNMENT
        k, offset, align = c.node_index[keep], STENCIL[c.slot[keep]], align[keep]
        i, j = (np.argwhere(mask.grid_index >= 0)[k] - offset).T
        back = mask.grid_index[i, j]
        d1 = mask.theta[k, c.slot[keep]] * mask.h
        linear = back < 0
        assert np.count_nonzero(linear) == lone
        feet, grads = sol.boundary_samples()
        assert np.array_equal(feet, c.foot[keep])
        assert np.array_equal(grads[linear], np.abs(sol.u[k] / d1 / align)[linear])
        three = forward_first_derivative(0.0, sol.u[k[~linear]], sol.u[back[~linear]],
                                         d1[~linear], d1[~linear] + mask.h)
        assert np.array_equal(grads[~linear], np.abs(-three / align[~linear]))

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
DISSECTED_IDS = ["ball", "ellipse", "square", "skewed-quad"]


def _csr(op: Stencil):
    """The stencil operator as a scipy CSR matrix, entry by entry."""
    import scipy.sparse as sp
    n = op.coef.shape[1]
    cols = op.columns[list(op.slots)]
    rows = np.broadcast_to(np.arange(n), cols.shape)
    keep = cols < n
    return sp.csr_matrix((op.coef[keep], (rows[keep], cols[keep])), shape=(n, n))


def _dense(op: Stencil) -> np.ndarray:
    n = op.coef.shape[1]
    a = np.zeros((n, n + 1))   # column n takes the arms that leave the domain
    for k, c in zip(op.slots, op.coef):
        a[np.arange(n), op.columns[k]] += c
    return a[:, :n]


def _laplacian(mask) -> Stencil:
    ops = build_operators(mask)
    return _stencil_sum([(1.0, ops[0, 0]), (1.0, ops[1, 1])])


def _stored(lu) -> list[np.ndarray]:
    """The X and L blocks a factor's solve function holds."""
    return [blk for pair in inspect.getclosurevars(lu).nonlocals["blocks"] for blk in pair]


def _jacobian_at(spec, h):
    """The Newton Jacobian at 0.9 times the grid solution, and a right-hand side."""
    f = make_source("exp-dec")
    sol = solve_grid2d(spec, f, h)
    u = 0.9 * sol.u
    ops = build_operators(sol.lattice.mask)
    hess = _hessian(ops, u)
    return sol.lattice.mask, _newton_jacobian(ops, f, u, hess), f.f(u)


class TestNestedDissection:
    @pytest.mark.parametrize("spec,h", DISSECTED, ids=DISSECTED_IDS)
    def test_order_puts_halves_before_their_cut_line(self, spec, h):
        # Levels of the plan run deepest first.  In every box of the dissection,
        # no node of the two halves is eliminated after a node of the cut line
        # (a leaf eliminates both at once).
        mask = rasterize(spec, h)
        plan, n = Lattice(mask).plan, mask.n_inside
        rank = np.full(n, -1)
        for k, lvl in enumerate(plan.levels):
            rank[lvl.s[lvl.s < n]] = k
        assert np.all(rank >= 0)
        path = dissection_path(mask.grid_index)
        assert np.all(path[-1] == 2)
        cut = (path == 2).argmax(axis=0)
        code = np.zeros(n, dtype=np.int64)
        for level, side in enumerate(path):
            box = np.unique(code, return_inverse=True)[1]
            halves, line = cut > level, cut == level
            last_half = np.full(n, -1)
            np.maximum.at(last_half, box[halves], rank[halves])
            first_line = np.full(n, n)
            np.minimum.at(first_line, box[line], rank[line])
            assert np.all(last_half <= first_line)
            code = 2 * code + side

    @pytest.mark.parametrize("spec,h", DISSECTED, ids=DISSECTED_IDS)
    def test_fronts_cover_each_node_once_and_each_stencil_edge(self, spec, h):
        # Levels run deepest first.  Each node lies in the separator S of one
        # front; a stencil neighbour of it lies in the same S when eliminated
        # on the same level, and in the front's U when eliminated later.
        mask = rasterize(spec, h)
        plan, n = Lattice(mask).plan, mask.n_inside
        level_of, box_of = np.full(n, -1), np.full(n, -1)
        for k, lvl in enumerate(plan.levels):
            b, i = np.nonzero(lvl.s < n)
            assert np.all(level_of[lvl.s[b, i]] == -1)
            level_of[lvl.s[b, i]], box_of[lvl.s[b, i]] = k, b
        assert np.all(level_of >= 0)
        arms = np.delete(mask.columns, CENTER, axis=0)
        m, a = np.nonzero(arms < n)
        c = arms[m, a]
        for k, lvl in enumerate(plan.levels):
            here = level_of[a] == k
            same = here & (level_of[c] == k)
            assert np.array_equal(box_of[a[same]], box_of[c[same]])
            later = here & (level_of[c] > k)
            u = lvl.front[:, lvl.s.shape[1]:]
            b, i = np.nonzero(u < n)
            assert np.all(level_of[u[b, i]] > k)
            assert np.all(np.isin(box_of[a[later]] * n + c[later], b * n + u[b, i]))

    @pytest.mark.parametrize("spec,h", DISSECTED, ids=DISSECTED_IDS)
    def test_cut_lines_separate_the_stencil(self, spec, h):
        mask = rasterize(spec, h)
        path = dissection_path(mask.grid_index)
        arms = np.delete(mask.columns, CENTER, axis=0)
        m, a = np.nonzero(arms < mask.n_inside)
        b = arms[m, a]
        same_box = np.ones(a.size, dtype=bool)
        for side in path:
            # Sides 0 and 1 of one box are never stencil neighbours.
            assert not np.any(same_box & (side[a] + side[b] == 1))
            same_box &= side[a] == side[b]

    def test_ordered_solve_matches_scipy(self):
        # SuperLU, from the test extra, is an independent oracle of the LU.
        from scipy.sparse.linalg import spsolve as scipy_spsolve
        sol = cached_grid("ellipse", "exp-dec", 1.0 / 64)
        mask, f = sol.lattice.mask, make_source("exp-dec")
        ops = build_operators(mask)
        u = 0.9 * sol.u   # off the solution, so the residual is not tiny
        hess = _hessian(ops, u)
        uxx, uyy, uxy = hess[:, 0, 0], hess[:, 1, 1], hess[:, 0, 1]
        jac = _newton_jacobian(ops, f, u, hess)
        rhs = f.f(u) - (uxx * uyy - uxy * uxy)
        expect = scipy_spsolve(_csr(jac).tocsc(), rhs)
        got = factorized(jac, Lattice(mask))(rhs)
        assert np.max(np.abs(got - expect)) <= 1e-12 * np.max(np.abs(expect))


LU_LATTICES = [ball(1.0), ellipse(2.0, 1.0), convex_polygon([[-1, -1], [1, -1], [1, 1], [-1, 1]]),
               convex_polygon([[-1.0, -0.8], [1.2, -1.0], [0.9, 1.1], [-0.7, 0.8]]),
               convex_polygon([[0.0, 0.0], [2.0, 0.0], [2.0, 2.0]])]
LU_IDS = ["disk", "ellipse", "square", "skewed-quad", "triangle"]


class TestMultifrontalLU:
    @staticmethod
    def _check(op: Stencil, mask, b):
        expect = np.linalg.solve(_dense(op), b)
        got = factorized(op, Lattice(mask))(b)
        assert np.max(np.abs(got - expect)) <= 1e-12 * np.max(np.abs(expect))

    @pytest.mark.parametrize("spec", LU_LATTICES, ids=LU_IDS)
    def test_laplacian_solve_matches_dense(self, spec):
        mask = rasterize(spec, 1.0 / 16)
        b = np.random.default_rng(1).standard_normal(mask.n_inside)
        self._check(_laplacian(mask), mask, b)

    @pytest.mark.parametrize("spec", LU_LATTICES, ids=LU_IDS)
    def test_jacobian_solve_matches_dense(self, spec):
        mask, jac, b = _jacobian_at(spec, 1.0 / 16)
        self._check(jac, mask, b)

    @pytest.mark.parametrize("scale", [1e-150, 1e150])
    def test_operators_at_extreme_scales_solve(self, scale):
        # Coefficients near 1/h^2 = 1e+-298: unscaled, the explicit inverses
        # of the pivot blocks would overflow or go subnormal.
        mask = rasterize(ball(scale), scale / 10)
        lap = _laplacian(mask)
        b = np.random.default_rng(2).standard_normal(mask.n_inside)
        got = factorized(lap, Lattice(mask))(b)
        expect = np.linalg.solve(_dense(lap), b)
        assert np.all(np.isfinite(got))
        assert np.max(np.abs(got - expect)) <= 1e-12 * np.max(np.abs(expect))

    @pytest.mark.parametrize("power", [-1024, 1010])
    def test_power_of_two_multiples_solve_bit_for_bit(self, power):
        # The factor first scales the operator by a power of two, so c A x = c b
        # is solved in the same floats as A x = b.  Unscaled, c A's coefficients
        # (exponents 9 to 12 of A, shifted) stay normal, but its pivots' inverses
        # and Schur complements would leave the normal range.
        mask = rasterize(ball(1.0), 1.0 / 16)
        lap, lattice = _laplacian(mask), Lattice(mask)
        b = np.random.default_rng(3).standard_normal(mask.n_inside)
        c = 2.0 ** power
        scaled = Stencil(lap.columns, lap.slots, c * lap.coef)
        d = max(c, 1.0)   # keeps the right-hand side and the solution normal
        assert np.array_equal(factorized(scaled, lattice)(d * b) * (c / d),
                              factorized(lap, lattice)(b))

    def test_singular_operator_is_a_solver_error(self):
        mask = rasterize(ball(1.0), 1.0 / 16)
        lap = _laplacian(mask)
        singular = Stencil(lap.columns, lap.slots, lap.coef.copy())
        singular.coef[:, 17] = 0.0   # an empty row
        with pytest.raises(SolverError, match=rf"of a {mask.n_inside}-node operator failed: "
                                              "singular pivot block"):
            factorized(singular, Lattice(mask))

    @staticmethod
    def _gmres_case():
        """The operators, the `ellipse:2,1` Newton Jacobian at 0.95 times the
        solution with its right-hand side, the lagged factor (at 0.9 times) and
        the lattice."""
        sol, f = cached_grid("ellipse", "exp-dec", 1.0 / 64), make_source("exp-dec")
        lag = factorized(TestNewtonStep._jacobian(sol, f, 0.9)[1], sol.lattice)
        ops, jac, rhs = TestNewtonStep._jacobian(sol, f, 0.95)
        return ops, jac, rhs, lag, sol.lattice

    def test_gmres_contract(self):
        ops, jac, rhs, lag, lattice = self._gmres_case()
        step = _gmres(jac, rhs, lag)
        assert np.linalg.norm(rhs - jac @ step) <= solver.GMRES_RTOL * np.linalg.norm(rhs)
        # With the exact factor one step meets the tolerance, and x = Z y reuses
        # that step's preconditioner solve: one solve in all.
        exact, calls = factorized(jac, lattice), []
        step = _gmres(jac, rhs, lambda r: calls.append(r) or exact(r))
        expect = exact(rhs)
        assert len(calls) == 1
        assert np.max(np.abs(step - expect)) <= 1e-12 * np.max(np.abs(expect))
        # The Laplacian's factor meets the tolerance here too (in 4 steps); the
        # factor of u_yy alone misses, after GMRES_RESTART steps and no restart.
        uyy, calls = factorized(ops[1, 1], lattice), []
        assert _gmres(jac, rhs, lambda r: calls.append(r) or uyy(r)) is None
        assert len(calls) == solver.GMRES_RESTART

    def test_gmres_scales_huge_right_hand_sides_exactly(self):
        # |b| of 2^1000 b overflows; GMRES scales b by a power of two first.
        _, jac, rhs, lag, _ = self._gmres_case()
        big, c = _gmres(jac, 2.0 ** 1000 * rhs, lag), 2.0 ** 1000
        assert np.array_equal(big, c * _gmres(jac, rhs, lag))
        assert np.linalg.norm(rhs - jac @ (big / c)) <= solver.GMRES_RTOL * np.linalg.norm(rhs)

    def test_newton_factor_is_float32_at_half_the_bytes(self):
        mask, jac, b = _jacobian_at(ellipse(2.0, 1.0), 1.0 / 16)
        lattice = Lattice(mask)
        _, newton = spsolve(jac, b, lattice, None)
        full = factorized(jac, lattice)
        assert all(blk.dtype == np.float32 for blk in _stored(newton))
        assert all(blk.dtype == np.float64 for blk in _stored(full))
        assert sum(blk.nbytes for blk in _stored(newton)) <= \
            sum(blk.nbytes for blk in _stored(full)) / 2

    @staticmethod
    def _extreme_jacobian(scale):
        """The const:1 Newton Jacobian at 0.9 times the solution on the disk of
        radius `scale`, h = scale/10, and its right-hand side."""
        f = constant_source(1.0)
        sol = solve_grid2d(ball(scale), f, scale / 10)
        return (sol.lattice.mask, *TestNewtonStep._jacobian(sol, f, 0.9)[1:])

    @pytest.mark.parametrize("case", [*LU_LATTICES, 1e-150, 1e150],
                             ids=[*LU_IDS, "disk-1e-150", "disk-1e150"])
    def test_float32_factor_preconditions_gmres(self, case):
        if isinstance(case, float):
            mask, jac, b = self._extreme_jacobian(case)
        else:
            mask, jac, b = _jacobian_at(case, 1.0 / 16)
        step = _gmres(jac, b, factorized(jac, Lattice(mask), np.float32))
        assert step is not None
        assert np.linalg.norm(b - jac @ step) <= solver.GMRES_RTOL * np.linalg.norm(b)

    @pytest.mark.parametrize("power", [-1000, 1000])
    def test_float32_solve_scales_the_right_hand_side_exactly(self, power):
        # Unscaled, 2^+-1000 b would overflow or vanish in float32.
        mask, jac, b = _jacobian_at(ball(1.0), 1.0 / 16)
        lu = factorized(jac, Lattice(mask), np.float32)
        x = lu(b)
        assert np.array_equal(lu(2.0 ** power * b), 2.0 ** power * x)
        assert np.max(np.abs(x - np.linalg.solve(_dense(jac), b))) <= 1e-3 * np.max(np.abs(x))


SIZED = [(spec, 1.0 / 16) for spec in LU_LATTICES] + [(ball(1.0), 1.0 / 64)]
SIZED_IDS = LU_IDS + ["disk-64"]


class TestSizeClasses:
    @staticmethod
    def _sizes(cls, n):
        """Per box of a class: its own |S| and |U|; and the class's padded S and U."""
        ns = cls.s.shape[1]
        return ((cls.s < n).sum(axis=1), (cls.front[:, ns:] < n).sum(axis=1),
                ns, cls.front.shape[1] - ns)

    @pytest.mark.parametrize("spec,h", SIZED, ids=SIZED_IDS)
    def test_no_box_is_padded_to_twice_its_width(self, spec, h):
        # A class holds one power-of-two range of front widths |S| + |U|, and
        # pads S and U to its largest: each stays below twice any box's width.
        mask = rasterize(spec, h)
        n = mask.n_inside
        for cls in Lattice(mask).plan.levels:
            own_s, own_u, pad_s, pad_u = self._sizes(cls, n)
            width = own_s + own_u
            assert pad_s == own_s.max() and pad_u == own_u.max()
            assert np.all((pad_s < 2 * width) & (pad_u < 2 * width) | (pad_s + pad_u == 0))

    @pytest.mark.parametrize("spec,h", SIZED, ids=SIZED_IDS)
    def test_every_node_is_eliminated_once(self, spec, h):
        mask = rasterize(spec, h)
        n = mask.n_inside
        s = np.concatenate([cls.s[cls.s < n] for cls in Lattice(mask).plan.levels])
        assert np.array_equal(np.sort(s), np.arange(n))

    def test_split_levels_solve_matches_scipy(self):
        # On the h = 1/64 disk some dissection levels split into two or more
        # classes; the Laplacian and Jacobian solves still match SuperLU.
        from scipy.sparse.linalg import spsolve as scipy_spsolve
        sol, f = cached_grid("disk", "exp-dec", 1.0 / 64), make_source("exp-dec")
        mask = sol.lattice.mask
        lattice, n = Lattice(mask), mask.n_inside
        path = dissection_path(mask.grid_index)
        level = np.minimum((path == 2).argmax(axis=0), path.shape[0] - 1 - LEAF_LEVELS)
        # The level of each class with separator nodes (some classes have none).
        level_of_class = [np.unique(level[cls.s[cls.s < n]]) for cls in lattice.plan.levels]
        assert all(lv.size <= 1 for lv in level_of_class)
        per_level = np.bincount(np.concatenate(level_of_class))
        assert np.count_nonzero(per_level >= 2) >= 2
        u = 0.9 * sol.u
        ops = build_operators(mask)
        jac = _newton_jacobian(ops, f, u, _hessian(ops, u))
        b = np.random.default_rng(4).standard_normal(n)
        for op in (_laplacian(mask), jac):
            expect = scipy_spsolve(_csr(op).tocsc(), b)
            got = factorized(op, lattice)(b)
            assert np.max(np.abs(got - expect)) <= 1e-12 * np.max(np.abs(expect))


class TestNewtonStep:
    @staticmethod
    def _jacobian(sol, f, scale):
        ops = build_operators(sol.lattice.mask)
        u = scale * sol.u
        hess = _hessian(ops, u)
        uxx, uyy, uxy = hess[:, 0, 0], hess[:, 1, 1], hess[:, 0, 1]
        return ops, _newton_jacobian(ops, f, u, hess), f.f(u) - (uxx * uyy - uxy * uxy)

    def test_lagged_factor_meets_the_gmres_tolerance(self):
        sol, f = cached_grid("ellipse", "exp-dec", 1.0 / 64), make_source("exp-dec")
        first = factorized(self._jacobian(sol, f, 0.9)[1], sol.lattice)
        _, jac, rhs = self._jacobian(sol, f, 0.95)
        step, lu = spsolve(jac, rhs, sol.lattice, first)
        assert lu is first
        assert np.linalg.norm(jac @ step - rhs) <= solver.GMRES_RTOL * np.linalg.norm(rhs)

    def test_stale_factor_falls_back_to_a_fresh_one(self):
        # GMRES misses with the Laplacian's factor; the Jacobian is factored in
        # float32 and GMRES runs again, preconditioned by that factor.
        f = make_source("exp-dec")
        sol = solve_grid2d(convex_polygon([[1, -1], [1, 1], [-1, 1], [-1, -1]]), f, 1.0 / 64)
        ops, jac, rhs = self._jacobian(sol, f, 0.9)
        lap = factorized(_stencil_sum([(1.0, ops[0, 0]), (1.0, ops[1, 1])]), sol.lattice)
        assert _gmres(jac, rhs, lap) is None
        step, lu = spsolve(jac, rhs, sol.lattice, lap)
        assert lu is not lap
        assert all(blk.dtype == np.float32 for blk in _stored(lu))
        assert np.array_equal(step, _gmres(jac, rhs, factorized(jac, sol.lattice, np.float32)))
        assert np.linalg.norm(jac @ step - rhs) <= solver.GMRES_RTOL * np.linalg.norm(rhs)

    def test_missed_fresh_factor_is_a_solver_error(self, monkeypatch, tmp_path, capsys):
        # Where GMRES misses with the fresh float32 factor too, spsolve returns
        # no step, and the solve stops there, naming the step and its residual:
        # through the CLI, exit 3 and one line.
        from hess2.cli import main
        mask, jac, rhs = _jacobian_at(SQUARE, 1.0 / 16)
        monkeypatch.setattr(solver, "_gmres", lambda a, b, precond: None)
        step, lu = spsolve(jac, rhs, Lattice(mask), None)
        assert step is None and all(blk.dtype == np.float32 for blk in _stored(lu))
        message = (r"Newton step 1: GMRES with a fresh Jacobian factor found no finite step "
                   r"within its tolerance \(residual \d\.\d{3}e[-+]\d+\)")
        with pytest.raises(SolverError, match=rf"^{message}$"):
            solve_grid2d(SQUARE, make_source("exp-dec"), 1.0 / 16)
        argv = ["solve", "--grid2d", "--domain", "polygon:-1,-1;1,-1;1,1;-1,1", "--f", "exp-dec",
                "--h", "0.0625", "--out", str(tmp_path / "s")]
        assert main(argv) == 3
        printed = capsys.readouterr()
        assert re.fullmatch(rf"solver failure: {message}\n", printed.out)
        assert printed.err == "" and not (tmp_path / "s").exists()


class TestWarmStartFactor:
    def test_laplacian_factor_is_freed_before_newton(self, monkeypatch):
        # Newton never reads the warm start's Laplacian factor: it must be gone
        # (no reference left) by the first Newton solve.
        real_factorized, real_spsolve = solver.factorized, solver.spsolve
        factors, alive_at_newton = [], []

        def factorized(a, lattice, *dtype):
            solve = real_factorized(a, lattice, *dtype)
            factors.append(weakref.ref(solve))
            return solve

        def spsolve(*args):
            if not alive_at_newton:
                alive_at_newton.append(factors[0]() is not None)
            return real_spsolve(*args)

        monkeypatch.setattr(solver, "factorized", factorized)
        monkeypatch.setattr(solver, "spsolve", spsolve)
        # Ellipses start in closed form; only polygons factor the Laplacian.
        sol = solve_grid2d(SQUARE, make_source("exp-dec"), 1.0 / 16)
        assert sol.newton_iterations > 0
        assert alive_at_newton == [False]


class TestClosedFormStart:
    LATTICES = (16, 37, 64, 128)

    @pytest.fixture
    def calls(self, monkeypatch):
        """Constructions of `multifrontal.Plan` and calls of `factorized`, counted."""
        from hess2 import multifrontal
        calls = {"Plan": 0, "factorized": 0}
        for owner, name in ((multifrontal, "Plan"), (solver, "factorized")):
            def counted(*args, _real=getattr(owner, name), _name=name):
                calls[_name] += 1
                return _real(*args)
            monkeypatch.setattr(owner, name, counted)
        return calls

    @pytest.mark.parametrize("k", LATTICES)
    def test_quadratic_solution_builds_no_plan_and_no_factor(self, calls, k):
        sol = solve_grid2d(ball(1.0), constant_source(1.0), 1.0 / k)
        assert calls == {"Plan": 0, "factorized": 0}
        assert sol.newton_iterations == 0

    def test_conic_newton_factors_only_its_jacobian(self, calls):
        sol = solve_grid2d(ellipse(2.0, 1.0), make_source("exp-dec"), 1.0 / 16)
        assert sol.newton_iterations > 0
        assert calls == {"Plan": 1, "factorized": 1}

    @pytest.mark.parametrize("spec, f, u_min", [
        (ball(3.0), "power:1,1.5", -155.37099553682108),
        (ellipse(3.0, 1.0), "power:1,0.5", -1.5309521278213345)], ids=["disk3", "ellipse3-1"])
    def test_power_newton_factors_its_jacobian_once(self, calls, spec, f, u_min):
        # Flexible GMRES meets its tolerance with the first Jacobian's float32
        # factor at every step (an x = M^-1 (V y) GMRES refactored 6 and 2 times).
        sol = solve_grid2d(spec, make_source(f), 1.0 / 32)
        assert calls == {"Plan": 1, "factorized": 1}
        assert sol.u_min == pytest.approx(u_min, rel=1e-9)

    def test_square_factors_its_laplacian_and_its_jacobian(self, calls):
        solve_grid2d(SQUARE, make_source("exp-dec"), 1.0 / 16)
        assert calls == {"Plan": 1, "factorized": 2}

    @pytest.mark.parametrize("spec, k", [
        *((ball(1.0), k) for k in LATTICES), *((ellipse(2.0, 1.0), k) for k in LATTICES),
        (ball(3.0), 19)], ids=[*(f"disk-{k}" for k in LATTICES),
                              *(f"ellipse-{k}" for k in LATTICES), "disk3-19"])
    def test_warm_start_matches_the_laplacian_lu(self, calls, spec, k):
        # On finer disk:3 lattices the LU's own rounding passes 1e-13 (1.4e-12
        # relative at h = 1/64), while the closed form's defect stays small.
        mask = rasterize(spec, 1.0 / k)
        u, _ = solver._warm_start(Lattice(mask), constant_source(1.0))
        assert calls == {"Plan": 0, "factorized": 0}
        expect = factorized(_laplacian(mask), Lattice(mask))(np.full(u.size, 2.0))
        assert np.max(np.abs(u - expect)) <= 1e-13 * np.max(np.abs(u))


SQUARE = convex_polygon([[-1, -1], [1, -1], [1, 1], [-1, 1]])


class TestNewtonStop:
    @pytest.mark.parametrize("spec", [ball(1.0), ellipse(2.0, 1.0)], ids=["disk", "ellipse"])
    @pytest.mark.parametrize("k", [-40, 0, 14, 40])
    def test_constant_sources_scale_bit_for_bit(self, spec, k):
        # For f = 2^k the start, each Newton step and the stop scale by powers
        # of two, so u is 2^(k/2) times the f = 1 solution in floating point too.
        base = solve_grid2d(spec, constant_source(1.0), 1.0 / 32)
        sol = solve_grid2d(spec, constant_source(2.0 ** k), 1.0 / 32)
        assert sol.newton_iterations == base.newton_iterations
        assert np.array_equal(sol.u / 2.0 ** (k // 2), base.u)

    def test_tiny_constant_source_reaches_the_closed_form(self):
        # The start u0 = 0.8 of the solution, -1e-6 (x^2/4 + y^2 - 1), has
        # |S2 - f| = 3.6e-13, below an absolute 1e-10: the stop must scale with f.
        sol = solve_grid2d(ellipse(2.0, 1.0), constant_source(1e-12), 1.0 / 32)
        assert sol.newton_iterations > 0
        assert sol.u_min == pytest.approx(-1e-6, rel=1e-14)


class TestRadialStops:
    KS = (-12, -4, 0, 4, 12)

    @pytest.mark.parametrize("p", [0.5, 1.5, None], ids=["p0.5", "p1.5", "const"])
    def test_picard_solves_scale_with_the_radius(self, p):
        # u_R(x) = R^2 u(x/R) solves the problem on B_R with lam_R = R^(-2p)
        # (f = 1 for the constant source), so u_min / R^2 must not depend on R.
        ratios = []
        for k in self.KS:
            radius = 2.0 ** k
            f = constant_source(1.0) if p is None else power_source(radius ** (-2 * p), p)
            ratios.append(solve_radial(3, radius, f).u_min / radius**2)
        assert ratios == pytest.approx([ratios[2]] * len(self.KS), rel=1e-9)

    def test_eigenvalue_scales_with_the_fourth_power_of_the_radius(self):
        scaled = [solve_eigen_radial(2, 2.0 ** k)[0] * 2.0 ** (4 * k) for k in self.KS]
        assert scaled == pytest.approx([scaled[2]] * len(self.KS), rel=1e-9)

    def test_unconverged_picard_names_its_amplitude(self):
        # Just below the fold R* ~ 2.718 of exp-dec:0.5 in N = 3 the Picard map
        # barely contracts, and the iterate is still growing after the last pass.
        with pytest.raises(SolverError, match=r"did not converge \(last delta .* at max \|u\| .* "
                           r"after \d+ passes, from max \|u\| \S+ after pass 1\)"):
            solve_radial(3, 2.717, solver.exp_decreasing_source(0.5))


class TestRadialShapePasses:
    # u_min of power:1,p on the unit ball (1024 nodes) by plain Picard passes,
    # which took 22 to 391 passes, and the first eigenvalue by inverse iteration
    # stopped at |delta lambda| <= 1e-11 lambda.
    PICARD_U_MIN = {(2, 0.5): -0.353796072176438, (2, 1.5): -0.023678939464705086,
                    (2, 1.85): -1.9530702712559812e-06, (3, 0.5): -0.1649070337246389,
                    (3, 1.5): -0.0019089805637377225, (3, 1.85): -3.277517627970842e-10}
    EIGENVALUES = {2: 7.490039398670692, 3: 28.143464172961405, 4: 68.27035337289051,
                   5: 134.82920302741917, 6: 235.4200566809176, 7: 378.2739917146456,
                   8: 572.2425190077413}

    @pytest.mark.parametrize("n_dim, p", list(PICARD_U_MIN))
    def test_shape_passes_match_plain_picard(self, n_dim, p):
        prof = solve_radial(n_dim, 1.0, power_source(1.0, p))
        assert prof.u_min == pytest.approx(self.PICARD_U_MIN[n_dim, p], rel=1e-11)
        assert prof.picard_iterations <= 20

    @pytest.mark.parametrize("n_dim, p, u_min, shooting", [
        (2, 1.9, -2.373517688367424e-09, -2.3735e-9),
        (2, 1.99, -4.6897363329842796e-88, -4.6897e-88),
        (3, 1.9, -4.8313701498013146e-15, -4.8314e-15),
        (3, 1.99, -1.736600658449164e-145, -1.7366e-145)])
    def test_exponents_near_two_solve(self, n_dim, p, u_min, shooting):
        # The values agree with an initial-value solve from the centre
        # (shooting) to the 5 digits it was recorded with.
        prof = solve_radial(n_dim, 1.0, power_source(1.0, p))
        assert prof.u_min == pytest.approx(u_min, rel=1e-9)
        assert prof.u_min == pytest.approx(shooting, rel=1e-4)
        assert prof.ode_residual_sup <= 1e-6 * (-prof.u_min) ** p

    @pytest.mark.parametrize("p", [0.5, 1.5])
    def test_amplitude_follows_the_scaling_law(self, p):
        # u = lam^(1/(2-p)) (shape): the shape passes do not see lam at all.
        ratios = [solve_radial(3, 1.0, power_source(2.0 ** k, p)).u_min / 2.0 ** (k / (2 - p))
                  for k in (-20, -3, 0, 5, 20)]
        assert ratios == pytest.approx([ratios[2]] * 5, rel=1e-14)

    @pytest.mark.parametrize("n_dim", list(EIGENVALUES))
    def test_eigenvalues_match_inverse_iteration(self, n_dim):
        lam, _ = solve_eigen_radial(n_dim, 1.0)
        assert lam == pytest.approx(self.EIGENVALUES[n_dim], rel=1e-11)

    @pytest.mark.parametrize("lam, value", [(2.0 ** 20, "inf"), (2.0 ** -20, r"0\.000e\+00")])
    def test_amplitude_out_of_float_range_is_named(self, lam, value):
        with pytest.raises(SolverError, match=f"radial solve amplitude A = {value} takes u or "
                           "u' out of float range in dimension 2"):
            solve_radial(2, 1.0, power_source(lam, 1.99))


class TestPowerStart:
    @pytest.mark.parametrize("spec", [ball(3.0), ellipse(1.0, 2.5), ellipse(6.0, 3.0)],
                             ids=["disk3", "ellipse1-2.5", "ellipse6-3"])
    def test_power_source_solves_on_domains_of_every_size(self, spec):
        # From the start Delta u0 = 1 these stalled; the start now scales with
        # the domain as the exact solutions do.
        sol = solve_grid2d(spec, power_source(1.0, 0.5), 1.0 / 16)
        assert sol.residual_sup <= 2.0**-35 * (-sol.u_min) ** 0.5

    def test_start_scales_with_lam_and_the_domain(self):
        # c = lam^(1/(2-p)) L^(2p/(2-p)), L the radius of the disk of equal area.
        assert solver._start_laplacian(ball(1.0), power_source(1.0, 0.5)) == 1.0
        assert solver._start_laplacian(ellipse(8.0, 2.0), power_source(1.0, 0.5)) == \
            pytest.approx(4.0 ** (2.0 / 3.0), rel=1e-15)
        assert solver._start_laplacian(SQUARE, power_source(8.0, 1.0)) == \
            pytest.approx(8.0 * 4.0 / math.pi, rel=1e-15)
        assert solver._start_laplacian(ball(1.0), power_source(1.0, 2.5)) == 1.0

    def test_tiny_lam_starts_at_its_scale(self):
        # u scales as lam^(1/(2-p)); from Delta u0 = 1, lam = 1e-20 took 49 steps.
        base = solve_grid2d(ball(1.0), power_source(1.0, 0.5), 1.0 / 16)
        sol = solve_grid2d(ball(1.0), power_source(1e-20, 0.5), 1.0 / 16)
        assert sol.newton_iterations <= base.newton_iterations + 1
        assert sol.u_min == pytest.approx(1e-20 ** (2.0 / 3.0) * base.u_min, rel=1e-12)


class TestOperators:
    def test_solve_builds_only_the_second_derivatives(self):
        sol = solve_grid2d(ball(1.0), constant_source(1.0), 1.0 / 32)
        assert set(sol.lattice.ops) == {(0, 0), (0, 1), (1, 1)}

    @pytest.mark.parametrize("spec", [ellipse(2.0, 1.0), SQUARE], ids=["ellipse", "square"])
    def test_gradient_is_the_first_derivative_stencil_bit_for_bit(self, spec):
        import scipy.sparse as sp
        sol = solve_grid2d(spec, make_source("exp-dec"), 1.0 / 32)
        mask, n = sol.lattice.mask, sol.lattice.mask.n_inside
        expect = []
        for ip, im in ((7, 1), (5, 3)):   # the slots of +/- x, then +/- y
            cc, cp, cm = _first_derivative_row(mask.theta[:, ip], mask.theta[:, im], mask.h)
            rows, cols, vals = [np.arange(n)], [np.arange(n)], [cc]
            for m, coeff in ((ip, cp), (im, cm)):
                has = mask.columns[m] < n
                rows.append(np.nonzero(has)[0])
                cols.append(mask.columns[m, has])
                vals.append(coeff[has])
            op = sp.csr_matrix((np.concatenate(vals),
                                (np.concatenate(rows), np.concatenate(cols))), shape=(n, n))
            expect.append(op @ sol.u)
        assert np.array_equal(sol.gradient(), np.column_stack(expect))
        assert set(sol.lattice.ops) == {(0, 0), (0, 1), (1, 1)}   # the gradient keeps nothing

    def test_gradient_first_on_a_fresh_mask(self):
        # On a lattice that has built nothing yet, the gradient builds its own
        # stencils and the Hessian still gets its second derivatives.
        sol = cached_grid("ellipse", "exp-dec", 1.0 / 64)
        mask = sol.lattice.mask
        fresh = ScalarField2D(lattice=Lattice(rasterize(mask.spec, mask.h)), u=sol.u)
        assert np.array_equal(fresh.gradient(), sol.gradient())
        assert np.array_equal(fresh.hessian(), sol.hessian())

    def test_overflowing_coefficients_refused(self):
        with pytest.raises(InputError, match=r"^--h 1e-154 on --domain disk:1e-153 is out"):
            build_operators(rasterize(ball(1e-153), 1e-154))

    def test_singular_factor_is_a_solver_error(self):
        mask = rasterize(ball(1.0), 1.0 / 16)
        ops = build_operators(mask)
        # u_xx alone has no coupling in y: its x-lines are independent, and a
        # zero row makes the whole operator singular.
        op = Stencil(ops[0, 0].columns, ops[0, 0].slots, ops[0, 0].coef.copy())
        op.coef[:, 0] = 0.0
        with pytest.raises(SolverError, match="singular pivot block"):
            factorized(op, Lattice(mask))

    def test_operator_nnz_counts_the_centre_and_the_arms_that_stay_inside(self):
        mask = rasterize(ellipse(2.0, 1.0), 1.0 / 16)
        ops = build_operators(mask)
        for key in ((0, 0), (0, 1), (1, 1)):
            assert ops[key].nnz == _csr(ops[key]).nnz

    def test_stencil_matvec_is_csr_bit_for_bit(self):
        sol = cached_grid("ellipse", "exp-dec", 1.0 / 64)
        ops = build_operators(sol.lattice.mask)
        for key in ((0, 0), (0, 1), (1, 1)):
            assert np.array_equal(ops[key] @ sol.u, _csr(ops[key]) @ sol.u)


class TestAdmissibilityCounterexample:
    def test_inadmissible_field_flagged(self):
        sol = cached_grid("disk", "const", 1.0 / 64)
        bad = sol._replace(u=-sol.u)  # concave bump: Delta u < 0
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
        assert back.lattice.mask.n_inside == sol.lattice.mask.n_inside
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
        spec, again = sol.lattice.mask.spec, back.lattice.mask.spec
        assert again.kind == spec.kind and again.semi_axes == spec.semi_axes
        assert again.center.tobytes() == spec.center.tobytes()
        assert (spec.vertices is None) == (again.vertices is None)
        if spec.vertices is not None:
            assert again.vertices.tobytes() == spec.vertices.tobytes()
        assert back.u.tobytes() == sol.u.tobytes()
        assert back.lattice.mask.node_xy.tobytes() == sol.lattice.mask.node_xy.tobytes()
        assert back.lattice.mask.theta.tobytes() == sol.lattice.mask.theta.tobytes()
        assert back.residual_sup == sol.residual_sup

    @pytest.mark.parametrize("change, message", [
        ({"schema": 1}, "unsupported solution schema 1"),
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
        hess = _hessian(build_operators(sol.lattice.mask), sol.u)
        uxx, uyy, uxy = hess[:, 0, 0], hess[:, 1, 1], hess[:, 0, 1]
        assert admissibility_report(sol).min_s2 == float(np.min(uxx * uyy - uxy * uxy))

    @pytest.mark.parametrize("domain", ["disk", "ellipse"])
    def test_planar_cofactor_matches_the_closed_form(self, domain):
        # In the plane S1 I - H has the spectrum of H: its least eigenvalue is
        # the closed-form lambda_min of the 2 x 2 Hessian.
        sol = cached_grid(domain, "const", 1.0 / 64)
        hess = _hessian(build_operators(sol.lattice.mask), sol.u)
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
        assert prof.hessian().shape == (prof.r.size, 2, 2)
        assert prof.gradient().shape == (prof.r.size, 2)

    def test_planar_frame_is_x_y(self):
        sol = cached_grid("disk", "const", 1.0 / 32)
        assert sol.multiplicity == (1, 1)
        assert sol.gradient().shape == (sol.lattice.mask.n_inside, 2)
        hess = sol.hessian()
        assert hess.shape == (sol.lattice.mask.n_inside, 2, 2)
        assert np.array_equal(hess[:, 0, 1], hess[:, 1, 0])

    def test_distance_to_boundary_radial(self):
        prof = cached_radial(3, "const")
        np.testing.assert_array_equal(
            prof.distance_to_boundary(np.array([[0.0], [0.25], [1.0]])), [1.0, 0.75, 0.0])

    def test_distance_to_boundary_disk(self):
        sol = cached_grid("disk", "const", 1.0 / 32)
        pts = np.array([[0.0, 0.0], [0.5, 0.0], [0.6, 0.8]])
        np.testing.assert_allclose(sol.distance_to_boundary(pts), [1.0, 0.5, 0.0], atol=1e-15)
