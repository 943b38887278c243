import numpy as np
import pytest

from hess2.domain import (
    ARM_MIN,
    AXIS_SLOTS,
    CENTER,
    STENCIL,
    DomainSpec,
    assert_convex,
    ball,
    convex_polygon,
    ellipse,
    is_inside,
    polygon_is_convex,
    rasterize,
    ray_crossing,
    signed_distance,
)
from hess2.errors import InputError

SQUARE = [[-1.0, -1.0], [1.0, -1.0], [1.0, 1.0], [-1.0, 1.0]]
L_SHAPE = [[0.0, 0.0], [2.0, 0.0], [2.0, 1.0], [1.0, 1.0], [1.0, 2.0], [0.0, 2.0]]
SKEWED_QUAD = [[-1.0, -0.8], [1.2, -1.0], [0.9, 1.1], [-0.7, 0.8]]


class TestSpecs:
    def test_ball_rejects_bad_radius(self):
        with pytest.raises(InputError):
            ball(0.0)

    def test_disk_is_an_ellipse_with_equal_semi_axes(self):
        disk = ball(1.5)
        assert disk.kind == "ellipse" and disk.semi_axes == (1.5, 1.5)
        assert disk.label() == "disk:1.5" and ellipse(1.5, 1.5).label() == "disk:1.5"
        assert ellipse(2.0, 1.0).label() == "ellipse:2,1"

    def test_ellipse_rejects_bad_axes(self):
        with pytest.raises(InputError):
            ellipse(2.0, -1.0)

    def test_polygon_rejects_nonconvex(self):
        with pytest.raises(InputError):
            convex_polygon(L_SHAPE)

    @pytest.mark.parametrize("k,step", [(5, 2), (7, 2), (7, 3)])
    def test_polygon_rejects_star(self, k, step):
        # Every turn of the star {k/step} has one sign, but the turns wind step times.
        t = 2.0 * np.pi * np.arange(k) / k
        star = np.column_stack([np.sin(step * t), np.cos(step * t)])
        assert not polygon_is_convex(star) and not polygon_is_convex(star[::-1])
        with pytest.raises(InputError, match="not strictly convex"):
            convex_polygon(star)
        hull = np.column_stack([np.sin(t), np.cos(t)])
        assert polygon_is_convex(hull) and polygon_is_convex(hull[::-1])

    def test_convexity_verdicts(self):
        assert assert_convex(ball(1.0))
        assert assert_convex(ellipse(2.0, 1.0))
        assert assert_convex(convex_polygon(SQUARE))
        assert not polygon_is_convex(L_SHAPE)
        bad = DomainSpec(kind="polygon", center=np.zeros(2),
                         vertices=np.asarray(L_SHAPE))
        assert not assert_convex(bad)


class TestSignedDistance:
    def test_unit_disk_center(self):
        assert signed_distance(ball(1.0), [[0.0, 0.0]]) == pytest.approx([-1.0])

    def test_unit_disk_outside(self):
        assert signed_distance(ball(1.0), [[2.0, 0.0]]) == pytest.approx([1.0])

    def test_square_inside_point(self):
        assert signed_distance(convex_polygon(SQUARE), [[0.5, 0.0]]) == pytest.approx([-0.5])

    def test_square_outside_corner(self):
        d = signed_distance(convex_polygon(SQUARE), [[2.0, 2.0]])
        assert d == pytest.approx([np.sqrt(2.0)])

    def test_ellipse_axis_points(self):
        d = signed_distance(ellipse(2.0, 1.0), [[0.0, 0.0], [3.0, 0.0], [0.0, 2.0]])
        assert d == pytest.approx([-1.0, 1.0, 1.0], abs=1e-12)

    def test_ellipse_against_brute_force(self):
        spec = ellipse(2.0, 1.0)
        theta = np.linspace(0.0, 2 * np.pi, 400000, endpoint=False)
        bnd = np.column_stack([2.0 * np.cos(theta), np.sin(theta)])
        rng = np.random.default_rng(0)
        pts = rng.uniform(-3.0, 3.0, size=(40, 2))
        d = signed_distance(spec, pts)
        for k, p in enumerate(pts):
            brute = np.min(np.linalg.norm(bnd - p, axis=1))
            # Tolerance is the boundary sampling error, not the solver's.
            assert abs(abs(d[k]) - brute) <= 1e-7

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_ellipse_beyond_1e77(self):
        # The bisection squares products of two lengths, which overflowed here.
        pts = np.array([[1e99, 2e99], [3e100, 0.0], [0.0, 5e99], [-1e100, 1e100]])
        big = signed_distance(ellipse(2e100, 1e100), pts)
        np.testing.assert_allclose(big, 1e100 * signed_distance(ellipse(2.0, 1.0), pts / 1e100),
                                   rtol=1e-12)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("k", [-500, -40, 3, 250])
    def test_ellipse_distance_scales_by_powers_of_two_exactly(self, k):
        rng = np.random.default_rng(2)
        pts = np.vstack([rng.uniform(-3.0, 3.0, size=(40, 2)), [[0.5, 0.0], [0.0, 0.25]]])
        scale = 2.0 ** k
        unit = signed_distance(ellipse(2.0, 1.0), pts)
        assert np.array_equal(signed_distance(ellipse(2.0 * scale, scale), pts * scale),
                              scale * unit)

    def test_lipschitz_along_segments(self):
        rng = np.random.default_rng(1)
        for spec in (ball(1.5), ellipse(2.0, 1.0), convex_polygon(SQUARE)):
            for _ in range(30):
                x, y = rng.uniform(-2.5, 2.5, size=(2, 2))
                dx = signed_distance(spec, x)
                dy = signed_distance(spec, y)
                assert abs(dx - dy) <= np.linalg.norm(x - y) + 1e-10


class TestNormalsAndCrossings:
    @pytest.mark.parametrize("spec", [ball(1.0), ellipse(2.0, 1.0),
                                      convex_polygon(SQUARE)])
    def test_normals_unit_and_outward(self, spec):
        mask = rasterize(spec, 0.1)
        crossings = mask.crossings
        for n, foot in zip(crossings.normal[::7], crossings.foot[::7]):
            assert np.linalg.norm(n) == pytest.approx(1.0, abs=1e-12)
            assert n @ (foot - spec.center) > 0

    def test_crossing_on_boundary(self):
        spec = ellipse(2.0, 1.0)
        mask = rasterize(spec, 0.05)
        a, b = spec.semi_axes
        for x, y in mask.crossings.foot[::11]:
            assert (x / a) ** 2 + (y / b) ** 2 == pytest.approx(1.0, abs=1e-12)

    def test_ray_crossing_exact_disk(self):
        # From outside, a ray pointing away meets the boundary nowhere ahead: NaN.
        t = ray_crossing(ball(1.0), [[0.5, 0.0], [2.0, 0.0]], [1.0, 0.0])
        assert t[0] == pytest.approx(0.5)
        assert np.isnan(t[1])


class TestRasterize:
    def test_unit_disk_inside_count_is_integer_point_count(self):
        # The 1/16-lattice about the center is exact in binary: its nodes strictly
        # inside the unit disk are the integer points (i, j) with i^2 + j^2 < 16^2.
        mask = rasterize(ball(1.0), 1.0 / 16.0)
        i = np.arange(-16, 17)
        assert mask.n_inside == np.count_nonzero(i[:, None] ** 2 + i**2 < 256) == 793

    def test_nodes_on_the_boundary_become_boundary_nodes(self):
        # (+-9, +-40)/41 and (+-40, +-9)/41 lie on the unit circle, inside it to
        # rounding.  They are dropped, so the inside nodes are again the integer
        # points strictly inside, and an arm pointing at one ends there.
        h = 1.0 / 41.0
        mask = rasterize(ball(1.0), h)
        i = np.arange(-41, 42)
        assert mask.n_inside == np.count_nonzero(i[:, None] ** 2 + i**2 < 41**2)
        row = np.flatnonzero(np.all(np.round(mask.node_xy / h) == [8, 40], axis=1))[0]
        assert mask.columns[7, row] == mask.n_inside and mask.theta[row, 7] == 1.0   # +x arm

    def test_area_scaling_on_refinement(self):
        coarse = rasterize(ball(1.0), 1.0 / 16.0)
        fine = rasterize(ball(1.0), 1.0 / 32.0)
        ratio = fine.n_inside / coarse.n_inside
        assert 0.9 * 4 <= ratio <= 1.1 * 4

    def test_interior_nodes_clear_of_boundary(self):
        for spec in (ball(1.0), ellipse(2.0, 1.0), convex_polygon(SQUARE)):
            mask = rasterize(spec, 0.07)
            interior = mask.node_xy[np.all(mask.columns[list(AXIS_SLOTS)] < mask.n_inside,
                                           axis=0)]
            d = signed_distance(spec, interior)
            assert np.max(d) < -mask.h / 2

    def test_boundary_adjacent_have_cut_arm(self):
        mask = rasterize(ball(1.0), 0.1)
        # Boundary-adjacent nodes have at least one axis arm ending on the
        # boundary rather than at an inside node (theta may still be 1.0 when
        # a lattice node falls exactly on the boundary), so they lie within a
        # step of it, up to rounding.
        badj = np.any(mask.columns[list(AXIS_SLOTS)] == mask.n_inside, axis=0)
        assert np.any(badj) and not np.all(badj)
        assert np.all(signed_distance(mask.spec, mask.node_xy[badj]) >= -mask.h * (1 + 1e-12))
        assert np.all(mask.theta > 0.0)
        assert np.all(mask.theta <= 1.0)

    def test_too_coarse_rejected(self):
        with pytest.raises(InputError, match="grid too coarse"):
            rasterize(ball(1.0), 0.5)

    def test_nonconvex_rejected(self):
        bad = DomainSpec(kind="polygon", center=np.zeros(2),
                         vertices=np.asarray(L_SHAPE))
        with pytest.raises(InputError):
            rasterize(bad, 0.1)

    def test_rasterize_deterministic(self):
        m1 = rasterize(ellipse(2.0, 1.0), 0.05)
        m2 = rasterize(ellipse(2.0, 1.0), 0.05)
        assert np.array_equal(m1.columns, m2.columns)
        assert np.array_equal(m1.theta, m2.theta)

    def test_inside_test_matches_distance_sign(self):
        rng = np.random.default_rng(2)
        pts = rng.uniform(-2.2, 2.2, size=(500, 2))
        for spec in (ball(1.3), ellipse(2.0, 1.0), convex_polygon(SQUARE)):
            inside = is_inside(spec, pts)
            d = signed_distance(spec, pts)
            clear = np.abs(d) > 1e-9
            assert np.array_equal(inside[clear], d[clear] < 0)


class TestGridInvariants:
    @pytest.mark.parametrize("spec,h", [
        (ball(1.0), 0.05), (ellipse(2.0, 1.0), 0.05),
        (convex_polygon(SQUARE), 1.0 / 16.0), (convex_polygon(SKEWED_QUAD), 0.04),
    ], ids=["ball", "ellipse", "square", "skewed-quad"])
    def test_stencil_geometry(self, spec, h):
        mask = rasterize(spec, h)
        cols, theta, n = mask.columns, mask.theta, mask.n_inside
        pos = np.argwhere(mask.grid_index >= 0)   # lattice place of each inside node
        # Slot s is the node at offset STENCIL[s] = (s // 3 - 1, s % 3 - 1), or n
        # where no inside node sits there; the centre slot is the node itself.
        assert np.array_equal(STENCIL, [(s // 3 - 1, s % 3 - 1) for s in range(9)])
        ij = pos[None, :, :] + STENCIL[:, None, :]
        at = mask.grid_index[ij[..., 0], ij[..., 1]]
        assert np.array_equal(cols, np.where(at >= 0, at, n))
        assert np.array_equal(cols[CENTER], np.arange(n))
        # Slot 8 - s steps back.
        s, k = np.nonzero(cols < n)
        assert np.array_equal(cols[8 - s, cols[s, k]], k)
        assert np.all(theta[k, s] == 1.0)
        # Each row's in-domain columns ascend with s, the order in which CSR
        # sums a row.
        seen = np.maximum.accumulate(np.where(cols < n, cols, -1), axis=0)
        assert np.all(cols[1:] > seen[:-1])
        # Every cut arm ends on the boundary, and no kept arm is shorter than
        # ARM_MIN of a step.
        s, k = np.nonzero(cols == n)
        ends = mask.node_xy[k] + (theta[k, s] * h)[:, None] * STENCIL[s]
        assert np.max(np.abs(signed_distance(spec, ends))) <= 1e-12 * h
        assert np.min(theta) >= ARM_MIN
        # Crossing rows are the cut axis arms in (node, AXIS_SLOTS place) order.
        c = mask.crossings
        k, a = np.nonzero(cols[list(AXIS_SLOTS)].T == n)
        assert np.array_equal(c.node_index, k)
        assert np.array_equal(c.slot, np.array(AXIS_SLOTS)[a])
        ends = mask.node_xy[k] + (theta[k, c.slot] * h)[:, None] * STENCIL[c.slot]
        np.testing.assert_allclose(c.foot, ends, rtol=0.0, atol=1e-15)
