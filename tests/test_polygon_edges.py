"""The array polygon geometry in `hess2.domain` against per-edge loops, bit for bit.

The loops below are the reference: each walks the edges one at a time with the
same per-(point, edge) arithmetic, so every array query must match them exactly,
not just to a tolerance.  Lattice arm lengths, boundary feet and normals feed
the planar solves, so a last-bit change here would move printed reports.
"""

import math
import warnings

import numpy as np
import pytest

from hess2.domain import (
    CENTER,
    STENCIL,
    boundary_normal,
    convex_polygon,
    is_inside,
    polygon_is_convex,
    ray_crossing,
    signed_distance,
)

# ----------------------------------------------------------------------
# Reference: one Python loop per query, one edge per pass
# ----------------------------------------------------------------------


def loop_is_convex(vertices):
    v = np.asarray(vertices, dtype=float)
    n = len(v)
    if n < 3:
        return False
    crosses = []
    winding = 0.0
    for i in range(n):
        e1 = v[(i + 1) % n] - v[i]
        e2 = v[(i + 2) % n] - v[(i + 1) % n]
        crosses.append(e1[0] * e2[1] - e1[1] * e2[0])
        winding += math.atan2(crosses[-1], e1[0] * e2[0] + e1[1] * e2[1])
    crosses = np.asarray(crosses)
    if np.any(crosses == 0.0):
        return False
    # A star turns the same way at every vertex but winds twice or more.
    one_turn = round(abs(winding) / (2.0 * math.pi)) == 1
    return bool((np.all(crosses > 0) or np.all(crosses < 0)) and one_turn)


def loop_is_counterclockwise(vertices):
    v = np.asarray(vertices, dtype=float)
    area2 = 0.0
    for i in range(len(v)):
        j = (i + 1) % len(v)
        area2 += v[i, 0] * v[j, 1] - v[j, 0] * v[i, 1]
    return area2 >= 0


def loop_is_inside(spec, pts):
    p = np.atleast_2d(np.asarray(pts, dtype=float)) - spec.center
    verts = spec.vertices - spec.center
    inside = np.ones(len(p), dtype=bool)
    for i in range(len(verts)):
        v0, v1 = verts[i], verts[(i + 1) % len(verts)]
        edge = v1 - v0
        rel = p - v0
        inside &= (edge[0] * rel[:, 1] - edge[1] * rel[:, 0]) > 0.0
    return inside


def loop_signed_distance(spec, pts):
    p = np.atleast_2d(np.asarray(pts, dtype=float))
    verts = spec.vertices
    n = len(verts)
    halfplane = np.full(len(p), -np.inf)
    seg_dist = np.full(len(p), np.inf)
    for i in range(n):
        v0, v1 = verts[i], verts[(i + 1) % n]
        edge = v1 - v0
        elen = np.linalg.norm(edge)
        normal = np.array([edge[1], -edge[0]]) / elen  # outward for ccw
        halfplane = np.maximum(halfplane, (p - v0) @ normal)
        t = np.clip(((p - v0) @ edge) / (elen * elen), 0.0, 1.0)
        foot = v0 + t[:, None] * edge
        seg_dist = np.minimum(seg_dist, np.linalg.norm(p - foot, axis=1))
    return np.where(halfplane <= 0.0, halfplane, seg_dist)


def loop_boundary_normal(spec, pts):
    p = np.atleast_2d(np.asarray(pts, dtype=float)) - spec.center
    verts = spec.vertices - spec.center
    normals = np.empty_like(p)
    best_d = np.full(len(p), np.inf)
    for v0, v1 in zip(verts, np.roll(verts, -1, axis=0)):
        edge = v1 - v0
        elen = np.linalg.norm(edge)
        t = np.clip(((p - v0) @ edge) / (elen * elen), 0.0, 1.0)
        d = np.linalg.norm(p - (v0 + t[:, None] * edge), axis=1)
        closer = d < best_d
        best_d[closer] = d[closer]
        normals[closer] = np.array([edge[1], -edge[0]]) / elen
    return normals


def loop_ray_crossing(spec, origin, direction):
    o = np.atleast_2d(np.asarray(origin, dtype=float)) - spec.center
    d = np.asarray(direction, dtype=float)
    verts = spec.vertices - spec.center
    t = np.full(len(o), np.inf)
    with np.errstate(invalid="ignore"):
        for v0, v1 in zip(verts, np.roll(verts, -1, axis=0)):
            edge = v1 - v0
            denom = d[0] * edge[1] - d[1] * edge[0]
            if denom == 0.0:
                continue
            rel = v0 - o
            tt = (rel[:, 0] * edge[1] - rel[:, 1] * edge[0]) / denom
            ss = (rel[:, 0] * d[1] - rel[:, 1] * d[0]) / denom
            hit = (tt > 0) & (ss >= -1e-12) & (ss <= 1 + 1e-12)
            t = np.where(hit, np.minimum(t, tt), t)
        return np.where((t > 0) & (t < np.inf), t, np.nan)


# ----------------------------------------------------------------------
# Shapes and points
# ----------------------------------------------------------------------

SHAPES = {
    "square": [[-1.0, -1.0], [1.0, -1.0], [1.0, 1.0], [-1.0, 1.0]],
    "skewed-quad": [[-1.0, -0.8], [1.2, -1.0], [0.9, 1.1], [-0.7, 0.8]],
    "pentagon": [[math.cos(2 * math.pi * j / 5 + 0.3), 0.8 * math.sin(2 * math.pi * j / 5 + 0.3)]
                 for j in range(5)],
    "64-gon": [[1.3 * math.cos(2 * math.pi * j / 64), math.sin(2 * math.pi * j / 64)]
               for j in range(64)],
    # Its hypotenuse runs along the (1, 1) diagonal, the legs along the axes.
    "diagonal-triangle": [[0.0, 0.0], [2.0, 0.0], [2.0, 2.0]],
}


def _points(spec, seed):
    """Random points inside and outside, the lattice nodes rasterize visits,
    the vertices, and edge points (ties between edges for boundary_normal)."""
    rng = np.random.default_rng(seed)
    rel = spec.vertices - spec.center
    ext = np.max(np.abs(rel), axis=0)
    scattered = spec.center + rng.uniform(-1.5, 1.5, size=(600, 2)) * ext
    h = 1.0 / 16
    half = np.ceil(ext / h).astype(int) + 1
    gx, gy = np.meshgrid(h * np.arange(-half[0], half[0] + 1),
                         h * np.arange(-half[1], half[1] + 1), indexing="ij")
    lattice = spec.center + np.column_stack([gx.ravel(), gy.ravel()])
    s = rng.uniform(0.0, 1.0, size=(len(rel), 1))
    on_edges = spec.vertices + s * (np.roll(spec.vertices, -1, axis=0) - spec.vertices)
    return np.vstack([scattered, lattice, spec.vertices, on_edges])


@pytest.fixture(params=sorted(SHAPES), ids=sorted(SHAPES))
def shape(request):
    spec = convex_polygon(SHAPES[request.param])
    return spec, _points(spec, len(request.param))


def _same_bits(new, old):
    new, old = np.asarray(new, dtype=float), np.asarray(old, dtype=float)
    assert new.shape == old.shape
    assert new.tobytes() == old.tobytes()


# ----------------------------------------------------------------------
# Array queries against the loops
# ----------------------------------------------------------------------


def test_convexity_and_orientation_match_the_loops():
    rng = np.random.default_rng(7)
    for name, verts in SHAPES.items():
        for v in (np.asarray(verts), np.asarray(verts)[::-1]):
            assert polygon_is_convex(v) == loop_is_convex(v) is True, name
            ccw = convex_polygon(v).vertices
            expected = v if loop_is_counterclockwise(v) else v[::-1]
            _same_bits(ccw, expected)
    for k in (3, 4, 5, 6, 9):
        for _ in range(40):
            v = rng.normal(size=(k, 2))
            assert polygon_is_convex(v) == loop_is_convex(v)
    for short in ([], [[0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]):
        assert not polygon_is_convex(short)


def test_is_inside_matches_the_loop(shape):
    spec, pts = shape
    assert np.array_equal(is_inside(spec, pts), loop_is_inside(spec, pts))
    assert is_inside(spec, pts).any() and not is_inside(spec, pts).all()


def test_signed_distance_matches_the_loop(shape):
    spec, pts = shape
    _same_bits(signed_distance(spec, pts), loop_signed_distance(spec, pts))


def test_boundary_normal_matches_the_loop(shape):
    spec, pts = shape
    _same_bits(boundary_normal(spec, pts), loop_boundary_normal(spec, pts))


#: The eight stencil arms: every slot but the centre.
ARMS = np.delete(STENCIL, CENTER, axis=0)


@pytest.mark.parametrize("m", range(len(ARMS)))
def test_ray_crossing_matches_the_loop_in_every_direction(shape, m):
    spec, pts = shape
    di, dj = ARMS[m]
    unit = np.array([di, dj]) / math.hypot(di, dj)
    origins = pts[is_inside(spec, pts)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        t = ray_crossing(spec, origins, unit)
    _same_bits(t, loop_ray_crossing(spec, origins, unit))
    assert np.isfinite(t).all()  # a ray from inside leaves every one of these shapes


def test_parallel_edge_is_never_a_hit():
    # The (1, 1) ray runs parallel to the hypotenuse and the axis rays to the
    # legs: the parallel edge is skipped, silently, and the crossing is the
    # other edge's.
    spec = convex_polygon(SHAPES["diagonal-triangle"])
    origin = np.array([[1.5, 0.5], [1.9, 1.0]])
    diag = np.array([1.0, 1.0]) / math.sqrt(2.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        t = ray_crossing(spec, origin, diag)
        t_axis = ray_crossing(spec, origin, np.array([1.0, 0.0]))
    _same_bits(t, loop_ray_crossing(spec, origin, diag))
    _same_bits(t_axis, loop_ray_crossing(spec, origin, np.array([1.0, 0.0])))
    assert t == pytest.approx([0.5 * math.sqrt(2.0), 0.1 * math.sqrt(2.0)])
    assert t_axis == pytest.approx([0.5, 0.1])
