"""Convex planar domains: signed distance, rasterization, boundary data.

Grids are node lattices aligned with the domain center.  Each inside node
has eight stencil arms, one per compass direction; an arm that leaves the
domain carries the exact fractional distance to the boundary (or to a node
dropped as lying on it, see ARM_MIN), which is what one-sided curved-boundary
stencils consume.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import ConfigurationError, InputError

#: Stencil directions: +x, -x, +y, -y, then the four diagonals.
DIRECTIONS = np.array([
    [1, 0], [-1, 0], [0, 1], [0, -1],
    [1, 1], [-1, -1], [1, -1], [-1, 1],
], dtype=int)

#: Shortest arm fraction an inside node keeps; a node with a shorter arm, or on the
#: boundary to rounding, is a boundary node, so no stencil weight passes 1/(ARM_MIN h)^2.
ARM_MIN = 1e-3

#: Fewest inside nodes a lattice must put across a domain's narrowest section.
MIN_SPAN = 16

#: Largest coordinate of a domain point: products of two lattice coordinates,
#: or of polygon edges, stay finite up to four times this.
COORD_LIMIT = math.sqrt(np.finfo(float).max) / 16


@dataclass(frozen=True)
class DomainSpec:
    """A bounded convex domain: a convex polygon, or an axis-aligned ellipse about the
    origin, which is a disk when its semi-axes are equal."""

    kind: str                       # "ellipse" | "polygon"
    center: np.ndarray
    semi_axes: tuple[float, float] = (0.0, 0.0)  # ellipse
    vertices: Optional[np.ndarray] = None        # polygon, counterclockwise

    def label(self) -> str:
        """Short name as reports print it: disk:1, ellipse:2,1 or polygon:4v."""
        if self.kind == "ellipse":
            a, b = self.semi_axes
            return f"disk:{a:g}" if a == b else f"ellipse:{a:g},{b:g}"
        return f"polygon:{len(self.vertices)}v"


def _check_range(label: str, center, half) -> None:
    """Rejects a domain whose bounding box `center` +- `half` passes COORD_LIMIT."""
    with np.errstate(over="ignore"):   # beyond the float range reads inf
        reach = np.abs(center) + half
    if not np.all(reach <= COORD_LIMIT):
        raise InputError(f"--domain {label} is out of range: its points must lie within "
                         f"{COORD_LIMIT:.1e} of the origin in each coordinate, so that the "
                         f"squared node coordinates of its --h lattice stay finite")


def ellipse(a: float, b: float) -> DomainSpec:
    if not all(math.isfinite(s) and s > 0 for s in (a, b)):
        raise InputError("ellipse semi-axes must be positive and finite")
    spec = DomainSpec(kind="ellipse", center=np.zeros(2), semi_axes=(a, b))
    _check_range(spec.label(), 0.0, np.array([a, b]))
    return spec


def ball(radius: float) -> DomainSpec:
    """The disk of the given radius: an ellipse with equal semi-axes."""
    return ellipse(radius, radius)


def _edges(vertices) -> tuple[np.ndarray, np.ndarray]:
    """The polygon's edge table: start vertices and edge vectors, (k, 2) each, closed."""
    v = np.asarray(vertices, dtype=float)
    return v, np.roll(v, -1, axis=0) - v


def _cross(a, b) -> np.ndarray:
    """Planar cross product a x b, broadcast over the leading axes."""
    return a[..., 0] * b[..., 1] - a[..., 1] * b[..., 0]


def polygon_is_convex(vertices) -> bool:
    """Strict convexity: turns of one sign, none zero, winding once (a star winds more)."""
    v, edge = _edges(vertices)
    if len(v) < 3:
        return False
    following = np.roll(edge, -1, axis=0)
    turns = _cross(edge, following)
    angles = np.arctan2(turns, np.einsum("ij,ij->i", edge, following))
    return bool((np.all(turns > 0) or np.all(turns < 0)) and abs(angles.sum()) < 3.0 * math.pi)


def convex_polygon(vertices) -> DomainSpec:
    """Strictly convex polygon; vertices are reordered counterclockwise."""
    v = np.asarray(vertices, dtype=float)
    if not np.all(np.isfinite(v)):
        raise InputError("polygon vertices must be finite")
    _check_range(f"polygon:{len(v)}v", 0.0, np.abs(v))
    if not polygon_is_convex(v):
        raise InputError("vertex list is not strictly convex")
    # Every turn of a strictly convex polygon has the orientation's sign.
    _, edge = _edges(v)
    if _cross(edge[0], edge[1]) < 0:
        v = v[::-1].copy()
    return DomainSpec(kind="polygon", center=v.mean(axis=0), vertices=v)


def assert_convex(spec: DomainSpec) -> bool:
    """Convexity verdict; ellipses are convex by construction."""
    return spec.kind != "polygon" or polygon_is_convex(spec.vertices)


def is_inside(spec: DomainSpec, pts) -> np.ndarray:
    """Exact strict-interior test, vectorized over points (n, dim)."""
    p = np.atleast_2d(np.asarray(pts, dtype=float)) - spec.center
    if spec.kind == "ellipse":
        a, b = spec.semi_axes
        with np.errstate(over="ignore"):   # far outside a thin ellipse: inf, not inside
            return (p[:, 0] / a) ** 2 + (p[:, 1] / b) ** 2 < 1.0
    # One edge at a time: this runs on every lattice node, so temporaries stay O(points).
    inside = np.ones(len(p), dtype=bool)
    with np.errstate(over="ignore", invalid="ignore"):   # far outside: inf or NaN, not inside
        for start, edge in zip(*_edges(spec.vertices - spec.center)):
            inside &= _cross(edge, p - start) > 0.0
    return inside


def _segments(vertices, p: np.ndarray):
    """Offsets rel (k, m, 2) = p - start, outward unit normals (k, 2) and distances
    (k, m) from m points to the k edges of counterclockwise `vertices`.  Dot products
    are stacked matmuls, rounded as one edge's `(p - start) @ edge` is."""
    start, edge = _edges(vertices)
    elen = np.sqrt((edge[:, None, :] @ edge[:, :, None])[:, 0, 0])
    normal = np.column_stack([edge[:, 1], -edge[:, 0]]) / elen[:, None]
    rel = p - start[:, None, :]
    t = np.clip((rel @ edge[:, :, None])[..., 0] / (elen * elen)[:, None], 0.0, 1.0)
    foot = start[:, None, :] + t[..., None] * edge[:, None, :]
    return rel, normal, np.linalg.norm(p - foot, axis=2)


def _ellipse_units(spec: DomainSpec) -> tuple[float, float, float]:
    """A power of two near the larger semi-axis, and the semi-axes in that unit.

    Ellipse queries square products and quotients of lengths, so they run in
    this unit: an exact scaling, which keeps the bits of unit-scale results
    and every square in the float range from tiny semi-axes up to COORD_LIMIT.
    """
    unit = math.ldexp(1.0, math.frexp(max(spec.semi_axes))[1])
    return unit, spec.semi_axes[0] / unit, spec.semi_axes[1] / unit


def _ellipse_closest_point(a: float, b: float, pts: np.ndarray) -> np.ndarray:
    """Closest boundary points on x^2/a^2 + y^2/b^2 = 1 (semi-axes about 1),
    vectorized bisection."""
    px, py = np.abs(pts[:, 0]), np.abs(pts[:, 1])
    # Order axes so e0 >= e1; fold points into the first quadrant.
    e0, e1, y0, y1 = (b, a, py, px) if b > a else (a, b, px, py)
    x0, x1 = np.empty_like(y0), np.empty_like(y1)

    general = y1 > 0
    # General case: bisect F(t) = (e0 y0/(t+e0^2))^2 + (e1 y1/(t+e1^2))^2 - 1,
    # strictly decreasing on (-e1^2, inf); the bracket below pins its root.
    if np.any(general):
        f0, f1 = y0[general], y1[general]
        lo = -e1 * e1 + e1 * f1
        hi = -e1 * e1 + np.sqrt((e0 * f0) ** 2 + (e1 * f1) ** 2)
        hi = np.maximum(hi, lo + 1e-300)
        for _ in range(110):
            mid = 0.5 * (lo + hi)
            val = (e0 * f0 / (mid + e0 * e0)) ** 2 + (e1 * f1 / (mid + e1 * e1)) ** 2 - 1.0
            take_lo = val > 0
            lo = np.where(take_lo, mid, lo)
            hi = np.where(take_lo, hi, mid)
        t = 0.5 * (lo + hi)
        x0[general] = e0 * e0 * f0 / (t + e0 * e0)
        x1[general] = e1 * e1 * f1 / (t + e1 * e1)

    # y1 == 0: the closest point may sit off-axis inside the evolute.
    on_axis = ~general
    if np.any(on_axis):
        f0 = y0[on_axis]
        denom = e0 * e0 - e1 * e1
        if denom > 0:
            inner = e0 * f0 < denom
            xx0 = np.where(inner, e0 * e0 * f0 / denom, e0)
        else:
            inner = np.zeros_like(f0, dtype=bool)
            xx0 = np.full_like(f0, e0)
        xx1 = np.where(inner, e1 * np.sqrt(np.clip(1.0 - (xx0 / e0) ** 2, 0.0, None)), 0.0)
        x0[on_axis] = xx0
        x1[on_axis] = xx1

    cx, cy = (x1, x0) if b > a else (x0, x1)
    cx = np.copysign(cx, np.where(pts[:, 0] == 0.0, 1.0, pts[:, 0]))
    cy = np.copysign(cy, np.where(pts[:, 1] == 0.0, 1.0, pts[:, 1]))
    return np.column_stack([cx, cy])


def signed_distance(spec: DomainSpec, pts) -> np.ndarray:
    """Signed distance to the boundary: negative inside, positive outside.

    Exact for polygons; ellipses use a bisection on the closest-point
    equation resolved to ~1e-12.
    """
    p = np.atleast_2d(np.asarray(pts, dtype=float))
    if spec.kind == "ellipse":
        unit, a, b = _ellipse_units(spec)
        p = p / unit
        dist = unit * np.linalg.norm(p - _ellipse_closest_point(a, b, p), axis=1)
        inside = (p[:, 0] / a) ** 2 + (p[:, 1] / b) ** 2 < 1.0
        d = np.where(inside, -dist, dist)
    else:
        rel, normal, dist = _segments(spec.vertices, p)
        halfplane = (rel @ normal[:, :, None])[..., 0].max(axis=0)
        d = np.where(halfplane <= 0.0, halfplane, dist.min(axis=0))
    if np.asarray(pts).ndim == 1:
        return float(d[0])
    return d


def boundary_normal(spec: DomainSpec, pts) -> np.ndarray:
    """Outward unit normals at points assumed to lie on the boundary."""
    p = np.atleast_2d(np.asarray(pts, dtype=float)) - spec.center
    if spec.kind == "ellipse":
        unit, a, b = _ellipse_units(spec)
        p = p / unit
        g = np.column_stack([2.0 * p[:, 0] / a**2, 2.0 * p[:, 1] / b**2])
        return g / np.linalg.norm(g, axis=1, keepdims=True)
    # Polygons: the normal of the nearest edge (the first one on ties).
    _, normal, dist = _segments(spec.vertices - spec.center, p)
    return normal[np.argmin(dist, axis=0)]


def ray_crossing(spec: DomainSpec, origin, direction,
                 max_len: float) -> np.ndarray | float | None:
    """Distance along `direction` (unit) from inside points to the boundary.

    `origin` is an (m, 2) array of points, or one point.  Returns t in
    (0, max_len] per point and NaN where the segment stays inside; a single
    point gives a float, or None.  Convexity guarantees at most one crossing
    on the segment.
    """
    o = np.atleast_2d(np.asarray(origin, dtype=float)) - spec.center
    d = np.asarray(direction, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        if spec.kind == "ellipse":
            unit, a_ax, b_ax = _ellipse_units(spec)
            ou = o / unit
            qa = (d[0] / a_ax) ** 2 + (d[1] / b_ax) ** 2
            qb = ou[:, 0] * d[0] / a_ax**2 + ou[:, 1] * d[1] / b_ax**2
            qc = (ou[:, 0] / a_ax) ** 2 + (ou[:, 1] / b_ax) ** 2 - 1.0
            t = unit * (-qb + np.sqrt(qb * qb - qa * qc)) / qa
        else:
            # o + t d = start + s edge, solved for (t, s) by Cramer's rule on every
            # edge at once.  An edge parallel to d has denom 0, so its s is inf or
            # NaN and never lands in [0, 1]: it cannot count as a hit.
            start, edge = _edges(spec.vertices - spec.center)
            denom = _cross(d, edge)[:, None]
            rel = start[:, None, :] - o
            tt = _cross(rel, edge[:, None, :]) / denom
            ss = _cross(rel, d) / denom
            hit = (tt > 0) & (ss >= -1e-12) & (ss <= 1 + 1e-12)
            t = np.where(hit, tt, np.inf).min(axis=0)
        found = (t > 0) & (t <= max_len * (1 + 1e-12)) & (t < np.inf)
        t = np.where(found, np.minimum(t, max_len), np.nan)
    if np.asarray(origin).ndim == 1:
        return None if math.isnan(t[0]) else float(t[0])
    return t


@dataclass(frozen=True)
class BoundaryCrossings:
    """The axis stencil arms leaving the domain, one row per (node, direction).

    Rows are ordered by node, then by direction.
    """

    node_index: np.ndarray   # (c,) inside-node index each arm starts from
    direction: np.ndarray    # (c,) index into DIRECTIONS[:4] of the outward arm
    foot: np.ndarray         # (c, 2) crossing point on the boundary
    normal: np.ndarray       # (c, 2) outward unit normal at the foot


@dataclass(frozen=True)
class GridMask:
    """Rasterization of a convex domain on a uniform node lattice."""

    spec: DomainSpec
    h: float
    node_xy: np.ndarray           # (n_inside, 2) coordinates of inside nodes
    grid_index: np.ndarray        # (nx, ny) -> inside index or -1
    theta: np.ndarray             # (n_inside, 8) arm fractions in (0, 1]
    neighbor: np.ndarray          # (n_inside, 8) inside index or -1
    crossings: BoundaryCrossings
    _op_cache: dict = field(default_factory=dict, compare=False, repr=False)

    @property
    def n_inside(self) -> int:
        return len(self.node_xy)


def rasterize(spec: DomainSpec, h: float) -> GridMask:
    """Find the lattice nodes inside the domain and collect stencil geometry.

    The lattice is anchored at the domain center so symmetric domains get
    symmetric grids.  A node with an arm below ARM_MIN of a step, or on the
    boundary to rounding, is dropped, and its neighbours' arms end on it,
    until no node drops.  Raises ConfigurationError when fewer than MIN_SPAN
    inside nodes span the narrowest axis-aligned section.
    """
    if not (math.isfinite(h) and h > 0):
        raise InputError("grid spacing must be positive and finite")
    if not assert_convex(spec):
        raise InputError("domain must be convex")

    if spec.kind == "ellipse":
        ext = np.array(spec.semi_axes, dtype=float)
    else:
        ext = np.max(np.abs(spec.vertices - spec.center), axis=0)
    # One spare node beyond the extent puts the outer ring outside the domain.
    with np.errstate(over="ignore"):   # a lattice beyond the float range reads inf
        half = np.ceil(ext / h) + 1.0
        shape = 2.0 * half + 1.0
        count = np.prod(shape)
    try:
        nodes = np.empty((int(count), 2))
    except (MemoryError, OverflowError, ValueError):   # beyond memory, numpy or floats
        raise InputError(f"--h {h:g} on --domain {spec.label()} needs a {shape[0]:.3g} x "
                         f"{shape[1]:.3g} node lattice, which cannot be allocated") from None
    nx, ny = (int(n) for n in shape)
    origin = spec.center - half * h

    xs = origin[0] + h * np.arange(nx)
    ys = origin[1] + h * np.arange(ny)
    lattice = nodes.reshape(nx, ny, 2)   # node (i, j) sits at (xs[i], ys[j])
    lattice[..., 0], lattice[..., 1] = xs[:, None], ys
    inside = is_inside(spec, nodes).reshape(nx, ny)

    while True:
        # A convex domain meets each lattice line in one run of inside nodes.
        span = int(min(inside.sum(axis=0).max(), inside.sum(axis=1).max()))
        if span < MIN_SPAN:
            raise ConfigurationError(
                f"grid too coarse: --h {h:g} puts {span} inside nodes across the narrowest "
                f"section of --domain {spec.label()}, need >= {MIN_SPAN}")

        grid_index = -np.ones((nx, ny), dtype=int)
        ii, jj = np.nonzero(inside)
        n_inside = len(ii)
        grid_index[ii, jj] = np.arange(n_inside)
        node_xy = np.column_stack([xs[ii], ys[jj]])

        # Shifted lookups stay in range: inside nodes never touch the outer ring.
        neighbor = np.column_stack([grid_index[ii + di, jj + dj] for di, dj in DIRECTIONS])
        theta = np.ones((n_inside, 8))
        for m, (di, dj) in enumerate(DIRECTIONS):
            cut = neighbor[:, m] < 0
            step = h * math.hypot(di, dj)
            unit = np.array([di, dj]) / math.hypot(di, dj)
            # An arm toward a dropped node crosses beyond it: a full arm.
            t = ray_crossing(spec, node_xy[cut], unit, math.inf)
            theta[cut, m] = np.minimum(t / step, 1.0)
        drop = ~(theta.min(axis=1) >= ARM_MIN)   # NaN: no crossing found
        if not drop.any():
            break
        inside[ii[drop], jj[drop]] = False

    node_index, direction = np.nonzero(neighbor[:, :4] < 0)
    frac = theta[node_index, direction]
    foot = node_xy[node_index] + (frac * h)[:, None] * DIRECTIONS[direction]
    crossings = BoundaryCrossings(node_index=node_index, direction=direction,
                                  foot=foot, normal=boundary_normal(spec, foot))

    return GridMask(spec=spec, h=h, node_xy=node_xy, grid_index=grid_index,
                    theta=theta, neighbor=neighbor, crossings=crossings)
