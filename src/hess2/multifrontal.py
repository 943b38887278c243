"""Direct LU of the planar lattice operators, by multifrontal elimination of
the nested-dissection tree (Duff & Reid, ACM TOMS 9, 1983), in numpy alone.

`dissection_path` cuts the inside nodes into boxes.  A node is eliminated at
the first level where it lies on a cut line, and the boxes of the last
LEAF_LEVELS levels are not cut: their nodes are eliminated together, as one
dense leaf.  A box of level L holds the nodes whose sides at levels 0..L-1
agree; its separator S is its cut line (or, for a leaf, all its nodes).  The
front of a box is S plus U, the nodes of earlier levels next to the box's
region: eliminating the region couples only those.

Levels are eliminated deepest first.  A level's boxes fall into size classes,
one per power-of-two range of front width |S| + |U|, and each class is batched
over its boxes and padded to its own largest S and U: no box is padded to
twice its width.  A front gathers the operator's own entries and its two
children's Schur complements, keeps X = [inv(A_SS), -inv(A_SS) A_SU] and
L = A_US inv(A_SS), and hands A_UU - L A_SU to its parent.  A solve is one
forward sweep, y_U -= L y_S, and one backward sweep, x_S = X [y_S; x_U], class
by class.

A factor is stored in the precision its caller asks for: float64 for the
Laplacian of a polygon's warm start (`hess2.solver.factorized`'s default),
float32 for the Newton Jacobians, whose factor only preconditions GMRES on the
float64 residual.  Fronts, X, L, Schur complements and the solve's sweeps all
run in that precision; a solve takes and returns float64.

Padding rows of S carry a unit diagonal; padding slots of U land in one spare
row and column of each front, and at node n of a solve vector, which are
never read back.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .errors import SolverError

#: Dissection levels below which boxes are not cut but factored as dense leaves
#: (3 x 3 nodes inside the domain): each deeper level would add many tiny fronts,
#: whose batched operations cost more per node than the leaves' dense ones.
LEAF_LEVELS = 2

#: Fronts are assembled and factored a few boxes at a time, this many floats
#: of front at most (512 KB in float64): temporaries stay small beside the
#: factor, and within cache (the h = 1/128 disk factors about 10 % faster than
#: with 1 MB).
PART_ELEMENTS = 1 << 16


def dissection_path(grid_index: np.ndarray) -> np.ndarray:
    """The side each inside node takes at every split of nested dissection.

    The bounding box of the inside nodes is cut across its longer side at its
    middle lattice line, and each half is cut the same way until every node
    lies on a cut line.  Row k of the (levels, n_inside) result holds, per
    node, 0 or 1 for the first or second half of its level-k box, or 2 once
    the node lies on a cut line (at level k or before).  Stencil arms span one
    lattice step, so a cut line separates its two halves (A. George, SIAM J.
    Numer. Anal. 10, 1973).
    """
    pos = np.array(np.nonzero(grid_index >= 0))   # (2, n): inside nodes in index order
    lo = np.repeat(pos.min(axis=1, keepdims=True), pos.shape[1], axis=1)
    hi = np.repeat(pos.max(axis=1, keepdims=True) + 1, pos.shape[1], axis=1)
    side = np.zeros(pos.shape[1], dtype=np.int8)
    rows = []
    while not np.all(side == 2):
        # The coordinate that runs along the box's longer side (rows on a tie).
        axis = hi[1] - lo[1] > hi[0] - lo[0]
        c = np.where(axis, pos[1], pos[0])
        mid = (np.where(axis, lo[1], lo[0]) + np.where(axis, hi[1], hi[0])) // 2
        side = np.where((side == 2) | (c == mid), 2, c > mid).astype(np.int8)
        for k, along in enumerate((~axis, axis)):
            np.copyto(hi[k], mid, where=along & (side == 0))
            np.copyto(lo[k], mid + 1, where=along & (side == 1))
        rows.append(side)
    return np.array(rows)


def _distinct(a: np.ndarray) -> np.ndarray:
    """The distinct values of an integer array, ascending.  A plain sort: numpy's
    hashed `unique` is many times slower on these arrays."""
    a = np.sort(a)
    return a[np.concatenate((a[:1] == a[:1], a[1:] != a[:-1]))]


def _narrow(index: np.ndarray, bound: int) -> np.ndarray:
    """`index`, whose values lie below `bound`, as 32-bit integers where they
    hold it: half the memory, for the index arrays that only a factorisation
    reads (and offsets below `bound` subtracted from it stay 32-bit too)."""
    return index.astype(np.int32) if bound <= 2**31 else index


def _padded(box: np.ndarray, node: np.ndarray, boxes: int, pad: int) -> np.ndarray:
    """(boxes, widest) table of each box's nodes, given as (box, node) pairs sorted
    by box, padded with `pad`."""
    count = np.bincount(box, minlength=boxes)
    start = np.cumsum(count) - count
    table = np.full((boxes, int(count.max(initial=0))), pad, dtype=np.intp)
    table[box, np.arange(box.size) - start[box]] = node
    return table


def _size_classes(width: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The boxes of a level in size classes, widest first, and where each class
    starts (then the box count).  A class holds the boxes of one power-of-two
    range of front width |S| + |U|, so its largest S and largest U each stay
    below twice any of its boxes' width."""
    octave = np.frexp(width)[1]   # 2^(octave - 1) <= width < 2^octave
    order = np.argsort(-octave, kind="stable")
    return order, np.concatenate(([0], np.flatnonzero(np.diff(octave[order])) + 1, [width.size]))


class _Class(NamedTuple):
    """Symbolic data of one size class of a level's boxes, over its B boxes."""

    s: np.ndarray         # (B, s) separator nodes, padded with n
    front: np.ndarray     # (B, s + u) separator, then update nodes, padded with n
    gather: np.ndarray    # operator entries the class assembles, as slot * n + row,
    target: np.ndarray    # and their flat places in its (B, w, w) fronts, box by box;
    first: np.ndarray     # (B + 1,) where each box's entries start
    children: list        # per child side and class of the deeper level: that class's
                          # index in the plan, its child boxes, their parent boxes here
                          # (ascending), (k, uc) places of their U in the parent, and
                          # (B + 1,) starts
    u: np.ndarray         # (B * u,) update nodes, flat, padded with n


class Plan:
    """The symbolic analysis of a lattice: size classes, fronts and scatter maps.

    `columns` is the mask's (slots, n) table of stencil columns (`GridMask.columns`):
    operator entry (row i, slot k) sits in column columns[k, i], n stands for an
    arm that leaves the domain, and slot len(columns) - 1 - k is the arm opposite k.
    `levels` lists the size classes of every level, deepest level first.  The
    work is array passes over the nodes and stencil entries, a few per level.
    """

    def __init__(self, grid_index: np.ndarray, columns: np.ndarray):
        path = dissection_path(grid_index)
        n = self.n = columns.shape[1]
        lev = np.minimum((path == 2).argmax(axis=0), max(path.shape[0] - 1 - LEAF_LEVELS, 0))
        # Boxes level by level, top down: each box's parent box and side in it
        # (a box's children are numbered by (box, side)), the nodes eliminated
        # there, and the box each node is eliminated in.
        box_of = np.zeros(n, dtype=np.intp)
        boxes = []
        parent = side = np.zeros(1, dtype=np.intp)
        for level in range(path.shape[0]):
            boxes.append((parent, side, np.nonzero(lev == level)[0]))
            going = np.nonzero(lev > level)[0]
            if not going.size:
                break
            child = 2 * box_of[going] + path[level, going]
            used = np.zeros(2 * parent.size, dtype=bool)
            used[child] = True
            parent, side = np.divmod(np.nonzero(used)[0], 2)
            box_of[going] = (np.cumsum(used) - 1)[child]
        lev = np.append(lev, len(boxes))   # the padding node n lies on no level
        cols, last = columns.T, len(columns) - 1
        pos_s = np.zeros(n + 1, dtype=np.intp)

        self.levels: list[_Class] = []
        below = None   # the deeper level's parent boxes, sides, U table, and each
                       # box's class (index in the plan) and place in its class
        for level in range(len(boxes) - 1, -1, -1):
            up, up_side, sep = boxes.pop()
            nbox = up.size
            sep = sep[np.argsort(box_of[sep], kind="stable")]
            s = _padded(box_of[sep], sep, nbox, n)
            pos_s[sep] = np.nonzero(s < n)[1]
            # U: the nodes of earlier levels next to the separator or to U of a child.
            col = cols[sep]
            col_lev = lev[col]
            i, k = np.nonzero(col_lev < level)
            keys = [box_of[sep[i]] * (n + 1) + col[i, k]]
            if below is not None:
                child_parent, child_side, child_u, child_class, child_at = below
                outer = lev[child_u] < level
                keys.append((child_parent[:, None] * (n + 1) + child_u)[outer])
            key = _distinct(np.concatenate(keys))
            u = _padded(key // (n + 1), key % (n + 1), nbox, n)
            start = np.searchsorted(key, np.arange(nbox) * (n + 1))

            # The boxes' fronts lie class by class, widest class first, box after
            # box; each class's S and U widths are its largest.  Per box: its
            # class's S width, its front width w (the last row and column of a
            # front take the padding) and where its front starts.
            count_s = np.bincount(box_of[sep], minlength=nbox)
            count_u = np.diff(np.append(start, key.size))
            order, bounds = _size_classes(count_s + count_u)
            rank = np.empty(nbox, dtype=np.intp)
            rank[order] = np.arange(nbox)
            sizes = np.diff(bounds)
            ns = np.maximum.reduceat(count_s[order], bounds[:-1])
            nu = np.maximum.reduceat(count_u[order], bounds[:-1])
            ns_b, w_b = np.repeat(ns, sizes)[rank], np.repeat(ns + nu + 1, sizes)[rank]
            fend = np.concatenate(([0], np.cumsum(w_b[order] ** 2)))
            f0 = fend[rank]

            def u_place(b, node):
                return ns_b[b] + np.searchsorted(key, b * (n + 1) + node) - start[b]

            # Entries within the separator, from it into U, and their mirrors: each
            # one's flat place in the level's fronts and slot * n + row, by place.
            j, m = np.nonzero(col_lev == level)
            bj, bi = box_of[sep[j]], box_of[sep[i]]
            pu = u_place(bi, col[i, k])
            place = np.concatenate([f0[bj] + pos_s[sep[j]] * w_b[bj] + pos_s[col[j, m]],
                                    f0[bi] + pos_s[sep[i]] * w_b[bi] + pu,
                                    f0[bi] + pu * w_b[bi] + pos_s[sep[i]]])
            entry = np.concatenate([m * n + sep[j], k * n + sep[i], (last - k) * n + col[i, k]])
            target, gather = np.divmod(np.sort(place * columns.size + entry), columns.size)
            first = np.searchsorted(target, fend)

            # Children grouped by parent class, side and child class, each group
            # by parent: a box has at most one child per side, so no place of a
            # group is added to twice.
            groups = {}
            if below is not None:
                pb = np.repeat(child_parent[:, None], child_u.shape[1], axis=1)
                places = w_b[pb] - 1
                mine = lev[child_u] == level
                places[mine] = pos_s[child_u[mine]]
                places[outer] = u_place(pb[outer], child_u[outer])
                child_parent = rank[child_parent]
                home = np.searchsorted(bounds, child_parent, side="right") - 1
                group = (home * 2 + child_side) * len(self.levels) + child_class
                by = np.lexsort((child_parent, group))
                for g in np.split(by, np.flatnonzero(np.diff(group[by])) + 1):
                    groups.setdefault(home[g[0]], []).append(g)
            s, u, up, up_side = s[order], u[order], up[order], up_side[order]
            base = len(self.levels)
            for c, (a, z) in enumerate(zip(bounds, bounds[1:])):
                # A contiguous copy of S: a solve gathers x[s] in every sweep.
                s_c, u_c = s[a:z, :ns[c]].copy(), u[a:z, :nu[c]]
                w = ns[c] + nu[c] + 1
                children = []
                for g in groups.get(c, ()):
                    kid = self.levels[child_class[g[0]]]
                    at = child_parent[g] - a
                    places_g = places[g, :kid.front.shape[1] - kid.s.shape[1]]
                    children.append((child_class[g[0]], child_at[g], at, _narrow(places_g, w),
                                     np.searchsorted(at, np.arange(z - a + 1))))
                self.levels.append(_Class(
                    s=s_c, front=np.concatenate([s_c, u_c], axis=1),
                    gather=_narrow(gather[first[a]:first[z]], columns.size),
                    target=_narrow(target[first[a]:first[z]] - fend[a], (z - a) * w * w),
                    first=first[a:z + 1] - first[a], children=children, u=u_c.ravel()))
            box_class = np.repeat(np.arange(base, len(self.levels)), sizes)
            below = up, up_side, u, box_class, np.arange(nbox) - np.repeat(bounds[:-1], sizes)


def _parts(count: int, size: int) -> list[slice]:
    """Slices of range(count) of at most PART_ELEMENTS // size items (at least one)."""
    step = max(1, PART_ELEMENTS // max(size, 1))
    return [slice(i, min(i + step, count)) for i in range(0, count, step)]


def factor(a, plan: Plan, dtype=np.float64):
    """LU of the stencil operator `a` on the plan's lattice, stored in `dtype`,
    as a solve function of float64 vectors.

    `a.slots` and `a.coef` give its entries: coef[k, i] in the column of slot
    slots[k] of row i, the middle slot of `a.columns` its diagonal.  The
    operator is first scaled by the power of two nearest its largest diagonal
    entry, and each right-hand side by the power of two nearest its largest
    entry.  Both are exact, and they keep the explicit inverses and the sweeps
    of operators at any lattice scale within the range of float32 as of
    float64.  A singular pivot block raises SolverError.
    """
    n = plan.n
    row_of = np.full(len(a.columns), -1)   # row of each slot in a.coef
    row_of[list(a.slots)] = np.arange(len(a.slots))
    coef = a.coef.reshape(-1)
    biggest = float(np.max(np.abs(a.coef[row_of[len(a.columns) // 2]]), initial=0.0))
    shift = math.frexp(biggest)[1] if math.isfinite(biggest) else 0
    scale = math.ldexp(1.0, -shift)
    blocks = []
    schur = []   # each class's Schur complements, until its parent level reads them
    readers = np.bincount([ch[0] for c in plan.levels for ch in c.children],
                          minlength=len(plan.levels))
    # Non-finite entries give a non-finite factor; the caller rejects what it solves.
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for cls in plan.levels:
            nbox, ns = cls.s.shape
            nu = cls.front.shape[1] - ns
            w = ns + nu + 1
            x_blk, l_us = np.empty((nbox, ns, ns + nu), dtype), np.empty((nbox, nu, ns), dtype)
            s_uu = np.empty((nbox, nu, nu), dtype)
            for part in _parts(nbox, w * w):
                lo, hi = part.start, part.stop
                front = np.zeros((hi - lo, w, w), dtype)
                flat = front.reshape(-1)
                e = slice(cls.first[lo], cls.first[hi])
                slot, row = np.divmod(cls.gather[e], n)
                k = row_of[slot]
                have = k >= 0   # slots the operator does not store hold zeros
                flat[cls.target[e][have] - lo * w * w] = coef[k[have] * n + row[have]] * scale
                for child, sel, parent, places, first in cls.children:
                    c = slice(first[lo], first[hi])
                    rows = ((parent[c] - lo) * w)[:, None] + places[c]
                    flat[(rows * w)[:, :, None] + places[c, None, :]] += schur[child][sel[c]]
                pad_box, pad_row = np.nonzero(cls.s[part] == n)
                front[pad_box, pad_row, pad_row] = 1.0
                try:
                    inv = np.linalg.inv(front[:, :ns, :ns])
                except np.linalg.LinAlgError:
                    raise SolverError(f"sparse LU of a {n}-node operator failed: "
                                      "singular pivot block") from None
                a_su = front[:, :ns, ns:-1]
                x_blk[part, :, :ns] = inv
                x_blk[part, :, ns:] = -(inv @ a_su)
                np.matmul(front[:, ns:-1, :ns], inv, out=l_us[part])
                np.subtract(front[:, ns:-1, ns:-1], l_us[part] @ a_su, out=s_uu[part])
            blocks.append((x_blk, l_us))
            schur.append(s_uu)
            for child, *_ in cls.children:
                readers[child] -= 1
                if not readers[child]:
                    schur[child] = None
    del schur

    def solve(b):
        x = np.zeros(n + 1, dtype)
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            e = np.frexp(np.max(np.abs(b), initial=0.0))[1]
            x[:n] = np.ldexp(b, -e)
            for cls, (_, l_us) in zip(plan.levels, blocks):
                np.subtract.at(x, cls.u, (l_us @ x[cls.s][:, :, None]).reshape(-1))
            for cls, (x_blk, _) in zip(reversed(plan.levels), reversed(blocks)):
                x[cls.s] = (x_blk @ x[cls.front][:, :, None])[:, :, 0]
                x[n] = 0.0
            return np.ldexp(x[:n], e - shift, dtype=np.float64)
    return solve
