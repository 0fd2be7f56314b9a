"""Grid extraction of the dominance set A_delta and its components.

A_delta = {z : |q'/q| <= |r'/r| + delta/|r|} contains every critical point
of p = q*r, because q'/q = -r'/r exactly at roots of p'.  The set is
sampled at cell centers on a regular grid, split into 4-connected
components, and each component is certified by argument-principle counts of
the zeros of p' and of q' in a union of cells, each from the roots
alone: the roots whose cells lie in the union plus the winding of p'/p
or q'/q over its boundary, together with a Rouché margin, a lower bound
on |q'/q| - |r'/r| on that boundary, which is positive only where
|q'r| > |qr'| holds along all of it.  One certified pass over the
boundary (`contours.rouche_pass`) gives all three.

The indicator's three terms come from the roots alone: the two field
sums and 1/|r| = 1/prod |z - b_k| over the outside roots b_k, each one
`kernels` reduction.

The grid is filled by a region quadtree of power-of-two squares (Samet,
ACM Comput. Surv. 1984), not cell by cell.  The top blocks are 32-cell
squares tiling the grid from its first cell, the last ones reaching past
its far edges; each level has one side, 32 down to 2, and a block splits
into four equal quarters, dropping those wholly off the grid.  On a
block, g is bounded from the block's center (interval bounds in the style
of Snyder, SIGGRAPH 1992): each field sum by its `kernels.ball_bound`,
1/|r| by factors (1 -+ t)^-m, the cells' rounding included
(`_block_bounds`).  A block whose bounds fix the sign
of g for every delta is settled: its cells on the grid are marked in
A_delta or out of it as a whole.  The single cells left are evaluated
exactly, in float64, and marked by g <= EQUALITY_TOL.  The fill is
therefore a boolean grid per delta that holds membership, not values of
g, and the labels are those of the dense grid, cell for cell.

Everything after the fill costs the size of the labeled region, not of
the grid.  Labeling runs on the window of the cells with g <= EQUALITY_TOL
(the top blocks the quadtree could not certify positive bound it), with
the ids a whole-grid labeling would give; every cell outside that window
is -1 by construction.  The mask stores each component's window, and
moats, flags and witness paths work inside those windows.

Counts do not run along the raw component staircase: critical points hug
the zero level of g, so the contour is the boundary of the "moat" instead
— the component dilated by one or more rings of cells that belong to no
component.  At the moat's cell centers g is strictly positive, which is
what lets the certified Rouché margins come out positive and keeps the
roots of p' off the boundary.  Rings grow (and nearby components are
absorbed) until every root of p' is either deep inside or well outside
the moat; the Rouché count equality holds for any such union of cells, so
absorption never invalidates a certificate.  The boundary is the moat's
boundary edges, one segment per cell side, with the moat on their left.
The winding over a union of cells is the sum of the argument increments
over those segments in any order, so no loop is traced.  A
root on the boundary makes the pass raise, so no count reads its cell.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

import numpy as np

from .contours import rouche_pass
from .errors import (GrowBBox, InvalidEpsilon, RootOnContour, SingularCell,
                     SingularPoint)
from .geometry import ConvexDomain, bounding_box, contains, diameter, distance
from .kernels import (ROUNDING, ball_bound, distance_product,
                      field_modulus_nearest, field_sum, min_distance)
from .poly import RootSplit, SINGULAR_GUARD

EQUALITY_TOL = 1e-14   # |g| at or below this counts as inside (closed set)
_RING_LIMIT = 6        # moat growth rings before a component count gives up
_BLOCK = 32            # side, in cells, of the quadtree's top blocks


@dataclass(frozen=True)
class RegionMask:
    """Membership of A_delta and its component labels on a regular cell
    grid; no value of g is kept.

    labels[i, j] is a dense component id for each cell whose center has
    g <= EQUALITY_TOL, numbered in raster order of each component's first
    cell, and -1 elsewhere; labeling runs only on the window of those
    cells, so every cell outside it is -1 by construction.  windows[c] is
    the (rows, columns) slice pair of component c's bounding box on the
    grid.  evaluations counts the cells and block centers at which the
    field terms were evaluated, shared by the masks of one `build_masks`
    call.
    """

    bbox: tuple[float, float, float, float]   # xmin, xmax, ymin, ymax
    resolution: float                         # cells per unit length
    delta: float
    labels: np.ndarray
    windows: tuple[tuple[slice, slice], ...]
    evaluations: int = 0

    @property
    def indicator(self) -> np.ndarray:
        """Membership of A_delta per cell, labels >= 0: a new boolean
        grid of the mask's shape on every read."""
        return self.labels >= 0

    @property
    def n_components(self) -> int:
        return len(self.windows)

    @property
    def cell_size(self) -> float:
        return 1.0 / self.resolution

    @property
    def shape(self) -> tuple[int, int]:
        return self.labels.shape

    def window_of(self, ids, margin: int = 0) -> tuple[slice, slice]:
        """The (rows, columns) window holding the components ids, widened
        by margin cells and clipped to the grid; empty when ids is."""
        boxes = [self.windows[c] for c in ids]
        if not boxes:
            return slice(0, 0), slice(0, 0)
        ny, nx = self.shape
        return (slice(max(0, min(b[0].start for b in boxes) - margin),
                      min(ny, max(b[0].stop for b in boxes) + margin)),
                slice(max(0, min(b[1].start for b in boxes) - margin),
                      min(nx, max(b[1].stop for b in boxes) + margin)))

    def cell_centers(self, window=(slice(None), slice(None))) -> np.ndarray:
        """Centers of the cells in window, a (rows, columns) slice pair."""
        ny, nx = self.labels.shape
        h = self.cell_size
        xs = (self.bbox[0] + (np.arange(nx) + 0.5) * h)[window[1]]
        ys = (self.bbox[2] + (np.arange(ny) + 0.5) * h)[window[0]]
        return xs[None, :] + 1j * ys[:, None]


@dataclass(frozen=True)
class ComponentReport:
    component: int
    touches_K: bool
    escapes_Keps: bool
    r_roots_inside: int          # r roots whose cell carries this label
    crit_points_inside: int      # argument-principle count over the moat
    rouche_margin: float         # lower bound on |q'/q| - |r'/r| on the moat
    qprime_roots_enclosed: int = 0   # q' zeros counted over the moat
    r_roots_enclosed: int = 0        # r roots with cells in the moat
    absorbed: tuple[int, ...] = ()   # other component ids merged into the moat
    count_error: str | None = None


# ---------------------------------------------------------------------------
# the indicator
# ---------------------------------------------------------------------------

def field_lower_bound(n: int, d: float, diam: float) -> float:
    """Lower bound n*d/(d+diam)^2 for |sum 1/(z-a_k)| with a_k in K."""
    if n < 1:
        raise ValueError("need at least one root")
    if not diam > 0:
        raise ValueError("diameter must be positive")
    if d < 0:
        raise ValueError("distance cannot be negative")
    return n * d / (d + diam) ** 2


def _indicator_terms(split: RootSplit, zs: np.ndarray):
    """(A, B, C) with g = A - B - delta*C; A, B are inf or nan on a root."""
    a = np.abs(field_sum(zs, split.inside))
    b = np.abs(field_sum(zs, split.outside))
    return a, b, _inverse_r(split, zs)


def _inverse_r(split: RootSplit, zs: np.ndarray) -> np.ndarray:
    """1/|r| = 1/prod |z - b_k| at every point; 1 without outside roots,
    inf on one."""
    with np.errstate(divide="ignore"):
        return 1.0 / distance_product(zs, split.outside)


def _near_root(split: RootSplit, zs: np.ndarray) -> np.ndarray:
    """Points of zs within SINGULAR_GUARD of a root."""
    return min_distance(zs, split.roots) < SINGULAR_GUARD


def adelta_indicator(split: RootSplit, delta: float, z) -> float:
    """g(z) = |q'/q| - |r'/r| - delta/|r|;  z is in A_delta iff g(z) <= 0."""
    if not delta > 0:
        raise ValueError("delta must be positive")
    zz = np.array([complex(z)])
    if _near_root(split, zz)[0]:
        raise SingularPoint(complex(z))
    a, b, c = _indicator_terms(split, zz)
    return float(a[0] - b[0] - delta * c[0])


# ---------------------------------------------------------------------------
# mask construction
# ---------------------------------------------------------------------------

def default_bbox(split: RootSplit, K: ConvexDomain, epsilon: float):
    """Hull of all roots inflated by 2*(epsilon + diam K) on every side."""
    kx0, kx1, ky0, ky1 = bounding_box(K)
    xs = np.concatenate([split.roots.real, [kx0, kx1]])
    ys = np.concatenate([split.roots.imag, [ky0, ky1]])
    pad = 2.0 * (epsilon + diameter(K))
    return (float(xs.min() - pad), float(xs.max() + pad),
            float(ys.min() - pad), float(ys.max() + pad))


def build_mask(split: RootSplit, delta: float, bbox, resolution: float,
               ) -> RegionMask:
    """Mark A_delta on the grid and label its components."""
    return build_masks(split, [delta], bbox, resolution)[0]


def build_masks(split: RootSplit, deltas, bbox, resolution: float,
                ) -> list[RegionMask]:
    """One mask per delta, sharing the field terms (g = A - B - delta*C).

    The sign of g is settled by the quadtree of `_signed_fill`; cells
    whose sign it cannot certify are evaluated exactly at their centers.
    """
    deltas = [float(d) for d in deltas]
    if any(d <= 0 for d in deltas):
        raise ValueError("delta must be positive")
    xmin, xmax, ymin, ymax = (float(v) for v in bbox)
    if not (xmax > xmin and ymax > ymin):
        raise ValueError("empty bbox")
    h = 1.0 / resolution
    nx = max(4, int(np.ceil((xmax - xmin) * resolution)))
    ny = max(4, int(np.ceil((ymax - ymin) * resolution)))
    # centers on to whole top blocks; the first nx (ny) are the grid's
    xs = xmin + (np.arange(-(-nx // _BLOCK) * _BLOCK) + 0.5) * h
    ys = ymin + (np.arange(-(-ny // _BLOCK) * _BLOCK) + 0.5) * h

    fills, reach, evaluations = _signed_fill(split, deltas, xs, ys,
                                             (ny, nx))
    # a center within SINGULAR_GUARD of a root lies in that root's cell.
    # Only these cells can have g nan: g is nan only as inf - inf or
    # 0*inf, and A, B or C is infinite only at such a center (a distance
    # product that underflows gives C = inf, but then g = -inf); a nan
    # block bound settles nothing, so no painted cell comes from nan
    cells = _cells_of_points((xmin, xmax, ymin, ymax), h, (ny, nx),
                             split.roots)
    cells = cells[cells[:, 0] >= 0]
    near = cells[_near_root(split, xs[cells[:, 1]] + 1j * ys[cells[:, 0]])]

    masks = []
    for delta, inside, win in zip(deltas, fills, reach):
        _patch_singular_cells(split, delta, inside, near, xs, ys, h)
        _far_field_check(inside, (xmin, xmax, ymin, ymax))
        labels, windows = _label(inside, win)
        masks.append(RegionMask((xmin, xmax, ymin, ymax), float(resolution),
                                delta, labels, windows, evaluations))
    return masks


def _label(inside: np.ndarray, reach):
    """(labels, windows) of the 4-connected components of the True cells
    of inside, the cells with g <= EQUALITY_TOL.

    Every such cell lies in the window reach, and labeling runs on the
    row runs of True cells there (`_runs`).  Runs in adjacent rows join
    when their column intervals overlap, which is 4-connectivity: runs
    that touch only at a corner stay apart.  A min-label union with
    pointer jumping leads every run to the first run of its component.
    The runs come in raster order, so numbering the components by their
    first runs gives the ids of a raster-order labeling of the whole grid
    (those of `scipy.ndimage.label`).  Cells outside reach are -1 by
    construction.

    The cost grows with the number of runs, not of cells.  A_delta is a
    level set whose components have few runs per row, so the run count
    grows with their height, not their area.
    """
    labels = np.full(inside.shape, -1, dtype=np.int32)
    row, start, stop = _runs(inside[reach])
    if not row.size:
        return labels, ()
    comp, first = _run_components(row, start, stop)
    k = first.size
    last, c0, c1 = np.zeros(k, int), np.full(k, stop.max()), np.zeros(k, int)
    np.maximum.at(last, comp, row)
    np.minimum.at(c0, comp, start)
    np.maximum.at(c1, comp, stop)
    # the True cells in raster order are the runs' cells, run after run
    labels[reach][inside[reach]] = np.repeat(comp.astype(np.int32),
                                             stop - start)
    i0, j0 = reach[0].start, reach[1].start
    windows = tuple((slice(i0 + r0, i0 + r1 + 1), slice(j0 + a0, j0 + a1))
                    for r0, r1, a0, a1 in zip(row[first].tolist(),
                                              last.tolist(), c0.tolist(),
                                              c1.tolist()))
    return labels, windows


def _run_components(row, start, stop):
    """(component id of each run, index of each component's first run) for
    runs (row, start, stop) in raster order, `_runs` of one array; ids
    count components in the order of their first runs."""
    # run b overlaps the runs lo[b] to hi[b] - 1 of the row above; the
    # keys order runs by row, then column, as _runs gives them
    width = int(stop.max()) + 1
    above = (row - 1) * width
    lo = np.searchsorted(row * width + stop, above + start, side="right")
    hi = np.searchsorted(row * width + start, above + stop, side="left")
    joins = np.maximum(hi - lo, 0)
    b = np.repeat(np.arange(row.size), joins)
    a = np.repeat(lo - np.cumsum(joins) + joins, joins) + np.arange(b.size)
    # every run points at the least run it is joined to so far
    parent = np.arange(row.size)
    while True:
        pa, pb = parent[a], parent[b]
        cross = pa != pb
        if not cross.any():
            break
        pa, pb = pa[cross], pb[cross]
        np.minimum.at(parent, np.maximum(pa, pb), np.minimum(pa, pb))
        while True:   # pointer jumping, until every run points at a root
            up = parent[parent]
            if np.array_equal(up, parent):
                break
            parent = up
    first = np.flatnonzero(parent == np.arange(row.size))
    return np.searchsorted(first, parent), first


def _signed_fill(split: RootSplit, deltas, xs, ys, shape):
    """(boolean grid of the given shape per delta, True where
    g <= EQUALITY_TOL; reach window per delta; evaluation count) on the
    cell centers xs x ys, which run on to whole _BLOCK x _BLOCK top blocks
    past the grid.

    A block is its corner (i0, j0); each level has one side, and a
    block's quarters are equal squares.  A block whose bounds from
    `_block_bounds` fix the sign of g for every delta is settled and
    painted True where its upper bound is negative, False where its lower
    bound exceeds EQUALITY_TOL; any other block splits into its quarters
    that reach the grid, down to single cells, where g is evaluated
    exactly as on a dense grid (the same points and arithmetic, hence the
    same bits) and compared with EQUALITY_TOL.  The blocks of one level
    partition what the coarser levels left unsettled, so every cell is
    written once.  A delta's reach is the window of the top blocks not
    certified positive for it; every True cell lies inside it.
    """
    ny, nx = shape
    fills = [np.empty(shape, dtype=bool) for _ in deltas]
    dl = np.array(deltas)[:, None]
    i0, j0 = (a.ravel() for a in np.meshgrid(np.arange(0, ny, _BLOCK),
                                             np.arange(0, nx, _BLOCK),
                                             indexing="ij"))
    size, reach, evaluations = _BLOCK, None, 0
    while size > 1:
        x0, x1, y0, y1 = xs[j0], xs[j0 + size - 1], ys[i0], ys[i0 + size - 1]
        zc = 0.5 * (x0 + x1) + 0.5j * (y0 + y1)
        # the farthest cell center is a corner; the factor covers rounding
        rho = np.hypot(np.maximum(x1 - zc.real, zc.real - x0),
                       np.maximum(y1 - zc.imag, zc.imag - y0)) * (1 + 1e-12)
        lo, hi = _block_bounds(split, dl, zc, rho)
        positive = lo > EQUALITY_TOL
        settled = np.all(positive | (hi < 0.0), axis=0)
        if reach is None:
            reach = [_hull(i0[~p], j0[~p], size, shape) for p in positive]
        _paint(fills, i0[settled], j0[settled], size, ~positive[:, settled])
        evaluations += zc.size
        size //= 2
        i0, j0 = i0[~settled], j0[~settled]
        i0 = np.concatenate([i0, i0, i0 + size, i0 + size])
        j0 = np.concatenate([j0, j0 + size, j0, j0 + size])
        on = (i0 < ny) & (j0 < nx)
        i0, j0 = i0[on], j0[on]
    a, b, c = _indicator_terms(split, xs[j0] + 1j * ys[i0])
    for delta, inside in zip(deltas, fills):
        with np.errstate(invalid="ignore"):
            inside[i0, j0] = a - b - delta * c <= EQUALITY_TOL
    return fills, reach, evaluations + i0.size


def _hull(i0: np.ndarray, j0: np.ndarray, size: int, shape):
    """The (rows, columns) window of the blocks of side size with corners
    (i0, j0), clipped to a grid of the given shape."""
    if not i0.size:
        return slice(0, 0), slice(0, 0)
    return (slice(int(i0.min()), min(shape[0], int(i0.max()) + size)),
            slice(int(j0.min()), min(shape[1], int(j0.max()) + size)))


def _block_bounds(split: RootSplit, deltas: np.ndarray, zc: np.ndarray,
                  rho: np.ndarray):
    """(lo, hi), one row per delta: lo <= g <= hi at every cell center
    within rho of zc, for g as a dense grid computes it: each field sum
    within its `kernels.ball_bound`, and 1/|r| within the factors
    (1 -+ t)^-m of its value at zc, t = rho/d for d the distance to the
    nearest outside root, with a rounding margin of ROUNDING (m + 2) eps
    times the upper one.  Bounds reaching a root are infinite or nan and
    settle nothing."""
    m = split.m
    f_in, *a = field_modulus_nearest(zc, split.inside)
    f_out, *b = field_modulus_nearest(zc, split.outside)
    e_ab = ball_bound(rho, *a, split.n) + ball_bound(rho, *b, m)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        c = _inverse_r(split, zc)
        t = rho / b[1]
        c_lo = c * (1.0 + t) ** -m
        c_hi = c * (1.0 - t) ** -m
        margin = ROUNDING * (m + 2) * np.finfo(float).eps * deltas * c_hi
        centre = np.abs(f_in) - np.abs(f_out)
        return (centre - e_ab - deltas * c_hi - margin,
                centre + e_ab - deltas * c_lo + margin)


def _paint(fills, i0: np.ndarray, j0: np.ndarray, size: int,
           inside: np.ndarray) -> None:
    """fills[k][i:i + size, j:j + size] = inside[k, b], the membership of
    settled block b for delta k, for every block corner (i, j) =
    (i0[b], j0[b]), clipped to the grid.

    The corners sit on multiples of size, so the blocks inside the grid
    are written through one block view of it, a contiguous run per block
    row; the few that the grid's edge cuts, as clipped slices.
    """
    ny, nx = fills[0].shape
    inner = (i0 + size <= ny) & (j0 + size <= nx)
    cut = list(zip(i0[~inner].tolist(), j0[~inner].tolist()))
    for fill, v in zip(fills, inside):
        view = fill[:ny - ny % size, :nx - nx % size].reshape(
            ny // size, size, nx // size, size)
        view[i0[inner] // size, :, j0[inner] // size, :] = \
            v[inner, None, None]
        for (i, j), w in zip(cut, v[~inner]):
            fill[i:i + size, j:j + size] = w


def _patch_singular_cells(split, delta, inside, cells, xs, ys, h) -> None:
    """Re-mark, in place on the boolean grid inside, the cells (i, j)
    whose center sits on a root.

    Each such cell is subdivided once; the cell takes the membership,
    g <= EQUALITY_TOL, of the nearest non-singular quarter point.  If all
    four quarter points are singular too the configuration is degenerate
    beyond repair.
    """
    offsets = np.array([-0.25 - 0.25j, 0.25 - 0.25j,
                        -0.25 + 0.25j, 0.25 + 0.25j]) * h
    for i, j in cells:
        center = xs[j] + 1j * ys[i]
        pts = center + offsets
        aa, bb, cc = _indicator_terms(split, pts)
        vals = aa - bb - delta * cc
        good = ~_near_root(split, pts) & ~np.isnan(vals)
        if not np.any(good):
            raise SingularCell(center)
        order = np.argsort(np.abs(pts - center), kind="stable")
        pick = order[good[order]][0]
        inside[i, j] = vals[pick] <= EQUALITY_TOL


def _far_field_check(inside: np.ndarray, bbox):
    """Raise GrowBBox when a border cell of the boolean grid inside is in
    A_delta, suggesting the box grown 1.5 times about its center."""
    border = np.concatenate([inside[0, :], inside[-1, :],
                             inside[1:-1, 0], inside[1:-1, -1]])
    if not border.any():
        return
    xmin, xmax, ymin, ymax = bbox
    cx, cy = 0.5 * (xmin + xmax), 0.5 * (ymin + ymax)
    w, v = 0.75 * (xmax - xmin), 0.75 * (ymax - ymin)
    suggested = (cx - w, cx + w, cy - v, cy + v)
    raise GrowBBox(bbox, suggested)


# ---------------------------------------------------------------------------
# moat boundaries
# ---------------------------------------------------------------------------

def _runs(edges: np.ndarray):
    """(row, start, stop) of each maximal run of True cells in the rows of
    a boolean array, rows in order."""
    ny, nx = edges.shape
    padded = np.zeros((ny, nx + 2), dtype=bool)
    padded[:, 1:-1] = edges
    ii, kk = np.divmod(np.flatnonzero(padded[:, 1:] != padded[:, :-1]),
                       nx + 1)
    return ii[0::2], kk[0::2], kk[1::2]


def _boundary_segments(cells: np.ndarray) -> np.ndarray:
    """Directed boundary edges (a, b) of a boolean cell set, one per cell
    side, the cells on their left, as (k, 2) rows.

    Vertex (vj, vi) is vj + 1j*vi in grid units, so outer boundaries run
    counterclockwise and holes clockwise, and winding sums over all edges
    count geometric membership.  Cell-sized pieces are what the Rouché
    margin needs, so `rouche_pass` starts from them: from merged straight
    runs it took 3-9 halving rounds per moat on census seed 1, from single
    sides 1-5.
    """
    ny, nx = cells.shape
    pad = np.zeros((ny + 2, nx + 2), dtype=bool)
    pad[1:-1, 1:-1] = cells
    sides = []
    for neighbour, a, b in ((pad[:-2, 1:-1], 0, 1),          # south
                            (pad[1:-1, 2:], 1, 1 + 1j),      # east
                            (pad[2:, 1:-1], 1 + 1j, 1j),     # north
                            (pad[1:-1, :-2], 1j, 0)):        # west
        i, j = np.nonzero(cells & ~neighbour)
        sides.append(np.stack([j + 1j * i + a, j + 1j * i + b], axis=1))
    return np.concatenate(sides)


def _cells_of_points(bbox, h: float, shape, pts: np.ndarray) -> np.ndarray:
    """(k, 2) rows of (i, j) cell indices; -1 rows for points off-grid."""
    jj = np.floor((pts.real - bbox[0]) / h).astype(int)
    ii = np.floor((pts.imag - bbox[2]) / h).astype(int)
    ny, nx = shape
    bad = (ii < 0) | (ii >= ny) | (jj < 0) | (jj >= nx)
    ii[bad] = -1
    jj[bad] = -1
    return np.stack([ii, jj], axis=1)


def _moat(mask: RegionMask, component: int, protect: np.ndarray):
    """Dilated component footprint whose boundary clears the protect cells,
    (i, j) rows as `_cells_of_points` gives them (-1 rows off-grid).

    Grows one ring at a time into unlabeled cells; when a protect cell
    sits on the current boundary and the blocking cells belong to another
    component, that component is absorbed whole.  The moat lives on a
    window around the involved components — ring growth is bounded by
    _RING_LIMIT, so the window contains every cell the moat can reach —
    and the window widens when a component is absorbed.
    Returns (cells on the window, window, absorbed ids, error or None).
    """
    labels = mask.labels
    margin = _RING_LIMIT + 2
    win = mask.window_of([component], margin)
    current = labels[win] == component
    absorbed: set[int] = set()
    for _ in range(_RING_LIMIT):
        current |= _dilate(current) & (labels[win] < 0)
        # a protect cell is in trouble when its 3 x 3 block on the window
        # is partly in the moat; no cell off the window is (see `_on`)
        trouble = protect[_on(_dilate(current) & _dilate(~current), win,
                              protect)]
        if not trouble.size:
            return current, win, tuple(sorted(absorbed)), None
        # absorb the components that block clean growth; a trouble cell is
        # next to the moat, so its 3 x 3 block on the grid is on the window
        near = np.zeros(current.shape, dtype=bool)
        near[trouble[:, 0] - win[0].start, trouble[:, 1] - win[1].start] = True
        absorbed.update(int(c) for c in np.unique(labels[win][_dilate(near)])
                        if c >= 0 and c != component)
        # the wider window holds the old one: move the moat onto it
        wider = mask.window_of([component, *absorbed], margin)
        moved = np.zeros(labels[wider].shape, dtype=bool)
        moved[win[0].start - wider[0].start:win[0].stop - wider[0].start,
              win[1].start - wider[1].start:win[1].stop - wider[1].start] \
            = current
        current, win = moved, wider
        for cid in absorbed:
            current |= labels[win] == cid
    err = "moat growth exhausted with p' roots on the boundary"
    return current, win, tuple(sorted(absorbed)), err


def _dilate(cells: np.ndarray) -> np.ndarray:
    """The cells of the window that are in cells or share a side or a
    corner with one: the OR of the set's 9 shifts by at most one row and
    one column, cells beyond the window's edges counted outside."""
    ny, nx = cells.shape
    pad = np.zeros((ny + 2, nx + 2), dtype=bool)
    pad[1:-1, 1:-1] = cells
    rows = pad[:, :-2] | pad[:, 1:-1] | pad[:, 2:]
    return rows[:-2] | rows[1:-1] | rows[2:]


def _on(cells: np.ndarray, win, ij: np.ndarray) -> np.ndarray:
    """Whether each (i, j) row (-1 rows off-grid, so off the window) falls
    on the cell set held on window win.  A moat stays two cells clear of
    its window's edges inside the grid, so cells off it are outside."""
    i, j = ij[:, 0] - win[0].start, ij[:, 1] - win[1].start
    on = (i >= 0) & (i < cells.shape[0]) & (j >= 0) & (j < cells.shape[1])
    return on & cells[np.where(on, i, 0), np.where(on, j, 0)]


def _plane_segments(mask: RegionMask, cells: np.ndarray, win) -> np.ndarray:
    """`_boundary_segments` of the cell set held on window win, in the
    plane."""
    shift = win[1].start + 1j * win[0].start
    origin = mask.bbox[0] + 1j * mask.bbox[2]
    return origin + (_boundary_segments(cells) + shift) * mask.cell_size


# ---------------------------------------------------------------------------
# classification
# ---------------------------------------------------------------------------

def classify_components(mask: RegionMask, split: RootSplit, K: ConvexDomain,
                        epsilon: float) -> list[ComponentReport]:
    """Per-component geometry flags, root membership, and Rouché census.

    A root lies in a moat when its cell does.  The zeros of p' (of q')
    in a moat are the roots of p (of q) in it plus the winding of p'/p
    (of q'/q) over its boundary; one `rouche_pass` per moat gives both
    windings and the margin.  A failure is recorded on the report and the
    first one kept: a moat that stopped growing leaves the p' count at 0,
    and a pass that raises leaves both counts at 0 and the margin -inf.
    """
    if not epsilon > 0:
        raise InvalidEpsilon("epsilon must be strictly positive")
    crit_cells, q_cells, r_cells = (
        _cells_of_points(mask.bbox, mask.cell_size, mask.shape, pts)
        for pts in (split.critical, split.inside, split.outside))

    reports = []
    for cid, win in enumerate(mask.windows):
        cells, in_k, out_keps = _component_flags(mask, cid, win, K, epsilon)
        r_inside = int(_on(cells, win, r_cells).sum())
        moat, moat_win, absorbed, err = _moat(mask, cid, crit_cells)
        segs = _plane_segments(mask, moat, moat_win)
        q_enc = int(_on(moat, moat_win, q_cells).sum())
        r_enc = int(_on(moat, moat_win, r_cells).sum())
        count = qp_enc = 0
        try:
            winding, q_winding, margin = rouche_pass(split.inside,
                                                     split.outside, segs)
            qp_enc = q_enc + q_winding
            if err is None:
                count = q_enc + r_enc + winding
        except RootOnContour as exc:
            err = err or f"{type(exc).__name__}: {exc}"
            margin = -np.inf
        reports.append(ComponentReport(
            component=cid, touches_K=bool(in_k.any()),
            escapes_Keps=bool(out_keps.any()),
            r_roots_inside=r_inside, crit_points_inside=count,
            rouche_margin=margin, qprime_roots_enclosed=qp_enc,
            r_roots_enclosed=r_enc, absorbed=absorbed, count_error=err))
    return reports


# ---------------------------------------------------------------------------
# bridging detection
# ---------------------------------------------------------------------------

def _component_flags(mask: RegionMask, cid: int, win, K: ConvexDomain,
                     epsilon: float):
    """(cells, in_K, beyond_K_eps) boolean arrays on the window win of
    component cid; the flags are evaluated on its cells only."""
    cells = mask.labels[win] == cid
    pts = mask.cell_centers(win)[cells]
    in_k = np.zeros(cells.shape, dtype=bool)
    out_keps = np.zeros(cells.shape, dtype=bool)
    in_k[cells] = contains(K, pts)
    out_keps[cells] = distance(K, pts) > epsilon
    return cells, in_k, out_keps


def bridging_check(mask: RegionMask, reports, K: ConvexDomain,
                   epsilon: float) -> np.ndarray | None:
    """The witness of the first component of reports, the mask's
    `classify_components` reports, that crosses from K to outside K_eps,
    or None when none crosses.

    The witness is a 4-connected cell-center path inside the component
    from a cell in K to a cell beyond K_eps — the discrete version of the
    path whose endpoints the theorem's field estimates contradict —
    searched inside the component's window.
    """
    for rep in reports:
        if rep.touches_K and rep.escapes_Keps:
            win = mask.windows[rep.component]
            path = _cell_path(*_component_flags(mask, rep.component, win,
                                                K, epsilon))
            return mask.cell_centers(win)[path[:, 0], path[:, 1]]
    return None


def _cell_path(region: np.ndarray, sources: np.ndarray,
               targets: np.ndarray) -> np.ndarray:
    """BFS path through True cells of region from sources to targets."""
    ny, nx = region.shape
    prev = np.full((ny, nx, 2), -1, dtype=int)
    seen = np.zeros((ny, nx), dtype=bool)
    queue = deque()
    for i, j in np.argwhere(sources):
        queue.append((int(i), int(j)))
        seen[i, j] = True
    while queue:
        i, j = queue.popleft()
        if targets[i, j]:
            path = [(i, j)]
            while prev[path[-1]][0] >= 0:
                path.append(tuple(prev[path[-1]]))
            return np.array(path[::-1])
        for di, dj in ((1, 0), (-1, 0), (0, 1), (0, -1)):
            a, b = i + di, j + dj
            if 0 <= a < ny and 0 <= b < nx and region[a, b] \
                    and not seen[a, b]:
                seen[a, b] = True
                prev[a, b] = (i, j)
                queue.append((a, b))
    raise AssertionError("bridge component lost its endpoints")
