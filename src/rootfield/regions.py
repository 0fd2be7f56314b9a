"""Grid extraction of the dominance set A_delta and its components.

A_delta = {z : |q'/q| <= |r'/r| + delta/|r|} contains every critical point
of p = q*r, because q'/q = -r'/r exactly at roots of p'.  The set is
sampled at cell centers on a regular grid, labeled by 4-connected flood
fill, and each component is certified by an argument-principle count of
p' roots over the boundary of a union of cells together with a Rouché
margin.

The grid is filled by a quadtree, not cell by cell.  On a block of cells
the field sums and 1/|r| are bounded from their values at the block's
center (interval bounds in the style of Snyder, SIGGRAPH 1992), with a
margin for the rounding of the values a cell-by-cell evaluation would
compute.  A block whose bounds fix the sign of g for every delta is
settled and holds its bound nearest zero; any other block splits in
four, and the single cells left are evaluated exactly.  The labels are
therefore those of the dense grid, cell for cell; `indicator` differs
from the dense values only on settled cells, where it is a bound of the
same sign and no larger modulus.

Everything after the fill costs the size of the labeled region, not of
the grid.  Labeling runs on the window of the cells with g <= EQUALITY_TOL
(the top blocks the quadtree could not certify positive bound it), with
the ids a whole-grid labeling would give; every cell outside that window
is -1 by construction.  The mask stores each component's window, and
moats, flags and witness paths work inside those windows.

Counts do not run along the raw component staircase: critical points hug
the zero level of the indicator, so the contour is the boundary of the
"moat" instead — the component dilated by one or more rings of cells that
belong to no component.  On the moat the indicator is strictly positive,
which is what makes the recorded Rouché margins positive and keeps the
roots of p' clear of the samples.  Rings grow (and nearby components are
absorbed) until every root of p' is either deep inside or well outside
the moat; the Rouché count equality holds for any such union of cells, so
absorption never invalidates a certificate.  The boundary is the moat's
boundary edges merged into straight segments, with the moat on their
left.  The winding over a union of cells is the sum of the argument
increments over those segments in any order, so no loop is traced.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

import numpy as np
from scipy import ndimage

from . import contours as _contours
from .errors import (GrowBBox, InvalidEpsilon, NonIntegerWinding,
                     RootOnContour, SingularCell, SingularPoint)
from .geometry import ConvexDomain, bounding_box, contains, diameter, distance
from .kernels import field_modulus_nearest, field_sum, min_distance
from .poly import (Polynomial, RootSplit, SINGULAR_GUARD, derivative,
                   majorant_logmag, phase_logmag)

EQUALITY_TOL = 1e-14   # |g| at or below this counts as inside (closed set)
_RING_LIMIT = 6        # moat growth rings before a component count gives up
_REFINE_FACTOR = 4.0   # contour samples per cell edge
_BLOCK = 32            # side, in cells, of the quadtree's top blocks
_SAFETY = 16.0         # factor on the rounding estimate of a block margin

_FOUR = np.array([[0, 1, 0], [1, 1, 1], [0, 1, 0]], dtype=int)
_EIGHT = np.ones((3, 3), dtype=int)


@dataclass(frozen=True)
class RegionMask:
    """Signed indicator and component labels on a regular cell grid.

    indicator[i, j] is g at the center of cell (i, j) where the cell was
    evaluated; on a cell whose sign a quadtree block certified it is that
    block's bound nearest zero, of the same sign as g and no larger in
    modulus.  Either way indicator <= EQUALITY_TOL exactly where
    g <= EQUALITY_TOL.  labels hold a dense component id for those cells,
    numbered in raster order of each component's first cell, and -1
    elsewhere; labeling runs only on the window of those cells, so every
    cell outside it is -1 by construction.  windows[c] is the (rows,
    columns) slice pair of component c's bounding box on the grid.
    evaluations counts the cells and block centers at which the field
    terms were evaluated, shared by the masks of one `build_masks` call.
    """

    bbox: tuple[float, float, float, float]   # xmin, xmax, ymin, ymax
    resolution: float                         # cells per unit length
    delta: float
    indicator: np.ndarray
    labels: np.ndarray
    n_components: int
    windows: tuple[tuple[slice, slice], ...]
    evaluations: int = 0

    @property
    def cell_size(self) -> float:
        return 1.0 / self.resolution

    @property
    def shape(self) -> tuple[int, int]:
        return self.indicator.shape

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
        ny, nx = self.indicator.shape
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
    rouche_margin: float         # min |q'r| - |qr'| on the moat samples
    qprime_roots_enclosed: int = 0   # q' roots with cells in the moat
    r_roots_enclosed: int = 0        # r roots with cells in the moat
    absorbed: tuple[int, ...] = ()   # other component ids merged into the moat
    count_error: str | None = None


@dataclass(frozen=True)
class BridgeResult:
    bridged: bool
    component: int | None = None
    path: np.ndarray | None = None   # cell centers from a K cell outward


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
    """1/|r| at every point, from r's coefficients."""
    if not split.m:
        return np.ones(zs.shape)  # r is the constant 1
    _, logmag = phase_logmag(split.outside_poly().coeffs, zs.ravel())
    with np.errstate(over="ignore"):
        return (2.0 ** (-logmag)).reshape(zs.shape)


def _near_root(split: RootSplit, zs: np.ndarray) -> np.ndarray:
    """Points of zs within SINGULAR_GUARD of a root."""
    roots = np.concatenate([split.inside, split.outside])
    return min_distance(zs, roots) < SINGULAR_GUARD


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
    roots = np.concatenate([split.inside, split.outside])
    kx0, kx1, ky0, ky1 = bounding_box(K)
    xs = np.concatenate([roots.real, [kx0, kx1]])
    ys = np.concatenate([roots.imag, [ky0, ky1]])
    pad = 2.0 * (epsilon + diameter(K))
    return (float(xs.min() - pad), float(xs.max() + pad),
            float(ys.min() - pad), float(ys.max() + pad))


def build_mask(split: RootSplit, delta: float, bbox, resolution: float,
               ) -> RegionMask:
    """Evaluate the indicator on the grid and label its components."""
    return build_masks(split, [delta], bbox, resolution)[0]


def build_masks(split: RootSplit, deltas, bbox, resolution: float,
                ) -> list[RegionMask]:
    """One mask per delta, sharing the field terms (g = A - B - delta*C).

    The sign of g is settled by the quadtree of `_signed_fill`; cells
    whose sign it cannot certify carry the exact cell-center value.
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
    xs = xmin + (np.arange(nx) + 0.5) * h
    ys = ymin + (np.arange(ny) + 0.5) * h

    gs, reach, evaluations = _signed_fill(split, deltas, xs, ys)
    # a center within SINGULAR_GUARD of a root lies in that root's cell
    roots = np.concatenate([split.inside, split.outside])
    cells = _cells_of_points((xmin, xmax, ymin, ymax), h, (ny, nx), roots)
    cells = cells[cells[:, 0] >= 0]
    near = cells[_near_root(split, xs[cells[:, 1]] + 1j * ys[cells[:, 0]])]

    masks = []
    for delta, g, win in zip(deltas, gs, reach):
        # nan (inf - inf) needs a cell center on a root, and a top block
        # holding a root is never certified positive, so it is in reach
        nan = np.argwhere(np.isnan(g[win])) + (win[0].start, win[1].start)
        _patch_singular_cells(split, delta, g,
                              np.unique(np.concatenate([near, nan]), axis=0),
                              xs, ys, h)
        _far_field_check(g, (xmin, xmax, ymin, ymax))
        labels, windows = _label(g, win)
        masks.append(RegionMask((xmin, xmax, ymin, ymax), float(resolution),
                                delta, g, labels, len(windows), windows,
                                evaluations))
    return masks


def _label(g: np.ndarray, reach):
    """(labels, windows) of the 4-connected components of g <= EQUALITY_TOL.

    Every such cell lies in the window reach.  Labeling runs on the
    smallest window holding them; ndimage.label numbers components in
    raster order of their first cell, so the ids are those of a labeling
    of the whole grid.  Cells outside the window are -1 by construction.
    """
    labels = np.full(g.shape, -1, dtype=np.int32)
    inside = g[reach] <= EQUALITY_TOL
    rows = np.flatnonzero(inside.any(axis=1))
    if not rows.size:
        return labels, ()
    r0, r1 = int(rows[0]), int(rows[-1]) + 1
    cols = np.flatnonzero(inside[r0:r1].any(axis=0))
    c0, c1 = int(cols[0]), int(cols[-1]) + 1
    sub, _ = ndimage.label(inside[r0:r1, c0:c1], structure=_FOUR)
    i0, j0 = reach[0].start + r0, reach[1].start + c0
    win = (slice(i0, i0 + r1 - r0), slice(j0, j0 + c1 - c0))
    windows = tuple((slice(a.start + i0, a.stop + i0),
                     slice(b.start + j0, b.stop + j0))
                    for a, b in ndimage.find_objects(sub))
    sub -= 1
    labels[win] = sub
    return labels, windows


def _signed_fill(split: RootSplit, deltas, xs, ys):
    """(g grid per delta, reach window per delta, evaluation count) on the
    cell centers xs x ys.

    The grid is tiled with _BLOCK x _BLOCK blocks.  A block whose bounds
    from `_block_bounds` fix the sign of g for every delta is settled and
    painted with the bound nearest zero; any other block splits into
    four, down to single cells, which are evaluated exactly as on a dense
    grid (the same points and arithmetic, hence the same bits).  The top
    level is painted all at once, nan on its unsettled blocks, which the
    finer levels overwrite.  A delta's reach is the window of the top
    blocks not certified positive for it; every cell with g <= EQUALITY_TOL
    lies inside it.
    """
    ny, nx = len(ys), len(xs)
    gs = [np.empty((ny, nx)) for _ in deltas]
    dl = np.array(deltas)[:, None]
    i0, j0 = (a.ravel() for a in np.meshgrid(np.arange(0, ny, _BLOCK),
                                             np.arange(0, nx, _BLOCK),
                                             indexing="ij"))
    blocks = np.stack([i0, np.minimum(i0 + _BLOCK, ny),
                       j0, np.minimum(j0 + _BLOCK, nx)])
    top = blocks
    reach = None
    singles = []
    evaluations = 0
    while blocks.shape[1]:
        one = (blocks[1] - blocks[0] == 1) & (blocks[3] - blocks[2] == 1)
        singles.append(blocks[:, one])
        blocks = blocks[:, ~one]
        i0, i1, j0, j1 = blocks
        x0, x1, y0, y1 = xs[j0], xs[j1 - 1], ys[i0], ys[i1 - 1]
        zc = 0.5 * (x0 + x1) + 0.5j * (y0 + y1)
        # the farthest cell center is a corner; the factor covers rounding
        rho = np.hypot(np.maximum(x1 - zc.real, zc.real - x0),
                       np.maximum(y1 - zc.imag, zc.imag - y0)) * (1 + 1e-12)
        lo, hi = _block_bounds(split, dl, zc, rho)
        positive = lo > EQUALITY_TOL
        settled = np.all(positive | (hi < 0.0), axis=0)
        value = np.where(positive, lo, hi)
        if reach is None:
            # the top level; its single cells are evaluated exactly below
            maybe = np.ones((len(deltas), one.size), dtype=bool)
            maybe[:, ~one] = ~positive
            reach = [_hull(top[:, k]) for k in maybe]
            coarse = np.full((len(deltas), one.size), np.nan)
            coarse[:, ~one] = np.where(settled, value, np.nan)
            _paint_top(gs, coarse.reshape(len(deltas), -1, -(-nx // _BLOCK)))
        else:
            _paint(gs, blocks[:, settled], value[:, settled])
        evaluations += zc.size
        blocks = _quarters(blocks[:, ~settled])
    ii = np.concatenate([b[0] for b in singles])
    jj = np.concatenate([b[2] for b in singles])
    a, b, c = _indicator_terms(split, xs[jj] + 1j * ys[ii])
    for delta, g in zip(deltas, gs):
        with np.errstate(invalid="ignore"):
            g[ii, jj] = a - b - delta * c
    return gs, reach, evaluations + ii.size


def _hull(blocks: np.ndarray):
    """The (rows, columns) window of a set of (i0, i1, j0, j1) columns."""
    if not blocks.shape[1]:
        return slice(0, 0), slice(0, 0)
    return (slice(int(blocks[0].min()), int(blocks[1].max())),
            slice(int(blocks[2].min()), int(blocks[3].max())))


def _block_bounds(split: RootSplit, deltas: np.ndarray, zc: np.ndarray,
                  rho: np.ndarray):
    """(lo, hi), one row per delta: lo <= g <= hi at every cell center
    within rho of zc, for g as a dense grid computes it.

    With t = rho/d for d the distance from zc to the nearest root of a
    set, |1/(z-a) - 1/(zc-a)| <= |z-zc|/(|z-a||zc-a|) moves the field of
    that set by at most t*S/(1-t), S = sum 1/|zc-a|, and 1/|r| lies within
    the factors (1 -+ t)^-m of its value at zc.  The margin covers the
    rounding of the dense value and of the bound itself: n*eps times the
    modulus sum S/(1-t) for each field sum, and for 1/|r| the Horner
    error m*eps*majorant(|r|) relative to |r| plus the log2 round trip.
    Blocks with t >= 1 get (-inf, inf).
    """
    n, m = split.n, split.m
    eps = np.finfo(float).eps
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        f_in, s_in, d_in = field_modulus_nearest(zc, split.inside)
        f_out, s_out, d_out = field_modulus_nearest(zc, split.outside)
        c = _inverse_r(split, zc)
        t_in, t_out = rho / d_in, rho / d_out
        s_in = s_in / (1.0 - t_in)
        s_out = s_out / (1.0 - t_out)
        e_ab = t_in * s_in + t_out * s_out
        c_lo = c * (1.0 + t_out) ** -m
        c_hi = c * (1.0 - t_out) ** -m
        if m:
            r_coeffs = split.outside_poly().coeffs
            log_c = np.log2(c_hi)
            rel_c = (m * 2.0 ** (majorant_logmag(r_coeffs, np.abs(zc) + rho)
                                 + log_c)
                     + np.abs(log_c) + m * np.abs(np.log2(np.abs(zc) + rho))
                     + m + 2.0)
        else:
            rel_c = np.zeros(zc.shape)   # r is the constant 1
        centre = np.abs(f_in) - np.abs(f_out)
        margin = _SAFETY * eps * ((n + 2) * s_in + (m + 2) * s_out + e_ab
                                  + deltas * c_hi * rel_c)
        lo = centre - e_ab - deltas * c_hi - margin
        hi = centre + e_ab - deltas * c_lo + margin
    valid = (t_in < 1.0) & (t_out < 1.0)
    return np.where(valid, lo, -np.inf), np.where(valid, hi, np.inf)


def _quarters(blocks: np.ndarray) -> np.ndarray:
    """The non-empty quarters of each (i0, i1, j0, j1) column."""
    i0, i1, j0, j1 = blocks
    im = i0 + (i1 - i0 + 1) // 2
    jm = j0 + (j1 - j0 + 1) // 2
    out = np.stack([np.concatenate([i0, i0, im, im]),
                    np.concatenate([im, im, i1, i1]),
                    np.concatenate([j0, jm, j0, jm]),
                    np.concatenate([jm, j1, jm, j1])])
    return out[:, (out[1] > out[0]) & (out[3] > out[2])]


def _paint_top(gs, coarse: np.ndarray) -> None:
    """gs[k][block (a, b)] = coarse[k, a, b] for every top block, edge
    blocks cut short, in one broadcast write per grid; coarse is nan on
    the blocks left to the finer levels."""
    ny, nx = gs[0].shape
    full = ny - ny % _BLOCK
    for g, c in zip(gs, coarse):
        rows = np.repeat(c, _BLOCK, axis=1)[:, :nx]
        g[:full].reshape(-1, _BLOCK, nx)[...] = rows[:full // _BLOCK, None]
        g[full:] = rows[full // _BLOCK:]


def _paint(gs, blocks: np.ndarray, values: np.ndarray) -> None:
    """gs[k][i0:i1, j0:j1] = values[k, b] for every block column b.

    Blocks of one shape whose corners sit on multiples of that shape are
    written through a block view of the grid, a contiguous run per block
    row; the rest by one fancy assignment per shape.
    """
    i0, i1, j0, j1 = blocks
    ny, nx = gs[0].shape
    shapes = np.stack([i1 - i0, j1 - j0], axis=1)
    for hh, ww in np.unique(shapes, axis=0):
        sel = (shapes[:, 0] == hh) & (shapes[:, 1] == ww)
        tiled = sel & (i0 % hh == 0) & (j0 % ww == 0)
        loose = sel & ~tiled
        rows = i0[loose, None, None] + np.arange(hh)[:, None]
        cols = j0[loose, None, None] + np.arange(ww)
        for g, v in zip(gs, values):
            view = g[:ny - ny % hh, :nx - nx % ww].reshape(
                ny // hh, hh, nx // ww, ww)
            view[i0[tiled] // hh, :, j0[tiled] // ww, :] = \
                v[tiled, None, None]
            g[rows, cols] = v[loose, None, None]


def _patch_singular_cells(split, delta, g, cells, xs, ys, h) -> None:
    """Re-evaluate, in place, the cells (i, j) whose center sits on a root.

    Each such cell is subdivided once; the cell takes the value of the
    nearest non-singular quarter point.  If all four quarter points are
    singular too the configuration is degenerate beyond repair.
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
        g[i, j] = vals[pick]


def _far_field_check(g: np.ndarray, bbox):
    border = np.concatenate([g[0, :], g[-1, :], g[1:-1, 0], g[1:-1, -1]])
    if np.all(border > 0):
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
    padded = np.zeros((ny, nx + 2), dtype=np.int8)
    padded[:, 1:-1] = edges
    ii, kk = np.nonzero(np.diff(padded, axis=1))
    return ii[0::2], kk[0::2], kk[1::2]


def _boundary_segments(cells: np.ndarray) -> np.ndarray:
    """Directed boundary segments (a, b) of a boolean cell set, the cells
    on their left, as (k, 2) rows.

    Vertex (vj, vi) is vj + 1j*vi in grid units.  Each maximal straight
    run of boundary edges with the set on the same side is one segment, so
    outer boundaries run counterclockwise and holes clockwise, and winding
    sums over all segments count geometric membership.
    """
    ny, nx = cells.shape
    pad = np.zeros((ny + 2, nx + 2), dtype=bool)
    pad[1:-1, 1:-1] = cells
    i, j0, j1 = _runs(cells & ~pad[:-2, 1:-1])             # south edges
    south = (j0 + 1j * i, j1 + 1j * i)
    i, j0, j1 = _runs(cells & ~pad[2:, 1:-1])              # north edges
    north = (j1 + 1j * (i + 1), j0 + 1j * (i + 1))
    j, i0, i1 = _runs((cells & ~pad[1:-1, :-2]).T)         # west edges
    west = (j + 1j * i1, j + 1j * i0)
    j, i0, i1 = _runs((cells & ~pad[1:-1, 2:]).T)          # east edges
    east = (j + 1 + 1j * i0, j + 1 + 1j * i1)
    return np.stack([np.concatenate(ends)
                     for ends in zip(south, north, west, east)], axis=1)


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
    """Dilated component footprint whose boundary clears the protect points.

    Grows one ring at a time into unlabeled cells; when a protect point
    sits on the current boundary and the blocking cells belong to another
    component, that component is absorbed whole.  The moat lives on a
    window around the involved components — ring growth is bounded by
    _RING_LIMIT, so the window contains every cell the moat can reach —
    and the window widens when a component is absorbed.
    Returns (cells on the window, window, absorbed ids, error or None).
    """
    labels = mask.labels
    ny, nx = mask.shape
    margin = _RING_LIMIT + 2
    win = mask.window_of([component], margin)
    current = labels[win] == component
    absorbed: set[int] = set()
    pcells = _cells_of_points(mask.bbox, mask.cell_size, mask.shape, protect)
    for _ in range(_RING_LIMIT):
        grown = ndimage.binary_dilation(current, structure=_EIGHT)
        current |= grown & (labels[win] < 0)
        # a protect point is safe when its cell and the 8 surrounding
        # cells are uniformly inside or uniformly outside the moat
        trouble = [(i, j) for i, j in pcells
                   if i >= 0 and _straddles(current, win, i, j)]
        if not trouble:
            return current, win, tuple(sorted(absorbed)), None
        # absorb whole neighbouring components that block clean growth
        for i, j in trouble:
            i0, i1 = max(0, i - 1), min(ny, i + 2)
            j0, j1 = max(0, j - 1), min(nx, j + 2)
            for cid in np.unique(labels[i0:i1, j0:j1]):
                if cid >= 0 and cid != component:
                    absorbed.add(int(cid))
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


def _straddles(cells: np.ndarray, win, i: int, j: int) -> bool:
    """Whether grid cell (i, j) and its 8 neighbours are partly inside and
    partly outside the cell set held on window win.  The set stays two
    cells clear of the window's edges inside the grid, so the neighbours
    off the window are outside it."""
    a, b = i - win[0].start, j - win[1].start
    block = cells[max(0, a - 1):max(0, a + 2), max(0, b - 1):max(0, b + 2)]
    return bool(block.any()) and not block.all()


def _count_on(cells: np.ndarray, win, ij: np.ndarray) -> int:
    """How many of the (i, j) rows (-1 rows off-grid, so off the window)
    fall on the cell set held on window win."""
    i, j = ij[:, 0] - win[0].start, ij[:, 1] - win[1].start
    on = (i >= 0) & (i < cells.shape[0]) & (j >= 0) & (j < cells.shape[1])
    return int(np.count_nonzero(cells[i[on], j[on]]))


def component_boundaries(mask: RegionMask, component: int,
                         protect: np.ndarray | None = None):
    """Moat boundary: (contour, moat cells, window, absorbed ids, error or
    None).

    The moat cells are held on their window, a (rows, columns) slice pair
    of the grid.  The contour is the set of the moat's boundary segments,
    outer loops counterclockwise and holes clockwise, so its
    argument-principle count is the number of roots inside the moat.
    """
    if protect is None:
        protect = np.zeros(0, dtype=np.complex128)
    cells, win, absorbed, err = _moat(mask, component, protect)
    shift = win[1].start + 1j * win[0].start
    origin = mask.bbox[0] + 1j * mask.bbox[2]
    segments = origin + (_boundary_segments(cells) + shift) * mask.cell_size
    contour = _contours.segment_set(
        segments, refinement=_REFINE_FACTOR * mask.resolution)
    return contour, cells, win, absorbed, err


# ---------------------------------------------------------------------------
# classification
# ---------------------------------------------------------------------------

def classify_components(mask: RegionMask, split: RootSplit, K: ConvexDomain,
                        epsilon: float, strict: bool = False,
                        ) -> list[ComponentReport]:
    """Per-component geometry flags, root membership, and Rouché census.

    With strict=True the first contour-counting failure propagates as an
    exception; the default records the failure on the report instead and
    leaves crit_points_inside at 0.
    """
    if not epsilon > 0:
        raise InvalidEpsilon("epsilon must be strictly positive")
    crit = split.critical
    dp = derivative(split.product())
    dpoly = Polynomial(dp.coeffs, roots=crit) if dp.degree >= 1 else dp
    q = split.inside_poly()
    r = split.outside_poly()
    qp = derivative(q)
    rp = derivative(r)

    grid = (mask.bbox, mask.cell_size, mask.shape)
    r_cells = _cells_of_points(*grid, split.outside)
    qp_cells = _cells_of_points(*grid, split.inside_critical)

    reports = []
    for cid, win in enumerate(mask.windows):
        _, in_k, out_keps = _component_flags(mask, cid, win, K, epsilon)
        touches = bool(np.any(in_k))
        escapes = bool(np.any(out_keps))
        r_inside = int(sum(1 for i, j in r_cells
                           if i >= 0 and mask.labels[i, j] == cid))
        contour, moat, moat_win, absorbed, err = component_boundaries(
            mask, cid, protect=crit)
        count = 0
        if err is None:
            try:
                count = _contours.count_roots_in(dpoly, contour)
            except (RootOnContour, NonIntegerWinding) as exc:
                if strict:
                    raise
                err = f"{type(exc).__name__}: {exc}"
                count = 0
        elif strict:
            raise RootOnContour(0.0, mask.cell_size)
        margin = _rouche_margin(q, qp, r, rp, contour)
        r_enc = _count_on(moat, moat_win, r_cells)
        qp_enc = _count_on(moat, moat_win, qp_cells)
        reports.append(ComponentReport(
            component=cid, touches_K=touches, escapes_Keps=escapes,
            r_roots_inside=r_inside, crit_points_inside=count,
            rouche_margin=margin, qprime_roots_enclosed=qp_enc,
            r_roots_enclosed=r_enc, absorbed=absorbed, count_error=err))
    return reports


def _rouche_margin(q, qp, r, rp, contour) -> float:
    """min over the contour samples of |q'r| - |qr'| via log2 magnitudes."""
    pts = contour.samples
    _, m_qp = phase_logmag(qp.coeffs, pts)
    _, m_r = phase_logmag(r.coeffs, pts)
    _, m_q = phase_logmag(q.coeffs, pts)
    if rp.is_zero:
        m_rp = np.full(pts.shape, -np.inf)
    else:
        _, m_rp = phase_logmag(rp.coeffs, pts)
    return _min_signed_difference(m_qp + m_r, m_q + m_rp)


def _min_signed_difference(mf: np.ndarray, mg: np.ndarray) -> float:
    """min_i (2^mf[i] - 2^mg[i]) without forming the powers directly.

    Linear units: inf when the true value exceeds double range; the sign
    is decided in log space and never overflows.
    """
    sign = np.sign(mf - mg)                  # 0 where equal (difference 0)
    both_ninf = np.isneginf(mf) & np.isneginf(mg)
    sign[both_ninf] = 0.0
    if np.all(sign == 0):
        return 0.0
    lo = np.minimum(mf, mg)
    gap = np.abs(mf - mg)
    with np.errstate(over="ignore"):
        logdiff = np.where(
            gap < 52.0,
            lo + np.log2(np.maximum(np.expm1(gap * np.log(2.0)), 5e-324)),
            np.maximum(mf, mg),
        )
    neg = sign < 0
    if np.any(neg):
        return float(-(2.0 ** np.max(logdiff[neg])))
    pos = sign > 0
    vals = logdiff[pos]
    return float(2.0 ** np.min(vals)) if vals.size else 0.0


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


def bridging_check(mask: RegionMask, K: ConvexDomain,
                   epsilon: float) -> BridgeResult:
    """Find a component crossing from K to outside K_eps, with a witness.

    The witness is a 4-connected cell-center path inside the component
    from a cell in K to a cell beyond K_eps — the discrete version of the
    path whose endpoints the theorem's field estimates contradict.  Each
    component is searched inside its own window.
    """
    for cid, win in enumerate(mask.windows):
        cells, in_k, out_keps = _component_flags(mask, cid, win, K, epsilon)
        if not (np.any(in_k) and np.any(out_keps)):
            continue
        path = _cell_path(cells, in_k, out_keps)
        pts = mask.cell_centers(win)[path[:, 0], path[:, 1]]
        return BridgeResult(True, cid, pts)
    return BridgeResult(False)


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
