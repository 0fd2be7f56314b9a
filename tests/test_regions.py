"""Region masks: indicator values, membership and labeling, moats, and the
Rouché census."""

import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, seed, settings, strategies as st
from scipy import ndimage

from rootfield import geometry as geo
from rootfield import contours, harness, poly, regions, render
from rootfield.errors import (GrowBBox, RootOnContour, SingularCell,
                              SingularPoint)

RES = 200.0
DELTAS = (1e-4, 1e-3, 1e-2)

# two inside roots at +-1/2, one outside root at 3; everything about this
# configuration is computable by hand
SPLIT = poly.RootSplit([-0.5, 0.5], [3.0])
K = geo.ConvexDomain.disk(0.0, 1.0)
EPS = 0.5

# scipy.ndimage is the independent oracle for labeling and moat growth:
# components are 4-connected, and a ring grows by the 3 x 3 square
FOUR = ndimage.generate_binary_structure(2, 1)
EIGHT = np.ones((3, 3), dtype=bool)


def _masks():
    bbox = regions.default_bbox(SPLIT, K, EPS)
    return regions.build_masks(SPLIT, list(DELTAS), bbox, RES)


# ---------------------------------------------------------------------------
# indicator
# ---------------------------------------------------------------------------

def test_field_lower_bound_formula():
    assert regions.field_lower_bound(100, 1.0, 2.0) == pytest.approx(100 / 9)
    assert regions.field_lower_bound(5, 0.0, 2.0) == 0.0
    assert regions.field_lower_bound(1, 2.0, 1.0) == pytest.approx(2.0 / 9.0)
    with pytest.raises(ValueError):
        regions.field_lower_bound(1, 2.0, 0.0)


@given(st.integers(2, 40), st.floats(0.05, 4.0), st.integers(0, 2 ** 32 - 1))
@settings(max_examples=60, deadline=None)
def test_field_lower_bound_inequality(n, d, seed):
    # n unit charges in a disk of diameter 2, observer at distance d from
    # the disk: the vector field sum cannot cancel below n*d/(d+diam)^2
    rng = np.random.default_rng(seed)
    pts = rng.normal(size=(n, 2))
    pts /= np.maximum(1.0, np.linalg.norm(pts, axis=1))[:, None]
    roots = pts[:, 0] + 1j * pts[:, 1]
    x = complex(1.0 + d, 0.0)
    field = np.abs(np.sum(1.0 / (x - roots)))
    bound = regions.field_lower_bound(n, d, 2.0)
    assert field >= bound * (1.0 - 1e-12)


def test_indicator_hand_values():
    # q = z^2 - 1/4, r = z - 3; at z=0: |q'/q| = 0, |r'/r| = 1/3
    d = 1e-3
    g0 = regions.adelta_indicator(SPLIT, d, 0.0)
    assert g0 == pytest.approx(-(1.0 + d) / 3.0, rel=1e-12)
    # at z=5 the single far root still dominates the pair: 10/24.75 < 1/2
    g5 = regions.adelta_indicator(SPLIT, d, 5.0)
    assert g5 == pytest.approx(10.0 / 24.75 - 0.5 - d / 2.0, rel=1e-12)
    assert regions.adelta_indicator(SPLIT, d, 10.0) > 0.0


@pytest.mark.parametrize("m", [40, 100, 200])
def test_inverse_r_is_accurate_next_to_outside_roots(m):
    # 1/|r| as a product of root distances rounds at order m eps wherever
    # it is evaluated; a Horner value of r loses its relative accuracy
    # here, 1e-3 from each root, at m >= 100
    rng = np.random.default_rng(m)
    inside = 0.9 * np.exp(2j * np.pi * rng.uniform(size=100))
    outside = (1.3 + 0.7 * rng.uniform(size=m)) \
        * np.exp(2j * np.pi * rng.uniform(size=m))
    zs = outside + 1e-3 * np.exp(2j * np.pi * rng.uniform(size=m))
    _, _, c = regions._indicator_terms(poly.RootSplit(inside, outside), zs)
    # extended precision: the differences are exact, each |z - b| rounds
    # once at a far smaller eps than a double's
    dx = zs.real.astype(np.longdouble)[:, None] - outside.real
    dy = zs.imag.astype(np.longdouble)[:, None] - outside.imag
    want = 1 / np.prod(np.hypot(dx, dy), axis=1)
    err = np.abs(c - want) / want
    assert np.all(err <= 16.0 * (m + 2) * np.finfo(float).eps)


def test_indicator_rejects_bad_inputs():
    with pytest.raises(ValueError):
        regions.adelta_indicator(SPLIT, 0.0, 1.0j)
    with pytest.raises(SingularPoint):
        regions.adelta_indicator(SPLIT, 1e-3, 3.0)


def test_critical_points_lie_inside_every_adelta():
    # p'/p = q'/q + r'/r vanishes at critical points, so g = -delta/|r| < 0
    crit = SPLIT.critical
    for d in DELTAS:
        for w in crit:
            assert regions.adelta_indicator(SPLIT, d, w) < 0.0


# ---------------------------------------------------------------------------
# masks and labels
# ---------------------------------------------------------------------------

def test_default_bbox_pads_by_twice_eps_plus_diam():
    x0, x1, y0, y1 = regions.default_bbox(SPLIT, K, EPS)
    # roots/domain span [-1, 3] x [-1, 1]; pad = 2*(0.5 + 2.0) = 5
    assert (x0, x1, y0, y1) == (-6.0, 8.0, -6.0, 6.0)


def test_mask_labels_two_components():
    masks = _masks()
    for mask in masks:
        inside = mask.indicator
        assert inside.dtype == bool and inside.shape == mask.shape
        assert (mask.labels >= 0).sum() == inside.sum()
        assert mask.n_components == 2
    # the blob around the interior critical point and the lobe around the
    # far root never merge at these deltas
    crit = SPLIT.critical
    mask = masks[1]
    ij = np.argwhere(mask.labels >= 0)
    centers = mask.cell_centers()[ij[:, 0], ij[:, 1]]
    nearest = [ij[np.abs(centers - w).argmin()] for w in crit]
    near, far = (mask.labels[tuple(c)] for c in nearest)
    assert near != far


def test_masks_nest_with_delta():
    masks = _masks()
    for small, big in zip(masks, masks[1:]):
        a, b = small.indicator, big.indicator
        assert bool(np.all(~a | b))


def test_critical_cells_within_one_cell_of_a_label():
    # the indicator is only -delta/|r| deep at a critical point, so the
    # exact cell is not guaranteed; a labeled cell adjacent to it is
    mask = _masks()[2]
    crit = SPLIT.critical
    ij = np.argwhere(mask.labels >= 0)
    centers = mask.cell_centers()[ij[:, 0], ij[:, 1]]
    for w in crit:
        d = np.abs(centers - w).min()
        assert d <= 1.5 * mask.cell_size


def test_far_field_check_rejects_tight_bbox():
    # the far lobe is an Apollonius-type disk |z| = 2|z-3| through x = 6;
    # a right edge at x = 5 slices it
    with pytest.raises(GrowBBox) as exc:
        regions.build_mask(SPLIT, 1e-3, (-4.0, 5.0, -4.0, 4.0), 100.0)
    x0, x1, y0, y1 = exc.value.suggested
    assert x0 < -4.0 and x1 > 5.0 and y0 < -4.0 and y1 > 4.0


# windows of a 6 x 9 grid: the whole grid, windows on two or one of its
# border sides, and one on none of them
FAR_WINDOWS = ((slice(0, 6), slice(0, 9)), (slice(0, 4), slice(3, 9)),
               (slice(2, 6), slice(0, 5)), (slice(3, 6), slice(2, 7)),
               (slice(1, 5), slice(1, 8)))


@pytest.mark.parametrize("edge", ["bottom", "top", "left", "right"])
def test_far_field_check_on_membership(edge):
    # membership held on a window, every cell off it outside A_delta
    bbox = (-1.0, 3.0, -2.0, 2.0)
    row, col = {"bottom": (0, 4), "top": (5, 4), "left": (3, 0),
                "right": (3, 8)}[edge]
    raised = 0
    for win in FAR_WINDOWS:
        grid = np.zeros((6, 9), dtype=bool)
        grid[3, 3:6] = True                  # inside cells off the border
        regions._far_field_check(grid[win], win, grid.shape, bbox)
        if not (win[0].start <= row < win[0].stop
                and win[1].start <= col < win[1].stop):
            continue
        grid[row, col] = True
        with pytest.raises(GrowBBox) as exc:
            regions._far_field_check(grid[win], win, grid.shape, bbox)
        # the box grown 1.5 times about its center (1, 0)
        assert exc.value.suggested == (-2.0, 4.0, -3.0, 3.0)
        raised += 1
    assert raised >= 2
    # a window side inside the grid is not on its border, and an empty
    # window holds no cell
    regions._far_field_check(np.ones((4, 7), dtype=bool), FAR_WINDOWS[-1],
                             (6, 9), bbox)
    regions._far_field_check(np.zeros((0, 0), dtype=bool),
                             (slice(0, 0), slice(0, 0)), (6, 9), bbox)


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), density=st.floats(0.0, 0.3))
def test_far_field_check_on_a_window_reads_the_whole_border(seed, density):
    # the dense oracle: a True cell anywhere on the whole grid's border,
    # with membership on any window that holds every True cell
    rng = np.random.default_rng(seed)
    ny, nx = rng.integers(1, 12, size=2)
    grid = rng.uniform(size=(ny, nx)) < density
    ii, jj = np.nonzero(grid)
    lo = (rng.integers(0, ii.min() + 1) if ii.size else rng.integers(0, ny),
          rng.integers(0, jj.min() + 1) if jj.size else rng.integers(0, nx))
    hi = (rng.integers(max(ii.max(initial=-1) + 1, lo[0]), ny + 1),
          rng.integers(max(jj.max(initial=-1) + 1, lo[1]), nx + 1))
    win = (slice(int(lo[0]), int(hi[0])), slice(int(lo[1]), int(hi[1])))
    border = grid[[0, -1], :].any() or grid[:, [0, -1]].any()
    bbox = (0.0, 1.0, 0.0, 1.0)
    if border:
        with pytest.raises(GrowBBox):
            regions._far_field_check(grid[win], win, grid.shape, bbox)
    else:
        regions._far_field_check(grid[win], win, grid.shape, bbox)


def test_no_outside_roots_blobs_shrink_with_delta():
    split = poly.RootSplit(np.array([-0.5, 0.5, 0.3j]), [])
    bbox = (-2.0, 2.0, -2.0, 2.0)
    sizes = []
    for d in (0.5, 0.1, 0.01):
        mask = regions.build_mask(split, d, bbox, 100.0)
        sizes.append(int(mask.indicator.sum()))
    assert sizes[0] >= sizes[1] >= sizes[2]
    assert sizes[0] > 0


# the center of cell (10, 10) of the h = 0.1 grid on (-1, 1)^2, to the bit;
# 0.05 + 0.05j misses it by a rounding error
_C = -1.0 + (10 + 0.5) * (1.0 / 10.0)
ON_CENTER = complex(_C, _C)


def test_root_on_cell_center_is_patched():
    z = ON_CENTER
    for inside, outside, bbox, delta, root in (
            # roots a rounding error off a center: unpatched, g there is
            # about +1e16 (a root of q) or -1e16 (a root of r)
            ([0.05 + 0.05j, -0.3], [5.0], (-1.0, 1.0, -1.0, 1.0), 1e-2,
             0.05 + 0.05j),
            ([0.05, -0.3], [1.25 + 0.05j], (-3.0, 3.0, -3.0, 3.0), 1e-2,
             1.25 + 0.05j),
            # a root of q and of r on the center itself: g = inf - inf is
            # nan there, which reads as outside A_delta, while g < 0 at
            # all four quarter points
            ([z, z + 1.02, z - 1.02], [z, z + 5.0], (-1.0, 1.0, -1.0, 1.0),
             0.1, z)):
        split = poly.RootSplit(np.array(inside), outside)
        patched = []
        real_patch = regions._patch_singular_cells

        def recording(split, delta, inside, cells, *rest):
            patched.extend(map(tuple, np.asarray(cells).tolist()))
            real_patch(split, delta, inside, cells, *rest)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(regions, "_patch_singular_cells", recording)
            mask = regions.build_mask(split, delta, bbox, 10.0)
        (i, j), = _cells(mask, [root]).tolist()
        center = mask.cell_centers()[i, j]
        # the root sits on its cell's center, so the cell is patched, on
        # the window the mask holds ...
        assert regions._near_root(split, np.array([center]))[0]
        rows, cols = mask._span
        assert (i - rows.start, j - cols.start) in patched
        # ... from its nearest non-singular quarter point; all four are
        # equally near here and agree, so whichever is picked, the cell
        # has its membership
        quarters = center + 0.025 * np.array([-1 - 1j, 1 - 1j, -1 + 1j,
                                              1 + 1j])
        member = {regions.adelta_indicator(split, delta, w)
                  <= regions.EQUALITY_TOL for w in quarters}
        assert member == {bool(mask.indicator[i, j])}
    # in the last case the patch decides the membership
    assert center == root
    a, b, c = regions._indicator_terms(split, np.array([center]))
    with np.errstate(invalid="ignore"):
        assert np.isnan(a - b - delta * c)[0]
    assert mask.indicator[i, j]


def test_roots_on_a_center_and_its_quarter_points_raise_singular_cell():
    center = 0.05 + 0.05j
    quarters = center + 0.025 * np.array([1 + 1j, 1 - 1j, -1 + 1j, -1 - 1j])
    split = poly.RootSplit(np.array([center, *quarters]), [5.0])
    with pytest.raises(SingularCell) as info:
        regions.build_masks(split, [1e-2], (-1.0, 1.0, -1.0, 1.0), 10.0)
    assert abs(info.value.args[0] - center) < 1e-15


# ---------------------------------------------------------------------------
# the quadtree against the dense grid
# ---------------------------------------------------------------------------

def _dense_oracle(split, deltas, bbox, resolution, centers):
    """Every cell center evaluated, its membership g <= EQUALITY_TOL
    patched, checked and labelled as build_masks does: (membership,
    labels, count) per delta, or the GrowBBox."""
    h = 1.0 / resolution
    xs, ys = centers[0].real, centers[:, 0].imag
    a, b, c = regions._indicator_terms(split, centers)
    near = regions._near_root(split, centers)
    whole = (slice(0, centers.shape[0]), slice(0, centers.shape[1]))
    out = []
    for delta in deltas:
        with np.errstate(invalid="ignore"):
            g = a - b - delta * c
        inside = g <= regions.EQUALITY_TOL
        regions._patch_singular_cells(split, delta, inside,
                                      np.argwhere(near | np.isnan(g)),
                                      xs, ys, h)
        try:
            regions._far_field_check(inside, whole, inside.shape, bbox)
        except GrowBBox as exc:
            return exc
        labels, count = ndimage.label(inside, structure=FOUR)
        out.append((inside, labels - 1, count))
    return out


def _spiral(k, r0, r1):
    """k points on a golden-angle spiral, radii r0 to r1."""
    j = np.arange(k)
    return (r0 + (r1 - r0) * (j + 0.5) / k) * np.exp(2.39996323j * j)


@st.composite
def _grids(draw):
    n = draw(st.integers(1, 4))
    m = draw(st.integers(0, 3))
    coord = st.floats(-1.0, 1.0, allow_nan=False)
    inside = [complex(draw(coord), draw(coord)) for _ in range(n)]
    outside = [complex(3.0 * draw(coord), 3.0 * draw(coord))
               for _ in range(m)]
    deltas = draw(st.lists(st.floats(1e-4, 1.0), min_size=1, max_size=3))
    res = draw(st.sampled_from([1.0, 7.0, 23.0, 40.0]))
    x0, y0 = draw(st.floats(-4.0, -1.0)), draw(st.floats(-4.0, -1.0))
    # sides from the 4-cell minimum past two 32-cell blocks
    wx, wy = draw(st.integers(1, 90)), draw(st.integers(1, 90))
    return (inside, outside, deltas,
            (x0, x0 + wx / res, y0, y0 + wy / res), res)


@seed(5)
@settings(max_examples=60, deadline=None)
@given(_grids())
# a root on a cell center, as in test_root_on_cell_center_is_patched
@example(([0.05 + 0.05j, -0.3], [5.0], [1e-2], (-1.0, 1.0, -1.0, 1.0),
          10.0))
@example(([0.05, -0.3], [1.25 + 0.05j], [1e-2, 1e-3],
          (-3.0, 3.0, -3.0, 3.0), 10.0))
@example(([ON_CENTER, ON_CENTER + 1.02, ON_CENTER - 1.02],
          [ON_CENTER, ON_CENTER + 5.0], [0.1, 1e-2], (-1.0, 1.0, -1.0, 1.0),
          10.0))
# roots on the corners shared by four 32 x 32 blocks
@example(([-0.2 - 0.2j, 0.3], [-0.2 + 0.6j], [1e-3, 1e-1],
          (-1.0, 1.4, -1.0, 1.4), 40.0))
# no outside roots: r is the constant 1
@example(([-0.5, 0.5, 0.3j], [], [0.5, 0.1, 0.01], (-2.0, 2.0, -2.0, 2.0),
          30.0))
# a tight bbox that raises GrowBBox
@example(([-0.5, 0.5], [3.0], [1e-3], (-4.0, 5.0, -4.0, 4.0), 10.0))
# large m: 200 roots in the unit disk, 150 on radii 1.3 to 2
@example((list(_spiral(200, 0.0, 1.0)), list(_spiral(150, 1.3, 2.0)),
          [1e-3, 1e-1], (-3.5, 3.5, -3.5, 3.5), 20.0))
# 33 x 65 cells, one past a top block each way, and 5 x 7 cells, less
# than one top block: settled blocks that the grid's edge cuts
@example(([0.3 + 0.2j, -0.5, 0.1j], [1.6 - 0.4j], [1e-2, 3e-1],
          (-4.0, 4.125, -2.0, 2.125), 8.0))
@example(([0.4, -0.4], [2.5j], [0.5], (-0.875, 0.875, -0.625, 0.625), 4.0))
def test_quadtree_matches_dense_grid(case):
    inside, outside, deltas, bbox, res = case
    split = poly.RootSplit(np.array(inside), outside)
    ny = max(4, int(np.ceil((bbox[3] - bbox[2]) * res)))
    nx = max(4, int(np.ceil((bbox[1] - bbox[0]) * res)))
    painted, evaluated = [], []
    member = [np.zeros((ny, nx), dtype=bool) for _ in deltas]
    reached = [np.zeros((ny, nx), dtype=bool)]
    whole = [(slice(0, ny), slice(0, nx))]
    real_paint, real_terms = regions._paint, regions._indicator_terms

    def recording(fills, reach, i0, j0, size, inside):
        painted.extend((i, j, size) for i, j in zip(i0, j0))
        real_paint(fills, reach, i0, j0, size, inside)
        # the same blocks painted on whole grids that start all False:
        # the cells of the blocks settled inside A_delta, per delta, and
        # the cells of all settled blocks
        real_paint(member, whole * len(deltas), i0, j0, size, inside)
        real_paint(reached, whole, i0, j0, size,
                   np.ones((1, i0.size), dtype=bool))

    def terms(split, zs):
        # the first call evaluates the single cells no block settled;
        # later ones are the quarter points of singular cells
        if not evaluated:
            evaluated.append(zs)
        return real_terms(split, zs)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(regions, "_paint", recording)
        mp.setattr(regions, "_indicator_terms", terms)
        try:
            masks = regions.build_masks(split, deltas, bbox, res)
        except GrowBBox as exc:
            masks = exc
    probe = regions.RegionMask(bbox, res, deltas[0],
                               np.zeros((ny, nx), dtype=np.int32), ())
    oracle = _dense_oracle(split, deltas, bbox, res, probe.cell_centers())
    if isinstance(oracle, GrowBBox):
        assert isinstance(masks, GrowBBox)
        assert masks.suggested == oracle.suggested
        return
    assert not isinstance(masks, GrowBBox)
    writes = np.zeros((ny, nx), dtype=int)
    for i0, j0, size in painted:    # slicing clips a block to the grid
        writes[i0:i0 + size, j0:j0 + size] += 1
    # painted blocks never overlap, so no cell is painted twice
    assert writes.max(initial=0) <= 1
    settled = writes == 1
    assert np.array_equal(reached[0], settled)
    # the painted blocks and the exactly evaluated cells cover the grid,
    # each cell once: a cell the fill never wrote would hold whatever the
    # unwritten grid held
    exact = regions._cells_of_points(bbox, 1.0 / res, (ny, nx), evaluated[0])
    assert (exact >= 0).all()
    np.add.at(writes, (exact[:, 0], exact[:, 1]), 1)
    assert (writes == 1).all()
    for mask, painted_in, (inside, labels, count) in zip(masks, member,
                                                         oracle):
        # the mask holds its reach window, whose corner sits on a multiple
        # of every block side; every cell off it is outside A_delta, and
        # so is every block painted inside it
        rows, cols = mask._span
        assert rows.start % regions._BLOCK == cols.start % regions._BLOCK == 0
        off = np.ones((ny, nx), dtype=bool)
        off[rows, cols] = False
        assert not (inside & off).any() and not (painted_in & off).any()
        assert mask.shape == (ny, nx) and mask.n_components == count
        # read through the window, then as the whole grid built on the
        # first read and kept: its own exact-size array, not a view of a
        # padded one, which the window then views
        assert np.array_equal(mask.labels_on(whole[0]), labels)
        assert mask.labels is mask.labels and mask.labels.base is None
        assert np.shares_memory(mask._window, mask.labels)
        assert np.array_equal(mask.labels, labels)
        assert np.array_equal(mask.labels_on(whole[0]), labels)
        # membership is the dense g <= EQUALITY_TOL, cell for cell
        assert np.array_equal(mask.indicator, inside)
        assert not (painted_in & ~inside).any()
        assert mask.evaluations >= np.count_nonzero(~settled)


def test_bench_theorem_grid_evaluates_few_cells():
    # the theorem-grid benchmark instance: n=100, m=2 at abscissae +-3.7,
    # resolution 120, seed 1, on a 1320 x 1968 grid
    ys = np.random.default_rng(1).uniform(-1.0, 1.0, 2)
    cfg = harness.ExperimentConfig(
        domain=K, epsilon=0.25, n=100, m=2,
        outside_sampler=[3.7 + 1j * ys[0], -3.7 + 1j * ys[1]],
        delta_sweep=(1e-3,), resolution=120.0, seed=1)
    report = harness.run_theorem_experiment(cfg)
    mask = report.mask
    assert mask.shape == (1320, 1968)
    assert mask.n_components > 0
    assert mask.evaluations < 0.005 * mask.labels.size


# ---------------------------------------------------------------------------
# windows against the whole grid
# ---------------------------------------------------------------------------

CENSUS_BOX = (-3.1, 3.1, -3.1, 3.1)


def _census_instance(seed):
    """(split, resolution) drawn like the census benchmark's instances:
    n <= 10 inside roots in the disk of radius 0.9, m <= 3 outside roots
    in the annulus 1.15-1.6, on a coarse grid."""
    rng = np.random.default_rng(seed)
    n, m = int(rng.integers(3, 11)), int(rng.integers(1, 4))
    inside = 0.9 * np.sqrt(rng.uniform(size=n)) \
        * np.exp(2j * np.pi * rng.uniform(size=n))
    outside = (1.15 + 0.45 * rng.uniform(size=m)) \
        * np.exp(2j * np.pi * rng.uniform(size=m))
    return poly.RootSplit(inside, outside), float(rng.choice([20., 30., 40.]))


def _cells(mask, pts):
    """The (i, j) cells of pts on the grid of mask, -1 rows off it."""
    return regions._cells_of_points(mask.bbox, mask.cell_size, mask.shape,
                                    np.asarray(pts, dtype=complex))


def _moat_of(mask, component, protect):
    """(boundary segments in the plane, moat cells, window, absorbed ids,
    error or None) of the moat that clears the points protect."""
    cells, win, absorbed, err = regions._moat(mask, component,
                                              _cells(mask, protect))
    return (regions._plane_segments(mask, cells, win), cells, win, absorbed,
            err)


def _dense_moat(mask, component, protect):
    """The moat grown on the whole grid: (cells, absorbed ids, error)."""
    labels = mask.labels
    current = labels == component
    absorbed = set()
    pcells = regions._cells_of_points(mask.bbox, mask.cell_size, mask.shape,
                                      protect)
    for _ in range(regions._RING_LIMIT):
        grown = ndimage.binary_dilation(current, structure=EIGHT)
        current |= grown & (labels < 0)
        trouble = []
        for i, j in pcells:
            block = current[max(0, i - 1):i + 2, max(0, j - 1):j + 2]
            if i >= 0 and block.any() != block.all():
                trouble.append((i, j))
        if not trouble:
            return current, tuple(sorted(absorbed)), None
        for i, j in trouble:
            for cid in np.unique(labels[max(0, i - 1):i + 2,
                                        max(0, j - 1):j + 2]):
                if cid >= 0 and cid != component:
                    absorbed.add(int(cid))
                    current |= labels == cid
    return current, tuple(sorted(absorbed)), "exhausted"


def test_windowed_labels_and_moats_match_the_whole_grid():
    # at 20 cells per unit, seed 76 has two components whose moats each
    # absorb the other; in seed 1976 the absorbed component reaches past
    # the window of the absorbing one
    absorbing = 0
    for seed in (0, 4, 10, 76, 1976):
        split, res = _census_instance(seed)
        masks = regions.build_masks(split, (1e-2, 1e-3, 1e-4), CENSUS_BOX,
                                    res)
        for mask in masks:
            # the moats read the labels through the window the mask holds,
            # before the whole-grid labels the oracles read are built
            moats = [regions._moat(mask, cid, _cells(mask, split.critical))
                     for cid in range(mask.n_components)]
            dense, count = ndimage.label(mask.indicator, structure=FOUR)
            assert mask.n_components == count
            assert np.array_equal(mask.labels, dense - 1)
            assert mask.windows == tuple(ndimage.find_objects(dense))
            for cid, (cells, win, absorbed, err) in enumerate(moats):
                want, want_absorbed, want_err = _dense_moat(mask, cid,
                                                            split.critical)
                whole = np.zeros(mask.shape, dtype=bool)
                whole[win] = cells
                assert np.array_equal(whole, want)
                assert absorbed == want_absorbed
                assert (err is None) == (want_err is None)
                absorbing += bool(absorbed)
    assert absorbing >= 5


def _ndimage_label(inside):
    """What `_label` should give on any window of the boolean grid inside
    that holds its True cells, from scipy.ndimage on the whole grid:
    (labels of the whole grid, windows)."""
    dense, count = ndimage.label(inside, structure=FOUR)
    return dense - 1, tuple(ndimage.find_objects(dense)) if count else ()


def _assert_labels_match_ndimage(cells):
    """`_label` equals the oracle on cells, labeled whole and embedded in
    a larger grid with a window reach that starts off the origin."""
    ny, nx = cells.shape
    cases = [(cells, (slice(0, ny), slice(0, nx)))]
    grid = np.zeros((ny + 5, nx + 7), dtype=bool)
    grid[3:3 + ny, 4:4 + nx] = cells
    cases.append((grid, (slice(2, 4 + ny), slice(1, 4 + nx))))
    for inside, reach in cases:
        labels, windows = regions._label(inside[reach],
                                         (reach[0].start, reach[1].start))
        want_labels, want_windows = _ndimage_label(inside)
        assert labels.dtype == np.int32
        # the window's labels are the whole grid's there, and the grid's
        # labels off the window are -1
        assert np.array_equal(labels, want_labels[reach])
        off = np.ones(inside.shape, dtype=bool)
        off[reach] = False
        assert (want_labels[off] == -1).all()
        assert windows == want_windows
        assert all(isinstance(v, int) for w in windows for s in w
                   for v in (s.start, s.stop))


def _spiral_cells(n):
    """A square spiral of width 1 walked in from the corner of n x n: it
    turns right where it would come within one cell of itself head on,
    so a free cell separates its turns.  A single long component."""
    cells = np.zeros((n, n), dtype=bool)
    i = j = turns = 0
    di, dj = 0, 1
    cells[0, 0] = True

    def free(a, b):
        return 0 <= a < n and 0 <= b < n and not cells[a, b]

    while turns < 2:
        if free(i + di, j + dj) and (free(i + 2 * di, j + 2 * dj)
                                     or not 0 <= i + 2 * di < n
                                     or not 0 <= j + 2 * dj < n):
            i, j, turns = i + di, j + dj, 0
            cells[i, j] = True
        else:
            di, dj, turns = dj, -di, turns + 1
    return cells


def _serpentine_cells(ny, nx):
    """Full rows on even rows, joined at alternate ends: one path whose
    runs meet their neighbours only at the far end of each row."""
    cells = np.zeros((ny, nx), dtype=bool)
    cells[::2] = True
    cells[1::4, -1] = True
    cells[3::4, 0] = True
    return cells


def _comb_cells(ny, nx, spine_top):
    """Teeth on every fourth column joined by a spine row, stopping two
    rows short of the far edge; dots, apart from the comb, sit between
    the teeth and in the far edge row."""
    cells = np.zeros((ny, nx), dtype=bool)
    teeth = slice(0, ny - 2) if spine_top else slice(2, ny)
    cells[teeth, ::4] = True
    cells[0 if spine_top else -1] = True
    cells[ny // 2, 2::4] = True
    cells[-1 if spine_top else 0, 2::4] = True
    return cells


LABEL_SHAPES = {
    "empty": np.zeros((6, 9), dtype=bool),
    "single cell": np.eye(1, dtype=bool),
    "one cell of many": np.eye(7, 5, 3, dtype=bool)[::-1],
    "full": np.ones((5, 8), dtype=bool),
    "diagonal": np.eye(9, dtype=bool),
    "antidiagonal": np.eye(9, dtype=bool)[:, ::-1],
    "diagonal ladder": np.eye(8, dtype=bool) | np.eye(8, k=2, dtype=bool),
    "checkerboard": np.indices((9, 12)).sum(axis=0) % 2 == 0,
    "spiral": _spiral_cells(31),
    "serpentine": _serpentine_cells(41, 13),
    "comb, spine on top": _comb_cells(17, 29, True),
    "comb, spine below": _comb_cells(17, 29, False),
}


@pytest.mark.parametrize("name", LABEL_SHAPES)
def test_label_matches_ndimage_on_shapes(name):
    _assert_labels_match_ndimage(LABEL_SHAPES[name])


def test_label_shapes_are_what_they_say():
    # the oracle's counts: corner contacts keep cells apart, and the
    # spiral, the serpentine and each comb are single components
    def count(name):
        return ndimage.label(LABEL_SHAPES[name], structure=FOUR)[1]
    assert count("diagonal") == count("antidiagonal") == 9
    assert count("checkerboard") == LABEL_SHAPES["checkerboard"].sum()
    assert count("spiral") == count("serpentine") == 1
    assert LABEL_SHAPES["spiral"].sum() > 31 * 31 // 3
    for name in ("comb, spine on top", "comb, spine below"):
        dots = 2 * LABEL_SHAPES[name][:, 2::4].shape[1]   # two rows
        assert count(name) == 1 + dots


@pytest.mark.parametrize("density", [0.2, 0.35, 0.5, 0.65, 0.8])
def test_label_matches_ndimage_on_random_fills(density):
    rng = np.random.default_rng(int(density * 100))
    for _ in range(40):
        ny, nx = rng.integers(1, 40, size=2)
        _assert_labels_match_ndimage(rng.uniform(size=(ny, nx)) < density)


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_labels_on_reads_the_grid_through_the_held_window(seed):
    # a mask held on a window of its grid reads any window of the grid as
    # the whole-grid labels give it, before and after those are built
    rng = np.random.default_rng(seed)
    ny, nx = (int(v) for v in rng.integers(1, 12, size=2))

    def window():
        (r0, r1), (c0, c1) = (sorted(rng.integers(0, n + 1, size=2).tolist())
                              for n in (ny, nx))
        return slice(r0, r1), slice(c0, c1)

    held = window()
    grid = np.full((ny, nx), -1, dtype=np.int32)
    grid[held] = rng.integers(-1, 3, size=grid[held].shape)
    mask = regions.RegionMask((0.0, 1.0, 0.0, 1.0), 10.0, 1e-3,
                              grid[held].copy(), (),
                              origin=(held[0].start, held[1].start),
                              shape=(ny, nx))
    for built in (False, True):
        if built:
            assert np.array_equal(mask.labels, grid)
            assert mask._window.size == 0 \
                or np.shares_memory(mask._window, mask.labels)
        for _ in range(6):
            win = window()
            got = mask.labels_on(win)
            assert got.dtype == np.int32 and np.array_equal(got, grid[win])
            got[...] = 7                 # a new array, not the mask's
        assert np.array_equal(
            mask.labels_on((slice(0, ny), slice(0, nx))), grid)


def test_ring_growth_is_the_square_dilation():
    rng = np.random.default_rng(9)
    for _ in range(200):
        ny, nx = rng.integers(1, 16, size=2)
        cells = rng.uniform(size=(ny, nx)) < rng.uniform(0.02, 0.5)
        # a cell on each edge of the window
        cells[rng.integers(ny), [0, -1]] = True
        cells[[0, -1], rng.integers(nx)] = True
        want = ndimage.binary_dilation(cells, structure=EIGHT)
        assert np.array_equal(regions._dilate(cells), want)
    for cells in (np.zeros((1, 1), bool), np.ones((1, 1), bool),
                  np.zeros((4, 6), bool)):
        assert np.array_equal(regions._dilate(cells),
                              ndimage.binary_dilation(cells,
                                                      structure=EIGHT))


def _straddles(cells, win, i, j):
    """The per-cell rule: grid cell (i, j) and its 8 neighbours on the
    window win are partly in and partly out of the cell set held on it."""
    a, b = i - win[0].start, j - win[1].start
    block = cells[max(0, a - 1):max(0, a + 2), max(0, b - 1):max(0, b + 2)]
    return bool(block.any()) and not block.all()


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), density=st.floats(0.0, 1.0))
def test_moat_trouble_test_is_the_per_cell_rule(seed, density):
    # the moat's one array test against the per-cell rule, at every grid
    # cell and at off-grid rows; as in `_moat`, the set stays two cells
    # clear of the window's edges that lie inside the grid
    rng = np.random.default_rng(seed)
    ny, nx = rng.integers(1, 14, size=2)
    i0, j0 = rng.integers(0, ny), rng.integers(0, nx)
    win = (slice(i0, rng.integers(i0 + 1, ny + 1)),
           slice(j0, rng.integers(j0 + 1, nx + 1)))
    cells = rng.uniform(size=(win[0].stop - i0, win[1].stop - j0)) < density
    if i0 > 0:
        cells[:2] = False
    if win[0].stop < ny:
        cells[-2:] = False
    if j0 > 0:
        cells[:, :2] = False
    if win[1].stop < nx:
        cells[:, -2:] = False
    ii, jj = np.meshgrid(np.arange(ny), np.arange(nx), indexing="ij")
    protect = np.concatenate([np.stack([ii.ravel(), jj.ravel()], axis=1),
                              np.full((2, 2), -1)])
    got = regions._on(regions._dilate(cells) & regions._dilate(~cells), win,
                      protect)
    want = [i >= 0 and _straddles(cells, win, i, j) for i, j in protect]
    assert got.tolist() == want


def test_census_masks_hold_only_their_labels():
    # the census benchmark's box, resolution and deltas: 1860^2 cells per
    # mask.  A mask keeps no grid of g and no whole-grid array, so what
    # the masks hold is their int32 labels on their reach windows (12% of
    # the cells here), and the fills and labeling on those windows keep
    # the peak under 1 byte per cell per delta (a whole-grid boolean fill
    # and int32 labels alone are 5)
    split, _ = _census_instance(0)
    deltas = (1e-2, 1e-3, 1e-4)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        masks = regions.build_masks(split, deltas, CENSUS_BOX, 300.0)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    cells = int(np.prod(masks[0].shape))
    assert cells == 1860 ** 2
    assert all(m._window.base is None and m._window.dtype == np.int32
               for m in masks)
    assert held - base <= sum(m._window.nbytes for m in masks) + 2 ** 20
    assert (peak - base) / (cells * len(deltas)) < 1.0


def test_theorem_run_and_figure_build_no_grid_sized_array():
    # the theorem-grid benchmark instance on its 1320 x 1968 grid: the run
    # and its figure read every mask through its window, so no step
    # builds the whole-grid labels, and the peak of traced memory stays
    # under 1 byte per cell (a whole-grid boolean fill and int32 labels
    # alone are 5)
    ys = np.random.default_rng(1).uniform(-1.0, 1.0, 2)
    cfg = harness.ExperimentConfig(
        domain=K, epsilon=0.25, n=100, m=2,
        outside_sampler=[3.7 + 1j * ys[0], -3.7 + 1j * ys[1]],
        delta_sweep=(1e-3,), resolution=120.0, seed=1)
    whole_grid_reads = []
    real = regions.RegionMask.labels

    def spy(mask):
        whole_grid_reads.append(mask.shape)
        return real.fget(mask)

    with pytest.MonkeyPatch.context() as mp, \
            tempfile.TemporaryDirectory() as out:
        mp.setattr(regions.RegionMask, "labels", property(spy))
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            report = harness.run_theorem_experiment(cfg)
            render.emit_svg(report, Path(out) / "figure.svg")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert report.mask.shape == (1320, 1968)
        assert report.mask.n_components > 0
        assert whole_grid_reads == []
        assert (peak - base) / (1320 * 1968) <= 1.0
        # the spy sees a read
        assert report.mask.labels.shape == (1320, 1968)
        assert whole_grid_reads == [(1320, 1968)]


def test_qprime_counts_match_solved_zeros_in_the_moat():
    # the census counts q' zeros from the roots of q; the solved zeros of
    # q' whose cells lie in the moat are the independent reference
    compared = 0
    for seed in range(12):
        split, res = _census_instance(seed)
        try:
            masks = regions.build_masks(split, (1e-2, 1e-3), CENSUS_BOX, res)
        except GrowBBox:
            continue
        zeros = poly.critical_points(split.inside)
        for mask in masks:
            cells = regions._cells_of_points(mask.bbox, mask.cell_size,
                                             mask.shape, zeros)
            reports = regions.classify_components(mask, split, K, EPS)
            for rep in reports:
                _, moat, win, _, err = _moat_of(mask, rep.component,
                                                split.critical)
                assert err is None and rep.count_error is None
                assert rep.qprime_roots_enclosed \
                    == regions._on(moat, win, cells).sum()
                compared += 1
    assert compared >= 30


def _angle_sum_count(segments, roots):
    """Roots inside closed loops of directed segments, by the angle each
    root sees each segment (a, b) under: arg((b - a_k)/(a - a_k)) summed
    over the segments is 2 pi times the winding around a_k."""
    a = np.asarray(roots, dtype=complex)
    seen = np.angle((segments[:, 1, None] - a) / (segments[:, 0, None] - a))
    return int(round(seen.sum() / (2 * np.pi)))


def test_cell_membership_matches_the_segment_angle_sum():
    # the census counts the roots of p and of q in a moat by their cells;
    # the angle sum over the moat's boundary segments is the reference
    moats = 0
    for seed in (0, 4, 10, 76, 1976):
        split, res = _census_instance(seed)
        masks = regions.build_masks(split, (1e-2, 1e-3, 1e-4), CENSUS_BOX,
                                    res)
        for mask in masks:
            for cid in range(mask.n_components):
                segments, moat, win, _, _ = _moat_of(mask, cid,
                                                     split.critical)
                for roots in (split.roots, split.inside):
                    assert regions._on(moat, win, _cells(mask, roots)).sum() \
                        == _angle_sum_count(segments, roots)
                moats += 1
    assert moats >= 30


# ---------------------------------------------------------------------------
# moats and loops
# ---------------------------------------------------------------------------

def _shoelace(segments):
    """Signed area enclosed by closed loops of segments, (k, 2) rows
    (a, b); positive when the loops run counterclockwise."""
    a, b = segments[:, 0], segments[:, 1]
    return float(0.5 * np.sum(a.real * b.imag - a.imag * b.real))


def test_loop_area_matches_cell_count():
    mask = _masks()[1]
    crit = SPLIT.critical
    for cid in range(mask.n_components):
        segments, cells, _, absorbed, err = _moat_of(mask, cid, crit)
        assert err is None
        area = _shoelace(regions._boundary_segments(cells))
        assert area == float(cells.sum())
        assert _shoelace(segments) == pytest.approx(
            float(cells.sum()) * mask.cell_size ** 2)


def test_moat_keeps_protected_points_off_the_boundary():
    mask = _masks()[0]
    crit = SPLIT.critical
    for cid in range(mask.n_components):
        segments, cells, _, absorbed, err = _moat_of(mask, cid, crit)
        assert err is None
        # a protected point's cell and its 8 neighbours lie on one side of
        # the boundary, so the point is a cell width or more from it
        a, d = segments[:, 0], segments[:, 1] - segments[:, 0]
        for w in crit:
            t = np.clip(((w - a) * np.conj(d)).real / np.abs(d) ** 2, 0, 1)
            assert np.abs(w - (a + t * d)).min() >= mask.cell_size * 0.999


def _unit_edges(cells):
    """Directed unit boundary edges (x0, y0, x1, y1), the cells on their
    left, found cell by cell: the reference the segments must cover."""
    ny, nx = cells.shape

    def filled(i, j):
        return 0 <= i < ny and 0 <= j < nx and cells[i, j]

    edges = []
    for i, j in np.argwhere(cells).tolist():
        if not filled(i - 1, j):
            edges.append((j, i, j + 1, i))
        if not filled(i + 1, j):
            edges.append((j + 1, i + 1, j, i + 1))
        if not filled(i, j - 1):
            edges.append((j, i + 1, j, i))
        if not filled(i, j + 1):
            edges.append((j + 1, i, j + 1, i + 1))
    return sorted(edges)


def test_boundary_segments_of_random_cell_sets():
    # sparse to dense sets: checkerboard corners, holes, several pieces
    rng = np.random.default_rng(8)
    for trial in range(300):
        ny, nx = rng.integers(1, 13, size=2)
        cells = rng.uniform(size=(ny, nx)) < rng.uniform(0.2, 0.9)
        if trial % 3 == 0:
            cells = ndimage.binary_dilation(cells) & ~cells    # rings
        seg = regions._boundary_segments(cells)
        a, b = seg[:, 0], seg[:, 1]
        assert _shoelace(seg) == cells.sum()
        # every vertex starts as many segments as it ends
        assert np.array_equal(np.sort(a), np.sort(b))
        # the segments are the boundary edges, one per cell side
        assert np.all(np.abs(b - a) == 1.0)
        assert sorted(zip(a.real.tolist(), a.imag.tolist(), b.real.tolist(),
                          b.imag.tolist())) == _unit_edges(cells)


def _ring_mask(res=10.0):
    """One component: the cells whose centers lie within 0.8-1.2 of 0."""
    h = 1.0 / res
    c = (np.arange(40) + 0.5) * h - 2.0
    z = c[None, :] + 1j * c[:, None]
    ring = (np.abs(z) >= 0.8) & (np.abs(z) <= 1.2)
    labels = np.where(ring, 0, -1)
    return regions.RegionMask(
        bbox=(-2.0, 2.0, -2.0, 2.0), resolution=res, delta=1e-3,
        labels=labels,
        windows=tuple(ndimage.find_objects(labels + 1)))


def test_ring_moat_with_a_hole_counts_only_the_ring():
    mask = _ring_mask()
    for zero, want in ((0.1 - 0.05j, 0), (0.02 + 1.01j, 1)):
        roots = np.array([zero, 1.7 + 1.7j, -3.0])   # a corner; off-grid
        segments, cells, win, _, err = _moat_of(mask, 0, roots)
        assert err is None
        # the moat keeps a hole, so the set has a clockwise loop
        assert ndimage.binary_fill_holes(cells).sum() > cells.sum()
        assert regions._on(cells, win, _cells(mask, roots)).sum() == want
        # p = (z - zero)^2 has its one critical point at zero: the two
        # roots in the moat plus the winding of p'/p
        assert regions._on(cells, win, _cells(mask, [zero, zero])).sum() \
            + contours.rouche_pass([zero, zero], [], segments)[0] == want


# ---------------------------------------------------------------------------
# classification
# ---------------------------------------------------------------------------

def test_worked_example_census():
    mask = _masks()[1]
    reports = regions.classify_components(mask, SPLIT, K, EPS)
    assert len(reports) == 2
    by_r = {rep.r_roots_inside: rep for rep in reports}
    far, near = by_r[1], by_r[0]
    assert far.crit_points_inside == 1 and not far.touches_K
    assert near.crit_points_inside == 1 and near.touches_K
    assert not near.escapes_Keps
    for rep in reports:
        assert rep.count_error is None
        assert rep.rouche_margin > 0.0
        assert rep.crit_points_inside == (rep.qprime_roots_enclosed
                                          + rep.r_roots_enclosed)


def test_classify_makes_one_pass_per_component(monkeypatch):
    # both windings and the margin of a moat come from one certified pass
    calls, real = [], regions.rouche_pass

    def spy(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(regions, "rouche_pass", spy)
    for mask in _masks():
        calls.clear()
        reports = regions.classify_components(mask, SPLIT, K, EPS)
        assert len(calls) == len(reports) == mask.n_components > 0
        for (inside, outside, _), rep in zip(calls, reports):
            assert inside is SPLIT.inside and outside is SPLIT.outside
            assert rep.rouche_margin > 0.0


def test_a_failed_pass_leaves_no_count_and_no_margin(monkeypatch):
    # a pass that raises flags the component: both counts 0, margin -inf
    def fail(*args):
        raise RootOnContour(0.0, 1e-9)

    monkeypatch.setattr(regions, "rouche_pass", fail)
    reports = regions.classify_components(_masks()[1], SPLIT, K, EPS)
    assert reports
    for rep in reports:
        assert rep.count_error.startswith("RootOnContour")
        assert rep.crit_points_inside == rep.qprime_roots_enclosed == 0
        assert rep.rouche_margin == -np.inf


def test_a_stalled_moat_keeps_the_q_count_and_the_margin(monkeypatch):
    # a moat that stopped growing may hold roots of p' on its boundary, so
    # its p' count is 0; the pass still gives the q' count and the margin
    mask = _masks()[1]
    want = regions.classify_components(mask, SPLIT, K, EPS)
    real = regions._moat
    monkeypatch.setattr(regions, "_moat",
                        lambda *args: real(*args)[:3] + ("stalled",))
    got = regions.classify_components(mask, SPLIT, K, EPS)
    assert len(got) == len(want) > 0
    for rep, ref in zip(got, want):
        assert rep.count_error == "stalled" and rep.crit_points_inside == 0
        assert rep.qprime_roots_enclosed == ref.qprime_roots_enclosed
        assert rep.rouche_margin == ref.rouche_margin > 0.0


def test_census_random_small_instances():
    rng = np.random.default_rng(7)
    done = 0
    for trial in range(40):
        if done >= 10:
            break
        n = int(rng.integers(3, 7))
        m = int(rng.integers(1, 3))
        inside = (rng.uniform(-0.6, 0.6, n) + 1j * rng.uniform(-0.6, 0.6, n))
        theta = rng.uniform(0, 2 * np.pi, m)
        outside = (3.0 + rng.uniform(0, 1.5, m)) * np.exp(1j * theta)
        split = poly.RootSplit(inside, outside)
        bbox = regions.default_bbox(split, K, EPS)
        try:
            mask = regions.build_mask(split, 1e-3, bbox, 120.0)
        except GrowBBox:
            continue
        crit = split.critical
        total = 0
        reports = regions.classify_components(mask, split, K, EPS)
        for rep in reports:
            if rep.count_error is not None:
                break
            assert rep.rouche_margin > 0.0
            assert rep.crit_points_inside == (rep.qprime_roots_enclosed
                                              + rep.r_roots_enclosed)
            total += rep.crit_points_inside
        else:
            assert total <= crit.size
            done += 1
    assert done >= 10


def test_classify_rejects_bad_epsilon():
    mask = regions.build_mask(SPLIT, 1e-2, (-1.0, 1.0, -1.0, 1.0), 20.0)
    from rootfield.errors import InvalidEpsilon
    with pytest.raises(InvalidEpsilon):
        regions.classify_components(mask, SPLIT, K, 0.0)


# ---------------------------------------------------------------------------
# bridging
# ---------------------------------------------------------------------------

def test_no_bridge_for_well_separated_far_root():
    rng = np.random.default_rng(1)
    pts = rng.normal(size=400) * 0.5 + 1j * rng.normal(size=400) * 0.5
    inside = pts[np.abs(pts) < 1.0][:100]
    split = poly.RootSplit(inside, [4.0 + 0j])
    bbox = regions.default_bbox(split, K, EPS)
    mask = regions.build_mask(split, 1e-4, bbox, 150.0)
    reports = regions.classify_components(mask, split, K, EPS)
    assert regions.bridging_check(mask, reports, K, EPS) is None


def test_bridge_detected_when_lobe_reaches_K():
    # an outside root hugging the boundary drags its lobe across K and out
    # past K_eps; the witness path must start in K and end beyond K_eps
    split = poly.RootSplit([-0.5, 0.5], [1.05])
    bbox = regions.default_bbox(split, K, EPS)
    mask = regions.build_mask(split, 1e-2, bbox, 100.0)
    reports = regions.classify_components(mask, split, K, EPS)
    path = regions.bridging_check(mask, reports, K, EPS)
    assert path is not None and path.size >= 2
    assert geo.contains(K, path[0])
    assert geo.distance(K, path[-1]) > EPS
    # the path runs through the cells of one component
    ij = regions._cells_of_points(mask.bbox, mask.cell_size, mask.shape,
                                  path)
    assert np.unique(mask.labels[ij[:, 0], ij[:, 1]]).size == 1
    assert mask.labels[ij[0, 0], ij[0, 1]] >= 0


@pytest.mark.parametrize("domain", [
    K, geo.convex_hull([1 + 1j, -1 + 1j, -1 - 1j, 1 - 1j])])
def test_component_flags_match_whole_grid_flags(domain):
    split = poly.RootSplit([-0.5, 0.5], [1.05])
    bbox = regions.default_bbox(split, domain, EPS)
    mask = regions.build_mask(split, 1e-2, bbox, 60.0)
    centers = mask.cell_centers()
    in_k = geo.contains(domain, centers)
    out_keps = geo.distance(domain, centers) > EPS
    for cid, win in enumerate(mask.windows):
        cells, a, b = regions._component_flags(mask, cid, win, domain, EPS)
        assert np.array_equal(cells, mask.labels[win] == cid)
        assert np.array_equal(a, in_k[win] & cells)
        assert np.array_equal(b, out_keps[win] & cells)
