"""Region masks: indicator values, labeling, moats, and the Rouché census."""

import dataclasses

import numpy as np
import pytest
from hypothesis import example, given, seed, settings, strategies as st
from scipy import ndimage

from rootfield import geometry as geo
from rootfield import contours, harness, poly, regions
from rootfield.errors import GrowBBox, SingularPoint

RES = 200.0
DELTAS = (1e-4, 1e-3, 1e-2)

# two inside roots at +-1/2, one outside root at 3; everything about this
# configuration is computable by hand
SPLIT = poly.RootSplit([-0.5, 0.5], [3.0])
K = geo.ConvexDomain.disk(0.0, 1.0)
EPS = 0.5


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


def test_indicator_rejects_bad_inputs():
    with pytest.raises(ValueError):
        regions.adelta_indicator(SPLIT, 0.0, 1.0j)
    with pytest.raises(SingularPoint):
        regions.adelta_indicator(SPLIT, 1e-3, 3.0)


def test_critical_points_lie_inside_every_adelta():
    # p'/p = q'/q + r'/r vanishes at critical points, so g = -delta/|r| < 0
    crit = poly.critical_points(SPLIT.product())
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
        inside = mask.indicator <= regions.EQUALITY_TOL
        assert (mask.labels >= 0).sum() == inside.sum()
        assert mask.n_components == 2
    # the blob around the interior critical point and the lobe around the
    # far root never merge at these deltas
    crit = poly.critical_points(SPLIT.product())
    mask = masks[1]
    ij = np.argwhere(mask.labels >= 0)
    centers = mask.cell_centers()[ij[:, 0], ij[:, 1]]
    nearest = [ij[np.abs(centers - w).argmin()] for w in crit]
    near, far = (mask.labels[tuple(c)] for c in nearest)
    assert near != far


def test_masks_nest_with_delta():
    masks = _masks()
    for small, big in zip(masks, masks[1:]):
        a = small.indicator <= regions.EQUALITY_TOL
        b = big.indicator <= regions.EQUALITY_TOL
        assert bool(np.all(~a | b))


def test_critical_cells_within_one_cell_of_a_label():
    # the indicator is only -delta/|r| deep at a critical point, so the
    # exact cell is not guaranteed; a labeled cell adjacent to it is
    mask = _masks()[2]
    crit = poly.critical_points(SPLIT.product())
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


def test_no_outside_roots_blobs_shrink_with_delta():
    split = poly.RootSplit(np.array([-0.5, 0.5, 0.3j]), [])
    bbox = (-2.0, 2.0, -2.0, 2.0)
    sizes = []
    for d in (0.5, 0.1, 0.01):
        mask = regions.build_mask(split, d, bbox, 100.0)
        sizes.append(int((mask.indicator <= regions.EQUALITY_TOL).sum()))
    assert sizes[0] >= sizes[1] >= sizes[2]
    assert sizes[0] > 0


def test_root_on_cell_center_is_patched():
    for inside, outside, bbox in (
            # h = 0.1 grid over (-1,1)^2 has a center at 0.05 + 0.05j
            ([0.05 + 0.05j, -0.3], [5.0], (-1.0, 1.0, -1.0, 1.0)),
            # a root of r on the center 1.25 + 0.05j of the grid on (-3,3)^2
            ([0.05, -0.3], [1.25 + 0.05j], (-3.0, 3.0, -3.0, 3.0))):
        split = poly.RootSplit(np.array(inside), outside)
        mask = regions.build_mask(split, 1e-2, bbox, 10.0)
        assert np.all(np.isfinite(mask.indicator))
        # unpatched, the root's own cell would read about 1e16
        assert np.abs(mask.indicator).max() < 1e3


# ---------------------------------------------------------------------------
# the quadtree against the dense grid
# ---------------------------------------------------------------------------

def _dense_oracle(split, deltas, bbox, resolution, centers):
    """Every cell center evaluated, then patched, checked and labelled
    as build_masks does: (g, patched cells, labels, count) per delta, or
    the GrowBBox."""
    h = 1.0 / resolution
    xs, ys = centers[0].real, centers[:, 0].imag
    a, b, c = regions._indicator_terms(split, centers)
    near = regions._near_root(split, centers)
    out = []
    for delta in deltas:
        with np.errstate(invalid="ignore"):
            g = a - b - delta * c
        bad = near | np.isnan(g)
        regions._patch_singular_cells(split, delta, g, np.argwhere(bad),
                                      xs, ys, h)
        try:
            regions._far_field_check(g, bbox)
        except GrowBBox as exc:
            return exc
        labels, count = ndimage.label(g <= regions.EQUALITY_TOL,
                                      structure=regions._FOUR)
        out.append((g, bad, labels - 1, count))
    return out


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
# roots on the corners shared by four 32 x 32 blocks
@example(([-0.2 - 0.2j, 0.3], [-0.2 + 0.6j], [1e-3, 1e-1],
          (-1.0, 1.4, -1.0, 1.4), 40.0))
# no outside roots: r is the constant 1
@example(([-0.5, 0.5, 0.3j], [], [0.5, 0.1, 0.01], (-2.0, 2.0, -2.0, 2.0),
          30.0))
# a tight bbox that raises GrowBBox
@example(([-0.5, 0.5], [3.0], [1e-3], (-4.0, 5.0, -4.0, 4.0), 10.0))
def test_quadtree_matches_dense_grid(case):
    inside, outside, deltas, bbox, res = case
    split = poly.RootSplit(np.array(inside), outside)
    painted, painted_top = [], []
    real_paint, real_paint_top = regions._paint, regions._paint_top

    def recording(gs, blocks, values):
        painted.append(blocks)
        real_paint(gs, blocks, values)

    def recording_top(gs, coarse):
        painted_top.append(~np.isnan(coarse[0]))
        real_paint_top(gs, coarse)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(regions, "_paint", recording)
        mp.setattr(regions, "_paint_top", recording_top)
        try:
            masks = regions.build_masks(split, deltas, bbox, res)
        except GrowBBox as exc:
            masks = exc
    ny = max(4, int(np.ceil((bbox[3] - bbox[2]) * res)))
    nx = max(4, int(np.ceil((bbox[1] - bbox[0]) * res)))
    probe = regions.RegionMask(bbox, res, deltas[0], np.zeros((ny, nx)),
                               np.zeros((ny, nx), dtype=np.int32), 0, ())
    oracle = _dense_oracle(split, deltas, bbox, res, probe.cell_centers())
    if isinstance(oracle, GrowBBox):
        assert isinstance(masks, GrowBBox)
        assert masks.suggested == oracle.suggested
        return
    assert not isinstance(masks, GrowBBox)
    block = regions._BLOCK
    settled = np.repeat(np.repeat(painted_top[0], block, axis=0), block,
                        axis=1)[:ny, :nx]
    for blocks in painted:
        for i0, i1, j0, j1 in blocks.T:
            settled[i0:i1, j0:j1] = True
    for mask, (g, patched, labels, count) in zip(masks, oracle):
        assert mask.n_components == count
        assert np.array_equal(mask.labels, labels)
        assert np.array_equal(mask.indicator <= regions.EQUALITY_TOL,
                              g <= regions.EQUALITY_TOL)
        exact = ~settled | patched
        assert np.array_equal(mask.indicator[exact], g[exact])
        got, want = mask.indicator[~exact], g[~exact]
        assert np.all(np.sign(got) == np.sign(want))
        assert np.all(np.abs(got) <= np.abs(want))
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
    assert mask.evaluations < 0.02 * mask.labels.size


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


def _dense_moat(mask, component, protect):
    """The moat grown on the whole grid: (cells, absorbed ids, error)."""
    labels = mask.labels
    current = labels == component
    absorbed = set()
    pcells = regions._cells_of_points(mask.bbox, mask.cell_size, mask.shape,
                                      protect)
    for _ in range(regions._RING_LIMIT):
        grown = ndimage.binary_dilation(current, structure=regions._EIGHT)
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
            dense, count = ndimage.label(
                mask.indicator <= regions.EQUALITY_TOL,
                structure=regions._FOUR)
            assert mask.n_components == count
            assert np.array_equal(mask.labels, dense - 1)
            assert mask.windows == tuple(ndimage.find_objects(dense))
            for cid in range(count):
                cells, win, absorbed, err = regions._moat(mask, cid,
                                                          split.critical)
                want, want_absorbed, want_err = _dense_moat(mask, cid,
                                                            split.critical)
                whole = np.zeros(mask.shape, dtype=bool)
                whole[win] = cells
                assert np.array_equal(whole, want)
                assert absorbed == want_absorbed
                assert (err is None) == (want_err is None)
                absorbing += bool(absorbed)
    assert absorbing >= 5


def _segment_runs(segments, refinement):
    """The per-segment sampling that _sample_segments vectorizes."""
    chunks = []
    for a, b in segments:
        n = max(1, int(np.ceil(abs(b - a) * refinement)))
        chunks.append(a + np.arange(n + 1) / n * (b - a))
    return np.concatenate(chunks)


def test_sample_polyline_is_the_segment_loop_bit_for_bit():
    split, res = _census_instance(4)
    mask = regions.build_mask(split, 1e-3, CENSUS_BOX, res)
    sets = [(c.segments, c.refinement)
            for c in (regions.component_boundaries(mask, cid,
                                                   split.critical)[0]
                      for cid in range(mask.n_components))]
    rng = np.random.default_rng(3)
    for k in range(20):
        s = rng.normal(size=(k + 3, 2)) + 1j * rng.normal(size=(k + 3, 2))
        s[rng.uniform(size=s.shape) < 0.2] = 0.0     # zeros and repeats
        sets.append((s, float(rng.uniform(1.0, 100.0))))
    for s, refinement in sets:
        got = contours._sample_segments(s, refinement)
        want = _segment_runs(s, refinement)
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


def test_counts_reuse_the_build_time_sampling():
    split, res = _census_instance(0)
    mask = regions.build_mask(split, 1e-3, CENSUS_BOX, res)
    dp = poly.Polynomial(poly.derivative(split.product()).coeffs,
                         roots=split.critical)
    loops = [regions.component_boundaries(mask, cid, split.critical)[0]
             for cid in range(mask.n_components)]
    loops += [contours.circle(0.0, r) for r in (0.5, 1.25, 2.0)]
    for c in loops:
        rebuilt = contours._resample(c, 0)
        assert rebuilt.tobytes() == c.samples.tobytes()
        assert contours.count_roots_in(dp, c) == contours.count_roots_in(
            dp, dataclasses.replace(c, samples=rebuilt))


# ---------------------------------------------------------------------------
# moats and loops
# ---------------------------------------------------------------------------

def test_loop_area_matches_cell_count():
    mask = _masks()[1]
    crit = poly.critical_points(SPLIT.product())
    for cid in range(mask.n_components):
        contour, cells, _, absorbed, err = regions.component_boundaries(
            mask, cid, protect=crit)
        assert err is None
        area = contours.loop_area(regions._boundary_segments(cells))
        assert area == float(cells.sum())
        assert contours.loop_area(contour.segments) == pytest.approx(
            float(cells.sum()) * mask.cell_size ** 2)


def test_moat_keeps_protected_points_off_the_boundary():
    mask = _masks()[0]
    crit = poly.critical_points(SPLIT.product())
    for cid in range(mask.n_components):
        c, cells, _, absorbed, err = regions.component_boundaries(
            mask, cid, protect=crit)
        assert err is None
        step = np.delete(np.abs(np.diff(c.samples)),
                         contours._seams(c, 0)).max()
        for w in crit:
            assert np.abs(c.samples - w).min() > step


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
        assert contours.loop_area(seg) == cells.sum()
        # every vertex starts as many segments as it ends
        assert np.array_equal(np.sort(a), np.sort(b))
        # the segments are the boundary edges, merged ...
        step = (b - a) / np.abs(b - a)
        unit = [(z.real, z.imag, z.real + u.real, z.imag + u.imag)
                for s, u, n in zip(a, step, np.abs(b - a).astype(int))
                for z in s + np.arange(n) * u]
        assert sorted(unit) == _unit_edges(cells)
        # ... into maximal runs: no segment continues straight into another
        starts = set(zip(a.tolist(), step.tolist()))
        assert not any(e in starts for e in zip(b.tolist(), step.tolist()))


def _ring_mask(res=10.0):
    """One component: the cells whose centers lie within 0.8-1.2 of 0."""
    h = 1.0 / res
    c = (np.arange(40) + 0.5) * h - 2.0
    z = c[None, :] + 1j * c[:, None]
    ring = (np.abs(z) >= 0.8) & (np.abs(z) <= 1.2)
    labels = np.where(ring, 0, -1)
    return regions.RegionMask(
        bbox=(-2.0, 2.0, -2.0, 2.0), resolution=res, delta=1e-3,
        indicator=np.where(ring, -1.0, 1.0), labels=labels, n_components=1,
        windows=tuple(ndimage.find_objects(labels + 1)))


def test_ring_moat_with_a_hole_counts_only_the_ring():
    mask = _ring_mask()
    grid = (mask.bbox, mask.cell_size, mask.shape)
    for zero, want in ((0.1 - 0.05j, 0), (0.02 + 1.01j, 1)):
        roots = np.array([zero, 1.7 + 1.7j, -3.0])   # a corner; off-grid
        contour, cells, win, _, err = regions.component_boundaries(
            mask, 0, protect=roots)
        assert err is None
        # the moat keeps a hole, so the set has a clockwise loop
        assert ndimage.binary_fill_holes(cells).sum() > cells.sum()
        assert regions._count_on(
            cells, win, regions._cells_of_points(*grid, roots)) == want
        p = poly.from_roots(roots)
        assert contours.count_roots_in(p, contour) == want


# ---------------------------------------------------------------------------
# classification
# ---------------------------------------------------------------------------

def test_worked_example_census():
    mask = _masks()[1]
    reports = regions.classify_components(mask, SPLIT, K, EPS, strict=True)
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
        crit = poly.critical_points(split.product())
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
    res = regions.bridging_check(mask, K, EPS)
    assert not res.bridged
    assert res.path is None


def test_bridge_detected_when_lobe_reaches_K():
    # an outside root hugging the boundary drags its lobe across K and out
    # past K_eps; the witness path must start in K and end beyond K_eps
    split = poly.RootSplit([-0.5, 0.5], [1.05])
    bbox = regions.default_bbox(split, K, EPS)
    mask = regions.build_mask(split, 1e-2, bbox, 100.0)
    res = regions.bridging_check(mask, K, EPS)
    assert res.bridged
    assert res.component is not None
    assert res.path is not None and res.path.size >= 2
    assert geo.contains(K, res.path[0])
    assert geo.distance(K, res.path[-1]) > EPS


@pytest.mark.parametrize("domain", [
    K, geo.ConvexDomain.polygon([1 + 1j, -1 + 1j, -1 - 1j, 1 - 1j])])
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
