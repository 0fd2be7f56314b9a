"""Region masks: indicator values, labeling, moats, and the Rouché census."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rootfield import geometry as geo
from rootfield import contours, poly, regions
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


def test_mask_csv_round_trip(tmp_path):
    mask = regions.build_mask(SPLIT, 1e-2, (-1.0, 1.0, -1.0, 1.0), 20.0)
    path = tmp_path / "mask.csv"
    regions.mask_to_csv(mask, path)
    rows = np.loadtxt(path, delimiter=",", skiprows=1)
    assert rows.shape == (mask.indicator.size, 4)
    k = 17
    i, j = divmod(k, mask.shape[1])
    assert rows[k, 2] == pytest.approx(mask.indicator[i, j], rel=1e-11)
    assert int(rows[k, 3]) == mask.labels[i, j]


# ---------------------------------------------------------------------------
# moats and loops
# ---------------------------------------------------------------------------

def test_loop_area_matches_cell_count():
    mask = _masks()[1]
    crit = poly.critical_points(SPLIT.product())
    for cid in range(mask.n_components):
        loops, cells, absorbed, err = regions.component_boundaries(
            mask, cid, protect=crit)
        assert err is None
        raw = regions._trace_loops(cells)
        area = sum(contours.loop_area(lp) for lp in raw)
        assert area == pytest.approx(float(cells.sum()))


def test_moat_keeps_protected_points_off_the_boundary():
    mask = _masks()[0]
    crit = poly.critical_points(SPLIT.product())
    for cid in range(mask.n_components):
        loops, cells, absorbed, err = regions.component_boundaries(
            mask, cid, protect=crit)
        assert err is None
        for c in loops:
            for w in crit:
                step = np.abs(np.diff(c.samples)).max()
                assert np.abs(c.samples - w).min() > step


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
