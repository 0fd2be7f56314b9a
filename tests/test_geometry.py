"""Convex domains: hulls, membership, distances, diameters.

Brute-force pairwise comparisons serve as oracles for the rotating-calipers
diameter; membership and distance checks use hand-computed values on
squares and disks.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rootfield import geometry as geo
from rootfield import harness
from rootfield.errors import ConfigError, DegenerateHull

SQUARE = geo.convex_hull([0, 1, 1 + 1j, 1j])
DISK = geo.ConvexDomain.disk(1 + 1j, 2.0)


# ---------------------------------------------------------------------------
# hull construction
# ---------------------------------------------------------------------------

def test_hull_drops_interior_and_collinear_points():
    pts = [0, 1, 1 + 1j, 1j, 0.5 + 0.5j, 0.5]  # interior + edge midpoint
    dom = geo.convex_hull(np.array(pts, dtype=complex))
    assert len(dom.vertices) == 4
    assert set(map(complex, dom.vertices)) == {0, 1, 1 + 1j, 1j}


def test_hull_is_counterclockwise():
    rng = np.random.default_rng(2)
    pts = rng.normal(size=50) + 1j * rng.normal(size=50)
    dom = geo.convex_hull(pts)
    v = dom.vertices
    w = np.roll(v, -1)
    area2 = np.sum(v.real * w.imag - v.imag * w.real)
    assert area2 > 0


def test_degenerate_hull_raises():
    with pytest.raises(DegenerateHull):
        geo.convex_hull(np.array([0.0, 1.0, 2.0], dtype=complex))  # collinear
    with pytest.raises(DegenerateHull):
        geo.convex_hull(np.array([1.0 + 1j], dtype=complex))
    with pytest.raises(DegenerateHull):
        geo.ConvexDomain.disk(0, 0.0)


def test_polygon_input_is_renormalized():
    # clockwise input with a duplicate comes out CCW and deduplicated
    dom = geo.convex_hull([0, 1j, 1 + 1j, 1, 0])
    assert len(dom.vertices) == 4
    v = dom.vertices
    w = np.roll(v, -1)
    assert np.sum(v.real * w.imag - v.imag * w.real) > 0


# ---------------------------------------------------------------------------
# membership (closed sets: boundary is inside)
# ---------------------------------------------------------------------------

def test_square_membership_boundary_inclusive():
    assert geo.contains(SQUARE, 0.5 + 0.5j)
    assert geo.contains(SQUARE, 0.0 + 0.0j)       # corner
    assert geo.contains(SQUARE, 0.5 + 0.0j)       # edge
    assert not geo.contains(SQUARE, 1.0001 + 0.5j)
    assert not geo.contains(SQUARE, -1e-12 + 0.5j)


def test_disk_membership_boundary_inclusive():
    assert geo.contains(DISK, 3 + 1j)              # on the circle
    assert not geo.contains(DISK, 3.0000001 + 1j)


def test_contains_many_matches_scalar():
    rng = np.random.default_rng(8)
    zs = rng.uniform(-1, 2, size=200) + 1j * rng.uniform(-1, 2, size=200)
    bulk = geo.contains(SQUARE, zs)
    singles = np.array([geo.contains(SQUARE, z) for z in zs])
    assert isinstance(geo.contains(SQUARE, zs[0]), bool)
    assert np.array_equal(bulk, singles)
    grid = zs.reshape(20, 10)
    assert np.array_equal(geo.contains(SQUARE, grid), singles.reshape(20, 10))


# ---------------------------------------------------------------------------
# distances
# ---------------------------------------------------------------------------

def test_distance_to_square_hand_values():
    assert geo.distance(SQUARE, 0.5 + 0.5j) == 0.0
    assert geo.distance(SQUARE, 2.0 + 0.5j) == pytest.approx(1.0)
    assert geo.distance(SQUARE, 2.0 + 2.0j) == pytest.approx(np.sqrt(2))
    assert geo.distance(SQUARE, 0.5 - 3.0j) == pytest.approx(3.0)
    # membership in K_eps is distance(K, z) <= eps
    assert geo.distance(SQUARE, 1.4 + 0.5j) <= 0.5
    assert geo.distance(SQUARE, 1.6 + 0.5j) > 0.5
    assert geo.distance(SQUARE, -0.3 + 0.5j) <= 0.5


def test_distance_to_disk_exact():
    assert geo.distance(DISK, 1 + 1j) == 0.0
    assert geo.distance(DISK, 5 + 1j) == pytest.approx(2.0)


@given(st.integers(min_value=0, max_value=2 ** 31 - 1))
@settings(max_examples=40, deadline=None)
def test_distance_is_zero_iff_contained(seed):
    rng = np.random.default_rng(seed)
    pts = rng.normal(size=10) + 1j * rng.normal(size=10)
    try:
        dom = geo.convex_hull(pts)
    except DegenerateHull:
        return
    zs = rng.normal(size=30) * 2 + 1j * rng.normal(size=30) * 2
    dist = geo.distance(dom, zs)
    inside = geo.contains(dom, zs)
    assert np.all((dist == 0.0) == inside)
    assert dist[0] == geo.distance(dom, zs[0])
    assert isinstance(geo.distance(dom, zs[0]), float)


# ---------------------------------------------------------------------------
# diameter
# ---------------------------------------------------------------------------

def test_diameter_unit_square_is_sqrt2():
    assert geo.diameter(SQUARE) == pytest.approx(np.sqrt(2))


def test_diameter_disk():
    assert geo.diameter(DISK) == 4.0


@given(st.integers(min_value=0, max_value=2 ** 31 - 1))
@settings(max_examples=40, deadline=None)
def test_diameter_matches_brute_force(seed):
    rng = np.random.default_rng(seed)
    pts = rng.normal(size=14) + 1j * rng.normal(size=14)
    try:
        dom = geo.convex_hull(pts)
    except DegenerateHull:
        return
    v = dom.vertices
    brute = np.max(np.abs(v[:, None] - v[None, :]))
    assert geo.diameter(dom) == pytest.approx(brute, rel=1e-12)


# ---------------------------------------------------------------------------
# reading and parametrization
# ---------------------------------------------------------------------------

def test_from_json_rejects_unknown_kind():
    # domains are decoded only at the harness boundary
    with pytest.raises(ConfigError):
        harness._domain_from_json({"kind": "ellipse"})


def test_boundary_point_traverses_square():
    # s in [0,1) walks the perimeter at constant speed from vertices[0]
    start = geo.boundary_point(SQUARE, 0.0)
    quarter = geo.boundary_point(SQUARE, 0.25)
    assert abs(start - SQUARE.vertices[0]) < 1e-14
    assert geo.distance(SQUARE, quarter) < 1e-12
    # perimeter 4: s=0.125 is half an edge from the start
    half_edge = geo.boundary_point(SQUARE, 0.125)
    assert abs(abs(half_edge - start) - 0.5) < 1e-12


def test_boundary_point_on_circle():
    z = geo.boundary_point(DISK, 0.5)
    assert abs(z - (DISK.center - DISK.radius)) < 1e-12


def _scalar_boundary_point(domain, s):
    """One point at a time: the loop the array form of boundary_point
    replaces, kept as its reference."""
    s = s % 1.0
    if domain.kind == "disk":
        return domain.center + domain.radius * np.exp(2j * np.pi * s)
    v = domain.vertices
    w = np.roll(v, -1)
    lens = np.abs(w - v)
    cum = np.concatenate([[0.0], np.cumsum(lens)])
    target = s * cum[-1]
    i = min(int(np.searchsorted(cum, target, side="right")) - 1, len(v) - 1)
    t = 0.0 if lens[i] == 0 else (target - cum[i]) / lens[i]
    return complex(v[i] + t * (w[i] - v[i]))


_PENTAGON = geo.convex_hull([0, 2, 2 + 1j, 0.5 + 2j, -1 + 1j])


def _bits(z):
    return np.atleast_1d(np.asarray(z, dtype=complex)).view(np.uint64)


@pytest.mark.parametrize("domain", [DISK, SQUARE, _PENTAGON])
def test_boundary_point_arrays_match_the_scalar_loop(domain):
    rng = np.random.default_rng(0)
    s = np.concatenate([rng.uniform(size=5000),
                        [0.0, 0.25, 0.5, 1 - 1e-17, -1e-20, 1 - 1e-12]])
    want = np.array([_scalar_boundary_point(domain, float(t)) for t in s])
    got = geo.boundary_point(domain, s)
    assert np.array_equal(_bits(got), _bits(want))
    one = geo.boundary_point(domain, float(s[0]))
    assert type(one) is complex
    assert np.array_equal(_bits(one), _bits(want[0]))


@pytest.mark.parametrize("domain", [DISK, SQUARE, _PENTAGON])
def test_boundary_sampler_matches_the_scalar_loop(domain):
    got = harness._sample_inside(domain, 500, "boundary",
                                 np.random.default_rng(6))
    rng = np.random.default_rng(6)
    s = rng.uniform(size=500)
    b = np.array([_scalar_boundary_point(domain, float(t)) for t in s])
    u = rng.uniform(0.70, 0.98, size=500)
    want = domain.center + (b - domain.center) * u
    assert np.array_equal(_bits(got), _bits(want))


def test_bounding_box():
    assert geo.bounding_box(SQUARE) == (0.0, 1.0, 0.0, 1.0)
    assert geo.bounding_box(DISK) == (-1.0, 3.0, -1.0, 3.0)
