"""Argument-principle counting and Rouché dominance.

The membership oracle is the known root list of from_roots polynomials,
and for counts of p' zeros the solved critical points; Rouché margins
(`contours.rouche_pass`, a lower bound on |q'/q| - |r'/r|) are checked
against dense samples and cross-validated by counting the zeros of
p' = q'r + qr' against those of q' and r.
"""

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from rootfield import contours, geometry, harness, poly, regions
from rootfield.errors import ImpossibleCount, NonIntegerWinding, RootOnContour
from rootfield.kernels import field_sum

CUBE_ROOTS_OF_UNITY = poly.Polynomial([-1.0, 0.0, 0.0, 1.0])


def _edges(corners):
    """The closed polygon through corners as (k, 2) rows of its edges."""
    return np.stack([corners, np.roll(corners, -1)], axis=1)


def _gon(center, radius, k=256):
    """The regular k-gon inscribed in a circle, one vertex at angle 0, as
    (k, 2) rows of its edges, counterclockwise; it lies within
    radius * pi^2 / (2 k^2) of the circle."""
    return _edges(center + radius * np.exp(2j * np.pi * np.arange(k) / k))


# the square |x|, |y| <= 1, counterclockwise
SQUARE = _edges(np.array([-1 - 1j, 1 - 1j, 1 + 1j, -1 + 1j]))


def _inside(roots, c):
    """Points of roots in the convex polygon of the segments c."""
    K = geometry.ConvexDomain("polygon", vertices=c[:, 0])
    return int(np.count_nonzero(geometry.contains(K, np.asarray(roots))))


def _critical_count(roots, c):
    """Zeros of p' inside c: the roots inside plus the winding of p'/p."""
    return _inside(roots, c) + contours.rouche_pass(roots, [], c)[0]


# ---------------------------------------------------------------------------
# contour construction
# ---------------------------------------------------------------------------

def test_circle_samples_are_closed_and_dense():
    samples = contours._circle_samples(contours.circle(1 + 1j, 2.0))
    assert samples[0] == samples[-1]
    gaps = np.abs(np.diff(samples))
    assert gaps.max() <= 1.0 / 64.0 + 1e-12


def test_degenerate_contours_rejected():
    with pytest.raises(ValueError):
        contours.circle(0, 0.0)
    for open_set in ([(0, 1.0)], [(0, 1.0), (1.0, 1j), (1j, 0.5)],
                     np.zeros((0, 2))):
        with pytest.raises(ValueError):
            contours.rouche_pass([0.5], [], open_set)


# ---------------------------------------------------------------------------
# counting: analytic cases
# ---------------------------------------------------------------------------

def test_counts_cube_roots_inside_radius_two():
    assert contours.count_roots_in(CUBE_ROOTS_OF_UNITY,
                                   contours.circle(0, 2.0)) == 3


def test_counts_none_inside_small_circle():
    assert contours.count_roots_in(CUBE_ROOTS_OF_UNITY,
                                   contours.circle(0, 0.5)) == 0


def test_count_matches_membership_for_disk_samples():
    rng = np.random.default_rng(0)
    pts = rng.normal(size=40) * 0.7 + 1j * rng.normal(size=40) * 0.7
    pts = pts[np.abs(pts) < 1.0][:10]
    p = poly.from_roots(pts)
    got = contours.count_roots_in(p, contours.circle(0, 1.5))
    assert got == int(np.sum(np.abs(pts) < 1.5)) == 10


def test_count_weights_multiplicity():
    p = poly.from_roots([0.3 + 0.3j, 0.3 + 0.3j, 0.3 + 0.3j, 2.0])
    assert contours.count_roots_in(p, contours.circle(0, 1.0)) == 3


def test_constant_polynomial_counts_zero():
    assert contours.count_roots_in(poly.Polynomial([5.0]),
                                   contours.circle(0, 1.0)) == 0


def test_randomized_counts_match_root_list():
    # spot the full 500-instance sweep run during development; keep a
    # representative 120 instances inside the suite budget
    tried = 0
    for seed in range(250):
        rng = np.random.default_rng(seed)
        deg = int(rng.integers(2, 31))
        roots = rng.normal(size=deg) + 1j * rng.normal(size=deg)
        if np.min(np.abs(np.abs(roots) - 1.5)) < 0.05:
            continue
        p = poly.from_roots(roots)
        got = contours.count_roots_in(p, contours.circle(0, 1.5))
        assert got == int(np.sum(np.abs(roots) < 1.5))
        tried += 1
        if tried >= 120:
            break
    assert tried >= 100


def test_high_degree_counting_is_overflow_free():
    rng = np.random.default_rng(5)
    pts = rng.normal(size=2500) * 0.4 + 1j * rng.normal(size=2500) * 0.4
    roots = np.concatenate([pts[np.abs(pts) < 1.0][:500],
                            4.0 * np.exp(2j * np.pi * np.arange(5) / 5)])
    big = poly.from_roots(roots)
    assert contours.count_roots_in(big, contours.circle(0, 6.0)) == 505
    assert contours.count_roots_in(big, contours.circle(0, 2.0)) == 500


# ---------------------------------------------------------------------------
# counting: error contract
# ---------------------------------------------------------------------------

def test_root_on_contour_raises():
    p = poly.from_roots([2.0 + 0j, -1.0])
    with pytest.raises(RootOnContour):
        contours.count_roots_in(p, contours.circle(0, 2.0))


def test_root_within_clearance_raises():
    # clearance at 64 samples per unit length is 1/32; a root 0.01 away
    # violates it
    p = poly.from_roots([1.99 + 0j, 0.0])
    with pytest.raises(RootOnContour):
        contours.count_roots_in(p, contours.circle(0, 2.0))


def test_finer_contour_resolves_near_root(monkeypatch):
    monkeypatch.setattr(contours, "_DENSITY", 256.0)
    p = poly.from_roots([1.99 + 0j, 0.0])
    assert contours.count_roots_in(p, contours.circle(0, 2.0)) == 2


def _harness_roots(seed):
    """Roots of the harness instance of this seed: n=500 in the unit disk,
    m=2 in the annulus [1, 2]."""
    rng = np.random.default_rng(seed)
    K = geometry.ConvexDomain.disk(0.0, 1.0)
    inside = harness._sample_inside(K, 500, "uniform", rng)
    outside = harness._sample_outside(K, 2, ("annulus", 1.0, 2.0), rng)
    return np.concatenate([inside, outside])


def test_n500_coefficient_counts_are_not_aliased():
    # p' of the harness-seed-1 instance (n=500 in the unit disk, m=2): at
    # level 0 the circle of radius 1.25 has 503 steps, and a phase winding
    # 499 times read -4 (499 - 503) there and -105 (499 - 604) at radius
    # 1.5; four samples per possible root remove the aliasing
    dp = poly.derivative(poly.from_roots(_harness_roots(1)))
    for radius in (1.25, 1.5):
        assert contours.count_roots_in(dp, contours.circle(0.0, radius)) \
            == 499


def test_count_out_of_range_raises(monkeypatch):
    # with no refinement the aliased level-0 counts of the n=500 p' above
    # (-4 at radius 1.25, -105 at 1.5) reach the range check
    monkeypatch.setattr(contours, "MAX_REFINE", 0)
    dp = poly.derivative(poly.from_roots(_harness_roots(1)))
    for radius in (1.25, 1.5):
        with pytest.raises(ImpossibleCount):
            contours.count_roots_in(dp, contours.circle(0.0, radius))
    assert issubclass(ImpossibleCount, NonIntegerWinding)


def test_clearance_check_without_root_list():
    # same polynomial through the coefficient-only path: the Newton-step
    # bound proves the violation
    p = poly.Polynomial(poly.from_roots([2.0 + 0j, -1.0]).coeffs)
    with pytest.raises(RootOnContour):
        contours.count_roots_in(p, contours.circle(0, 2.0))


# ---------------------------------------------------------------------------
# counting p' zeros from the roots of p
# ---------------------------------------------------------------------------

def test_critical_counts_match_solved_critical_points():
    tried = 0
    for seed in range(600):
        rng = np.random.default_rng(seed + 2000)
        deg = int(rng.integers(3, 26))
        roots = rng.normal(size=deg) + 1j * rng.normal(size=deg)
        crit = poly.critical_points(poly.from_roots(roots))
        if seed % 2:
            c = _gon(0.0, 1.2)
            gap = np.abs(np.abs(crit) - 1.2)
        else:
            c = SQUARE
            gap = np.abs(np.maximum(np.abs(crit.real), np.abs(crit.imag))
                         - 1.0)
        if gap.min() <= 0.05:
            continue
        assert _critical_count(roots, c) == _inside(crit, c)
        tried += 1
        if tried >= 200:
            break
    assert tried == 200


@pytest.mark.parametrize("seed", [1, 17])
def test_n500_critical_counts_from_the_roots(seed):
    # seed 17 at radius 1.25 reads 492 from the coefficients of p'
    roots = _harness_roots(seed)
    crit = poly.critical_points(poly.from_roots(roots))
    for radius in (1.25, 1.5):
        c = _gon(0.0, radius)
        assert _inside(crit, c) == 499
        assert _critical_count(roots, c) == 499


def test_critical_count_edge_cases():
    c = _gon(0.0, 1.0)
    # p of degree one has p' = 1
    assert _critical_count([0.5], c) == 0
    # a double root of p is a zero of p'
    assert _critical_count([0.2, 0.2, 3.0], c) == 1
    # p' of z(z - 2) vanishes at 1, a vertex of the polygon
    with pytest.raises(RootOnContour):
        contours.rouche_pass([0.0, 2.0], [], c)
    # ... the same p split as q = z, r = z - 2
    with pytest.raises(RootOnContour):
        contours.rouche_pass([0.0], [2.0], c)
    # a root of p on a segment: F has a pole there
    with pytest.raises(RootOnContour):
        contours.rouche_pass([1.0, 3.0 + 3j], [], SQUARE)
    with pytest.raises(RootOnContour):
        contours.rouche_pass([3.0 + 3j], [1.0], SQUARE)


def test_critical_count_certifies_a_zero_near_the_contour():
    # a critical point 0.0107 from |z| = 1.2, inside the clearance band of
    # 2/64 that a sampled count must keep free: the certified pieces near
    # it are halved until they fit between the zero and the circle
    rng = np.random.default_rng(2001)
    deg = int(rng.integers(3, 26))
    roots = rng.normal(size=deg) + 1j * rng.normal(size=deg)
    crit = poly.critical_points(roots)
    assert np.abs(np.abs(crit) - 1.2).min() == pytest.approx(0.0107,
                                                             abs=1e-4)
    c = _gon(0.0, 1.2)
    assert _critical_count(roots, c) == _inside(crit, c)


def test_critical_count_without_roots_raises_at_once(monkeypatch):
    # q = 1 has q' = 0: F_q = 0 certifies no piece, so halving never ends
    calls = []
    monkeypatch.setattr(contours, "field_modulus_nearest",
                        lambda *args: calls.append(args))
    for c in (_gon(0.0, 1.0), SQUARE):
        for outside in ([], [0.5]):
            with pytest.raises(RootOnContour):
                contours.rouche_pass([], outside, c)
    assert calls == []


# ---------------------------------------------------------------------------
# Rouché dominance
# ---------------------------------------------------------------------------

def _margin(inside, outside, c):
    return contours.rouche_pass(inside, outside, c)[2]


def test_z_squared_dominates_one_on_radius_two():
    # q = z^2, r = 1: |q'/q| = 2/|z| >= 1 on the polygon inside |z| = 2,
    # with equality at its vertices
    margin = _margin([0.0, 0.0], [], _gon(0, 2.0))
    assert 0.0 < margin <= 1.0


def test_z_does_not_dominate_z_squared():
    # q = z, r = z^2: |q'/q| - |r'/r| = -1/|z| on the polygon
    margin = _margin([0.0], [0.0, 0.0], _gon(0, 2.0))
    assert margin < -0.5


def test_equal_magnitudes_yield_zero_margin():
    # |q'/q| = |r'/r| everywhere: no positive bound exists
    assert _margin([0.0], [0.0], _gon(0, 1.0)) <= 0.0


def test_dominance_implies_equal_counts():
    # Rouché for p' = q'r + qr': where |q'r| > |qr'| on the contour, p'
    # has as many zeros inside as q'r
    used = 0
    for seed in range(80):
        rng = np.random.default_rng(seed + 1000)
        fr = rng.normal(size=8) + 1j * rng.normal(size=8)
        gr = 3.0 * np.exp(2j * np.pi * rng.uniform(size=2)) \
            * rng.uniform(0.8, 1.6, size=2)
        roots = np.concatenate([fr, gr])
        crit = poly.critical_points(poly.from_roots(roots))
        c, circle = _gon(0, 2.5), contours.circle(0, 2.5)
        if np.min(np.abs(np.abs(np.concatenate([roots, crit])) - 2.5)) \
                < 0.08:
            continue
        winding, q_winding, margin = contours.rouche_pass(fr, gr, c)
        assert _inside(roots, c) + winding == _inside(crit, c)
        if not margin > 0:
            continue
        used += 1
        q_zeros = contours.count_roots_in(
            poly.derivative(poly.from_roots(fr)), circle)
        assert _inside(fr, c) + q_winding == q_zeros
        assert _critical_count(roots, c) \
            == q_zeros + contours.count_roots_in(poly.from_roots(gr), circle)
    assert used >= 30


def test_margin_survives_high_degree_scales():
    # |q| ~ 2^900 on this contour; the margin never forms it
    rng = np.random.default_rng(9)
    roots = rng.normal(size=300) * 0.3 + 1j * rng.normal(size=300) * 0.3
    margin = _margin(roots, [20.0, -20.0j], _gon(0, 8.0))
    assert np.isfinite(margin)
    assert margin > 0


def _dense(segments, per_cell, h):
    """per_cell samples per length h along each segment, ends included."""
    return np.concatenate([
        a + np.linspace(0.0, 1.0, int(round(abs(b - a) / h)) * per_cell + 1)
        * (b - a) for a, b in segments])


@given(st.integers(0, 2 ** 32 - 1))
@settings(max_examples=60, deadline=None)
def test_margin_never_exceeds_a_dense_sample(seed):
    # a random moat: a cell set's boundary, holes included, with roots
    # scattered over and around it; the certified margin is a lower bound
    # on |q'/q| - |r'/r| along the boundary, so no sample lies below it
    rng = np.random.default_rng(seed)
    ny, nx = rng.integers(1, 7, size=2)
    cells = rng.uniform(size=(ny, nx)) < rng.uniform(0.3, 1.0)
    assume(cells.any())
    h = 0.25
    segments = regions._boundary_segments(cells) * h
    span = (nx + 1j * ny) * h

    def scatter(k, pad):
        return (rng.uniform(-pad, 1 + pad, k) * span.real
                + 1j * rng.uniform(-pad, 1 + pad, k) * span.imag)

    inside = scatter(int(rng.integers(1, 9)), 0.2)
    outside = scatter(int(rng.integers(0, 4)), 1.0)
    try:
        margin = _margin(inside, outside, segments)
    except RootOnContour:
        assume(False)
    z = _dense(segments, 64, h)
    sampled = np.abs(field_sum(z, inside)) - np.abs(field_sum(z, outside))
    assert margin <= sampled.min()
