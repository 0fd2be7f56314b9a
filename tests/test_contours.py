"""Argument-principle counting and Rouché dominance.

The membership oracle is the known root list of from_roots polynomials;
Rouché margins (`regions._min_signed_difference` on log2 magnitudes) are
cross-validated by actually counting roots of f+g.
"""

import numpy as np
import pytest

from rootfield import contours, geometry, harness, poly, regions
from rootfield.errors import ImpossibleCount, NonIntegerWinding, RootOnContour

CUBE_ROOTS_OF_UNITY = poly.Polynomial([-1.0, 0.0, 0.0, 1.0])


def _polygon(vertices, refinement=64.0):
    """The closed polygon through vertices as a set of its edges."""
    v = np.asarray(vertices, dtype=complex)
    return contours.segment_set(np.stack([v, np.roll(v, -1)], axis=1),
                                refinement)


# ---------------------------------------------------------------------------
# contour construction
# ---------------------------------------------------------------------------

def test_circle_samples_are_closed_and_dense():
    c = contours.circle(1 + 1j, 2.0, refinement=64.0)
    assert c.samples[0] == c.samples[-1]
    gaps = np.abs(np.diff(c.samples))
    assert gaps.max() <= 1.0 / 64.0 + 1e-12


def test_polygon_loop_spacing():
    c = _polygon([0, 4.0, 4 + 4j, 4j], refinement=10.0)
    seams = contours._seams(c, 0)
    # each segment's run starts on its first vertex and ends on its second
    assert np.array_equal(c.samples[np.r_[0, seams + 1]], c.segments[:, 0])
    assert np.array_equal(c.samples[np.r_[seams, -1]], c.segments[:, 1])
    steps = np.delete(np.abs(np.diff(c.samples)), seams)
    assert steps.max() <= 0.1 + 1e-12


def test_degenerate_contours_rejected():
    with pytest.raises(ValueError):
        contours.circle(0, 0.0)
    with pytest.raises(ValueError):
        contours.segment_set([(0, 1.0)])
    with pytest.raises(ValueError):
        contours.segment_set([(0, 1.0), (1.0, 1j), (1j, 0.5)])
    with pytest.raises(ValueError):
        contours.segment_set(np.zeros((0, 2)))


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


def test_count_in_square_loop():
    sq = _polygon([-2 - 2j, 2 - 2j, 2 + 2j, -2 + 2j])
    assert contours.count_roots_in(CUBE_ROOTS_OF_UNITY, sq) == 3


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
    # clearance at refinement 64 is 1/32; a root 0.01 away violates it
    p = poly.from_roots([1.99 + 0j, 0.0])
    with pytest.raises(RootOnContour):
        contours.count_roots_in(p, contours.circle(0, 2.0, refinement=64.0))


def test_finer_contour_resolves_near_root():
    p = poly.from_roots([1.99 + 0j, 0.0])
    c = contours.circle(0, 2.0, refinement=256.0)
    assert contours.count_roots_in(p, c) == 2


def test_clockwise_loop_counts_negative():
    # a hole runs clockwise; its negative count is a valid one
    p = poly.from_roots([0.0 + 0j, 3.0])
    cw = _polygon([1 + 1j, 1 - 1j, -1 - 1j, -1 + 1j])
    assert contours.loop_area(cw.segments) < 0
    assert contours.count_roots_in(p, cw) == -1


def test_impossible_counts_raise_on_n500_instance():
    # p' of the harness-seed-1 instance (n=500 in the unit disk, m=2): the
    # coefficient phase inside |z| ~ 1 is rounding noise at degree 501, and
    # the counterclockwise circles of radius 1.25 and 1.5 used to return
    # -4 and -105 where 499 critical points lie inside
    rng = np.random.default_rng(1)
    K = geometry.ConvexDomain.disk(0.0, 1.0)
    inside = harness._sample_inside(K, 500, "uniform", rng)
    outside = harness._sample_outside(K, 2, ("annulus", 1.0, 2.0), rng)
    roots = harness.multiplicity_jitter(np.concatenate([inside, outside]))
    dp = poly.derivative(poly.from_roots(roots))
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
# Rouché dominance
# ---------------------------------------------------------------------------

def _dominates(f, g, c):
    """(|f| > |g| on every sample of c, min of |f| - |g| there)."""
    _, mf = poly.phase_logmag(f.coeffs, c.samples)
    _, mg = poly.phase_logmag(g.coeffs, c.samples)
    margin = regions._min_signed_difference(mf, mg)
    return bool(margin > 0), margin


def test_z_squared_dominates_one_on_radius_two():
    f = poly.Polynomial([0.0, 0.0, 1.0])
    g = poly.Polynomial([1.0])
    ok, margin = _dominates(f, g, contours.circle(0, 2.0))
    assert ok
    assert margin == pytest.approx(3.0, rel=1e-9)


def test_one_does_not_dominate_z_squared():
    f = poly.Polynomial([1.0])
    g = poly.Polynomial([0.0, 0.0, 1.0])
    ok, margin = _dominates(f, g, contours.circle(0, 2.0))
    assert not ok
    assert margin == pytest.approx(-3.0, rel=1e-9)


def test_equal_magnitudes_yield_zero_margin():
    f = poly.Polynomial([0.0, 1.0])
    ok, margin = _dominates(f, f, contours.circle(0, 1.0))
    assert not ok
    assert margin == 0.0


def test_dominance_implies_equal_counts():
    used = 0
    for seed in range(80):
        rng = np.random.default_rng(seed + 1000)
        fr = rng.normal(size=8) + 1j * rng.normal(size=8)
        if np.min(np.abs(np.abs(fr) - 2.5)) < 0.08:
            continue
        f = poly.from_roots(fr)
        g = poly.Polynomial(0.01 * (rng.normal(size=3)
                                    + 1j * rng.normal(size=3)))
        c = contours.circle(0, 2.5)
        ok, _ = _dominates(f, g, c)
        if not ok:
            continue
        used += 1
        csum = f.coeffs.copy()
        csum[:3] += g.coeffs
        assert contours.count_roots_in(poly.Polynomial(csum), c) \
            == contours.count_roots_in(f, c)
    assert used >= 30


def test_margin_survives_high_degree_scales():
    # |f| ~ 2^900 on this contour; the verdict must come out of log space
    rng = np.random.default_rng(9)
    roots = rng.normal(size=300) * 0.3 + 1j * rng.normal(size=300) * 0.3
    f = poly.from_roots(roots)
    g = poly.Polynomial(f.coeffs * 1e-6)   # strictly smaller everywhere
    ok, margin = _dominates(f, g, contours.circle(0, 8.0))
    assert ok
    assert margin > 0
