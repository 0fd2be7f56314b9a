"""Argument-principle counting and Rouché dominance.

The membership oracle is the known root list of from_roots polynomials,
and for counts of p' zeros the solved critical points; Rouché margins
(`regions._rouche_margin`, min |q'/q| - |r'/r|) are cross-validated by
counting the zeros of p' = q'r + qr' against those of q' and r.
"""

import numpy as np
import pytest

from rootfield import contours, geometry, harness, poly, regions
from rootfield.errors import ImpossibleCount, NonIntegerWinding, RootOnContour

CUBE_ROOTS_OF_UNITY = poly.Polynomial([-1.0, 0.0, 0.0, 1.0])


# the square |x|, |y| <= 1 as (k, 2) rows of its edges, counterclockwise
_CORNERS = np.array([-1 - 1j, 1 - 1j, 1 + 1j, -1 + 1j])
SQUARE = np.stack([_CORNERS, np.roll(_CORNERS, -1)], axis=1)


def _inside(roots, c):
    """Roots strictly inside the circle c or the square |x|, |y| < 1."""
    a = np.asarray(roots, dtype=complex)
    if isinstance(c, contours.Contour):
        return int(np.count_nonzero(np.abs(a - c.center) < c.radius))
    assert c is SQUARE
    return int(np.count_nonzero(np.maximum(np.abs(a.real), np.abs(a.imag))
                                < 1.0))


def _critical_count(roots, c):
    """Zeros of p' inside c: the roots inside plus the winding of p'/p."""
    return _inside(roots, c) + contours.field_winding(roots, c)


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
            contours.field_winding([0.5], open_set)


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
            c = contours.circle(0.0, 1.2)
            inside = np.abs(crit) < 1.2
            gap = np.abs(np.abs(crit) - 1.2)
        else:
            c = SQUARE
            inside = np.maximum(np.abs(crit.real), np.abs(crit.imag)) < 1.0
            gap = np.abs(np.maximum(np.abs(crit.real), np.abs(crit.imag))
                         - 1.0)
        if gap.min() <= 0.05:
            continue
        assert _critical_count(roots, c) == int(inside.sum())
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
        c = contours.circle(0.0, radius)
        assert int(np.sum(np.abs(crit) < radius)) == 499
        assert _critical_count(roots, c) == 499


def test_critical_count_edge_cases():
    c = contours.circle(0.0, 1.0)
    # p of degree one has p' = 1
    assert _critical_count([0.5], c) == 0
    # a double root of p is a zero of p'
    assert _critical_count([0.2, 0.2, 3.0], c) == 1
    # p' of z(z - 2) vanishes at 1, on the circle
    with pytest.raises(RootOnContour):
        contours.field_winding([0.0, 2.0], contours.circle(0.0, 1.0))
    # a root of p on a segment: F has a pole there
    with pytest.raises(RootOnContour):
        contours.field_winding([1.0, 3.0 + 3j], SQUARE)


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
    c = contours.circle(0.0, 1.2)
    assert _critical_count(roots, c) == int(np.sum(np.abs(crit) < 1.2))


def test_critical_count_without_roots_raises_at_once(monkeypatch):
    # p = 1 has p' = 0: F = 0 certifies no piece, so halving never ends
    calls = []
    monkeypatch.setattr(contours, "field_modulus_nearest",
                        lambda *args: calls.append(args))
    for c in (contours.circle(0.0, 1.0), SQUARE):
        with pytest.raises(RootOnContour):
            contours.field_winding([], c)
    assert calls == []


# ---------------------------------------------------------------------------
# Rouché dominance
# ---------------------------------------------------------------------------

def _margin(inside, outside, c):
    return regions._rouche_margin(poly.RootSplit(inside, outside),
                                  contours._circle_samples(c))


def test_z_squared_dominates_one_on_radius_two():
    # q = z^2, r = 1: |q'/q| = 2/|z| = 1 on |z| = 2
    margin = _margin([0.0, 0.0], [], contours.circle(0, 2.0))
    assert margin == pytest.approx(1.0, rel=1e-12)


def test_z_does_not_dominate_z_squared():
    # q = z, r = z^2: |q'/q| - |r'/r| = 1/2 - 1 on |z| = 2
    margin = _margin([0.0], [0.0, 0.0], contours.circle(0, 2.0))
    assert margin == pytest.approx(-0.5, rel=1e-12)


def test_equal_magnitudes_yield_zero_margin():
    assert _margin([0.0], [0.0], contours.circle(0, 1.0)) == 0.0


def test_dominance_implies_equal_counts():
    # Rouché for p' = q'r + qr': where |q'r| > |qr'| on the contour, p'
    # has as many zeros inside as q'r
    used = 0
    for seed in range(80):
        rng = np.random.default_rng(seed + 1000)
        fr = rng.normal(size=8) + 1j * rng.normal(size=8)
        gr = 3.0 * np.exp(2j * np.pi * rng.uniform(size=2)) \
            * rng.uniform(0.8, 1.6, size=2)
        split = poly.RootSplit(fr, gr)
        roots = np.concatenate([fr, gr])
        crit = poly.critical_points(poly.from_roots(roots))
        c = contours.circle(0, 2.5)
        if np.min(np.abs(np.abs(np.concatenate([roots, crit])) - 2.5)) \
                < 0.08:
            continue
        if not regions._rouche_margin(split,
                                      contours._circle_samples(c)) > 0:
            continue
        used += 1
        q = poly.from_roots(fr)
        want = contours.count_roots_in(poly.derivative(q), c) \
            + contours.count_roots_in(poly.from_roots(gr), c)
        assert _critical_count(roots, c) == want
    assert used >= 30


def test_margin_survives_high_degree_scales():
    # |q| ~ 2^900 on this contour; the margin never forms it
    rng = np.random.default_rng(9)
    roots = rng.normal(size=300) * 0.3 + 1j * rng.normal(size=300) * 0.3
    margin = _margin(roots, [20.0, -20.0j], contours.circle(0, 8.0))
    assert np.isfinite(margin)
    assert margin > 0
