"""Root finding and evaluation.

Oracles: closed forms where they exist (quadratic/cubic critical points,
Vieta sums), otherwise self-consistency between independent code paths
(coefficient Horner vs. root-product evaluation, coefficient roots vs.
root-sum critical points).
"""

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from scipy.optimize import linear_sum_assignment

from rootfield import poly
from rootfield.errors import NoConvergence
from rootfield.kernels import field_sum, modulus_sum

MATCH_TOL_LOW_DEG = 1e-8   # round-trip matching error, degree <= 12
LOG2_EVAL_TOL = 1e-9       # agreement of log2 magnitudes across eval branches


def matched_error(expected, found):
    expected = np.asarray(expected)
    found = np.asarray(found)
    assert expected.shape == found.shape
    cost = np.abs(expected[:, None] - found[None, :])
    ri, ci = linear_sum_assignment(cost)
    return float(cost[ri, ci].max())


def complex_grid(lo, hi, n):
    xs = np.linspace(lo, hi, n)
    X, Y = np.meshgrid(xs, xs)
    return (X + 1j * Y).ravel()


# ---------------------------------------------------------------------------
# construction and evaluation
# ---------------------------------------------------------------------------

def test_from_roots_expands_cubic():
    # (z-1)(z+2)(z-3j) = z^3 + (1-3j)z^2 + (-2-3j)z + 6j
    p = poly.from_roots([1.0, -2.0, 3j])
    expected = np.array([6j, -2 - 3j, 1 - 3j, 1.0])
    assert np.allclose(p.coeffs, expected, atol=1e-14)


def test_normalization_drops_high_order_zeros():
    p = poly.Polynomial([2.0, 1.0, 0.0, 0.0])
    assert p.degree == 1
    assert p.coeffs.shape == (2,)


def test_zero_polynomial_and_constant_degree():
    assert poly.Polynomial([0.0]).is_zero
    assert poly.Polynomial([5.0]).degree == 0


def test_derivative_of_constant_is_zero():
    d = poly.derivative(poly.Polynomial([4.0]))
    assert d.is_zero


def test_derivative_coefficients():
    # d/dz (1 + 2z + 3z^2) = 2 + 6z
    d = poly.derivative(poly.Polynomial([1.0, 2.0, 3.0]))
    assert np.allclose(d.coeffs, [2.0, 6.0])


# ---------------------------------------------------------------------------
# overflow-safe high-degree evaluation
# ---------------------------------------------------------------------------

def test_phase_logmag_matches_distance_products():
    # |p(z)| = prod |z - r_i| for monic p, checkable in log space at any
    # degree without overflow
    rng = np.random.default_rng(11)
    roots = rng.normal(size=105) * 0.5 + 1j * rng.normal(size=105) * 0.5
    p = poly.from_roots(roots)
    for z in (3.0 + 2.0j, -7.5 + 0.1j, 0.2 + 0.3j, 40.0 - 5.0j):
        _, logmag = poly.phase_logmag(p.coeffs, np.array([z]))
        ref = np.sum(np.log2(np.abs(z - roots)))
        assert abs(logmag[0] - ref) < 2e-10 * max(1.0, abs(ref))


def test_eval_branches_agree_across_split_radius():
    rng = np.random.default_rng(5)
    roots = rng.normal(size=80) * 0.6 + 1j * rng.normal(size=80) * 0.6
    p = poly.from_roots(roots)
    tau = poly._split_radius(p.coeffs)
    for radius in (tau * 0.999, tau * 1.001):
        z = radius * np.exp(1j * np.linspace(0.0, 2 * np.pi, 7))
        _, logmag = poly.phase_logmag(p.coeffs, z)
        ref = np.log2(np.abs(z[:, None] - roots[None, :])).sum(axis=1)
        assert np.all(np.abs(logmag - ref) < LOG2_EVAL_TOL * np.abs(ref))


def test_newton_ratio_matches_direct_quotient():
    rng = np.random.default_rng(7)
    c = rng.normal(size=12) + 1j * rng.normal(size=12)
    dc = c[1:] * np.arange(1, 12)
    z = rng.normal(size=25) + 1j * rng.normal(size=25)
    n = poly.newton_ratio(c, dc, z)
    ref = np.polyval(c[::-1], z) / np.polyval(dc[::-1], z)
    assert np.allclose(n, ref, rtol=1e-10)


# ---------------------------------------------------------------------------
# root finding
# ---------------------------------------------------------------------------

def test_find_roots_quadratic_exact():
    p = poly.Polynomial([2.0, -3.0, 1.0])  # (z-1)(z-2)
    r = poly.find_roots(p)
    assert np.allclose(sorted(r.real), [1.0, 2.0], atol=1e-14)


def test_find_roots_deflates_origin_roots():
    # z^3 (z - 2): three exact zeros plus one simple root
    p = poly.Polynomial([0.0, 0.0, 0.0, -2.0, 1.0])
    r = poly.find_roots(p)
    assert np.sum(r == 0) == 3
    assert np.min(np.abs(r - 2.0)) < 1e-12


def test_find_roots_degree7_round_trip():
    roots = np.array([0.1 + 0.2j, -0.5, 1.5 - 0.3j, 2j, -1 - 1j,
                      0.7 + 0.7j, 3.0])
    found = poly.find_roots(poly.from_roots(roots))
    assert matched_error(roots, found) < 1e-12


def test_find_roots_is_deterministic():
    rng = np.random.default_rng(19)
    roots = rng.normal(size=30) + 1j * rng.normal(size=30)
    p = poly.from_roots(roots)
    a = poly.find_roots(p)
    b = poly.find_roots(p)
    assert np.array_equal(a, b)


def test_find_roots_high_degree_certificate_holds():
    # 120 clustered roots plus 5 outliers: residuals must sit inside the
    # float64 evaluation noise floor even though forward errors cannot
    rng = np.random.default_rng(0)
    pts = rng.normal(size=600) * 0.4 + 1j * rng.normal(size=600) * 0.4
    inside = pts[np.abs(pts) < 1.0][:120]
    outside = 3.0 * np.exp(2j * np.pi * np.arange(5) / 5)
    p = poly.from_roots(np.concatenate([inside, outside]))
    found = poly.find_roots(p)      # raises NoConvergence on failure
    assert len(found) == 125
    # the far roots are well conditioned and must round-trip tightly
    for w in outside:
        assert np.min(np.abs(found - w)) < 1e-8


@given(st.lists(st.complex_numbers(max_magnitude=2.0, allow_nan=False,
                                   allow_infinity=False),
                min_size=1, max_size=12))
@settings(max_examples=60, deadline=None)
def test_vieta_sum_of_found_roots(roots):
    roots = np.array(roots, dtype=complex)
    if len(roots) > 1:
        sep = np.abs(roots[:, None] - roots[None, :])
        np.fill_diagonal(sep, np.inf)
        assume(sep.min() > 1e-2)   # clustered roots are covered elsewhere
    p = poly.from_roots(roots)
    found = poly.find_roots(p)
    # e1: sum of roots = -c_{d-1}/c_d, robust against root permutation
    d = p.degree
    assert abs(found.sum() - (-p.coeffs[d - 1] / p.coeffs[d])) \
        < 1e-7 * (1 + abs(p.coeffs[d - 1]))


@given(st.integers(min_value=0, max_value=2 ** 31 - 1))
@settings(max_examples=25, deadline=None)
def test_round_trip_random_configurations(seed):
    rng = np.random.default_rng(seed)
    deg = int(rng.integers(2, 13))
    roots = rng.normal(size=deg) + 1j * rng.normal(size=deg)
    found = poly.find_roots(poly.from_roots(roots))
    assert matched_error(roots, found) < MATCH_TOL_LOW_DEG


# ---------------------------------------------------------------------------
# critical points
# ---------------------------------------------------------------------------

def test_critical_points_cubic_closed_form():
    # z^3 - z has critical points at +-1/sqrt(3); from its roots, the
    # root-sum start sum_{j!=k} 1/(a_k - a_j) is 0 at a_k = 0
    for p in (poly.Polynomial([0.0, -1.0, 0.0, 1.0]),
              poly.from_roots([-1.0, 0.0, 1.0])):
        w = poly.critical_points(p)
        assert matched_error(np.array([-1, 1]) / np.sqrt(3), w) < 1e-14


def test_critical_points_degree_one_empty():
    assert poly.critical_points(poly.Polynomial([1.0, 2.0])).size == 0


def test_critical_points_of_repeated_root():
    # (z-2)^4 has a triple critical point at 2: a root of multiplicity k
    # is a critical point k-1 times, exactly
    w = poly.critical_points(poly.from_roots([2.0, 2.0, 2.0, 2.0]))
    assert w.shape == (3,)
    assert np.all(w == 2.0)
    # p' = (z-1)^2 (z+1) (5z+1)
    w = poly.critical_points(poly.from_roots([1.0, 1.0, 1.0, -1.0, -1.0]))
    assert w.shape == (4,)
    assert w[0] == -1.0 and np.all(w[2:] == 1.0)
    assert abs(w[1] + 0.2) < 1e-15


@given(st.integers(min_value=0, max_value=2 ** 31 - 1))
@settings(max_examples=40, deadline=None)
def test_root_sum_critical_points_match_coefficient_solve(seed):
    # the coefficient solve of p' is the reference for the root-sum solve
    rng = np.random.default_rng(seed)
    deg = int(rng.integers(3, 14))
    roots = rng.normal(size=deg) + 1j * rng.normal(size=deg)
    sep = np.abs(roots[:, None] - roots[None, :])
    np.fill_diagonal(sep, np.inf)
    assume(sep.min() > 0.1)
    p = poly.from_roots(roots)
    w = poly.critical_points(p)
    assert matched_error(poly.find_roots(poly.derivative(p)), w) \
        < MATCH_TOL_LOW_DEG


@pytest.mark.parametrize("roots", [
    [1.0, 2.0],
    [0.57 - 0.34j, -2.55 + 0.76j],
    [-1.0, 1.0, -1j, 1.0],
    [1 + 1j, 1.0, 0.0, -1j, 1j],
])
def test_critical_points_of_symmetric_root_sets(roots):
    # unturned, the root-sum start offsets put a start point on a root
    # (the first two inputs) or two start points together (the others)
    p = poly.from_roots(roots)
    w = poly.critical_points(p)
    assert matched_error(poly.find_roots(poly.derivative(p)), w) < 1e-14


def test_critical_points_count_and_hull_containment():
    # Gauss-Lucas: critical points lie in the hull of the roots; with the
    # root list attached they are solved on the summed form
    rng = np.random.default_rng(4)
    roots = rng.normal(size=40) * 0.5 + 1j * rng.normal(size=40) * 0.5
    p = poly.from_roots(roots)
    w = poly.critical_points(p)
    assert len(w) == 39
    hull_r = np.max(np.abs(roots))
    assert np.all(np.abs(w) <= hull_r + 1e-9)
    # every point satisfies the log-derivative residual bound
    res, scale = np.abs(field_sum(w, roots)), modulus_sum(w, roots)
    assert np.all(res <= 1e-9 * scale)


def test_critical_points_polish_beats_coefficients_at_high_degree():
    rng = np.random.default_rng(1)
    pts = rng.normal(size=1500) * 0.4 + 1j * rng.normal(size=1500) * 0.4
    roots = pts[np.abs(pts) < 1.0][:260]
    p = poly.from_roots(roots)
    w = poly.critical_points(p)
    assert len(w) == 259
    res, scale = np.abs(field_sum(w, roots)), modulus_sum(w, roots)
    assert np.all(res <= 1e-9 * scale)


def test_split_keeps_solved_critical_points_but_not_failures(monkeypatch):
    degrees = []
    real = poly.critical_points

    def flaky(p):
        degrees.append(p.degree)
        if len(degrees) == 1:
            raise NoConvergence(1.0, 1)
        return real(p)

    monkeypatch.setattr(poly, "critical_points", flaky)
    split = poly.RootSplit([0.0, 1.0, 2j], [5.0])
    with pytest.raises(NoConvergence):
        split.critical
    assert split.critical is split.critical
    assert split.inside_critical is split.inside_critical
    assert degrees == [4, 4, 3]
    assert matched_error(real(split.product()), split.critical) == 0.0
