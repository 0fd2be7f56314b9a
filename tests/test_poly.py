"""Construction, coefficient evaluation and critical points.

Coefficients are evaluated here, never solved.  Oracles: closed forms
where they exist (cubic critical points, Vieta sums), numpy's expansion
`np.poly` and companion-matrix roots `np.roots(np.polyder(...))` of the
same roots, otherwise self-consistency between independent code paths
(coefficient Horner vs. root-product evaluation).
"""

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from scipy.optimize import linear_sum_assignment

from rootfield import kernels, poly
from rootfield.errors import CoefficientOverflow, NoConvergence, \
    RootfieldError
from rootfield.kernels import field_sum, modulus_sum

MATCH_TOL_LOW_DEG = 1e-8   # critical points against numpy, degree <= 13
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


def test_from_roots_matches_numpy_expansion():
    # the only check of the expansion beyond degree 3: numpy multiplies in
    # input order, from_roots in ascending |root| order
    rng = np.random.default_rng(23)
    for deg in range(2, 41):
        roots = rng.normal(size=deg) + 1j * rng.normal(size=deg)
        got = poly.from_roots(roots)
        want = np.poly(roots)[::-1]
        assert np.array_equal(got.roots, roots)
        assert np.max(np.abs(got.coeffs - want)) \
            <= 1e-12 * np.max(np.abs(want))


def test_from_roots_raises_a_typed_overflow():
    # 1,600 roots on |z| = 0.98 at half steps: the partial products of
    # neighbouring roots overflow doubles before the full product closes
    ring = 0.98 * np.exp(2j * np.pi * (np.arange(1600) + 0.5) / 1600)
    with pytest.raises(CoefficientOverflow) as info:
        poly.from_roots(ring)
    assert isinstance(info.value, RootfieldError)
    assert isinstance(info.value, ValueError)
    assert info.value.degree == 1600


def test_normalization_drops_high_order_zeros():
    p = poly.Polynomial([2.0, 1.0, 0.0, 0.0])
    assert p.degree == 1
    assert p.coeffs.shape == (2,)


def test_zero_polynomial_and_constant_degree():
    z = poly.Polynomial([0.0])
    assert z.degree == 0 and z.coeffs[0] == 0
    assert poly.Polynomial([5.0]).degree == 0


def test_derivative_of_constant_is_zero():
    d = poly.derivative(poly.Polynomial([4.0]))
    assert d.degree == 0 and d.coeffs[0] == 0


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


def _two_branch_majorant(coeffs, z):
    """log2 sum |c_k| |z|^k by its own Horner branches, the reference."""
    a = np.abs(np.asarray(coeffs, dtype=np.complex128))
    az = np.abs(np.atleast_1d(np.asarray(z, dtype=np.complex128)))
    deg = len(a) - 1
    tau = poly._split_radius(a)
    out = np.empty(az.shape)
    small = az <= tau
    with np.errstate(divide="ignore"):
        out[small] = np.log2(poly._horner(a.astype(np.complex128),
                                          az[small].astype(np.complex128)
                                          ).real)
        g = poly._horner(a[::-1].astype(np.complex128),
                         (1.0 / az[~small]).astype(np.complex128)).real
        out[~small] = deg * np.log2(az[~small]) + np.log2(g)
    return out


def test_majorant_logmag_matches_two_branch_reference():
    # degrees 0-599 with zero coefficients, |z| from 1e-300 to 1e300 on
    # both sides of the split radius: the same bits
    rng = np.random.default_rng(13)
    for _ in range(60):
        deg = int(rng.integers(0, 600))
        c = (rng.normal(size=deg + 1) + 1j * rng.normal(size=deg + 1)) \
            * 10.0 ** rng.uniform(-5, 5, size=deg + 1)
        c[rng.uniform(size=deg + 1) < 0.3] = 0.0
        z = 10.0 ** rng.uniform(-300, 300, size=40) \
            * np.exp(2j * np.pi * rng.uniform(size=40))
        z[:10] = poly._split_radius(c) * rng.uniform(0.9, 1.1, size=10)
        assert np.array_equal(poly.majorant_logmag(c, z),
                              _two_branch_majorant(c, z))


# ---------------------------------------------------------------------------
# critical points
# ---------------------------------------------------------------------------

def _numpy_critical_points(roots):
    """Companion-matrix roots of p' from numpy's expansion of the roots."""
    return np.roots(np.polyder(np.poly(roots)))


def test_critical_points_cubic_closed_form():
    # z^3 - z has critical points at +-1/sqrt(3); the root-sum start
    # sum_{j!=k} 1/(a_k - a_j) is 0 at a_k = 0
    for p in (np.array([0.0, -1.0, 1.0]),
              poly.from_roots([-1.0, 0.0, 1.0])):
        w = poly.critical_points(p)
        assert matched_error(np.array([-1, 1]) / np.sqrt(3), w) < 1e-14


def test_critical_points_degree_one_empty():
    # 1 + 2z, from its root
    assert poly.critical_points(poly.from_roots([-0.5])).size == 0
    assert poly.critical_points(np.array([-0.5])).size == 0


def test_critical_points_need_the_roots():
    # coefficients are never solved: a polynomial without its roots has
    # no critical points to give
    for p in (poly.Polynomial([0.0, -1.0, 0.0, 1.0]),
              poly.Polynomial([1.0, 2.0]),
              poly.derivative(poly.from_roots([1.0, 2.0, 3.0]))):
        with pytest.raises(ValueError, match="roots"):
            poly.critical_points(p)


@given(st.lists(st.complex_numbers(max_magnitude=2.0, allow_nan=False,
                                   allow_infinity=False),
                min_size=1, max_size=12))
@settings(max_examples=60, deadline=None)
def test_vieta_sum_of_found_roots(roots):
    # the critical points are the roots of p', whose sum is
    # -c'_{d-2}/c'_{d-1} = (d - 1)/d * sum of the roots of p
    roots = np.array(roots, dtype=complex)
    if len(roots) > 1:
        sep = np.abs(roots[:, None] - roots[None, :])
        np.fill_diagonal(sep, np.inf)
        assume(sep.min() > 1e-2)   # clustered roots are covered elsewhere
    dp = poly.derivative(poly.from_roots(roots))
    found = poly.critical_points(roots)
    d = dp.degree
    want = -dp.coeffs[d - 1] / dp.coeffs[d] if d else 0.0
    assert abs(found.sum() - want) < 1e-7 * (1 + abs(dp.coeffs[d - 1]))


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
    # numpy's companion-matrix solve of p' is the reference for the
    # root-sum solve
    rng = np.random.default_rng(seed)
    deg = int(rng.integers(3, 14))
    roots = rng.normal(size=deg) + 1j * rng.normal(size=deg)
    sep = np.abs(roots[:, None] - roots[None, :])
    np.fill_diagonal(sep, np.inf)
    assume(sep.min() > 0.1)
    w = poly.critical_points(poly.from_roots(roots))
    assert matched_error(_numpy_critical_points(roots), w) \
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
    w = poly.critical_points(poly.from_roots(roots))
    assert matched_error(_numpy_critical_points(roots), w) < 1e-14


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


def test_critical_points_do_not_depend_on_the_block_size(monkeypatch):
    # every points x sources table of the root-sum solve is a blocked
    # kernels reduction; 7 pairs per block make one row per block
    rng = np.random.default_rng(7)
    roots = rng.normal(size=30) + 1j * rng.normal(size=30)
    for r in (roots, np.concatenate([roots[:20], roots[:3]]),
              [-1.0, 0.0, 1.0, 2j, -2j]):        # pull 0 at the root 0
        want = poly.critical_points(r)
        with monkeypatch.context() as patch:
            patch.setattr(kernels, "_PAIRS", 7)
            got = poly.critical_points(r)
        assert np.array_equal(got.view(np.float64), want.view(np.float64))


def test_aberth_stops_reducing_locked_points(monkeypatch):
    # a certified point is frozen: the Newton ratio is evaluated on ever
    # fewer points, and the last iterations touch only a few of them
    sizes = []
    real = poly.weighted_field

    def counting(z, a, m):
        sizes.append(len(z))
        return real(z, a, m)

    monkeypatch.setattr(poly, "weighted_field", counting)
    rng = np.random.default_rng(2)
    roots = rng.normal(size=300) + 1j * rng.normal(size=300)
    w = poly.critical_points(roots)
    assert len(w) == 299 and sizes[0] == 299
    assert all(b <= a for a, b in zip(sizes, sizes[1:]))
    assert sizes[-1] < 0.1 * 299
    res, scale = np.abs(field_sum(w, roots)), modulus_sum(w, roots)
    assert np.all(res <= 1e-9 * scale)


def test_final_certificate_checks_only_unlocked_points(monkeypatch):
    # a locked point passed the certificate at its frozen value; the last
    # majorant call after the solve checks the rows still active only
    solves, checked = [], []
    real_aberth, real_majorant = poly._aberth, poly.field_majorant

    def aberth(ratio, x, certified):
        solves.append(real_aberth(ratio, x, certified))
        return solves[-1]

    def majorant(z, a, m):
        checked.append(np.array(z))
        return real_majorant(z, a, m)

    monkeypatch.setattr(poly, "_aberth", aberth)
    monkeypatch.setattr(poly, "field_majorant", majorant)
    rng = np.random.default_rng(2)
    roots = rng.normal(size=300) + 1j * rng.normal(size=300)
    w = poly.critical_points(roots)
    x, _, active = solves[0]
    assert len(solves) == 1 and 0 < active.size < 0.1 * x.size
    assert np.array_equal(checked[-1], x[active])
    res, scale = np.abs(field_sum(w, roots)), modulus_sum(w, roots)
    assert np.all(res <= 1e-9 * scale)


def test_separating_duplicates_moves_only_the_given_rows():
    # the rows not given are locked points: a repeat of one moves the
    # other, active copy, and repeats among locked points stay
    x = np.array([1.0, 1.0, 2j, 2j, 3.0, 3.0, np.inf, np.inf])
    rows = np.array([1, 2, 6])
    y = poly._separate_duplicates(x, rows)
    moved = np.flatnonzero(y != x)
    assert list(moved) == [1, 2]
    assert y[1] != y[0] and y[2] != y[3]
    assert np.array_equal(x[[0, 3, 4, 5]], y[[0, 3, 4, 5]])
    every = poly._separate_duplicates(x, np.arange(x.size))
    assert list(np.flatnonzero(every != x)) == [0, 1, 2, 3, 4, 5]


def _ulp_pair(seed):
    # 80 roots in the unit disk, a pair b, b (1 + 3e-16) at |b| = 1.001
    # and 6 roots at radius 1.3
    rng = np.random.default_rng(seed)
    inner = np.sqrt(rng.uniform(size=80)) \
        * np.exp(2j * np.pi * rng.uniform(size=80))
    b = 1.001 * np.exp(2j * np.pi * rng.uniform())
    outer = 1.3 * np.exp(2j * np.pi * rng.uniform(size=6))
    return np.concatenate([inner, [b, b * (1 + 3e-16)], outer])


@pytest.mark.parametrize("seed", range(40))
def test_locking_keeps_ulp_apart_pairs_solvable(seed):
    # a step-only lock freezes points near the pair whose residual the
    # certificate rejects; the lock asks the certificate first.  Seeds 0,
    # 8, 17, 24, 25 and 37 raised NoConvergence until the pair was solved
    # as one double root, which is then a critical point
    roots = _ulp_pair(seed)
    assert np.unique(roots).size == roots.size
    w = poly.critical_points(roots)
    assert len(w) == roots.size - 1
    assert np.all(np.isfinite(w))
    assert np.count_nonzero(np.isin(w, roots[80:82])) == 1


def test_merging_folds_only_roots_a_few_ulps_apart():
    b = 1.001 * np.exp(0.7j)
    for gap, merged in ((0.0, True), (3e-16, True), (8e-16, True),
                        (1e-15, False), (1e-9, False)):
        a, m = poly._merge_close(*np.unique([b, b * (1 + gap), 3.0, -2j],
                                           return_counts=True))
        assert (a.size, m.sum()) == ((3, 4) if merged else (4, 4))
    # no close pair: the very arrays come back, so nothing else moves
    a, m = np.unique(np.array([0.0, 1e-300, 1.0, 1.0 + 1e-15]),
                     return_counts=True)
    assert poly._merge_close(a, m)[0] is a


def test_split_keeps_solved_critical_points_but_not_failures(monkeypatch):
    degrees = []
    real = poly.critical_points

    def flaky(roots):
        degrees.append(len(roots))
        if len(degrees) == 1:
            raise NoConvergence(1.0, 1)
        return real(roots)

    monkeypatch.setattr(poly, "critical_points", flaky)
    split = poly.RootSplit([0.0, 1.0, 2j], [5.0])
    with pytest.raises(NoConvergence):
        split.critical
    assert split.critical is split.critical
    assert degrees == [4, 4]
    # the root array, inside roots first, is built once per split
    assert np.array_equal(split.roots, [0.0, 1.0, 2j, 5.0])
    assert split.roots is split.roots
    assert matched_error(real(poly.from_roots(split.roots)),
                         split.critical) == 0.0


def test_split_rejects_non_finite_roots():
    for inside, outside in (([0.0, np.nan], [5.0]), ([0.0, 1.0], [np.inf]),
                            ([], [5.0])):
        with pytest.raises(ValueError, match="finite"):
            poly.RootSplit(inside, outside)
    assert poly.RootSplit([0.0, 1.0], []).m == 0
