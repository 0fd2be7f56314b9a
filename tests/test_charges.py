"""Charge potentials: pointwise values, curve minima, torus certificates."""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from rootfield import charges as ch
from rootfield.errors import CertificateError, SearchExhausted, \
    SingularCurve
from rootfield.kernels import field_sum, modulus_sum

SEGMENT = ch.Curve([0.0 + 0.0j, 1.0 + 0.0j])


# ---------------------------------------------------------------------------
# pointwise potentials
# ---------------------------------------------------------------------------

def test_field_hand_values():
    assert field_sum(2.0, [0.0]) == 0.5
    assert field_sum(0.0, [1.0, -1.0]) == 0.0
    assert field_sum(0.0, [1j, -1j, 2.0]) == -0.5


def test_modulus_hand_values():
    assert modulus_sum(0.0, [1.0, -1.0]) == 2.0
    assert modulus_sum(0.0, [3.0 + 4.0j]) == pytest.approx(0.2, rel=1e-15)


def test_array_evaluation_matches_scalars():
    C = ch.ChargeSet([0.3 + 0.2j, -1.0, 2.0j])
    zs = np.array([0.0, 1.0 + 1.0j, -3.0j])
    fields = field_sum(zs, C.charges)
    mods = modulus_sum(zs, C.charges)
    for k, z in enumerate(zs):
        assert fields[k] == field_sum(complex(z), C.charges)
        assert mods[k] == modulus_sum(complex(z), C.charges)


@given(st.integers(1, 12), st.integers(0, 2 ** 32 - 1))
@settings(max_examples=80, deadline=None)
def test_modulus_dominates_field(m, seed):
    rng = np.random.default_rng(seed)
    C = ch.ChargeSet(rng.normal(size=m) + 1j * rng.normal(size=m))
    z = complex(rng.normal(), rng.normal())
    if np.abs(z - C.charges).min() < 1e-6:
        return
    assert abs(field_sum(z, C.charges)) <= modulus_sum(z, C.charges) + 1e-12


def test_scaling_covariance():
    C = ch.ChargeSet([1.0 + 2.0j, -0.5j, 4.0])
    z = 0.25 + 0.1j
    # powers of two scale distances exactly in binary floating point
    assert modulus_sum(z * 2.0, C.charges * 2.0) \
        == modulus_sum(z, C.charges) / 2.0
    lam = 3.7
    scaled = modulus_sum(z * lam, C.charges * lam)
    assert scaled == pytest.approx(modulus_sum(z, C.charges) / lam, rel=1e-13)
    f = field_sum(z * lam, C.charges * lam)
    assert f == pytest.approx(field_sum(z, C.charges) / lam, rel=1e-13)


# ---------------------------------------------------------------------------
# types
# ---------------------------------------------------------------------------

def test_charge_set_validation():
    with pytest.raises(ValueError):
        ch.ChargeSet([])
    assert ch.ChargeSet([1.0, 1.0]).m == 2   # duplicates allowed


def test_curve_parameterization_is_arclength():
    c = ch.Curve([0.0, 1.0, 1.0 + 1.0j])
    assert c.length == pytest.approx(2.0)
    assert c.point(0.0) == 0.0
    assert c.point(0.5) == 1.0
    assert c.point(0.25) == 0.5
    assert c.point(0.75) == 1.0 + 0.5j
    assert c.point(1.0) == 1.0 + 1.0j
    pts = c.point(np.array([0.25, 0.75]))
    assert np.allclose(pts, [0.5, 1.0 + 0.5j])


def test_curve_validation():
    with pytest.raises(ValueError):
        ch.Curve([1.0 + 1.0j])
    with pytest.raises(ValueError):
        ch.Curve([2.0, 2.0, 2.0])
    c = ch.Curve([0.0, 0.0, 1.0, 1.0, 1.0 + 1.0j])   # duplicates dropped
    assert c.vertices.size == 3


def test_curve_clearance_hand_values():
    assert SEGMENT.clearance([0.5 + 0.3j]) == pytest.approx(0.3)
    assert SEGMENT.clearance([2.0]) == pytest.approx(1.0)
    assert SEGMENT.clearance([0.5 + 0.3j, -1.0 - 1.0j]) == pytest.approx(0.3)


def test_conjecture_normalization_flag():
    assert SEGMENT.is_conjecture_normalized()
    assert not ch.Curve([0.0, 2.0]).is_conjecture_normalized()


def test_torus_config_wraps():
    cfg = ch.TorusConfig([1.25, -0.25, 0.5])
    assert np.allclose(sorted(cfg.points), [0.25, 0.5, 0.75])


def test_torus_distance_values():
    assert ch.torus_distance(0.9, 0.1) == pytest.approx(0.2)
    assert ch.torus_distance(0.25, 0.75) == 0.5
    assert ch.torus_distance(0.1, 0.9) == ch.torus_distance(0.9, 0.1)
    d = ch.torus_distance(np.array([0.0, 0.4]), 0.9)
    assert np.allclose(d, [0.1, 0.5])


# ---------------------------------------------------------------------------
# curve minima
# ---------------------------------------------------------------------------

def test_single_charge_minimum_at_far_endpoint():
    # |t - i|^2 = t^2 + 1 grows with t, so the potential 1/sqrt(t^2+1)
    # is smallest at t = 1 with value 1/sqrt(2)
    t, v = ch.curve_min(ch.ChargeSet([1j]), SEGMENT, mode="modulus")
    assert t == pytest.approx(1.0)
    assert v == pytest.approx(1.0 / np.sqrt(2.0), rel=1e-9)


def test_symmetric_tie_goes_to_smaller_t():
    t, v = ch.curve_min(ch.ChargeSet([0.5 + 0.5j]), SEGMENT)
    assert t == 0.0
    assert v == pytest.approx(1.0 / np.sqrt(0.5), rel=1e-12)


def test_curve_min_matches_dense_oracle():
    C = ch.ChargeSet([0.5 + 0.5j, 1.0 + 0.5j])
    t, v = ch.curve_min(C, SEGMENT)
    ts = np.linspace(0.0, 1.0, 100_001)
    oracle = (1.0 / np.abs(ts - C.charges[0])
              + 1.0 / np.abs(ts - C.charges[1])).min()
    assert v == pytest.approx(oracle, rel=1e-6)
    assert v <= oracle + 1e-12     # refinement can only go lower


def test_field_mode_below_modulus_mode():
    rng = np.random.default_rng(3)
    C = ch.ChargeSet(rng.normal(size=5) + 1j * (rng.uniform(0.3, 1.0, 5)))
    pts = SEGMENT.point(np.linspace(0, 1, 500))
    f = np.abs(field_sum(pts, C.charges))
    g = modulus_sum(pts, C.charges)
    assert np.all(f <= g + 1e-12)
    _, vf = ch.curve_min(C, SEGMENT, mode="field")
    _, vg = ch.curve_min(C, SEGMENT, mode="modulus")
    assert vf <= vg + 1e-12


def test_charge_on_curve_rejected():
    with pytest.raises(SingularCurve):
        ch.curve_min(ch.ChargeSet([0.25]), SEGMENT)


def test_certificate_fires_on_exact_cancellation():
    # the complex field of a conjugate pair vanishes at t = 0.3; near a
    # true zero no lower bound comes within 1% of a positive value, so
    # the bracket cannot close
    C = ch.ChargeSet([0.3 + 0.5j, 0.3 - 0.5j])
    with pytest.raises(CertificateError):
        ch.curve_min(C, SEGMENT, mode="field")


def _refined_oracle(C, curve, mode, n=200_001):
    """Dense samples, then dense samples again around every local minimum
    of them that comes within 1e-4 of the smallest."""
    def values(ts):
        pts = curve.point(ts)
        if mode == "modulus":
            return np.sum(1.0 / np.abs(pts[:, None] - C.charges), axis=1)
        return np.abs(np.sum(1.0 / (pts[:, None] - C.charges), axis=1))

    ts = np.linspace(0.0, 1.0, n)
    vals = values(ts)
    padded = np.concatenate([[np.inf], vals, [np.inf]])
    local = (vals <= padded[:-2]) & (vals <= padded[2:]) \
        & (vals <= vals.min() * (1.0 + 1e-4))
    best = vals.min()
    for i in np.flatnonzero(local):
        fine = np.linspace(ts[max(i - 1, 0)], ts[min(i + 1, n - 1)], 2001)
        best = min(best, values(fine).min())
    return float(best)


@given(st.integers(1, 12), st.sampled_from(["field", "modulus"]),
       st.integers(0, 2 ** 32 - 1))
@settings(max_examples=40, deadline=None)
# here the bracket's least node lay 1.3e-12 and 1.4e-12 (1.2e-13 and
# 1.3e-13 relative) above the oracle; the polish moves it onto the minimum
@example(11, "modulus", 6922)
@example(12, "modulus", 582058278)
def test_curve_min_brackets_dense_oracle(m, mode, seed):
    rng = np.random.default_rng(seed)
    C = ch.ChargeSet(rng.normal(size=m) + 1j * rng.normal(size=m))
    curve = ch.Curve(np.concatenate([[0.0], rng.normal(size=2)
                                     + 1j * rng.normal(size=2), [1.0]]))
    if curve.clearance(C.charges) < 1e-3:
        return
    t, v = ch.curve_min(C, curve, mode=mode)
    oracle = _refined_oracle(C, curve, mode)
    # value is attained at t, no sample beats it, and the sampled minimum
    # can only lie above the true one, which the bracket keeps within rtol
    pt = curve.point(t)
    at_t = (modulus_sum(pt, C.charges) if mode == "modulus"
            else abs(field_sum(pt, C.charges)))
    assert v == pytest.approx(at_t, rel=1e-14)
    assert v <= oracle + 1e-12
    assert v >= oracle * (1.0 - ch.BRACKET_REL_TOL) - 1e-12


@given(st.integers(0, 6), st.booleans(), st.integers(0, 2 ** 32 - 1))
@settings(max_examples=40, deadline=None)
def test_curve_min_field_bracket_holds_before_the_polish(m, bent, seed):
    # the bracket itself: with `_polish` stubbed out, value is the least
    # node of the closed bracket, so the true minimum lies in
    # [value * (1 - BRACKET_REL_TOL), value]; the dense oracle lies at or
    # above the true minimum, so it cannot lie below that bracket.  A
    # nearly cancelling pair of charges across the curve makes a dip in
    # |F| narrower than the first intervals, between nodes where |F| is
    # large, that only a sound lower bound keeps open; m more charges lie
    # at least 0.5 off the real axis
    rng = np.random.default_rng(seed)
    x0, y = rng.uniform(0.05, 0.95), 10.0 ** rng.uniform(-2.5, -1.0)
    pair = [x0 + 1j * y, x0 - 1j * y * (1.0 + 10.0 ** rng.uniform(-3, -0.5))]
    others = rng.normal(size=m) + 1j * rng.choice([-1.0, 1.0], size=m) \
        * (0.5 + rng.exponential(size=m))
    C = ch.ChargeSet(np.concatenate([pair, others]))
    curve = ch.Curve([0.0, x0 + 0.1j * y * rng.uniform(-1.0, 1.0), 1.0]
                     if bent else [0.0, 1.0])
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ch, "_polish", lambda values, nodes, t, value: (t, value))
        t, v = ch.curve_min(C, curve, mode="field")
    oracle = _refined_oracle(C, curve, "field")
    assert v == pytest.approx(abs(field_sum(curve.point(t), C.charges)),
                              rel=1e-14)
    assert v * (1.0 - ch.BRACKET_REL_TOL) <= oracle * (1.0 + 1e-12)


def test_curve_min_corner_is_a_node():
    # the corner 1 + 2i of 0 -> 1 + 2i -> 3 is the curve point farthest
    # from the charge, at t = 0.4415..., which no even sampling hits; the
    # potential has a kink there, so a sampled minimum misses it linearly
    c = 1.2 - 1.0j
    curve = ch.Curve([0.0, 1.0 + 2.0j, 3.0])
    for mode in ("field", "modulus"):
        t, v = ch.curve_min(ch.ChargeSet([c]), curve, mode=mode)
        assert t == pytest.approx(curve._cum[1] / curve.length, abs=1e-15)
        assert v == pytest.approx(1.0 / abs(1.0 + 2.0j - c), rel=1e-14)


def test_curve_min_budget_exhaustion_and_tolerance(monkeypatch):
    # samples = 40 buys (1 + 4) * 40 = 200 points, 65 of them the first
    # partition, and leaves the bracket open: the value still comes back
    # while the open bracket is within CERT_REL_TOL...
    C = ch.ChargeSet([0.5 + 0.5j, 1.0 + 0.3j, 0.2 - 0.4j])
    samples = 40
    full = ch.curve_min(C, SEGMENT, mode="field")
    got = ch.curve_min(C, SEGMENT, mode="field", samples=samples)
    assert got[1] >= full[1]
    assert got[1] <= full[1] * (1.0 + ch.CERT_REL_TOL)
    # ...and raises once that tolerance is tighter than the bracket
    monkeypatch.setattr(ch, "CERT_REL_TOL", 1e-12)
    with pytest.raises(CertificateError):
        ch.curve_min(C, SEGMENT, mode="field", samples=samples)


def test_curve_min_rejects_unknown_mode():
    with pytest.raises(ValueError):
        ch.curve_min(ch.ChargeSet([1j]), SEGMENT, mode="abs")


# ---------------------------------------------------------------------------
# sharpness example
# ---------------------------------------------------------------------------

def test_sharp_example_m2_frozen():
    s = ch.sharp_example(2)
    assert np.allclose(s.charges.charges, [0.5 + 0.5j, 1.0 + 0.5j])
    assert s.value == pytest.approx(2.308640753, abs=1e-6)
    assert s.t == pytest.approx(0.0, abs=1e-9)


def test_sharp_example_respects_harmonic_floor():
    for m in (2, 10, 47):
        s = ch.sharp_example(m)
        floor = m * np.sum(1.0 / np.arange(1, m + 1)) / (2 * np.sqrt(2))
        assert s.value >= floor
        assert s.ratio == pytest.approx(s.value / (m * np.log(m)))


def test_sharp_example_m10_matches_dense_oracle():
    s = ch.sharp_example(10)
    ts = np.linspace(0.0, 1.0, 400_001)
    vals = np.sum(1.0 / np.abs(ts[:, None] - s.charges.charges), axis=1)
    assert s.value == pytest.approx(float(vals.min()), rel=1e-6)


def test_sharp_example_m1000_frozen():
    # the minimum sits at the node t = 0; these are the bits a dense
    # re-sampled scan gave before the branch and bound replaced it
    s = ch.sharp_example(1000)
    assert s.t == 0.0
    assert s.value == 7103.238240833362


def test_sharp_example_rejects_small_m():
    with pytest.raises(ValueError):
        ch.sharp_example(1)


# ---------------------------------------------------------------------------
# truncated kernel
# ---------------------------------------------------------------------------

def test_kernel_hand_values():
    assert ch.truncated_kernel(1, 0.5) == 2.0
    assert ch.truncated_kernel(1, 0.01) == 20.0
    assert ch.truncated_kernel(1, 0.05) == 20.0      # both branches agree
    assert ch.truncated_kernel(3, 0.9) == pytest.approx(10.0)
    vals = ch.truncated_kernel(2, np.array([0.0, 0.5, 0.999]))
    assert np.allclose(vals, [40.0, 2.0, 40.0])


def test_kernel_integral_bound():
    xs = np.linspace(0.0, 1.0, 2_000_001)[:-1]
    for m in (1, 10, 100):
        integral = float(ch.truncated_kernel(m, xs).mean())
        assert integral <= 2.0 * np.log(20.0 * m) + 1.0


def test_kernel_rejects_bad_m():
    with pytest.raises(ValueError):
        ch.truncated_kernel(0, 0.5)


# ---------------------------------------------------------------------------
# torus search
# ---------------------------------------------------------------------------

def test_torus_single_charge_antipode():
    y, v = ch.torus_low_potential_point(ch.TorusConfig([0.0]))
    assert y == 0.5
    assert v == 2.0


def test_torus_equally_spaced_midpoint():
    cfg = ch.TorusConfig(np.arange(1, 6) / 5.0)
    y, v = ch.torus_low_potential_point(cfg)
    # every midpoint achieves the same value 2/0.1 + 2/0.3 + 1/0.5 = 86/3
    mids = np.array([0.1, 0.3, 0.5, 0.7, 0.9])
    assert np.abs(mids - y).min() < 1e-12
    assert v == pytest.approx(86.0 / 3.0, rel=1e-9)


@given(st.integers(5, 60), st.integers(0, 2 ** 32 - 1))
@settings(max_examples=60, deadline=None)
def test_torus_certificate_randomized(m, seed):
    rng = np.random.default_rng(seed)
    cfg = ch.TorusConfig(rng.uniform(size=m))
    y, v = ch.torus_low_potential_point(cfg)
    assert ch.torus_distance(y, cfg.points).min() >= 1.0 / (10.0 * m)
    assert v <= 20.0 * m * np.log(20.0 * m)
    # for m >= 5 the certified bound implies the 60 m log m form
    assert v <= 60.0 * m * np.log(m)


def test_torus_duplicates_allowed():
    cfg = ch.TorusConfig(np.zeros(50))
    y, v = ch.torus_low_potential_point(cfg)
    assert v == pytest.approx(50.0 / ch.torus_distance(y, 0.0), rel=1e-12)
    assert v <= 20.0 * 50 * np.log(20.0 * 50)


def _dense_torus_scan(T):
    """Every grid point evaluated; the first smallest value wins."""
    m = T.m
    n = ch.GRID_PER_CHARGE * m
    grid = np.arange(n, dtype=float) / n
    d = ch.torus_distance(grid[:, None], T.points[None, :])
    ok = d.min(axis=1) >= 1.0 / (ch.DIST_FLOOR * m)
    vals = np.full(n, np.inf)
    vals[ok] = np.sum(1.0 / d[ok], axis=1)
    i = int(np.argmin(vals))
    return float(grid[i]), float(vals[i])


@given(st.integers(1, 80), st.integers(0, 3), st.integers(0, 2 ** 32 - 1))
@settings(max_examples=80, deadline=None)
def test_torus_pruned_scan_matches_dense_scan(m, dups, seed):
    rng = np.random.default_rng(seed)
    pts = rng.uniform(size=m)
    # duplicated charges and a lattice make exact ties between blocks
    if dups:
        pts = np.concatenate([pts, np.repeat(pts[:1], dups)])
    if seed % 4 == 0:
        pts = np.arange(pts.size) / pts.size
    T = ch.TorusConfig(pts)
    want = _dense_torus_scan(T)
    try:
        got = ch.torus_low_potential_point(T)
    except SearchExhausted:
        assert want[1] > 20.0 * T.m * np.log(20.0 * T.m)
        return
    assert got == want


def test_torus_search_exhausted_via_exclusion(monkeypatch):
    # a floor of 1/(DIST_FLOOR m) = 1 excludes the whole torus, whose
    # distances are at most 1/2
    monkeypatch.setattr(ch, "DIST_FLOOR", 1.0)
    with pytest.raises(SearchExhausted):
        ch.torus_low_potential_point(ch.TorusConfig([0.0]))


# ---------------------------------------------------------------------------
# curve bound via projection
# ---------------------------------------------------------------------------

def test_lemma_bound_single_charge():
    w = ch.lemma1_curve_bound(ch.ChargeSet([0.4 + 0.7j]), SEGMENT)
    assert w.value <= 20.0 * np.log(20.0)
    assert w.normalized_value <= w.torus_value * (1 + 1e-9)


def test_lemma_bound_on_sharp_configuration():
    s = ch.sharp_example(10)
    w = ch.lemma1_curve_bound(s.charges, SEGMENT)
    assert w.value <= 20.0 * 10 * np.log(200.0)
    # the witness potential cannot undercut the global curve minimum
    assert w.value >= s.value - 1e-9
    assert 0.0 <= w.t <= 1.0
    assert w.point == SEGMENT.point(w.t)


def test_lemma_bound_frame_bookkeeping():
    rot = 2.0 * np.exp(0.7j)
    shift = 5.0 - 2.0j
    base_curve = np.array([0.0, 0.3 + 0.4j, 1.0])
    base_charges = np.array([0.2 + 0.1j, 0.8 - 0.2j, 0.5 + 0.05j])
    w = ch.lemma1_curve_bound(ch.ChargeSet(base_charges * rot + shift),
                              ch.Curve(base_curve * rot + shift))
    assert w.value * abs(rot) == pytest.approx(w.normalized_value, rel=1e-12)
    # the normalized frame carries the certificate
    assert w.normalized_value <= w.torus_value * (1 + 1e-9)
    assert w.torus_value <= 20.0 * 3 * np.log(60.0)


def test_lemma_chain_randomized():
    rng = np.random.default_rng(11)
    checked = 0
    while checked < 150:
        m = int(rng.integers(1, 13))
        C = ch.ChargeSet(rng.normal(size=m) + 1j * rng.normal(size=m))
        verts = np.concatenate([[0.0], rng.normal(size=2)
                                + 1j * rng.normal(size=2), [1.0]])
        curve = ch.Curve(verts)
        w = ch.lemma1_curve_bound(C, curve)
        # chain re-verified from raw inputs, not from the witness fields
        two_d = float(np.sum(1.0 / np.abs(w.point - C.charges)))
        one_d = float(np.sum(1.0 / np.abs((w.point - C.charges).real)))
        assert two_d == pytest.approx(w.value, rel=1e-12)
        assert two_d <= one_d * (1 + 1e-9)
        assert w.torus_value <= 20.0 * m * np.log(20.0 * m)
        checked += 1


def test_lemma_bound_on_small_curves_far_from_the_origin():
    # the normalization (z - v0)/s rounds at eps max|v|/|s|, up to 2e-7
    # here; trials 239, 558, 571, 977, 1244, 1665, 1955 and 2308 once
    # failed the projection chain check by 1e-9 to 4e-8 relative
    rng = np.random.default_rng(0)
    for _ in range(3000):
        m = int(rng.integers(1, 13))
        scale = 10 ** rng.uniform(-7, 0)
        v0 = 100 * np.exp(2j * np.pi * rng.uniform())
        rot = np.exp(2j * np.pi * rng.uniform())
        mid = rng.normal(size=1) + 1j * rng.normal(size=1)
        curve = ch.Curve(v0 + scale * rot * np.concatenate([[0], mid, [1]]))
        C = ch.ChargeSet(v0 + scale * rot * (rng.normal(size=m)
                                             + 1j * rng.normal(size=m)))
        w = ch.lemma1_curve_bound(C, curve)
        assert w.torus_value <= 20.0 * m * np.log(20.0 * m)


def test_lemma_rejects_closed_curve():
    loop = ch.Curve([0.0, 1.0, 1.0 + 1.0j, 0.0])
    with pytest.raises(ValueError):
        ch.lemma1_curve_bound(ch.ChargeSet([5.0]), loop)
