"""Supercharging optimizer: objective, feasibility, certificates, sweeps."""

import numpy as np
import pytest
from scipy import optimize

from rootfield import charges as ch
from rootfield import search
from rootfield.errors import BudgetExhausted, ConfigError
from rootfield.kernels import field_sum

SEGMENT = ch.Curve([0.0 + 0.0j, 1.0 + 0.0j])
CFG1 = search.SearchConfig(SEGMENT, 1, exclusion_margin=0.05, seed=42)


@pytest.fixture(scope="module")
def result_m1():
    return search.optimize_charges(CFG1)


@pytest.fixture(scope="module")
def result_m2():
    return search.optimize_charges(
        search.SearchConfig(SEGMENT, 2, exclusion_margin=0.05, seed=42))


# ---------------------------------------------------------------------------
# objective
# ---------------------------------------------------------------------------

def _penalized(C, cfg, scale_ref=1.0):
    z = C.charges
    return search._Objective(cfg)(np.concatenate([z.real, z.imag]),
                                  scale_ref)


def _penalized_per_call(C, cfg, scale_ref):
    # the objective as computed before its tables were built once per search
    clearance = cfg.curve.clearance(C.charges)
    viol = max(0.0, cfg.exclusion_margin - clearance)
    if clearance < ch.SINGULAR_GUARD:
        return -search.PENALTY_BASE * max(1.0, scale_ref) * (1.0 + viol)
    points = search._search_points(cfg)
    value = float(np.abs(field_sum(points, C.charges)).min())
    if viol > 0.0:
        value -= search.PENALTY_BASE * max(1.0, scale_ref, abs(value)) * viol
    return value


CURVES = (SEGMENT, ch.Curve([0.0, 0.35 + 0.25j, 1.0]),
          ch.Curve([0.0, 0.2 - 0.3j, 0.8 + 0.3j, 1.0]))


def _charges(rng, m, spread=1.0):
    return (rng.uniform(-0.5, 1.5, m)
            + 1j * spread * rng.uniform(-1.0, 1.0, m))


def test_objective_field_is_field_sum_bit_for_bit():
    # m = 1..150 crosses numpy's pairwise-sum edges at 4, 64 and 128
    rng = np.random.default_rng(24)
    for m in range(1, 151):
        cfg = search.SearchConfig(CURVES[m % 3], m, seed=0)
        objective = search._Objective(cfg)
        z = _charges(rng, m)
        want = field_sum(objective.points, z)
        assert objective.field(z).tobytes() == want.tobytes(), m


def test_objective_is_the_per_call_formula():
    # charges on the curve, in the exclusion shell and clear of it, at
    # two penalty scales
    rng = np.random.default_rng(25)
    for trial in range(60):
        m = int(rng.integers(1, 40))
        curve = CURVES[trial % 3]
        cfg = search.SearchConfig(curve, m, exclusion_margin=0.05, seed=0)
        z = _charges(rng, m)
        kind = trial % 3
        if kind == 0:          # one charge on the curve
            z[0] = curve.point(rng.uniform())
        elif kind == 1:        # one charge inside the shell
            z[0] = curve.point(rng.uniform()) + 0.02j
        C = ch.ChargeSet(z)
        for scale_ref in (1.0, 37.5):
            want = _penalized_per_call(C, cfg, scale_ref)
            assert _penalized(C, cfg, scale_ref) == want


def test_objective_single_charge_hand_value():
    # min_t |1/(t - z)| = 1/max_t |t - z|, attained at the far endpoint
    val = _penalized(ch.ChargeSet([0.5 + 0.5j]), CFG1)
    assert val == pytest.approx(np.sqrt(2.0), rel=1e-6)


def test_objective_penalizes_curve_contact():
    val = _penalized(ch.ChargeSet([0.25 + 0.0j]), CFG1)
    assert np.isfinite(val)
    assert val < -999.0


def test_objective_penalizes_shell_violation():
    good = _penalized(ch.ChargeSet([0.5 + 0.06j]), CFG1)
    bad = _penalized(ch.ChargeSet([0.5 + 0.01j]), CFG1)
    assert good > 0.0
    assert bad < 0.0


def test_objective_within_one_percent_of_certificate():
    rng = np.random.default_rng(19)
    for _ in range(5):
        m = int(rng.integers(1, 5))
        z = rng.uniform(-0.2, 1.2, m) + 1j * rng.uniform(0.3, 1.0, m)
        C = ch.ChargeSet(z)
        obj = _penalized(C, search.SearchConfig(
            SEGMENT, m, exclusion_margin=0.05, seed=0))
        _, cert = ch.curve_min(C, SEGMENT, mode="field")
        # the certified minimum is below every sample
        assert cert <= obj + 1e-12
        assert obj <= cert * 1.01 + 1e-12


# ---------------------------------------------------------------------------
# Nelder-Mead against scipy
# ---------------------------------------------------------------------------

def _rosenbrock(x):
    return float(np.sum(100.0 * (x[1:] - x[:-1] ** 2) ** 2
                        + (1.0 - x[:-1]) ** 2))


def _plateau(x):
    # flat near its start: every vertex of a small simplex there ties
    return float(np.floor(8.0 * np.sum((x - 0.3) ** 2)) / 8.0)


def _staircase(x):
    # piecewise constant: vertices tie at several levels, so the order
    # an unstable sort gives ties decides which vertex comes first
    return float(np.floor(20.0 * np.sum(x)))


def _same_as_scipy(fun, x0, maxfev, adaptive):
    x, f, calls = search._nelder_mead(fun, x0, maxfev, adaptive)
    want = optimize.minimize(fun, x0, method="Nelder-Mead",
                             options={"maxfev": maxfev,
                                      "xatol": search._XATOL,
                                      "fatol": search._FATOL,
                                      "adaptive": adaptive})
    assert x.tobytes() == want.x.tobytes()
    assert np.float64(f).tobytes() == np.float64(want.fun).tobytes()
    assert calls == want.nfev
    return calls


@pytest.mark.parametrize("adaptive", [False, True])
def test_nelder_mead_stops_on_tolerances_as_scipy(adaptive):
    x0 = np.array([-1.2, 1.0, 0.5, 0.0])
    calls = _same_as_scipy(_rosenbrock, x0, 20_000, adaptive)
    assert calls < 20_000


@pytest.mark.parametrize("adaptive", [False, True])
def test_nelder_mead_budget_runs_out_as_scipy(adaptive):
    x0 = np.array([0.7, -0.2, 0.0, 1.3, 0.4])
    # inside the first simplex (6 vertices), then at every later step
    for maxfev in range(1, 160):
        assert _same_as_scipy(_rosenbrock, x0, maxfev, adaptive) == maxfev


@pytest.mark.parametrize("adaptive", [False, True])
def test_nelder_mead_shrinks_as_scipy(adaptive):
    # 21 tied vertices: every reflection and contraction ties, so each
    # step shrinks.  The first simplex takes 21 calls, the first step a
    # reflection, a contraction and 20 shrink calls, so a budget of 30
    # runs out inside the first shrink
    x0 = np.full(20, 0.3)
    assert _same_as_scipy(_plateau, x0, 30, adaptive) == 30
    assert _same_as_scipy(_plateau, x0, 20_000, adaptive) < 20_000


@pytest.mark.parametrize("adaptive", [False, True])
def test_nelder_mead_orders_ties_as_scipy(adaptive):
    rng = np.random.default_rng(3)
    for _ in range(12):
        dim = int(rng.integers(2, 12))
        x0 = rng.uniform(-1.0, 1.0, dim)
        for maxfev in (dim + 1, 3 * dim, 100, 1_000):
            _same_as_scipy(_staircase, x0, maxfev, adaptive)


# ---------------------------------------------------------------------------
# optimizer
# ---------------------------------------------------------------------------

def test_single_charge_hugs_the_midpoint(result_m1):
    # brute geometry: best feasible charge sits at 0.5 +- margin*i, where
    # the worst curve point is an endpoint at distance sqrt(1/4 + margin^2)
    oracle = 1.0 / np.sqrt(0.25 + 0.05 ** 2)
    assert result_m1.achieved == pytest.approx(oracle, rel=1e-6)
    z = complex(result_m1.best_charges.charges[0])
    assert z.real == pytest.approx(0.5, abs=1e-4)
    assert abs(z.imag) == pytest.approx(0.05, rel=1e-4)


def test_feasibility_after_projection(result_m1, result_m2):
    for res in (result_m1, result_m2):
        clear = SEGMENT.clearance(res.best_charges.charges)
        assert clear >= 0.05


def test_more_charges_achieve_more(result_m1, result_m2):
    assert result_m2.achieved >= result_m1.achieved


def test_determinism(result_m1):
    again = search.optimize_charges(CFG1)
    assert np.array_equal(again.best_charges.charges,
                          result_m1.best_charges.charges)
    assert again.achieved == result_m1.achieved
    assert again.history == result_m1.history
    assert again.evals_used == result_m1.evals_used


def test_achieved_is_certified(result_m2):
    # the reported value must reproduce under the full-density evaluator
    _, cert = ch.curve_min(result_m2.best_charges, SEGMENT, mode="field")
    assert cert == result_m2.achieved


def test_achieved_below_torus_ceiling(result_m1, result_m2):
    # one charge saturates the ceiling exactly (both sides reduce to
    # 1/|endpoint - z|), so the comparison needs ulp-level slack
    for res in (result_m1, result_m2):
        w = ch.lemma1_curve_bound(res.best_charges, SEGMENT)
        assert res.achieved <= w.value * (1.0 + search.CEILING_SLACK)


def test_project_to_margin_hand_values():
    # L-shaped curve 0 -> 1 -> 1+i, margin 0.1
    curve = ch.Curve([0.0, 1.0, 1.0 + 1.0j])
    reach = 0.1 * (1.0 + search._MARGIN_NUDGE)
    z = np.array([0.5 + 0.0j,      # on the curve: along the segment normal
                  1.05 + 0.5j,     # inside the margin: radially outward
                  0.5 + 0.5j])     # 0.5 from both segments: unchanged
    out = search._project_to_margin(curve, z, 0.1)
    assert out[0] == pytest.approx(0.5 + reach * 1j, abs=1e-15)
    assert out[1] == pytest.approx(1.0 + reach + 0.5j, abs=1e-15)
    assert out[2] == z[2]
    assert curve.clearance(out) >= 0.1


def test_history_tracks_restarts(result_m1):
    assert len(result_m1.history) == CFG1.restarts
    assert max(result_m1.history) <= result_m1.achieved * 1.01


def test_budget_exhaustion_carries_result():
    cfg = search.SearchConfig(SEGMENT, 2, restarts=10, budget=30, seed=1)
    with pytest.raises(BudgetExhausted) as exc:
        search.optimize_charges(cfg)
    res = exc.value.result
    assert res.budget_exhausted
    assert np.isfinite(res.achieved)
    assert len(res.history) < cfg.restarts


def test_config_validation():
    with pytest.raises(ConfigError):
        search.SearchConfig(SEGMENT, 0)
    with pytest.raises(ConfigError):
        search.SearchConfig(SEGMENT, 1, exclusion_margin=0.0)
    with pytest.raises(ConfigError):
        search.SearchConfig(SEGMENT, 1, restarts=0)
    with pytest.raises(ConfigError):
        search.SearchConfig(ch.Curve([0.0, 2.0]), 1)


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------

def test_sweep_rows():
    rows = search.conjecture_sweep(SEGMENT, [1, 2], [0.01, 0.02],
                                   restarts=2, budget=1500, seed=3)
    assert len(rows) == 4
    assert [r["m"] for r in rows] == [1, 1, 2, 2]
    for row in rows:
        assert tuple(row) == ("m", "margin", "achieved", "ratio_linear",
                              "ratio_logcorrected", "evals", "seed")
        assert row["achieved"] > 0.0
        assert row["ratio_linear"] == row["achieved"] / row["m"]
    assert np.isnan(rows[0]["ratio_logcorrected"])
    assert rows[2]["ratio_logcorrected"] == pytest.approx(
        rows[2]["achieved"] / (2 * np.log(2)))


def test_sweep_determinism():
    a = search.conjecture_sweep(SEGMENT, [2], [0.05], restarts=2,
                                budget=1000, seed=9)
    b = search.conjecture_sweep(SEGMENT, [2], [0.05], restarts=2,
                                budget=1000, seed=9)
    assert a == b


def test_sweep_rejects_zero_charges():
    with pytest.raises(ConfigError):
        search.conjecture_sweep(SEGMENT, [0], [0.01])
