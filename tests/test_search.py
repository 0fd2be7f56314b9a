"""Supercharging optimizer: objective, feasibility, certificates, sweeps."""

import numpy as np
import pytest

from rootfield import charges as ch
from rootfield import search
from rootfield.errors import BudgetExhausted, ConfigError

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

def _penalized(C, cfg):
    return search._penalized(C, cfg, 1.0, search._search_points(cfg))


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
