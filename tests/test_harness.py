"""Experiment harness: configs, samplers, theorem runs, sweeps, suites."""

import json

import numpy as np
import pytest

from rootfield import geometry as geo
from rootfield import harness, poly, regions
from rootfield.errors import ConfigError, GrowBBox
from rootfield.kernels import field_sum, modulus_sum

K = geo.ConvexDomain.disk(0.0, 1.0)
SQUARE = geo.ConvexDomain.polygon([1 + 1j, -1 + 1j, -1 - 1j, 1 - 1j])


def _cfg(**kw):
    base = dict(domain=K, epsilon=0.5, n=8, m=2, seed=3)
    base.update(kw)
    return harness.ExperimentConfig(**base)


# -- configuration -----------------------------------------------------------

def test_config_validation():
    with pytest.raises(ConfigError):
        _cfg(epsilon=0.0)
    with pytest.raises(ConfigError):
        _cfg(n=1)
    with pytest.raises(ConfigError):
        _cfg(m=-1)
    with pytest.raises(ConfigError):
        _cfg(root_sampler="gaussian")
    with pytest.raises(ConfigError):
        _cfg(delta_sweep=(1e-3, 0.0))
    with pytest.raises(ConfigError):
        _cfg(resolution=0.0)


def test_config_json_round_trip_samplers():
    cfg = _cfg(delta_sweep=(1e-3, 1e-2), resolution=150.0)
    again = harness.ExperimentConfig.from_json(
        json.loads(json.dumps(cfg.to_json())))
    assert again == cfg

    explicit = _cfg(n=2, m=1, root_sampler=[-0.5, 0.5],
                    outside_sampler=[3.0 + 1j])
    again = harness.ExperimentConfig.from_json(explicit.to_json())
    assert again.to_json() == explicit.to_json()


def test_config_from_json_rejects_garbage():
    with pytest.raises(ConfigError):
        harness.ExperimentConfig.from_json({"epsilon": 0.5})
    with pytest.raises(ConfigError):
        harness.ExperimentConfig.from_json(
            {"domain": {"kind": "blob"}, "epsilon": 0.5, "n": 4, "m": 0})


def test_explicit_sampler_membership_checked():
    rng = np.random.default_rng(0)
    with pytest.raises(ConfigError):
        harness._sample_inside(K, 2, [0.5, 3.0], rng)
    with pytest.raises(ConfigError):
        harness._sample_inside(K, 3, [0.5, -0.5], rng)
    with pytest.raises(ConfigError):
        harness._sample_outside(K, 1, [0.2], rng)
    with pytest.raises(ConfigError):
        harness._sample_outside(K, 1, ("annulus", 2.0, 1.0), rng)


# -- samplers ----------------------------------------------------------------

def test_uniform_sampler_fills_domain():
    rng = np.random.default_rng(5)
    pts = harness._sample_inside(SQUARE, 300, "uniform", rng)
    assert pts.size == 300
    assert np.all(geo.distance(SQUARE, pts) == 0)
    # deterministic per seed
    again = harness._sample_inside(SQUARE, 300, "uniform",
                                   np.random.default_rng(5))
    assert np.array_equal(pts, again)


def test_boundary_sampler_lands_in_outer_shell():
    rng = np.random.default_rng(6)
    pts = harness._sample_inside(K, 200, "boundary", rng)
    radii = np.abs(pts)
    assert radii.min() >= 0.70 - 1e-12
    assert radii.max() <= 0.98 + 1e-12


def test_annulus_sampler_respects_radii():
    rng = np.random.default_rng(7)
    pts = harness._sample_outside(K, 150, ("annulus", 1.0, 2.0), rng)
    radii = np.abs(pts)          # diameter(K) = 2
    assert np.all(geo.distance(K, pts) > 0)
    assert radii.min() >= 2.0 - 1e-12 and radii.max() <= 4.0 + 1e-12


def test_multiplicity_jitter_separates_duplicates():
    roots = np.array([1.0, 1.0, 1.0, 2.0], dtype=complex)
    out = harness.multiplicity_jitter(roots)
    assert np.unique(out).size == 4
    assert out[0] == 1.0 and out[3] == 2.0          # first copies untouched
    assert np.abs(out - roots).max() <= 2 * harness.MULT_JITTER * 2.0
    # no duplicates: identity
    clean = np.array([0.1, 0.2 + 1j])
    assert np.array_equal(harness.multiplicity_jitter(clean), clean)
    assert harness.multiplicity_jitter([]).size == 0


# -- theorem runs ------------------------------------------------------------

def test_trivial_pair_run():
    cfg = _cfg(n=2, m=0, root_sampler=[-0.5, 0.5], outside_sampler=())
    rep = harness.run_theorem_experiment(cfg)
    assert rep.roots_in_K == 2 and rep.roots_outside == 0
    assert rep.critical.size == 1
    assert rep.critical[0] == pytest.approx(0.0, abs=1e-12)
    assert rep.crit_in_Keps == 1 and rep.crit_elsewhere == 0
    assert rep.verdict is True
    assert rep.errors == ()


def test_count_conservation_with_duplicates():
    cfg = _cfg(n=4, m=2, root_sampler=[0.3, 0.3, 0.3, -0.2],
               outside_sampler=[2.0, 2.0])
    rep = harness.run_theorem_experiment(cfg)
    assert rep.critical.size == cfg.n + cfg.m - 1
    assert rep.roots_in_K == 4 and rep.roots_outside == 2
    assert rep.crit_in_Keps + rep.crit_elsewhere == rep.critical.size


def test_sampled_run_with_delta_sweep():
    cfg = _cfg(delta_sweep=(1e-3, 1e-2), resolution=150.0)
    rep = harness.run_theorem_experiment(cfg)
    assert rep.verdict is True and rep.errors == ()
    assert rep.critical.size == cfg.n + cfg.m - 1
    assert len(rep.deltas) == 2
    for d in rep.deltas:
        assert d.error is None and d.bridged is False and d.witness is None
        assert len(d.components) >= 1
        for c in d.components:
            assert c.count_error is None
            assert c.rouche_margin > 0
            assert c.crit_points_inside == (c.qprime_roots_enclosed
                                            + c.r_roots_enclosed)


def test_run_is_deterministic():
    a = harness.run_theorem_experiment(_cfg())
    b = harness.run_theorem_experiment(_cfg())
    assert np.array_equal(a.critical, b.critical)
    assert np.array_equal(a.inside_roots, b.inside_roots)
    assert a.to_json() == b.to_json()


def test_run_solves_each_critical_point_set_once(monkeypatch):
    # p' and q' are the only Aberth runs on more than 20 points a run
    # makes; the delta stage and every census read the split's solutions
    sizes = []
    real = poly._aberth

    def counting(ratio, x):
        sizes.append(len(x))
        return real(ratio, x)

    monkeypatch.setattr(poly, "_aberth", counting)
    cfg = _cfg(n=30, delta_sweep=(1e-3, 1e-2), resolution=60.0)
    rep = harness.run_theorem_experiment(cfg)
    assert rep.errors == () and len(rep.deltas) == 2
    assert all(d.error is None for d in rep.deltas)
    assert sorted(k for k in sizes if k > 20) == [cfg.n - 1,
                                                  cfg.n + cfg.m - 1]


def _check_critical_points(w, roots):
    """Count, root-sum residual and certificate, and Vieta's sums for p'."""
    big_n = roots.size
    assert w.shape == (big_n - 1,)
    residual = np.abs(field_sum(w, roots))
    assert np.all(residual <= 1e-10 * modulus_sum(w, roots))
    d = np.abs(w[:, None] - roots[None, :])
    majorant = ((np.abs(w)[:, None] + np.abs(roots)) / d ** 2).sum(axis=1)
    assert np.all(residual <= poly.ROOT_TOL * majorant)
    # p' = N z^(N-1) - (N-1) e1 z^(N-2) + (N-2) e2 z^(N-3) - ...
    e1 = roots.sum()
    e2 = (e1 * e1 - (roots * roots).sum()) / 2.0
    s1 = (big_n - 1) / big_n * e1
    s2 = s1 * s1 - 2.0 * (big_n - 2) / big_n * e2
    for k, want in ((1, s1), (2, s2)):
        tol = 1e-8 * max(1.0, float((np.abs(w) ** k).sum()),
                         float((np.abs(roots) ** k).sum()))
        assert abs((w ** k).sum() - want) <= tol


@pytest.mark.parametrize("n, seed", [(500, 4), (500, 6), (1000, 1),
                                     (2000, 1)])
def test_high_degree_critical_points_of_p_and_q(n, seed):
    # harness seeds 4 (p) and 6 (q) at n = 500 defeat an Aberth solve on
    # the coefficients of p'; the root-sum solve must hold up to n = 2000
    cfg = harness.ExperimentConfig(domain=K, epsilon=0.25, n=n, m=2,
                                   seed=seed)
    rep = harness.run_theorem_experiment(cfg)
    assert rep.errors == ()
    roots = np.concatenate([rep.inside_roots, rep.outside_roots])
    _check_critical_points(rep.critical, roots)
    _check_critical_points(
        poly.critical_points(poly.from_roots(rep.inside_roots)),
        rep.inside_roots)


def test_delta_stage_grows_bbox_on_demand():
    cfg = _cfg(delta_sweep=(1e-3,), resolution=120.0)
    seen = []
    real = regions.build_masks

    def fussy(split, deltas, bbox, resolution):
        seen.append(bbox)
        if len(seen) == 1:
            x0, x1, y0, y1 = bbox
            raise GrowBBox(bbox, suggested=(x0 - 1, x1 + 1, y0 - 1, y1 + 1))
        return real(split, deltas, bbox, resolution)

    regions.build_masks = fussy
    try:
        rep = harness.run_theorem_experiment(cfg)
    finally:
        regions.build_masks = real
    assert len(seen) == 2
    assert rep.deltas[0].error is None


def test_delta_stage_records_unrecoverable_growth():
    cfg = _cfg(delta_sweep=(1e-3, 1e-2), resolution=120.0)
    real = regions.build_masks

    def hopeless(split, deltas, bbox, resolution):
        raise GrowBBox(bbox, suggested=bbox)

    regions.build_masks = hopeless
    try:
        rep = harness.run_theorem_experiment(cfg)
    finally:
        regions.build_masks = real
    # partial report: per-delta errors recorded, headline counts intact
    assert rep.verdict is True
    assert all(d.error is not None for d in rep.deltas)
    assert rep.critical.size == cfg.n + cfg.m - 1


def test_report_json_shape():
    cfg = _cfg(delta_sweep=(1e-2,), resolution=120.0)
    obj = harness.run_theorem_experiment(cfg).to_json()
    assert sorted(obj) == ["config", "counts", "critical_points", "deltas",
                           "errors", "roots", "verdict", "version"]
    assert isinstance(obj["verdict"], bool)
    assert obj["counts"]["roots_in_K"] == cfg.n
    assert len(obj["critical_points"]) == cfg.n + cfg.m - 1
    assert obj["deltas"][0]["components"][0]["rouche_margin"] > 0
    # must survive a strict JSON round trip
    assert json.loads(json.dumps(obj)) == obj


# -- escape distance ---------------------------------------------------------

def test_escape_distance_disk_hand_values():
    assert geo.escape_distance(K, 0.5, 0.0) == pytest.approx(1.5)
    assert geo.escape_distance(K, 0.5, 1.2) == pytest.approx(0.3)
    assert geo.escape_distance(K, 0.5, 2.0) == 0.0
    assert geo.escape_distance(K, 0.5, 0.8j) == pytest.approx(0.7)


def test_escape_distance_polygon_hand_values():
    assert geo.escape_distance(SQUARE, 0.5, 0.0) == pytest.approx(1.5)
    assert geo.escape_distance(SQUARE, 0.5, 1.25) == pytest.approx(0.25)
    assert geo.escape_distance(SQUARE, 0.5, 0.5 + 0.5j) \
        == pytest.approx(1.0)
    got = geo.escape_distance(SQUARE, 0.5, np.array([0.0, 1.25, 0.5 + 0.5j,
                                                     2.0, -1.2 - 1.0j]))
    assert got == pytest.approx([1.5, 0.25, 1.0, 0.0, 0.3])


# -- sweeps and suites -------------------------------------------------------

def test_sweep_m_rows_and_csv(tmp_path):
    cfg = _cfg(n=20, m=0, seed=11)
    path = tmp_path / "sweep.csv"
    rows = harness.sweep_m(cfg, [0, 2, 2], path=path)
    assert [tuple(r) for r in rows] == [harness.SWEEP_M_COLUMNS] * 3
    assert rows[0]["m_log_n_over_n"] == 0.0
    assert rows[1]["m_log_n_over_n"] == pytest.approx(2 * np.log(20) / 20)
    # duplicate m values rerun the same seeded instance
    assert rows[1] == rows[2]
    lines = path.read_text().strip().split("\n")
    assert lines[0] == "n,m,m_log_n_over_n,verdict,min_escape_distance"
    assert len(lines) == 4


def test_sweep_escape_distance_zero_once_escaped():
    cfg = _cfg(n=30, m=0, seed=11)
    rows = harness.sweep_m(cfg, [0, 3])
    assert rows[0]["min_escape_distance"] > 0          # m=0: hull inside K
    assert rows[1]["min_escape_distance"] >= 0.0


def test_lemma_suite_clean_and_deterministic():
    suite = harness.run_lemma_suite(trials=25, seed=4, sharp_ms=(10,))
    assert suite.ok and suite.violations == ()
    assert suite.trials == 25 and suite.curve_trials == 5
    assert 0 < suite.worst_bound_fraction < 1
    assert suite.m_one_value == pytest.approx(2.0)
    assert suite.sharp_ratios[0][0] == 10
    assert suite.sharp_ratios[0][1] == pytest.approx(1.1070123896, rel=1e-9)
    again = harness.run_lemma_suite(trials=25, seed=4, sharp_ms=(10,))
    assert again == suite


def test_lemma_suite_rejects_zero_trials():
    with pytest.raises(ConfigError):
        harness.run_lemma_suite(trials=0)
