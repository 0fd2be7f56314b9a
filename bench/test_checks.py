"""Each output check passes a right answer and rejects a wrong one.

Run with:  python3 -m pytest bench/test_checks.py -q
"""

import copy
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import checks  # noqa: E402
import workloads  # noqa: E402
from rootfield import charges, cli, poly, regions  # noqa: E402

ROOTS = np.array([0.3 + 0.1j, -0.4 + 0.2j, 0.1 - 0.5j, -0.2 - 0.3j,
                  0.5 + 0.4j, 1.6 - 0.2j])


def _crit():
    return np.roots(np.polyder(np.poly(ROOTS)))


def test_critical_points_accepts_the_roots_of_p_prime():
    assert checks.critical_points(_crit(), ROOTS) == []
    assert checks.critical_points_match(_crit(), ROOTS) == []


def test_critical_points_rejects_a_dropped_point():
    assert checks.critical_points(_crit()[1:], ROOTS)
    assert checks.critical_points_match(_crit()[1:], ROOTS)


def test_critical_points_rejects_a_duplicated_point():
    w = _crit()
    w[0] = w[1]
    assert checks.critical_points(w, ROOTS)
    assert checks.critical_points_match(w, ROOTS)


def test_critical_points_rejects_a_point_off_by_1e_6():
    w = _crit()
    w[2] += 1e-6
    assert checks.critical_points(w, ROOTS)


def _report():
    crit = _crit()
    inside, outside = ROOTS[:5], ROOTS[5:]
    crit_in = int((np.abs(crit) - 1.0 <= 0.25).sum())
    return {
        "roots": {"inside": [[z.real, z.imag] for z in inside],
                  "outside": [[z.real, z.imag] for z in outside]},
        "critical_points": [[z.real, z.imag] for z in crit],
        "counts": {"roots_in_K": 5, "roots_outside": 1,
                   "crit_in_Keps": crit_in,
                   "crit_elsewhere": crit.size - crit_in},
        "verdict": crit_in >= 4, "errors": [], "deltas": [],
    }


def test_theorem_counts_accept_a_right_report():
    assert checks.theorem_counts(_report(), 0.25) == []


@pytest.mark.parametrize("key", ["crit_in_Keps", "roots_in_K"])
def test_theorem_counts_reject_a_count_off_by_one(key):
    rep = _report()
    rep["counts"][key] += 1
    assert checks.theorem_counts(rep, 0.25)


def test_theorem_counts_reject_a_flipped_verdict():
    rep = _report()
    rep["verdict"] = not rep["verdict"]
    assert checks.theorem_counts(rep, 0.25)


def test_count_inside_rejects_a_count_off_by_one():
    w = _crit()
    inside = int((np.abs(w) < 0.7).sum())
    assert checks.count_inside(w, 0.7, inside) == []
    assert checks.count_inside(w, 0.7, inside + 1)
    assert checks.count_inside(w, 0.7, inside - 1)


def _mask(delta=1e-2):
    split = poly.RootSplit(ROOTS[:5], ROOTS[5:])
    return split, regions.build_mask(split, delta, (-2.0, 3.0, -2.0, 2.0),
                                     20.0)


def test_mask_signs_accept_the_program_mask():
    split, mask = _mask()
    assert (mask.labels >= 0).sum() > 10
    assert checks.mask_signs(split.inside, split.outside, mask.delta,
                             mask.bbox, mask.resolution, mask.labels,
                             np.random.default_rng(0)) == []


def test_mask_signs_reject_a_flipped_cell():
    split, mask = _mask()
    labeled = np.argwhere(mask.labels >= 0)
    # an interior cell of the set: every 4-neighbour is labeled too
    for i, j in labeled:
        if all(mask.labels[i + di, j + dj] >= 0
               for di, dj in ((1, 0), (-1, 0), (0, 1), (0, -1))):
            break
    labels = mask.labels.copy()
    labels[i, j] = -1
    assert checks.mask_signs(split.inside, split.outside, mask.delta,
                             mask.bbox, mask.resolution, labels,
                             np.random.default_rng(0))
    labels = mask.labels.copy()
    out_cell = np.argwhere(labels < 0)[0]
    labels[tuple(out_cell)] = 0
    assert checks.mask_signs(split.inside, split.outside, mask.delta,
                             mask.bbox, mask.resolution, labels,
                             np.random.default_rng(0))


def _component(**kw):
    base = {"component": 0, "rouche_margin": 0.5, "count_error": None,
            "crit_points_inside": 3, "qprime_roots_enclosed": 2,
            "r_roots_enclosed": 1}
    base.update(kw)
    return base


def test_census_rejects_a_count_off_by_one():
    assert checks.census([_component()], 5) == []
    assert checks.census([_component(crit_points_inside=4)], 5)
    assert checks.census([_component(count_error="RootOnContour")], 5)
    # a component without a positive margin certifies nothing
    assert checks.census([_component(rouche_margin=-1.0,
                                     crit_points_inside=4)], 5) == []


@pytest.fixture(scope="module")
def cli_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("cli")
    cfg = out / "config.json"
    cfg.write_text('{"domain": {"kind": "disk", "center": [0, 0], '
                   '"radius": 1}, "epsilon": 0.5, "n": 6, "m": 1, '
                   '"delta_sweep": [0.01], "resolution": 40, "seed": 3}')
    assert cli.main(["theorem", "--config", str(cfg), "--out",
                     str(out)]) == 0
    schema = checks.load_json(HERE.parent / "src" / "rootfield" / "schemas"
                              / "theorem_report.schema.json")
    return out, checks.load_json(out / "report.json"), schema


def test_report_schema(cli_run):
    _, rep, schema = cli_run
    assert checks.report_schema(rep, schema) == []
    bad = copy.deepcopy(rep)
    del bad["verdict"]
    assert checks.report_schema(bad, schema)


def test_svg_cells(cli_run, tmp_path):
    out, rep, _ = cli_run
    inside = checks.points(rep["roots"]["inside"])
    outside = checks.points(rep["roots"]["outside"])
    text = (out / "figure.svg").read_text()
    assert '<g shape-rendering="crispEdges">\n<rect' in text
    assert checks.svg_cells(out / "figure.svg", inside, outside, 0.01, 40.0,
                            0j, 1.0) == []
    # fill one more cell, at the grid's lower-left corner, far from the set
    head, tail = text.split('<g shape-rendering="crispEdges">\n')
    height = float(text.split('height="')[1].split('"')[0])
    # K is the unit disk, so its circle's radius is the pixel scale
    scale = float(text.split('fill="#e4eef8"')[0].rsplit('r="', 1)[1]
                  .split('"')[0])
    side = scale / 40.0
    extra = (f'<rect x="20.000000" y="{height - 20.0 - side:.6f}" '
             f'width="{side:.6f}" height="{side:.6f}" fill="#a6cee3"/>\n')
    bad = tmp_path / "bad.svg"
    bad.write_text(head + '<g shape-rendering="crispEdges">\n' + extra + tail)
    assert checks.svg_cells(bad, inside, outside, 0.01, 40.0, 0j, 1.0)
    broken = tmp_path / "broken.svg"
    broken.write_text(text[:-20])
    assert checks.svg_cells(broken, inside, outside, 0.01, 40.0, 0j, 1.0)


def test_torus_point_rejects_a_point_inside_the_floor():
    pts = np.random.default_rng(1).uniform(size=30)
    y, value = charges.torus_low_potential_point(charges.TorusConfig(pts))
    assert checks.torus_point(pts, y, value) == []
    near = float(pts[0] + 0.5 / (10.0 * pts.size))
    d = np.minimum(np.mod(near - pts, 1.0), np.mod(pts - near, 1.0))
    assert checks.torus_point(pts, near, float(np.sum(1.0 / d)))
    assert checks.torus_point(pts, y, value * 1.001)


def test_lemma_witness_rejects_a_wrong_point():
    z = np.array([0.3 + 0.4j, 0.7 - 0.2j, -0.1 + 0.1j])
    v = np.array([0.0, 0.4 + 0.5j, 1.0])
    w = charges.lemma1_curve_bound(charges.ChargeSet(z), charges.Curve(v))
    args = (w.point, w.value, w.normalized_value, w.torus_value,
            w.torus_point)
    assert checks.lemma_witness(z, v, *args) == []
    assert checks.lemma_witness(z, v, w.point + 0.01, *args[1:])
    assert checks.lemma_witness(z, v, w.point, w.value * 1.01, *args[2:])


def test_curve_minimum_rejects_a_value_off_by_two_percent():
    ex = charges.sharp_example(10)
    z = ex.charges.charges
    assert checks.curve_minimum(z, [0.0, 1.0], "modulus", ex.value,
                                40_000) == []
    assert checks.curve_minimum(z, [0.0, 1.0], "modulus", ex.value * 1.02,
                                40_000)
    field = np.abs((1.0 / (np.linspace(0, 1, 40_000)[:, None] - z)).sum(1))
    assert checks.curve_minimum(z, [0.0, 1.0], "field", field.min(),
                                40_000) == []
    assert checks.curve_minimum(z, [0.0, 1.0], "field", field.min() * 0.97,
                                40_000)


def test_supercharge_rejects_a_value_above_the_ceiling():
    z = np.array([0.5 + 0.1j, 0.2 - 0.3j])
    v = np.array([0.0, 1.0])
    assert checks.supercharge(z, v, 0.05, 3.0, 4.0) == []
    assert checks.supercharge(z, v, 0.05, 4.1, 4.0)
    assert checks.supercharge(z, v, 0.2, 3.0, 4.0)       # margin broken


def test_workload_names_match_benchmark_json():
    import json
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(
        workloads.WORKLOADS)
