"""Command-line behavior: artifacts, exit codes, schema stability."""

import json
from dataclasses import replace
from importlib import resources

import jsonschema
import pytest

from rootfield import cli, harness

EXPERIMENT = {
    "domain": {"kind": "disk", "center": [0.0, 0.0], "radius": 1.0},
    "epsilon": 0.5, "n": 6, "m": 1,
    "delta_sweep": [1e-2], "resolution": 120.0, "seed": 3,
}


def _schema():
    ref = resources.files("rootfield") / "schemas/theorem_report.schema.json"
    return json.loads(ref.read_text())


def _write(tmp_path, obj, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(obj))
    return str(path)


def test_theorem_writes_report_and_figure(tmp_path, capsys):
    cfg = _write(tmp_path, EXPERIMENT)
    out = tmp_path / "run"
    assert cli.main(["theorem", "--config", cfg, "--out", str(out)]) == 0
    assert "verdict=True" in capsys.readouterr().out
    report = json.loads((out / "report.json").read_text())
    assert report["counts"]["crit_in_Keps"] >= report["counts"]["roots_in_K"] - 1
    assert (out / "figure.svg").read_text().startswith("<?xml")
    jsonschema.validate(report, _schema())


def test_report_schema_validates_witness_and_errors(tmp_path):
    # bridged instance: witness array present in the delta entry
    cfg = _write(tmp_path, dict(EXPERIMENT, n=2, m=1,
                                root_sampler=[[-0.5, 0.0], [0.5, 0.0]],
                                outside_sampler=[[1.05, 0.0]],
                                resolution=100.0))
    out = tmp_path / "run"
    assert cli.main(["theorem", "--config", cfg, "--out", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["deltas"][0]["bridged"] is True
    assert len(report["deltas"][0]["witness"]) > 1
    jsonschema.validate(report, _schema())


def test_theorem_seed_flag_overrides_config(tmp_path):
    cfg = _write(tmp_path, EXPERIMENT)
    out1, out2, out3 = (tmp_path / d for d in ("a", "b", "c"))
    cli.main(["theorem", "--config", cfg, "--out", str(out1), "--seed", "7"])
    cli.main(["theorem", "--config", cfg, "--out", str(out2), "--seed", "7"])
    cli.main(["theorem", "--config", cfg, "--out", str(out3)])
    a = (out1 / "report.json").read_bytes()
    assert a == (out2 / "report.json").read_bytes()
    assert a != (out3 / "report.json").read_bytes()
    assert json.loads(a)["config"]["seed"] == 7


def test_theorem_exit_one_on_failed_verdict(tmp_path):
    cfg = _write(tmp_path, EXPERIMENT)
    real = harness.run_theorem_experiment
    cli.harness.run_theorem_experiment = \
        lambda c: replace(real(c), verdict=False)
    try:
        code = cli.main(["theorem", "--config", cfg,
                         "--out", str(tmp_path / "r")])
    finally:
        cli.harness.run_theorem_experiment = real
    assert code == 1


def test_render_round_trips_report(tmp_path):
    cfg = _write(tmp_path, EXPERIMENT)
    out = tmp_path / "run"
    cli.main(["theorem", "--config", cfg, "--out", str(out)])
    out2 = tmp_path / "redraw"
    assert cli.main(["render", str(out / "report.json"),
                     "--out", str(out2)]) == 0
    # figure redrawn from JSON alone matches the original byte for byte
    assert (out2 / "report.svg").read_bytes() \
        == (out / "figure.svg").read_bytes()


def test_sweep_m_csv(tmp_path, capsys):
    cfg = _write(tmp_path, dict(EXPERIMENT, n=12, delta_sweep=[],
                                m_values=[0, 2]))
    out = tmp_path / "sweep"
    assert cli.main(["sweep-m", "--config", cfg, "--out", str(out)]) == 0
    lines = (out / "sweep.csv").read_text().strip().split("\n")
    assert lines[0] == "n,m,m_log_n_over_n,verdict,min_escape_distance"
    assert len(lines) == 3
    assert "2 rows" in capsys.readouterr().out


def test_sweep_m_parallel_matches_serial(tmp_path):
    cfg = _write(tmp_path, dict(EXPERIMENT, n=10, delta_sweep=[],
                                m_values=[0, 1, 3]))
    out1, out2 = tmp_path / "serial", tmp_path / "par"
    cli.main(["sweep-m", "--config", cfg, "--out", str(out1)])
    cli.main(["sweep-m", "--config", cfg, "--out", str(out2), "--jobs", "2"])
    assert (out1 / "sweep.csv").read_bytes() == (out2 / "sweep.csv").read_bytes()


def test_lemma_suite_artifact(tmp_path):
    cfg = _write(tmp_path, {"trials": 10, "sharp_ms": [10]})
    out = tmp_path / "lemma"
    assert cli.main(["lemma", "--config", cfg, "--out", str(out)]) == 0
    obj = json.loads((out / "lemma.json").read_text())
    assert obj["violations"] == []
    assert obj["trials"] == 10


def test_sharp_table(tmp_path, capsys):
    cfg = _write(tmp_path, {"sharp_ms": [10, 50]})
    out = tmp_path / "sharp"
    assert cli.main(["sharp", "--config", cfg, "--out", str(out)]) == 0
    lines = (out / "sharp.csv").read_text().strip().split("\n")
    assert lines[0] == "m,t,value,ratio"
    assert len(lines) == 3
    for line in lines[1:]:
        cells = line.split(",")
        assert len(cells) == 4
        for cell in cells:
            float(cell)     # a numpy scalar repr like np.float64(...) fails
    assert "value/(m ln m)" in capsys.readouterr().out


def test_supercharge_artifact(tmp_path):
    cfg = _write(tmp_path, {"m": 1, "restarts": 2, "budget": 2000,
                            "exclusion_margin": 0.05, "seed": 42})
    out = tmp_path / "sc"
    assert cli.main(["supercharge", "--config", cfg,
                     "--out", str(out)]) == 0
    obj = json.loads((out / "supercharge.json").read_text())
    assert obj["achieved"] <= obj["ceiling"] * (1 + 1e-9)
    assert len(obj["charges"]) == 1
    assert obj["budget_exhausted"] is False


def test_config_error_exit_codes(tmp_path):
    assert cli.main(["theorem", "--config",
                     str(tmp_path / "missing.json")]) == 2
    bad = _write(tmp_path, dict(EXPERIMENT, epsilon=-1.0), "bad.json")
    assert cli.main(["theorem", "--config", bad,
                     "--out", str(tmp_path)]) == 2
    notjson = tmp_path / "notjson.txt"
    notjson.write_text("{nope")
    assert cli.main(["render", str(notjson), "--out", str(tmp_path)]) == 2
    garbage = _write(tmp_path, {"verdict": True}, "garbage.json")
    assert cli.main(["render", garbage, "--out", str(tmp_path)]) == 2


@pytest.mark.parametrize("command, config", [
    ("supercharge", {"m": "x"}),
    ("supercharge", {"restarts": "x"}),
    ("supercharge", {"curve": [[0, 0]]}),
    ("lemma", {"m_range": 5}),
    ("lemma", {"m_range": [5, 4]}),
    ("lemma", {"m_range": [0, 0]}),
    ("lemma", {"curve_trials": "3"}),
    ("lemma", {"sharp_ms": [1]}),
    ("sharp", {"sharp_ms": ["a"]}),
    ("sharp", {"sharp_ms": [1]}),
    ("sweep-m", {"m_values": [1, "b"]}),
    ("theorem", {"n": 3.7}),
    ("theorem", {"m": "1"}),
    ("theorem", {"seed": True}),
    ("theorem", {"epsilon": float("inf")}),
    ("theorem", {"delta_sweep": [float("inf")]}),
    ("theorem", {"resolution": float("inf")}),
    ("theorem", {"outside_sampler": {"annulus": [2, float("inf")]}}),
    ("theorem", {"domain": {"kind": "disk", "center": [0, 0], "radius": "1"}}),
    ("theorem", {"domain": {"kind": "disk", "center": [0, 0], "radius": -1}}),
    ("theorem", {"domain": {"kind": "polygon", "vertices": [[0, 0], [1, 0]]}}),
    ("supercharge", {"exclusion_margin": float("inf")}),
    ("supercharge", {"exclusion_margin": "0.02"}),
    ("render", {"verdict": "false"}),
    ("render", {"counts": {"roots_in_K": 6, "roots_outside": 1,
                           "crit_in_Keps": 4.9, "crit_elsewhere": 1}}),
    ("render", {"deltas": [{"delta": 1e-2, "components": [{
        "component": 0, "touches_K": "yes", "escapes_Keps": False,
        "r_roots_inside": 0, "crit_points_inside": 4.9,
        "rouche_margin": 0.5, "qprime_roots_enclosed": 4,
        "r_roots_enclosed": 0, "absorbed": "ab", "count_error": None}],
        "bridged": False, "witness": None, "error": None}]}),
    # sizes numpy refuses before it allocates a sample
    ("theorem", {"n": 10 ** 400}),
    ("theorem", {"m": 2 ** 62}),
])
def test_malformed_config_values_exit_two(tmp_path, capsys, command, config):
    # each is rejected before its run starts, with no traceback; render
    # reads a report of EXPERIMENT with the given values in place of its own
    if command in ("sweep-m", "theorem"):
        config = dict(EXPERIMENT, **config)
    if command == "render":
        report = harness.run_theorem_experiment(
            harness.ExperimentConfig.from_json(EXPERIMENT))
        config = dict(report.to_json(), **config)
    cfg = _write(tmp_path, config)
    out = tmp_path / "run"
    source = [cfg] if command == "render" else ["--config", cfg]
    assert cli.main([command, *source, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:")
    assert "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("sampler", ["root_sampler", "outside_sampler"])
def test_non_finite_explicit_roots_are_a_config_error(tmp_path, capsys,
                                                      sampler):
    roots = {"root_sampler": [[0.5, 0.0], [-0.5, 0.0]],
             "outside_sampler": [[3.0, 0.0]]}
    roots[sampler][0] = [float("nan"), 0.0]
    cfg = _write(tmp_path, dict(EXPERIMENT, n=2, m=1, **roots))
    assert cli.main(["theorem", "--config", cfg,
                     "--out", str(tmp_path / "run")]) == 2
    assert "not finite" in capsys.readouterr().err


def test_each_subcommand_accepts_only_the_flags_it_reads(capsys):
    reads = {"theorem": {"config", "seed", "out", "resolution"},
             "sweep-m": {"config", "seed", "out", "jobs", "resolution"},
             "lemma": {"config", "seed", "out"},
             "sharp": {"config", "out"},
             "supercharge": {"config", "seed", "out"},
             "render": {"out"}}
    parser = cli.build_parser()
    for command, flags in reads.items():
        extra = ["report.json"] if command == "render" else []
        for flag in ("config", "seed", "out", "jobs", "resolution"):
            argv = [command, f"--{flag}", "3", *extra]
            if flag in flags:
                assert getattr(parser.parse_args(argv), flag) is not None
            else:
                with pytest.raises(SystemExit) as exc:
                    parser.parse_args(argv)
                assert exc.value.code == 2
                assert f"unrecognized arguments: --{flag}" \
                    in capsys.readouterr().err
