"""Command-line front end: experiments, certificate suites, figures.

Every subcommand writes its artifacts under --out and accepts only the
flags it reads; all but render read an optional JSON config (--config).
Each reports through exit codes: 0 on success, 1 when a checked
assertion fails (theorem verdict, certificate violation, ceiling
breach), 2 on configuration problems.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace
from pathlib import Path

from . import __version__, harness, render, search
from .charges import Curve, lemma1_curve_bound, sharp_example
from .errors import BudgetExhausted, ConfigError, RootfieldError
from .search import CEILING_SLACK

EXIT_OK = 0
EXIT_ASSERT = 1
EXIT_CONFIG = 2

_DEFAULT_EXPERIMENT = {
    "domain": {"kind": "disk", "center": [0.0, 0.0], "radius": 1.0},
    "epsilon": 0.5, "n": 100, "m": 2,
    "delta_sweep": [1e-3], "resolution": 200.0, "seed": 0,
}


def _load_config(args) -> dict:
    if args.config is None:
        return {}
    try:
        with open(args.config) as fh:
            obj = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config {args.config}: {exc}") from exc
    if not isinstance(obj, dict):
        raise ConfigError("config file must hold a JSON object")
    return obj


def _out_dir(args) -> Path:
    out = Path(args.out) if args.out else Path(".")
    out.mkdir(parents=True, exist_ok=True)
    return out


def _experiment_config(args, raw: dict) -> harness.ExperimentConfig:
    merged = dict(_DEFAULT_EXPERIMENT)
    merged.update({k: v for k, v in raw.items() if k in (
        "domain", "epsilon", "n", "m", "root_sampler", "outside_sampler",
        "delta_sweep", "resolution", "seed")})
    cfg = harness.ExperimentConfig.from_json(merged)
    if args.seed is not None:
        cfg = replace(cfg, seed=args.seed)
    if args.resolution is not None:
        cfg = replace(cfg, resolution=float(args.resolution))
    return cfg


def _write_json(path: Path, obj) -> None:
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=1, sort_keys=True)
        fh.write("\n")


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def _cmd_theorem(args) -> int:
    cfg = _experiment_config(args, _load_config(args))
    rep = harness.run_theorem_experiment(cfg)
    out = _out_dir(args)
    _write_json(out / "report.json", rep.to_json())
    render.emit_svg(rep, out / "figure.svg")
    for stage, msg in rep.errors:
        print(f"stage {stage} failed: {msg}", file=sys.stderr)
    print(f"verdict={rep.verdict} roots_in_K={rep.roots_in_K} "
          f"crit_in_Keps={rep.crit_in_Keps} "
          f"(need >= {rep.roots_in_K - 1}) -> {out / 'report.json'}")
    return EXIT_OK if rep.verdict else EXIT_ASSERT


def _cmd_sweep_m(args) -> int:
    raw = _load_config(args)
    m_values = raw.get("m_values", [0, 1, 2, 5, 10, 20])
    cfg = _experiment_config(args, raw)
    out = _out_dir(args)
    rows = harness.sweep_m(cfg, m_values, path=out / "sweep.csv",
                           jobs=args.jobs)
    bad = [r for r in rows if r["verdict"] is not True]
    print(f"{len(rows)} rows -> {out / 'sweep.csv'}; "
          f"{len(bad)} without a clean verdict")
    return EXIT_ASSERT if bad else EXIT_OK


def _cmd_lemma(args) -> int:
    raw = _load_config(args)
    suite = harness.run_lemma_suite(
        trials=int(raw.get("trials", 200)),
        m_range=tuple(raw.get("m_range", (5, 200))),
        seed=args.seed if args.seed is not None else int(raw.get("seed", 0)),
        curve_trials=raw.get("curve_trials"),
        sharp_ms=tuple(raw.get("sharp_ms", (10, 100, 1000))))
    out = _out_dir(args)
    _write_json(out / "lemma.json", {
        "trials": suite.trials, "curve_trials": suite.curve_trials,
        "violations": list(suite.violations),
        "sharp_ratios": [list(p) for p in suite.sharp_ratios],
        "worst_bound_fraction": suite.worst_bound_fraction,
        "m_one_value": suite.m_one_value,
    })
    print(f"{suite.trials} torus + {suite.curve_trials} curve instances, "
          f"{len(suite.violations)} violations -> {out / 'lemma.json'}")
    return EXIT_OK if suite.ok else EXIT_ASSERT


def _cmd_sharp(args) -> int:
    raw = _load_config(args)
    ms = raw.get("sharp_ms", [10, 50, 100, 500, 1000])
    out = _out_dir(args)
    lines = ["m,t,value,ratio"]
    for m in ms:
        ex = sharp_example(int(m))
        lines.append(f"{int(m)},{ex.t!r},{ex.value!r},{ex.ratio!r}")
        print(f"m={int(m):5d}  value={ex.value:.6f}  "
              f"value/(m ln m)={ex.ratio:.6f}")
    (out / "sharp.csv").write_text("\n".join(lines) + "\n")
    return EXIT_OK


def _cmd_supercharge(args) -> int:
    raw = _load_config(args)
    curve_pts = raw.get("curve", [[0.0, 0.0], [1.0, 0.0]])
    curve = Curve([complex(x, y) for x, y in curve_pts])
    cfg = search.SearchConfig(
        curve=curve, m=int(raw.get("m", 3)),
        restarts=int(raw.get("restarts", 6)),
        budget=int(raw.get("budget", 12000)),
        exclusion_margin=float(raw.get("exclusion_margin", 1e-2)),
        seed=args.seed if args.seed is not None else int(raw.get("seed", 0)))
    try:
        res = search.optimize_charges(cfg)
    except BudgetExhausted as exc:
        res = exc.result
    ceiling = lemma1_curve_bound(res.best_charges, curve).value
    out = _out_dir(args)
    _write_json(out / "supercharge.json", {
        "m": cfg.m, "achieved": res.achieved, "ceiling": ceiling,
        "charges": [[z.real, z.imag] for z in res.best_charges.charges],
        "history": list(res.history), "evals_used": res.evals_used,
        "budget_exhausted": res.budget_exhausted, "seed": cfg.seed,
    })
    print(f"m={cfg.m} achieved={res.achieved:.6f} ceiling={ceiling:.6f} "
          f"evals={res.evals_used}"
          + (" (budget exhausted)" if res.budget_exhausted else ""))
    if res.achieved > ceiling * (1.0 + CEILING_SLACK):
        print("achieved value exceeds the certificate ceiling",
              file=sys.stderr)
        return EXIT_ASSERT
    return EXIT_OK


def _cmd_render(args) -> int:
    try:
        with open(args.report) as fh:
            rep = harness.TheoremReport.from_json(json.load(fh))
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read report {args.report}: {exc}") from exc
    out = _out_dir(args)
    target = out / (Path(args.report).stem + ".svg")
    render.emit_svg(rep, target)
    print(f"wrote {target}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

_FLAGS = {
    "config": dict(metavar="PATH", help="JSON config file"),
    "seed": dict(type=int, help="override the config seed"),
    "out": dict(metavar="DIR", help="output directory (default: current)"),
    "jobs": dict(type=int, default=1,
                 help="parallel worker processes for row sweeps"),
    "resolution": dict(type=int, help="override grid cells per unit length"),
}

# (name, handler, flags it reads, help)
_COMMANDS = (
    ("theorem", _cmd_theorem, ("config", "seed", "out", "resolution"),
     "run one experiment; write report.json + figure.svg"),
    ("sweep-m", _cmd_sweep_m, ("config", "seed", "out", "jobs", "resolution"),
     "run the experiment across m values; write sweep.csv"),
    ("lemma", _cmd_lemma, ("config", "seed", "out"),
     "random certificate suite; write lemma.json"),
    ("sharp", _cmd_sharp, ("config", "out"),
     "lattice-charge growth table; write sharp.csv"),
    ("supercharge", _cmd_supercharge, ("config", "seed", "out"),
     "maximize the min field modulus; write supercharge.json"),
    ("render", _cmd_render, ("out",), "redraw a saved report.json as SVG"),
)


def build_parser() -> argparse.ArgumentParser:
    """Each subcommand accepts only the flags it reads."""
    parser = argparse.ArgumentParser(
        prog="rootfield",
        description="critical points, dominance regions, and curve "
                    "potential certificates")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, func, flags, help_text in _COMMANDS:
        p = sub.add_parser(name, help=help_text)
        for flag in flags:
            p.add_argument("--" + flag, **_FLAGS[flag])
        p.set_defaults(func=func)
    sub.choices["render"].add_argument("report", metavar="REPORT_JSON")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except AssertionError as exc:
        print(f"assertion failed: {exc}", file=sys.stderr)
        return EXIT_ASSERT
    except RootfieldError as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_ASSERT


if __name__ == "__main__":
    sys.exit(main())
