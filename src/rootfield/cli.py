"""Command-line front end: experiments, certificate suites, figures.

Every subcommand writes its artifacts under --out and accepts only the
flags it reads; all but render read an optional JSON config (--config).
Each reports through exit codes: 0 on success, 1 when a checked
assertion fails (theorem verdict, certificate violation, ceiling
breach), 2 on configuration problems (an unwritable --out too).  As
before, files are overwritten in place, not atomic, not fsynced; none
is cut to zero first: ext4's auto_da_alloc then flushes it, 55-65 ms.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import asdict, replace
from pathlib import Path

from . import __version__, harness, render, search
from .charges import Curve, lemma1_curve_bound, sharp_example
from .errors import BudgetExhausted, ConfigError, RootfieldError
from .harness import read_field, read_int, read_ints, read_points, \
    read_real, read_sharp_ms, write_artifact, write_points
from .search import CEILING_SLACK

EXIT_OK = 0
EXIT_ASSERT = 1
EXIT_CONFIG = 2

_DEFAULT_EXPERIMENT = {
    "domain": {"kind": "disk", "center": [0.0, 0.0], "radius": 1.0},
    "epsilon": 0.5, "n": 100, "m": 2,
    "delta_sweep": [1e-3],
}


def _read_json(path, what: str) -> dict:
    try:
        with open(path) as fh:
            obj = json.load(fh)
    except (OSError, ValueError) as exc:
        raise ConfigError(f"cannot read {what} {path}: {exc}") from exc
    if not isinstance(obj, dict):
        raise ConfigError(f"{what} file must hold a JSON object")
    return obj


def _load_config(args) -> dict:
    return {} if args.config is None else _read_json(args.config, "config")


def _out_dir(args) -> Path:
    out = Path(args.out or ".")
    if any(map(os.path.isfile, (out, *out.parents))):
        raise ConfigError(f"cannot write {out}: a file is in the way")
    return out


def _experiment_config(args, raw: dict) -> harness.ExperimentConfig:
    # from_json reads the keys it knows, so m_values passes unread
    cfg = harness.ExperimentConfig.from_json({**_DEFAULT_EXPERIMENT, **raw})
    if args.seed is not None:
        cfg = replace(cfg, seed=args.seed)
    if args.resolution is not None:
        cfg = replace(cfg, resolution=float(args.resolution))
    return cfg


def _write_json(path: Path, obj) -> None:
    write_artifact(path, json.dumps(obj, indent=1, sort_keys=True) + "\n")


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def _cmd_theorem(args) -> int:
    cfg = _experiment_config(args, _load_config(args))
    out = _out_dir(args)
    rep = harness.run_theorem_experiment(cfg)
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
    m_values = read_field(raw, "m_values", read_ints, (0, 1, 2, 5, 10, 20))
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
    read = {"trials": read_int, "m_range": read_ints, "seed": read_int,
            "curve_trials": lambda v: v if v is None else read_int(v),
            "sharp_ms": read_ints}
    kwargs = {k: read_field(raw, k, f) for k, f in read.items() if k in raw}
    if args.seed is not None:
        kwargs["seed"] = args.seed
    out = _out_dir(args)
    suite = harness.run_lemma_suite(**kwargs)
    _write_json(out / "lemma.json", asdict(suite))
    print(f"{suite.trials} torus + {suite.curve_trials} curve instances, "
          f"{len(suite.violations)} violations -> {out / 'lemma.json'}")
    return EXIT_OK if suite.ok else EXIT_ASSERT


def _cmd_sharp(args) -> int:
    ms = read_field(_load_config(args), "sharp_ms", read_sharp_ms,
                    (10, 50, 100, 500, 1000))
    out = _out_dir(args)
    lines = ["m,t,value,ratio"]
    for m in ms:
        ex = sharp_example(m)
        lines.append(f"{m},{ex.t!r},{ex.value!r},{ex.ratio!r}")
        print(f"m={m:5d}  value={ex.value:.6f}  "
              f"value/(m ln m)={ex.ratio:.6f}")
    write_artifact(out / "sharp.csv", "\n".join(lines) + "\n")
    return EXIT_OK


def _cmd_supercharge(args) -> int:
    raw = _load_config(args)
    curve = read_field(raw, "curve", lambda v: Curve(read_points(v)),
                       Curve([0.0, 1.0]))
    cfg = search.SearchConfig(
        curve=curve, m=read_field(raw, "m", read_int, 3),
        restarts=read_field(raw, "restarts", read_int, 6),
        budget=read_field(raw, "budget", read_int, 12000),
        exclusion_margin=read_field(raw, "exclusion_margin", read_real, 1e-2),
        seed=args.seed if args.seed is not None
        else read_field(raw, "seed", read_int, 0))
    out = _out_dir(args)
    try:
        res = search.optimize_charges(cfg)
    except BudgetExhausted as exc:
        res = exc.result
    ceiling = lemma1_curve_bound(res.best_charges, curve).value
    _write_json(out / "supercharge.json", {
        "m": cfg.m, "achieved": res.achieved, "ceiling": ceiling,
        "charges": write_points(res.best_charges.charges),
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
    rep = harness.TheoremReport.from_json(_read_json(args.report, "report"))
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
