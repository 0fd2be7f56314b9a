"""The four benchmark workloads.

Each workload builds its whole batch of inputs when it is constructed,
from the run's seed except where noted below, then replays that batch in
every round.  A round returns how many operations it attempted, how many
failed, and the problems the output checks found.  rootfield is imported
by the caller, which fixes where it comes from.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
from dataclasses import asdict
from pathlib import Path

import numpy as np

import checks

# theorem-n500 runs one fixed instance, harness seed 1, whatever the run's
# seed: at n = 500 the coefficient solve behind critical_points raises
# NoConvergence on some seeds (4 and 6 among 1-14) and takes 0.9-5.4 s on
# the others, so a seeded instance would neither always succeed nor cost
# the same.  The p' count over |z| = 1 + eps runs on the same instance.
FIXED_SEED = 1
KEPS = (0.25, 0.5)

# theorem-grid: the grid spans the roots' extreme coordinates plus
# 2(eps + diam K) on each side.  Pinning the outside roots' abscissae at
# +-GRID_X (radius 3.7-3.84, inside the default annulus [2, 4]) and their
# ordinates inside [-1, 1] keeps the grid at 1968 x 1320 cells for every
# seed, so the seed moves the instance but not the amount of work.
GRID_X = 3.7

# census: (n, m) pairs covering n in [3, 10] and m in [1, 3], and one box
# that holds every instance with the criterion-5 margin of 1.5 around the
# roots, so the cell count does not depend on the seed either.  The pairs
# leave out (3, 2) and (4, 3): at this box their far-field check fails on
# 36% and 47% of seeds, and the GrowBBox retry (2.25x the cells, peak
# memory 470 -> 780 MB) would split the runs into two populations.
CENSUS_NM = ((3, 1), (4, 1), (6, 3), (8, 1), (9, 3), (10, 2))
CENSUS_DELTAS = (1e-2, 1e-3, 1e-4)
CENSUS_BOX = (-3.1, 3.1, -3.1, 3.1)
CENSUS_RES = 300.0
_GROW_RETRIES = 4

TORUS_CONFIGS = 20
LEMMA_CURVES = 20
SHARP_MS = (10, 100, 1000)
BENT_CURVE = (0.0, 0.35 + 0.25j, 1.0)
SEARCH = dict(m=10, restarts=6, budget=12_000, exclusion_margin=0.02)


def _disk_points(rng, k: int, radius: float = 1.0) -> np.ndarray:
    return radius * np.sqrt(rng.uniform(size=k)) \
        * np.exp(2j * np.pi * rng.uniform(size=k))


class Workload:
    name = ""

    def __init__(self, rf, seed: int, out_dir: Path, tracer=None):
        self.rf = rf
        self.seed = seed
        self.out_dir = out_dir
        self.tracer = tracer

    def count(self, name: str) -> None:
        if self.tracer is not None:
            self.tracer.count(name)

    def failed(self, what: str) -> None:
        """A failed operation is counted, not judged; say why on stderr."""
        print(f"{self.name}: operation failed: {what}", file=sys.stderr)

    def run_round(self) -> tuple[int, int, list[str]]:
        raise NotImplementedError


class TheoremN500(Workload):
    """run_theorem_experiment at n = 500, then the p' count over |z| = 1+eps."""

    name = "theorem-n500"

    def __init__(self, rf, seed, out_dir, tracer=None):
        super().__init__(rf, seed, out_dir, tracer)
        self.cfg = rf.harness.ExperimentConfig(
            domain=rf.geometry.ConvexDomain.disk(0.0, 1.0), epsilon=0.25,
            n=500, m=2, delta_sweep=(1e-3, 1e-2), resolution=40.0,
            seed=FIXED_SEED)

    def run_round(self):
        rf = self.rf
        attempted, failed = 1 + len(KEPS), 0
        try:
            report = rf.harness.run_theorem_experiment(self.cfg)
        except rf.errors.RootfieldError as exc:
            self.failed(f"theorem run raised {exc!r}")
            return attempted, attempted, []
        rep = report.to_json()
        roots = checks.points(rep["roots"]["inside"]
                              + rep["roots"]["outside"])
        crit = checks.points(rep["critical_points"])
        problems = checks.critical_points(crit, roots)
        problems += checks.theorem_counts(rep, self.cfg.epsilon)
        for d in rep["deltas"]:
            problems += checks.census(d["components"], roots.size - 1)
        # the certificate for the verdict: p' zeros inside the circle
        # |z| = 1 + eps, against the verified critical points
        dp = rf.poly.derivative(rf.poly.from_roots(roots))
        for eps in KEPS:
            try:
                got = rf.contours.count_roots_in(
                    dp, rf.contours.circle(0.0, 1.0 + eps))
            except rf.errors.RootfieldError as exc:
                failed += 1
                self.failed(f"p' count at radius {1.0 + eps:g}: {exc!r}")
                continue
            wrong = checks.count_inside(crit, 1.0 + eps, got,
                                        clearance=1e-6)
            if wrong:
                failed += 1
                self.count("contours.count_roots_in.failed")
                self.failed(f"p' {'; '.join(wrong)}")
        return attempted, failed, problems


class TheoremGrid(Workload):
    """`rootfield theorem` in-process: report.json and figure.svg."""

    name = "theorem-grid"

    def __init__(self, rf, seed, out_dir, tracer=None):
        super().__init__(rf, seed, out_dir, tracer)
        rng = np.random.default_rng(seed)
        ys = rng.uniform(-1.0, 1.0, 2)
        self.config = {
            "domain": {"kind": "disk", "center": [0.0, 0.0], "radius": 1.0},
            "epsilon": 0.25, "n": 100, "m": 2,
            "outside_sampler": [[GRID_X, ys[0]], [-GRID_X, ys[1]]],
            "delta_sweep": [1e-3], "resolution": 120, "seed": seed,
        }
        schema = Path(rf.__file__).parent / "schemas" \
            / "theorem_report.schema.json"
        self.schema = checks.load_json(schema)
        self.run_dir = out_dir / f"cli-{self.name}-{seed}"

    def run_round(self):
        rf = self.rf
        self.run_dir.mkdir(parents=True, exist_ok=True)
        cfg_path = self.run_dir / "config.json"
        cfg_path.write_text(json.dumps(self.config))
        with contextlib.redirect_stdout(io.StringIO()):
            code = rf.cli.main(["theorem", "--config", str(cfg_path),
                                "--out", str(self.run_dir)])
        if code != 0:
            self.failed(f"rootfield theorem exited with {code}")
            return 1, 1, []
        rep = checks.load_json(self.run_dir / "report.json")
        problems = checks.report_schema(rep, self.schema)
        if problems:
            return 1, 0, problems
        inside = checks.points(rep["roots"]["inside"])
        outside = checks.points(rep["roots"]["outside"])
        roots = np.concatenate([inside, outside])
        problems += checks.critical_points(
            checks.points(rep["critical_points"]), roots)
        problems += checks.theorem_counts(rep, self.config["epsilon"])
        for d in rep["deltas"]:
            problems += checks.census(d["components"], roots.size - 1)
        problems += checks.svg_cells(
            self.run_dir / "figure.svg", inside, outside,
            self.config["delta_sweep"][0], self.config["resolution"],
            0j, 1.0)
        return 1, 0, problems


class Census(Workload):
    """build_masks with GrowBBox retries, then classify_components."""

    name = "census"

    def __init__(self, rf, seed, out_dir, tracer=None):
        super().__init__(rf, seed, out_dir, tracer)
        rng = np.random.default_rng(seed)
        self.splits = []
        for n, m in CENSUS_NM:
            inside = _disk_points(rng, n, 0.9)
            outside = (1.15 + 0.45 * rng.uniform(size=m)) \
                * np.exp(2j * np.pi * rng.uniform(size=m))
            self.splits.append(rf.poly.RootSplit(inside, outside))
        self.disk = rf.geometry.ConvexDomain.disk(0.0, 1.0)

    def run_round(self):
        rf = self.rf
        rng = np.random.default_rng(self.seed)  # cells the mask check samples
        attempted, failed, problems = 0, 0, []
        for split in self.splits:
            attempted += 1
            try:
                masks = self._masks(split)
                if masks is None:
                    failed += 1
                    self.failed(f"far-field check failed on {_GROW_RETRIES} "
                                "boxes")
                    continue
                comps = [rf.regions.classify_components(
                    mask, split, self.disk, 0.25) for mask in masks]
                crit = rf.poly.critical_points(
                    rf.poly.from_roots(np.concatenate([split.inside,
                                                       split.outside])))
            except rf.errors.RootfieldError as exc:
                failed += 1
                self.failed(f"census instance raised {exc!r}")
                continue
            roots = np.concatenate([split.inside, split.outside])
            problems += checks.critical_points(crit, roots)
            problems += checks.critical_points_match(crit, roots)
            for mask, cs in zip(masks, comps):
                problems += checks.mask_signs(
                    split.inside, split.outside, mask.delta, mask.bbox,
                    mask.resolution, mask.labels, rng)
                problems += checks.census([asdict(c) for c in cs],
                                          roots.size - 1)
        return attempted, failed, problems

    def _masks(self, split):
        bbox = CENSUS_BOX
        for _ in range(_GROW_RETRIES):
            try:
                return self.rf.regions.build_masks(split, CENSUS_DELTAS,
                                                   bbox, CENSUS_RES)
            except self.rf.errors.GrowBBox as exc:
                bbox = exc.suggested
        return None


class Certificates(Workload):
    """Torus points, curve lemma, sharp example and the supercharge probe."""

    name = "certificates"

    def __init__(self, rf, seed, out_dir, tracer=None):
        super().__init__(rf, seed, out_dir, tracer)
        rng = np.random.default_rng(seed)
        self.torus = [rng.uniform(size=int(rng.integers(5, 201)))
                      for _ in range(TORUS_CONFIGS)]
        self.curves = []
        for _ in range(LEMMA_CURVES):
            m = int(rng.integers(1, 13))
            charges = rng.normal(size=m) + 1j * rng.normal(size=m)
            mid = rng.normal(size=2) + 1j * rng.normal(size=2)
            self.curves.append((charges, np.concatenate([[0.0], mid, [1.0]])))
        self.search = rf.search.SearchConfig(
            curve=rf.charges.Curve(np.array(BENT_CURVE)), seed=seed, **SEARCH)

    def _dense(self, m: int) -> int:
        c = self.rf.charges
        return c.CERT_FACTOR * max(c.MIN_SAMPLES, c.SAMPLES_PER_CHARGE * m)

    def _torus(self, pts) -> list[str]:
        c = self.rf.charges
        y, value = c.torus_low_potential_point(c.TorusConfig(pts))
        return checks.torus_point(pts, y, value)

    def _lemma(self, charges, vertices) -> list[str]:
        c = self.rf.charges
        w = c.lemma1_curve_bound(c.ChargeSet(charges), c.Curve(vertices))
        return _witness(charges, vertices, w)

    def _sharp(self, m: int) -> list[str]:
        ex = self.rf.charges.sharp_example(m)
        return checks.curve_minimum(ex.charges.charges, [0.0, 1.0],
                                    "modulus", ex.value, self._dense(m))

    def _supercharge(self) -> list[str]:
        """optimize_charges, then lemma1_curve_bound on what it found."""
        try:
            res = self.rf.search.optimize_charges(self.search)
        except self.rf.errors.BudgetExhausted as exc:
            res = exc.result
        best = res.best_charges.charges
        vertices = np.array(BENT_CURVE)
        ceiling = self.rf.charges.lemma1_curve_bound(res.best_charges,
                                                     self.search.curve)
        return (checks.curve_minimum(best, vertices, "field", res.achieved,
                                     self._dense(best.size))
                + _witness(best, vertices, ceiling)
                + checks.supercharge(best, vertices,
                                     self.search.exclusion_margin,
                                     res.achieved, ceiling.value))

    def run_round(self):
        ops = [(1, self._torus, (pts,)) for pts in self.torus]
        ops += [(1, self._lemma, curve) for curve in self.curves]
        ops += [(1, self._sharp, (m,)) for m in SHARP_MS]
        ops.append((2, self._supercharge, ()))
        attempted, failed, problems = 0, 0, []
        for n_ops, op, args in ops:
            attempted += n_ops
            try:
                problems += op(*args)
            except self.rf.errors.RootfieldError as exc:
                failed += n_ops
                self.failed(f"{op.__name__.lstrip('_')}: {exc!r}")
        return attempted, failed, problems


def _witness(charges, vertices, w) -> list[str]:
    return checks.lemma_witness(charges, vertices, w.point, w.value,
                                w.normalized_value, w.torus_value,
                                w.torus_point)


WORKLOADS = {w.name: w for w in (TheoremN500, TheoremGrid, Census,
                                 Certificates)}
