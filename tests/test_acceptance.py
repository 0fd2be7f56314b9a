"""Acceptance: the eight headline guarantees, one criterion per test.

Every test prints a single [PASS]/[FAIL] line naming its tolerance and
the measured runtime (run pytest with -s to see the lines on success),
then asserts.  Sizes, tolerances, and budgets are fixed here on purpose;
loosening them is a contract change, not a tuning knob.
"""

import time

import numpy as np

from rootfield import charges, contours, geometry as geo, harness, poly, \
    regions, search
from rootfield.errors import BudgetExhausted, GrowBBox

DISK = geo.ConvexDomain.disk(0.0, 1.0)

# value/(m ln m) for the lattice example, measured once against the
# dense-sampling oracle and frozen
SHARP_BRACKETS = {
    10: (1.102, 1.112),
    50: (1.047, 1.058),
    100: (1.038, 1.049),
    500: (1.026, 1.037),
    1000: (1.023, 1.034),
}


def _verdict(ok: bool, idx: int, text: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {idx}: {text}")
    assert ok, f"criterion {idx}: {text}"


def _disk_points(rng, k, radius=1.0):
    return radius * np.sqrt(rng.uniform(size=k)) \
        * np.exp(2j * np.pi * rng.uniform(size=k))


def test_criterion_1_gauss_lucas_hull():
    rng = np.random.default_rng(101)
    t0 = time.perf_counter()
    worst = 0.0
    for _ in range(500):
        deg = int(rng.integers(3, 101))
        rts = _disk_points(rng, deg)
        crit = poly.critical_points(poly.from_roots(rts))
        hull = geo.convex_hull(rts)
        worst = max(worst, float(geo.distance(hull, crit).max()))
    el = time.perf_counter() - t0
    ok = worst <= 1e-9 and el < 30
    _verdict(ok, 1, "500 polynomials deg 3-100, every critical point in "
             f"the root hull within 1e-9 (worst {worst:.2e}; "
             f"{el:.1f}s < 30s)")


def test_criterion_2_torus_certificate():
    rng = np.random.default_rng(202)
    t0 = time.perf_counter()
    violations = 0
    for _ in range(1000):
        m = int(rng.integers(5, 201))
        pts = rng.uniform(size=m)
        y, value = charges.torus_low_potential_point(charges.TorusConfig(pts))
        dist = float(charges.torus_distance(y, pts).min())
        good = (dist >= 1.0 / (10.0 * m)
                and value <= 20.0 * m * np.log(20.0 * m)
                and value <= 60.0 * m * np.log(m))
        violations += not good
    el = time.perf_counter() - t0
    ok = violations == 0 and el < 60
    _verdict(ok, 2, "1000 torus configs m in [5,200]: distance >= 1/(10m) "
             "and potential <= 20m log(20m) <= 60m log m, zero tolerance "
             f"({violations} violations; {el:.1f}s < 60s)")


def test_criterion_3_sharpness_brackets():
    t0 = time.perf_counter()
    bad = []
    for m, (lo, hi) in SHARP_BRACKETS.items():
        ratio = float(charges.sharp_example(m).ratio)
        if not lo <= ratio <= hi:
            bad.append((m, ratio))
    el = time.perf_counter() - t0
    ok = not bad and el < 60
    _verdict(ok, 3, "sharp_example value/(m ln m) inside frozen brackets "
             f"(width 0.011) for m in {sorted(SHARP_BRACKETS)} "
             f"(out of bracket: {bad}; {el:.1f}s < 60s)")


def test_criterion_4_field_lower_bound():
    rng = np.random.default_rng(404)
    t0 = time.perf_counter()
    violations = 0
    for _ in range(1000):
        if rng.uniform() < 0.5:
            K = geo.ConvexDomain.disk(complex(*rng.normal(size=2)),
                                      float(rng.uniform(0.3, 2.0)))
        else:
            K = geo.convex_hull(rng.normal(size=6) + 1j * rng.normal(size=6))
        n = int(rng.integers(1, 41))
        rts = harness._sample_inside(K, n, "uniform", rng)
        z = harness._sample_outside(K, 1, ("annulus", 0.6, 3.0), rng)[0]
        lhs = abs(np.sum(1.0 / (z - rts)))
        bound = regions.field_lower_bound(n, geo.distance(K, z),
                                          geo.diameter(K))
        violations += not lhs >= bound
    el = time.perf_counter() - t0
    ok = violations == 0 and el < 10
    _verdict(ok, 4, "1000 random (K, roots, exterior z): |sum 1/(z-a)| >= "
             "n*d/(d+diam)^2 with exact float comparison "
             f"({violations} violations; {el:.1f}s < 10s)")


def test_criterion_5_rouche_component_census():
    rng = np.random.default_rng(505)
    t0 = time.perf_counter()
    failures = []
    checked = 0
    for trial in range(200):
        n = int(rng.integers(3, 11))
        m = int(rng.integers(1, min(3, n - 1) + 1))
        split = poly.RootSplit(
            _disk_points(rng, n, radius=0.9),
            (1.15 + 0.45 * rng.uniform(size=m))
            * np.exp(2j * np.pi * rng.uniform(size=m)))
        pts = np.concatenate([split.inside, split.outside])
        bbox = (pts.real.min() - 1.5, pts.real.max() + 1.5,
                pts.imag.min() - 1.5, pts.imag.max() + 1.5)
        masks = None
        for _ in range(4):
            try:
                masks = regions.build_masks(split, [1e-2, 1e-3, 1e-4],
                                            bbox, 300.0)
                break
            except GrowBBox as exc:
                bbox = exc.suggested
        if masks is None:
            failures.append((trial, "bbox growth exhausted"))
            continue
        for mask in masks:
            for c in regions.classify_components(mask, split, DISK, 0.25):
                if c.rouche_margin <= 0:
                    continue
                checked += 1
                if c.count_error is not None or c.crit_points_inside \
                        != c.qprime_roots_enclosed + c.r_roots_enclosed:
                    failures.append((trial, mask.delta, c))
    el = time.perf_counter() - t0
    ok = not failures and el < 300
    _verdict(ok, 5, "200 instances (n<=10, m<=3) x deltas {1e-2,1e-3,1e-4} "
             f"at 300 cells/unit: all {checked} positive-margin components "
             "have crit count == q' count + r count by direct root finding "
             f"({len(failures)} failures; {el:.1f}s < 300s)")


def test_criterion_6_theorem_end_to_end():
    t0 = time.perf_counter()
    failed = []
    runs = 0
    for n in (100, 500):
        for m in (1, 2, 5):
            for seed in range(20):
                cfg = harness.ExperimentConfig(
                    domain=DISK, epsilon=0.25, n=n, m=m, seed=606 + seed)
                rep = harness.run_theorem_experiment(cfg)
                assert rep.critical.size == n + m - 1   # count conservation
                din = geo.distance(DISK, rep.critical)
                # root draws do not depend on epsilon, so this report
                # answers for both neighborhood sizes
                for eps in (0.25, 0.5):
                    runs += 1
                    if int((din <= eps).sum()) < rep.roots_in_K - 1:
                        failed.append((n, m, seed, eps))
    # spot-check the reuse: a full run at the second epsilon agrees
    spot = harness.run_theorem_experiment(harness.ExperimentConfig(
        domain=DISK, epsilon=0.5, n=100, m=5, seed=606))
    assert spot.verdict is True
    el = time.perf_counter() - t0
    ok = not failed and runs == 240 and el < 300
    _verdict(ok, 6, "K = unit disk, eps in {0.25,0.5}, n in {100,500}, "
             "m in {1,2,5}, 20 seeds: >= n-1 critical points in K_eps in "
             f"all {runs} runs ({len(failed)} failures; {el:.1f}s < 300s)")


def test_criterion_7_argument_principle_counts():
    rng = np.random.default_rng(707)
    t0 = time.perf_counter()
    mismatches = 0
    for _ in range(500):
        deg = int(rng.integers(3, 26))
        rts = 2.0 * _disk_points(rng, deg)
        p = poly.from_roots(rts)
        # keep roots clear of the contour's own clearance floor (2/64)
        while True:
            center = complex(*rng.uniform(-1.5, 1.5, size=2))
            radius = float(rng.uniform(0.3, 2.0))
            if np.abs(np.abs(rts - center) - radius).min() > 0.05:
                break
        counted = contours.count_roots_in(p, contours.circle(center, radius))
        expected = int((np.abs(rts - center) < radius).sum())
        mismatches += counted != expected
    el = time.perf_counter() - t0
    ok = mismatches == 0 and el < 30
    _verdict(ok, 7, "500 circle-contour root counts equal membership "
             f"oracles as integers ({mismatches} mismatches; "
             f"{el:.1f}s < 30s)")


def test_criterion_8_supercharge_certificates():
    rng = np.random.default_rng(808)
    t0 = time.perf_counter()
    failures = []
    curves = (charges.Curve([0.0, 1.0]),
              charges.Curve([0.0, 0.35 + 0.25j, 1.0]),
              charges.Curve([0.0, 0.2 - 0.3j, 0.8 + 0.3j, 1.0]))
    for run in range(50):
        m = int(rng.integers(1, 21))
        curve = curves[run % len(curves)]
        cfg = search.SearchConfig(curve=curve, m=m, restarts=2,
                                  budget=2500 + 200 * m,
                                  exclusion_margin=0.02, seed=808 + run)
        try:
            res = search.optimize_charges(cfg)
        except BudgetExhausted as exc:
            res = exc.result
        samples = 4 * max(charges.MIN_SAMPLES,
                          charges.SAMPLES_PER_CHARGE * m)
        _, check = charges.curve_min(res.best_charges, curve, mode="field",
                                     samples=samples)
        ceiling = charges.lemma1_curve_bound(res.best_charges, curve).value
        agree = abs(check - res.achieved) \
            <= 0.01 * max(abs(check), abs(res.achieved))
        below = res.achieved <= ceiling * (1.0 + search.CEILING_SLACK)
        if not (agree and below):
            failures.append((run, m, res.achieved, check, ceiling))
    el = time.perf_counter() - t0
    ok = not failures and el < 600
    _verdict(ok, 8, "50 optimization runs (m <= 20): achieved value "
             "confirmed within 1% at 4x sampling density and never above "
             f"the lemma ceiling ({len(failures)} failures; "
             f"{el:.1f}s < 600s)")
