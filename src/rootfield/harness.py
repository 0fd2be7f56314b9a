"""Experiment harness: sampled instances and end-to-end theorem runs.

Builds p = q * r from sampled root configurations, counts roots and
critical points against K and its neighborhood, drives the region
pipeline per delta, and assembles deterministic structured reports.
Roots are used as given, repeated ones too.  A run solves p' once and
builds its masks once; the census counts the zeros of p' and q' from the
roots without solving either.  The report carries the first mask, so the
figure shows the mask its components were counted on.  Membership in K
and K_eps and the escape distance come from `geometry`, one call per
point array.
"""

from __future__ import annotations

import csv
from dataclasses import asdict, dataclass, field, fields, replace

import numpy as np

from .charges import TorusConfig, lemma1_curve_bound, sharp_example, \
    torus_distance, torus_low_potential_point
from .errors import ConfigError, GrowBBox, RootfieldError, SearchExhausted
from .geometry import ConvexDomain, bounding_box, boundary_point, \
    contains, diameter, distance
from .poly import RootSplit
from . import charges as _charges
from . import geometry, regions

_SAMPLER_CAP = 200        # rejection batches before giving up
_GROW_RETRIES = 3         # far-field bbox enlargements before reporting

MASK_NOT_CARRIED = object()   # TheoremReport.mask of a report read from JSON
FAR_FIELD_FAILED = ("far-field check failed after "
                    f"{_GROW_RETRIES} bbox enlargements")
FAR_FIELD_NEGATIVE = "far-field check failed: m > n, so g < 0 far out"

SWEEP_M_COLUMNS = ("n", "m", "m_log_n_over_n", "verdict",
                   "min_escape_distance")


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ExperimentConfig:
    """Instance description: domain, counts, samplers, and sweep knobs.

    root_sampler is "uniform", "boundary", or an explicit list of points
    in K.  outside_sampler is ("annulus", lo, hi) with radii in units of
    diameter(K), or an explicit list of points outside K.
    """

    domain: ConvexDomain
    epsilon: float
    n: int
    m: int
    root_sampler: object = "uniform"
    outside_sampler: object = ("annulus", 1.0, 2.0)
    delta_sweep: tuple = ()
    resolution: float = 200.0
    seed: int = 0

    def __post_init__(self):
        if not self.epsilon > 0:
            raise ConfigError("epsilon must be positive")
        if self.n < 2:
            raise ConfigError("need at least two roots in K")
        if self.m < 0:
            raise ConfigError("outside root count cannot be negative")
        if not all(d > 0 for d in self.delta_sweep):
            raise ConfigError("delta values must be positive")
        if not self.resolution > 0:
            raise ConfigError("resolution must be positive")
        if isinstance(self.root_sampler, str):
            if self.root_sampler not in ("uniform", "boundary"):
                raise ConfigError(
                    f"unknown root sampler {self.root_sampler!r}")
        object.__setattr__(self, "delta_sweep",
                           tuple(float(d) for d in self.delta_sweep))

    def to_json(self) -> dict:
        rs = self.root_sampler
        if not isinstance(rs, str):
            rs = [[z.real, z.imag] for z in np.asarray(rs, complex)]
        os_ = self.outside_sampler
        if _is_annulus(os_):
            os_ = {"annulus": [float(os_[1]), float(os_[2])]}
        else:
            os_ = [[z.real, z.imag] for z in np.asarray(os_, complex)]
        return {"domain": self.domain.to_json(), "epsilon": self.epsilon,
                "n": self.n, "m": self.m, "root_sampler": rs,
                "outside_sampler": os_,
                "delta_sweep": list(self.delta_sweep),
                "resolution": self.resolution, "seed": self.seed}

    @classmethod
    def from_json(cls, obj: dict) -> "ExperimentConfig":
        """Keys missing from obj take the dataclass defaults."""
        def points(pairs):
            return np.array([complex(x, y) for x, y in pairs])

        def outside(spec):
            if isinstance(spec, dict):
                lo, hi = spec["annulus"]
                return ("annulus", float(lo), float(hi))
            return points(spec)

        read = {"root_sampler":
                lambda rs: rs if isinstance(rs, str) else points(rs),
                "outside_sampler": outside, "delta_sweep": tuple,
                "resolution": float, "seed": int}
        try:
            return cls(domain=ConvexDomain.from_json(obj["domain"]),
                       epsilon=float(obj["epsilon"]), n=int(obj["n"]),
                       m=int(obj["m"]),
                       **{k: f(obj[k]) for k, f in read.items() if k in obj})
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigError(f"bad experiment config: {exc}") from exc


def _is_annulus(spec) -> bool:
    return (isinstance(spec, tuple) and len(spec) == 3
            and spec[0] == "annulus")


# ---------------------------------------------------------------------------
# samplers
# ---------------------------------------------------------------------------

def _sample_inside(K: ConvexDomain, n: int, kind, rng) -> np.ndarray:
    if not isinstance(kind, str):
        pts = np.asarray(kind, dtype=np.complex128)
        if pts.size != n:
            raise ConfigError(f"explicit root list has {pts.size} points, "
                              f"config says n={n}")
        if not np.all(np.isfinite(pts)):
            raise ConfigError("an explicit inside root is not finite")
        if np.any(distance(K, pts) > 0):
            raise ConfigError("an explicit inside root lies outside K")
        return pts
    if kind == "boundary":
        # shell between 70% and 98% of the way from the center out
        s = rng.uniform(size=n)
        b = np.array([boundary_point(K, float(t)) for t in s])
        u = rng.uniform(0.70, 0.98, size=n)
        return K.center + (b - K.center) * u
    x0, x1, y0, y1 = bounding_box(K)
    out = np.zeros(0, dtype=np.complex128)
    for _ in range(_SAMPLER_CAP):
        cand = (rng.uniform(x0, x1, size=2 * n)
                + 1j * rng.uniform(y0, y1, size=2 * n))
        out = np.concatenate([out, cand[contains(K, cand)]])
        if out.size >= n:
            return out[:n]
    raise ConfigError("rejection sampler failed to fill K")


def _sample_outside(K: ConvexDomain, m: int, spec, rng) -> np.ndarray:
    if m == 0:
        return np.zeros(0, dtype=np.complex128)
    if not _is_annulus(spec):
        pts = np.asarray(spec, dtype=np.complex128)
        if pts.size != m:
            raise ConfigError(f"explicit outside list has {pts.size} "
                              f"points, config says m={m}")
        if not np.all(np.isfinite(pts)):
            raise ConfigError("an explicit outside root is not finite")
        if np.any(distance(K, pts) <= 0):
            raise ConfigError("an explicit outside root lies in K")
        return pts
    _, lo, hi = spec
    if not (0 < lo < hi):
        raise ConfigError("annulus radii must satisfy 0 < lo < hi")
    d = diameter(K)
    out = np.zeros(0, dtype=np.complex128)
    for _ in range(_SAMPLER_CAP):
        rho = d * rng.uniform(lo, hi, size=2 * m)
        theta = rng.uniform(0.0, 2.0 * np.pi, size=2 * m)
        cand = K.center + rho * np.exp(1j * theta)
        out = np.concatenate([out, cand[distance(K, cand) > 0]])
        if out.size >= m:
            return out[:m]
    raise ConfigError("annulus sampler kept landing inside K; raise lo")


# ---------------------------------------------------------------------------
# reports
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DeltaReport:
    delta: float
    components: tuple = ()
    bridged: bool | None = None
    witness: np.ndarray | None = None
    error: str | None = None


@dataclass(frozen=True)
class TheoremReport:
    config: ExperimentConfig
    inside_roots: np.ndarray
    outside_roots: np.ndarray
    critical: np.ndarray
    roots_in_K: int
    roots_outside: int
    crit_in_Keps: int
    crit_elsewhere: int
    verdict: bool
    deltas: tuple[DeltaReport, ...]
    errors: tuple[tuple[str, str], ...]
    version: str
    # first delta's mask for the figure, None if none was built; not
    # serialized, so a report read from JSON holds MASK_NOT_CARRIED
    mask: object = field(default=MASK_NOT_CARRIED, compare=False, repr=False)

    def to_json(self) -> dict:
        def pts(a):
            return [[float(z.real), float(z.imag)] for z in a]

        deltas = []
        for d in self.deltas:
            deltas.append({
                "delta": d.delta,
                "components": [{**asdict(c), "absorbed": list(c.absorbed)}
                               for c in d.components],
                "bridged": d.bridged,
                "witness": None if d.witness is None else pts(d.witness),
                "error": d.error,
            })
        return {
            "version": self.version,
            "config": self.config.to_json(),
            "counts": {
                "roots_in_K": self.roots_in_K,
                "roots_outside": self.roots_outside,
                "crit_in_Keps": self.crit_in_Keps,
                "crit_elsewhere": self.crit_elsewhere,
            },
            "verdict": self.verdict,
            "roots": {"inside": pts(self.inside_roots),
                      "outside": pts(self.outside_roots)},
            "critical_points": pts(self.critical),
            "deltas": deltas,
            "errors": [list(e) for e in self.errors],
        }

    @classmethod
    def from_json(cls, obj: dict) -> "TheoremReport":
        def arr(lst):
            if not lst:
                return np.zeros(0, dtype=np.complex128)
            return np.array([complex(x, y) for x, y in lst])

        try:
            deltas = []
            for d in obj.get("deltas", []):
                comps = tuple(_component(c) for c in d["components"])
                w = d.get("witness")
                deltas.append(DeltaReport(
                    delta=float(d["delta"]), components=comps,
                    bridged=d.get("bridged"),
                    witness=None if w is None else arr(w),
                    error=d.get("error")))
            counts = obj["counts"]
            return cls(
                config=ExperimentConfig.from_json(obj["config"]),
                inside_roots=arr(obj["roots"]["inside"]),
                outside_roots=arr(obj["roots"]["outside"]),
                critical=arr(obj["critical_points"]),
                roots_in_K=int(counts["roots_in_K"]),
                roots_outside=int(counts["roots_outside"]),
                crit_in_Keps=int(counts["crit_in_Keps"]),
                crit_elsewhere=int(counts["crit_elsewhere"]),
                verdict=bool(obj["verdict"]), deltas=tuple(deltas),
                errors=tuple((s, msg) for s, msg in obj.get("errors", ())),
                version=str(obj.get("version", "")))
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigError(f"bad theorem report: {exc}") from exc


def _component(obj: dict) -> regions.ComponentReport:
    """A ComponentReport from its JSON object, which holds each field."""
    names = {f.name for f in fields(regions.ComponentReport)}
    if set(obj) != names:
        raise KeyError(f"component keys {sorted(set(obj) ^ names)}")
    return regions.ComponentReport(**{**obj,
                                      "absorbed": tuple(obj["absorbed"])})


# ---------------------------------------------------------------------------
# theorem pipeline
# ---------------------------------------------------------------------------

def delta_masks(split: RootSplit,
                cfg: ExperimentConfig) -> list[regions.RegionMask] | None:
    """One mask per delta of cfg, all on one bbox; None if none fits.

    Starts from regions.default_bbox and follows up to _GROW_RETRIES
    GrowBBox suggestions; none for m > n, where g ~ (n - m)/|z| < 0 far out
    and a larger box only pushes its border further into g < 0.  The delta
    stage and render both build here.
    """
    bbox = regions.default_bbox(split, cfg.domain, cfg.epsilon)
    for _ in range(_GROW_RETRIES if split.m <= split.n else 1):
        try:
            return regions.build_masks(split, list(cfg.delta_sweep), bbox,
                                       cfg.resolution)
        except GrowBBox as exc:
            bbox = exc.suggested
    return None


def _delta_stage(split: RootSplit, cfg: ExperimentConfig):
    """(one DeltaReport per delta, the first delta's mask or None)."""
    masks = delta_masks(split, cfg)
    if masks is None:
        error = FAR_FIELD_NEGATIVE if split.m > split.n else FAR_FIELD_FAILED
        return tuple(DeltaReport(delta=d, error=error)
                     for d in cfg.delta_sweep), None
    out = []
    for mask in masks:
        try:
            comps = regions.classify_components(mask, split, cfg.domain,
                                                cfg.epsilon)
            bridge = regions.bridging_check(mask, cfg.domain, cfg.epsilon)
            out.append(DeltaReport(delta=mask.delta, components=tuple(comps),
                                   bridged=bridge.bridged,
                                   witness=bridge.path))
        except RootfieldError as exc:
            out.append(DeltaReport(delta=mask.delta,
                                   error=f"{type(exc).__name__}: {exc}"))
    return tuple(out), masks[0]


def run_theorem_experiment(cfg: ExperimentConfig) -> TheoremReport:
    """Sample an instance, count roots and critical points, sweep deltas.

    Module failures after sampling are recorded on the report rather than
    raised; a partial report is a valid outcome.
    """
    from . import __version__
    rng = np.random.default_rng(cfg.seed)
    errors: list[tuple[str, str]] = []

    inside = _sample_inside(cfg.domain, cfg.n, cfg.root_sampler, rng)
    outside = _sample_outside(cfg.domain, cfg.m, cfg.outside_sampler, rng)
    split = RootSplit(inside, outside)

    roots_in = int(np.sum(distance(cfg.domain, split.roots) <= 0))
    roots_out = cfg.n + cfg.m - roots_in

    crit = np.zeros(0, dtype=np.complex128)
    try:
        crit = split.critical
    except RootfieldError as exc:
        errors.append(("critical_points", f"{type(exc).__name__}: {exc}"))
    crit_in = int(np.sum(distance(cfg.domain, crit) <= cfg.epsilon))
    crit_out = crit.size - crit_in
    verdict = bool(crit.size > 0 and crit_in >= roots_in - 1)

    deltas: tuple[DeltaReport, ...] = ()
    mask = None
    if cfg.delta_sweep:
        try:
            deltas, mask = _delta_stage(split, cfg)
        except RootfieldError as exc:
            errors.append(("adelta", f"{type(exc).__name__}: {exc}"))

    return TheoremReport(
        config=cfg, inside_roots=inside, outside_roots=outside,
        critical=crit, roots_in_K=roots_in, roots_outside=roots_out,
        crit_in_Keps=crit_in, crit_elsewhere=crit_out, verdict=verdict,
        deltas=deltas, errors=tuple(errors), version=__version__,
        mask=mask)


# ---------------------------------------------------------------------------
# sweeps and suites
# ---------------------------------------------------------------------------

def _sweep_row(sub: ExperimentConfig) -> dict:
    """One sweep row; only the row leaves the worker, never the report."""
    try:
        rep = run_theorem_experiment(sub)
    except RootfieldError as exc:
        escape = float("nan")
        verdict: object = f"error: {type(exc).__name__}"
    else:
        esc = geometry.escape_distance(sub.domain, sub.epsilon, rep.critical)
        escape = float(esc.min()) if esc.size else float("nan")
        verdict = "error" if rep.errors else rep.verdict
    return {"n": sub.n, "m": sub.m,
            "m_log_n_over_n": sub.m * np.log(sub.n) / sub.n,
            "verdict": verdict, "min_escape_distance": escape}


def sweep_m(cfg: ExperimentConfig, m_values, path=None,
            jobs: int = 1) -> list[dict]:
    """One theorem run per m; rows follow SWEEP_M_COLUMNS.

    The dimensionless column m*log(n)/n tracks the theorem's threshold
    shape; min_escape_distance is the smallest distance from a critical
    point to the complement of K_eps (0 once a critical point escapes).
    Rows are independent, so jobs > 1 fans them out over processes
    without changing any value.
    """
    subs = [replace(cfg, m=int(m)) for m in m_values]
    if jobs > 1:
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=int(jobs)) as pool:
            rows = list(pool.map(_sweep_row, subs))
    else:
        rows = [_sweep_row(sub) for sub in subs]
    if path is not None:
        with open(path, "w", newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=SWEEP_M_COLUMNS)
            writer.writeheader()
            writer.writerows(rows)
    return rows


@dataclass(frozen=True)
class LemmaSuiteReport:
    trials: int
    curve_trials: int
    violations: tuple[dict, ...]
    sharp_ratios: tuple[tuple[int, float], ...]
    worst_bound_fraction: float     # max value/(20 m log 20m) observed
    m_one_value: float

    @property
    def ok(self) -> bool:
        return not self.violations


def run_lemma_suite(trials: int = 200, m_range=(5, 200), seed: int = 0,
                    curve_trials: int | None = None,
                    sharp_ms=(10, 100, 1000)) -> LemmaSuiteReport:
    """Random torus and curve instances; every certificate must hold.

    Violations are collected with full instance dumps for reproduction;
    a correct implementation returns an empty tuple.  Parameters out of
    range raise ConfigError before any instance runs.
    """
    if trials < 1:
        raise ConfigError("need at least one trial")
    if len(m_range) != 2 or not 1 <= m_range[0] <= m_range[1]:
        raise ConfigError("m_range must be (low, high), 1 <= low <= high")
    if any(m < 2 for m in sharp_ms):
        raise ConfigError("every sharp m must be at least 2")
    rng = np.random.default_rng(seed)
    violations: list[dict] = []
    worst = 0.0
    for _ in range(trials):
        m = int(rng.integers(m_range[0], m_range[1] + 1))
        cfg = TorusConfig(rng.uniform(size=m))
        bound = 20.0 * m * np.log(20.0 * m)
        try:
            y, value = torus_low_potential_point(cfg)
        except SearchExhausted as exc:
            violations.append({"kind": "torus", "m": m, "error": str(exc),
                               "points": cfg.points.tolist()})
            continue
        worst = max(worst, value / bound)
        if float(torus_distance(y, cfg.points).min()) < 1.0 / (10.0 * m) \
                or value > bound:
            violations.append({"kind": "torus", "m": m, "y": y,
                               "value": value, "bound": bound,
                               "points": cfg.points.tolist()})

    if curve_trials is None:
        curve_trials = max(1, trials // 5)
    for _ in range(curve_trials):
        m = int(rng.integers(1, 13))
        C = _charges.ChargeSet(rng.normal(size=m) + 1j * rng.normal(size=m))
        mid = rng.normal(size=2) + 1j * rng.normal(size=2)
        curve = _charges.Curve(np.concatenate([[0.0], mid, [1.0]]))
        bound = 20.0 * m * np.log(20.0 * m)
        try:
            w = lemma1_curve_bound(C, curve)
        except RootfieldError as exc:
            violations.append({"kind": "curve", "m": m, "error": str(exc),
                               "charges": C.to_json()})
            continue
        if w.normalized_value > w.torus_value * (1 + 1e-9) \
                or w.torus_value > bound:
            violations.append({"kind": "curve", "m": m,
                               "witness": w.normalized_value,
                               "torus": w.torus_value, "bound": bound,
                               "charges": C.to_json()})

    sharp = tuple((int(m), float(sharp_example(int(m)).ratio))
                  for m in sharp_ms)
    _, m_one = torus_low_potential_point(TorusConfig([0.5]))
    return LemmaSuiteReport(trials=trials, curve_trials=curve_trials,
                            violations=tuple(violations), sharp_ratios=sharp,
                            worst_bound_fraction=worst, m_one_value=m_one)
