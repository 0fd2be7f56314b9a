"""Experiment harness: sampled instances and end-to-end theorem runs.

Builds p = q * r from sampled root configurations, counts roots and
critical points against K and its neighborhood, drives the region
pipeline per delta, and assembles deterministic structured reports.
Roots are used as given, repeated ones too.  A run solves p' once and
builds its masks once; the census counts the zeros of p' and q' from the
roots without solving either.  The report carries the first mask, so the
figure shows the mask its components were counted on.  Membership in K
and K_eps and the escape distance come from `geometry`, one call per
point array.  Every JSON value the package reads passes a strict reader
here, through `read_field`; `write_points` writes every point.
"""

from __future__ import annotations

import csv
import io
import os
from dataclasses import MISSING, asdict, dataclass, field, fields, \
    replace

import numpy as np

from .charges import TorusConfig, lemma1_curve_bound, sharp_example, \
    torus_distance, torus_low_potential_point
from .errors import ConfigError, DegenerateHull, GrowBBox, RootfieldError, \
    SearchExhausted
from .geometry import ConvexDomain, bounding_box, boundary_point, \
    contains, convex_hull, diameter, distance
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
_COUNTS = ("roots_in_K", "roots_outside", "crit_in_Keps", "crit_elsewhere")
_FLOAT_MAX = float(np.finfo(np.float64).max)   # read_real's finite range


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------

def read_field(obj, key: str, read, default=MISSING):
    """obj[key] converted by read, or default when absent; a missing
    required key or a value read rejects is a ConfigError naming key."""
    if not isinstance(obj, dict):
        raise ConfigError(f"expected a JSON object, not {obj!r}")
    if key not in obj:
        if default is MISSING:
            raise ConfigError(f"missing {key!r}")
        return default
    try:
        return read(obj[key])
    except (ConfigError, TypeError, ValueError) as exc:
        raise ConfigError(f"bad {key!r}: {exc}") from exc


def _exactly(*kinds):
    """A reader of JSON values of the given types alone (true is no int)."""
    def read(value):
        if type(value) not in kinds:
            raise ConfigError(f"{value!r} is not a JSON {kinds[0].__name__}")
        return value
    return read


def _list_of(read, size=None):
    """A reader of JSON lists (of size items, if given) that read takes."""
    def read_list(value) -> tuple:
        if type(value) not in (list, tuple) or size not in (None, len(value)):
            raise ConfigError(f"{value!r} is not a list of {size or 'values'}")
        return tuple(map(read, value))
    return read_list


read_int, _bool, _text = _exactly(int), _exactly(bool), _exactly(str)
read_ints = _list_of(read_int)


def read_real(value) -> float:
    """A finite JSON number, as a float."""
    if type(value) not in (int, float):
        raise ConfigError(f"{value!r} is not a number")
    if not abs(value) <= _FLOAT_MAX:
        raise ConfigError(f"{value!r} is not finite")
    return float(value)


def read_sharp_ms(value) -> tuple[int, ...]:
    """Sizes of the sharp example: a list of integers, each at least 2."""
    ms = read_ints(value)
    if any(m < 2 for m in ms):
        raise ConfigError("every sharp m must be at least 2")
    return ms


def _point(value) -> complex:
    return complex(*_list_of(read_real, 2)(value))


def read_points(value) -> np.ndarray:
    """A list of [x, y] pairs of finite reals, as a complex array."""
    return np.array(_list_of(_point)(value), dtype=np.complex128)


def write_artifact(path, text: str) -> None:
    """Overwrite path in place with text as UTF-8 (see `cli`)."""
    try:
        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
        fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o666)
        with os.fdopen(fd, "wb") as fh:
            fh.truncate(fh.write(text.encode()))
    except OSError as exc:
        raise ConfigError(f"cannot write {path}: {exc}") from exc


def write_points(points) -> list[list[float]]:
    """The [x, y] pairs of complex points, as read_points reads them."""
    return [[z.real, z.imag] for z in np.asarray(points, complex).tolist()]


def _domain_to_json(K: ConvexDomain) -> dict:
    if K.kind == "disk":
        return {"kind": "disk", "center": write_points([K.center])[0],
                "radius": K.radius}
    return {"kind": "polygon", "vertices": write_points(K.vertices)}


def _domain_from_json(obj) -> ConvexDomain:
    """A disk or polygon; one that cannot be built is a ConfigError."""
    kind = read_field(obj, "kind", _text)
    if kind not in ("disk", "polygon"):
        raise ConfigError(f"unknown domain kind {kind!r}")
    try:
        if kind == "disk":
            return ConvexDomain.disk(read_field(obj, "center", _point),
                                     read_field(obj, "radius", read_real))
        return convex_hull(read_field(obj, "vertices", read_points))
    except DegenerateHull as exc:
        raise ConfigError(f"bad {kind}: {exc}") from exc


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
        rs, os_ = self.root_sampler, self.outside_sampler
        return {"domain": _domain_to_json(self.domain),
                "epsilon": self.epsilon, "n": self.n, "m": self.m,
                "root_sampler": rs if isinstance(rs, str)
                else write_points(rs),
                "outside_sampler": {"annulus": [float(os_[1]), float(os_[2])]}
                if _is_annulus(os_) else write_points(os_),
                "delta_sweep": list(self.delta_sweep),
                "resolution": self.resolution, "seed": self.seed}

    @classmethod
    def from_json(cls, obj: dict) -> "ExperimentConfig":
        """Keys missing from obj take the dataclass defaults; keys that
        are not fields are not read."""
        return cls(**{f.name: read_field(obj, f.name,
                                         _CONFIG_READERS[f.name], f.default)
                      for f in fields(cls)})


_CONFIG_READERS = {
    "domain": _domain_from_json, "epsilon": read_real, "n": read_int,
    "m": read_int, "resolution": read_real, "seed": read_int,
    "root_sampler": lambda rs: rs if type(rs) is str else read_points(rs),
    "outside_sampler": lambda s: read_points(s) if type(s) is not dict
    else ("annulus", *read_field(s, "annulus", _list_of(read_real, 2))),
    "delta_sweep": _list_of(read_real)}


def _is_annulus(spec) -> bool:
    return (isinstance(spec, tuple) and len(spec) == 3
            and spec[0] == "annulus")


# ---------------------------------------------------------------------------
# samplers
# ---------------------------------------------------------------------------

def _uniform(rng, low, high, size: int, count: str) -> np.ndarray:
    """rng.uniform(low, high, size), or a ConfigError naming count."""
    try:
        return rng.uniform(low, high, size=size)
    except (ValueError, MemoryError) as exc:
        raise ConfigError(f"cannot sample {count}: {exc}") from None


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
        b = boundary_point(K, _uniform(rng, 0.0, 1.0, n, f"n={n}"))
        u = _uniform(rng, 0.70, 0.98, n, f"n={n}")
        return K.center + (b - K.center) * u
    x0, x1, y0, y1 = bounding_box(K)
    out = np.zeros(0, dtype=np.complex128)
    for _ in range(_SAMPLER_CAP):
        cand = (_uniform(rng, x0, x1, 2 * n, f"n={n}")
                + 1j * _uniform(rng, y0, y1, 2 * n, f"n={n}"))
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
        rho = d * _uniform(rng, lo, hi, 2 * m, f"m={m}")
        theta = _uniform(rng, 0.0, 2.0 * np.pi, 2 * m, f"m={m}")
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
        return {
            "version": self.version,
            "config": self.config.to_json(),
            "counts": {k: getattr(self, k) for k in _COUNTS},
            "verdict": self.verdict,
            "roots": {"inside": write_points(self.inside_roots),
                      "outside": write_points(self.outside_roots)},
            "critical_points": write_points(self.critical),
            "deltas": [{
                "delta": d.delta,
                "components": [{**asdict(c), "absorbed": list(c.absorbed)}
                               for c in d.components],
                "bridged": d.bridged,
                "witness": None if d.witness is None
                else write_points(d.witness),
                "error": d.error,
            } for d in self.deltas],
            "errors": [list(e) for e in self.errors],
        }

    @classmethod
    def from_json(cls, obj: dict) -> "TheoremReport":
        counts = read_field(obj, "counts", lambda c: {
            k: read_field(c, k, read_int) for k in _COUNTS})
        roots = read_field(obj, "roots", lambda r: {
            k: read_field(r, k, read_points) for k in ("inside", "outside")})
        return cls(
            config=read_field(obj, "config", ExperimentConfig.from_json),
            inside_roots=roots["inside"], outside_roots=roots["outside"],
            critical=read_field(obj, "critical_points", read_points),
            verdict=read_field(obj, "verdict", _bool),
            deltas=read_field(obj, "deltas", _list_of(_delta), ()),
            errors=read_field(obj, "errors", _list_of(_list_of(_text, 2)), ()),
            version=read_field(obj, "version", _text, ""), **counts)


def _delta(obj) -> DeltaReport:
    return DeltaReport(
        delta=read_field(obj, "delta", read_real),
        components=read_field(obj, "components", _list_of(_component)),
        bridged=read_field(obj, "bridged", _exactly(bool, type(None)), None),
        witness=read_field(obj, "witness", lambda w: None if w is None
                           else read_points(w), None),
        error=read_field(obj, "error", _exactly(str, type(None)), None))


_COMPONENT_READERS = {
    "component": read_int, "touches_K": _bool, "escapes_Keps": _bool,
    "r_roots_inside": read_int, "crit_points_inside": read_int,
    # a failed pass leaves the margin -inf, which json writes
    "rouche_margin": lambda v: float(_exactly(float, int)(v)),
    "qprime_roots_enclosed": read_int, "r_roots_enclosed": read_int,
    "absorbed": read_ints, "count_error": _exactly(str, type(None))}


def _component(obj: dict) -> regions.ComponentReport:
    """A ComponentReport from its JSON object, which holds each field."""
    names = {f.name for f in fields(regions.ComponentReport)}
    if set(obj) != names:
        raise ConfigError(f"component keys {sorted(set(obj) ^ names)}")
    return regions.ComponentReport(**{
        k: read_field(obj, k, _COMPONENT_READERS[k]) for k in names})


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
            path = regions.bridging_check(mask, comps, cfg.domain,
                                          cfg.epsilon)
            out.append(DeltaReport(delta=mask.delta, components=tuple(comps),
                                   bridged=path is not None, witness=path))
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
        buf = io.StringIO()     # keeps csv's CRLF rows as written
        writer = csv.DictWriter(buf, fieldnames=SWEEP_M_COLUMNS)
        writer.writeheader()
        writer.writerows(rows)
        write_artifact(path, buf.getvalue())
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
    sharp_ms = read_sharp_ms(sharp_ms)
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
        dump = {"charges": write_points(C.charges)}
        try:
            w = lemma1_curve_bound(C, curve)
        except RootfieldError as exc:
            violations.append({"kind": "curve", "m": m, "error": str(exc),
                               "charges": dump})
            continue
        if w.normalized_value > w.torus_value * (1 + 1e-9) \
                or w.torus_value > bound:
            violations.append({"kind": "curve", "m": m,
                               "witness": w.normalized_value,
                               "torus": w.torus_value, "bound": bound,
                               "charges": dump})

    sharp = tuple((m, float(sharp_example(m).ratio)) for m in sharp_ms)
    _, m_one = torus_low_potential_point(TorusConfig([0.5]))
    return LemmaSuiteReport(trials=trials, curve_trials=curve_trials,
                            violations=tuple(violations), sharp_ratios=sharp,
                            worst_bound_fraction=worst, m_one_value=m_one)
