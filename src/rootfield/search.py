"""Supercharging probe: maximize the minimum field modulus along a curve.

Multi-restart Nelder-Mead over the 2m real charge coordinates with a
penalty for entering the exclusion shell around the curve.  The search
scores a configuration by the field modulus at fixed curve points; the
reported value is the winner's certified curve minimum, a bracket closed
by branch and bound, and the modulus potential at the certified low
point can never beat the torus ceiling.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .charges import (ChargeSet, Curve, SINGULAR_GUARD, curve_min,
                      lemma1_curve_bound)
from .errors import BudgetExhausted, ConfigError
from .kernels import field_sum

SEARCH_SAMPLES = 1_000    # coarse density used inside the optimizer
PENALTY_BASE = 1_000.0    # penalty scale multiplier on the running best
CEILING_SLACK = 1e-9      # one charge saturates the torus ceiling exactly
_MARGIN_NUDGE = 1e-9      # projection lands this far outside the margin


@dataclass(frozen=True)
class SearchConfig:
    curve: Curve
    m: int
    restarts: int = 8
    budget: int = 20_000
    exclusion_margin: float = 1e-2
    seed: int = 0

    def __post_init__(self):
        if self.m < 1:
            raise ConfigError("need at least one charge")
        if self.restarts < 1 or self.budget < 1:
            raise ConfigError("restarts and budget must be positive")
        if not self.exclusion_margin > 0:
            raise ConfigError("exclusion_margin must be positive")
        if not self.curve.is_conjecture_normalized():
            raise ConfigError("curve must run from 0 to 1")


@dataclass(frozen=True)
class SearchResult:
    best_charges: ChargeSet
    achieved: float                 # certified curve minimum, field mode
    history: tuple[float, ...]      # best search-grade value per restart
    evals_used: int
    budget_exhausted: bool = False


# ---------------------------------------------------------------------------
# objective
# ---------------------------------------------------------------------------

def _search_points(cfg: SearchConfig) -> np.ndarray:
    """The curve points the search scores on, evenly spaced in t."""
    return cfg.curve.point(np.linspace(0.0, 1.0,
                                       max(SEARCH_SAMPLES, 50 * cfg.m)))


def _penalized(C: ChargeSet, cfg: SearchConfig, scale_ref: float,
               points: np.ndarray) -> float:
    """Least field modulus over points, penalized inside the margin."""
    clearance = cfg.curve.clearance(C.charges)
    viol = max(0.0, cfg.exclusion_margin - clearance)
    if clearance < SINGULAR_GUARD:
        # a charge sits on the curve; keep the penalty finite
        return -PENALTY_BASE * max(1.0, scale_ref) * (1.0 + viol)
    value = float(np.abs(field_sum(points, C.charges)).min())
    if viol > 0.0:
        value -= PENALTY_BASE * max(1.0, scale_ref, abs(value)) * viol
    return value


# ---------------------------------------------------------------------------
# optimizer
# ---------------------------------------------------------------------------

def _shell_init(cfg: SearchConfig, rng: np.random.Generator) -> np.ndarray:
    # charges seeded on the offset curve, margin*(1+u) away from it
    ts = rng.uniform(size=cfg.m)
    base = np.atleast_1d(cfg.curve.point(ts))
    cum = cfg.curve._cum
    k = np.clip(np.searchsorted(cum, ts * cum[-1], side="right") - 1,
                0, cfg.curve.vertices.size - 2)
    seg = np.diff(cfg.curve.vertices)[k]
    normal = 1j * seg / np.abs(seg)
    side = rng.choice([-1.0, 1.0], size=cfg.m)
    dist = cfg.exclusion_margin * (1.0 + rng.uniform(size=cfg.m))
    z = base + normal * side * dist
    return np.concatenate([z.real, z.imag])


def _project_to_margin(curve: Curve, charges: np.ndarray,
                       margin: float) -> np.ndarray:
    """Push any charge in the exclusion shell out to the margin.

    A charge moves away from its nearest curve point, or along that
    segment's normal when it sits on the curve.
    """
    near, dist = curve.nearest_points(charges)
    k = np.argmin(dist, axis=0)            # first segment on ties
    cols = np.arange(charges.size)
    near, dist = near[k, cols], dist[k, cols]
    d = np.diff(curve.vertices)[k]
    normal = 1j * d / np.hypot(d.real, d.imag)   # hypot: as the scalar abs
    with np.errstate(divide="ignore", invalid="ignore"):
        u = np.where(dist < SINGULAR_GUARD, normal, (charges - near) / dist)
    pushed = near + u * margin * (1.0 + _MARGIN_NUDGE)
    return np.where(dist >= margin, charges, pushed)


def optimize_charges(cfg: SearchConfig) -> SearchResult:
    """Multi-restart ascent of the curve-minimum field modulus.

    Every restart runs Nelder-Mead from a fresh margin-shell start; the
    winner is projected back to the feasible set and certified by
    curve_min.  Raises BudgetExhausted (result attached)
    when the evaluation budget dies before the last restart.
    """
    # scipy is imported here, not with the module: no other path needs it
    from scipy import optimize

    rng = np.random.default_rng(cfg.seed)
    points = _search_points(cfg)
    per_restart = max(300, 150 * cfg.m)   # guard; convergence usually wins
    min_viable = 2 * cfg.m + 2            # one full starting simplex
    evals = 0
    history: list[float] = []
    best_x: np.ndarray | None = None
    best_val = -np.inf
    truncated = False
    for _ in range(cfg.restarts):
        allowed = min(per_restart, cfg.budget - evals)
        if allowed < min_viable:
            truncated = True
            break
        x0 = _shell_init(cfg, rng)
        scale_ref = max(1.0, best_val)
        counter = [0]

        def neg(x):
            counter[0] += 1
            C = ChargeSet(x[:cfg.m] + 1j * x[cfg.m:])
            return -_penalized(C, cfg, scale_ref, points)

        res = optimize.minimize(
            neg, x0, method="Nelder-Mead",
            options={"maxfev": int(allowed), "xatol": 1e-10,
                     "fatol": 1e-12, "adaptive": cfg.m > 2})
        evals += counter[0]
        history.append(-float(res.fun))
        if -res.fun > best_val:
            best_val = -float(res.fun)
            best_x = res.x
    if best_x is None:
        raise ConfigError("budget too small to run a single restart")

    z = _project_to_margin(cfg.curve, best_x[:cfg.m] + 1j * best_x[cfg.m:],
                           cfg.exclusion_margin)
    best = ChargeSet(z)
    _, achieved = curve_min(best, cfg.curve, mode="field")
    result = SearchResult(best, float(achieved), tuple(history), evals,
                          budget_exhausted=truncated)
    if truncated:
        raise BudgetExhausted(result)
    return result


# ---------------------------------------------------------------------------
# sweeps
# ---------------------------------------------------------------------------

def conjecture_sweep(curve: Curve, ms, margins, restarts: int = 6,
                     budget: int = 12_000, seed: int = 0) -> list[dict]:
    """One optimization per (m, margin); each row holds m, margin,
    achieved, ratio_linear, ratio_logcorrected, evals and seed, in that
    order.

    ratio_linear is achieved/m and ratio_logcorrected achieved/(m ln m),
    NaN at m = 1 where the log correction is vacuous.  Each row re-checks
    the found configuration against its torus ceiling.
    """
    rows = []
    for i, m in enumerate(ms):
        for j, margin in enumerate(margins):
            row_seed = seed + 1000 * i + j
            cfg = SearchConfig(curve, int(m), restarts=restarts,
                               budget=budget, exclusion_margin=float(margin),
                               seed=row_seed)
            try:
                res = optimize_charges(cfg)
            except BudgetExhausted as exc:
                res = exc.result
            ceiling = lemma1_curve_bound(res.best_charges, curve).value
            if res.achieved > ceiling * (1.0 + CEILING_SLACK):
                raise AssertionError(
                    f"achieved {res.achieved} beat the torus ceiling "
                    f"{ceiling} at m={m}")
            log_ratio = (res.achieved / (m * np.log(m)) if m > 1
                         else float("nan"))
            rows.append({
                "m": int(m), "margin": float(margin),
                "achieved": res.achieved,
                "ratio_linear": res.achieved / m,
                "ratio_logcorrected": log_ratio,
                "evals": res.evals_used, "seed": row_seed,
            })
    return rows
