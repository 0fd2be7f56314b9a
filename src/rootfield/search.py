"""Supercharging probe: maximize the minimum field modulus along a curve.

Multi-restart Nelder-Mead over the 2m real charge coordinates with a
penalty for entering the exclusion shell around the curve.  The search
scores a configuration by the field modulus at fixed curve points; the
reported value is the winner's certified curve minimum, a bracket closed
by branch and bound, and the modulus potential at the certified low
point can never beat the torus ceiling.

The search runs on numpy alone.  `_nelder_mead` takes the iterates of
scipy 1.17's Nelder-Mead step for step, so a search gives the same bits
with or without scipy installed.  `_Objective` builds the curve points
and a charges x points buffer once per search, and the curve holds its
segment table; each call adds the buffer's rows in numpy's pairwise
order, so its field values are `kernels.field_sum`'s bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .charges import (ChargeSet, Curve, SINGULAR_GUARD, curve_min,
                      lemma1_curve_bound)
from .errors import BudgetExhausted, ConfigError

SEARCH_SAMPLES = 1_000    # coarse density used inside the optimizer
PENALTY_BASE = 1_000.0    # penalty scale multiplier on the running best
CEILING_SLACK = 1e-9      # one charge saturates the torus ceiling exactly
_MARGIN_NUDGE = 1e-9      # projection lands this far outside the margin
_XATOL = 1e-10            # Nelder-Mead stops once the simplex spans this
_FATOL = 1e-12            # ... and its values differ by at most this


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


def _sum_rows(t: np.ndarray, lo: int, hi: int) -> None:
    """Add rows lo..hi-1 of t into row lo, in the order numpy's pairwise
    sum adds a contiguous row of hi - lo values: in sequence below 4,
    four accumulators over blocks of four up to 64 (the first block
    seeds them), else the two halves split at a multiple of 4."""
    n = hi - lo
    if n < 4:
        for k in range(lo + 1, hi):
            t[lo] += t[k]
    elif n <= 64:
        end = hi - n % 4
        for k in range(lo + 4, end, 4):
            t[lo:lo + 4] += t[k:k + 4]
        t[lo] += t[lo + 1]
        t[lo + 2] += t[lo + 3]
        t[lo] += t[lo + 2]
        for k in range(end, hi):
            t[lo] += t[k]
    else:
        mid = lo + n // 8 * 4
        _sum_rows(t, lo, mid)
        _sum_rows(t, mid, hi)
        t[lo] += t[mid]


class _Objective:
    """The penalized least field modulus over the search points, with
    what is fixed for a search built once.

    Called on the 2m real coordinates (real parts first) and the penalty
    scale.  The field repeats `kernels.field_sum`: the differences p - z
    of points and charges fill a charges x points table, are inverted in
    place and their rows summed by `_sum_rows`, so it gives the same
    bits.
    """

    def __init__(self, cfg: SearchConfig):
        self.m = cfg.m
        self.margin = cfg.exclusion_margin
        self.curve = cfg.curve
        self.points = _search_points(cfg)
        self._table = np.empty((cfg.m, self.points.size),
                               dtype=np.complex128)

    def field(self, z: np.ndarray) -> np.ndarray:
        """sum_k 1/(p - z_k) at the search points p, for charges off the
        curve; a view of the table, valid until the next call."""
        t = np.subtract(self.points, z[:, None], out=self._table)
        np.divide(1.0, t, out=t)
        _sum_rows(t, 0, self.m)
        return t[0]

    def __call__(self, x: np.ndarray, scale_ref: float) -> float:
        z = x[:self.m] + 1j * x[self.m:]
        clearance = self.curve.clearance(z)
        viol = max(0.0, self.margin - clearance)
        if clearance < SINGULAR_GUARD:
            # a charge sits on the curve; keep the penalty finite
            return -PENALTY_BASE * max(1.0, scale_ref) * (1.0 + viol)
        value = float(np.abs(self.field(z)).min())
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
    seg = cfg.curve._dir[k, 0]
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
    d = curve._dir[k, 0]
    normal = 1j * d / np.hypot(d.real, d.imag)   # hypot: as the scalar abs
    with np.errstate(divide="ignore", invalid="ignore"):
        u = np.where(dist < SINGULAR_GUARD, normal, (charges - near) / dist)
    pushed = near + u * margin * (1.0 + _MARGIN_NUDGE)
    return np.where(dist >= margin, charges, pushed)


class _OutOfCalls(Exception):
    """One more call to the objective would exceed the budget."""


def _nelder_mead(fun, x0: np.ndarray, maxfev: int, adaptive: bool):
    """(x, f, calls): the least vertex of the final simplex, its value
    and the number of calls to fun.

    This is scipy 1.17's `_minimize_neldermead` without bounds or
    callbacks, operation for operation, so that it takes the same
    iterates: the same start simplex, the adaptive coefficients of Gao &
    Han (Comput. Optim. Appl. 51, 2012), and the same reflect, expand,
    contract and shrink arithmetic and unstable re-sorts (tied values
    keep scipy's order).  It stops once the simplex spans at most _XATOL
    and its values differ by at most _FATOL, or when a call would exceed
    maxfev: that step is abandoned and the simplex still sorted.
    """
    x0 = np.asarray(x0, dtype=np.float64).ravel()
    n = x0.size
    if adaptive:
        dim = float(n)
        rho, chi = 1, 1 + 2 / dim
        psi, sigma = 0.75 - 1 / (2 * dim), 1 - 1 / dim
    else:
        rho, chi, psi, sigma = 1, 2, 0.5, 0.5
    sim = np.tile(x0, (n + 1, 1))
    for k in range(n):
        sim[k + 1, k] = (1 + 0.05) * x0[k] if x0[k] != 0 else 0.00025
    fsim = np.full(n + 1, np.inf)
    calls = 0

    def f(x):
        nonlocal calls
        if calls >= maxfev:
            raise _OutOfCalls
        calls += 1
        return fun(x)

    try:
        for k in range(n + 1):
            fsim[k] = f(sim[k])
    except _OutOfCalls:
        pass
    # scipy sorts the first simplex twice; an unstable sort may move ties
    for _ in range(2):
        ind = np.argsort(fsim)
        sim = np.take(sim, ind, 0)
        fsim = np.take(fsim, ind, 0)

    while calls < maxfev:
        try:
            if (np.max(np.ravel(np.abs(sim[1:] - sim[0]))) <= _XATOL and
                    np.max(np.abs(fsim[0] - fsim[1:])) <= _FATOL):
                break
            xbar = np.add.reduce(sim[:-1], 0) / n
            xr = (1 + rho) * xbar - rho * sim[-1]
            fxr = f(xr)
            if fxr < fsim[0]:
                xe = (1 + rho * chi) * xbar - rho * chi * sim[-1]
                fxe = f(xe)
                if fxe < fxr:
                    sim[-1], fsim[-1] = xe, fxe
                else:
                    sim[-1], fsim[-1] = xr, fxr
            elif fxr < fsim[-2]:
                sim[-1], fsim[-1] = xr, fxr
            else:
                if fxr < fsim[-1]:      # outside contraction
                    xc = (1 + psi * rho) * xbar - psi * rho * sim[-1]
                    fxc = f(xc)
                    shrink = not fxc <= fxr
                else:                   # inside contraction
                    xc = (1 - psi) * xbar + psi * sim[-1]
                    fxc = f(xc)
                    shrink = not fxc < fsim[-1]
                if not shrink:
                    sim[-1], fsim[-1] = xc, fxc
                else:
                    for j in range(1, n + 1):
                        sim[j] = sim[0] + sigma * (sim[j] - sim[0])
                        fsim[j] = f(sim[j])
        except _OutOfCalls:
            pass
        ind = np.argsort(fsim)
        sim = np.take(sim, ind, 0)
        fsim = np.take(fsim, ind, 0)
    return sim[0], float(np.min(fsim)), calls


def optimize_charges(cfg: SearchConfig) -> SearchResult:
    """Multi-restart ascent of the curve-minimum field modulus.

    Every restart runs Nelder-Mead from a fresh margin-shell start; the
    winner is projected back to the feasible set and certified by
    curve_min.  Raises BudgetExhausted (result attached)
    when the evaluation budget dies before the last restart.
    """
    rng = np.random.default_rng(cfg.seed)
    objective = _Objective(cfg)
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
        x, f, calls = _nelder_mead(lambda x: -objective(x, scale_ref), x0,
                                   int(allowed), cfg.m > 2)
        evals += calls
        history.append(-f)
        if -f > best_val:
            best_val = -f
            best_x = x
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
