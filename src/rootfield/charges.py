"""Coulomb potentials of point charges along curves.

Curve minima of the complex field and modulus-sum potentials (the
`kernels` reductions), certified by a branch-and-bound bracket, the
truncated torus kernel, and the constructive search for a certified
low-potential point on the torus and on a curve.
Both searches prune with bounds from one point (Piyavskii 1972, Shubert
1972): within rho of it a field moves by at most `kernels.ball_bound`, and
each modulus-sum term stays at least 1/(d_k + rho), which the torus scan
sums and `curve_min` bounds by S/(1 + rho/d), above the ball bound's.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import CertificateError, SearchExhausted, SingularCurve
from .kernels import (ROUNDING, ball_bound, field_modulus_nearest,
                      modulus_sum)
from .poly import SINGULAR_GUARD

MIN_SAMPLES = 10_000      # curve_min budget floor, in points per pass
SAMPLES_PER_CHARGE = 100
CERT_FACTOR = 4           # curve_min budget: (1 + this) passes of samples
CERT_REL_TOL = 1e-2       # widest bracket returned when the budget runs out
BRACKET_REL_TOL = 1e-6    # curve_min closes its bracket to this
GRID_PER_CHARGE = 100     # torus candidates per charge
DIST_FLOOR = 10.0         # torus point keeps distance >= 1/(10m)
KERNEL_CAP = 20.0         # f_m plateau height 20m inside |x| < 1/(20m)
_FIRST_INTERVALS = 64     # curve_min's first partition, at least 2m
_TORUS_BLOCK = 64         # torus grid points bounded together
_POLISH_POINTS = 33       # curve_min polish: points per round
_POLISH_ROUNDS = 16       # curve_min polish: rounds, each ~16x narrower


# ---------------------------------------------------------------------------
# types
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ChargeSet:
    """Finite multiset of complex point charges (duplicates allowed)."""

    charges: np.ndarray

    def __post_init__(self):
        z = np.atleast_1d(np.asarray(self.charges, dtype=np.complex128))
        if z.ndim != 1 or z.size < 1:
            raise ValueError("need at least one charge")
        object.__setattr__(self, "charges", z)

    @property
    def m(self) -> int:
        return self.charges.size


@dataclass(frozen=True)
class Curve:
    """Polyline gamma with arclength-proportional parameter t in [0, 1].

    Consecutive duplicate vertices are dropped; the polyline must retain
    at least two distinct vertices.
    """

    vertices: np.ndarray

    def __post_init__(self):
        v = np.atleast_1d(np.asarray(self.vertices, dtype=np.complex128))
        if v.size < 2:
            raise ValueError("curve needs at least two vertices")
        keep = np.concatenate([[True], np.abs(np.diff(v)) > 0.0])
        v = v[keep]
        if v.size < 2:
            raise ValueError("curve has zero length")
        object.__setattr__(self, "vertices", v)
        object.__setattr__(self, "_cum", np.concatenate(
            [[0.0], np.cumsum(np.abs(np.diff(v)))]))
        d = np.diff(v)[:, None]     # the segment table of nearest_points
        object.__setattr__(self, "_start", v[:-1][:, None])
        object.__setattr__(self, "_dir", d)
        object.__setattr__(self, "_dir_conj", np.conj(d))
        object.__setattr__(self, "_dir_sq", np.abs(d) ** 2)

    @property
    def length(self) -> float:
        return float(self._cum[-1])

    def point(self, t):
        """gamma(t) for scalar or array t, clipped to [0, 1]."""
        tt = np.asarray(t, dtype=float)
        cum = self._cum
        s = np.clip(tt, 0.0, 1.0) * cum[-1]
        k = np.clip(np.searchsorted(cum, s, side="right") - 1,
                    0, self.vertices.size - 2)
        seg = cum[k + 1] - cum[k]
        frac = (s - cum[k]) / seg
        out = self.vertices[k] + frac * (self.vertices[k + 1] - self.vertices[k])
        return complex(out) if tt.ndim == 0 else out

    def nearest_points(self, charges):
        """(segments, charges) arrays: nearest segment points, distances."""
        z = np.atleast_1d(np.asarray(charges, dtype=np.complex128))
        frac = np.clip(((z - self._start) * self._dir_conj).real
                       / self._dir_sq, 0.0, 1.0)
        near = self._start + frac * self._dir
        return near, np.abs(z - near)

    def clearance(self, charges) -> float:
        """Smallest distance from any charge to the polyline."""
        return float(self.nearest_points(charges)[1].min())

    def is_conjecture_normalized(self) -> bool:
        """True when gamma(0) = 0 and gamma(1) = 1, to within 1e-12."""
        return (abs(self.vertices[0]) <= 1e-12
                and abs(self.vertices[-1] - 1.0) <= 1e-12)


@dataclass(frozen=True)
class TorusConfig:
    """Charge abscissas wrapped onto the unit torus [0, 1)."""

    points: np.ndarray

    def __post_init__(self):
        x = np.atleast_1d(np.asarray(self.points, dtype=float)) % 1.0
        if x.size < 1:
            raise ValueError("need at least one torus point")
        object.__setattr__(self, "points", x)

    @property
    def m(self) -> int:
        return self.points.size


def torus_distance(a, b):
    """Toroidal distance min(w, 1 - w) with w = (a - b) mod 1."""
    w = np.mod(np.asarray(a, dtype=float) - np.asarray(b, dtype=float), 1.0)
    return np.minimum(w, 1.0 - w)


# ---------------------------------------------------------------------------
# curve minima
# ---------------------------------------------------------------------------

def curve_min(C: ChargeSet, curve: Curve, mode: str = "modulus",
              samples: int | None = None):
    """Certified minimum of the potential along the curve, by branch and
    bound in t.

    The nodes of max(64, 2m) equal parameter intervals, and the
    vertices, are evaluated exactly; every interval whose lower bound is
    below best * (1 - BRACKET_REL_TOL) is halved at a new node, until
    none is left, so the true minimum lies in
    [value * (1 - BRACKET_REL_TOL), value].  An interval of width h lies
    within rho = length * h / 2 of one of its end nodes; from a node with
    modulus sum S, field F and nearest charge at d, points within rho have
    modulus sum >= S/(1 + rho/d), less an (m + 2) eps rounding margin, and
    field modulus >= |F| less `kernels.ball_bound`.
    `samples` sets the budget, (1 + CERT_FACTOR) * samples * m
    point-charge pairs; when it runs out, or no open interval can be
    halved in floating point, the open bracket [lowest bound, value]
    must lie within CERT_REL_TOL of value, else CertificateError, and
    the least node is returned.  A closed bracket's least node is polished
    (`_polish`) outside the budget; that can only lower value, so the
    bracket still holds.  Returns (t*, value) with value attained at t*;
    exact ties between nodes go to the smaller t.
    """
    if mode not in ("field", "modulus"):
        raise ValueError(f"unknown mode {mode!r}")
    if curve.clearance(C.charges) < SINGULAR_GUARD:
        raise SingularCurve("a charge lies on the curve")
    if samples is None:
        samples = max(MIN_SAMPLES, SAMPLES_PER_CHARGE * C.m)
    budget = (1 + CERT_FACTOR) * max(int(samples), 2) * C.m
    eps = np.finfo(float).eps
    margin = ROUNDING * (C.m + 2) * eps
    # rounding of the curve points themselves, added to every radius
    reach = 8.0 * eps * (np.abs(curve.vertices).max()
                         + curve.vertices.size * curve.length)

    def evaluate(ts):
        f, s, *rest = field_modulus_nearest(curve.point(ts), C.charges)
        return [ts, s if mode == "modulus" else np.abs(f), s, *rest]

    def lower(node, h):
        _, v, *terms = node
        rho = 0.5 * (1.0 + 4.0 * eps) * curve.length * h + reach
        if mode == "modulus":
            return terms[0] / (1.0 + rho / terms[1]) * (1.0 - margin)
        return v - ball_bound(rho, *terms, C.m)

    # the vertices are nodes too: a minimum at a corner is evaluated there
    nodes = evaluate(np.union1d(
        np.linspace(0.0, 1.0, max(_FIRST_INTERVALS, 2 * C.m) + 1),
        curve._cum[1:-1] / curve.length))
    used = nodes[0].size * C.m
    i = int(np.argmin(nodes[1]))          # first occurrence -> smaller t
    best_t, best = float(nodes[0][i]), float(nodes[1][i])
    left = [x[:-1] for x in nodes]        # interval k runs from left[.][k]
    right = [x[1:] for x in nodes]        # to right[.][k]
    ts = [nodes[0]]
    while True:
        h = right[0] - left[0]
        lo = np.minimum(lower(left, h), lower(right, h))
        keep = lo < best * (1.0 - BRACKET_REL_TOL)
        if not keep.any():
            break
        lo = lo[keep]
        left = [x[keep] for x in left]
        right = [x[keep] for x in right]
        mid = 0.5 * (left[0] + right[0])
        split = (left[0] < mid) & (mid < right[0])
        n_new = int(split.sum())
        if not n_new or used + n_new * C.m > budget:
            if best - lo.min() <= CERT_REL_TOL * best:
                return best_t, best
            raise CertificateError(
                "curve minimum bracket did not close within the budget",
                {"samples": samples, "value": best, "lower": float(lo.min())})
        new = evaluate(mid[split])
        ts.append(new[0])
        used += n_new * C.m
        v = new[1].min()
        t = float(new[0][new[1] == v].min())
        if v < best or (v == best and t < best_t):
            best_t, best = t, float(v)
        whole = ~split
        left = [np.concatenate([a[whole], a[split], b])
                for a, b in zip(left, new)]
        right = [np.concatenate([a[whole], b, a[split]])
                 for a, b in zip(right, new)]
    return _polish(lambda t: evaluate(t)[1], np.sort(np.concatenate(ts)),
                   best_t, best)


def _polish(values, nodes: np.ndarray, t: float, value: float):
    """(t, value) moved to the least value found near t.

    The interval between the nodes next to t is sampled at _POLISH_POINTS
    even points, then the interval between the points next to the least
    value so far, and so on, until it is a few rounding units wide.  A
    point replaces t only when its value is lower, so the value can only
    fall.  The bracket leaves value within BRACKET_REL_TOL of the minimum,
    not at it; the polish brings it to the local minimum near t.
    """
    eps = np.finfo(float).eps
    for _ in range(_POLISH_ROUNDS):
        k = int(np.searchsorted(nodes, t))
        lo, hi = nodes[max(k - 1, 0)], nodes[min(k + 1, nodes.size - 1)]
        if not hi - lo > 8.0 * eps:
            break
        nodes = np.linspace(lo, hi, _POLISH_POINTS)
        v = values(nodes)
        i = int(np.argmin(v))
        if v[i] < value:
            t, value = float(nodes[i]), float(v[i])
    return t, value


@dataclass(frozen=True)
class SharpExample:
    charges: ChargeSet
    t: float
    value: float
    ratio: float    # value / (m ln m)


def sharp_example(m: int) -> SharpExample:
    """Charges j/m + i/m over the segment [0, 1]: growth like m log m.

    The achieved minimum is checked against the harmonic-sum floor
    m * H_m / (2 sqrt 2), which follows from comparing distances at t = 0.
    """
    if m < 2:
        raise ValueError("m must be at least 2")
    j = np.arange(1, m + 1, dtype=float)
    C = ChargeSet(j / m + 1j / m)
    gamma = Curve(np.array([0.0 + 0.0j, 1.0 + 0.0j]))
    t, value = curve_min(C, gamma, mode="modulus")
    floor = float(m * np.sum(1.0 / j) / (2.0 * np.sqrt(2.0)))
    if value < floor:
        raise CertificateError(
            "sharp-example minimum fell below its harmonic floor",
            {"m": m, "value": value, "floor": floor})
    return SharpExample(C, t, value, float(value / (m * np.log(m))))


# ---------------------------------------------------------------------------
# torus certificate
# ---------------------------------------------------------------------------

def truncated_kernel(m: int, x):
    """f_m(x): 1/|x| away from zero, capped at 20m for |x| < 1/(20m)."""
    if m < 1:
        raise ValueError("m must be at least 1")
    d = torus_distance(x, 0.0)
    cap = KERNEL_CAP * m
    small = d < 1.0 / cap
    out = np.where(small, cap, 1.0 / np.where(small, 1.0, d))
    return float(out) if np.ndim(x) == 0 else out


def torus_low_potential_point(T: TorusConfig):
    """Grid point at toroidal distance >= 1/(10m) from every charge whose
    potential sum is smallest; certified against 20 m log(20m).

    The uniform grid has GRID_PER_CHARGE * m candidates; the measure
    argument behind the bound leaves at least 7/10 of the torus feasible,
    so the scan cannot come up empty on correct input.  The grid is cut
    into blocks of _TORUS_BLOCK points.  Every point of a block lies
    within rho of its centre c, so its potential is at least
    sum 1/(d(c, x) + rho) over the charges x, less a rounding margin of
    order m eps.  Blocks are evaluated exactly, in increasing order of
    that bound and only while it is at most the best value so far; the
    points, arithmetic and tie rule are a full scan's, so is the result.
    """
    m = T.m
    n = GRID_PER_CHARGE * m
    grid = np.arange(n, dtype=float) / n
    floor = 1.0 / (DIST_FLOOR * m)
    first = np.arange(0, n, _TORUS_BLOCK)
    last = np.minimum(first + _TORUS_BLOCK, n) - 1
    eps = np.finfo(float).eps
    # computed distances are within 1.5 eps of exact ones; 8 eps covers
    # those at the centre and at a grid point and the rounding of both ends
    rho = (last - first) / (2.0 * n) + 8.0 * eps
    d = torus_distance((first + last)[:, None] / (2.0 * n), T.points[None, :])
    bounds = np.sum(1.0 / (d + rho[:, None]), axis=1) \
        * (1.0 - ROUNDING * (m + 2) * eps)
    best_i, best = -1, np.inf
    for b in np.argsort(bounds, kind="stable"):
        if bounds[b] > best:
            break
        d = torus_distance(grid[first[b]:last[b] + 1, None],
                           T.points[None, :])
        rows = np.where(d.min(axis=1) >= floor)[0]
        if rows.size:
            vals = np.sum(1.0 / d[rows], axis=1)
            k = int(np.argmin(vals))      # first occurrence -> smaller y
            i = int(first[b] + rows[k])
            if vals[k] < best or (vals[k] == best and i < best_i):
                best_i, best = i, float(vals[k])
    if not np.isfinite(best):
        raise SearchExhausted("no torus grid point clears the distance floor")
    bound = KERNEL_CAP * m * np.log(KERNEL_CAP * m)
    if best > bound:
        raise SearchExhausted(
            f"best torus potential {best:.6g} exceeds the certified "
            f"bound {bound:.6g}")
    return float(grid[best_i]), best


# ---------------------------------------------------------------------------
# curve bound via projection
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LemmaWitness:
    t: float
    point: complex           # on the input curve
    value: float             # modulus potential at point, input frame
    normalized_value: float  # same after mapping endpoints to 0 and 1
    torus_value: float       # certified bound from the grid search
    torus_point: float


def _lift_candidates(rn: np.ndarray, tk: np.ndarray, y: float) -> list[float]:
    # all t with Re gamma_n(t) = y + k for some integer k
    out = set()
    for k in range(rn.size - 1):
        ra, rb = rn[k], rn[k + 1]
        lo, hi = min(ra, rb), max(ra, rb)
        for kk in range(int(np.floor(lo - y)), int(np.ceil(hi - y)) + 1):
            target = y + kk
            if lo <= target <= hi:
                if ra == rb:
                    out.add(float(tk[k]))
                else:
                    frac = (target - ra) / (rb - ra)
                    out.add(float(tk[k] + frac * (tk[k + 1] - tk[k])))
    return sorted(out)


def lemma1_curve_bound(C: ChargeSet, curve: Curve) -> LemmaWitness:
    """Certified low-potential point on the curve.

    Endpoints are mapped to 0 and 1 (translate, rotate, scale; charges
    transformed identically), charge abscissas are wrapped onto the torus,
    and the torus point is lifted back to a curve parameter.  The chain
    2-D potential <= abscissa potential <= torus potential <= 20 m log(20m)
    is re-verified numerically on the witness.
    """
    v0, v1 = curve.vertices[0], curve.vertices[-1]
    s = v1 - v0
    if abs(s) < SINGULAR_GUARD:
        raise ValueError("curve endpoints must be distinct")
    zn = (C.charges - v0) / s
    # the torus point keeps torus distance >= 1/(10m) from every wrapped
    # abscissa, and |y - x| >= torus_distance(y, x mod 1), so no charge
    # projects onto it
    y, torus_value = torus_low_potential_point(TorusConfig(zn.real))
    rn = ((curve.vertices - v0) / s).real
    cum = curve._cum
    # some curve point projects onto y: the scan returns y = i/(100m) with
    # i < 100m, so 0 <= y <= 1 - 1/(100m); rn starts at exactly 0 and ends
    # at Re(s/s), 1 up to a few ulps; so some segment has lo <= y <= hi,
    # and _lift_candidates returns y itself for kk = 0
    cands = np.array(_lift_candidates(rn, cum / cum[-1], y))
    gns = (curve.point(cands) - v0) / s
    ps = modulus_sum(gns, zn)
    i = int(np.argmin(ps))               # first occurrence -> smaller t
    best_t, best_p, gn = float(cands[i]), float(ps[i]), gns[i]
    one_d = float(modulus_sum(gn.real, zn.real))
    # gn.real is y + k up to the rounding of rn, cum, curve.point and
    # (z - v0)/s: at most ROUNDING * N eps max|v|/|s| for N vertices.  Every
    # abscissa keeps torus distance >= 1/(DIST_FLOOR m) from y, so that
    # rounding raises one_d by at most the factor 1/(1 - shift); at
    # shift >= 1 it certifies nothing, and only the fixed slack is left
    shift = (DIST_FLOOR * C.m * ROUNDING * curve.vertices.size
             * np.finfo(float).eps * np.abs(curve.vertices).max() / abs(s))
    slack = 1.0 + 1e-9
    room = slack / (1.0 - shift) if shift < 1.0 else slack
    if not (best_p <= one_d * slack and one_d <= torus_value * room):
        raise CertificateError(
            "projection chain inequality failed at the witness",
            {"two_d": best_p, "one_d": one_d, "torus": torus_value})
    return LemmaWitness(
        t=best_t, point=curve.point(best_t), value=best_p / abs(s),
        normalized_value=best_p, torus_value=torus_value, torus_point=y)
