"""Argument-principle root counting and Rouché dominance along contours.

Winding numbers are accumulated from principal-branch argument increments
between consecutive samples.  Any single increment above pi/2 triggers a
doubling of the sample density (up to MAX_REFINE doublings), which prevents
branch-jump undercounting without needing derivative quadrature.

All magnitude comparisons run in log2 space so that degree-500 products
never overflow; linear margins are reconstructed at the end and may round
to inf when the underlying values exceed double range.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ImpossibleCount, NonIntegerWinding, RootOnContour
from .kernels import min_distance
from .poly import Polynomial, majorant_logmag, newton_ratio, phase_logmag

WINDING_TOL = 0.2      # |winding - nearest integer| allowed after refinement
MAX_REFINE = 6         # sample-density doublings before giving up
_MAX_ARG_STEP = np.pi / 2
_NOISE_LOG2 = -50.0    # |p| below 2^-50 * majorant means "on a root"


@dataclass(frozen=True)
class Contour:
    """Closed curve traced once counterclockwise.

    `samples` is the build-time sampling (first == last).  `refinement`
    is the sample density in samples per unit arclength; adaptive passes
    rebuild the sampling from the stored geometry at doubled density.
    """

    kind: str                       # circle | polygon-loop | grid-component-boundary
    samples: np.ndarray
    refinement: float
    center: complex = 0j
    radius: float = 0.0
    vertices: np.ndarray | None = None

    def __post_init__(self):
        s = np.asarray(self.samples, dtype=np.complex128)
        if len(s) < 4 or s[0] != s[-1]:
            raise ValueError("contour samples must form a closed loop")
        object.__setattr__(self, "samples", s)


def circle(center, radius: float, refinement: float = 64.0) -> Contour:
    if radius <= 0:
        raise ValueError("circle radius must be positive")
    c = complex(center)
    pts = _sample_circle(c, radius, refinement)
    return Contour("circle", pts, refinement, center=c, radius=radius)


def polygon_loop(vertices, refinement: float = 64.0) -> Contour:
    v = np.asarray([complex(p) for p in vertices], dtype=np.complex128)
    if len(v) >= 2 and v[0] == v[-1]:
        v = v[:-1]
    if len(v) < 3:
        raise ValueError("polygon loop needs at least 3 distinct vertices")
    pts = _sample_polyline(v, refinement)
    return Contour("polygon-loop", pts, refinement, vertices=v)


def grid_boundary(vertices, refinement: float) -> Contour:
    """Contour along a traced grid-component boundary polyline."""
    v = np.asarray(vertices, dtype=np.complex128)
    if len(v) >= 2 and v[0] == v[-1]:
        v = v[:-1]
    pts = _sample_polyline(v, refinement)
    return Contour("grid-component-boundary", pts, refinement, vertices=v)


def _sample_circle(center: complex, radius: float, refinement: float):
    n = max(16, int(np.ceil(2 * np.pi * radius * refinement)))
    t = np.arange(n) / n
    pts = center + radius * np.exp(2j * np.pi * t)
    return np.concatenate([pts, pts[:1]])


def _sample_polyline(vertices: np.ndarray, refinement: float) -> np.ndarray:
    """The closed polyline through vertices, each edge a -> b sampled at
    a + (k/n)*(b - a), k = 1..n, n = max(1, ceil(|b - a|*refinement))."""
    d = np.roll(vertices, -1) - vertices
    n = np.maximum(1, np.ceil(np.abs(d) * refinement).astype(int))
    ends = np.cumsum(n)
    k = np.arange(1, ends[-1] + 1) - np.repeat(ends - n, n)
    t = k / np.repeat(n, n)
    return np.concatenate([vertices[:1],
                           np.repeat(vertices, n) + t * np.repeat(d, n)])


def loop_area(loop: np.ndarray) -> float:
    """Signed shoelace area of a closed vertex loop; positive when CCW."""
    v = loop[:-1]
    w = loop[1:]
    return float(0.5 * np.sum(v.real * w.imag - v.imag * w.real))


def _resample(c: Contour, level: int) -> np.ndarray:
    density = c.refinement * 2.0 ** level
    if c.kind == "circle":
        return _sample_circle(c.center, c.radius, density)
    return _sample_polyline(c.vertices, density)


# ---------------------------------------------------------------------------
# counting
# ---------------------------------------------------------------------------

def count_roots_in(p: Polynomial, c: Contour) -> int:
    """Number of roots of p strictly inside the contour (with multiplicity).

    The winding of p along the contour is accumulated from principal-branch
    argument increments, first over the contour's own samples.  Whenever a single increment exceeds pi/2 or the
    total misses an integer by more than WINDING_TOL, the sampling density
    doubles, up to MAX_REFINE times.  Clearance (no root within
    2/refinement of a sample) is enforced against the density actually
    used: exactly when the root list is stored, otherwise via the safe
    direction of the Newton-step bound (a small |p/p'| places a root
    provably nearby).  A count whose sign disagrees with the orientation
    of the samples, or which exceeds the degree, raises ImpossibleCount.
    """
    if p.degree < 1:
        return 0
    for level in range(MAX_REFINE + 1):
        pts = c.samples if level == 0 else _resample(c, level)
        clearance = 2.0 / (c.refinement * 2.0 ** level)
        phase, logmag = phase_logmag(p.coeffs, pts)
        floor = majorant_logmag(p.coeffs, pts) + _NOISE_LOG2
        if np.any(logmag <= floor):
            raise RootOnContour(0.0, clearance)
        inc = np.angle(phase[1:] * np.conj(phase[:-1]))
        if np.max(np.abs(inc)) > _MAX_ARG_STEP and level < MAX_REFINE:
            continue
        _check_clearance(p, pts, clearance)
        winding = float(inc.sum() / (2 * np.pi))
        if abs(winding - round(winding)) > WINDING_TOL:
            if level < MAX_REFINE:
                continue
            raise NonIntegerWinding(winding)
        count = int(round(winding))
        if abs(count) > p.degree or count * loop_area(pts) < 0:
            raise ImpossibleCount(count, p.degree)
        return count
    raise AssertionError("unreachable")  # pragma: no cover


def _check_clearance(p: Polynomial, pts: np.ndarray, clearance: float):
    if p.roots is not None and p.roots.size:
        # exact: the nearest stored root of every sample
        dmin = float(min_distance(pts, p.roots).min())
        if dmin < clearance:
            raise RootOnContour(dmin, clearance)
        return
    if p.degree == 0:
        return
    dc = p.coeffs[1:] * np.arange(1, p.degree + 1)
    with np.errstate(divide="ignore", invalid="ignore"):
        step = np.abs(newton_ratio(p.coeffs, dc, pts))
    # nearest root lies within degree * |p/p'| of the sample, so a small
    # quotient proves a clearance violation (the converse is not provable
    # from |p| alone)
    bound = p.degree * step
    if np.any(bound < clearance):
        raise RootOnContour(float(np.nanmin(bound)), clearance)


# ---------------------------------------------------------------------------
# Rouché dominance
# ---------------------------------------------------------------------------

def rouche_dominates(f: Polynomial, g: Polynomial, c: Contour):
    """(dominates, margin): does |f| > |g| hold on every contour sample?

    margin is min over samples of |f| - |g| in linear units (inf when the
    true value exceeds double range; the verdict itself is computed in
    log space and never overflows).
    """
    pts = c.samples
    _, mf = phase_logmag(f.coeffs, pts)
    _, mg = phase_logmag(g.coeffs, pts)
    margin = _min_signed_difference(mf, mg)
    return bool(margin > 0), margin


def _min_signed_difference(mf: np.ndarray, mg: np.ndarray) -> float:
    """min_i (2^mf[i] - 2^mg[i]) without forming the powers directly."""
    sign = np.sign(mf - mg)                  # 0 where equal (difference 0)
    both_ninf = np.isneginf(mf) & np.isneginf(mg)
    sign[both_ninf] = 0.0
    if np.all(sign == 0):
        return 0.0
    lo = np.minimum(mf, mg)
    gap = np.abs(mf - mg)
    with np.errstate(over="ignore"):
        logdiff = np.where(
            gap < 52.0,
            lo + np.log2(np.maximum(np.expm1(gap * np.log(2.0)), 5e-324)),
            np.maximum(mf, mg),
        )
    neg = sign < 0
    if np.any(neg):
        return float(-(2.0 ** np.max(logdiff[neg])))
    pos = sign > 0
    vals = logdiff[pos]
    return float(2.0 ** np.min(vals)) if vals.size else 0.0
