"""Argument-principle root counting along contours.

Winding numbers are accumulated from principal-branch argument increments
between consecutive samples of a circle or of one segment of a segment
set.  Any single increment above pi/2 triggers a doubling of the sample
density (up to MAX_REFINE doublings), which prevents branch-jump
undercounting without needing derivative quadrature.

Magnitudes are compared in log2 space so that degree-500 products never
overflow.
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
    """Closed contour: a circle traced once counterclockwise, or a closed
    set of directed segments.

    `samples` is the build-time sampling and `refinement` its density in
    samples per unit arclength; adaptive passes rebuild the sampling from
    the stored geometry at doubled density.  A circle is one run of
    samples (first == last).  A segment set is one run per segment a -> b,
    sampled at a + (k/n)(b - a) for k = 0..n, in the order of `segments`;
    argument increments are taken within a run only, so the segments may
    come in any order.
    """

    kind: str                       # circle | segments
    samples: np.ndarray
    refinement: float
    center: complex = 0j
    radius: float = 0.0
    segments: np.ndarray | None = None   # (k, 2) rows (a, b)


def circle(center, radius: float, refinement: float = 64.0) -> Contour:
    if radius <= 0:
        raise ValueError("circle radius must be positive")
    c = complex(center)
    pts = _sample_circle(c, radius, refinement)
    return Contour("circle", pts, refinement, center=c, radius=radius)


def segment_set(segments, refinement: float = 64.0) -> Contour:
    """Contour over directed segments (a, b) that form closed loops: every
    point starts as many segments as it ends.  Loops counterclockwise
    count their inside, clockwise ones (holes) subtract it."""
    s = np.asarray(segments, dtype=np.complex128).reshape(-1, 2)
    if not s.size or not np.array_equal(np.sort(s[:, 0]), np.sort(s[:, 1])):
        raise ValueError("segments must form closed loops")
    return Contour("segments", _sample_segments(s, refinement), refinement,
                   segments=s)


def _sample_circle(center: complex, radius: float, refinement: float):
    n = max(16, int(np.ceil(2 * np.pi * radius * refinement)))
    t = np.arange(n) / n
    pts = center + radius * np.exp(2j * np.pi * t)
    return np.concatenate([pts, pts[:1]])


def _steps(segments: np.ndarray, density: float) -> np.ndarray:
    """Sample steps per segment, n = max(1, ceil(|b - a|*density))."""
    d = np.abs(segments[:, 1] - segments[:, 0])
    return np.maximum(1, np.ceil(d * density).astype(int))


def _sample_segments(segments: np.ndarray, density: float) -> np.ndarray:
    """One run per segment a -> b: a + (k/n)*(b - a), k = 0..n."""
    a, b = segments[:, 0], segments[:, 1]
    runs = _steps(segments, density) + 1
    ends = np.cumsum(runs)
    k = np.arange(ends[-1]) - np.repeat(ends - runs, runs)
    t = k / np.repeat(runs - 1, runs)
    return np.repeat(a, runs) + t * np.repeat(b - a, runs)


def _seams(c: Contour, level: int) -> np.ndarray:
    """Indices of the increments that join two runs of the sampling."""
    if c.kind == "circle":
        return np.zeros(0, dtype=int)
    density = c.refinement * 2.0 ** level
    return np.cumsum(_steps(c.segments, density) + 1)[:-1] - 1


def loop_area(segments: np.ndarray) -> float:
    """Signed shoelace area enclosed by a closed set of segments, (k, 2)
    rows (a, b); positive when the loops run counterclockwise."""
    a, b = segments[:, 0], segments[:, 1]
    return float(0.5 * np.sum(a.real * b.imag - a.imag * b.real))


def _resample(c: Contour, level: int) -> np.ndarray:
    density = c.refinement * 2.0 ** level
    if c.kind == "circle":
        return _sample_circle(c.center, c.radius, density)
    return _sample_segments(c.segments, density)


# ---------------------------------------------------------------------------
# counting
# ---------------------------------------------------------------------------

def count_roots_in(p: Polynomial, c: Contour) -> int:
    """Number of roots of p strictly inside the contour (with multiplicity).

    The winding of p along the contour is accumulated from principal-branch
    argument increments, first over the contour's own samples.  Whenever a
    single increment exceeds pi/2 or the total misses an integer by more
    than WINDING_TOL, the sampling density doubles, up to MAX_REFINE times.
    Clearance (no root within 2/refinement of a sample) is enforced against
    the density actually used: exactly when the root list is stored,
    otherwise via the safe direction of the Newton-step bound (a small
    |p/p'| places a root provably nearby).  A count whose sign disagrees
    with the orientation of the contour, or which exceeds the degree,
    raises ImpossibleCount.
    """
    if p.degree < 1:
        return 0
    area = np.pi * c.radius ** 2 if c.kind == "circle" else \
        loop_area(c.segments)
    for level in range(MAX_REFINE + 1):
        pts = c.samples if level == 0 else _resample(c, level)
        clearance = 2.0 / (c.refinement * 2.0 ** level)
        phase, logmag = phase_logmag(p.coeffs, pts)
        floor = majorant_logmag(p.coeffs, pts) + _NOISE_LOG2
        if np.any(logmag <= floor):
            raise RootOnContour(0.0, clearance)
        inc = np.angle(phase[1:] * np.conj(phase[:-1]))
        inc[_seams(c, level)] = 0.0
        if np.max(np.abs(inc)) > _MAX_ARG_STEP and level < MAX_REFINE:
            continue
        _check_clearance(p, pts, clearance)
        winding = float(inc.sum() / (2 * np.pi))
        if abs(winding - round(winding)) > WINDING_TOL:
            if level < MAX_REFINE:
                continue
            raise NonIntegerWinding(winding)
        count = int(round(winding))
        if abs(count) > p.degree or count * area < 0:
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
