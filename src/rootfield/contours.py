"""Argument-principle root counting along contours.

Winding numbers are accumulated from principal-branch argument increments
between consecutive samples of a circle or of one segment of a segment
set.  Any single increment above pi/2, or fewer than four samples per
possible root, triggers a doubling of the sample density (up to
MAX_REFINE doublings), which prevents branch-jump undercounting without
needing derivative quadrature.

Two phase sources share that loop: the coefficients of p, with magnitudes
compared in log2 space so that degree-500 products never overflow, and
for the zeros of p' the roots of p alone (`count_critical_points_in`).
Coefficients are evaluated and counted here, never solved.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np

from .errors import ImpossibleCount, NonIntegerWinding, RootOnContour
from .kernels import derivative_phase, min_distance
from .poly import Polynomial, majorant_logmag, phase_logmag

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
    """Number of roots of p strictly inside the contour (with multiplicity),
    from the phase of p on its coefficients.  Clearance is checked exactly
    when the root list is stored, otherwise by the Newton-step bound
    degree * |p/p'|, from the log2 magnitudes of p and p' (a small bound
    places a root provably nearby).
    """
    if p.degree < 1:
        return 0

    def phase(pts):
        unit, logmag = phase_logmag(p.coeffs, pts)
        # |p| below the rounding floor: no phase, so "on a root"
        unit[logmag <= majorant_logmag(p.coeffs, pts) + _NOISE_LOG2] = np.nan
        return unit

    return _winding_count(c, p.degree, phase, partial(_check_clearance, p))


def count_critical_points_in(roots, critical, c: Contour) -> int:
    """Number of zeros of p' strictly inside the contour, p = prod (z - a_k)
    over roots, from the phase of p' on the roots alone.  Clearance is
    checked exactly against critical, the solved zeros of p'."""
    return _winding_count(c, np.size(roots) - 1,
                          partial(derivative_phase, roots=roots),
                          partial(_check_distance, critical))


def _winding_count(c: Contour, degree: int, phase, clear) -> int:
    """Winding along c of a polynomial of that degree and unit phase
    phase(pts), first over c's own samples.  The density doubles, up to
    MAX_REFINE times, while there are fewer than 2*pi*degree/_MAX_ARG_STEP
    samples (sparser, a phase winding once per root can advance by nearly
    2*pi per step, which reads as a small backward step), while an
    increment exceeds _MAX_ARG_STEP, or while the total misses an integer
    by more than WINDING_TOL.  A phase that is not finite raises
    RootOnContour, as clear(pts, clearance) does for a root too close; a
    count of the wrong sign for c's orientation, or above the degree,
    raises ImpossibleCount."""
    area = np.pi * c.radius ** 2 if c.kind == "circle" else \
        loop_area(c.segments)
    for level in range(MAX_REFINE + 1):
        pts = c.samples if level == 0 else _resample(c, level)
        if pts.size < 2 * np.pi * degree / _MAX_ARG_STEP \
                and level < MAX_REFINE:
            continue
        clearance = 2.0 / (c.refinement * 2.0 ** level)
        unit = phase(pts)
        if not np.all(np.isfinite(unit)):
            raise RootOnContour(0.0, clearance)
        inc = np.angle(unit[1:] * np.conj(unit[:-1]))
        inc[_seams(c, level)] = 0.0
        if np.max(np.abs(inc)) > _MAX_ARG_STEP and level < MAX_REFINE:
            continue
        clear(pts, clearance)
        winding = float(inc.sum() / (2 * np.pi))
        if abs(winding - round(winding)) > WINDING_TOL:
            if level < MAX_REFINE:
                continue
            raise NonIntegerWinding(winding)
        count = int(round(winding))
        if abs(count) > degree or count * area < 0:
            raise ImpossibleCount(count, degree)
        return count
    raise AssertionError("unreachable")  # pragma: no cover


def _check_clearance(p: Polynomial, pts: np.ndarray, clearance: float):
    if p.roots is not None and p.roots.size:
        _check_distance(p.roots, pts, clearance)
        return
    dc = p.coeffs[1:] * np.arange(1, p.degree + 1)
    # nearest root lies within degree * |p/p'| of the sample, so a small
    # quotient proves a clearance violation (the converse is not provable
    # from |p| alone); |p| > 0 here, as its phase is defined
    with np.errstate(over="ignore"):
        bound = p.degree * np.exp2(phase_logmag(p.coeffs, pts)[1]
                                   - phase_logmag(dc, pts)[1])
    if np.any(bound < clearance):
        raise RootOnContour(float(bound.min()), clearance)


def _check_distance(zeros, pts: np.ndarray, clearance: float):
    """RootOnContour if a zero lies closer than clearance to a sample."""
    dmin = float(min_distance(pts, zeros).min())
    if dmin < clearance:
        raise RootOnContour(dmin, clearance)
