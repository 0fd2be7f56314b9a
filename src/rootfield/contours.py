"""Argument-principle root counting along contours, each held as its
geometry.

`count_roots_in` counts the roots of p inside a circle from its
coefficients, over samples of the circle from its one sampler.  Winding
numbers are accumulated from principal-branch argument increments
between consecutive samples, with magnitudes compared in log2 space so
that degree-500 products never overflow.  Any single increment above
pi/2, or fewer than four samples per possible root, triggers a doubling
of the sample density (up to MAX_REFINE doublings), which prevents
branch-jump undercounting.  Coefficients are counted here, never solved.

`field_winding` gives the winding of p'/p around a circle or a closed
set of directed segments from the roots of p alone, certified on each
piece by a bound on the root sum: the zeros of p' inside are that
winding plus the roots of p inside, which the caller counts.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ImpossibleCount, NonIntegerWinding, RootOnContour
from .kernels import ROUNDING, field_modulus_nearest, field_sum, min_distance
from .poly import Polynomial, majorant_logmag, phase_logmag

WINDING_TOL = 0.2      # |winding - nearest integer| allowed after refinement
MAX_REFINE = 6         # sample-density doublings before giving up
_DENSITY = 64.0        # samples per unit arclength of a count's first pass
_MAX_ARG_STEP = np.pi / 2
_NOISE_LOG2 = -50.0    # |p| below 2^-50 * majorant means "on a root"
_MAX_HALVINGS = 30     # halvings before a piece counts as meeting a zero or
                       # a pole of p'/p


@dataclass(frozen=True)
class Contour:
    """Closed contour: a circle traced once counterclockwise."""

    center: complex
    radius: float


def circle(center, radius: float) -> Contour:
    if radius <= 0:
        raise ValueError("circle radius must be positive")
    return Contour(complex(center), radius)


def _circle_samples(c: Contour, level: int = 0) -> np.ndarray:
    """The circle c at _DENSITY * 2**level samples per unit arclength (at
    least 16), one run with first == last."""
    n = max(16, int(np.ceil(2 * np.pi * c.radius
                            * (_DENSITY * 2.0 ** level))))
    t = np.arange(n) / n
    pts = c.center + c.radius * np.exp(2j * np.pi * t)
    return np.concatenate([pts, pts[:1]])


# ---------------------------------------------------------------------------
# counting
# ---------------------------------------------------------------------------

def count_roots_in(p: Polynomial, c: Contour) -> int:
    """Number of roots of p strictly inside the circle c (with
    multiplicity), from the phase of p on its coefficients, first at
    _DENSITY samples per unit arclength.

    The density doubles, up to MAX_REFINE times, while there are fewer
    than 2*pi*degree/_MAX_ARG_STEP samples (sparser, a phase winding once
    per root can advance by nearly 2*pi per step, which reads as a small
    backward step), while an increment exceeds _MAX_ARG_STEP, or while the
    total misses an integer by more than WINDING_TOL.  No phase, or a root
    closer than the clearance, raises RootOnContour; a count below zero
    or above the degree raises ImpossibleCount.
    """
    degree = p.degree
    if degree < 1:
        return 0
    for level in range(MAX_REFINE + 1):
        pts = _circle_samples(c, level)
        if pts.size < 2 * np.pi * degree / _MAX_ARG_STEP \
                and level < MAX_REFINE:
            continue
        clearance = 2.0 / (_DENSITY * 2.0 ** level)
        unit, logmag = phase_logmag(p.coeffs, pts)
        # |p| below the rounding floor: no phase, so "on a root"
        if np.any(logmag <= majorant_logmag(p.coeffs, pts) + _NOISE_LOG2) \
                or not np.all(np.isfinite(unit)):
            raise RootOnContour(0.0, clearance)
        inc = np.angle(unit[1:] * np.conj(unit[:-1]))
        if np.max(np.abs(inc)) > _MAX_ARG_STEP and level < MAX_REFINE:
            continue
        if p.roots is not None and p.roots.size:
            near = min_distance(pts, p.roots)
        else:
            # the nearest root lies within degree * |p/p'| of the sample, so
            # a small quotient proves a clearance violation (the converse is
            # not provable from |p| alone); |p| > 0 here, as it has a phase
            dc = p.coeffs[1:] * np.arange(1, degree + 1)
            with np.errstate(over="ignore"):
                near = degree * np.exp2(logmag - phase_logmag(dc, pts)[1])
        if np.any(near < clearance):
            raise RootOnContour(float(near.min()), clearance)
        winding = float(inc.sum() / (2 * np.pi))
        if abs(winding - round(winding)) > WINDING_TOL:
            if level < MAX_REFINE:
                continue
            raise NonIntegerWinding(winding)
        count = int(round(winding))
        if not 0 <= count <= degree:
            raise ImpossibleCount(count, degree)
        return count
    raise AssertionError("unreachable")  # pragma: no cover


def field_winding(roots, c) -> int:
    """Winding number of F = p'/p = sum_k 1/(z - a_k) around the contour,
    p = prod (z - a_k) over roots: the circle c, or c as (k, 2) rows of
    directed segments (a, b) that form closed loops, every point starting
    as many segments as it ends (ValueError otherwise).  The zeros of p'
    inside are this winding plus the roots inside, clockwise loops
    (holes) counting negatively.

    The winding is certified piece by piece.  On a piece within rho of its
    midpoint w, |F(z) - F(w)| <= rho S/(d - rho) with S = sum_k 1/|w - a_k|
    and d = min_k |w - a_k|.  When rho < d and that bound plus the rounding
    of F(w) is below |F(w)|, F has no zero on the piece and arg F stays
    within pi/2 of arg F(w), so the principal increment between the
    piece's ends is exact.  Pieces start as the arcs between a circle's
    samples or as whole segments, and one that fails is halved.  A piece
    still failing after _MAX_HALVINGS halvings (a zero of p' or a root of
    p on or next to the contour) raises RootOnContour, as an empty root
    list (p' = 0) does at once.
    """
    on_circle = isinstance(c, Contour)
    if on_circle:
        pts = _circle_samples(c)
        u, v = pts[:-1], pts[1:]
    else:
        u, v = np.asarray(c, dtype=np.complex128).reshape(-1, 2).T
        if not u.size or not np.array_equal(np.sort(u), np.sort(v)):
            raise ValueError("segments must form closed loops")
    a = np.asarray(roots, dtype=np.complex128).ravel()
    if not a.size:
        raise RootOnContour(0.0, np.inf)
    f0, f1 = field_sum(u, a), field_sum(v, a)
    margin = ROUNDING * (a.size + 2) * np.finfo(float).eps
    winding = 0.0
    for _ in range(_MAX_HALVINGS + 1):
        w = 0.5 * (u + v)
        if on_circle:               # the arc's midpoint: arcs are < pi
            w = c.center + c.radius * np.exp(1j * np.angle(w - c.center))
        rho = np.maximum(np.abs(u - w), np.abs(v - w))
        fw, sw, d = field_modulus_nearest(w, a)
        with np.errstate(divide="ignore", invalid="ignore"):
            ok = (rho < d) & (rho * sw / (d - rho) + margin * sw < np.abs(fw))
        winding += float(np.angle(f1[ok] * np.conj(f0[ok])).sum())
        bad = ~ok
        if not bad.any():
            break
        u, v = (np.concatenate([u[bad], w[bad]]),
                np.concatenate([w[bad], v[bad]]))
        f0, f1 = (np.concatenate([f0[bad], fw[bad]]),
                  np.concatenate([fw[bad], f1[bad]]))
    else:
        raise RootOnContour(0.0, float(rho[bad].max()))
    return int(round(winding / (2 * np.pi)))
