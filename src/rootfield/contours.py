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

`rouche_pass` certifies, in one halving pass over closed segments, the
windings of p'/p and q'/q and a lower bound on the Rouché margin
|q'/q| - |r'/r| for p = q r, from the roots of q and of r alone.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ImpossibleCount, NonIntegerWinding, RootOnContour
from .kernels import ball_bound, field_modulus_nearest, field_sum, min_distance
from .poly import Polynomial, majorant_logmag, phase_logmag

WINDING_TOL = 0.2      # |winding - nearest integer| allowed after refinement
MAX_REFINE = 6         # sample-density doublings before giving up
_DENSITY = 64.0        # samples per unit arclength of a count's first pass
_MAX_ARG_STEP = np.pi / 2
_NOISE_LOG2 = -50.0    # |p| below 2^-50 * majorant means "on a root"
_MAX_HALVINGS = 30     # halvings before a piece holds a zero or a pole


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


def rouche_pass(inside, outside, segments):
    """(winding of p'/p, winding of q'/q, margin) over segments, (k, 2)
    rows (start, end) of directed segments forming closed loops
    (ValueError otherwise), for q and r the products of z - a over the
    inside and the outside roots a and p = q r.  The zeros of p' (of q')
    inside are its winding plus the roots of p (of q) inside, holes
    counting negatively.  margin is a lower bound on |q'/q| - |r'/r| along
    the segments; where it is positive, p' has as many zeros inside as q'r.

    On a piece within rho of its midpoint w, F_q = q'/q stays within e_q
    of F_q(w) and F_r = r'/r within e_r, the `kernels.ball_bound` of the
    inside and of the outside roots.  While no midpoint has |F_q| <=
    |F_r|, a piece is done once gap = |F_q(w)| - |F_r(w)| exceeds e_q +
    e_r: then neither F_q nor F_p = F_q + F_r vanishes on it or turns by
    pi/2 from its value at w, so the principal increments between its ends
    are exact, and gap - e_q - e_r bounds the margin on it.  Afterwards a
    piece is done once e_q + e_r < |F_p(w)| and e_q < |F_q(w)|.  margin is
    the least gap - e_q - e_r of the done pieces.  Other pieces are halved;
    one open after _MAX_HALVINGS halvings (a zero or a pole on or next to
    the segments) raises RootOnContour, as no inside root does at once.
    """
    u, v = np.asarray(segments, dtype=np.complex128).reshape(-1, 2).T
    if not u.size or not np.array_equal(np.sort(u), np.sort(v)):
        raise ValueError("segments must form closed loops")
    a, b = (np.asarray(x, dtype=np.complex128).ravel()
            for x in (inside, outside))
    if not a.size:
        raise RootOnContour(0.0, np.inf)
    winding, margin, rouche = np.zeros(2), np.inf, True
    with np.errstate(divide="ignore", invalid="ignore"):
        ends = np.concatenate([u, v])
        fq = field_sum(ends, a)     # rows F_p, F_q at the ends
        f0, f1 = np.split(np.stack([fq + field_sum(ends, b), fq]), 2, axis=1)
        for _ in range(_MAX_HALVINGS + 1):
            w = 0.5 * (u + v)
            rho = np.maximum(np.abs(u - w), np.abs(v - w))
            fq, *q = field_modulus_nearest(w, a)
            fr, *r = field_modulus_nearest(w, b)
            mq, mr = np.abs(fq), np.abs(fr)
            eq = ball_bound(rho, *q, a.size)
            e = eq + ball_bound(rho, *r, b.size)
            low = mq - mr - e
            rouche = rouche and not np.any(mq <= mr)
            fw = np.stack([fq + fr, fq])
            ok = low > 0 if rouche else (e < np.abs(fw[0])) & (eq < mq)
            margin = min(margin, np.min(low[ok], initial=np.inf))
            winding += np.angle(f1[:, ok] * np.conj(f0[:, ok])).sum(axis=1)
            bad = ~ok
            if not bad.any():
                break
            u, v = (np.concatenate([u[bad], w[bad]]),
                    np.concatenate([w[bad], v[bad]]))
            f0, f1 = (np.concatenate([f0[:, bad], fw[:, bad]], axis=1),
                      np.concatenate([fw[:, bad], f1[:, bad]], axis=1))
        else:
            raise RootOnContour(0.0, float(rho[bad].max()))
    wp, wq = np.round(winding / (2 * np.pi)).astype(int).tolist()
    return wp, wq, float(margin)
