"""Polynomials with optional root-list provenance, and their critical points.

Coefficients are stored in ascending order (coeffs[k] multiplies z**k).
A polynomial built by `from_roots` keeps its root list.  Coefficients are
evaluated (for counting) but never solved: critical points come from the
root sum p'/p = sum_k 1/(z - a_k) of a root list, stored or a plain
array, through `kernels` reductions that stay finite and accurate at
degrees where the coefficients overflow or are rounding noise.  The
Aberth iteration `_aberth` solves it and `_field_zeros` certifies the
answer.  Coefficient evaluation switches to the reversed polynomial
z^n p(1/z) for large |z| and carries magnitudes in log2 form.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import CoefficientOverflow, NoConvergence
from .kernels import field_majorant, min_distance, self_field, weighted_field

ROOT_TOL = 1e-10          # |p'/p| <= ROOT_TOL * its rounding majorant
SINGULAR_GUARD = 1e-12    # minimum distance from a pole for evaluation
_STEP_TOL = 1e-14
_MAX_ITERS = 500
_MERGE_ULPS = 4.0         # roots this many ulps apart are one root


# ---------------------------------------------------------------------------
# types
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Polynomial:
    """Immutable polynomial; `roots` is None unless built from roots."""

    coeffs: np.ndarray
    roots: np.ndarray | None = None

    def __post_init__(self):
        c = np.atleast_1d(np.asarray(self.coeffs, dtype=np.complex128))
        if c.ndim != 1 or c.size == 0:
            raise ValueError("coeffs must be a non-empty 1-D sequence")
        if not np.all(np.isfinite(c)):
            raise ValueError("coefficients must be finite")
        # normalize: drop leading (highest-order) zeros, keep >= 1 entry
        nz = np.nonzero(c)[0]
        c = c[: nz[-1] + 1] if nz.size else c[:1]
        object.__setattr__(self, "coeffs", c)
        if self.roots is not None:
            r = np.atleast_1d(np.asarray(self.roots, dtype=np.complex128))
            object.__setattr__(self, "roots", r)

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1


@dataclass(frozen=True)
class RootSplit:
    """Roots of one polynomial partitioned into an inside and outside part.

    `inside` are the roots assigned to the convex domain, `outside` the
    rest; their product p is the original and the inside factor is q.  The
    critical points of p are solved from the roots once per split; a failed
    solve is not kept.
    """

    inside: np.ndarray
    outside: np.ndarray

    def __post_init__(self):
        outside = np.asarray(self.outside, dtype=np.complex128).ravel()
        if not np.all(np.isfinite(outside)):
            raise ValueError("outside roots must be finite")
        object.__setattr__(self, "inside", _root_array(self.inside))
        object.__setattr__(self, "outside", outside)

    @property
    def n(self) -> int:
        return len(self.inside)

    @property
    def m(self) -> int:
        return len(self.outside)

    @cached_property
    def roots(self) -> np.ndarray:
        """All roots of p: the inside roots, then the outside ones."""
        return np.concatenate([self.inside, self.outside])

    @cached_property
    def critical(self) -> np.ndarray:
        """Critical points of the product p."""
        return critical_points(self.roots)


# ---------------------------------------------------------------------------
# construction and basic calculus
# ---------------------------------------------------------------------------

def from_roots(roots) -> Polynomial:
    """Monic polynomial with the given roots (multiset, any order).

    Multiplication runs in ascending |root| order to limit cancellation.
    Raises CoefficientOverflow when a coefficient exceeds doubles.
    """
    r = _root_array(roots)
    order = np.argsort(np.abs(r), kind="stable")
    c = np.zeros(r.size + 1, dtype=np.complex128)
    c[0] = 1.0
    deg = 0
    with np.errstate(over="ignore", invalid="ignore"):
        for a in r[order]:
            c[1:deg + 2] = c[0:deg + 1] - a * c[1:deg + 2]
            c[0] = -a * c[0]
            deg += 1
    if not np.all(np.isfinite(c)):
        raise CoefficientOverflow(r.size)
    return Polynomial(c, roots=r)


def _root_array(roots) -> np.ndarray:
    r = np.atleast_1d(np.asarray(roots, dtype=np.complex128))
    if r.size == 0 or not np.all(np.isfinite(r)):
        raise ValueError("need at least one root, all finite")
    return r


def derivative(p: Polynomial) -> Polynomial:
    """Coefficient-wise derivative; the derivative of a constant is the
    zero polynomial (degree 0, single zero coefficient)."""
    if p.degree == 0:
        return Polynomial(np.array([0.0 + 0j]))
    k = np.arange(1, p.degree + 1)
    return Polynomial(p.coeffs[1:] * k)


# ---------------------------------------------------------------------------
# overflow-safe evaluation helpers
# ---------------------------------------------------------------------------

def _horner(coeffs: np.ndarray, z: np.ndarray) -> np.ndarray:
    acc = np.full_like(z, coeffs[-1])
    for k in range(len(coeffs) - 2, -1, -1):
        acc = acc * z + coeffs[k]
    return acc


def _split_radius(coeffs: np.ndarray) -> float:
    """|z| threshold below which plain Horner stays within double range."""
    deg = len(coeffs) - 1
    scale = float(np.max(np.abs(coeffs)))
    if deg == 0 or scale == 0:
        return np.inf
    # keep scale * tau^deg below 2^980 (headroom to 2^1023)
    log2_tau = (980.0 - np.log2(scale)) / deg
    return float(max(2.0 ** min(log2_tau, 60.0), 1.25))


def phase_logmag(coeffs, z):
    """Return (unit_phase, log2 magnitude) of p(z), overflow-free.

    unit_phase is exp(i arg p(z)); zero values get phase 1 and -inf logmag.
    """
    coeffs = np.asarray(coeffs, dtype=np.complex128)
    zz = np.atleast_1d(np.asarray(z, dtype=np.complex128))
    deg = len(coeffs) - 1
    tau = _split_radius(coeffs)
    phase = np.ones_like(zz)
    logmag = np.full(zz.shape, -np.inf)
    az = np.abs(zz)
    small = az <= tau
    if np.any(small):
        v = _horner(coeffs, zz[small])
        a = np.abs(v)
        with np.errstate(over="ignore", invalid="ignore"):
            ratio = v / np.where(a > 0, a, 1.0)
        ok = (a > 0) & np.isfinite(ratio)
        phase[small] = np.where(ok, ratio, 1.0)
        with np.errstate(divide="ignore"):
            logmag[small] = np.log2(a)
    big = ~small
    if np.any(big):
        u = 1.0 / zz[big]
        g = _horner(coeffs[::-1], u)
        ag = np.abs(g)
        ang = deg * np.angle(zz[big]) + np.angle(g)
        phase[big] = np.where(ag > 0, np.exp(1j * ang), 1.0)
        with np.errstate(divide="ignore"):
            logmag[big] = deg * np.log2(az[big]) + np.log2(ag)
    return phase, logmag


def majorant_logmag(coeffs, z):
    """log2 of sum_k |c_k| |z|^k, the evaluation-noise majorant: the log2
    magnitude of the polynomial with coefficients |c_k| at |z|.

    |p(z)| computed in doubles carries absolute error of order
    eps * degree * majorant, so residual certificates must be read
    against this quantity rather than against max|c_k| alone.
    """
    return phase_logmag(np.abs(coeffs), np.abs(z))[1]


# ---------------------------------------------------------------------------
# critical points (simultaneous Aberth-Ehrlich iteration on the root sum)
# ---------------------------------------------------------------------------

def _aberth(ratio, x: np.ndarray,
            certified) -> tuple[np.ndarray, int, np.ndarray]:
    """(zeros, iterations, active rows) of the Aberth-Ehrlich iteration
    from x, where ratio(z) is the Newton ratio f/f' at the points z and
    certified(z) tells which points z pass the caller's residual test.

    Converged points are locked (Bini & Fiorentino, Numer. Algorithms 23,
    2000): a point is frozen once its relative step has been below
    _STEP_TOL in two successive iterations and it passes certified, which
    is asked of those candidates only.  A step-only lock freezes points of
    ill-conditioned clusters that the certificate then rejects.  Only the
    active points get a Newton ratio and a self sum, against all points as
    sources, and a frozen point never moves again.  The loop ends once
    every active step was tiny twice in a row, or on the plateau rule, with
    the step taken over the active points.  The active rows, those never
    frozen, are not certified.
    """
    x = np.array(x, dtype=np.complex128)
    active = np.arange(x.size)
    calm = np.zeros(x.size, dtype=int)    # successive tiny steps per point
    tiny = 0
    best_step = np.inf
    since_improve = 0
    it = 0
    for it in range(_MAX_ITERS):
        # split exact collisions so the pairwise sum stays finite
        x = _separate_duplicates(x, active)
        xa = x[active]
        n_ratio = ratio(xa)
        bad = ~np.isfinite(n_ratio)
        denom = 1.0 - n_ratio * self_field(x, rows=active)
        with np.errstate(divide="ignore", invalid="ignore"):
            delta = n_ratio / denom
        delta = np.where(np.isfinite(delta), delta, n_ratio)
        # stalled points (f' = 0 away from a zero): nudge deterministically
        delta = np.where(bad, 1e-6 * (1.0 + np.abs(xa))
                         * np.exp(1j * 0.618 * it), delta)
        xa = xa - delta
        x[active] = xa
        moved = np.abs(delta) / (1.0 + np.abs(xa))
        step = float(np.max(moved))
        tiny = tiny + 1 if step < _STEP_TOL else 0
        if tiny >= 2:
            break
        # ill-conditioned clusters plateau above _STEP_TOL; stop once the
        # step size has stopped improving and let the certificate decide
        if step < 0.5 * best_step:
            best_step = step
            since_improve = 0
        else:
            best_step = min(best_step, step)
            since_improve += 1
        if since_improve >= 25 and step < 1e-6:
            break
        calm[active] = np.where(moved < _STEP_TOL, calm[active] + 1, 0)
        ready = calm[active] >= 2
        if np.any(ready):
            keep = ~ready
            keep[ready] = ~certified(x[active[ready]])
            active = active[keep]
            if not active.size:
                break
    return x, it + 1, active


def _separate_duplicates(x: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """x with every one of the given rows that repeats another point
    exactly nudged apart; the other rows are not moved."""
    # sorting finds exact repeats in O(n log n); inf and nan never repeat
    _, inv, counts = np.unique(x, return_inverse=True, return_counts=True)
    dup_rows = rows[(counts[inv[rows]] > 1) & np.isfinite(x[rows])]
    if dup_rows.size:
        x = x.copy()
        bump = 1e-9 * (1.0 + np.abs(x[dup_rows]))
        x[dup_rows] += bump * np.exp(2j * np.pi * np.arange(dup_rows.size)
                                     / max(dup_rows.size, 1))
    return x


def critical_points(p) -> np.ndarray:
    """Roots of p' (p a root array or a Polynomial that stores its roots),
    sorted by (real, imag).

    A root of multiplicity k is returned k-1 times and the other critical
    points are solved on the root sum p'/p (`_field_zeros`).  Roots a few
    ulps apart count as one repeated root (`_merge_close`).  Coefficients
    are never solved: a Polynomial without its roots raises ValueError.
    Raises NoConvergence.
    """
    if isinstance(p, Polynomial):
        if p.roots is None or p.roots.size != p.degree:
            raise ValueError("critical points are solved from the roots: "
                             "build the polynomial with from_roots")
        p = p.roots
    a, m = _merge_close(*np.unique(_root_array(p), return_counts=True))
    w = np.repeat(a, m - 1)
    if a.size > 1:
        w = np.concatenate([w, _field_zeros(a, m.astype(float))])
    return w[np.lexsort((w.imag, w.real))]


def _merge_close(a: np.ndarray, m: np.ndarray):
    """(roots, multiplicities) with each root of a within _MERGE_ULPS ulps
    of the modulus of an earlier kept root folded into it, multiplicities
    summed; a is sorted by real part, as np.unique sorts it.  The root
    sum cannot resolve the zero of p' between such roots in doubles."""
    tol = _MERGE_ULPS * np.finfo(float).eps * np.abs(a)
    last = np.searchsorted(a.real, a.real + tol, side="right")
    keep, m = np.ones(a.size, dtype=bool), m.copy()
    for i in np.flatnonzero(last > np.arange(a.size) + 1):
        j = np.arange(i + 1, last[i])
        j = j[keep[i] & keep[j] & (np.abs(a[j] - a[i]) <= tol[i])]
        keep[j] = False
        m[i] += m[j].sum()
    return (a, m) if keep.all() else (a[keep], m[keep])


def _field_zeros(a: np.ndarray, m: np.ndarray) -> np.ndarray:
    """Zeros of R(z) = sum_j m_j/(z - a_j), a_j distinct, by Aberth on
    prod_j (z - a_j) R: Newton ratio R/(R S + R'), S = sum_j 1/(z - a_j).

    Starts: a_k - 1/sum_{j!=k} m_j/(a_k - a_j), or a_k plus half its
    nearest-root distance where that sum is 0, for all a_k but the one
    farthest from the weighted centroid.  Certificate: |R(w)| <= ROOT_TOL
    * sum_j m_j (|w| + |a_j|)/|w - a_j|^2, R's rounding majorant.
    """
    pull = self_field(a, m)
    offset = -1.0 / np.where(pull != 0, pull, 1.0)
    for k in np.flatnonzero(pull == 0):
        offset[k] = 0.5 * min_distance(a[k], np.delete(a, k))
    # turn each offset a little, so that no two starts and no start and a
    # root coincide, as they can for symmetric root sets
    x = a + offset * (1.0 + 1e-6 * np.exp(1j * 0.618 * np.arange(a.size)))
    x = np.delete(x, np.argmax(np.abs(a - np.dot(m, a) / m.sum())))

    def ratio(z):
        r, s, minus_dr = weighted_field(z, a, m)
        with np.errstate(divide="ignore", invalid="ignore"):
            return r / (r * s - minus_dr)

    def residual(w):
        r, near, far = field_majorant(w, a, m)
        with np.errstate(divide="ignore", invalid="ignore"):
            return np.abs(r) / (np.abs(w) * near + far)

    w, iters, active = _aberth(ratio, x, lambda z: residual(z) <= ROOT_TOL)
    # a frozen point passed the certificate at the value it still holds
    worst = float(np.max(residual(w[active]), initial=0.0))
    if not worst <= ROOT_TOL:
        raise NoConvergence(worst, iters)
    return w
