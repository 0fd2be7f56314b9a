"""Polynomials with optional root-list provenance, and their roots.

Coefficients are stored in ascending order (coeffs[k] multiplies z**k).
A polynomial built by `from_roots` keeps its root list; its critical
points then come from the root sum p'/p = sum_k 1/(z - a_k), which stays
finite and accurate at degrees where the coefficients overflow or are
rounding noise.  One Aberth driver, `_aberth`, solves both coefficients
and root sums; each caller certifies its own answer.  Coefficient
evaluation switches to the reversed polynomial z^n p(1/z) for large |z|
and carries magnitudes in log2 form.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import NoConvergence

ROOT_TOL = 1e-10          # |p(root)| <= ROOT_TOL * scale(p)
SINGULAR_GUARD = 1e-12    # minimum distance from a pole for evaluation
_ABERTH_SEED = 0x5EEDF00D  # fixed: find_roots must be a pure function
_STEP_TOL = 1e-14
_MAX_ITERS = 500


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

    @property
    def is_zero(self) -> bool:
        return self.degree == 0 and self.coeffs[0] == 0

    @property
    def scale(self) -> float:
        return float(np.max(np.abs(self.coeffs)))


@dataclass(frozen=True)
class RootSplit:
    """Roots of one polynomial partitioned into an inside and outside part.

    `inside` are the roots assigned to the convex domain, `outside` the
    rest.  The product polynomial is the original; the two factors are
    exposed as polynomials with stored roots.  The critical points of the
    product and of q are solved once per split; a failed solve is not kept.
    """

    inside: np.ndarray
    outside: np.ndarray

    def __post_init__(self):
        object.__setattr__(
            self, "inside",
            np.atleast_1d(np.asarray(self.inside, dtype=np.complex128)))
        object.__setattr__(
            self, "outside",
            np.atleast_1d(np.asarray(self.outside, dtype=np.complex128))
            if len(np.atleast_1d(self.outside)) else
            np.zeros(0, dtype=np.complex128))
        if len(self.inside) == 0:
            raise ValueError("inside root set must be non-empty")

    @property
    def n(self) -> int:
        return len(self.inside)

    @property
    def m(self) -> int:
        return len(self.outside)

    def inside_poly(self) -> Polynomial:
        return from_roots(self.inside)

    def outside_poly(self) -> Polynomial:
        """Outside factor; the empty product is the constant 1."""
        if self.m == 0:
            return Polynomial(np.array([1.0 + 0j]))
        return from_roots(self.outside)

    def product(self) -> Polynomial:
        return from_roots(np.concatenate([self.inside, self.outside]))

    @cached_property
    def critical(self) -> np.ndarray:
        """Critical points of the product p."""
        return critical_points(self.product())

    @cached_property
    def inside_critical(self) -> np.ndarray:
        """Critical points of the inside factor q."""
        return critical_points(self.inside_poly())


# ---------------------------------------------------------------------------
# construction and basic calculus
# ---------------------------------------------------------------------------

def from_roots(roots) -> Polynomial:
    """Monic polynomial with the given roots (multiset, any order).

    Multiplication runs in ascending |root| order to limit cancellation.
    """
    r = np.atleast_1d(np.asarray(roots, dtype=np.complex128))
    if r.size == 0:
        raise ValueError("need at least one root")
    if not np.all(np.isfinite(r)):
        raise ValueError("roots must be finite")
    order = np.argsort(np.abs(r), kind="stable")
    c = np.zeros(r.size + 1, dtype=np.complex128)
    c[0] = 1.0
    deg = 0
    for a in r[order]:
        c[1:deg + 2] = c[0:deg + 1] - a * c[1:deg + 2]
        c[0] = -a * c[0]
        deg += 1
    return Polynomial(c, roots=r)


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
    """log2 of sum_k |c_k| |z|^k, the evaluation-noise majorant.

    |p(z)| computed in doubles carries absolute error of order
    eps * degree * majorant, so residual certificates must be read
    against this quantity rather than against max|c_k| alone.
    """
    coeffs = np.asarray(coeffs, dtype=np.complex128)
    a = np.abs(coeffs)
    az = np.abs(np.atleast_1d(np.asarray(z, dtype=np.complex128)))
    deg = len(coeffs) - 1
    tau = _split_radius(coeffs)
    out = np.empty(az.shape)
    small = az <= tau
    if np.any(small):
        with np.errstate(divide="ignore"):
            out[small] = np.log2(_horner(a.astype(np.complex128),
                                         az[small].astype(np.complex128)).real)
    big = ~small
    if np.any(big):
        u = 1.0 / az[big]
        g = _horner(a[::-1].astype(np.complex128), u.astype(np.complex128)).real
        with np.errstate(divide="ignore"):
            out[big] = deg * np.log2(az[big]) + np.log2(g)
    return out


def newton_ratio(coeffs, dcoeffs, z):
    """p(z)/p'(z) without overflow; inf where p' vanishes but p does not."""
    coeffs = np.asarray(coeffs, dtype=np.complex128)
    dcoeffs = np.asarray(dcoeffs, dtype=np.complex128)
    zz = np.atleast_1d(np.asarray(z, dtype=np.complex128))
    deg = len(coeffs) - 1
    tau = min(_split_radius(coeffs), _split_radius(dcoeffs))
    out = np.empty_like(zz)
    az = np.abs(zz)
    small = az <= tau
    if np.any(small):
        zs = zz[small]
        pv = _horner(coeffs, zs)
        dv = _horner(dcoeffs, zs)
        with np.errstate(divide="ignore", invalid="ignore"):
            r = pv / dv
        r[(dv == 0) & (pv == 0)] = 0.0
        r[(dv == 0) & (pv != 0)] = np.inf
        out[small] = r
    big = ~small
    if np.any(big):
        zb = zz[big]
        u = 1.0 / zb
        rc = coeffs[::-1]
        g = _horner(rc, u)
        if deg >= 1:
            gk = rc[1:] * np.arange(1, deg + 1)
            gp = _horner(gk, u)
        else:
            gp = np.zeros_like(u)
        denom = deg * g - u * gp          # p'/z^(deg-1) evaluated via g
        with np.errstate(divide="ignore", invalid="ignore"):
            r = zb * g / denom
        r[(denom == 0) & (g == 0)] = 0.0
        r[(denom == 0) & (g != 0)] = np.inf
        out[big] = r
    return out


# ---------------------------------------------------------------------------
# root finding (simultaneous Aberth-Ehrlich iteration)
# ---------------------------------------------------------------------------

def _initial_points(coeffs: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Circle initialization with radii from the upper hull of coefficient
    log-magnitudes (one radius cluster per hull segment), angles randomly
    perturbed to break symmetric stalls."""
    deg = len(coeffs) - 1
    a = np.abs(coeffs)
    with np.errstate(divide="ignore"):
        logs = np.where(a > 0, np.log2(a, where=a > 0,
                                       out=np.full_like(a, -np.inf)), -np.inf)
    ks = [k for k in range(deg + 1) if np.isfinite(logs[k])]
    # upper convex hull of (k, logs[k])
    hull: list[int] = []
    for k in ks:
        while len(hull) >= 2:
            k1, k2 = hull[-2], hull[-1]
            # keep if k2 lies strictly above the chord k1 -> k
            if (logs[k2] - logs[k1]) * (k - k1) <= (logs[k] - logs[k1]) * (k2 - k1):
                hull.pop()
            else:
                break
        hull.append(k)
    radii = np.empty(deg)
    pos = 0
    for i in range(len(hull) - 1):
        k1, k2 = hull[i], hull[i + 1]
        width = k2 - k1
        r = 2.0 ** ((logs[k1] - logs[k2]) / width)
        r = min(max(r, 1e-12), 1e12)
        radii[pos: pos + width] = r
        pos += width
    radii[pos:] = radii[pos - 1] if pos else 1.0
    angles = 2.0 * np.pi * (np.arange(deg) + 0.37) / deg
    angles = angles + rng.uniform(-0.5, 0.5, deg) * (np.pi / deg)
    return radii * np.exp(1j * angles)


def find_roots(p: Polynomial) -> np.ndarray:
    """All complex roots, with multiplicity, sorted by (real, imag).

    Deterministic: the symmetry-breaking perturbation uses a fixed seed.
    Raises NoConvergence when the residual certificate fails.
    """
    if p.degree < 1:
        raise ValueError("degree must be >= 1")
    coeffs = p.coeffs.copy()
    # deflate exact roots at the origin
    k0 = 0
    while coeffs[k0] == 0:
        k0 += 1
    zero_roots = np.zeros(k0, dtype=np.complex128)
    c = coeffs[k0:]
    d = len(c) - 1
    if d == 0:
        roots = zero_roots
    elif d == 1:
        roots = np.concatenate([zero_roots, [-c[0] / c[1]]])
    elif d == 2:
        roots = np.concatenate([zero_roots, _quadratic(c)])
    else:
        dc = c[1:] * np.arange(1, d + 1)
        rng = np.random.default_rng(_ABERTH_SEED)
        x, iters = _aberth(lambda z: newton_ratio(c, dc, z),
                           _initial_points(c, rng))
        _, logmag = phase_logmag(c, x)
        allowed = np.log2(ROOT_TOL) + np.maximum(majorant_logmag(c, x),
                                                 np.log2(np.max(np.abs(c))))
        worst_log = float(np.max(logmag - allowed))
        if np.isnan(worst_log) or worst_log > 0.0:
            raise NoConvergence(
                float(ROOT_TOL * 2.0 ** min(worst_log, 1000.0)), iters)
        roots = np.concatenate([zero_roots, x])
    order = np.lexsort((roots.imag, roots.real))
    return roots[order]


def _quadratic(c: np.ndarray) -> np.ndarray:
    a0, a1, a2 = c
    disc = np.sqrt(a1 * a1 - 4.0 * a2 * a0)
    if (a1.conjugate() * disc).real < 0:
        disc = -disc
    q = -(a1 + disc) / 2.0
    if q == 0:
        return np.array([0.0 + 0j, 0.0 + 0j])
    return np.array([q / a2, a0 / q])


def _aberth(ratio, x: np.ndarray) -> tuple[np.ndarray, int]:
    """(zeros, iterations) of the Aberth-Ehrlich iteration from x, where
    ratio(z) is the Newton ratio f/f' at the points z.  Uncertified."""
    tiny = 0
    best_step = np.inf
    since_improve = 0
    it = 0
    for it in range(_MAX_ITERS):
        # split exact collisions so the pairwise sum stays finite
        x = _separate_duplicates(x)
        n_ratio = ratio(x)
        bad = ~np.isfinite(n_ratio)
        diff = x[:, None] - x[None, :]
        np.fill_diagonal(diff, np.inf)
        s = np.sum(1.0 / diff, axis=1)
        denom = 1.0 - n_ratio * s
        with np.errstate(divide="ignore", invalid="ignore"):
            delta = n_ratio / denom
        delta = np.where(np.isfinite(delta), delta, n_ratio)
        # stalled points (f' = 0 away from a zero): nudge deterministically
        delta = np.where(bad, 1e-6 * (1.0 + np.abs(x)) * np.exp(1j * 0.618 * it),
                         delta)
        x = x - delta
        step = float(np.max(np.abs(delta) / (1.0 + np.abs(x))))
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
    return x, it + 1


def _separate_duplicates(x: np.ndarray) -> np.ndarray:
    # sorting finds exact repeats in O(n log n); inf and nan never repeat
    _, inv, counts = np.unique(x, return_inverse=True, return_counts=True)
    dup_rows = np.where((counts[inv] > 1) & np.isfinite(x))[0]
    if dup_rows.size:
        x = x.copy()
        bump = 1e-9 * (1.0 + np.abs(x[dup_rows]))
        x[dup_rows] += bump * np.exp(2j * np.pi * np.arange(dup_rows.size)
                                     / max(dup_rows.size, 1))
    return x


def critical_points(p: Polynomial) -> np.ndarray:
    """Roots of p', with multiplicity, sorted by (real, imag).

    With all roots stored, a root of multiplicity k is returned k-1 times
    and the other critical points are solved on the root sum p'/p
    (`_field_zeros`); otherwise p' is solved from its coefficients, which
    are rounding noise at high degree.  Raises NoConvergence.
    """
    if p.degree < 1:
        raise ValueError("degree must be >= 1")
    if p.degree == 1:
        return np.zeros(0, dtype=np.complex128)
    if p.roots is None or p.roots.size != p.degree:
        return find_roots(derivative(p))
    a, m = np.unique(p.roots, return_counts=True)
    w = np.repeat(a, m - 1)
    if a.size > 1:
        w = np.concatenate([w, _field_zeros(a, m.astype(float))])
    return w[np.lexsort((w.imag, w.real))]


def _field_zeros(a: np.ndarray, m: np.ndarray) -> np.ndarray:
    """Zeros of R(z) = sum_j m_j/(z - a_j), a_j distinct, by Aberth on
    prod_j (z - a_j) R: Newton ratio R/(R S + R'), S = sum_j 1/(z - a_j).

    Starts: a_k - 1/sum_{j!=k} m_j/(a_k - a_j), or a_k plus half its
    nearest-root distance where that sum is 0, for all a_k but the one
    farthest from the weighted centroid.  Certificate: |R(w)| <= ROOT_TOL
    * sum_j m_j (|w| + |a_j|)/|w - a_j|^2, R's rounding majorant.
    """
    diff = a[:, None] - a
    np.fill_diagonal(diff, np.inf)
    pull = (m / diff).sum(axis=1)
    offset = 0.5 * np.abs(diff).min(axis=1) + 0j
    offset[pull != 0] = -1.0 / pull[pull != 0]
    del diff
    # turn each offset a little, so that no two starts and no start and a
    # root coincide, as they can for symmetric root sets
    x = a + offset * (1.0 + 1e-6 * np.exp(1j * 0.618 * np.arange(a.size)))
    x = np.delete(x, np.argmax(np.abs(a - np.dot(m, a) / m.sum())))

    def ratio(z):
        with np.errstate(divide="ignore", invalid="ignore"):
            inv = 1.0 / (z[:, None] - a)
            weighted = inv * m
            r = weighted.sum(axis=1)
            weighted *= inv
            return r / (r * inv.sum(axis=1) - weighted.sum(axis=1))

    w, iters = _aberth(ratio, x)
    with np.errstate(divide="ignore", invalid="ignore"):
        inv = 1.0 / (w[:, None] - a)
        r = np.abs(inv @ m)
        majorant = ((np.abs(w)[:, None] + np.abs(a)) * np.abs(inv) ** 2) @ m
        worst = float(np.max(r / majorant))
    if not worst <= ROOT_TOL:
        raise NoConvergence(worst, iters)
    return w
