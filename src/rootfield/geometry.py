"""Convex domains in the plane: disks and convex polygons.

Points are complex numbers throughout.  Domains are closed sets, so
boundary points count as inside and all membership comparisons are exact
(deterministic ties).  The queries take a scalar or an array of points and
answer in kind.  Epsilon-neighborhoods are never materialized: membership
in K_eps is `distance(K, z) <= epsilon`, and `escape_distance` measures how
far a point sits from leaving K_eps.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateHull

_FLAT_TOL = 0.0  # hull collinearity uses exact cross-product comparisons


@dataclass(frozen=True)
class ConvexDomain:
    """Disk (center, radius) or convex polygon (CCW vertex list).

    Polygon input is normalized through a convex hull pass, so the stored
    vertex list is strictly convex and counterclockwise; collinear or
    interior input points are dropped.
    """

    kind: str
    center: complex = 0j
    radius: float = 0.0
    vertices: np.ndarray | None = None

    def __post_init__(self):
        if self.kind == "disk":
            if not (self.radius > 0):
                raise DegenerateHull("disk radius must be positive")
        elif self.kind == "polygon":
            v = np.asarray(self.vertices, dtype=np.complex128)
            hull = _hull_vertices(v)
            object.__setattr__(self, "vertices", hull)
            object.__setattr__(self, "center", complex(hull.mean()))
        else:
            raise ValueError(f"unknown domain kind {self.kind!r}")

    @staticmethod
    def disk(center, radius: float) -> "ConvexDomain":
        return ConvexDomain("disk", center=complex(center), radius=float(radius))


# ---------------------------------------------------------------------------
# hull construction
# ---------------------------------------------------------------------------

def _cross(o: complex, a: complex, b: complex) -> float:
    return (a.real - o.real) * (b.imag - o.imag) - \
           (a.imag - o.imag) * (b.real - o.real)


def _hull_vertices(points: np.ndarray) -> np.ndarray:
    """Monotone-chain hull, CCW, collinear points dropped."""
    pts = sorted(set(map(complex, points)), key=lambda p: (p.real, p.imag))
    if len(pts) < 3:
        raise DegenerateHull("need at least 3 distinct points")
    lower: list[complex] = []
    for p in pts:
        while len(lower) >= 2 and _cross(lower[-2], lower[-1], p) <= _FLAT_TOL:
            lower.pop()
        lower.append(p)
    upper: list[complex] = []
    for p in reversed(pts):
        while len(upper) >= 2 and _cross(upper[-2], upper[-1], p) <= _FLAT_TOL:
            upper.pop()
        upper.append(p)
    hull = lower[:-1] + upper[:-1]
    if len(hull) < 3:
        raise DegenerateHull("points are collinear")
    return np.asarray(hull, dtype=np.complex128)


def convex_hull(points) -> ConvexDomain:
    """Convex hull of a point multiset as a polygon domain.

    Raises DegenerateHull for fewer than 3 non-collinear points.
    """
    pts = np.atleast_1d(np.asarray(points, dtype=np.complex128))
    return ConvexDomain("polygon", vertices=pts)


# ---------------------------------------------------------------------------
# queries
# ---------------------------------------------------------------------------

def contains(domain: ConvexDomain, z):
    """Closed-set membership: a bool for scalar z, else a bool array."""
    zz = np.asarray(z, dtype=np.complex128)
    if domain.kind == "disk":
        out = np.abs(zz - domain.center) <= domain.radius
    else:
        v = domain.vertices
        e = np.roll(v, -1) - v
        d = zz[..., None] - v
        out = np.all(e.real * d.imag - e.imag * d.real >= 0, axis=-1)
    return bool(out) if zz.ndim == 0 else out


def _edge_distance(vertices: np.ndarray, zz: np.ndarray) -> np.ndarray:
    """Distance from each point to the nearest edge of the closed polygon."""
    e = np.roll(vertices, -1) - vertices
    d = zz[..., None] - vertices
    t = np.clip((d.real * e.real + d.imag * e.imag)
                / (e.real ** 2 + e.imag ** 2), 0.0, 1.0)
    return np.min(np.abs(zz[..., None] - (vertices + t * e)), axis=-1)


def distance(domain: ConvexDomain, z):
    """Euclidean distance to the closed domain, 0 inside: a float for
    scalar z, else an array."""
    zz = np.asarray(z, dtype=np.complex128)
    if domain.kind == "disk":
        out = np.maximum(np.abs(zz - domain.center) - domain.radius, 0.0)
    else:
        out = np.where(contains(domain, zz), 0.0,
                       _edge_distance(domain.vertices, zz))
    return float(out) if zz.ndim == 0 else out


def escape_distance(domain: ConvexDomain, epsilon: float, z):
    """Distance from z to the complement of K_eps: epsilon plus the depth
    inside K, epsilon minus the distance to K outside it, 0 beyond K_eps.
    A float for scalar z, else an array."""
    zz = np.asarray(z, dtype=np.complex128)
    d = distance(domain, zz)
    if domain.kind == "disk":
        # hypot rounds as the scalar abs does; array np.abs can be 1 ulp off
        w = zz - domain.center
        inner = domain.radius - np.hypot(w.real, w.imag)
    else:
        inner = _edge_distance(domain.vertices, zz)
    out = np.where(d > epsilon, 0.0,
                   np.where(d > 0.0, epsilon - d, epsilon + inner))
    return float(out) if zz.ndim == 0 else out


def diameter(domain: ConvexDomain) -> float:
    """Largest pairwise distance; rotating calipers for polygons."""
    if domain.kind == "disk":
        return 2.0 * domain.radius
    v = domain.vertices
    k = len(v)
    best = 0.0
    j = 1
    for i in range(k):
        ni = (i + 1) % k
        # advance the antipodal pointer while the support triangle grows;
        # the hull is CCW so the cross products are nonnegative
        while _cross(v[i], v[ni], v[(j + 1) % k]) > _cross(v[i], v[ni], v[j]):
            j = (j + 1) % k
        best = max(best, abs(v[i] - v[j]), abs(v[ni] - v[j]))
    return best


def bounding_box(domain: ConvexDomain) -> tuple[float, float, float, float]:
    """(xmin, xmax, ymin, ymax) of the domain itself."""
    if domain.kind == "disk":
        c, r = domain.center, domain.radius
        return (c.real - r, c.real + r, c.imag - r, c.imag + r)
    v = domain.vertices
    return (float(v.real.min()), float(v.real.max()),
            float(v.imag.min()), float(v.imag.max()))


def boundary_point(domain: ConvexDomain, s):
    """Point on the boundary at normalized arclength s in [0, 1): a complex
    for scalar s, else an array."""
    ss = np.asarray(s, dtype=float) % 1.0
    if domain.kind == "disk":
        out = domain.center + domain.radius * np.exp(2j * np.pi * ss)
    else:
        v = domain.vertices
        w = np.roll(v, -1)
        lens = np.abs(w - v)           # the hull's vertices are distinct
        cum = np.concatenate([[0.0], np.cumsum(lens)])
        target = ss * cum[-1]
        i = np.searchsorted(cum[1:-1], target, side="right")
        out = v[i] + (target - cum[i]) / lens[i] * (w[i] - v[i])
    return complex(out) if ss.ndim == 0 else out
