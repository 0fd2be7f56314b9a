"""Points x sources reductions (field and modulus sums, nearest distances,
distance products, the weighted root sums of `poly`) and the ball bound.

Each function takes points of any shape and a 1-D array of sources and
returns one value per point, reduced over the sources.  The table is built
in blocks of at most _PAIRS pairs; each point is reduced over its own row,
so the block size changes no bit, and `field_modulus_nearest` returns the
same bits as the three single reductions.  A point on a source gives inf
or nan, and a distance product of 0.  A reduction over k sources rounds
at order (k + 2) eps times the sum of the moduli of its terms; ROUNDING
is the one factor every bound built on these values puts on that estimate.

The ball bound (`ball_bound`).  Let F = sum 1/(z - a) over k sources,
and at w let S = sum 1/d_a, S2 = sum 1/d_a^2 and F' = -sum 1/(w - a)^2,
with d_a = |w - a| >= d.  For |z - w| <= rho < d, |z - a| >= d_a - rho
>= d_a (d - rho)/d, and with h = z - w

    1/(z - a) - 1/(w - a) = -h/((w - a)(z - a))
                          = -h/(w - a)^2 + h^2/((w - a)^2 (z - a)),

so |F(z) - F(w)| <= min(rho S/(d - rho), rho |F'| + rho^2 S2/(d - rho)).
As |F'| <= S2 <= S/d, the second is never the larger in exact
arithmetic; the minimum keeps the bound under the first whatever the
rounding.  With c = ROUNDING (k + 2) eps, the computed F' and F(w) are
within c S2 and c S, and a computed F(z) within c S(z) <= c S d/(d - rho);
the one term c S d/(d - rho) covers F at w and at z, ROUNDING being far
above 2, and the bound's own few roundings.  A modulus sum is bounded
apart (`charges`): its terms stay at least 1/(d_a + rho) for any rho, and
sum to at least S d/(d + rho), above S - rho S/(d - rho).

A block is sized to stay in a core's L2 cache (2 MiB per core on the
Xeon VMs this was measured on): 2^15 pairs make a 512 KiB complex table,
and a row function adds temporaries of at most that size, while a 2^20-
pair table (16 MiB) goes out to memory on every pass.  2-vCPU Xeon VM,
minimum of runs, at 2^20, 2^15 and 2^13 pairs: `weighted_field` on 500
points x 502 sources 3.4-6.2, 2.8-3.1 and 3.2-4.6 ms;
`field_modulus_nearest`, all five outputs, on 40k points x 500 sources
330-332, 279-296 and 301-314 ms.
"""

from __future__ import annotations

import numpy as np

_PAIRS = 1 << 15          # point-source pairs per evaluation block
_FIELD = (np.complex128, 0.0)     # (dtype, value without sources)
_MODULUS = (np.float64, 0.0)
_NEAREST = (np.float64, np.inf)
_PRODUCT = (np.float64, 1.0)
ROUNDING = 16.0           # factor on the (k + 2) eps rounding estimates


def _reduce(points, sources, row, kinds, own=None):
    """One output per kind; row maps a block of differences z - a to one
    reduced row per kind and may overwrite the block.  With own, the point
    at flat index i skips the source own[i]."""
    z = np.asarray(points, dtype=np.complex128)
    src = np.asarray(sources, dtype=np.complex128)
    flat = z.ravel()
    outs = [np.full(flat.shape, empty, dtype=dtype) for dtype, empty in kinds]
    if src.size:
        # one table serves every block: a fresh table per block can
        # page-fault its whole size again on each block
        rows = max(1, min(flat.size, _PAIRS // src.size))
        table = np.empty((rows, src.size), dtype=np.complex128)
        # inf at or next to a source: 1/|z - a|^2 overflows first, and a
        # distance product may exceed doubles
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            for lo in range(0, flat.size, rows):
                blk = flat[lo:lo + rows]
                diff = np.subtract(blk[:, None], src, out=table[:blk.size])
                if own is not None:
                    diff[np.arange(blk.size), own[lo:lo + rows]] = np.inf
                for out, value in zip(outs, row(diff)):
                    out[lo:lo + rows] = value
    return [out.reshape(z.shape) for out in outs]


def field_sum(points, sources) -> np.ndarray:
    """sum_k 1/(z - a_k) at every point z; 0 without sources."""
    return _reduce(points, sources,
                   lambda d: (np.divide(1.0, d, out=d).sum(axis=-1),),
                   (_FIELD,))[0]


def modulus_sum(points, sources) -> np.ndarray:
    """sum_k 1/|z - a_k| at every point z; 0 without sources."""
    return _reduce(points, sources,
                   lambda d: ((1.0 / np.abs(d)).sum(axis=-1),), (_MODULUS,))[0]


def min_distance(points, sources) -> np.ndarray:
    """min_k |z - a_k| at every point z; inf without sources."""
    return _reduce(points, sources, lambda d: (np.abs(d).min(axis=-1),),
                   (_NEAREST,))[0]


def distance_product(points, sources) -> np.ndarray:
    """prod_k |z - a_k| at every point z; 1 without sources, 0 on a source."""
    return _reduce(points, sources, lambda d: (np.abs(d).prod(axis=-1),),
                   (_PRODUCT,))[0]


def field_modulus_nearest(points, sources):
    """(field_sum, modulus_sum, min_distance, F' = -sum 1/(z - a_k)^2,
    S2 = sum 1/|z - a_k|^2) at every point, in one pass."""
    def row(d):
        dist = np.abs(d)
        nearest = dist.min(axis=-1)
        inv = np.divide(1.0, d, out=d)
        rdist = np.divide(1.0, dist, out=dist)
        return (inv.sum(axis=-1), rdist.sum(axis=-1), nearest,
                -np.multiply(inv, inv, out=inv).sum(axis=-1),
                np.multiply(rdist, rdist, out=rdist).sum(axis=-1))

    return tuple(_reduce(points, sources, row,
                         (_FIELD, _MODULUS, _NEAREST, _FIELD, _MODULUS)))


def ball_bound(rho, s, d, fp, s2, k: int):
    """The module's ball bound on |F(z) - F(w)| over |z - w| <= rho, the
    rounding of F at w and at z included, for F a sum over k sources with
    (S, d, F', S2) = (s, d, fp, s2) at w; inf unless rho < d."""
    c = ROUNDING * (k + 2) * np.finfo(float).eps
    with np.errstate(divide="ignore", invalid="ignore"):
        gap = d - rho
        # fmin: F' is nan where its squares overflowed, S2 is inf there
        move = np.fmin(rho * s / gap,
                       rho * (np.abs(fp) + c * s2) + rho * rho * s2 / gap)
        return np.where(rho < d, move + c * s / (1.0 - rho / d), np.inf)


def self_field(points, weights=1.0, rows=None) -> np.ndarray:
    """sum_{j != i by position} w_j/(z_i - z_j) at each z_i of a 1-D array,
    or at the z_i of the given row indices only (all points stay sources)."""
    z = np.asarray(points, dtype=np.complex128)
    own = np.arange(z.size) if rows is None else np.asarray(rows, dtype=int)
    return _reduce(z[own], z,
                   lambda d: (np.divide(weights, d, out=d).sum(axis=-1),),
                   (_FIELD,), own=own)[0]


def weighted_field(points, sources, weights):
    """(R, S, -R') = sum_k (w_k, 1, w_k/(z - a_k))/(z - a_k) at every point."""
    def row(d):
        inv = np.divide(1.0, d, out=d)
        weighted = inv * weights
        return (weighted.sum(axis=-1), inv.sum(axis=-1),
                np.multiply(weighted, inv, out=weighted).sum(axis=-1))

    return tuple(_reduce(points, sources, row, (_FIELD,) * 3))


def field_majorant(points, sources, weights):
    """(R, M, M_a) at every point: R = sum_k w_k/(z - a_k), and |z| M + M_a
    = sum_k w_k (|z| + |a_k|)/|z - a_k|^2 bounds the rounding of R."""
    far = weights * np.abs(sources)

    def row(d):
        inv = np.divide(1.0, d, out=d)
        sq = np.abs(inv) ** 2
        return ((inv * weights).sum(axis=-1), (sq * weights).sum(axis=-1),
                (sq * far).sum(axis=-1))

    return tuple(_reduce(points, sources, row, (_FIELD,) + (_MODULUS,) * 2))
