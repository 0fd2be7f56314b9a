"""Points x sources reductions: field sums, modulus sums, nearest distances,
distance products and the weighted root sums of `poly`.

Each function takes points of any shape and a 1-D array of sources and
returns one value per point, reduced over the sources.  The table is built
in blocks of at most _PAIRS pairs; each point is reduced over its own row,
so the block size changes no bit, and `field_modulus_nearest` returns the
same bits as the three single reductions.  A point on a source gives inf
or nan, and a distance product of 0.  A reduction over k sources rounds
at order (k + 2) eps; ROUNDING is the one factor every bound built on
these values puts on that estimate.

A block is sized to stay in a core's L2 cache (2 MiB per core on the
Xeon VMs this was measured on): 2^15 pairs make a 512 KiB complex table,
and a row function adds temporaries of at most that size.  A 2^20-pair
table (16 MiB, plus up to three temporaries of its shape) goes out to
memory on every pass.  2-vCPU Xeon VM, minimum of 3 runs, ranges over
two sessions, 2^20 -> 2^15 pairs: `weighted_field` on 500 points x 502
sources 3.4-6.2 -> 2.8-3.1 ms; `field_modulus_nearest` on 40k points x
500 sources 245-312 -> 224-263 ms.  At 2^13 pairs the per-block
overhead shows and both are slower again (3.2-4.6 ms, 243-296 ms).
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
        with np.errstate(divide="ignore", invalid="ignore"):
            for lo in range(0, flat.size, rows):
                blk = flat[lo:lo + rows]
                diff = np.subtract(blk[:, None], src, out=table[:blk.size])
                if own is not None:
                    diff[np.arange(blk.size), own[lo:lo + rows]] = np.inf
                for out, value in zip(outs, row(diff)):
                    out[lo:lo + rows] = value
    return [out.reshape(z.shape) for out in outs]


def _field(d):
    return np.divide(1.0, d, out=d).sum(axis=-1)


def field_sum(points, sources) -> np.ndarray:
    """sum_k 1/(z - a_k) at every point z; 0 without sources."""
    return _reduce(points, sources, lambda d: (_field(d),), (_FIELD,))[0]


def modulus_sum(points, sources) -> np.ndarray:
    """sum_k 1/|z - a_k| at every point z; 0 without sources."""
    return _reduce(points, sources,
                   lambda d: ((1.0 / np.abs(d)).sum(axis=-1),), (_MODULUS,))[0]


def min_distance(points, sources) -> np.ndarray:
    """min_k |z - a_k| at every point z; inf without sources."""
    return _reduce(points, sources, lambda d: (np.abs(d).min(axis=-1),),
                   (_NEAREST,))[0]


def _product(d):
    with np.errstate(over="ignore"):      # inf: the product exceeds doubles
        return (np.abs(d).prod(axis=-1),)


def distance_product(points, sources) -> np.ndarray:
    """prod_k |z - a_k| at every point z; 1 without sources, 0 on a source."""
    return _reduce(points, sources, _product, (_PRODUCT,))[0]


def field_modulus_nearest(points, sources):
    """(field_sum, modulus_sum, min_distance) at every point, in one pass."""
    def row(d):
        dist = np.abs(d)
        nearest = dist.min(axis=-1)
        return (_field(d), np.divide(1.0, dist, out=dist).sum(axis=-1),
                nearest)

    return tuple(_reduce(points, sources, row, (_FIELD, _MODULUS, _NEAREST)))


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
