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
"""

from __future__ import annotations

import numpy as np

_PAIRS = 1 << 20          # point-source pairs per evaluation block
_FIELD = (np.complex128, 0.0)     # (dtype, value without sources)
_MODULUS = (np.float64, 0.0)
_NEAREST = (np.float64, np.inf)
_PRODUCT = (np.float64, 1.0)
ROUNDING = 16.0           # factor on the (k + 2) eps rounding estimates


def _reduce(points, sources, row, kinds, skip_self=False):
    """One output per kind; row maps a block of differences z - a to one
    reduced row per kind and may overwrite the block."""
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
                if skip_self:       # the points are the sources
                    np.fill_diagonal(diff[:, lo:], np.inf)
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


def self_field(points, weights=1.0) -> np.ndarray:
    """sum_{j != i by position} w_j/(z_i - z_j) at each z_i of a 1-D array."""
    return _reduce(points, points,
                   lambda d: (np.divide(weights, d, out=d).sum(axis=-1),),
                   (_FIELD,), skip_self=True)[0]


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
