"""Points x sources reductions: field sums, modulus sums, nearest distances.

Each function takes points of any shape and a 1-D array of sources and
returns one value per point, reduced over the sources.  The table is built
in blocks of at most _PAIRS pairs; each point is reduced over its own row,
so the block size changes no bit.  A point on a source gives inf or nan.
"""

from __future__ import annotations

import numpy as np

_PAIRS = 1 << 20          # point-source pairs per evaluation block


def _reduce(points, sources, row, dtype, empty) -> np.ndarray:
    z = np.asarray(points, dtype=np.complex128)
    src = np.asarray(sources, dtype=np.complex128)
    flat = z.ravel()
    out = np.full(flat.shape, empty, dtype=dtype)
    if src.size:
        # one table serves every block: a fresh table per block can
        # page-fault its whole size again on each block
        rows = max(1, min(flat.size, _PAIRS // src.size))
        table = np.empty((rows, src.size), dtype=np.complex128)
        with np.errstate(divide="ignore", invalid="ignore"):
            for lo in range(0, flat.size, rows):
                blk = flat[lo:lo + rows]
                out[lo:lo + rows] = row(np.subtract(blk[:, None], src,
                                                    out=table[:blk.size]))
    return out.reshape(z.shape)


def field_sum(points, sources) -> np.ndarray:
    """sum_k 1/(z - a_k) at every point z; 0 without sources."""
    return _reduce(points, sources,
                   lambda d: np.divide(1.0, d, out=d).sum(axis=-1),
                   np.complex128, 0.0)


def modulus_sum(points, sources) -> np.ndarray:
    """sum_k 1/|z - a_k| at every point z; 0 without sources."""
    return _reduce(points, sources, lambda d: (1.0 / np.abs(d)).sum(axis=-1),
                   np.float64, 0.0)


def min_distance(points, sources) -> np.ndarray:
    """min_k |z - a_k| at every point z; inf without sources."""
    return _reduce(points, sources, lambda d: np.abs(d).min(axis=-1),
                   np.float64, np.inf)
