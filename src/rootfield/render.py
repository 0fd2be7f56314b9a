"""Deterministic SVG figures: K, its neighborhood, roots, regions.

String-built SVG with a fixed element order and fixed float formatting,
so identical inputs produce byte-identical files.  A report's figure
shows the report's own first-delta mask, rebuilt only for JSON input.
"""

from __future__ import annotations

import numpy as np

from . import harness as _harness
from . import regions
from .geometry import ConvexDomain
from .poly import RootSplit

FLOAT_FMT = "%.6f"
WIDTH = 800.0            # canvas width in px; height follows the bbox
_PAD = 20.0
_CROSS = 3.0             # critical-point cross arm, px
_DOT = 2.5               # root dot radius, px
_OUTLINE_STEPS = 360     # support-function samples of the K_eps boundary
_PALETTE = ("#a6cee3", "#b2df8a", "#fdbf6f", "#cab2d6", "#fb9a99",
            "#80b1d3")
_K_FILL = "#e4eef8"
_KEPS_FILL = "#f2f7fc"
_EDGE = "#35506b"


def _num(x: float) -> str:
    s = FLOAT_FMT % float(x)
    return "0.000000" if s == "-0.000000" else s


class _Frame:
    """Data coordinates to pixel coordinates, y flipped."""

    def __init__(self, bbox, width=WIDTH):
        self.x0, x1, self.y0, self.y1 = (float(v) for v in bbox)
        self.scale = (width - 2 * _PAD) / (x1 - self.x0)
        self.w = width
        self.h = (self.y1 - self.y0) * self.scale + 2 * _PAD

    def x(self, v) -> str:
        return _num((float(v) - self.x0) * self.scale + _PAD)

    def y(self, v) -> str:
        return _num((self.y1 - float(v)) * self.scale + _PAD)

    def d(self, v) -> str:
        return _num(float(v) * self.scale)

    def pt(self, z) -> str:
        return f"{self.x(z.real)},{self.y(z.imag)}"


def _neighborhood_outline(K: ConvexDomain, epsilon: float) -> np.ndarray:
    """Boundary points of K_eps via support points of the sum."""
    th = 2.0 * np.pi * np.arange(_OUTLINE_STEPS) / _OUTLINE_STEPS
    dirs = np.exp(1j * th)
    if K.kind == "disk":
        base = K.center + K.radius * dirs
    else:
        v = K.vertices
        score = np.real(np.conj(dirs)[:, None] * v[None, :])
        base = v[np.argmax(score, axis=1)]
    return base + epsilon * dirs


def _polygon_path(frame: _Frame, pts) -> str:
    coords = " L ".join(f"{frame.x(z.real)} {frame.y(z.imag)}" for z in pts)
    return f"M {coords} Z"


def _domain_layers(frame, K, epsilon):
    ring = _polygon_path(frame, _neighborhood_outline(K, epsilon))
    out = [f'<path d="{ring}" fill="{_KEPS_FILL}" stroke="{_EDGE}" '
           'stroke-width="1" stroke-dasharray="5 4"/>']
    if K.kind == "disk":
        cx, cy = frame.x(K.center.real), frame.y(K.center.imag)
        out.append(f'<circle cx="{cx}" cy="{cy}" r="{frame.d(K.radius)}" '
                   f'fill="{_K_FILL}" stroke="{_EDGE}" stroke-width="1.5"/>')
    else:
        out.append(f'<path d="{_polygon_path(frame, K.vertices)}" '
                   f'fill="{_K_FILL}" stroke="{_EDGE}" stroke-width="1.5"/>')
    return out


def _component_rects(frame, mask: regions.RegionMask):
    """One rect per row run of labeled cells, rows bottom-up; only the
    window of the labeled cells is scanned.  Cells side by side in a row
    are 4-connected, so a run holds one label."""
    out = ['<g shape-rendering="crispEdges">']
    rows, cols = mask.window_of(range(mask.n_components))
    labels = mask.labels_on((rows, cols))
    h = mask.cell_size
    x0, _, y0, _ = mask.bbox
    ii, start, stop = regions._runs(labels >= 0)
    for i, j, k, lab in zip((ii + rows.start).tolist(),
                            (start + cols.start).tolist(),
                            (stop + cols.start).tolist(),
                            labels[ii, start].tolist()):
        out.append(
            f'<rect x="{frame.x(x0 + j * h)}" '
            f'y="{frame.y(y0 + (i + 1) * h)}" '
            f'width="{frame.d((k - j) * h)}" height="{frame.d(h)}" '
            f'fill="{_PALETTE[lab % len(_PALETTE)]}"/>')
    out.append("</g>")
    return out


def _marker_layers(frame, inside, outside, crit):
    out = []
    for z in np.asarray(inside, dtype=complex):
        out.append(f'<circle cx="{frame.x(z.real)}" cy="{frame.y(z.imag)}" '
                   f'r="{_num(_DOT)}" fill="#1f77b4"/>')
    for z in np.asarray(outside, dtype=complex):
        out.append(f'<circle cx="{frame.x(z.real)}" cy="{frame.y(z.imag)}" '
                   f'r="{_num(_DOT)}" fill="#d62728"/>')
    for z in np.asarray(crit, dtype=complex):
        cx = (float(z.real) - frame.x0) * frame.scale + _PAD
        cy = (frame.y1 - float(z.imag)) * frame.scale + _PAD
        a = _CROSS
        out.append(
            f'<path d="M {_num(cx - a)} {_num(cy - a)} '
            f'L {_num(cx + a)} {_num(cy + a)} '
            f'M {_num(cx - a)} {_num(cy + a)} '
            f'L {_num(cx + a)} {_num(cy - a)}" '
            'stroke="#222222" stroke-width="1.2" fill="none"/>')
    return out


def _witness_layer(frame, path):
    pts = " ".join(frame.pt(z) for z in np.asarray(path, dtype=complex))
    return [f'<polyline points="{pts}" fill="none" stroke="#ff7f0e" '
            'stroke-width="2" stroke-dasharray="6 3"/>']


def _report_mask(report) -> regions.RegionMask | None:
    """The mask the report's first delta was counted on, or None.

    Carried by a fresh report; for one read from JSON, rebuilt the way
    the harness built it.
    """
    if report.mask is not _harness.MASK_NOT_CARRIED:
        return report.mask
    if not report.deltas:
        return None
    split = RootSplit(report.inside_roots, report.outside_roots)
    masks = _harness.delta_masks(split, report.config)
    return None if masks is None else masks[0]


def emit_svg(report, path) -> None:
    """Write the SVG figure of a TheoremReport.

    Layers, bottom to top: K_eps, K, filled A_delta components, roots
    (dots: inside blue, outside red), critical points (crosses), and the
    bridging witness path when the report carries one.
    """
    if not isinstance(report, _harness.TheoremReport):
        raise TypeError(f"cannot render {type(report).__name__}")
    K, epsilon = report.config.domain, report.config.epsilon
    split = RootSplit(report.inside_roots, report.outside_roots)
    mask = _report_mask(report)
    witness = next((d.witness for d in report.deltas
                    if d.witness is not None), None)
    frame = _Frame(mask.bbox if mask is not None
                   else regions.default_bbox(split, K, epsilon))

    lines = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_num(frame.w)}" '
        f'height="{_num(frame.h)}" '
        f'viewBox="0 0 {_num(frame.w)} {_num(frame.h)}">',
        f'<rect width="{_num(frame.w)}" height="{_num(frame.h)}" '
        'fill="#ffffff"/>',
    ]
    lines += _domain_layers(frame, K, epsilon)
    if mask is not None:
        lines += _component_rects(frame, mask)
    lines += _marker_layers(frame, split.inside, split.outside,
                            report.critical)
    if witness is not None:
        lines += _witness_layer(frame, witness)
    lines.append("</svg>")
    with open(path, "w", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")
