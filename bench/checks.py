"""Output checks for the benchmark, computed apart from rootfield.

Every check takes plain arrays or parsed files and returns a list of
problems; an empty list means the output passed.  Nothing here calls into
rootfield: the oracles are direct numpy evaluations, numpy.roots, and
properties the method must have (Vieta's sums for p', the Rouché count
equality, the torus floor and bound).
"""

from __future__ import annotations

import json
import xml.etree.ElementTree as ET

import numpy as np

RESIDUAL_TOL = 1e-10     # |sum 1/(w-a)| / sum |1/(w-a)| at a critical point
VIETA_TOL = 1e-8         # power sums of p' roots, relative to sum |w|^k
SIGN_TOL = 1e-9          # g this close to 0, relative to its terms, is a tie
MIN_REL_TOL = 1e-2       # dense-sampling agreement of curve minima
SVG_NS = "{http://www.w3.org/2000/svg}"
SVG_POS_ERR = 1e-6       # data-unit error of a cell center read from the SVG


def _field_sum(sources: np.ndarray, zs: np.ndarray,
               block: int = 1 << 21) -> tuple[np.ndarray, np.ndarray]:
    """(sum 1/(z - s), sum 1/|z - s|) over the sources, chunked."""
    zs = np.asarray(zs, dtype=complex).ravel()
    total = np.zeros(zs.shape, dtype=complex)
    scale = np.zeros(zs.shape)
    step = max(1, block // max(1, sources.size))
    for lo in range(0, zs.size, step):
        with np.errstate(divide="ignore", invalid="ignore"):
            inv = 1.0 / (zs[lo:lo + step, None] - sources[None, :])
        total[lo:lo + step] = inv.sum(axis=1)
        scale[lo:lo + step] = np.abs(inv).sum(axis=1)
    return total, scale


# ---------------------------------------------------------------------------
# critical points and the theorem verdict
# ---------------------------------------------------------------------------

def critical_points(w, roots) -> list[str]:
    """Count n+m-1, relative residual of each point, and Vieta's sums."""
    w = np.asarray(w, dtype=complex)
    a = np.asarray(roots, dtype=complex)
    big_n = a.size
    problems = []
    if w.size != big_n - 1:
        problems.append(f"{w.size} critical points, expected {big_n - 1}")
    if w.size == 0:
        return problems
    if not np.all(np.isfinite(w)):
        return problems + ["non-finite critical point"]
    value, scale = _field_sum(a, w)
    with np.errstate(invalid="ignore"):
        rel = np.abs(value) / scale
    worst = float(np.where(np.isfinite(rel), rel, np.inf).max())
    if not worst <= RESIDUAL_TOL:
        problems.append(f"worst relative residual {worst:.3e} "
                        f"> {RESIDUAL_TOL:.0e}")
    # p = prod (z - a) = z^N - e1 z^(N-1) + e2 z^(N-2) - ...
    # p' = N z^(N-1) - (N-1) e1 z^(N-2) + (N-2) e2 z^(N-3) - ...
    e1 = a.sum()
    e2 = (e1 * e1 - (a * a).sum()) / 2.0
    s1 = (big_n - 1) / big_n * e1
    pair = (big_n - 2) / big_n * e2
    s2 = s1 * s1 - 2.0 * pair
    for k, want in ((1, s1), (2, s2)):
        got = (w ** k).sum()
        tol = VIETA_TOL * max(1.0, float((np.abs(w) ** k).sum()),
                              float((np.abs(a) ** k).sum()))
        if not abs(got - want) <= tol:
            problems.append(f"sum w^{k} = {got:.12g}, Vieta gives "
                            f"{want:.12g}")
    return problems


def critical_points_match(w, roots, tol: float = 1e-6) -> list[str]:
    """Critical points agree with numpy.roots of p' as a multiset."""
    from scipy.optimize import linear_sum_assignment
    w = np.asarray(w, dtype=complex)
    ref = np.roots(np.polyder(np.poly(np.asarray(roots, dtype=complex))))
    if w.size != ref.size:
        return [f"{w.size} critical points, numpy.roots gives {ref.size}"]
    cost = np.abs(w[:, None] - ref[None, :])
    rows, cols = linear_sum_assignment(cost)
    worst = float((cost[rows, cols] / (1.0 + np.abs(ref[cols]))).max())
    if not worst <= tol:
        return [f"critical points differ from numpy.roots by {worst:.3e}"]
    return []


def points(pairs) -> np.ndarray:
    """[[x, y], ...] as a complex array."""
    return np.array([complex(x, y) for x, y in pairs], dtype=complex)


def theorem_counts(report: dict, epsilon: float, radius: float = 1.0,
                   center: complex = 0j) -> list[str]:
    """crit_in_Keps, roots_in_K and the verdict from |w - c| - R <= eps."""
    roots = points(report["roots"]["inside"] + report["roots"]["outside"])
    crit = points(report["critical_points"])
    roots_in = int((np.abs(roots - center) <= radius).sum())
    crit_in = int((np.abs(crit - center) - radius <= epsilon).sum())
    verdict = bool(crit.size > 0 and crit_in >= roots_in - 1)
    counts = report["counts"]
    problems = []
    if counts["roots_in_K"] != roots_in:
        problems.append(f"roots_in_K {counts['roots_in_K']} != {roots_in}")
    if counts["crit_in_Keps"] != crit_in:
        problems.append(f"crit_in_Keps {counts['crit_in_Keps']} != "
                        f"{crit_in}")
    if counts["crit_elsewhere"] != crit.size - crit_in:
        problems.append("crit_elsewhere does not complete the count")
    if report["verdict"] is not verdict:
        problems.append(f"verdict {report['verdict']} != {verdict}")
    if report["errors"]:
        problems.append(f"report errors {report['errors']}")
    for d in report["deltas"]:
        if d["error"] is not None:
            problems.append(f"delta {d['delta']}: {d['error']}")
    return problems


def count_inside(w, radius: float, count: int, center: complex = 0j,
                 clearance: float = 0.0) -> list[str]:
    """An argument-principle count equals the points strictly inside."""
    d = np.abs(np.asarray(w, dtype=complex) - center) - radius
    problems = []
    if np.any(np.abs(d) <= clearance):
        problems.append(f"a critical point lies within {clearance:g} of the "
                        "circle; the count is ambiguous")
    want = int((d < 0).sum())
    if count != want:
        problems.append(f"count {count} inside radius {radius:g}, "
                        f"{want} critical points lie inside")
    return problems


# ---------------------------------------------------------------------------
# the dominance set A_delta
# ---------------------------------------------------------------------------

def indicator(inside, outside, delta: float, zs) -> tuple[np.ndarray,
                                                          np.ndarray]:
    """(g, scale): g = |sum 1/(z-q)| - |sum 1/(z-r)| - delta/prod|z-r|."""
    zs = np.asarray(zs, dtype=complex).ravel()
    q = np.asarray(inside, dtype=complex)
    r = np.asarray(outside, dtype=complex)
    a, _ = _field_sum(q, zs)
    b, _ = _field_sum(r, zs) if r.size else (np.zeros(zs.shape), None)
    with np.errstate(divide="ignore", over="ignore"):
        c = delta / np.prod(np.abs(zs[:, None] - r[None, :]), axis=1) \
            if r.size else np.full(zs.shape, delta)
    a, b = np.abs(a), np.abs(b)
    return a - b - c, a + b + c


def _lipschitz(inside, outside, delta: float, zs) -> np.ndarray:
    """Bound on |grad g|: sum 1/|z-q|^2 + sum 1/|z-r|^2 + c sum 1/|z-r|."""
    zs = np.asarray(zs, dtype=complex).ravel()
    dq = np.abs(zs[:, None] - np.asarray(inside, dtype=complex)[None, :])
    dr = np.abs(zs[:, None] - np.asarray(outside, dtype=complex)[None, :])
    c = delta / np.prod(dr, axis=1)
    return ((1.0 / dq ** 2).sum(axis=1) + (1.0 / dr ** 2).sum(axis=1)
            + c * (1.0 / dr).sum(axis=1))


def mask_signs(inside, outside, delta: float, bbox, resolution: float,
               labels: np.ndarray, rng: np.random.Generator,
               sample: int = 20_000) -> list[str]:
    """Labeled cells have g <= 0 and unlabeled cells g > 0, by direct sums.

    Checked cells: every labeled cell, the 4-neighbour ring around the
    labeled set, and a seeded sample of the remaining cells.  Cells whose
    g is within SIGN_TOL of zero, relative to its terms, count as ties.
    """
    labels = np.asarray(labels)
    inset = labels >= 0
    ring = np.zeros_like(inset)
    ring[1:, :] |= inset[:-1, :]
    ring[:-1, :] |= inset[1:, :]
    ring[:, 1:] |= inset[:, :-1]
    ring[:, :-1] |= inset[:, 1:]
    chosen = inset | ring
    rest = np.flatnonzero(~chosen)
    if rest.size:
        pick = rng.choice(rest, size=min(sample, rest.size), replace=False)
        chosen.flat[pick] = True
    ii, jj = np.nonzero(chosen)
    h = 1.0 / resolution
    zs = bbox[0] + (jj + 0.5) * h + 1j * (bbox[2] + (ii + 0.5) * h)
    g, scale = indicator(inside, outside, delta, zs)
    tie = ~np.isfinite(g) | (np.abs(g) <= SIGN_TOL * scale)
    labeled = inset[ii, jj]
    wrong_in = labeled & ~tie & (g > 0)
    wrong_out = ~labeled & ~tie & (g <= 0)
    problems = []
    if wrong_in.any():
        problems.append(f"{int(wrong_in.sum())} labeled cells have g > 0 "
                        f"(delta {delta:g})")
    if wrong_out.any():
        problems.append(f"{int(wrong_out.sum())} unlabeled cells have "
                        f"g <= 0 (delta {delta:g})")
    return problems


def census(components, n_crit: int) -> list[str]:
    """On positive-margin components: crit count = q' + r roots enclosed."""
    problems = []
    for c in components:
        if not c["rouche_margin"] > 0:
            continue
        if c["count_error"] is not None:
            problems.append(f"component {c['component']}: positive margin "
                            f"but {c['count_error']}")
        elif c["crit_points_inside"] != (c["qprime_roots_enclosed"]
                                         + c["r_roots_enclosed"]):
            problems.append(
                f"component {c['component']}: {c['crit_points_inside']} "
                f"critical points, {c['qprime_roots_enclosed']} q' roots + "
                f"{c['r_roots_enclosed']} r roots enclosed")
        elif not 0 <= c["crit_points_inside"] <= n_crit:
            problems.append(f"component {c['component']}: count "
                            f"{c['crit_points_inside']} out of range")
    return problems


# ---------------------------------------------------------------------------
# CLI artifacts
# ---------------------------------------------------------------------------

def report_schema(report: dict, schema: dict) -> list[str]:
    import jsonschema
    try:
        jsonschema.validate(report, schema)
    except jsonschema.ValidationError as exc:
        return [f"report.json fails its schema: {exc.message}"]
    return []


def svg_cells(path, inside, outside, delta: float, resolution: float,
              disk_center: complex, disk_radius: float) -> list[str]:
    """figure.svg parses, and every cell it fills has g <= 0.

    The pixel frame is read back from the circle drawn for K; each filled
    run of cells maps to grid cells of side 1/resolution.  Coordinates
    carry six decimals, so a cell center read back is off by up to
    SVG_POS_ERR; cells whose |g| is within that error times a bound on
    |grad g| count as ties.
    """
    try:
        root = ET.parse(path).getroot()
    except ET.ParseError as exc:
        return [f"figure.svg does not parse: {exc}"]
    if root.tag != SVG_NS + "svg":
        return [f"figure.svg root element is {root.tag}"]
    disk = [e for e in root.iter(SVG_NS + "circle")
            if e.get("fill") == "#e4eef8"]
    if len(disk) != 1:
        return ["figure.svg has no single circle for K"]
    scale = float(disk[0].get("r")) / disk_radius
    pad = 20.0
    x0 = disk_center.real - (float(disk[0].get("cx")) - pad) / scale
    y1 = disk_center.imag + (float(disk[0].get("cy")) - pad) / scale
    h = 1.0 / resolution
    cells = []
    for g in root.iter(SVG_NS + "g"):
        for rect in g.iter(SVG_NS + "rect"):
            x = (float(rect.get("x")) - pad) / scale + x0
            y = y1 - (float(rect.get("y")) - pad) / scale
            run = int(round(float(rect.get("width")) / scale / h))
            j0 = int(round((x - x0) / h))
            for j in range(j0, j0 + run):
                cells.append(complex(x0 + (j + 0.5) * h, y - 0.5 * h))
    if not cells:
        return []
    cells = np.array(cells)
    g, scale_g = indicator(inside, outside, delta, cells)
    slack = SIGN_TOL * scale_g \
        + SVG_POS_ERR * _lipschitz(inside, outside, delta, cells)
    tie = ~np.isfinite(g) | (np.abs(g) <= slack)
    wrong = ~tie & (g > 0)
    if wrong.any():
        return [f"figure.svg fills {int(wrong.sum())} of {len(cells)} cells "
                "where g > 0"]
    return []


# ---------------------------------------------------------------------------
# charges and the supercharging probe
# ---------------------------------------------------------------------------

def _torus_distance(a, b):
    w = np.mod(np.asarray(a, dtype=float) - np.asarray(b, dtype=float), 1.0)
    return np.minimum(w, 1.0 - w)


def torus_point(points, y: float, value: float) -> list[str]:
    """Distance >= 1/(10m), potential as reported, and <= 20m log 20m."""
    x = np.mod(np.asarray(points, dtype=float), 1.0)
    m = x.size
    d = _torus_distance(y, x)
    problems = []
    if not d.min() >= 1.0 / (10.0 * m):
        problems.append(f"torus point {y!r} is {d.min():.3e} from a charge, "
                        f"floor {1.0 / (10.0 * m):.3e}")
        return problems
    mine = float(np.sum(1.0 / d))
    if not abs(mine - value) <= 1e-9 * mine:
        problems.append(f"torus potential {value!r}, direct sum {mine!r}")
    bound = 20.0 * m * np.log(20.0 * m)
    if not value <= bound:
        problems.append(f"torus potential {value:.6g} > bound {bound:.6g}")
    return problems


def _polyline_distance(vertices: np.ndarray, z: np.ndarray) -> np.ndarray:
    a = vertices[:-1][None, :]
    d = np.diff(vertices)[None, :]
    z = np.asarray(z, dtype=complex).ravel()[:, None]
    t = np.clip(((z - a) * np.conj(d)).real / np.abs(d) ** 2, 0.0, 1.0)
    return np.abs(z - (a + t * d)).min(axis=1)


def _polyline_points(vertices: np.ndarray, n: int) -> np.ndarray:
    seg = np.abs(np.diff(vertices))
    cum = np.concatenate([[0.0], np.cumsum(seg)])
    s = np.linspace(0.0, cum[-1], n)
    k = np.clip(np.searchsorted(cum, s, side="right") - 1, 0, seg.size - 1)
    return vertices[k] + (s - cum[k]) / seg[k] * np.diff(vertices)[k]


def lemma_witness(charges, vertices, point: complex, value: float,
                  normalized: float, torus_value: float,
                  torus_y: float) -> list[str]:
    """The witness lies on the curve, carries its potential, and every
    link of the projection chain holds: 2-D <= torus <= 20 m log 20m."""
    z = np.asarray(charges, dtype=complex)
    v = np.asarray(vertices, dtype=complex)
    s = v[-1] - v[0]
    problems = []
    off = float(_polyline_distance(v, point)[0])
    if not off <= 1e-9 * max(1.0, float(np.abs(v).max())):
        problems.append(f"witness is {off:.3e} off the curve")
    mine = float(np.sum(1.0 / np.abs(point - z)))
    if not abs(mine - value) <= 1e-9 * mine:
        problems.append(f"witness value {value!r}, direct sum {mine!r}")
    if not abs(normalized - value * abs(s)) <= 1e-9 * normalized:
        problems.append("normalized value is not value * |gamma(1)-gamma(0)|")
    zn = ((z - v[0]) / s).real
    problems += torus_point(zn, torus_y, torus_value)
    if not normalized <= torus_value * (1.0 + 1e-9):
        problems.append(f"witness {normalized:.6g} above its torus value "
                        f"{torus_value:.6g}")
    return problems


def curve_minimum(charges, vertices, mode: str, value: float,
                  samples: int) -> list[str]:
    """A curve minimum agrees with dense sampling within MIN_REL_TOL.

    The modulus potential is a sum of positive terms, so float32 distances
    keep it to about 1e-6 relative, ample for a 1% check at half the cost;
    the field sum can cancel and stays in double precision.
    """
    z = np.asarray(charges, dtype=complex)
    pts = _polyline_points(np.asarray(vertices, dtype=complex), samples)
    best = np.inf
    step = max(1, (1 << 20) // z.size)
    zx, zy = z.real.astype(np.float32), z.imag.astype(np.float32)
    for lo in range(0, pts.size, step):
        blk = pts[lo:lo + step, None]
        if mode == "modulus":
            dx = blk.real.astype(np.float32) - zx
            dy = blk.imag.astype(np.float32) - zy
            d = np.sqrt(dx * dx + dy * dy)
            vals = (1.0 / d).sum(axis=1, dtype=np.float64)
        else:
            vals = np.abs((1.0 / (blk - z)).sum(axis=1))
        best = min(best, float(vals.min()))
    if not abs(best - value) <= MIN_REL_TOL * max(abs(best), abs(value)):
        return [f"{mode} minimum {value:.9g}, dense sampling at {samples} "
                f"points gives {best:.9g}"]
    return []


def supercharge(charges, vertices, margin: float, achieved: float,
                ceiling: float) -> list[str]:
    """Charges keep the exclusion margin; achieved <= the lemma ceiling."""
    z = np.asarray(charges, dtype=complex)
    v = np.asarray(vertices, dtype=complex)
    m = z.size
    problems = []
    clear = float(_polyline_distance(v, z).min())
    if not clear >= margin:
        problems.append(f"a charge is {clear:.3e} from the curve, margin "
                        f"{margin:g}")
    bound = 20.0 * m * np.log(20.0 * m) / abs(v[-1] - v[0])
    if not achieved <= ceiling * (1.0 + 1e-9):
        problems.append(f"achieved {achieved:.9g} above the lemma ceiling "
                        f"{ceiling:.9g}")
    if not ceiling <= bound * (1.0 + 1e-9):
        problems.append(f"lemma ceiling {ceiling:.9g} above 20m log 20m")
    return problems


def load_json(path) -> dict:
    with open(path) as fh:
        return json.load(fh)
