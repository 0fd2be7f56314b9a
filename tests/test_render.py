"""SVG emission: determinism, layer structure, well-formedness."""

import xml.etree.ElementTree as ET

import numpy as np
import pytest
from scipy import ndimage

from rootfield import geometry as geo
from rootfield import harness, poly, regions, render

K = geo.ConvexDomain.disk(0.0, 1.0)


def _report(**kw):
    base = dict(domain=K, epsilon=0.5, n=6, m=1, delta_sweep=(1e-2,),
                resolution=120.0, seed=3)
    base.update(kw)
    return harness.run_theorem_experiment(harness.ExperimentConfig(**base))


def test_report_svg_layers(tmp_path):
    rep = _report()
    path = tmp_path / "fig.svg"
    render.emit_svg(rep, path)
    text = path.read_text()
    ET.parse(path)
    # domain ring is dashed, K disk outline is a circle element
    assert 'stroke-dasharray="5 4"' in text
    # 6 inside dots + 1 outside dot + 1 K outline circle
    assert text.count("<circle") == 8
    assert text.count('fill="#1f77b4"') == 6
    assert text.count('fill="#d62728"') == 1
    # one cross per critical point
    assert text.count('stroke="#222222"') == rep.critical.size == 6
    # filled component cells are present when a delta sweep ran
    assert text.count("<rect") >= 2      # background + at least one run


def test_report_svg_byte_identical(tmp_path):
    a, b = tmp_path / "a.svg", tmp_path / "b.svg"
    render.emit_svg(_report(), a)
    render.emit_svg(_report(), b)
    assert a.read_bytes() == b.read_bytes()


def test_witness_polyline_layer(tmp_path):
    # root just past the neighborhood: the dominance set bridges outward
    rep = _report(n=2, m=1, root_sampler=[-0.5, 0.5],
                  outside_sampler=[1.05], resolution=100.0)
    assert rep.deltas[0].bridged is True
    path = tmp_path / "bridge.svg"
    render.emit_svg(rep, path)
    text = path.read_text()
    assert text.count("<polyline") == 1
    assert 'stroke="#ff7f0e"' in text
    ET.parse(path)


def test_no_delta_report_has_no_fill_rects(tmp_path):
    for kw in (dict(delta_sweep=()),
               # the far-field check fails on every bbox the harness
               # tries: no mask was counted, so none is drawn
               dict(epsilon=0.25, n=3, m=1, delta_sweep=(1e-3, 10.0),
                    resolution=30.0, seed=0)):
        rep = _report(**kw)
        assert all(d.components == () for d in rep.deltas)
        path = tmp_path / "plain.svg"
        render.emit_svg(rep, path)
        assert path.read_text().count("<rect") == 1     # background only
        ET.parse(path)


def test_report_figure_draws_the_census_mask(tmp_path, monkeypatch):
    # delta = 3 forces the bbox to grow; the first delta alone would fit
    # the default bbox, but its components were counted on the grown one
    built = []
    real = regions.build_masks

    def recording(*args):
        masks = real(*args)
        built.append(masks)
        return masks

    monkeypatch.setattr(regions, "build_masks", recording)
    rep = _report(epsilon=0.25, n=6, m=1, delta_sweep=(1e-3, 3.0),
                  resolution=30.0, seed=0)
    path = tmp_path / "grown.svg"
    render.emit_svg(rep, path)
    assert len(built) == 1              # the harness's build, none in render
    counted = built[0][0]
    assert counted.bbox != regions.default_bbox(
        poly.RootSplit(rep.inside_roots, rep.outside_roots), K, 0.25)
    # the grown bbox is the default one scaled about its center, so the
    # canvas size alone cannot tell them apart: compare the cells drawn
    frame = render._Frame(counted.bbox)
    text = path.read_text()
    assert render._component_rects(frame, counted)[1:-1] \
        == [ln for ln in text.split("\n") if ln.startswith("<rect x=")]
    assert f'r="{frame.d(1.0)}"' in text           # K's outline, same frame


def _component_rects_by_cell(frame, mask):
    """The cell-by-cell run walk that _component_rects replaced."""
    out = ['<g shape-rendering="crispEdges">']
    labels = mask.labels
    h = mask.cell_size
    ny, nx = labels.shape
    x0, _, y0, _ = mask.bbox
    for i in range(ny):
        row = labels[i]
        j = 0
        while j < nx:
            lab = int(row[j])
            if lab < 0:
                j += 1
                continue
            k = j
            while k < nx and row[k] == lab:
                k += 1
            out.append(
                f'<rect x="{frame.x(x0 + j * h)}" '
                f'y="{frame.y(y0 + (i + 1) * h)}" '
                f'width="{frame.d((k - j) * h)}" height="{frame.d(h)}" '
                f'fill="{render._PALETTE[lab % len(render._PALETTE)]}"/>')
            j = k
    out.append("</g>")
    return out


@pytest.mark.parametrize("seed", range(6))
def test_component_rects_match_the_cell_walk(seed):
    rng = np.random.default_rng(seed)
    ny, nx = (int(v) for v in rng.integers(1, 40, size=2))
    # short runs of cells in and out of the set: many components, and
    # labels past the palette
    runs = rng.uniform(size=ny * nx) < 0.5
    lengths = rng.integers(1, 6, size=ny * nx)
    cells = np.repeat(runs, lengths)[:ny * nx].reshape(ny, nx)
    cells[rng.integers(ny), :] = True                 # a whole row
    cells[:, 0][rng.uniform(size=ny) < 0.5] = True    # runs at both ends
    cells[:, -1][rng.uniform(size=ny) < 0.5] = True
    # an unlabeled margin, so the scanned window sits inside the grid
    cells = np.pad(cells, rng.integers(0, 5, size=(2, 2)))
    ny, nx = cells.shape
    bbox = (-1.5, -1.5 + nx / 10.0, 0.25, 0.25 + ny / 10.0)
    # 4-connected components with ids in raster order, as build_masks
    # numbers them: cells side by side in a row share a label
    labels = ndimage.label(cells, ndimage.generate_binary_structure(2, 1)
                           )[0] - 1
    mask = regions.RegionMask(bbox, 10.0, 1e-2, labels.astype(np.int32),
                              tuple(ndimage.find_objects(labels + 1)))
    frame = render._Frame(bbox)
    assert render._component_rects(frame, mask) \
        == _component_rects_by_cell(frame, mask)


def test_polygon_domain_renders(tmp_path):
    square = geo.convex_hull([1 + 1j, -1 + 1j, -1 - 1j, 1 - 1j])
    rep = _report(domain=square, epsilon=0.4, delta_sweep=())
    path = tmp_path / "square.svg"
    render.emit_svg(rep, path)
    text = path.read_text()
    assert text.count("<circle") == 7        # dots only, no disk outline
    assert text.count("<path") >= 2          # ring + polygon + crosses
    ET.parse(path)


def test_frame_hand_values():
    frame = render._Frame((-6.0, 8.0, -6.0, 6.0))
    assert frame.x(-6.0) == "20.000000"
    assert frame.y(6.0) == "20.000000"
    assert frame.x(8.0) == "780.000000"
    assert frame.y(-6.0) == "671.428571"
    assert frame.h == pytest.approx(12 * 760 / 14 + 40)


def test_negative_zero_formatting():
    assert render._num(-1e-9) == "0.000000"
    assert render._num(-0.0) == "0.000000"
    assert render._num(1.5) == "1.500000"


def test_unsupported_object_rejected(tmp_path):
    # a bare mask too: a figure is drawn from a report alone
    mask = regions.RegionMask((0.0, 1.0, 0.0, 1.0), 4.0, 1e-2,
                              np.full((4, 4), -1), ())
    for obj in ({"not": "renderable"}, mask):
        with pytest.raises(TypeError):
            render.emit_svg(obj, tmp_path / "x.svg")
