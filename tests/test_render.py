"""SVG emission: determinism, layer structure, well-formedness."""

import xml.etree.ElementTree as ET

import pytest

from rootfield import geometry as geo
from rootfield import harness, poly, regions, render

K = geo.ConvexDomain.disk(0.0, 1.0)
SPLIT = poly.RootSplit([-0.5, 0.5], [3.0])


def _mask(res=120.0, delta=1e-2):
    bbox = regions.default_bbox(SPLIT, K, 0.5)
    return regions.build_mask(SPLIT, delta, bbox, res)


def _report(**kw):
    base = dict(domain=K, epsilon=0.5, n=6, m=1, delta_sweep=(1e-2,),
                resolution=120.0, seed=3)
    base.update(kw)
    return harness.run_theorem_experiment(harness.ExperimentConfig(**base))


def test_minimal_mask_svg_is_well_formed(tmp_path):
    path = tmp_path / "mask.svg"
    render.emit_svg(_mask(res=60.0), path)
    root = ET.parse(path).getroot()
    assert root.tag.endswith("svg")
    assert path.read_text().startswith('<?xml version="1.0"')


def test_mask_svg_byte_identical(tmp_path):
    mask = _mask()
    a, b = tmp_path / "a.svg", tmp_path / "b.svg"
    render.emit_svg(mask, a, split=SPLIT, K=K, epsilon=0.5)
    render.emit_svg(mask, b, split=SPLIT, K=K, epsilon=0.5)
    assert a.read_bytes() == b.read_bytes()


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


def test_polygon_domain_renders(tmp_path):
    square = geo.ConvexDomain.polygon([1 + 1j, -1 + 1j, -1 - 1j, 1 - 1j])
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
    with pytest.raises(TypeError):
        render.emit_svg({"not": "renderable"}, tmp_path / "x.svg")
