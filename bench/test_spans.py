"""The tracer opens spans only at module crossings, and self times add up.

Run with:  python3 -m pytest bench/test_spans.py -q
"""

import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import spans  # noqa: E402
import rootfield  # noqa: E402
import rootfield.cli  # noqa: E402,F401


def test_spans_mark_crossings_and_add_up():
    original = rootfield.regions.critical_points
    cfg = rootfield.harness.ExperimentConfig(
        domain=rootfield.geometry.ConvexDomain.disk(0.0, 1.0), epsilon=0.5,
        n=6, m=1, delta_sweep=(1e-2,), resolution=40.0, seed=3)
    tr = spans.Tracer()
    tr.begin(rootfield)
    rootfield.harness.run_theorem_experiment(cfg)
    tr.end()

    assert rootfield.regions.critical_points is original
    assert tr.calls["harness.run_theorem_experiment"] == 1
    # once from the harness, then for p and q inside classify_components
    assert tr.calls["poly.critical_points"] == 3
    callers = {sp[1] for sp in tr.spans if sp[0] == "poly.critical_points"}
    assert callers == {"harness", "regions"}
    # build_mask is only ever called from inside regions here: no span
    assert tr.calls["regions.build_masks"] == 1
    assert tr.calls["regions.build_mask"] == 0
    assert tr.counters["regions.build_masks.cells"] > 0

    layers = tr.per_layer(1, 0.0)
    root_start, root_end = tr.spans[0][2:4]
    parts = sum(layers[f"{m}.s"] for m in spans.MODULES + (spans.ROOT,))
    assert parts == pytest.approx(root_end - root_start, rel=1e-9)
    assert layers["traced.wall_s"] == pytest.approx(root_end - root_start,
                                                    rel=1e-9)
