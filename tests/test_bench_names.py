"""Every rootfield name the benchmark reads exists.

The benchmark reaches the package as ``rf`` (or ``self.rf``) in
`bench/workloads.py`, and names traced functions as "module.function"
keys of `_HOOKS` in `bench/spans.py`.  Both files are only read here, so
a removed or renamed public name fails this test, not the benchmark run.
The hooks' counters read attributes of what the traced calls return or
raise; each hook runs here on a real call, so a renamed attribute fails
here too.
"""

import ast
import importlib
import importlib.util
from pathlib import Path

import numpy as np
import pytest

import rootfield
import rootfield.cli  # noqa: F401  (the package does not load it; bench does)
from rootfield import charges, contours, geometry, poly, search
from rootfield.errors import BudgetExhausted, GrowBBox, RootOnContour

BENCH = Path(__file__).resolve().parent.parent / "bench"


def _rf_chain(node, aliases):
    """Names below the package of an rf, self.rf or alias chain, or None."""
    names = []
    while isinstance(node, ast.Attribute):
        names.append(node.attr)
        node = node.value
    names.reverse()
    if not isinstance(node, ast.Name):
        return None
    if node.id == "self" and names[:1] == ["rf"]:
        return names[1:]
    if node.id == "rf":
        return names
    if node.id in aliases:
        return aliases[node.id] + names
    return None


def _workload_chains():
    tree = ast.parse((BENCH / "workloads.py").read_text())
    aliases = {}                  # c = self.rf.charges, then c.name
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and len(node.targets) == 1 \
                and isinstance(node.targets[0], ast.Name):
            chain = _rf_chain(node.value, {})
            if chain:
                aliases[node.targets[0].id] = chain
    chains = {tuple(_rf_chain(node, aliases) or ())
              for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
    return sorted(chains - {()})


def _hook_keys():
    tree = ast.parse((BENCH / "spans.py").read_text())
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "_HOOKS"
                for t in node.targets):
            return [k.value for k in node.value.keys]
    return []


def test_bench_names_are_found():
    assert len(_workload_chains()) >= 10
    assert len(_hook_keys()) >= 5


@pytest.mark.parametrize("chain", _workload_chains(), ids=".".join)
def test_workload_names_resolve(chain):
    obj = rootfield
    for i, name in enumerate(chain):
        assert hasattr(obj, name), f"rf.{'.'.join(chain[:i + 1])} is gone"
        obj = getattr(obj, name)


@pytest.mark.parametrize("key", _hook_keys())
def test_span_hook_names_resolve(key):
    module, name = key.split(".")
    mod = importlib.import_module(f"rootfield.{module}")
    assert callable(getattr(mod, name, None)), f"{key} is gone"


def _spans():
    """bench/spans.py, loaded from its file under a name of its own."""
    spec = importlib.util.spec_from_file_location("bench_spans",
                                                  BENCH / "spans.py")
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def _traced(spans, key):
    """A fresh Tracer and the function key wrapped by it, so the key's
    hook runs on what each call returns or raises."""
    module, name = key.split(".")
    tr = spans.Tracer()
    fn = getattr(importlib.import_module(f"rootfield.{module}"), name)
    return tr, tr._wrap(fn, module)


def test_span_hooks_count_from_real_outputs():
    spans = _spans()
    split = poly.RootSplit([-0.5, 0.5], [3.0])
    disk = geometry.ConvexDomain.disk(0.0, 1.0)
    box, tight = (-6.0, 8.0, -6.0, 6.0), (-4.0, 5.0, -4.0, 4.0)
    keys = set()

    def hook(key):
        keys.add(key)
        return _traced(spans, key)

    tr, build_masks = hook("regions.build_masks")
    masks = build_masks(split, [1e-2, 1e-3], box, 20.0)
    assert tr.counters["regions.build_masks.cells"] \
        == sum(m.labels.size for m in masks) > 0
    with pytest.raises(GrowBBox):
        build_masks(split, [1e-3], tight, 20.0)
    assert tr.counters["regions.build_masks.retries"] == 1

    tr, build_mask = hook("regions.build_mask")
    with pytest.raises(GrowBBox):
        build_mask(split, 1e-3, tight, 20.0)
    assert tr.counters["regions.build_masks.retries"] == 1

    tr, classify = hook("regions.classify_components")
    reports = classify(masks[0], split, disk, 0.5)
    certified = [r for r in reports
                 if r.rouche_margin > 0 and r.count_error is None]
    assert certified
    assert tr.counters["regions.components_certified"] == len(certified)
    assert tr.counters["regions.census_crit_points"] \
        == sum(r.crit_points_inside for r in certified) > 0

    tr, count = hook("contours.count_roots_in")
    p = poly.from_roots([0.5, -0.5j, 2.0])
    assert count(p, contours.circle(0.0, 1.0)) == 2
    assert tr.counters["contours.count_roots_in.failed"] == 0
    with pytest.raises(RootOnContour):
        count(p, contours.circle(0.0, 0.5))
    assert tr.counters["contours.count_roots_in.failed"] == 1

    tr, optimize = hook("search.optimize_charges")
    cfg = search.SearchConfig(curve=charges.Curve(np.array([0.0, 1.0])),
                              m=2, restarts=1, budget=200)
    try:
        result = optimize(cfg)
    except BudgetExhausted as exc:
        result = exc.result
    assert tr.counters["search.evals"] == result.evals_used > 0

    assert keys == set(_hook_keys())
