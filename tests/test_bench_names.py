"""Every rootfield name the benchmark reads exists.

The benchmark reaches the package as ``rf`` (or ``self.rf``) in
`bench/workloads.py`, and names traced functions as "module.function"
keys of `_HOOKS` in `bench/spans.py`.  Both files are only read here, so
a removed or renamed public name fails this test, not the benchmark run.
"""

import ast
import importlib
from pathlib import Path

import pytest

import rootfield
import rootfield.cli  # noqa: F401  (the package does not load it; bench does)

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
