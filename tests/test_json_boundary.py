"""JSON is read and written at the boundary only.

`harness` owns the config, report and point codecs and `cli` the files;
the numerical modules take and return numbers and arrays, so none of them
may define a `to_json`/`from_json` or import `json`.
"""

import ast
import inspect

import pytest

from rootfield import charges, contours, geometry, kernels, poly, regions, \
    search

CODEC_NAMES = {"to_json", "from_json"}


def _is_json(module) -> bool:
    return (module or "").partition(".")[0] == "json"


def _json_code(tree: ast.Module) -> list[str]:
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.FunctionDef) and node.name in CODEC_NAMES:
            found.append(f"def {node.name} (line {node.lineno})")
        elif isinstance(node, ast.Import):
            found += [f"import {a.name} (line {node.lineno})"
                      for a in node.names if _is_json(a.name)]
        elif isinstance(node, ast.ImportFrom) and _is_json(node.module):
            found.append(f"from {node.module} (line {node.lineno})")
    return sorted(found)


@pytest.mark.parametrize("module", [kernels, geometry, poly, contours,
                                    regions, charges, search],
                         ids=lambda m: m.__name__)
def test_numerical_modules_hold_no_json_code(module):
    assert _json_code(ast.parse(inspect.getsource(module))) == []


def test_json_code_is_found():
    tree = ast.parse("import json\nfrom json import dumps\n"
                     "class A:\n    def to_json(self):\n        pass\n"
                     "    def other(self):\n        pass\n"
                     "def from_json(obj):\n    pass\n")
    assert _json_code(tree) == ["def from_json (line 8)",
                                "def to_json (line 4)",
                                "from json (line 2)",
                                "import json (line 1)"]
