"""Every module of the package uses each name it imports.

No linter is part of the toolchain, so the check reads the syntax tree: a
name bound by an import must be read somewhere in the module, or listed in
its `__all__` for re-export.
"""

import ast
from pathlib import Path

import pytest

import rootfield

MODULES = sorted(Path(rootfield.__file__).parent.glob("*.py"))


def _unused_imports(tree: ast.Module) -> list[str]:
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                name = alias.asname or alias.name.partition(".")[0]
                imported[name] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__"
                for t in node.targets):
            used |= set(ast.literal_eval(node.value))
    return sorted(f"{name} (line {line})" for name, line in imported.items()
                  if name not in used)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_uses_every_name_it_imports(path):
    assert _unused_imports(ast.parse(path.read_text())) == []


def test_an_unused_import_is_found():
    tree = ast.parse("import os\nfrom a import b, c as d\n"
                     "__all__ = ['b']\nprint(os.sep)\n")
    assert _unused_imports(tree) == ["d (line 2)"]
