"""Every module-level private name of the package is read by the package.

A helper whose last caller was deleted stays importable and tested, so
nothing else notices it.  The check reads the syntax trees: a private
function, class or constant defined at module level must be read, by
name or as an attribute, in some top-level statement of the package
other than its own definition.
"""

import ast
from pathlib import Path

import rootfield

MODULES = sorted(Path(rootfield.__file__).parent.glob("*.py"))


def _defined(stmt: ast.stmt) -> list[str]:
    if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
        names = [stmt.name]
    elif isinstance(stmt, ast.Assign):
        names = [t.id for t in stmt.targets if isinstance(t, ast.Name)]
    elif isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target,
                                                        ast.Name):
        names = [stmt.target.id]
    else:
        names = []
    return [n for n in names if n.startswith("_") and not n.startswith("__")]


def _read(stmt: ast.stmt) -> set[str]:
    out = set()
    for node in ast.walk(stmt):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
    return out


def _unread_private_names(modules: dict[str, ast.Module]) -> list[str]:
    stmts = [(name, stmt) for name, tree in modules.items()
             for stmt in tree.body]
    reads = [_read(stmt) for _, stmt in stmts]
    unread = []
    for k, (module, stmt) in enumerate(stmts):
        for name in _defined(stmt):
            if not any(name in r for i, r in enumerate(reads) if i != k):
                unread.append(f"{module}.{name} (line {stmt.lineno})")
    return sorted(unread)


def test_every_private_name_is_read_by_the_package():
    trees = {p.stem: ast.parse(p.read_text()) for p in MODULES}
    assert _unread_private_names(trees) == []


def test_an_unread_private_name_is_found():
    a = ast.parse("_LIMIT = 3\n_used = 1\n\n"
                  "def _dead(x):\n    return _dead(x - 1)\n\n"
                  "def _helper():\n    return _LIMIT\n")
    b = ast.parse("from a import _helper\nimport a\n"
                  "def run():\n    return _helper() + a._used\n")
    assert _unread_private_names({"a": a, "b": b}) == ["a._dead (line 4)"]
