"""Every public module-level function and class of the package has a
reader outside the tests.

A public name that only tests call is code kept for its tests.  The
check reads the syntax trees: a public function or class defined at
module level in the package must be read, by name, as an attribute, as
an imported name or as a "module.name" string, by another top-level
statement of the package (an import in `__init__` counts), by a demo, or
by a file under `bench/` that is not a test.
"""

import ast
from pathlib import Path

import rootfield

PACKAGE = sorted(Path(rootfield.__file__).parent.glob("*.py"))
ROOT = Path(__file__).resolve().parent.parent
READERS = sorted(ROOT.glob("demos/*.py")) + sorted(
    p for p in ROOT.glob("bench/*.py") if not p.name.startswith("test_"))

# public names kept without a reader, each for its reason
KEPT = {
    # the paper's f_m, which ROADMAP.md keeps
    "charges.truncated_kernel",
}


def _read(node: ast.AST) -> set[str]:
    out = set()
    for n in ast.walk(node):
        if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
            out.add(n.id)
        elif isinstance(n, ast.Attribute):
            out.add(n.attr)
        elif isinstance(n, ast.alias):
            out.add(n.name.rsplit(".", 1)[-1])
        elif isinstance(n, ast.Constant) and isinstance(n.value, str):
            out.add(n.value.rsplit(".", 1)[-1])
    return out


def _unread_public_names(modules: dict[str, ast.Module],
                         readers: list[ast.Module]) -> list[str]:
    stmts = [(name, stmt) for name, tree in modules.items()
             for stmt in tree.body]
    reads = [_read(stmt) for _, stmt in stmts]
    outside = set().union(*map(_read, readers))
    unread = []
    for k, (module, stmt) in enumerate(stmts):
        if not isinstance(stmt, (ast.FunctionDef, ast.ClassDef)) \
                or stmt.name.startswith("_"):
            continue
        if stmt.name not in outside and not any(
                stmt.name in r for i, r in enumerate(reads) if i != k):
            unread.append(f"{module}.{stmt.name}")
    return sorted(unread)


def test_every_public_name_has_a_reader():
    trees = {p.stem: ast.parse(p.read_text()) for p in PACKAGE}
    readers = [ast.parse(p.read_text()) for p in READERS]
    assert _unread_public_names(trees, readers) == sorted(KEPT)


def test_an_unread_public_name_is_found():
    a = ast.parse("def used():\n    pass\n\n"
                  "def dead():\n    return dead()\n\n"
                  "def hooked():\n    pass\n\n"
                  "class Shown:\n    pass\n\n"
                  "def _private():\n    pass\n")
    b = ast.parse("from a import used\n")
    demo = ast.parse("import a\nprint(a.Shown())\nHOOKS = {'a.hooked': 1}\n")
    assert _unread_public_names({"a": a, "b": b}, [demo]) == ["a.dead"]
