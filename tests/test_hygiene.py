"""Source hygiene, read with ast: no unused import, and no parameter its function never reads.

An option that no caller sets tends to end as a parameter with a default
that the body has stopped reading; the second check finds it. Both checks
cover src/medc but its __init__.py, which imports to re-export, and the
import check covers tests/ too.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = sorted(p for p in (ROOT / "src" / "medc").glob("*.py") if p.name != "__init__.py")
TESTS = sorted((ROOT / "tests").glob("*.py"))


def _tree(path):
    return ast.parse(path.read_text(), filename=str(path))


def unused_imports(tree):
    """The names an import binds that the module never mentions."""
    bound = [(alias.asname or alias.name).split(".")[0] for node in ast.walk(tree)
             if isinstance(node, (ast.Import, ast.ImportFrom)) for alias in node.names]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in bound if name not in used]


def unread_parameters(tree):
    """'function(parameter)' for each named parameter of a def that its body never reads.

    self, cls and *args/**kwargs are not counted: a method or a protocol
    fixes them.
    """
    unread = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        read = {n.id for stmt in node.body for n in ast.walk(stmt)
                if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        args = node.args.posonlyargs + node.args.args + node.args.kwonlyargs
        unread += [f"{node.name}({a.arg})" for a in args
                   if a.arg not in read and a.arg not in ("self", "cls")]
    return unread


def test_the_checks_find_what_they_look_for():
    tree = ast.parse("import os\nfrom a import b as c\n\n"
                     "def f(x, y=1, *rest):\n    return x\n")
    assert unused_imports(tree) == ["os", "c"]
    assert unread_parameters(tree) == ["f(y)"]


@pytest.mark.parametrize("path", PACKAGE + TESTS, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_unused_import(path):
    assert unused_imports(_tree(path)) == []


@pytest.mark.parametrize("path", PACKAGE, ids=lambda p: p.name)
def test_every_parameter_is_read(path):
    assert unread_parameters(_tree(path)) == []
