"""Source hygiene, read with ast: no unused import, no parameter its function never
reads, and no public function that nothing in the package calls.

An option that no caller sets tends to end as a parameter with a default
that the body has stopped reading; the second check finds it. An op or
helper whose last caller was replaced tends to stay behind; the third check
finds it. The first two checks cover src/medc but its __init__.py, which
imports to re-export, and the import check covers tests/ too. The third
counts a name that __init__.py re-exports as referenced.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted((ROOT / "src" / "medc").glob("*.py"))
PACKAGE = [p for p in SOURCES if p.name != "__init__.py"]
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


def _references(node, params=frozenset()):
    """Every name that node mentions: a bare name that is no parameter of an
    enclosing function, an attribute, or an imported name."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
        a = node.args
        params = params | {arg.arg for arg in a.posonlyargs + a.args + a.kwonlyargs}
    if isinstance(node, ast.Name) and node.id not in params:
        yield node.id
    elif isinstance(node, ast.Attribute):
        yield node.attr
    elif isinstance(node, ast.ImportFrom):
        yield from (alias.name for alias in node.names)
    for child in ast.iter_child_nodes(node):
        yield from _references(child, params)


def uncalled_functions(trees):
    """The public module-level functions of the {module: tree} map that no module
    references outside the function's own def."""
    referenced = set()
    for tree in trees.values():
        for stmt in tree.body:
            for name in _references(stmt):
                if not (isinstance(stmt, ast.FunctionDef) and name == stmt.name):
                    referenced.add(name)
    return [f"{module}.{stmt.name}" for module, tree in trees.items() for stmt in tree.body
            if isinstance(stmt, ast.FunctionDef) and not stmt.name.startswith("_")
            and stmt.name not in referenced]


def test_the_checks_find_what_they_look_for():
    tree = ast.parse("import os\nfrom a import b as c\n\n"
                     "def f(x, y=1, *rest):\n    return x\n")
    assert unused_imports(tree) == ["os", "c"]
    assert unread_parameters(tree) == ["f(y)"]
    trees = {"m": ast.parse("def g(n, k):\n    return g(n - 1, k) if n else h() + k\n\n"
                            "def h():\n    return 0\n\ndef k():\n    return 1\n"
                            "def _p():\n    return 2\n"),
             "n": ast.parse("from m import f\n")}
    assert uncalled_functions(trees) == ["m.g", "m.k"]  # g only calls itself; k is g's parameter


@pytest.mark.parametrize("path", PACKAGE + TESTS, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_unused_import(path):
    assert unused_imports(_tree(path)) == []


@pytest.mark.parametrize("path", PACKAGE, ids=lambda p: p.name)
def test_every_parameter_is_read(path):
    assert unread_parameters(_tree(path)) == []


def test_every_public_function_is_referenced():
    assert uncalled_functions({p.stem: _tree(p) for p in SOURCES}) == []
