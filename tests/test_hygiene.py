"""Source hygiene, read with ast: no unused import, no parameter its function never
reads, no public function that nothing in the package calls, and no default that
no caller overrides.

An option that no caller sets tends to end as a parameter with a default
that the body has stopped reading; the second check finds it. An op or
helper whose last caller was replaced tends to stay behind; the third check
finds it. An option whose last setter went tends to keep its default and
its branch; the fourth check finds it, counting the calls in the package,
the demos and the benchmark. The first two checks cover src/medc but its
__init__.py, which imports to re-export, and the import check covers tests/
too. The third counts a name that __init__.py re-exports as referenced.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted((ROOT / "src" / "medc").glob("*.py"))
PACKAGE = [p for p in SOURCES if p.name != "__init__.py"]
TESTS = sorted((ROOT / "tests").glob("*.py"))
CALLERS = SOURCES + sorted((ROOT / "demos").glob("*.py")) + sorted((ROOT / "perfbench").glob("*.py"))
# the console script's entry point, whose argv the command line fills in
NEVER_PASSED = {"cli.main(argv)"}


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


def _public_defs(tree):
    """(def, whether it is a method) for each public module-level function and public
    method of a module-level class."""
    for stmt in tree.body:
        if isinstance(stmt, ast.ClassDef):
            yield from ((d, True) for d in stmt.body if isinstance(d, ast.FunctionDef)
                        and not d.name.startswith("_"))
        elif isinstance(stmt, ast.FunctionDef) and not stmt.name.startswith("_"):
            yield stmt, False


def unpassed_defaults(trees, callers):
    """'module.function(parameter)' for each defaulted parameter of a public function of
    the {module: tree} map that no call in the `callers` trees passes, by keyword or by
    position. A call is matched by the called name alone; a method's first parameter is
    its object, and a call that unpacks *args or **kwargs passes every parameter."""
    calls = {}
    for tree in callers:
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and isinstance(node.func, (ast.Name, ast.Attribute)):
                name = getattr(node.func, "id", None) or node.func.attr
                calls.setdefault(name, []).append(node)
    unpassed = []
    for module, tree in trees.items():
        for fn, method in _public_defs(tree):
            a = fn.args
            positional = a.posonlyargs + a.args
            defaulted = list(zip(positional[len(positional) - len(a.defaults):],
                                 range(len(positional) - len(a.defaults), len(positional))))
            defaulted += [(p, None) for p, d in zip(a.kwonlyargs, a.kw_defaults) if d]
            for param, index in defaulted:
                if not any(any(isinstance(x, ast.Starred) for x in call.args)
                           or any(k.arg in (None, param.arg) for k in call.keywords)
                           or index is not None and len(call.args) > index - method
                           for call in calls.get(fn.name, ())):
                    unpassed.append(f"{module}.{fn.name}({param.arg})")
    return unpassed


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
    trees = {"m": ast.parse("def f(a, b=1, c=2, *, d=3, e=4):\n    pass\n\n"
                            "class K:\n    def go(self, x=0, y=1):\n        pass\n\n"
                            "def g(p=0, q=1):\n    pass\n")}
    callers = [ast.parse("f(0, 1, e=2)\nK().go(5)\nm.g(*args)\n")]
    assert unpassed_defaults(trees, callers) == ["m.f(c)", "m.f(d)", "m.go(y)"]


@pytest.mark.parametrize("path", PACKAGE + TESTS, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_unused_import(path):
    assert unused_imports(_tree(path)) == []


@pytest.mark.parametrize("path", PACKAGE, ids=lambda p: p.name)
def test_every_parameter_is_read(path):
    assert unread_parameters(_tree(path)) == []


def test_every_public_function_is_referenced():
    assert uncalled_functions({p.stem: _tree(p) for p in SOURCES}) == []


def test_every_default_is_overridden_by_some_caller():
    found = unpassed_defaults({p.stem: _tree(p) for p in PACKAGE}, [_tree(p) for p in CALLERS])
    assert [name for name in found if name not in NEVER_PASSED] == []
