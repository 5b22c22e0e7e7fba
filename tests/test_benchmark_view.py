"""Every medc name that the benchmark and the demos use still exists.

The benchmark's tracer reports 0 for a traced name that has disappeared,
so a rename in the library would go unnoticed there. These tests read
perfbench/*.py and demos/*.py with ast (nothing is imported from them) and
resolve each name in the medc package.
"""

import ast
import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted((ROOT / "perfbench").glob("*.py")) + sorted((ROOT / "demos").glob("*.py"))
LAYER_NAMES = ("data", "model", "training", "losses", "evaluation", "verify")
SPAN_TABLES = ("INCLUSIVE", "COUNTS", "SETUP", "PER_CALL_MS", "METHODS")


def _tree(path):
    return ast.parse(path.read_text(), filename=str(path))


def _resolve(dotted):
    """The object named by 'layer.attr[.attr...]' in medc, or None."""
    head, *rest = dotted.split(".")
    obj = importlib.import_module(f"medc.{head}")
    for attr in rest:
        obj = getattr(obj, attr, None)
        if obj is None:
            return None
    return obj


def _imported_names():
    """(file, module, name) of every `from medc... import name`."""
    return sorted({(path.name, node.module, alias.name) for path in SOURCES
                   for node in ast.walk(_tree(path))
                   if isinstance(node, ast.ImportFrom)
                   and (node.module or "").split(".")[0] == "medc"
                   for alias in node.names})


def _layer_lookups():
    """layer.attr lookups on a layer module that the file imported from medc."""
    for path in SOURCES:
        tree = _tree(path)
        layers = {alias.asname or alias.name for node in ast.walk(tree)
                  if isinstance(node, ast.ImportFrom) and node.module == "medc"
                  for alias in node.names if alias.name in LAYER_NAMES}
        for node in ast.walk(tree):
            if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                    and node.value.id in layers):
                yield f"{node.value.id}.{node.attr}"


def _literal_strings(value):
    if isinstance(value, str):
        yield value
    elif isinstance(value, (tuple, list)):
        for v in value:
            yield from _literal_strings(v)
    elif isinstance(value, dict):
        for v in value.values():
            yield from _literal_strings(v)


def _traced_names():
    """The 'layer.function' and 'layer.Class.method' strings the tracer looks up."""
    for node in _tree(ROOT / "perfbench" / "spans.py").body:
        if (isinstance(node, ast.Assign) and len(node.targets) == 1
                and isinstance(node.targets[0], ast.Name) and node.targets[0].id in SPAN_TABLES):
            value = ast.literal_eval(node.value)
            if node.targets[0].id == "METHODS":
                value = [".".join(triple) for triple in value]
            yield from _literal_strings(value)
    for cls in ast.walk(_tree(ROOT / "perfbench" / "workloads.py")):
        if not isinstance(cls, ast.ClassDef):
            continue
        for node in cls.body:
            targets = [t for n in getattr(node, "targets", ()) for t in
                       (n.elts if isinstance(n, ast.Tuple) else [n])]
            if any(isinstance(t, ast.Name) and t.id in ("scope", "unit") for t in targets):
                yield from (s for s in _literal_strings(ast.literal_eval(node.value)) if s)


def test_the_benchmark_sources_were_found():
    names = {p.name for p in SOURCES}
    assert {"run.py", "spans.py", "workloads.py"} <= names
    assert len(list(_traced_names())) > 20


@pytest.mark.parametrize("source,module,name", _imported_names(),
                         ids=[f"{s}:{m}.{n}" for s, m, n in _imported_names()])
def test_imported_name_exists(source, module, name):
    mod = importlib.import_module(module)
    assert hasattr(mod, name) or importlib.util.find_spec(f"{module}.{name}"), source


@pytest.mark.parametrize("dotted", sorted(set(_layer_lookups())))
def test_layer_attribute_exists(dotted):
    assert _resolve(dotted) is not None, dotted


@pytest.mark.parametrize("dotted", sorted(set(_traced_names())))
def test_traced_name_is_a_function(dotted):
    assert inspect.isfunction(_resolve(dotted)), dotted
