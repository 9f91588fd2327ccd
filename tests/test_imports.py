"""Every name a module of the package imports is used there, and every
name the benchmark's tracer wraps is still bound.

No linter is a dependency of the project, so a walk over each module's
syntax tree stands in for one: an import binds a name, and the module
must read that name somewhere (a re-export listed in ``__all__``
counts as a read).
"""

import ast
import importlib
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "mmlab"
TRACER = PACKAGE.parent.parent / "perfbench" / "tracer.py"


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            read.update(ast.literal_eval(node.value))
    return [f"line {line}: {name}" for name, line in bound.items() if name not in read]


@pytest.mark.parametrize("module", sorted(p.name for p in PACKAGE.glob("*.py")))
def test_no_unused_import(module):
    assert unused_imports((PACKAGE / module).read_text()) == []


def test_an_unused_import_is_found():
    source = "import os\nfrom math import pi, tau\nfrom . import x as y\nprint(tau)\n"
    assert unused_imports(source) == ["line 1: os", "line 2: pi", "line 3: y"]


def tracer_bindings() -> list[tuple[str, str]]:
    """The (module, name) pairs of ``BINDINGS`` in ``perfbench/tracer.py``,
    read from its syntax tree so that the tracer is not imported."""
    for node in ast.parse(TRACER.read_text()).body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "BINDINGS" for t in node.targets
        ):
            return [(e.elts[0].value, e.elts[1].value) for e in node.value.elts]
    raise AssertionError("perfbench/tracer.py defines no BINDINGS")


def test_tracer_bindings_resolve():
    # the tracer wraps each name where its module looks it up; a rename
    # there would leave the benchmark timing nothing
    pairs = tracer_bindings()
    assert ("mmlab.cli", "run_verify") in pairs
    missing = [f"{m}.{n}" for m, n in pairs if not hasattr(importlib.import_module(m), n)]
    assert missing == []
