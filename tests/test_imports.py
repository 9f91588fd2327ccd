"""Every name a module of the package imports is used there, every name
the benchmark's tracer wraps is still bound, and the program reads what
it defines.

No linter is a dependency of the project, so a walk over each module's
syntax tree stands in for one: an import binds a name, and the module
must read that name somewhere (a re-export listed in ``__all__``
counts as a read).  In the same way every attribute a class of the
package stores, and every top-level function, class and constant, must
be read somewhere in the package or the benchmark's scripts: code that
only its own unit tests read should go.
"""

import ast
import importlib
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "mmlab"
PERFBENCH = PACKAGE.parent.parent / "perfbench"
TRACER = PERFBENCH / "tracer.py"
GOLDEN = Path(__file__).resolve().parent / "golden"

# stored attributes that nothing reads by name, each kept for a reason
UNREAD_ON_PURPOSE = {
    # report.json is written from these records whole, through
    # dataclasses.fields and asdict, and a check's parameters are read
    # through getattr(request, param.name)
    "Report": "written whole",
    "CheckRequest": "written whole",
}


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


def program_trees() -> dict[str, ast.Module]:
    """The syntax trees of the package's modules (``mmlab/...``) and the
    benchmark's scripts (``perfbench/...``)."""
    paths = sorted(PACKAGE.glob("*.py")) + sorted(PERFBENCH.glob("*.py"))
    return {f"{p.parent.name}/{p.name}": ast.parse(p.read_text()) for p in paths}


def _attribute_reads(trees) -> set[str]:
    """Every ``obj.x`` that is loaded and every ``getattr(obj, "x")``."""
    read = set()
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
            elif (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id == "getattr"
                and len(node.args) > 1
                and isinstance(node.args[1], ast.Constant)
            ):
                read.add(node.args[1].value)
    return read


def _is_record(cls: ast.ClassDef) -> bool:
    """Whether ``cls`` is a dataclass or a NamedTuple."""
    for d in cls.decorator_list:
        target = d.func if isinstance(d, ast.Call) else d
        if getattr(target, "id", getattr(target, "attr", None)) == "dataclass":
            return True
    return any(getattr(b, "id", None) == "NamedTuple" for b in cls.bases)


def stored_attributes(tree: ast.Module) -> set[str]:
    """``Class.x`` for every field of a record class and every ``self.x = ...``."""
    stored = set()
    for cls in (n for n in ast.walk(tree) if isinstance(n, ast.ClassDef)):
        if _is_record(cls):
            stored.update(
                f"{cls.name}.{stmt.target.id}"
                for stmt in cls.body
                if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name)
            )
        for node in ast.walk(cls):
            if (
                isinstance(node, ast.Attribute)
                and isinstance(node.ctx, ast.Store)
                and getattr(node.value, "id", None) == "self"
            ):
                stored.add(f"{cls.name}.{node.attr}")
    return stored


def unread_attributes(program: dict[str, ast.Module]) -> list[str]:
    """The attributes that a module of the package in ``program`` stores
    and no tree of ``program`` reads."""
    read = _attribute_reads(program.values())
    library = [t for name, t in program.items() if name.startswith("mmlab/")]
    stored = set().union(*(stored_attributes(t) for t in library))
    return sorted(
        name
        for name in stored
        if name.split(".")[1] not in read
        and name not in UNREAD_ON_PURPOSE
        and name.split(".")[0] not in UNREAD_ON_PURPOSE
    )


def _definitions(tree: ast.Module):
    """(name, node) for each top-level function, class and constant."""
    for stmt in tree.body:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield stmt.name, stmt
        elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
            targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
            for target in targets:
                for node in ast.walk(target):
                    if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
                        yield node.id, stmt


def _name_reads(node: ast.AST) -> list[str]:
    """Each loaded name and attribute in ``node``, with its repeats."""
    out = []
    for n in ast.walk(node):
        if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
            out.append(n.id)
        elif isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load):
            out.append(n.attr)
    return out


def _exported(tree: ast.Module) -> set[str]:
    """Names listed in ``__all__`` and CLI commands a decorator registers."""
    out = set()
    for stmt in tree.body:
        if isinstance(stmt, ast.Assign) and any(
            getattr(t, "id", None) == "__all__" for t in stmt.targets
        ):
            out.update(ast.literal_eval(stmt.value))
        if isinstance(stmt, ast.FunctionDef) and any(
            isinstance(d, ast.Call) and getattr(d.func, "attr", None) == "command"
            for d in stmt.decorator_list
        ):
            out.add(stmt.name)
    return out


def unread_definitions(program: dict[str, ast.Module]) -> list[str]:
    """The top-level names of the package's modules in ``program`` that no
    tree of ``program`` reads beyond their own definition.  Dunder names
    are read by Python itself."""
    reads = Counter(r for t in program.values() for r in _name_reads(t))
    unread = []
    for module, tree in program.items():
        if not module.startswith("mmlab/"):
            continue
        exported = _exported(tree)
        for name, node in _definitions(tree):
            own = _name_reads(node).count(name)
            if reads[name] > own or name in exported or name.startswith("__"):
                continue
            unread.append(f"{Path(module).stem}.{name}")
    return sorted(unread)


def test_every_stored_attribute_is_read():
    assert unread_attributes(program_trees()) == []


def test_every_top_level_definition_is_read():
    assert unread_definitions(program_trees()) == []


def test_an_unread_attribute_is_found():
    source = (
        "from dataclasses import dataclass\n"
        "@dataclass(frozen=True)\n"
        "class Rec:\n"
        "    used: int\n"
        "    spare: int\n"
        "class Box:\n"
        "    def __init__(self):\n"
        "        self.kept, self.lost = 1, 2\n"
        "        self.gone = 3\n"
        "    def peek(self, rec):\n"
        "        return self.kept + rec.used + getattr(rec, 'gone')\n"
    )
    assert unread_attributes({"mmlab/m.py": ast.parse(source)}) == ["Box.lost", "Rec.spare"]


def test_an_unread_definition_is_found():
    source = (
        "import click\n"
        "LIMIT = 3\n"
        "SPARE = 4\n"
        "__all__ = ['exported']\n"
        "def exported(): return LIMIT\n"
        "def loop(n): return loop(n - 1)\n"
        "@click.group()\n"
        "def main(): pass\n"
        "@main.command()\n"
        "def run(): pass\n"
    )
    assert unread_definitions({"mmlab/m.py": ast.parse(source)}) == ["m.SPARE", "m.loop"]


@pytest.mark.parametrize("config", ["all_kinds.cfg", "goe_kinds.cfg", "feedback3_kinds.cfg"])
def test_verify_run_leaves_numpy_ma_and_scipy_out(config):
    # importing numpy.ma costs every run about 10 ms (np.quantile's
    # np.unique imports it on first use), and scipy is no dependency
    code = (
        "import sys\n"
        "from mmlab.config import parse_settings\n"
        "from mmlab.report import run_verify\n"
        f"text = open({str(GOLDEN / config)!r}).read()\n"
        "report = run_verify(parse_settings(text, {'paths': '200'}).experiment)\n"
        "assert report.error is None and report.results, report.error\n"
        "print(sorted(m for m in ('numpy.ma', 'scipy') if m in sys.modules))\n"
    )
    env = {**os.environ, "PYTHONPATH": str(PACKAGE.parent)}
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "[]"
