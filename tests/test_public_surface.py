"""Public surface: every name the package re-exports, and every public
module-level function and class of the library, has a reader outside
`__init__.py` in the library or the benchmark (or is a layer the
benchmark's tracer names), so no public function lives only for its own
unit test: a public name that nothing reads fails this test."""

from __future__ import annotations

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "maskdiff"


def _exported() -> set[str]:
    tree = ast.parse((PACKAGE / "__init__.py").read_text(encoding="utf-8"))
    return {
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }


def _loaded() -> set[str]:
    """Every name some library or benchmark file other than `__init__.py`
    reads, as a bare name or as an attribute."""
    files = [f for f in PACKAGE.glob("*.py") if f.name != "__init__.py"]
    files += sorted((ROOT / "perfbench").glob("*.py"))
    names: set[str] = set()
    for path in files:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                names.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                names.add(node.attr)
    return names


def _traced() -> set[tuple[str, str]]:
    """The (module, function) pairs of `TRACED` in perfbench/tracing.py."""
    tree = ast.parse((ROOT / "perfbench" / "tracing.py").read_text(encoding="utf-8"))
    [value] = [node.value for node in tree.body
               if isinstance(node, ast.Assign) and ast.unparse(node.targets[0]) == "TRACED"]
    return set(ast.literal_eval(value))


def _public_definitions() -> set[tuple[str, str]]:
    """(module, name) of every public module-level function and class."""
    return {
        (path.stem, node.name)
        for path in PACKAGE.glob("*.py")
        for node in ast.parse(path.read_text(encoding="utf-8")).body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_")
    }


def test_every_public_definition_has_a_reader():
    loaded, traced = _loaded(), _traced()
    unread = {(mod, name) for mod, name in _public_definitions()
              if name not in loaded and (mod, name) not in traced}
    assert not unread, sorted(unread)


def test_every_export_has_a_caller():
    uncalled = _exported() - _loaded()
    assert not uncalled, sorted(uncalled)
