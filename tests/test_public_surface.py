"""Public surface: every name the package re-exports has a caller outside
`__init__.py` in the library or the benchmark, so no public function lives
only for its own unit test: an export that nothing reads fails this test."""

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


def test_every_export_has_a_caller():
    uncalled = _exported() - _loaded()
    assert not uncalled, sorted(uncalled)
