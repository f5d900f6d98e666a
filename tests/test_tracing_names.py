"""perfbench/tracing.py names every traced layer as (module, function); a
renamed or deleted function would break traced benchmark runs only."""

from __future__ import annotations

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def test_every_traced_name_resolves():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    assert tracing.TRACED
    for mod_name, fn_name in tracing.TRACED:
        module = importlib.import_module(f"maskdiff.{mod_name}")
        assert callable(getattr(module, fn_name, None)), f"maskdiff.{mod_name}.{fn_name}"
