"""The benchmark wraps package functions by name (`perfbench/tracing.py`'s
TRACED); a name that goes missing there fails only a traced benchmark run.
This test catches it in Tier-1, on every Python version."""

from __future__ import annotations

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def test_traced_names_resolve_to_package_callables() -> None:
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    assert tracing.TRACED
    missing = [(mod, fn) for mod, fn in tracing.TRACED
               if not callable(getattr(importlib.import_module(f"kneserhom.{mod}"), fn, None))]
    assert not missing, missing
