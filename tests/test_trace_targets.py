"""The benchmark's tracer (`perfbench/tracing.py`) wraps package functions
by name; each name it looks up must still exist where it looks."""

from __future__ import annotations

import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def test_every_traced_name_resolves():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    missing = []
    for owner, attribute, _ in tracing._targets():
        # Classes are patched through their own __dict__, not an inherited name.
        found = attribute in owner.__dict__ if isinstance(owner, type) else hasattr(owner, attribute)
        if not found:
            missing.append(f"{owner.__name__}.{attribute}")
    assert not missing
