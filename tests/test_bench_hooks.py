"""The benchmark tracer wraps epiwave names; a rename must fail here."""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def test_traced_names_resolve():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    missing = [
        f"{mod}.{attr}"
        for mod, attr in tracing.WRAPPED
        if not callable(getattr(importlib.import_module(f"epiwave.{mod}"), attr, None))
    ]
    assert missing == []
