"""The benchmark tracer wraps epiwave names; a rename must fail here."""

import importlib
import importlib.util
from pathlib import Path

from epiwave import SolverConfig, build_mesh, relaxed_model
from epiwave.svir import SvirParams, build_svir

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing


def test_traced_names_resolve():
    tracing = _tracing()
    missing = [
        f"{mod}.{attr}"
        for mod, attr in tracing.WRAPPED
        if not callable(getattr(importlib.import_module(f"epiwave.{mod}"), attr, None))
    ]
    assert missing == []


def test_traced_relaxed_solve_steps_once_per_sweep():
    m = build_mesh(0.5, 1.0, 6, 7)
    spec = build_svir(SvirParams(tau=1e-2, total_S0=100.0), m)
    with _tracing().Tracer() as tracer:
        relaxed_model.run_relaxed(spec, SolverConfig(), m)
    metrics = tracer.metrics()
    assert metrics["relaxed_model.steps"] == m.nt
    assert metrics["relaxed_model.sweeps"] > m.nt
    assert metrics["char_solver.step_calls"] == metrics["relaxed_model.sweeps"]
    assert metrics["char_solver.step_s"] > 0.0
