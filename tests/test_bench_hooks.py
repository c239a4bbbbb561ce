"""The benchmark's contract with epiwave: the names its tracer wraps and
the kernel tables its workloads read; a rename or a type change must
fail here."""

import importlib
import importlib.util
from pathlib import Path

import numpy as np

from epiwave import KernelSet, SolverConfig, attach_tilde, build_mesh, relaxed_model
from epiwave.svir import I, S, SvirParams, build_svir, tent_kernel

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


def _svir_tables(spec, m):
    """The 7-D kernel table the cli-tables workload writes."""
    A, X = m.na + 1, m.nx
    kernels = np.zeros((4, 4, 4, A, X, A, X))
    for t in spec.kernels.terms:
        kernels[t.h, t.i, t.j] += t.weight * np.asarray(t.table)
    return kernels


def test_svir_kernel_tables_as_the_benchmark_reads_them():
    # the cli-tables workload writes t.weight * np.asarray(t.table) into a
    # 7-D table; the tracer counts one distinct contraction per table
    m = build_mesh(0.5, 1.0, 4, 5)
    spec = build_svir(SvirParams(tau=1e-2), m)
    A, X = m.na + 1, m.nx
    kernels = _svir_tables(spec, m)
    xs = m.xs()
    tent = np.broadcast_to(tent_kernel(xs[:, None], xs[None, :])[None, :, None, :], (A, X, A, X))
    assert np.array_equal(kernels[S, S, I], tent)
    assert np.array_equal(kernels[I, S, I], -tent)
    assert not np.any(np.delete(kernels, I, axis=2))
    assert _tracing()._distinct_contractions(spec.kernels.terms) == 1


def test_svir_kernel_has_no_tilde_terms():
    # age-constant kernel and births routed into S: Lambda_1 vanishes
    m = build_mesh(1.0, 1.0, 40, 41)
    spec = build_svir(SvirParams(tau=1e-2), m)
    assert attach_tilde(spec.kernels, spec.births.beta0, m).tilde_terms == []


def test_svir_kernel_tables_factor_back_exactly():
    # the loader turns each of the six tables into one rank-1 term with an
    # age-constant (nx, nx) row and no column, so no tilde terms arise
    m = build_mesh(0.5, 1.0, 4, 5)
    spec = build_svir(SvirParams(tau=1e-2), m)
    kernels = _svir_tables(spec, m)
    loaded = KernelSet.from_dense(kernels)
    assert len(loaded.terms) == 6
    for t in loaded.terms:
        assert t.table.row.shape == (m.nx, m.nx) and t.table.col is None
        assert np.array_equal(np.asarray(t.table), kernels[t.h, t.i, t.j])
    assert attach_tilde(loaded, spec.births.beta0, m).tilde_terms == []
