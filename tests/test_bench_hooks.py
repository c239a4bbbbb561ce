"""The benchmark's contract with epiwave: the names its tracer wraps, the
names its workloads import and call, and the kernel tables its workloads
read; a deletion, a rename or a type change must fail here."""

import ast
import dataclasses
import importlib
import importlib.util
from pathlib import Path

import numpy as np

import pytest

from epiwave import (
    KernelSet,
    SolverConfig,
    attach_tilde,
    build_mesh,
    parabolic_model,
    reference,
    relaxed_model,
    study,
)
from epiwave.svir import I, S, SvirParams, build_svir, tent_kernel

from conftest import age_kernel_spec

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _tracing():
    return _load("tracing")


def test_traced_names_resolve():
    tracing = _tracing()
    missing = [
        f"{mod}.{attr}"
        for mod, attr in tracing.WRAPPED
        if not callable(getattr(importlib.import_module(f"epiwave.{mod}"), attr, None))
    ]
    assert missing == []


def test_workload_names_resolve():
    # the workloads import epiwave names at load time and reach the traced
    # modules' attributes (study.tau_sweep, ...) at call time
    workloads = _load("workloads")
    tree = ast.parse((PERFBENCH / "workloads.py").read_text())
    modules = {
        alias.asname or alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module == "epiwave"
        for alias in node.names
    }
    used = {
        (node.value.id, node.attr)
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id in modules
    }
    assert used, "no epiwave module attributes found in workloads.py"
    missing = [f"{mod}.{attr}" for mod, attr in used if not hasattr(getattr(workloads, mod), attr)]
    assert missing == []


@pytest.mark.parametrize(
    "model",
    [
        lambda m: build_svir(SvirParams(tau=1e-2, total_S0=100.0), m),
        # every boundary term live: the observers read the newborn source
        lambda m: age_kernel_spec(m, tau=0.1, g0=0.3),
    ],
    ids=["svir", "age-kernel"],
)
def test_traced_relaxed_solve_steps_once_per_sweep(model):
    m = build_mesh(0.5, 1.0, 6, 7)
    spec = model(m)
    with _tracing().Tracer() as tracer:
        relaxed_model.run_relaxed(spec, SolverConfig(), m)
    metrics = tracer.metrics()
    assert metrics["relaxed_model.steps"] == m.nt
    assert metrics["relaxed_model.sweeps"] > m.nt
    assert metrics["char_solver.step_calls"] == metrics["relaxed_model.sweeps"]
    assert metrics["char_solver.step_s"] > 0.0


def test_traced_solve_opens_every_driver_span():
    # a phase the driver reaches through another module's binding would
    # open no span and read 0 in its per-layer metric
    tracing = _tracing()
    m = build_mesh(0.5, 1.0, 6, 7)
    with tracing.Tracer() as tracer:
        relaxed_model.run_relaxed(age_kernel_spec(m, tau=0.1, g0=0.3), SolverConfig(), m)
    opened = {name for name, *_ in tracer.spans}
    driver = {f"{mod}.{attr}" for mod, attr in tracing.WRAPPED if mod == "relaxed_model"}
    assert driver - opened == set()


def test_traced_tau_sweep_counts_every_member_sweep():
    # the members march in lockstep, one step call per batch sweep, and
    # the tracer still counts each member's sweeps and steps from the batch
    # Run's picard_updates
    m, m2 = build_mesh(0.5, 1.0, 6, 7), build_mesh(0.5, 1.0, 12, 7)
    base, taus, cfg = SvirParams(total_S0=100.0), [1e-3, 1e-2, 1e-1], SolverConfig()
    with _tracing().Tracer() as tracer:
        study.tau_sweep(base, taus, cfg, m)
    metrics = tracer.metrics()
    runs = [
        relaxed_model.run_relaxed(build_svir(dataclasses.replace(base, tau=t), m), cfg, m)
        for t in taus
    ]
    runs.append(parabolic_model.run_parabolic(build_svir(base, m), cfg, m))
    runs.append(parabolic_model.run_parabolic(
        build_svir(base, m2), dataclasses.replace(cfg, store_every=2), m2))
    assert metrics["relaxed_model.sweeps"] == sum(len(u) for r in runs for u in r.picard_updates)
    assert metrics["relaxed_model.steps"] == m.nt + 2 * m.nt + 3 * m.nt
    assert metrics["char_solver.step_calls"] < metrics["relaxed_model.sweeps"]


@pytest.mark.parametrize(
    "oracle, solve",
    [
        (reference.heat_eigenmode, parabolic_model.run_parabolic),
        (reference.damped_eigenmode, relaxed_model.run_relaxed),
    ],
    ids=["heat", "damped-wave"],
)
def test_traced_linear_oracle_sweeps_once_per_step(oracle, solve):
    # the oracle suite's eigenmode cases are linear: one Picard sweep per
    # step and no kernel contraction
    m = build_mesh(0.5, 1.0, 10, 11)
    spec, _ = oracle(m)
    with _tracing().Tracer() as tracer:
        solve(spec, SolverConfig(), m)
    metrics = tracer.metrics()
    assert metrics["relaxed_model.sweeps"] == metrics["relaxed_model.steps"] == m.nt
    assert metrics["relaxed_model.sweeps_per_step_max"] == 1
    assert metrics["operators.calls"] == 0


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
    # age-constant kernel: Lambda_1 vanishes
    m = build_mesh(1.0, 1.0, 40, 41)
    spec = build_svir(SvirParams(tau=1e-2), m)
    assert attach_tilde(spec.kernels, m).tilde_terms == []


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
    assert attach_tilde(loaded, m).tilde_terms == []
