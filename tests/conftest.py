"""Shared fixtures and test-only reference helpers for the test suite."""

import dataclasses

import numpy as np
import pytest

from epiwave import (
    FactoredTable,
    KernelSet,
    KernelTerm,
    SolverConfig,
    build_mesh,
    run_parabolic,
    run_relaxed,
)
from epiwave.birth import newborn_source
from epiwave.char_solver import step, step_rhs
from epiwave.fields import Run, StateField
from epiwave.operators import couple, fold_ages, g_op, lambda_op, mix
from epiwave.reference import scalar_spec
from epiwave.study import refinement_floor
from epiwave.svir import SvirParams, build_svir


def propagate_characteristic(init_v, init_w, forcing, ages, ctx, m):
    """Trajectory along one characteristic, initial state included.

    forcing and ages carry one entry per advance: the forcing and the
    target age index of that step.  Each advance steps a slice that is
    zero except for this characteristic's column.  The scheme is linear
    in (init_v, init_w, forcing), so zeroing two of them isolates the
    propagator of the third.
    """
    v = np.array(init_v, dtype=float)
    w = np.array(init_w, dtype=float)
    out = [(v, w)]
    shape = (v.shape[0], m.na, m.nx)
    for fk, a in zip(forcing, ages, strict=True):
        vs, ws, fs = np.zeros(shape), np.zeros(shape), np.zeros(shape)
        vs[:, a - 1], ws[:, a - 1] = v, w
        if fk is not None:
            fs[:, a - 1] = fk
        vs, ws = step(vs, step_rhs(vs, ws, ctx, m), ctx, m, f=fs)
        v, w = vs[:, a - 1], ws[:, a - 1]
        out.append((v, w))
    return out


#: The criterion-1 sweep's taus.
DESK_TAUS = [1e-4, 10**-3.5, 1e-3, 10**-2.5, 1e-2]


def assert_members_equal_solo_runs(spec, taus, cfg, m):
    """The lockstep run_relaxed of spec at taus: each member's values,
    slopes and per-step sweep residuals equal its solo run's, to the bit."""
    batch = run_relaxed(dataclasses.replace(spec, tau=taus), cfg, m)
    assert len(batch) == len(taus)
    for tau, got in zip(taus, batch):
        want = run_relaxed(dataclasses.replace(spec, tau=tau), cfg, m)
        assert got.indices == want.indices
        assert np.array_equal(got.values, want.values)
        assert np.array_equal(got.slopes, want.slopes)
        assert got.picard_updates == want.picard_updates


def g_of(k, beta0, beta1, y, g0, m):
    """G of the (n, na+1, nx) values y for the (na+1, nx, n, n) birth
    tables beta0, beta1 and the source g0, formed as a sweep forms it."""
    lam = lambda_op(k, y, m)
    src = newborn_source(fold_ages(beta0, m), y, g0)
    return g_op(k, fold_ages(beta1, m), mix(lam, couple(k, y)), lam, src, m)


def age_kernel_spec(m, tau, g0=None):
    """One compartment with the age-dependent kernel 0.5 (1 + a)
    exp(-(x - xi)^2) and births beta0 = beta1 = 0.8, plus the constant
    boundary source g0 when given: every term of the transport
    derivative of Lambda(y) y is live."""
    A, X = m.na + 1, m.nx
    a, x = m.ages(), m.xs()
    row = 0.5 * (1.0 + a)[:, None, None] * np.exp(-((x[:, None] - x[None, :]) ** 2))
    k = KernelSet(terms=[KernelTerm(0, 0, 0, 1.0, FactoredTable(row, None, A))])
    y0 = (1.0 + 0.5 * np.cos(np.pi * x))[None, None, :] * (1.0 - 0.5 * a)[None, :, None]
    spec = scalar_spec(m, y0, sigma=0.1, mu=0.2, kernels=k, tau=tau)
    spec.births.beta0 = np.full((A, X, 1, 1), 0.8)
    spec.births.beta1 = np.full((A, X, 1, 1), 0.8)
    if g0 is not None:
        spec.births.g0 = np.full((m.nt + 1, 1, X), g0)
    return spec


def svir_tables_spec(m, tau=0.0):
    """build_svir's spec with its kernel loaded through KernelSet.from_dense,
    as a tables .npz stores it: six terms on one merged column."""
    spec = build_svir(SvirParams(tau=tau), m)
    A, X = m.na + 1, m.nx
    dense = np.zeros((4, 4, 4, A, X, A, X))
    for t in spec.kernels.terms:
        dense[t.h, t.i, t.j] += t.weight * np.asarray(t.table)
    return dataclasses.replace(spec, kernels=KernelSet.from_dense(dense))


#: The kernels on which a relaxed tau = 0 solve must stay the parabolic
#: one: library SVIR, SVIR as six dense tables, and an age-dependent
#: kernel whose tilde terms and Lambda_2 are live.
TAU_ZERO_MODELS = pytest.mark.parametrize(
    "model",
    [lambda m: build_svir(SvirParams(), m), svir_tables_spec,
     lambda m: age_kernel_spec(m, 0.0, g0=0.3)],
    ids=["svir", "svir-tables", "age-kernel"],
)


def state_zeros(n, m):
    shape = (n, m.na + 1, m.nx)
    return StateField(np.zeros(shape), np.zeros(shape))


def stored_run(values, m, slopes=None, indices=None):
    """A Run of the (S, n, na+1, nx) stack values, with zero slopes unless
    given, stored at steps 0..S-1 unless indices are given."""
    values = np.asarray(values, dtype=float)
    slopes = np.zeros_like(values) if slopes is None else np.asarray(slopes, dtype=float)
    indices = list(range(len(values))) if indices is None else list(indices)
    return Run(values, slopes, indices, m, [])


@pytest.fixture(scope="session")
def desk_mesh():
    return build_mesh(1.0, 1.0, 20, 21)


@pytest.fixture(scope="session")
def solver_cfg():
    return SolverConfig()


@pytest.fixture(scope="session")
def svir_baseline(desk_mesh, solver_cfg):
    """Parabolic tau=0 benchmark run on the desk mesh, every step stored."""
    spec = build_svir(SvirParams(tau=0.0), desk_mesh)
    return run_parabolic(spec, solver_cfg, desk_mesh)


@pytest.fixture(scope="session")
def svir_floor(desk_mesh, solver_cfg, svir_baseline):
    """Sup refinement floor between the na=20 baseline and an na=40 run."""
    return refinement_floor(svir_baseline, SvirParams(), solver_cfg)


@pytest.fixture(scope="session")
def small_mesh():
    return build_mesh(0.5, 1.0, 10, 11)
