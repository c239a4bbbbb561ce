import dataclasses

import numpy as np
import pytest

from epiwave import (
    FactoredTable,
    KernelSet,
    KernelTerm,
    SolverConfig,
    attach_tilde,
    build_mesh,
    norm_H,
    norm_V,
    run_relaxed,
)
from epiwave import operators
from epiwave.char_solver import step_context
from epiwave.errors import InvalidParam, PicardDiverged, ShapeMismatch
from epiwave.mesh import characteristic_cells, characteristic_ids
from epiwave.reference import manufactured, scalar_spec
from epiwave.relaxed_model import residual_check
from epiwave.svir import SvirParams, build_svir

from conftest import age_kernel_spec, propagate_characteristic


def test_zero_data_zero_run():
    m = build_mesh(0.5, 1.0, 4, 5)
    spec = scalar_spec(m, np.zeros((1, m.na + 1, m.nx)), sigma=0.2, tau=0.3)
    run = run_relaxed(spec, SolverConfig(), m)
    for sl in run:
        assert np.allclose(sl.values, 0.0)
        assert np.allclose(sl.slope, 0.0)


def test_linear_run_matches_characteristic_reassembly():
    # with explicit births the driver must reproduce the solution
    # reassembled characteristic by characteristic, to round-off
    m = build_mesh(1.0, 1.0, 5, 7)
    A, X = m.na + 1, m.nx
    tau = 0.2
    rng = np.random.default_rng(14)
    g0 = rng.normal(size=(m.nt + 1, 1, X))
    g1 = rng.normal(size=(m.nt + 1, 1, X))
    f = rng.normal(size=(m.nt + 1, 1, A, X))
    y0 = rng.normal(size=(1, A, X))
    y1 = rng.normal(size=(1, A, X))
    spec = scalar_spec(
        m, y0, sigma=0.15, mu=0.3, g0=g0, g1=g1, y1=y1, f=f, tau=tau
    )
    ctx = step_context(spec.linear, tau, m)
    run = run_relaxed(spec, SolverConfig(), m)

    got = np.stack([sl.values for sl in run])  # (nt+1, 1, A, X)
    want = np.full_like(got, np.nan)
    for t0 in characteristic_ids(m):
        cells = characteristic_cells(m, t0)
        ti0, ai0 = cells[0]
        if t0 <= 0:  # t <= a: fed by initial data (t0 = 0 starts at the corner)
            v0, w0 = y0[:, ai0, :], y1[:, ai0, :]
        else:
            v0, w0 = g0[ti0], g1[ti0]
        ages = [aj for (_, aj) in cells[1:]]
        forcing = [f[ti, :, aj, :] for (ti, aj) in cells[1:]]
        states = propagate_characteristic(v0, w0, forcing, ages, ctx, m)
        for (ti, aj), (v, _) in zip(cells, states):
            want[ti, :, aj, :] = v
    assert np.allclose(got, want, rtol=1e-12, atol=1e-12)


def test_residual_zero_run():
    m = build_mesh(0.5, 1.0, 4, 5)
    spec = scalar_spec(m, np.zeros((1, m.na + 1, m.nx)), tau=0.1)
    run = run_relaxed(spec, SolverConfig(), m)
    assert residual_check(run, spec, m) == 0.0


def test_manufactured_solution_residual_and_error():
    errs, resids = [], []
    for na, nx in ((20, 21), (40, 41)):
        m = build_mesh(0.5, 1.0, na, nx)
        spec, exact = manufactured(m)
        run = run_relaxed(spec, SolverConfig(), m)
        errs.append(float(np.max(np.abs(run[-1].values - exact))))
        resids.append(residual_check(run, spec, m))
    assert errs[0] < 0.05
    assert errs[0] / errs[1] > 1.7
    assert resids[0] / resids[1] > 1.5


def test_solve_derives_the_tilde_terms():
    # an age-dependent kernel has a Lambda_1 term; a spec that omits it
    # solves exactly as one that carries it
    m = build_mesh(0.5, 1.0, 6, 7)
    spec = age_kernel_spec(m, tau=0.1)
    attached = dataclasses.replace(spec, kernels=attach_tilde(spec.kernels, m))
    assert len(attached.kernels.tilde_terms) == 1

    cfg = SolverConfig()
    got, want = run_relaxed(spec, cfg, m), run_relaxed(attached, cfg, m)
    for sg, sw in zip(got, want):
        assert np.array_equal(sg.values, sw.values)
        assert np.array_equal(sg.slope, sw.slope)
    assert residual_check(got, spec, m) == residual_check(want, attached, m)


def test_relaxed_sweep_contracts_three_times(monkeypatch):
    # Lambda(y) once for the forcing and delta_lambda_apply, Lambda(dy)
    # once, and g_op's own Lambda(y); the SVIR kernel has no tilde terms
    calls = []
    contract = operators._contract

    def counted(*args):
        calls.append(1)
        return contract(*args)

    monkeypatch.setattr(operators, "_contract", counted)
    m = build_mesh(0.5, 1.0, 6, 7)
    run = run_relaxed(build_svir(SvirParams(tau=1e-2, total_S0=100.0), m), SolverConfig(), m)
    sweeps = sum(len(u) for u in run.picard_updates)
    assert sweeps > m.nt
    assert len(calls) == 3 * sweeps


def test_picard_contraction_on_small_svir():
    m = build_mesh(0.5, 1.0, 10, 11)
    run = run_relaxed(build_svir(SvirParams(tau=1e-2), m), SolverConfig(), m)
    for updates in run.picard_updates:
        floor = 1e-12 * max(updates)
        for a, b in zip(updates[1:], updates[2:]):
            if a > floor and b > floor:
                assert b < a


def test_energy_shape_under_data_scaling():
    # linear problem: doubling y0 scales the tau-weighted energy by 4
    m = build_mesh(0.5, 1.0, 8, 9)
    A, X = m.na + 1, m.nx
    rng = np.random.default_rng(2)
    tau = 0.4
    y0 = rng.normal(size=(1, A, X))

    def energy(scale):
        spec = scalar_spec(m, scale * y0, sigma=0.2, mu=0.1, tau=tau)
        run = run_relaxed(spec, SolverConfig(), m)
        ev = max(norm_V(sl.values, m) for sl in run) ** 2
        eh = max(norm_H(sl.slope, m) for sl in run) ** 2
        return ev + tau * eh

    ratio = energy(2.0) / energy(1.0)
    assert ratio <= 4.5
    assert ratio == pytest.approx(4.0, rel=1e-10)


def test_two_solution_stability():
    # perturbing y0 by eps changes the run by <= C eps with stable C
    m = build_mesh(0.5, 1.0, 20, 21)
    cfg = SolverConfig()
    base_spec = build_svir(SvirParams(tau=0.05), m)
    base = run_relaxed(base_spec, cfg, m)
    consts = []
    for eps in (1e-3, 1e-4):
        spec = dataclasses.replace(base_spec, y0=base_spec.y0 * (1.0 + eps))
        pert = run_relaxed(spec, cfg, m)
        dv = max(
            norm_V(a.values - b.values, m) for a, b in zip(pert, base)
        )
        scale = eps * norm_V(base_spec.y0, m)
        consts.append(dv / scale)
    assert all(np.isfinite(c) for c in consts)
    assert consts[1] == pytest.approx(consts[0], rel=0.2)


def test_picard_divergence_detected():
    # oversized kernel weight at a coarse step breaks the contraction
    m = build_mesh(1.0, 1.0, 2, 5)
    A, X = m.na + 1, m.nx
    flat = FactoredTable(np.ones((X, X)), None, A)
    k = KernelSet(n=1, terms=[KernelTerm(0, 0, 0, -80.0, flat)])
    spec = scalar_spec(m, np.full((1, A, X), 1.0), kernels=k)
    with pytest.raises(PicardDiverged):
        run_relaxed(spec, SolverConfig(picard_max=50), m)


def test_spec_validation_errors():
    m = build_mesh(0.5, 1.0, 4, 5)
    spec = scalar_spec(m, np.zeros((1, 3, 3)))
    with pytest.raises(ShapeMismatch):
        run_relaxed(spec, SolverConfig(), m)


@pytest.mark.parametrize(
    "bad, match",
    [
        (lambda A, X: KernelTerm(7, 0, 2, 1.0, FactoredTable(np.ones((X, X)), None, A)), "outside"),
        (lambda A, X: KernelTerm(0, 0, 2, 1.0, FactoredTable(np.ones((X, X + 1)), None, A)), "row"),
        (lambda A, X: KernelTerm(0, 0, 2, 1.0, np.ones((A, X, A, X))), "from_dense"),
    ],
)
def test_bad_kernel_terms_are_shape_mismatches(bad, match):
    # an index outside the model, a row off the mesh and a dense table
    m = build_mesh(0.5, 1.0, 4, 5)
    spec = build_svir(SvirParams(tau=1e-2), m)
    term = bad(m.na + 1, m.nx)
    spec = dataclasses.replace(spec, kernels=KernelSet(4, spec.kernels.terms + [term]))
    with pytest.raises(ShapeMismatch, match=match) as err:
        run_relaxed(spec, SolverConfig(), m)
    assert f"kernel term (h={term.h}, i=0, j=2)" in str(err.value)


def test_residual_check_validates_the_spec():
    # a kernel index outside the model is a ShapeMismatch, not an IndexError
    m = build_mesh(0.5, 1.0, 4, 5)
    spec = build_svir(SvirParams(tau=1e-2, total_S0=100.0, I0=1.0), m)
    run = run_relaxed(spec, SolverConfig(), m)
    term = KernelTerm(7, 0, 2, 1.0, FactoredTable(np.ones((m.nx, m.nx)), None, m.na + 1))
    bad = dataclasses.replace(spec, kernels=KernelSet(4, spec.kernels.terms + [term]))
    with pytest.raises(ShapeMismatch, match="outside"):
        residual_check(run, bad, m)


@pytest.mark.parametrize("tau", [-0.1, np.nan, np.inf])
def test_negative_tau_is_an_invalid_param(tau):
    m = build_mesh(0.5, 1.0, 4, 5)
    spec = scalar_spec(m, np.zeros((1, m.na + 1, m.nx)), tau=tau)
    with pytest.raises(InvalidParam):
        run_relaxed(spec, SolverConfig(), m)


def test_store_every_thins_output():
    m = build_mesh(1.0, 1.0, 8, 5)
    spec = scalar_spec(m, np.ones((1, m.na + 1, m.nx)))
    run = run_relaxed(spec, SolverConfig(store_every=4), m)
    assert run.indices == [0, 4, 8]
    assert run.times == [0.0, 0.5, 1.0]
