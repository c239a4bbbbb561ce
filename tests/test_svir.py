from dataclasses import replace

import numpy as np
import pytest

from epiwave import (
    KernelSet,
    ModelSpec,
    SolverConfig,
    build_mesh,
    run_parabolic,
)
from epiwave.birth import zero_laws
from epiwave.errors import InvalidParam
from epiwave.fields import age_integral
from epiwave.mesh import space_weights
from epiwave.operators import LinearPart
from epiwave.svir import (
    I,
    R,
    S,
    V,
    SvirParams,
    build_svir,
    default_fertility,
    default_mortality,
    sigma_susceptible,
)


def test_parameter_table_at_age_zero():
    assert default_mortality(0.0) == 0.0
    assert default_fertility(0.0) == 0.0
    assert sigma_susceptible(0.0) == 0.1


def test_parameter_table_at_max_age():
    assert default_mortality(1.0) == pytest.approx(np.exp(-1.0))
    assert default_fertility(1.0) == pytest.approx(0.0, abs=1e-15)


def test_invalid_params_rejected():
    with pytest.raises(InvalidParam):
        SvirParams(phi1=1.5).validate()
    with pytest.raises(InvalidParam):
        SvirParams(gamma=-1.0).validate()
    with pytest.raises(InvalidParam):
        SvirParams(tau=-0.1).validate()


def test_linear_coupling_signs():
    m = build_mesh(0.5, 1.0, 4, 5)
    p = SvirParams()
    spec = build_svir(p, m)
    L = spec.linear.L
    mu1 = default_mortality(m.ages()[2])
    assert L[2, 0, S, V] == pytest.approx(-p.c)
    assert L[2, 0, V, V] == pytest.approx(mu1 + p.c)
    assert L[2, 0, I, I] == pytest.approx(mu1 + p.delta_d + p.gamma)
    assert L[2, 0, R, I] == pytest.approx(-p.gamma)
    assert L[2, 0, S, S] == pytest.approx(mu1)


def test_initial_masses_exact():
    m = build_mesh(0.5, 1.0, 10, 21)
    spec = build_svir(SvirParams(), m)
    wx = space_weights(m)
    masses = age_integral(spec.y0, m) @ wx
    assert masses[S] == pytest.approx(1000.0)
    assert masses[I] == pytest.approx(10.0)
    assert masses[V] == masses[R] == 0.0


def test_zero_infective_variant_stays_linear():
    m = build_mesh(0.5, 1.0, 6, 7)
    spec = build_svir(SvirParams(I0=0.0), m)
    run = run_parabolic(spec, SolverConfig(), m)
    for sl in run:
        assert np.allclose(sl.values[I], 0.0)
        assert np.allclose(sl.values[V], 0.0)
        assert np.allclose(sl.values[R], 0.0)
    # S evolves by demographics only
    assert not np.allclose(run[-1].values[S], run[0].values[S])


def test_newborn_routing_matrices(small_mesh):
    m = small_mesh
    spec = build_svir(SvirParams(), m)
    b = spec.births.beta0
    # default: births computed from every compartment enter S, and the
    # benchmark applies the same fertility at both birth orders
    assert np.array_equal(spec.births.beta1, b)
    beta_a = default_fertility(m.ages())
    for j in range(4):
        assert np.allclose(b[:, 0, S, j], beta_a)
        for h in (V, I, R):
            assert np.allclose(b[:, 0, h, j], 0.0)


def test_no_births_population_declines(small_mesh):
    m = small_mesh
    spec = build_svir(SvirParams(I0=0.0), m)
    spec = replace(spec, births=zero_laws(4, m))
    run = run_parabolic(spec, SolverConfig(), m)
    wx = space_weights(m)
    total = [float(np.sum(age_integral(sl.values, m) @ wx)) for sl in run]
    assert all(b < a for a, b in zip(total, total[1:]))


def test_sum_dynamics_match_single_compartment():
    # equal diffusivities: the exchange terms cancel in the sum, so
    # N = S+V+I+R solves a single-compartment problem with mortality mu
    # and the disease-death forcing -delta_d * I taken from the run
    m = build_mesh(0.5, 1.0, 10, 11)
    p = SvirParams(sigma_I=sigma_susceptible)
    spec = build_svir(p, m)
    cfg = SolverConfig()
    run = run_parabolic(spec, cfg, m)

    A, X = m.na + 1, m.nx
    mu = default_mortality(m.ages())
    from epiwave.svir import default_mortality_da

    lin = LinearPart(
        L=np.broadcast_to(
            (mu[:, None, None, None] * np.eye(1)), (A, X, 1, 1)
        ).copy(),
        L_a=np.broadcast_to(
            (default_mortality_da(m.ages())[:, None, None, None] * np.eye(1)),
            (A, X, 1, 1),
        ).copy(),
        sigma=sigma_susceptible(m.ages())[:, None],
    )
    laws = zero_laws(1, m)
    laws.beta0[:, :, 0, 0] = default_fertility(m.ages())[:, None]
    f = np.zeros((m.nt + 1, 1, A, X))
    # disease-induced deaths enter as external removal; needs every step
    for k in range(m.nt + 1):
        f[k, 0] = -p.delta_d * run[k].values[I]
    nspec = ModelSpec(
        n=1,
        linear=lin,
        kernels=KernelSet(1),
        births=laws,
        y0=np.sum(spec.y0, axis=0, keepdims=True),
        f=f,
    )
    nrun = run_parabolic(nspec, cfg, m)
    for k in (2, 4, 5):
        total = np.sum(run[k].values, axis=0)
        single = nrun[k].values[0]
        assert np.allclose(total, single, rtol=1e-6, atol=1e-6 * np.max(np.abs(single)))


def test_tau_is_carried():
    m = build_mesh(0.5, 1.0, 4, 5)
    spec = build_svir(SvirParams(tau=0.7), m)
    assert spec.tau == 0.7

