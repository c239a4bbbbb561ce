import numpy as np

from epiwave import (
    FactoredTable,
    KernelSet,
    KernelTerm,
    SolverConfig,
    build_mesh,
    derived_initial_slope,
    run_parabolic,
    run_relaxed,
)
from epiwave.reference import heat_eigenmode, relative_error, scalar_spec
from epiwave.svir import SvirParams, build_svir


def test_zero_data_zero_run():
    m = build_mesh(0.5, 1.0, 4, 5)
    spec = scalar_spec(m, np.zeros((1, m.na + 1, m.nx)))
    run = run_parabolic(spec, SolverConfig(), m)
    for sl in run:
        assert np.allclose(sl.values, 0.0)
        assert np.allclose(sl.slope, 0.0)


def test_heat_eigenmode_decay():
    m = build_mesh(0.5, 1.0, 40, 41)
    spec, exact = heat_eigenmode(m)
    run = run_parabolic(spec, SolverConfig(), m)
    assert relative_error(run[-1].values, exact) < 0.05


def test_derived_slope_zero_state():
    m = build_mesh(0.5, 1.0, 4, 5)
    spec = scalar_spec(m, np.zeros((1, m.na + 1, m.nx)))
    assert np.allclose(derived_initial_slope(spec, m), 0.0)


def test_derived_slope_constant_state_closed_form():
    # y0 = c, L = mu, constant unit kernel: slope = -(mu + kappa*c)*c
    m = build_mesh(0.5, 1.0, 4, 5)
    A, X = m.na + 1, m.nx
    c, mu, kap = 2.0, 0.4, 0.3
    flat = FactoredTable(np.ones((X, X)), None, A)
    k = KernelSet(n=1, terms=[KernelTerm(0, 0, 0, kap, flat)])
    spec = scalar_spec(m, np.full((1, A, X), c), sigma=0.2, mu=mu, kernels=k)
    out = derived_initial_slope(spec, m)
    assert np.allclose(out, -(mu + kap * c) * c, rtol=1e-12)


def test_derived_slope_eigenmode():
    sigma = 0.1
    m = build_mesh(0.5, 1.0, 10, 41)
    spec, _ = heat_eigenmode(m, sigma=sigma)
    out = derived_initial_slope(spec, m)
    mode = np.cos(np.pi * m.xs())
    assert np.max(np.abs(out + sigma * np.pi**2 * mode)) < 5e-3


def test_relaxed_tau_zero_matches_parabolic_exactly():
    # same code path, so the value slices agree to the bit
    m = build_mesh(0.5, 1.0, 10, 11)
    cfg = SolverConfig()
    rel = run_relaxed(build_svir(SvirParams(tau=0.0), m), cfg, m)
    par = run_parabolic(build_svir(SvirParams(tau=0.0), m), cfg, m)
    assert len(rel) == len(par)
    for a, b in zip(rel, par):
        assert np.array_equal(a.values, b.values)


def test_positivity_monitored(svir_baseline, desk_mesh):
    # implicit Euler is positivity-friendly here: no compartment drops
    # below -1e-8 x initial sup on the benchmark grid
    init_sup = float(np.max(svir_baseline[0].values))
    worst = min(float(np.min(sl.values)) for sl in svir_baseline)
    assert worst >= -1e-8 * init_sup


def test_parabolic_boundary_slope_is_consistent(svir_baseline, desk_mesh):
    # committed slopes at a=0 equal the PDE right side there; spot-check
    # via the derived-slope formula at t=0
    spec = build_svir(SvirParams(tau=0.0), desk_mesh)
    want = derived_initial_slope(spec, desk_mesh)
    assert np.allclose(svir_baseline[0].slope, want, rtol=1e-10, atol=1e-10)
