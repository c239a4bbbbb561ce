import numpy as np
import pytest

from epiwave import SolverConfig, build_mesh, derived_initial_slope, run_relaxed
from epiwave.errors import FitUnderdetermined, InvalidParam, MissingBaseline
from epiwave import study
from epiwave.study import (
    compatibility_setup,
    fit_rate,
    front_tracker,
    tau_sweep,
)
from epiwave.svir import SvirParams, build_svir

from conftest import state_zeros


def test_fit_rate_rejects_degenerate_diffs():
    # a run compared against itself has all-zero differences
    with pytest.raises(FitUnderdetermined):
        fit_rate([1e-4, 1e-3, 1e-2], [0.0, 0.0, 0.0])


def test_fit_rate_recovers_power_law():
    taus = [1e-4, 1e-3, 1e-2]
    diffs = [3.0 * t**1.5 for t in taus]
    rate, mask, _ = fit_rate(taus, diffs)
    assert rate == pytest.approx(1.5, abs=1e-12)
    assert all(mask)


def test_fit_rate_window_masks_floor_points():
    taus = [1e-6, 1e-5, 1e-4, 1e-3, 1e-2]
    floor = 1e-3
    diffs = [2e-3, 2e-3, 2e-2, 2e-1, 2.0]  # first two sit at the floor
    rate, mask, window = fit_rate(taus, diffs, floor)
    assert window
    assert mask == [False, False, True, True, True]
    assert rate == pytest.approx(1.0, abs=1e-6)


def test_front_tracker_zero_run():
    m = build_mesh(0.5, 1.0, 4, 5)
    run = [state_zeros(4, m) for _ in range(3)]
    assert front_tracker(run, 1e-12, m) == []


def test_front_positions_monotone_in_tau():
    # visible-front distance from x=1 is non-increasing in tau at a
    # fixed early time (bulk threshold; ties allowed)
    m = build_mesh(0.5, 1.0, 10, 21)
    cfg = SolverConfig()
    thr = 0.1 * 200.0
    t_probe = 0.4
    dists = []
    for tau in (0.1, 1.0, 10.0, 100.0):
        run = run_relaxed(build_svir(SvirParams(tau=tau), m), cfg, m)
        fr = dict((round(t, 10), x) for t, x in front_tracker(run, thr, m))
        x_left = fr.get(round(t_probe, 10), 1.0)
        dists.append(1.0 - x_left)
    assert all(b <= a + 1e-12 for a, b in zip(dists, dists[1:]))


def test_refinement_floor_positive(svir_floor):
    sup_floor, energy_floor = svir_floor
    assert sup_floor > 0
    assert energy_floor > 0


def test_tau_sweep_small_end_to_end(desk_mesh, solver_cfg, svir_baseline, svir_floor):
    taus = [1e-3, 3e-3, 1e-2]
    res = tau_sweep(
        SvirParams(),
        taus,
        solver_cfg,
        desk_mesh,
        baseline=svir_baseline,
        floor=svir_floor[0],
    )
    assert res.taus == taus
    assert len(res.sup_diffs) == 3
    assert all(d > 0 for d in res.sup_diffs)
    assert 0.7 < res.fitted_rate < 1.3
    assert res.floor == svir_floor[0]
    # matched-grid diffs sit below the refinement floor, so the window
    # rule falls back to the full point set
    assert not res.window_applied


def test_compatibility_setup_matched_case(desk_mesh):
    spec = compatibility_setup(SvirParams(), 1.0, 1.0, None, desk_mesh)
    assert spec.births.g0 is None and spec.births.g1 is None
    gap = spec.y1 - derived_initial_slope(spec, desk_mesh)
    assert np.max(np.abs(gap)) < 1e-10


def test_compatibility_setup_reads_baseline_trace(desk_mesh, svir_baseline):
    spec = compatibility_setup(SvirParams(), 0.0, 1.0, svir_baseline, desk_mesh)
    assert np.allclose(spec.births.beta0, 0.0)
    for k in (0, 3, 7):
        assert np.allclose(spec.births.g0[k], svir_baseline[k].values[:, 0, :])


def test_compatibility_setup_requires_baseline(desk_mesh):
    with pytest.raises(MissingBaseline):
        compatibility_setup(SvirParams(), 0.5, 1.0, None, desk_mesh)


def test_partial_q1_boundary_residual(desk_mesh, svir_baseline, solver_cfg):
    # with q1 = 0.5 the relaxed boundary value should still satisfy the
    # unrelaxed law up to discretization + tau effects
    import dataclasses

    spec = compatibility_setup(SvirParams(), 0.5, 1.0, svir_baseline, desk_mesh)
    spec = dataclasses.replace(spec, tau=1e-8)
    run = run_relaxed(spec, solver_cfg, desk_mesh)
    from epiwave.mesh import age_weights

    wa = age_weights(desk_mesh)
    worst = 0.0
    scale = 0.0
    beta = build_svir(SvirParams(), desk_mesh).births.beta0
    for k in (5, 10, 20):
        sl = run[k]
        b_full = np.einsum("a,axhi,iax->hx", wa, beta, sl.values)
        resid = sl.values[:, 0, :] - b_full
        worst = max(worst, float(np.max(np.abs(resid))))
        scale = max(scale, float(np.max(np.abs(b_full))))
    assert worst < 0.02 * scale


@pytest.mark.parametrize(
    "taus", [[1e-2, 1e-3, 1e-2], [-1e-3, 1e-2], [1e-3, 1e-3], [0.0, 1e-3, 1e-2]]
)
def test_sweep_taus_checked_before_solving(desk_mesh, solver_cfg, monkeypatch, taus):
    def no_solve(*args, **kwargs):
        raise AssertionError("a solve ran before the taus were checked")

    monkeypatch.setattr(study, "run_parabolic", no_solve)
    with pytest.raises(InvalidParam):
        tau_sweep(SvirParams(), taus, solver_cfg, desk_mesh)
