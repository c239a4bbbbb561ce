import dataclasses
import re
import tracemalloc

import numpy as np
import pytest

from epiwave import SolverConfig, build_mesh, derived_initial_slope, run_parabolic, run_relaxed
from epiwave.errors import FitUnderdetermined, InvalidParam, LengthMismatch, ShapeMismatch
from epiwave import study
from epiwave.study import (
    check_taus,
    compatibility_setup,
    fit_rate,
    front_tracker,
    refinement_floor,
    tau_sweep,
)
from epiwave.svir import SvirParams, build_svir

from conftest import DESK_TAUS, assert_members_equal_solo_runs, stored_run


def test_fit_rate_rejects_degenerate_diffs():
    # a run compared against itself has all-zero differences
    with pytest.raises(FitUnderdetermined):
        fit_rate([1e-4, 1e-3, 1e-2], [0.0, 0.0, 0.0])


def test_fit_rate_recovers_power_law():
    # the zero diff (a member equal to the baseline) is left out of the fit
    taus = [1e-5, 1e-4, 1e-3, 1e-2]
    diffs = [0.0] + [3.0 * t**1.5 for t in taus[1:]]
    assert fit_rate(taus, diffs) == pytest.approx(1.5, abs=1e-12)


def test_front_tracker_zero_run():
    m = build_mesh(0.5, 1.0, 4, 5)
    run = stored_run(np.zeros((3, 4, m.na + 1, m.nx)), m)
    assert front_tracker(run, 1e-12) == []


@pytest.mark.parametrize(
    "kwargs, shown",
    [({}, 2), ({"compartment": -1}, -1), ({"compartment": 1}, 1), ({"compartment": 0.0}, 0.0),
     ({"compartment": True}, True)],
    ids=["svir-default", "negative", "past-the-end", "float", "bool"],
)
def test_front_tracker_refuses_a_compartment_outside_the_run(kwargs, shown):
    # SVIR's default I = 2 on a one-compartment run is not an IndexError,
    # and a negative index does not pick a compartment from the end
    m = build_mesh(0.5, 1.0, 4, 5)
    run = stored_run(np.ones((3, 1, m.na + 1, m.nx)), m)
    with pytest.raises(ShapeMismatch, match=rf"^compartment={shown!r} is not one of the run's 1 "):
        front_tracker(run, None, **kwargs)
    assert len(front_tracker(run, None, compartment=0)) == 3


def test_front_positions_monotone_in_tau():
    # visible-front distance from x=1 is non-increasing in tau at a
    # fixed early time (bulk threshold; ties allowed)
    m = build_mesh(0.5, 1.0, 10, 21)
    cfg = SolverConfig()  # up to 88 sweeps in a step at na=10 (311 without mixing)
    thr = 0.1 * 200.0
    t_probe = 0.4
    dists = []
    for tau in (0.1, 1.0, 10.0, 100.0):
        run = run_relaxed(build_svir(SvirParams(tau=tau), m), cfg, m)
        fr = dict((round(t, 10), x) for t, x in front_tracker(run, thr))
        x_left = fr.get(round(t_probe, 10), 1.0)
        dists.append(1.0 - x_left)
    assert all(b <= a + 1e-12 for a, b in zip(dists, dists[1:]))


def test_refinement_floor_positive(svir_floor):
    assert svir_floor > 0


def test_refinement_floor_is_the_sup_over_the_coarse_lattice(small_mesh):
    m = small_mesh
    cfg = SolverConfig()  # step 1 takes 35 sweeps at na=10 (116 without mixing)
    coarse = run_parabolic(build_svir(SvirParams(), m), cfg, m)
    m2 = build_mesh(m.t_max, m.a_max, 2 * m.na, m.nx)
    fine = run_parabolic(build_svir(SvirParams(), m2), cfg, m2)
    # every other time and age index of the fine run, slice by slice
    want = max(
        float(np.max(np.abs(sl.values - fine[2 * k].values[:, ::2, :])))
        for k, sl in enumerate(coarse)
    )
    assert refinement_floor(coarse, SvirParams(), cfg) == want


def test_refinement_floor_stores_every_other_step_of_the_fine_run(small_mesh, monkeypatch):
    # the 2na run keeps every other step: the march hands over steps 0, 2,
    # ..., 2 nt, the ones the floor reads, and stores no slice (the floor
    # itself is pinned by the test above)
    m = small_mesh
    cfg = SolverConfig()
    coarse = run_parabolic(build_svir(SvirParams(), m), cfg, m)
    read = []

    def solve(spec, cfg, m2, consume):
        def counted(i, values, slopes):
            read.append(i)
            consume(i, values, slopes)

        fine = run_parabolic(spec, cfg, m2, consume=counted)
        assert len(fine) == 0  # no stored slice
        return fine

    monkeypatch.setattr(study, "run_parabolic", solve)
    refinement_floor(coarse, SvirParams(), cfg)
    assert read == list(range(0, 2 * m.nt + 1, 2))


def test_refinement_floor_needs_every_step_of_the_coarse_run(small_mesh, monkeypatch):
    m = small_mesh
    monkeypatch.setattr(study, "run_parabolic", None)  # fails if the fine run is solved
    sparse = stored_run(np.zeros((3, 4, m.na + 1, m.nx)), m, indices=[0, 3, 5])
    with pytest.raises(LengthMismatch, match="every step"):
        refinement_floor(sparse, SvirParams(), SolverConfig())


def test_tau_sweep_small_end_to_end(desk_mesh, solver_cfg, svir_floor):
    taus = [1e-3, 3e-3, 1e-2]
    res = tau_sweep(SvirParams(), taus, solver_cfg, desk_mesh)
    assert res.taus == taus
    assert len(res.sup_diffs) == 3
    assert all(d > 0 for d in res.sup_diffs)
    assert 0.7 < res.fitted_rate < 1.3
    assert res.floor == svir_floor


@pytest.mark.parametrize(
    "store_every, compat",
    [(1, None), (2, None), (1, (0.5, 0.7)), (2, (0.5, 0.7))],
    ids=["every-step", "store-every-2", "compat", "compat-store-every-2"],
)
def test_tau_sweep_reduces_its_members_as_diff_norms_and_front_tracker_do(
    small_mesh, store_every, compat
):
    # the sweep reduces each member step by step as the march hands it over;
    # its solo run, stored and reduced whole, gives the same bits (nt = 5:
    # store_every = 2 keeps steps 0, 2, 4, 5, so the time weights are uneven)
    m, taus = small_mesh, [1e-3, 1e-2, 1e-1]
    cfg = SolverConfig(store_every=store_every)
    res = tau_sweep(SvirParams(), taus, cfg, m, compat=compat)
    template = build_svir(SvirParams(), m)
    baseline = run_parabolic(template, SolverConfig(), m)
    if compat is not None:
        template = compatibility_setup(template, *compat, baseline)
    for j, tau in enumerate(taus):
        run = run_relaxed(dataclasses.replace(template, tau=tau), cfg, m)
        assert res.energy_diffs[j] == study.diff_norms(run, baseline)
        assert res.sup_diffs[j] == res.energy_diffs[j].sup_abs
        assert res.front_positions[j] == front_tracker(run, None)


def _sweep_peak(t_max):
    """The tracemalloc peak of one three-tau sweep on na = 20, nx = 21."""
    m = build_mesh(t_max, 1.0, 20, 21)
    tracemalloc.start()
    try:
        tau_sweep(SvirParams(), [1e-3, 3e-3, 1e-2], SolverConfig(), m)
        return tracemalloc.get_traced_memory()[1], m
    finally:
        tracemalloc.stop()


def test_tau_sweep_memory_grows_with_the_baseline_not_the_members():
    # doubling the horizon adds nt/2 stored steps to each run; only the
    # baseline keeps its slices (282 KB more here), so the peak grows by
    # about that, not by the three members' slices as well (about 1.1 MB)
    short, m1 = _sweep_peak(0.5)
    long, m2 = _sweep_peak(1.0)
    n, A, X = 4, m2.na + 1, m2.nx
    baseline_extra = (m2.nt - m1.nt) * 2 * n * A * X * 8  # values and slopes
    assert long - short < 2 * baseline_extra


def test_compatibility_setup_matched_case(desk_mesh, svir_baseline):
    spec = compatibility_setup(build_svir(SvirParams(), desk_mesh), 1.0, 1.0, svir_baseline)
    assert spec.births.g0 is None and spec.births.g1 is None
    gap = spec.y1 - derived_initial_slope(spec, desk_mesh)
    assert np.max(np.abs(gap)) < 1e-10


def test_compatibility_setup_reads_baseline_trace(desk_mesh, svir_baseline):
    spec = compatibility_setup(
        build_svir(SvirParams(), desk_mesh), 0.0, 1.0, svir_baseline
    )
    assert np.allclose(spec.births.beta0, 0.0)
    for k in (0, 3, 7):
        assert np.allclose(spec.births.g0[k], svir_baseline[k].values[:, 0, :])


def test_compatibility_setup_requires_baseline(desk_mesh):
    # a baseline without every step has no boundary trace to sample
    sparse = stored_run(np.zeros((3, 4, desk_mesh.na + 1, desk_mesh.nx)), desk_mesh, [0, 10, 20])
    with pytest.raises(LengthMismatch, match="every step"):
        compatibility_setup(build_svir(SvirParams(), desk_mesh), 0.5, 1.0, sparse)


def test_compatibility_setup_refuses_a_baseline_from_another_mesh():
    # same na, nx and nt, but da 0.1 against 0.05: the baseline is not the
    # spec's own parabolic run, and its y0 (S = total_S0 / a_max) differs
    spec = build_svir(SvirParams(), build_mesh(0.5, 0.5, 10, 21))
    m = build_mesh(1.0, 1.0, 10, 21)
    baseline = run_parabolic(build_svir(SvirParams(), m), SolverConfig(), m)
    with pytest.raises(ShapeMismatch, match="does not start from the spec's y0"):
        compatibility_setup(spec, 0.5, 0.7, baseline)


def test_partial_q1_boundary_residual(desk_mesh, svir_baseline, solver_cfg):
    # with q1 = 0.5 the relaxed boundary value should still satisfy the
    # unrelaxed law up to discretization + tau effects
    import dataclasses

    spec = compatibility_setup(
        build_svir(SvirParams(), desk_mesh), 0.5, 1.0, svir_baseline
    )
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
    "taus",
    [
        [1e-2, 1e-3, 1e-2],
        [-1e-3, 1e-2],
        [1e-3, 1e-3],
        [0.0, 1e-3, 1e-2],
        [1e-3, 1e-2],
        [1e-3, 1e-2, np.inf],
        ["a", "b", "c"],
        [1e-3, 1e-2, 1e-1 + 0j],
        # not a list, tuple or 1-D array
        0.1,
        None,
        {1e-3, 1e-2, 1e-1},
        np.array(0.1),
        np.array([[1e-3, 1e-2, 1e-1]]),
    ],
)
def test_sweep_taus_checked_before_solving(desk_mesh, solver_cfg, monkeypatch, taus):
    def no_solve(*args, **kwargs):
        raise AssertionError("a solve ran before the taus were checked")

    monkeypatch.setattr(study, "run_parabolic", no_solve)
    named = re.escape(repr(taus))
    with pytest.raises(InvalidParam, match=named):
        check_taus(taus)
    with pytest.raises(InvalidParam, match=named):
        tau_sweep(SvirParams(), taus, solver_cfg, desk_mesh)


@pytest.mark.parametrize("kind", [list, tuple, np.array])
def test_taus_as_a_list_tuple_or_array_are_accepted(kind):
    assert check_taus(kind([1e-1, 1e-2, 1e-3])) is None


def test_lockstep_members_of_a_compat_template_equal_their_solo_runs(
    desk_mesh, svir_baseline, solver_cfg
):
    # tau_sweep's compat members: derived birth tables and g0 / g1 series
    spec = compatibility_setup(build_svir(SvirParams(), desk_mesh), 0.5, 0.7, svir_baseline)
    assert spec.births.g0 is not None and spec.births.g1 is not None
    assert_members_equal_solo_runs(spec, DESK_TAUS, solver_cfg, desk_mesh)


def test_tau_sweep_solves_its_members_in_one_call(desk_mesh, solver_cfg, monkeypatch):
    # one run_relaxed call for the batch, so study.member_s times all members
    calls = []
    solve = study.run_relaxed

    def counted(spec, cfg, m, **kwargs):
        calls.append(spec.tau)
        return solve(spec, cfg, m, **kwargs)

    monkeypatch.setattr(study, "run_relaxed", counted)
    taus = [1e-3, 1e-2, 1e-1]
    m = build_mesh(0.5, 1.0, 6, 7)
    base = SvirParams(total_S0=100.0)
    res = tau_sweep(base, taus, solver_cfg, m)
    assert calls == [taus]
    baseline = run_parabolic(build_svir(base, m), solver_cfg, m)
    for tau, got in zip(taus, res.sup_diffs):
        run = run_relaxed(build_svir(dataclasses.replace(base, tau=tau), m), solver_cfg, m)
        assert got == study.diff_norms(run, baseline).sup_abs
