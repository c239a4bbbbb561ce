import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from epiwave import SolverConfig, run_parabolic, run_relaxed
from epiwave.errors import LengthMismatch, ShapeMismatch
from epiwave.fields import age_integral, diff_norms, norm_H, norm_V
from epiwave.mesh import age_weights, build_mesh, space_weights
from epiwave.io_cli import write_slices
from epiwave.reference import manufactured, total_births
from epiwave.study import front_tracker

from conftest import state_zeros, stored_run


def _mesh(na=20, nx=21):
    return build_mesh(1.0, 1.0, na, nx)


def _zeros(slices, n, m):
    return np.zeros((slices, n, m.na + 1, m.nx))


def _field(m, fn, n=1):
    a = m.ages()[None, :, None]
    x = m.xs()[None, None, :]
    return np.broadcast_to(fn(a, x), (n, m.na + 1, m.nx)).copy()


def test_norm_H_zero_field():
    m = _mesh()
    assert norm_H(state_zeros(1, m).values, m) == 0.0


def test_norm_H_unit_constant():
    m = _mesh()
    assert np.isclose(norm_H(_field(m, lambda a, x: 1.0 + 0 * a), m), 1.0)


def test_norm_H_linear_in_age_quadrature():
    # analytic: sqrt(int a^2) = 1/sqrt(3); trapezoid error is O(da^2)
    exact = 1.0 / np.sqrt(3.0)
    errs = []
    for na in (20, 40):
        m = _mesh(na=na)
        errs.append(abs(norm_H(_field(m, lambda a, x: a + 0 * x), m) - exact))
    assert errs[0] < 1e-3
    assert errs[0] / errs[1] > 3.0  # second order


def test_norm_V_constant_has_no_gradient_part():
    m = _mesh()
    assert np.isclose(norm_V(_field(m, lambda a, x: -2.5 + 0 * a), m), 2.5)


def test_norm_V_linear_in_x():
    # int x^2 + int 1 = 4/3 on the unit square
    exact = np.sqrt(4.0 / 3.0)
    m = _mesh()
    got = norm_V(_field(m, lambda a, x: x + 0 * a), m)
    assert abs(got - exact) < 1e-3


def test_norm_V_zero():
    m = _mesh()
    assert norm_V(state_zeros(1, m).values, m) == 0.0


@pytest.mark.parametrize("na, nx, n", [(4, 5, 1), (20, 21, 4), (40, 41, 4), (7, 12, 2)])
def test_batched_norms_equal_member_norms_to_the_bit(na, nx, n):
    m = build_mesh(1.0, 1.0, na, nx)
    batch = np.random.default_rng(na).normal(size=(3, n, na + 1, nx))
    for norm in (norm_H, norm_V):
        got = norm(batch, m)
        assert got.shape == (3,)
        want = [norm(v, m) for v in batch]
        assert all(type(w) is float for w in want)
        assert got.tolist() == want


@pytest.mark.parametrize(
    "na, nx, n", [(4, 5, 1), (20, 21, 4), (40, 41, 4), (7, 12, 2), (40, 3, 1)]
)
def test_norm_V_is_the_stencil_quadrature(na, nx, n):
    # the quadratic form against the trapezoid integral of v^2 + (dv/dx)^2
    # with np.gradient's stencil; (40, 3) is the renewal oracle's mesh
    m = build_mesh(1.0, 1.0, na, nx)
    v = np.random.default_rng(nx).normal(size=(n, na + 1, nx))
    sq = v**2 + np.gradient(v, m.dx, axis=-1, edge_order=2) ** 2
    want = np.sqrt(age_weights(m) @ sq.sum(0) @ space_weights(m))
    assert norm_V(v, m) == pytest.approx(want, rel=1e-14, abs=0.0)


def test_norm_shape_mismatch():
    m = _mesh()
    with pytest.raises(ShapeMismatch):
        norm_H(np.zeros((1, 3, 3)), m)
    for bad in ((m.na + 1, m.nx), (1, 2, 1, m.na + 1, m.nx)):
        with pytest.raises(ShapeMismatch):
            norm_V(np.zeros(bad), m)


def test_diff_norms_identical_runs():
    m = _mesh(na=4, nx=5)
    run = stored_run(_zeros(3, 2, m), m)
    rep = diff_norms(run, run)
    assert rep.sup_t_V == rep.sup_abs == rep.sup_t_H_slope == 0.0
    assert rep.l2_H == rep.h1_V == 0.0


def test_diff_norms_constant_offset():
    m = _mesh(na=4, nx=5)
    run_a = stored_run(_zeros(3, 1, m), m)
    run_b = stored_run(run_a.values + 1.0, m)
    rep = diff_norms(run_a, run_b)
    assert np.isclose(rep.sup_t_V, 1.0)
    assert np.isclose(rep.sup_abs, 1.0)


def test_diff_norms_against_bruteforce():
    # independent oracle: plain loops and np.trapezoid over each slice
    m = _mesh(na=5, nx=7)
    rng = np.random.default_rng(42)
    # axis 1 holds the values and the slope of each of the 4 slices
    a, b = (rng.normal(size=(4, 2, 2, m.na + 1, m.nx)) for _ in range(2))
    run_a = stored_run(a[:, 0], m, slopes=a[:, 1])
    run_b = stored_run(b[:, 0], m, slopes=b[:, 1])

    def brute_H(v):
        acc = 0.0
        for c in range(v.shape[0]):
            inner = [np.trapezoid(v[c, j] ** 2, dx=m.dx) for j in range(m.na + 1)]
            acc += np.trapezoid(inner, dx=m.da)
        return np.sqrt(acc)

    def brute_V(v):
        acc = brute_H(v) ** 2
        g = np.gradient(v, m.dx, axis=2, edge_order=2)
        for c in range(v.shape[0]):
            inner = [np.trapezoid(g[c, j] ** 2, dx=m.dx) for j in range(m.na + 1)]
            acc += np.trapezoid(inner, dx=m.da)
        return np.sqrt(acc)

    sup_v = max(brute_V(a.values - b.values) for a, b in zip(run_a, run_b))
    sup_h = max(brute_H(a.slope - b.slope) for a, b in zip(run_a, run_b))
    sup_abs = max(np.max(np.abs(a.values - b.values)) for a, b in zip(run_a, run_b))
    rep = diff_norms(run_a, run_b)
    assert np.isclose(rep.sup_t_V, sup_v)
    assert np.isclose(rep.sup_t_H_slope, sup_h)
    assert np.isclose(rep.sup_abs, sup_abs)
    assert rep.h1_V >= rep.l2_H


def test_diff_norms_time_weights_follow_stored_times():
    # store_every = 3 on nt = 20 stores the uneven times 0, 0.15, ..., 0.9, 1
    m = _mesh(na=20, nx=5)
    spec, _ = manufactured(m)
    run = run_relaxed(spec, SolverConfig(store_every=3), m)
    assert run.indices[-2:] == [18, 20]
    rep = diff_norms(run, stored_run(np.zeros_like(run.values), m, indices=run.indices))
    h_sq = [norm_H(sl.values, m) ** 2 for sl in run]
    v_sq = [norm_V(sl.values, m) ** 2 for sl in run]
    assert rep.l2_H == pytest.approx(np.sqrt(np.trapezoid(h_sq, run.times)), rel=1e-12)
    assert rep.h1_V == pytest.approx(np.sqrt(np.trapezoid(v_sq, run.times)), rel=1e-12)


def test_diff_norms_rejects_runs_stored_at_different_steps():
    # nt = 4: store_every 3 keeps steps 0, 3, 4 and store_every 2 keeps 0, 2, 4
    m = _mesh(na=4, nx=5)
    spec, _ = manufactured(m)
    run_a = run_relaxed(spec, SolverConfig(store_every=3), m)
    run_b = run_relaxed(spec, SolverConfig(store_every=2), m)
    assert run_a.indices == [0, 3, 4] and run_b.indices == [0, 2, 4]
    with pytest.raises(LengthMismatch, match="steps"):
        diff_norms(run_a, run_b)


def test_diff_norms_length_mismatch():
    m = _mesh(na=4, nx=5)
    with pytest.raises(LengthMismatch):
        diff_norms(stored_run(_zeros(2, 1, m), m), stored_run(_zeros(1, 1, m), m))


def test_diff_norms_sparse_run_against_every_step_reference():
    # the run stores steps 0, 3, ..., 18, 20; the reference stores all 21
    m = _mesh(na=20, nx=5)
    spec, _ = manufactured(m)
    run = run_relaxed(spec, SolverConfig(store_every=3), m)
    ref = run_parabolic(spec, SolverConfig(), m)
    assert len(ref) == m.nt + 1 and len(run) == 8
    rep = diff_norms(run, ref)
    pairs = [(sl, ref[i]) for sl, i in zip(run, run.indices)]
    h_sq = [norm_H(a.values - b.values, m) ** 2 for a, b in pairs]
    v_sq = [norm_V(a.values - b.values, m) ** 2 for a, b in pairs]
    assert rep.l2_H == pytest.approx(np.sqrt(np.trapezoid(h_sq, run.times)), rel=1e-12)
    assert rep.h1_V == pytest.approx(np.sqrt(np.trapezoid(v_sq, run.times)), rel=1e-12)
    assert rep.sup_t_H_slope == max(norm_H(a.slope - b.slope, m) for a, b in pairs)
    assert rep.sup_abs == max(float(np.max(np.abs(a.values - b.values))) for a, b in pairs)
    with pytest.raises(LengthMismatch, match="steps"):
        diff_norms(ref, run)


@pytest.mark.parametrize(
    "reader",
    [
        lambda run, other: diff_norms(dataclasses.replace(run, mesh=other), run),
        lambda run, other: diff_norms(run, dataclasses.replace(run, mesh=other)),
    ],
    ids=["diff_norms", "diff_norms-ref"],
)
def test_run_readers_refuse_a_mesh_that_is_not_the_runs(reader):
    # same na and nx, so the shapes agree, but twice the step and extent
    m, other = _mesh(na=20, nx=5), build_mesh(2.0, 2.0, 20, 5)
    run = stored_run(np.ones((3, 4, m.na + 1, m.nx)), m)
    with pytest.raises(ShapeMismatch) as info:
        reader(run, other)
    assert repr(m) in str(info.value) and repr(other) in str(info.value)


@pytest.mark.parametrize(
    "reader",
    [
        lambda run, out: np.array(front_tracker(run, 0.5, compartment=0)),
        lambda run, out: np.loadtxt(write_slices(run, out)[0], delimiter=",", skiprows=1)[:, :2],
        lambda run, out: np.array([[total_births(run)]]),
    ],
    ids=["front_tracker", "write_slices", "total_births"],
)
def test_run_readers_take_the_mesh_from_the_run(reader, tmp_path):
    # the same unit stacks on twice the step and extent: the front
    # times, the slice ages and the time integral of births double
    m, other = _mesh(na=20, nx=5), build_mesh(2.0, 2.0, 20, 5)
    values = np.ones((m.nt + 1, 1, m.na + 1, m.nx))
    got, got_other = (reader(stored_run(values, mesh), tmp_path / f"out{k}")
                      for k, mesh in enumerate((m, other)))
    want = got.copy()
    want[:, 0] *= 2.0
    assert len(got) and np.array_equal(got_other, want)


def test_run_items_are_views_and_iteration_stops_at_len():
    m = _mesh(na=4, nx=5)
    spec, _ = manufactured(m)
    run = run_relaxed(spec, SolverConfig(store_every=3), m)
    assert len(run) == len(run.indices) == len(run.values) == 3
    for k, sl in enumerate(run):
        assert np.shares_memory(sl.values, run.values[k])
        assert np.shares_memory(sl.slope, run.slopes[k])
    assert len(list(run)) == len(run)
    run[-1].values[...] = 7.0
    assert np.all(run.values[-1] == 7.0)
    with pytest.raises(IndexError):
        run[len(run)]


@settings(max_examples=25, deadline=None)
@given(c=st.floats(min_value=-50, max_value=50, allow_nan=False))
def test_norm_homogeneity(c):
    m = _mesh(na=4, nx=5)
    rng = np.random.default_rng(7)
    v = rng.normal(size=(2, m.na + 1, m.nx))
    assert np.isclose(norm_H(c * v, m), abs(c) * norm_H(v, m), rtol=1e-12, atol=1e-12)
    assert np.isclose(norm_V(c * v, m), abs(c) * norm_V(v, m), rtol=1e-12, atol=1e-12)


def test_triangle_inequality():
    m = _mesh(na=4, nx=5)
    rng = np.random.default_rng(3)
    for _ in range(10):
        u = rng.normal(size=(2, m.na + 1, m.nx))
        v = rng.normal(size=(2, m.na + 1, m.nx))
        assert norm_H(u + v, m) <= norm_H(u, m) + norm_H(v, m) + 1e-12
        assert norm_V(u + v, m) <= norm_V(u, m) + norm_V(v, m) + 1e-12


def test_quadrature_second_order_on_smooth_field():
    exact = None
    errs = []
    for na, nx in ((10, 11), (20, 21)):
        m = build_mesh(1.0, 1.0, na, nx)
        f = _field(m, lambda a, x: np.sin(a) * np.cos(2 * x))
        if exact is None:
            # high-resolution reference
            mf = build_mesh(1.0, 1.0, 320, 321)
            exact = norm_H(_field(mf, lambda a, x: np.sin(a) * np.cos(2 * x)), mf)
        errs.append(abs(norm_H(f, m) - exact))
    assert errs[0] / errs[1] > 3.0


def test_age_integral_of_constant():
    m = _mesh(na=8, nx=5)
    vals = np.full((3, m.na + 1, m.nx), 2.0)
    out = age_integral(vals, m)
    assert out.shape == (3, m.nx)
    assert np.allclose(out, 2.0 * m.a_max)


def test_weights_match_trapezoid():
    m = _mesh(na=6, nx=9)
    rng = np.random.default_rng(11)
    v = rng.normal(size=m.na + 1)
    assert np.isclose(np.dot(age_weights(m), v), np.trapezoid(v, dx=m.da))
    w = rng.normal(size=m.nx)
    assert np.isclose(np.dot(space_weights(m), w), np.trapezoid(w, dx=m.dx))
