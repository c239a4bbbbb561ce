import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from epiwave import SolverConfig, run_relaxed
from epiwave.errors import LengthMismatch, ShapeMismatch
from epiwave.fields import StateField, age_integral, diff_norms, norm_H, norm_V
from epiwave.mesh import age_weights, build_mesh, space_weights
from epiwave.reference import manufactured

from conftest import state_zeros


def _mesh(na=20, nx=21):
    return build_mesh(1.0, 1.0, na, nx)


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


def test_norm_shape_mismatch():
    m = _mesh()
    with pytest.raises(ShapeMismatch):
        norm_H(np.zeros((1, 3, 3)), m)


def test_diff_norms_identical_runs():
    m = _mesh(na=4, nx=5)
    run = [state_zeros(2, m) for _ in range(3)]
    rep = diff_norms(run, run, m)
    assert rep.sup_t_V == rep.sup_abs == rep.sup_t_H_slope == 0.0
    assert rep.l2_H == rep.h1_V == 0.0


def test_diff_norms_constant_offset():
    m = _mesh(na=4, nx=5)
    run_a = [state_zeros(1, m) for _ in range(3)]
    run_b = []
    for sl in run_a:
        s = sl.copy()
        s.values += 1.0
        run_b.append(s)
    rep = diff_norms(run_a, run_b, m)
    assert np.isclose(rep.sup_t_V, 1.0)
    assert np.isclose(rep.sup_abs, 1.0)


def test_diff_norms_against_bruteforce():
    # independent oracle: plain loops and np.trapezoid over each slice
    m = _mesh(na=5, nx=7)
    rng = np.random.default_rng(42)
    shape = (2, m.na + 1, m.nx)
    run_a = [StateField(rng.normal(size=shape), rng.normal(size=shape)) for _ in range(4)]
    run_b = [StateField(rng.normal(size=shape), rng.normal(size=shape)) for _ in range(4)]

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
    rep = diff_norms(run_a, run_b, m)
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
    rep = diff_norms(run, [state_zeros(1, m)] * len(run), m)
    h_sq = [norm_H(sl.values, m) ** 2 for sl in run]
    v_sq = [norm_V(sl.values, m) ** 2 for sl in run]
    assert rep.l2_H == pytest.approx(np.sqrt(np.trapezoid(h_sq, run.times)), rel=1e-12)
    assert rep.h1_V == pytest.approx(np.sqrt(np.trapezoid(v_sq, run.times)), rel=1e-12)


def test_diff_norms_length_mismatch():
    m = _mesh(na=4, nx=5)
    with pytest.raises(LengthMismatch):
        diff_norms([state_zeros(1, m)], [state_zeros(1, m)] * 2, m)


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
