import numpy as np
import pytest

from epiwave.char_solver import CharState, StepContext, step
from epiwave.errors import NonFinite, SingularSystem
from epiwave.fields import space_gradient
from epiwave.mesh import build_mesh, space_weights
from epiwave.reference import damped_mode_solution, heat_mode_decay

from conftest import propagate_characteristic


def _mesh(na=20, nx=21, t_max=1.0):
    return build_mesh(t_max, 1.0, na, nx)


def _ctx(m, tau, sigma=0.0, L=0.0, L_a=0.0, n=1, a_index=1):
    X = m.nx
    return StepContext(
        tau=tau,
        a_index=a_index,
        L_here=np.broadcast_to(L * np.eye(n), (X, n, n)).copy(),
        L_a_here=np.broadcast_to(L_a * np.eye(n), (X, n, n)).copy(),
        sigma_here=np.full(n, sigma),
    )


def test_step_free_transport_update():
    # L = sigma = f = 0: w_new = tau*w/(tau+da), v_new = v + da*w_new
    m = _mesh(na=10, nx=5)
    rng = np.random.default_rng(0)
    v = rng.normal(size=(1, m.nx))
    w = rng.normal(size=(1, m.nx))
    for tau in (0.0, 0.3, 7.0):
        out = step(CharState(v.copy(), w.copy()), _ctx(m, tau), m)
        want_w = tau * w / (tau + m.da)
        assert np.allclose(out.w, want_w, rtol=1e-12)
        assert np.allclose(out.v, v + m.da * want_w, rtol=1e-12)
    out0 = step(CharState(v.copy(), w.copy()), _ctx(m, 0.0), m)
    assert np.allclose(out0.w, 0.0)
    assert np.allclose(out0.v, v)


def _run_eigenmode(m, tau, sigma, steps):
    mode = np.cos(np.pi * m.xs())[None, :]
    state = CharState(mode.copy(), np.zeros_like(mode))
    ctx = _ctx(m, tau, sigma=sigma)
    for _ in range(steps):
        state = step(state, ctx, m)
    return state


def test_step_damped_mode_against_ode():
    # oracle: high-accuracy integration of tau q'' + q' + sigma pi^2 q = 0
    sigma, tau = 0.1, 0.1

    def err(na, nx):
        m = _mesh(na=na, nx=nx)
        q, _ = damped_mode_solution(tau, sigma * np.pi**2, 2 * m.da)
        state = _run_eigenmode(m, tau, sigma, 1)
        mid = m.nx // 4
        return abs(state.v[0, mid] - q(m.da) * np.cos(np.pi * m.xs()[mid]))

    e1, e2 = err(20, 41), err(40, 81)
    assert e1 < 0.5 * (1.0 / 20)
    assert e1 / e2 > 1.8


def test_step_heat_decay():
    sigma = 0.1

    def err(na, nx):
        m = _mesh(na=na, nx=nx)
        state = _run_eigenmode(m, 0.0, sigma, m.nt)
        return np.max(np.abs(state.v - heat_mode_decay(sigma, 1.0) * np.cos(np.pi * m.xs())))

    e1, e2 = err(20, 41), err(40, 81)
    assert e1 < 0.05
    assert e1 / e2 > 1.8


def test_propagate_zero_data():
    m = _mesh(na=6, nx=5)
    ctxs = [_ctx(m, 0.5, sigma=0.2, a_index=j) for j in range(1, 5)]
    forcing = [None] * 4
    out = propagate_characteristic(
        np.zeros((1, m.nx)), np.zeros((1, m.nx)), forcing, ctxs, m
    )
    assert len(out) == 5
    for st_ in out:
        assert np.allclose(st_.v, 0.0) and np.allclose(st_.w, 0.0)


def test_propagate_superposition():
    m = _mesh(na=8, nx=7)
    rng = np.random.default_rng(3)
    ctxs = [_ctx(m, 0.2, sigma=0.1, L=0.4, L_a=0.1, a_index=j) for j in range(1, 7)]
    v0 = rng.normal(size=(1, m.nx))
    w0 = rng.normal(size=(1, m.nx))
    f = [rng.normal(size=(1, m.nx)) for _ in range(6)]
    full = propagate_characteristic(v0, w0, f, ctxs, m)
    pv = propagate_characteristic(v0, 0 * w0, [None] * 6, ctxs, m)
    pw = propagate_characteristic(0 * v0, w0, [None] * 6, ctxs, m)
    pf = propagate_characteristic(0 * v0, 0 * w0, f, ctxs, m)
    for k in range(7):
        assert np.allclose(
            full[k].v, pv[k].v + pw[k].v + pf[k].v, rtol=1e-12, atol=1e-12
        )
        assert np.allclose(
            full[k].w, pv[k].w + pw[k].w + pf[k].w, rtol=1e-12, atol=1e-12
        )


def test_propagate_length_mismatch():
    m = _mesh(na=4, nx=5)
    with pytest.raises(ValueError):
        propagate_characteristic(
            np.zeros((1, m.nx)), np.zeros((1, m.nx)), [None], [], m
        )


def _space_norms(v, m):
    w = space_weights(m)
    h2 = float(np.einsum("ix,x->", v * v, w))
    g = space_gradient(v, m)
    return h2, h2 + float(np.einsum("ix,x->", g * g, w))


def test_energy_bound_uniform_in_tau():
    # discrete analogue of the characteristic energy estimate: the bound
    # constant stays moderate across ten orders of magnitude in tau
    m = _mesh(na=10, nx=11)
    rng = np.random.default_rng(17)
    worst = 0.0
    for tau in (1e-8, 1e-4, 1e-2, 1.0):
        for trial in range(3):
            v0 = rng.normal(size=(1, m.nx))
            w0 = rng.normal(size=(1, m.nx))
            f = [rng.normal(size=(1, m.nx)) for _ in range(m.na)]
            ctxs = [
                _ctx(m, tau, sigma=0.3, L=0.5, L_a=0.2, a_index=j)
                for j in range(1, m.na + 1)
            ]
            out = propagate_characteristic(v0, w0, f, ctxs, m)
            _, v0_V = _space_norms(v0, m)
            w0_H, _ = _space_norms(w0, m)
            f_sq = sum(_space_norms(fk, m)[0] for fk in f) * m.da
            rhs = tau * w0_H + v0_V + f_sq
            for st_ in out:
                wH = _space_norms(st_.w, m)[0]
                vV = _space_norms(st_.v, m)[1]
                worst = max(worst, (tau * wH + vV) / rhs)
    assert worst < 20.0


def test_tau_robust_limit():
    # trajectories approach the tau=0 trajectory monotonically
    m = _mesh(na=10, nx=21)
    base = _run_eigenmode(m, 0.0, 0.2, m.na)
    diffs = []
    for tau in (1e-2, 1e-4, 1e-6):
        st_ = _run_eigenmode(m, tau, 0.2, m.na)
        diffs.append(np.max(np.abs(st_.v - base.v)))
    assert diffs[0] > diffs[1] > diffs[2]


def test_unconditional_stability_stiff_ratio():
    # da/dx^2 = 1000 on the heat case; implicit step obeys the max principle
    m = build_mesh(1.0, 1.0, 10, 101)
    assert m.da / m.dx**2 == pytest.approx(1000.0)
    rng = np.random.default_rng(23)
    v = rng.uniform(0, 1, size=(1, m.nx))
    bound = np.max(np.abs(v))
    state = CharState(v, np.zeros_like(v))
    ctx = _ctx(m, 0.0, sigma=1.0)
    for _ in range(10):
        state = step(state, ctx, m)
        assert np.max(np.abs(state.v)) <= bound * (1 + 1e-12)


def test_mass_conservation_every_tau():
    # f = 0, L = 0, zero initial slope: weighted space sum is invariant
    m = _mesh(na=8, nx=13)
    rng = np.random.default_rng(29)
    w = space_weights(m)
    for tau in (0.0, 0.05, 3.0):
        v = rng.normal(size=(1, m.nx))
        mass0 = float(np.dot(w, v[0]))
        state = CharState(v.copy(), np.zeros_like(v))
        ctx = _ctx(m, tau, sigma=0.7)
        for _ in range(m.na):
            state = step(state, ctx, m)
            assert np.dot(w, state.v[0]) == pytest.approx(mass0, rel=1e-12)


def test_singular_system_detected():
    m = _mesh(na=4, nx=5)
    ctx = _ctx(m, 0.0, sigma=0.0, L=-1.0 / m.da)
    with pytest.raises(SingularSystem):
        step(CharState(np.ones((1, m.nx)), np.zeros((1, m.nx))), ctx, m)


def test_non_finite_detected():
    m = _mesh(na=4, nx=5)
    v = np.ones((1, m.nx))
    v[0, 0] = np.inf
    with pytest.raises(NonFinite):
        step(CharState(v, np.zeros_like(v)), _ctx(m, 0.1, sigma=0.1), m)
