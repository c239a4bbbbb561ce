import dataclasses
import tracemalloc

import numpy as np
import pytest

from epiwave.char_solver import step, step_context, step_rhs
from epiwave.errors import NonFinite, SingularSystem
from epiwave.fields import space_gradient
from epiwave.mesh import build_mesh, space_weights
from epiwave.operators import LinearPart, laplacian_neumann
from epiwave.reference import damped_mode_solution, heat_mode_decay
from epiwave.svir import SvirParams, build_svir

from conftest import propagate_characteristic


def _mesh(na=20, nx=21, t_max=1.0):
    return build_mesh(t_max, 1.0, na, nx)


def _ctx(m, tau, sigma=0.0, L=0.0, L_a=0.0, n=1):
    # coefficients constant in age and space
    A, X = m.na + 1, m.nx
    eye = np.eye(n)
    lin = LinearPart(
        L=np.broadcast_to(L * eye, (A, X, n, n)).copy(),
        L_a=np.broadcast_to(L_a * eye, (A, X, n, n)).copy(),
        sigma=np.full((A, n), sigma),
    )
    return step_context(lin, tau, m)


def _at_every_age(row, m):
    """(n, na, nx) slice holding the (n, nx) state at every source age."""
    return np.repeat(np.asarray(row, dtype=float)[:, None, :], m.na, axis=1)


def test_step_free_transport_update():
    # L = sigma = f = 0: w_new = tau*w/(tau+da), v_new = v + da*w_new
    m = _mesh(na=10, nx=5)
    rng = np.random.default_rng(0)
    v = rng.normal(size=(1, m.na, m.nx))
    w = rng.normal(size=(1, m.na, m.nx))
    for tau in (0.0, 0.3, 7.0):
        ctx = _ctx(m, tau)
        v_new, w_new = step(v.copy(), step_rhs(v, w, ctx, m), ctx, m)
        want_w = tau * w / (tau + m.da)
        assert np.allclose(w_new, want_w, rtol=1e-12)
        assert np.allclose(v_new, v + m.da * want_w, rtol=1e-12)
    ctx = _ctx(m, 0.0)
    v0, w0 = step(v.copy(), step_rhs(v, w, ctx, m), ctx, m)
    assert np.allclose(w0, 0.0)
    assert np.allclose(v0, v)


def _run_eigenmode(m, tau, sigma, steps):
    # constant coefficients: every age column follows the same characteristic
    v = _at_every_age(np.cos(np.pi * m.xs())[None, :], m)
    w = np.zeros_like(v)
    ctx = _ctx(m, tau, sigma=sigma)
    for _ in range(steps):
        v, w = step(v, step_rhs(v, w, ctx, m), ctx, m)
    return v[:, 0], w[:, 0]


def test_step_damped_mode_against_ode():
    # oracle: the closed-form solution of tau q'' + q' + sigma pi^2 q = 0
    sigma, tau = 0.1, 0.1

    def err(na, nx):
        m = _mesh(na=na, nx=nx)
        q, _ = damped_mode_solution(tau, sigma * np.pi**2)
        v, _ = _run_eigenmode(m, tau, sigma, 1)
        mid = m.nx // 4
        return abs(v[0, mid] - q(m.da) * np.cos(np.pi * m.xs()[mid]))

    e1, e2 = err(20, 41), err(40, 81)
    assert e1 < 0.5 * (1.0 / 20)
    assert e1 / e2 > 1.8


@pytest.mark.parametrize(
    "eps, tol",
    [(0.0, 1e-15), (1e-9, 1e-8), (-1e-9, 1e-8)],
    ids=["critical", "overdamped", "underdamped"],
)
def test_damped_mode_at_critical_damping(eps, tol):
    # 4 tau rate = 1 - eps against (1 + k t) e^(-k t), k = 1/(2 tau): each
    # branch next to the switch shows no cancellation
    tau, k, t = 0.25, 2.0, np.linspace(0.0, 3.0, 301)
    q, qp = damped_mode_solution(tau, (1.0 - eps) / (4.0 * tau))
    assert np.max(np.abs(q(t) - (1.0 + k * t) * np.exp(-k * t))) <= tol
    assert np.max(np.abs(qp(t) + k * k * t * np.exp(-k * t))) <= tol


@pytest.mark.parametrize(
    "tau, rate",
    [(1e-3, 0.1 * np.pi**2), (0.1, 0.1 * np.pi**2), (0.25, 1.0), (0.1, 5.0), (1.0, 0.1 * np.pi**2)],
)
def test_damped_mode_starts_at_rest(tau, rate):
    q, qp = damped_mode_solution(tau, rate)
    assert q(0.0) == pytest.approx(1.0, abs=1e-15)
    assert qp(0.0) == 0.0


def test_damped_mode_stays_finite_at_small_tau():
    # e^(-t/(2 tau)) cosh(beta t) would overflow here
    q, qp = damped_mode_solution(1e-3, 0.1 * np.pi**2)
    assert np.isfinite(q(5.0)) and np.isfinite(qp(5.0))


def test_step_heat_decay():
    sigma = 0.1

    def err(na, nx):
        m = _mesh(na=na, nx=nx)
        v, _ = _run_eigenmode(m, 0.0, sigma, m.nt)
        return np.max(np.abs(v - heat_mode_decay(sigma, 1.0) * np.cos(np.pi * m.xs())))

    e1, e2 = err(20, 41), err(40, 81)
    assert e1 < 0.05
    assert e1 / e2 > 1.8


def test_propagate_zero_data():
    m = _mesh(na=6, nx=5)
    ctx = _ctx(m, 0.5, sigma=0.2)
    out = propagate_characteristic(
        np.zeros((1, m.nx)), np.zeros((1, m.nx)), [None] * 4, range(1, 5), ctx, m
    )
    assert len(out) == 5
    for v, w in out:
        assert np.allclose(v, 0.0) and np.allclose(w, 0.0)


def test_propagate_superposition():
    m = _mesh(na=8, nx=7)
    rng = np.random.default_rng(3)
    ctx = _ctx(m, 0.2, sigma=0.1, L=0.4, L_a=0.1)
    ages = range(1, 7)
    v0 = rng.normal(size=(1, m.nx))
    w0 = rng.normal(size=(1, m.nx))
    f = [rng.normal(size=(1, m.nx)) for _ in range(6)]
    full = propagate_characteristic(v0, w0, f, ages, ctx, m)
    pv = propagate_characteristic(v0, 0 * w0, [None] * 6, ages, ctx, m)
    pw = propagate_characteristic(0 * v0, w0, [None] * 6, ages, ctx, m)
    pf = propagate_characteristic(0 * v0, 0 * w0, f, ages, ctx, m)
    for k in range(7):
        for c in (0, 1):  # values, then slopes
            assert np.allclose(
                full[k][c], pv[k][c] + pw[k][c] + pf[k][c], rtol=1e-12, atol=1e-12
            )


def test_propagate_length_mismatch():
    m = _mesh(na=4, nx=5)
    with pytest.raises(ValueError):
        propagate_characteristic(
            np.zeros((1, m.nx)), np.zeros((1, m.nx)), [None], [], _ctx(m, 0.1), m
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
            ctx = _ctx(m, tau, sigma=0.3, L=0.5, L_a=0.2)
            out = propagate_characteristic(v0, w0, f, range(1, m.na + 1), ctx, m)
            _, v0_V = _space_norms(v0, m)
            w0_H, _ = _space_norms(w0, m)
            f_sq = sum(_space_norms(fk, m)[0] for fk in f) * m.da
            rhs = tau * w0_H + v0_V + f_sq
            for v, w in out:
                wH = _space_norms(w, m)[0]
                vV = _space_norms(v, m)[1]
                worst = max(worst, (tau * wH + vV) / rhs)
    assert worst < 20.0


def test_tau_robust_limit():
    # trajectories approach the tau=0 trajectory monotonically
    m = _mesh(na=10, nx=21)
    base, _ = _run_eigenmode(m, 0.0, 0.2, m.na)
    diffs = []
    for tau in (1e-2, 1e-4, 1e-6):
        v, _ = _run_eigenmode(m, tau, 0.2, m.na)
        diffs.append(np.max(np.abs(v - base)))
    assert diffs[0] > diffs[1] > diffs[2]


def test_unconditional_stability_stiff_ratio():
    # da/dx^2 = 1000 on the heat case; implicit step obeys the max principle
    m = build_mesh(1.0, 1.0, 10, 101)
    assert m.da / m.dx**2 == pytest.approx(1000.0)
    rng = np.random.default_rng(23)
    v = rng.uniform(0, 1, size=(1, m.na, m.nx))
    bound = np.max(np.abs(v))
    w = np.zeros_like(v)
    ctx = _ctx(m, 0.0, sigma=1.0)
    for _ in range(10):
        v, w = step(v, step_rhs(v, w, ctx, m), ctx, m)
        assert np.max(np.abs(v)) <= bound * (1 + 1e-12)


def test_mass_conservation_every_tau():
    # f = 0, L = 0, zero initial slope: weighted space sum is invariant
    m = _mesh(na=8, nx=13)
    rng = np.random.default_rng(29)
    wx = space_weights(m)
    for tau in (0.0, 0.05, 3.0):
        v = rng.normal(size=(1, m.na, m.nx))
        mass0 = v[0] @ wx  # one mass per characteristic
        w = np.zeros_like(v)
        ctx = _ctx(m, tau, sigma=0.7)
        for _ in range(m.na):
            v, w = step(v, step_rhs(v, w, ctx, m), ctx, m)
            assert v[0] @ wx == pytest.approx(mass0, rel=1e-12)


def test_singular_system_detected():
    m = _mesh(na=4, nx=5)
    with pytest.raises(SingularSystem, match="age index 1"):
        _ctx(m, 0.0, sigma=0.0, L=-1.0 / m.da)


def test_singular_system_named_at_a_later_age():
    # coefficients vary with age; only target age index 3 has
    # tau = sigma = 0 with L = -1/da, so its matrix da (1 + da L) I is zero
    m = _mesh(na=4, nx=5)
    A, X = m.na + 1, m.nx
    L = np.zeros((A, X, 1, 1))
    L[:, :, 0, 0] = np.linspace(0.5, 1.5, A)[:, None]
    L[3] = -1.0 / m.da
    sigma = np.full((A, 1), 0.2)
    sigma[3] = 0.0
    lin = LinearPart(L=L, L_a=np.zeros_like(L), sigma=sigma)
    with pytest.raises(SingularSystem, match="age index 3"):
        step_context(lin, 0.0, m)


def test_singular_system_named_on_the_dense_path():
    # tables that vary in space keep the dense per-age inverse; only
    # target age index 2 has tau = sigma = 0 with L = -1/da
    m = _mesh(na=4, nx=5)
    A, X = m.na + 1, m.nx
    L = np.zeros((A, X, 1, 1))
    L[:, :, 0, 0] = np.linspace(0.5, 1.5, X)
    L[2] = -1.0 / m.da
    sigma = np.full((A, 1), 0.2)
    sigma[2] = 0.0
    lin = LinearPart(L=L, L_a=np.zeros_like(L), sigma=sigma)
    with pytest.raises(SingularSystem, match="age index 2"):
        step_context(lin, 0.0, m)
    L[2] = 1.0
    assert step_context(lin, 0.0, m).inv is not None


def test_near_singular_system_detected():
    # da = 1/4 and L = -(1 - 2^-52)/da are exact, so 1 + da L = 2^-52 is the
    # smallest nonzero value the matrix can hold: invertible, but not usably
    m = _mesh(na=4, nx=5)
    L = -(1.0 - 2.0**-52) / m.da
    assert m.da + m.da * m.da * L == 2.0**-54
    with pytest.raises(SingularSystem, match="age index 1"):
        _ctx(m, 0.0, sigma=0.0, L=L)


def test_non_finite_detected():
    m = _mesh(na=4, nx=5)
    v = np.ones((1, m.na, m.nx))
    v[0, 0, 0] = np.inf
    with pytest.raises(NonFinite):
        ctx = _ctx(m, 0.1, sigma=0.1)
        step(v, step_rhs(v, np.zeros_like(v), ctx, m), ctx, m)


def _lap_matrix(m):
    # mirror-point Neumann stencil, written out directly
    X = m.nx
    lap = -2.0 * np.eye(X) + np.eye(X, k=1) + np.eye(X, k=-1)
    lap[0, 1] = lap[-1, -2] = 2.0
    return lap / m.dx**2


def test_step_matches_per_age_dense_solve():
    # coefficients that vary with age, space and compartment pair: each
    # target age must use its own tables (compartment-major ordering here)
    m = _mesh(na=5, nx=6)
    n, A, X, da, tau = 2, m.na + 1, m.nx, m.da, 0.3
    rng = np.random.default_rng(41)
    lin = LinearPart(
        L=rng.uniform(0.0, 1.0, size=(A, X, n, n)),
        L_a=rng.uniform(-1.0, 1.0, size=(A, X, n, n)),
        sigma=rng.uniform(0.05, 0.5, size=(A, n)),
    )
    v = rng.normal(size=(n, m.na, X))
    w = rng.normal(size=(n, m.na, X))
    f = rng.normal(size=(n, m.na, X))
    ctx = step_context(lin, tau, m)
    v_new, w_new = step(v, step_rhs(v, w, ctx, m), ctx, m, f=f)

    lap = _lap_matrix(m)
    for a in range(1, A):
        lc = lin.L[a] + tau * lin.L_a[a]  # (X, n, n)
        mat = np.zeros((n * X, n * X))
        rhs = np.zeros(n * X)
        for h in range(n):
            rows = slice(h * X, (h + 1) * X)
            for i in range(n):
                cols = slice(i * X, (i + 1) * X)
                coef = da * tau * lin.L[a, :, h, i] + da * da * lc[:, h, i]
                mat[rows, cols] += np.diag(coef + (tau + da) * (h == i))
            mat[rows, rows] -= da * da * lin.sigma[a, h] * lap
            mixed = sum(lc[:, h, i] * v[i, a - 1] for i in range(n))
            rhs[rows] = tau * w[h, a - 1] + da * (
                lin.sigma[a, h] * lap @ v[h, a - 1] - mixed + f[h, a - 1]
            )
        want_w = np.linalg.solve(mat, rhs).reshape(n, X)
        assert np.allclose(w_new[:, a - 1], want_w, rtol=1e-12, atol=1e-12)
        assert np.allclose(v_new[:, a - 1], v[:, a - 1] + da * want_w, rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize("tau", [0.0, 0.3, 7.0])
def test_modal_step_matches_per_age_dense_solve(tau):
    # tables constant in space but varying with age, two coupled
    # compartments: the cosine-mode solve equals the dense one
    m = _mesh(na=5, nx=6)
    n, A, X, da = 2, m.na + 1, m.nx, m.da
    rng = np.random.default_rng(47)
    L = rng.uniform(0.0, 1.0, size=(A, 1, n, n))
    L_a = rng.uniform(-1.0, 1.0, size=(A, 1, n, n))
    lin = LinearPart(
        L=np.repeat(L, X, axis=1),
        L_a=np.repeat(L_a, X, axis=1),
        sigma=rng.uniform(0.05, 0.5, size=(A, n)),
    )
    v, w, f = rng.normal(size=(3, n, m.na, X))
    ctx = step_context(lin, tau, m)
    assert ctx.modes is not None and ctx.inv is None
    v_new, w_new = step(v, step_rhs(v, w, ctx, m), ctx, m, f=f)

    lap, eye = _lap_matrix(m), np.eye(X)
    for a in range(1, A):
        lc = L[a, 0] + tau * L_a[a, 0]
        blk = tau * np.eye(n) + da * (np.eye(n) + tau * L[a, 0]) + da * da * lc
        mat = np.kron(blk, eye) - da * da * np.kron(np.diag(lin.sigma[a]), lap)
        rhs = tau * w[:, a - 1] + da * (
            lin.sigma[a][:, None] * (v[:, a - 1] @ lap.T) - lc @ v[:, a - 1] + f[:, a - 1]
        )
        want_w = np.linalg.solve(mat, rhs.ravel()).reshape(n, X)
        assert np.allclose(w_new[:, a - 1], want_w, rtol=1e-12, atol=1e-12)
        assert np.allclose(v_new[:, a - 1], v[:, a - 1] + da * want_w, rtol=1e-12, atol=1e-12)


def test_svir_step_context_is_small_at_na80():
    # x-constant tables hold n x n mode blocks, not an (na, n nx, n nx) stack
    m = build_mesh(1.0, 1.0, 80, 81)
    ctx = step_context(build_svir(SvirParams(tau=1e-2), m).linear, 1e-2, m)
    assert ctx.inv is None
    arrays = [ctx.lcomb, ctx.sigma, *dataclasses.astuple(ctx.modes)]
    assert sum(a.nbytes for a in arrays) < 2e6


def test_svir_step_context_inverts_its_mode_blocks_in_one_call(monkeypatch):
    calls = []
    inv = np.linalg.inv
    monkeypatch.setattr(np.linalg, "inv", lambda a: calls.append(a.shape) or inv(a))
    m = build_mesh(1.0, 1.0, 80, 81)
    step_context(build_svir(SvirParams(tau=1e-2), m).linear, 1e-2, m)
    assert calls == [(80 * 81, 4, 4)]


def test_dense_step_context_peaks_below_one_and_a_half_stacks():
    # x-varying tables at na = 40, nx = 41, n = 4: the (na, n nx, n nx)
    # stack is assembled and inverted in place, a chunk at a time
    m = build_mesh(1.0, 1.0, 40, 41)
    A, X, n = m.na + 1, m.nx, 4
    rng = np.random.default_rng(0)
    tables = 0.1 * rng.random((2, A, X, n, n))
    lin = LinearPart(L=tables[0], L_a=tables[1], sigma=0.1 + rng.random((A, n)))
    tracemalloc.start()
    try:
        ctx = step_context(lin, 0.3, m)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert ctx.modes is None
    assert peak < 1.5 * ctx.inv.nbytes


@pytest.mark.parametrize("forced", [False, True])
@pytest.mark.parametrize("tau", [0.0, 0.3, 7.0])
def test_split_step_equals_the_one_shot_formula_to_the_bit(tau, forced):
    # the right-hand side formed once per time step plus da f, then one
    # product: the arithmetic of a step that forms it all in one go
    m = _mesh(na=5, nx=6)
    n, A, X, da = 2, m.na + 1, m.nx, m.da
    rng = np.random.default_rng(43)
    lin = LinearPart(
        L=rng.uniform(0.0, 1.0, size=(A, X, n, n)),
        L_a=rng.uniform(-1.0, 1.0, size=(A, X, n, n)),
        sigma=rng.uniform(0.05, 0.5, size=(A, n)),
    )
    v, w = rng.normal(size=(2, n, m.na, X))
    f = rng.normal(size=(n, m.na, X)) if forced else None
    ctx = step_context(lin, tau, m)
    v_new, w_new = step(v, step_rhs(v, w, ctx, m), ctx, m, f=f)

    lcomb = lin.L[1:] + tau * lin.L_a[1:]
    rhs = tau * w + da * (
        lin.sigma[1:].T[:, :, None] * laplacian_neumann(v, m)
        - np.einsum("axhi,iax->hax", lcomb, v)
    )
    if forced:
        rhs = rhs + da * f
    b = rhs.transpose(1, 2, 0).reshape(m.na, X * n, 1)
    want_w = (ctx.inv @ b).reshape(m.na, X, n).transpose(2, 0, 1)
    assert np.array_equal(w_new, want_w)
    assert np.array_equal(v_new, v + da * want_w)
