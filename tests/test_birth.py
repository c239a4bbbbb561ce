import dataclasses

import numpy as np
import pytest

from epiwave import SolverConfig, SvirParams, build_svir, run_parabolic, run_relaxed
from epiwave.birth import (
    BirthLaws,
    birth_context,
    make_compatible,
    solve_birth_step,
    zero_laws,
)
from epiwave.errors import SingularBirthSystem, SingularSigma
from epiwave.fields import StateField
from epiwave.mesh import build_mesh
from epiwave.operators import KernelSet, LinearPart
from epiwave.reference import renewal, renewal_reference, total_births

from conftest import g_of


def _mesh(na=10, nx=5):
    return build_mesh(1.0, 1.0, na, nx)


def _linear(m, n, rng=None, sigma_const=None):
    A, X = m.na + 1, m.nx
    if rng is None:
        L = np.zeros((A, X, n, n))
    else:
        L = rng.normal(size=(A, X, n, n))
    sig = (
        np.full((A, n), sigma_const)
        if sigma_const is not None
        else 0.1 * np.exp(-0.2 * m.ages())[:, None] * np.ones((1, n))
    )
    return LinearPart(L=L, L_a=np.zeros_like(L), sigma=sig)


# --------------------------------------------------------------------------
# make_compatible


def test_make_compatible_q2_zero():
    m = _mesh()
    rng = np.random.default_rng(0)
    beta = rng.normal(size=(m.na + 1, m.nx, 2, 2))
    laws = make_compatible(beta, _linear(m, 2, rng), 1.0, 0.0, m)
    assert np.allclose(laws.beta0, beta)
    assert np.allclose(laws.beta1, 0.0)
    assert np.allclose(laws.betaL, 0.0)
    assert np.allclose(laws.beta_grad, 0.0)


def test_make_compatible_constant_sigma_scalar():
    # x-independent beta, constant sigma, q2=1: beta1 = beta, no gradient,
    # and for n=1 the L commutator cancels
    m = _mesh()
    prof = 1.0 + np.sin(m.ages())
    beta = np.broadcast_to(prof[:, None, None, None], (m.na + 1, m.nx, 1, 1)).copy()
    lin = _linear(m, 1, sigma_const=0.3)
    lin.L[:] = 0.25 * np.eye(1)
    laws = make_compatible(beta, lin, 1.0, 1.0, m)
    assert np.allclose(laws.beta1, beta)
    assert np.allclose(laws.beta_grad, 0.0)
    assert np.allclose(laws.betaL, 0.0, atol=1e-13)


def test_make_compatible_scaling_formula():
    # beta1 entries follow sigma(0)_h * beta / sigma(alpha)_j for q2 = 1
    m = _mesh()
    rng = np.random.default_rng(5)
    beta = np.broadcast_to(
        rng.normal(size=(m.na + 1, 1, 2, 2)), (m.na + 1, m.nx, 2, 2)
    ).copy()
    lin = _linear(m, 2)
    laws = make_compatible(beta, lin, 0.5, 1.0, m)
    a_idx, h, j = 4, 1, 0
    want = lin.sigma[0, h] * beta[a_idx, 0, h, j] / lin.sigma[a_idx, j]
    assert laws.beta1[a_idx, 2, h, j] == pytest.approx(want)
    assert np.allclose(laws.beta0, 0.5 * beta)


def test_make_compatible_singular_sigma():
    m = _mesh()
    lin = _linear(m, 1, sigma_const=0.0)
    with pytest.raises(SingularSigma):
        make_compatible(np.ones((m.na + 1, m.nx, 1, 1)), lin, 1.0, 1.0, m)


# --------------------------------------------------------------------------
# birth_context and solve_birth_step


def _births(laws, sl, g0, g1, G, m, with_slope=True):
    return solve_birth_step(birth_context(laws, m, with_slope), sl, g0, g1, G, m)


def _slice(m, n, rng=None, value=None):
    shape = (n, m.na + 1, m.nx)
    if rng is None:
        vals = np.full(shape, value if value is not None else 0.0)
        return StateField(vals, np.zeros(shape))
    return StateField(rng.normal(size=shape), rng.normal(size=shape))


def test_explicit_births():
    m = _mesh()
    laws = zero_laws(2, m)
    rng = np.random.default_rng(1)
    g = rng.normal(size=(2, m.nx))
    h = rng.normal(size=(2, m.nx))
    B0, B1 = _births(laws, _slice(m, 2, rng), g, h, None, m)
    assert np.allclose(B0, g)
    assert np.allclose(B1, h)


def test_constant_rate_closed_form():
    # 1x1 system oracle: (1 - b*da/2) B0 = b*(a_max - da/2) for y = 1
    b = 1.3
    vals = []
    for na in (10, 20, 40):
        m = build_mesh(1.0, 1.0, na, 3)
        laws = zero_laws(1, m)
        laws.beta0[:] = b
        B0, _ = _births(laws, _slice(m, 1, value=1.0), None, None, None, m)
        w0 = 0.5 * m.da
        want = b * (m.a_max - w0) / (1.0 - b * w0)
        assert np.allclose(B0, want, rtol=1e-12)
        vals.append(B0[0, 0])
    # approaches b*a_max as da -> 0
    assert abs(vals[-1] - b) < abs(vals[0] - b)
    assert abs(vals[-1] - b) < 0.05 * b


def test_renewal_against_fine_grid_oracle():
    m = build_mesh(1.0, 1.0, 20, 3)
    spec, total_ref = renewal(m, n_fine=2560)
    run = run_parabolic(spec, SolverConfig(), m)
    assert abs(total_births(run) - total_ref) / total_ref < 0.05


def test_renewal_reference_is_second_order_against_closed_form():
    # constant beta = b and y0 = c with a_max = t_end = 1: for t <= a_max
    # B = b^2 c e^((b-mu)t) [a_max (1 - e^-bt)/b - (1 - e^-bt (1 + bt))/b^2]
    #   + b c e^(-mu t) (a_max - t)
    b, mu, c, a_max = 1.2, 0.3, 1.0, 1.0

    def err(n_fine):
        t, B, _ = renewal_reference(
            lambda a: b + 0.0 * a, mu, lambda a: c + 0.0 * a, a_max, 1.0, n_fine
        )
        eb = np.exp(-b * t)
        exact = b * b * c * np.exp((b - mu) * t) * (
            a_max * (1.0 - eb) / b - (1.0 - eb * (1.0 + b * t)) / b**2
        ) + b * c * np.exp(-mu * t) * (a_max - t)
        return float(np.max(np.abs(B - exact) / exact))

    e1, e2 = err(640), err(1280)
    assert e2 < 1e-6
    assert e1 / e2 >= 3.5


def _trapezoid_renewal(beta_fn, mu, y0_fn, a_max, t_end, n_fine):
    # the trapezoid march written out term by term, O(n^2) Python
    h = a_max / n_fine
    nt = int(round(t_end / h))
    ages = np.arange(n_fine + 1) * h

    def trap(lo, hi):  # weights of nodes lo..hi for the integral over [lo h, hi h]
        w = np.full(hi - lo + 1, h)
        w[0] = w[-1] = 0.5 * h
        return w if hi > lo else 0.0 * w

    B = np.zeros(nt + 1)
    for k in range(nt + 1):
        t = k * h
        wh = trap(0, min(k, n_fine))
        acc = sum(
            wh[i] * beta_fn(ages[i]) * np.exp(-mu * ages[i]) * B[k - i]
            for i in range(1, len(wh))
        )
        if k < n_fine:
            wc = trap(k, n_fine)
            acc += np.exp(-mu * t) * sum(
                wc[i - k] * beta_fn(ages[i]) * y0_fn(ages[i] - t) for i in range(k, n_fine + 1)
            )
        B[k] = acc / (1.0 - wh[0] * beta_fn(0.0))
    return B, float(np.dot(trap(0, nt), B))


@pytest.mark.parametrize("mu", [0.0, 0.3])
@pytest.mark.parametrize(
    "t_end, n_fine", [(0.5, 48), (1.0, 40), (1.75, 64)]  # t_end <, =, > a_max
)
def test_renewal_reference_equals_the_plain_trapezoid_march(mu, t_end, n_fine):
    beta_fn = lambda a: 1.0 + a
    y0_fn = lambda a: 1.0 + 0.5 * np.cos(np.pi * a)
    times, B, total = renewal_reference(beta_fn, mu, y0_fn, 1.0, t_end, n_fine)
    want, want_total = _trapezoid_renewal(beta_fn, mu, y0_fn, 1.0, t_end, n_fine)
    assert len(B) == round(t_end * n_fine) + 1
    assert np.allclose(times, np.arange(len(B)) / n_fine, rtol=0, atol=1e-15)
    assert np.max(np.abs(B - want)) <= 1e-13 * np.max(np.abs(want))
    assert abs(total - want_total) <= 1e-13 * abs(want_total)


def test_birth_linearity_without_G():
    m = _mesh()
    rng = np.random.default_rng(7)
    laws = BirthLaws(
        beta0=rng.normal(size=(m.na + 1, m.nx, 2, 2)) * 0.3,
        beta1=rng.normal(size=(m.na + 1, m.nx, 2, 2)) * 0.3,
        betaL=rng.normal(size=(m.na + 1, m.nx, 2, 2)) * 0.3,
        beta_grad=rng.normal(size=(m.na + 1, m.nx, 2, 2)) * 0.3,
    )
    s1 = _slice(m, 2, rng)
    s2 = _slice(m, 2, rng)
    g0a, g1a = rng.normal(size=(2, m.nx)), rng.normal(size=(2, m.nx))
    g0b, g1b = rng.normal(size=(2, m.nx)), rng.normal(size=(2, m.nx))
    both = StateField(s1.values + s2.values, s1.slope + s2.slope)
    ctx = birth_context(laws, m)
    sum0, sum1 = solve_birth_step(ctx, both, g0a + g0b, g1a + g1b, None, m)
    a0, a1 = solve_birth_step(ctx, s1, g0a, g1a, None, m)
    b0, b1 = solve_birth_step(ctx, s2, g0b, g1b, None, m)
    assert np.allclose(sum0, a0 + b0, rtol=1e-10, atol=1e-12)
    assert np.allclose(sum1, a1 + b1, rtol=1e-10, atol=1e-12)


def _per_node_births(laws, sl, g0, g1, G, m):
    # the trapezoid sums over ages and the two per-node solves written
    # out one node at a time
    n, A, X = sl.values.shape
    b0, b1, bL, bg = laws.beta0, laws.beta1, laws.betaL, laws.beta_grad
    wa = np.full(A, m.da)
    wa[0] = wa[-1] = 0.5 * m.da
    y, dy = sl.values, sl.slope
    yx = np.gradient(y, m.dx, axis=-1, edge_order=2)
    B0 = np.empty((n, X))
    for x in range(X):
        k0 = g0[:, x] + sum(wa[a] * b0[a, x] @ y[:, a, x] for a in range(1, A))
        B0[:, x] = np.linalg.solve(np.eye(n) - wa[0] * b0[0, x], k0)
    B0x = np.gradient(B0, m.dx, axis=-1, edge_order=2)
    B1 = np.empty((n, X))
    for x in range(X):
        k1 = g1[:, x] + G[:, x] + wa[0] * (bL[0, x] @ B0[:, x] + bg[0, x] @ B0x[:, x])
        for a in range(1, A):
            k1 += wa[a] * (
                b1[a, x] @ dy[:, a, x] + bL[a, x] @ y[:, a, x] + bg[a, x] @ yx[:, a, x]
            )
        B1[:, x] = np.linalg.solve(np.eye(n) - wa[0] * b1[0, x], k1)
    return B0, B1


def _close(got, want):
    return np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


def test_birth_step_against_per_node_loop():
    # tables varying in age, space and pair: every folded table is kept
    m = _mesh()
    n, A, X = 2, m.na + 1, m.nx
    rng = np.random.default_rng(11)
    b0, b1, bL, bg = 0.3 * rng.normal(size=(4, A, X, n, n))
    laws = BirthLaws(beta0=b0, beta1=b1, betaL=bL, beta_grad=bg)
    sl = _slice(m, n, rng)
    g0, g1, G = (rng.normal(size=(n, X)) for _ in range(3))
    got0, got1 = _births(laws, sl, g0, g1, G, m)
    want0, want1 = _per_node_births(laws, sl, g0, g1, G, m)
    assert _close(got0, want0)
    assert _close(got1, want1)


def test_zero_tables_dropped_from_the_map():
    # SVIR-shaped laws: betaL and beta_grad zero, beta0(0) = beta1(0) = 0
    m = _mesh()
    n, A, X = 2, m.na + 1, m.nx
    rng = np.random.default_rng(13)
    laws = zero_laws(n, m)
    laws.beta0[1:] = 0.3 * rng.normal(size=(A - 1, X, n, n))
    laws.beta1[1:] = 0.3 * rng.normal(size=(A - 1, X, n, n))
    ctx = birth_context(laws, m)
    assert all(t is None for t in (ctx.tL, ctx.tgrad, ctx.fL, ctx.fgrad))
    assert ctx.t0 is not None and ctx.t1 is not None
    sl = _slice(m, n, rng)
    g0, g1, G = (rng.normal(size=(n, X)) for _ in range(3))
    got0, got1 = solve_birth_step(ctx, sl, g0, g1, G, m)
    want0, want1 = _per_node_births(laws, sl, g0, g1, G, m)
    assert _close(got0, want0)
    assert _close(got1, want1)


def test_birth_missing_slope():
    # the zeroth-order law returns no newborn slope; it neither inverts
    # the slope law's singular system nor reads its tables
    m = _mesh()
    laws = zero_laws(1, m)
    laws.beta1[0] = 2.0 / m.da
    laws.betaL[:] = np.nan
    _, B1 = _births(laws, _slice(m, 1, value=1.0), None, None, None, m, with_slope=False)
    assert B1 is None
    with pytest.raises(SingularBirthSystem, match="B1"):
        birth_context(laws, m)


def test_singular_birth_system():
    m = _mesh()
    laws = zero_laws(1, m)
    laws.beta0[0, 3] = 2.0 / m.da  # makes 1 - w0*beta0(0) = 0 at node 3
    # raised when the map is built, before any slice is seen
    with pytest.raises(SingularBirthSystem, match="B0 birth system singular at space node 3"):
        birth_context(laws, m)


def test_parabolic_solve_never_builds_the_slope_law():
    # I - w0 beta1(0) exactly singular at node 2: the zeroth-order law
    # does not read beta1(0); the first-order law names the law and node
    m = build_mesh(0.5, 1.0, 6, 7)
    spec = build_svir(SvirParams(tau=1e-2, total_S0=100.0), m)
    spec.births.beta1[0, 2, 0, 0] = 2.0 / m.da
    run = run_parabolic(spec, SolverConfig(), m)
    assert np.all(np.isfinite(run.values))
    with pytest.raises(SingularBirthSystem, match="B1 birth system singular at space node 2"):
        run_relaxed(spec, SolverConfig(), m)


def test_driver_births_are_causal():
    # forcing applied only after t0 leaves all earlier slices untouched
    beta_fn = lambda a: 0.8 + 0.0 * np.asarray(a)
    y0_fn = lambda a: 1.0 + 0.0 * np.asarray(a)
    m = build_mesh(1.0, 1.0, 8, 3)
    spec0, _ = renewal(m, mu=0.2, beta_fn=beta_fn, y0_fn=y0_fn)
    f = np.zeros((m.nt + 1, 1, m.na + 1, m.nx))
    f[5:] = 3.0
    spec1 = dataclasses.replace(spec0, f=f)
    r0 = run_parabolic(spec0, SolverConfig(), m)
    r1 = run_parabolic(spec1, SolverConfig(), m)
    for k in range(5):
        assert np.array_equal(r0[k].values, r1[k].values)
    assert not np.allclose(r0[6].values, r1[6].values)


# --------------------------------------------------------------------------
# nonlinear birth term: the boundary operator G evaluated at the slice itself


def test_nonlinear_birth_zero_state():
    m = _mesh()
    k = KernelSet()
    laws = zero_laws(1, m)
    sl = _slice(m, 1, value=0.0)
    out = g_of(k, laws.beta0, laws.beta1, sl.values, None, m)
    assert np.allclose(out, 0.0)


def test_nonlinear_birth_scalar_cancellation():
    m = _mesh()
    A, X = m.na + 1, m.nx
    rng = np.random.default_rng(3)
    base = np.broadcast_to(rng.normal(size=(X, X))[None, :, None, :], (A, X, A, X))
    k = KernelSet.from_dense(base[None, None, None])
    laws = zero_laws(1, m)
    laws.beta0[:] = 0.7
    laws.beta1[:] = 0.7
    sl = _slice(m, 1, rng)
    out = g_of(k, laws.beta0, laws.beta1, sl.values, None, m)
    assert np.allclose(out, 0.0, atol=1e-12)


def test_nonlinear_birth_matches_g_quadrature():
    # oracle: direct double quadrature of the boundary operator
    from epiwave.mesh import age_weights, space_weights

    m = build_mesh(1.0, 1.0, 4, 4)
    n = 2
    A, X = m.na + 1, m.nx
    rng = np.random.default_rng(19)
    kd = rng.normal(size=(n, n, n, A, X, A, X))
    k = KernelSet.from_dense(kd)
    laws = zero_laws(n, m)
    laws.beta0 = rng.normal(size=(A, X, n, n))
    laws.beta1 = rng.normal(size=(A, X, n, n))
    sl = _slice(m, n, rng)
    g0 = rng.normal(size=(n, X))
    wa, wx = age_weights(m), space_weights(m)
    lam = np.zeros((n, n, A, X))
    for h in range(n):
        for i in range(n):
            for j in range(n):
                lam[h, i] += np.einsum(
                    "axbz,b,z,bz->ax", kd[h, i, j], wa, wx, sl.values[j]
                )
    want = np.zeros((n, X))
    for xk in range(X):
        acc = np.zeros(n)
        for bk in range(A):
            mat = (
                laws.beta1[bk, xk] @ lam[:, :, bk, xk]
                - lam[:, :, 0, xk] @ laws.beta0[bk, xk]
            )
            acc += wa[bk] * (mat @ sl.values[:, bk, xk])
        want[:, xk] = acc - lam[:, :, 0, xk] @ g0[:, xk]
    got = g_of(k, laws.beta0, laws.beta1, sl.values, g0, m)
    assert np.allclose(got, want, rtol=1e-10, atol=1e-10)
