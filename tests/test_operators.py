import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from epiwave.errors import MissingSlope, ShapeMismatch
from epiwave.fields import StateField, norm_H
from epiwave.mesh import age_weights, build_mesh, space_weights
from epiwave.operators import (
    KernelSet,
    KernelTerm,
    apply_matrix_field,
    attach_tilde,
    delta_lambda_apply,
    g_op,
    lambda_op,
    lambda_two,
    laplacian_neumann,
    neumann_matrix,
)


def _mesh(na=4, nx=6, t_max=1.0):
    return build_mesh(t_max, 1.0, na, nx)


def _random_kernel(m, n, rng, smooth=False):
    A, X = m.na + 1, m.nx
    terms = []
    for h in range(n):
        for i in range(n):
            for j in range(n):
                if smooth:
                    a = m.ages()[:, None, None, None]
                    b = m.ages()[None, None, :, None]
                    x = m.xs()[None, :, None, None]
                    z = m.xs()[None, None, None, :]
                    c = rng.normal(size=4)
                    tab = (
                        np.sin(c[0] + a)
                        * np.cos(c[1] + 2 * b)
                        * (1 + c[2] * x)
                        * (1 + c[3] * z)
                    )
                    tab = np.broadcast_to(tab, (A, X, A, X)).copy()
                else:
                    tab = rng.normal(size=(A, X, A, X))
                terms.append(KernelTerm(h, i, j, 1.0, tab))
    return KernelSet(n=n, terms=terms)


# --------------------------------------------------------------------------
# Neumann Laplacian


def test_laplacian_constant_is_zero():
    m = _mesh(nx=9)
    out = laplacian_neumann(np.full((2, m.nx), 3.7), m)
    assert np.allclose(out, 0.0)


def test_laplacian_eigenmode_second_order():
    errs = []
    for nx in (21, 41):
        m = _mesh(nx=nx)
        u = np.cos(np.pi * m.xs())[None, :]
        out = laplacian_neumann(u, m)
        errs.append(np.max(np.abs(out + np.pi**2 * u)))
    assert errs[0] < 0.1
    assert errs[0] / errs[1] > 3.5


def test_laplacian_quadratic_interior_exact():
    m = _mesh(nx=11)
    u = m.xs()[None, :] ** 2
    out = laplacian_neumann(u, m)
    assert np.allclose(out[0, 1:-1], 2.0, atol=1e-9)


def test_laplacian_shape_errors():
    m = _mesh(nx=6)
    with pytest.raises(ShapeMismatch):
        laplacian_neumann(np.zeros((2, 5)), m)


def test_neumann_summation_by_parts():
    # weighted matrix is symmetric and annihilates constants both ways
    m = _mesh(nx=13)
    lap = neumann_matrix(m)
    w = space_weights(m)
    wa = w[:, None] * lap
    assert np.allclose(wa, wa.T, atol=1e-12)
    assert np.allclose(lap @ np.ones(m.nx), 0.0, atol=1e-10)
    rng = np.random.default_rng(5)
    u = rng.normal(size=m.nx)
    assert abs(np.dot(w, lap @ u)) < 1e-10 * np.max(np.abs(u)) / m.dx**2


def test_laplacian_matrix_matches_stencil():
    m = _mesh(nx=7)
    rng = np.random.default_rng(1)
    u = rng.normal(size=(3, m.nx))
    assert np.allclose(laplacian_neumann(u, m), u @ neumann_matrix(m).T)


# --------------------------------------------------------------------------
# Lambda


def test_lambda_zero_field():
    m = _mesh()
    k = _random_kernel(m, 2, np.random.default_rng(0))
    out = lambda_op(k, np.zeros((2, m.na + 1, m.nx)), m)
    assert np.allclose(out, 0.0)


def test_lambda_constants_on_unit_domains():
    m = _mesh()
    A, X = m.na + 1, m.nx
    k = KernelSet(n=1, terms=[KernelTerm(0, 0, 0, 1.0, np.ones((A, X, A, X)))])
    out = lambda_op(k, np.full((1, A, X), 0.7), m)
    assert np.allclose(out, 0.7)


def test_lambda_tent_kernel_closed_form():
    # int (0.1 - |0.5 - xi|)^+ dxi = 0.01; kernel kinks on grid nodes so
    # the trapezoid value is exact
    for nx in (11, 21):
        m = _mesh(nx=nx)
        A, X = m.na + 1, m.nx
        xs = m.xs()
        tent = np.maximum(0.1 - np.abs(xs[:, None] - xs[None, :]), 0.0)
        base = np.broadcast_to(tent[None, :, None, :], (A, X, A, X))
        k = KernelSet(n=1, terms=[KernelTerm(0, 0, 0, 1.0, base)])
        out = lambda_op(k, np.ones((1, A, X)), m)
        mid = np.argmin(np.abs(xs - 0.5))
        assert np.isclose(out[0, 0, 0, mid], 0.01, atol=1e-14)


@settings(max_examples=20, deadline=None)
@given(
    a=st.floats(min_value=-3, max_value=3, allow_nan=False),
    b=st.floats(min_value=-3, max_value=3, allow_nan=False),
)
def test_lambda_bilinearity(a, b):
    m = _mesh(na=3, nx=4)
    rng = np.random.default_rng(9)
    k = _random_kernel(m, 2, rng)
    w1 = rng.normal(size=(2, m.na + 1, m.nx))
    w2 = rng.normal(size=(2, m.na + 1, m.nx))
    lhs = lambda_op(k, a * w1 + b * w2, m)
    rhs = a * lambda_op(k, w1, m) + b * lambda_op(k, w2, m)
    assert np.allclose(lhs, rhs, rtol=1e-10, atol=1e-10)


def kernel_bound(k, m):
    """Discrete constant c(k) with |Lambda(v1) v2|_H <= c(k)|v1|_H |v2|_H.

    Cauchy-Schwarz over the joint (j, alpha, xi) index gives
    c(k)^2 = sum_h max_{a,x} sum_{i,j} |k^{hij}(a, x, .)|^2_quad.
    """
    dense = k.dense(m)
    per_hax = np.einsum(
        "hijaxbz,b,z->hax", dense * dense, age_weights(m), space_weights(m)
    )
    return float(np.sqrt(np.sum(np.max(per_hax, axis=(1, 2)))))


def test_lambda_norm_bound():
    m = _mesh(na=5, nx=7)
    rng = np.random.default_rng(12)
    k = _random_kernel(m, 2, rng)
    c = kernel_bound(k, m)
    for _ in range(10):
        v1 = rng.normal(size=(2, m.na + 1, m.nx))
        v2 = rng.normal(size=(2, m.na + 1, m.nx))
        lhs = norm_H(apply_matrix_field(lambda_op(k, v1, m), v2), m)
        assert lhs <= c * norm_H(v1, m) * norm_H(v2, m) * (1 + 1e-12)


# --------------------------------------------------------------------------
# delta Lambda and tilde kernels


def _dense_beta(m, n, rng):
    return rng.normal(size=(m.na + 1, m.nx, n, n))


def test_attach_tilde_matches_definition():
    # oracle: k_a + k_alpha analytically plus the beta0 outer part;
    # the finite-difference derivative converges at second order
    def deriv_error(na):
        m = build_mesh(1.0, 1.0, na, 5)
        A, X = m.na + 1, m.nx
        a = m.ages()[:, None, None, None]
        alf = m.ages()[None, None, :, None]
        x = m.xs()[None, :, None, None]
        z = m.xs()[None, None, None, :]
        tab = np.broadcast_to(
            np.sin(a) * np.cos(2 * alf) * (1 + 0.5 * x * z), (A, X, A, X)
        ).copy()
        k = KernelSet(n=1, terms=[KernelTerm(0, 0, 0, 1.0, tab)])
        beta0 = np.zeros((A, X, 1, 1))
        kt = attach_tilde(k, beta0, m)
        dense = kt.dense(m, tilde=True)[0, 0, 0]
        analytic = (np.cos(a) * np.cos(2 * alf) - 2 * np.sin(a) * np.sin(2 * alf)) * (
            1 + 0.5 * x * z
        )
        return np.max(np.abs(dense - analytic))

    e1, e2 = deriv_error(8), deriv_error(16)
    assert e1 < 0.1
    assert e1 / e2 > 3.0

    # the beta0 renewal part is exact (pure outer product)
    m = build_mesh(1.0, 1.0, 8, 5)
    A, X = m.na + 1, m.nx
    rng = np.random.default_rng(4)
    beta0 = _dense_beta(m, 1, rng)
    flat = np.broadcast_to(rng.normal(size=(X, X))[None, :, None, :], (A, X, A, X))
    k_flat = KernelSet(n=1, terms=[KernelTerm(0, 0, 0, 1.0, flat)])
    kt_flat = attach_tilde(k_flat, beta0, m)
    dense_flat = kt_flat.dense(m, tilde=True)[0, 0, 0]
    want = np.einsum("axz,bz->axbz", flat[:, :, 0, :], beta0[:, :, 0, 0])
    assert np.allclose(dense_flat, want)


def test_delta_lambda_zero_fields():
    m = _mesh()
    k = _random_kernel(m, 2, np.random.default_rng(0))
    k = attach_tilde(k, np.zeros((m.na + 1, m.nx, 2, 2)), m)
    z = StateField(np.zeros((2, m.na + 1, m.nx)), np.zeros((2, m.na + 1, m.nx)))
    assert np.allclose(delta_lambda_apply(k, z, None, z, m), 0.0)


def test_delta_lambda_requires_slopes():
    m = _mesh()
    k = _random_kernel(m, 1, np.random.default_rng(0))
    v = StateField(np.ones((1, m.na + 1, m.nx)))
    with pytest.raises(MissingSlope):
        delta_lambda_apply(k, v, None, v, m)


def test_delta_lambda_product_rule_reduction():
    # age-flat kernel + zero beta0 leaves only Lambda(v) dw + Lambda(dv) w
    m = _mesh(nx=5)
    A, X = m.na + 1, m.nx
    rng = np.random.default_rng(8)
    base = np.broadcast_to(rng.normal(size=(X, X))[None, :, None, :], (A, X, A, X))
    k = KernelSet(n=1, terms=[KernelTerm(0, 0, 0, 1.0, base)])
    k = attach_tilde(k, np.zeros((A, X, 1, 1)), m)
    assert not k.tilde_terms
    v = StateField(rng.normal(size=(1, A, X)), rng.normal(size=(1, A, X)))
    w = StateField(rng.normal(size=(1, A, X)), rng.normal(size=(1, A, X)))
    got = delta_lambda_apply(k, v, None, w, m)
    want = apply_matrix_field(lambda_op(k, v.values, m), w.slope)
    want += apply_matrix_field(lambda_op(k, v.slope, m), w.values)
    assert np.allclose(got, want)


def test_delta_lambda_against_bruteforce():
    # oracle: direct quadrature loops from the four-term definition
    m = build_mesh(1.0, 1.0, 3, 4)
    n = 2
    A, X = m.na + 1, m.nx
    rng = np.random.default_rng(21)
    k = _random_kernel(m, n, rng)
    beta0 = _dense_beta(m, n, rng)
    k = attach_tilde(k, beta0, m)
    v = StateField(rng.normal(size=(n, A, X)), rng.normal(size=(n, A, X)))
    w = StateField(rng.normal(size=(n, A, X)), rng.normal(size=(n, A, X)))
    g0 = rng.normal(size=(n, X))

    wa, wx = age_weights(m), space_weights(m)
    kd = k.dense(m)
    ktd = k.dense(m, tilde=True)

    def lam_of(dense, field):
        out = np.zeros((n, n, A, X))
        for h in range(n):
            for i in range(n):
                for j in range(n):
                    out[h, i] += np.einsum(
                        "axbz,b,z,bz->ax", dense[h, i, j], wa, wx, field[j]
                    )
        return out

    lam2 = np.zeros((n, n, A, X))
    for h in range(n):
        for i in range(n):
            for j in range(n):
                lam2[h, i] += np.einsum(
                    "axz,z,z->ax", kd[h, i, j][:, :, 0, :], wx, g0[j]
                )

    want = np.einsum("hiax,iax->hax", lam_of(kd, v.values), w.slope)
    want += np.einsum("hiax,iax->hax", lam_of(kd, v.slope), w.values)
    want += np.einsum("hiax,iax->hax", lam_of(ktd, v.values), w.values)
    want += np.einsum("hiax,iax->hax", lam2, w.values)
    got = delta_lambda_apply(k, v, g0, w, m)
    assert np.allclose(got, want, rtol=1e-10, atol=1e-10)


def test_lambda_two_zero_source():
    m = _mesh()
    k = _random_kernel(m, 2, np.random.default_rng(0))
    assert np.allclose(lambda_two(k, None, m), 0.0)


# --------------------------------------------------------------------------
# G operator


def test_g_op_zero_v():
    m = _mesh()
    n = 2
    rng = np.random.default_rng(6)
    k = _random_kernel(m, n, rng)
    beta0 = _dense_beta(m, n, rng)
    beta1 = _dense_beta(m, n, rng)
    w = rng.normal(size=(n, m.na + 1, m.nx))
    out = g_op(k, beta0, beta1, np.zeros_like(w), w, None, m)
    assert np.allclose(out, 0.0)


def test_g_op_scalar_cancellation():
    # n=1, beta1 = beta0, age-independent kernel, g0=0: integrand cancels
    m = _mesh(nx=5)
    A, X = m.na + 1, m.nx
    rng = np.random.default_rng(13)
    base = np.broadcast_to(rng.normal(size=(X, X))[None, :, None, :], (A, X, A, X))
    k = KernelSet(n=1, terms=[KernelTerm(0, 0, 0, 1.0, base)])
    beta = np.abs(_dense_beta(m, 1, rng))
    v = rng.normal(size=(1, A, X))
    w = rng.normal(size=(1, A, X))
    out = g_op(k, beta, beta, v, w, None, m)
    assert np.allclose(out, 0.0, atol=1e-12)


def test_g_op_against_bruteforce():
    m = build_mesh(1.0, 1.0, 3, 4)
    n = 2
    A, X = m.na + 1, m.nx
    rng = np.random.default_rng(31)
    k = _random_kernel(m, n, rng)
    beta0 = _dense_beta(m, n, rng)
    beta1 = _dense_beta(m, n, rng)
    v = rng.normal(size=(n, A, X))
    w = rng.normal(size=(n, A, X))
    g0 = rng.normal(size=(n, X))
    wa, wx = age_weights(m), space_weights(m)
    kd = k.dense(m)

    lam = np.zeros((n, n, A, X))
    for h in range(n):
        for i in range(n):
            for j in range(n):
                lam[h, i] += np.einsum("axbz,b,z,bz->ax", kd[h, i, j], wa, wx, v[j])
    want = np.zeros((n, X))
    for xk in range(X):
        acc = np.zeros(n)
        for bk in range(A):
            mat = beta1[bk, xk] @ lam[:, :, bk, xk] - lam[:, :, 0, xk] @ beta0[bk, xk]
            acc += wa[bk] * (mat @ w[:, bk, xk])
        want[:, xk] = acc - lam[:, :, 0, xk] @ g0[:, xk]
    got = g_op(k, beta0, beta1, v, w, g0, m)
    assert np.allclose(got, want, rtol=1e-10, atol=1e-10)

