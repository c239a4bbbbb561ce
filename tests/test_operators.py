import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from epiwave.errors import MissingSlope, ShapeMismatch
from epiwave.fields import StateField, norm_H
from epiwave.mesh import age_weights, build_mesh, space_weights
from epiwave.operators import (
    FactoredTable,
    KernelSet,
    KernelTerm,
    apply_matrix_field,
    attach_tilde,
    delta_lambda_apply,
    g_op,
    lambda_one,
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


def _factored_kernel(m, n, rng):
    """Factored terms whose rows depend on age and whose columns are set,
    plus one age-constant table shared by two couplings."""
    A, X = m.na + 1, m.nx
    terms = [
        KernelTerm(
            h, i, j, 1.0,
            FactoredTable(rng.normal(size=(A, X, X)), rng.normal(size=(A, X)), A),
        )
        for h in range(n)
        for i in range(n)
        for j in range(n)
    ]
    shared = FactoredTable(rng.normal(size=(X, X)), None, A)
    terms += [KernelTerm(0, n - 1, n - 1, 0.5, shared), KernelTerm(n - 1, 0, n - 1, -2.0, shared)]
    return KernelSet(n=n, terms=terms)


KINDS = ("dense", "factored")


def _kernel(kind, m, n, rng):
    return _factored_kernel(m, n, rng) if kind == "factored" else _random_kernel(m, n, rng)


def _table(kind, row, col, m):
    """The kernel row * col as a FactoredTable or as its dense array."""
    table = FactoredTable(row, col, m.na + 1)
    return table if kind == "factored" else np.asarray(table)


def _assert_close(got, want, rtol=1e-13):
    """Agreement relative to the largest entry of the oracle."""
    assert np.max(np.abs(got - want)) <= rtol * np.max(np.abs(want))


def _lambda_dense(dense, field, m):
    """Oracle Lambda: quadrature of a dense (n,n,n,A,X,A,X) kernel."""
    return np.einsum(
        "hijaxbz,b,z,jbz->hiax", dense, age_weights(m), space_weights(m), field
    )


def _lambda_two_dense(dense, g0, m):
    return np.einsum("hijaxz,z,jz->hiax", dense[..., 0, :], space_weights(m), g0)


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
    for kind in KINDS:
        for nx in (11, 21):
            m = _mesh(nx=nx)
            A, X = m.na + 1, m.nx
            xs = m.xs()
            tent = np.maximum(0.1 - np.abs(xs[:, None] - xs[None, :]), 0.0)
            base = _table(kind, tent, None, m)
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


def test_factored_table_materialises_the_product():
    m = build_mesh(1.0, 1.0, 3, 4)
    A, X = m.na + 1, m.nx
    rng = np.random.default_rng(2)
    row, col, flat = rng.normal(size=(A, X, X)), rng.normal(size=(A, X)), rng.normal(size=(X, X))
    want = np.einsum("axz,bz->axbz", row, col)
    assert np.array_equal(np.asarray(FactoredTable(row, col, A)), want)
    want = np.broadcast_to(flat[None, :, None, :], (A, X, A, X))
    assert np.array_equal(np.asarray(FactoredTable(flat, None, A)), want)


@pytest.mark.parametrize("kind", KINDS)
def test_attach_tilde_matches_definition(kind):
    # oracle: k_a + k_alpha analytically plus the beta0 outer part;
    # the finite-difference derivative converges at second order
    def deriv_error(na):
        m = build_mesh(1.0, 1.0, na, 5)
        A, X = m.na + 1, m.nx
        a = m.ages()[:, None, None, None]
        alf = m.ages()[None, None, :, None]
        x = m.xs()[None, :, None, None]
        z = m.xs()[None, None, None, :]
        xz = np.multiply.outer(m.xs(), m.xs())
        row = np.sin(m.ages())[:, None, None] * (1 + 0.5 * xz)  # (A, X, X)
        col = np.broadcast_to(np.cos(2 * m.ages())[:, None], (A, X))
        k = KernelSet(n=1, terms=[KernelTerm(0, 0, 0, 1.0, _table(kind, row, col, m))])
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

    # the derivative terms equal np.gradient of the dense table and the
    # renewal term its outer product with beta0
    m = build_mesh(1.0, 1.0, 8, 5)
    A, X = m.na + 1, m.nx
    rng = np.random.default_rng(4)
    beta0 = _dense_beta(m, 1, rng)
    table = _table(kind, rng.normal(size=(A, X, X)), rng.normal(size=(A, X)), m)
    kt = attach_tilde(KernelSet(n=1, terms=[KernelTerm(0, 0, 0, 1.0, table)]), beta0, m)
    dense = np.asarray(table)
    want = np.gradient(dense, m.da, axis=0, edge_order=2)
    want += np.gradient(dense, m.da, axis=2, edge_order=2)
    want += np.einsum("axz,bz->axbz", dense[:, :, 0, :], beta0[:, :, 0, 0])
    _assert_close(kt.dense(m, tilde=True)[0, 0, 0], want)

    # an age-constant table has no derivative term; the renewal part is exact
    flat = _table(kind, rng.normal(size=(X, X)), None, m)
    kt_flat = attach_tilde(KernelSet(n=1, terms=[KernelTerm(0, 0, 0, 1.0, flat)]), beta0, m)
    assert len(kt_flat.tilde_terms) == 1
    assert isinstance(kt_flat.tilde_terms[0].table, FactoredTable)
    dense_flat = kt_flat.dense(m, tilde=True)[0, 0, 0]
    want = np.einsum("axz,bz->axbz", np.asarray(flat)[:, :, 0, :], beta0[:, :, 0, 0])
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
    for kind in KINDS:
        m = _mesh(nx=5)
        A, X = m.na + 1, m.nx
        rng = np.random.default_rng(8)
        base = _table(kind, rng.normal(size=(X, X)), None, m)
        k = KernelSet(n=1, terms=[KernelTerm(0, 0, 0, 1.0, base)])
        k = attach_tilde(k, np.zeros((A, X, 1, 1)), m)
        assert not k.tilde_terms
        v = StateField(rng.normal(size=(1, A, X)), rng.normal(size=(1, A, X)))
        w = StateField(rng.normal(size=(1, A, X)), rng.normal(size=(1, A, X)))
        got = delta_lambda_apply(k, v, None, w, m)
        want = apply_matrix_field(lambda_op(k, v.values, m), w.slope)
        want += apply_matrix_field(lambda_op(k, v.slope, m), w.values)
        assert np.allclose(got, want)


@pytest.mark.parametrize("kind", KINDS)
def test_lambda_contractions_against_bruteforce(kind):
    # Lambda, Lambda_1 and Lambda_2 against quadrature of the dense kernels
    m = build_mesh(1.0, 1.0, 3, 4)
    n = 2
    A, X = m.na + 1, m.nx
    rng = np.random.default_rng(17)
    k = attach_tilde(_kernel(kind, m, n, rng), _dense_beta(m, n, rng), m)
    w = rng.normal(size=(n, A, X))
    g0 = rng.normal(size=(n, X))
    _assert_close(lambda_op(k, w, m), _lambda_dense(k.dense(m), w, m))
    _assert_close(lambda_one(k, w, m), _lambda_dense(k.dense(m, tilde=True), w, m))
    _assert_close(lambda_two(k, g0, m), _lambda_two_dense(k.dense(m), g0, m))


def test_delta_lambda_against_bruteforce():
    # oracle: direct quadrature from the four-term definition
    for kind in KINDS:
        m = build_mesh(1.0, 1.0, 3, 4)
        n = 2
        A, X = m.na + 1, m.nx
        rng = np.random.default_rng(21)
        k = _kernel(kind, m, n, rng)
        beta0 = _dense_beta(m, n, rng)
        k = attach_tilde(k, beta0, m)
        v = StateField(rng.normal(size=(n, A, X)), rng.normal(size=(n, A, X)))
        w = StateField(rng.normal(size=(n, A, X)), rng.normal(size=(n, A, X)))
        g0 = rng.normal(size=(n, X))

        kd = k.dense(m)
        ktd = k.dense(m, tilde=True)
        want = np.einsum("hiax,iax->hax", _lambda_dense(kd, v.values, m), w.slope)
        want += np.einsum("hiax,iax->hax", _lambda_dense(kd, v.slope, m), w.values)
        want += np.einsum("hiax,iax->hax", _lambda_dense(ktd, v.values, m), w.values)
        want += np.einsum("hiax,iax->hax", _lambda_two_dense(kd, g0, m), w.values)
        got = delta_lambda_apply(k, v, g0, w, m)
        _assert_close(got, want)


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
    for kind in KINDS:
        m = _mesh(nx=5)
        A, X = m.na + 1, m.nx
        rng = np.random.default_rng(13)
        base = _table(kind, rng.normal(size=(X, X)), None, m)
        k = KernelSet(n=1, terms=[KernelTerm(0, 0, 0, 1.0, base)])
        beta = np.abs(_dense_beta(m, 1, rng))
        v = rng.normal(size=(1, A, X))
        w = rng.normal(size=(1, A, X))
        out = g_op(k, beta, beta, v, w, None, m)
        assert np.allclose(out, 0.0, atol=1e-12)


def test_g_op_against_bruteforce():
    for kind in KINDS:
        m = build_mesh(1.0, 1.0, 3, 4)
        n = 2
        A, X = m.na + 1, m.nx
        rng = np.random.default_rng(31)
        k = _kernel(kind, m, n, rng)
        beta0 = _dense_beta(m, n, rng)
        beta1 = _dense_beta(m, n, rng)
        v = rng.normal(size=(n, A, X))
        w = rng.normal(size=(n, A, X))
        g0 = rng.normal(size=(n, X))
        wa = age_weights(m)
        lam = _lambda_dense(k.dense(m), v, m)
        want = np.zeros((n, X))
        for xk in range(X):
            acc = np.zeros(n)
            for bk in range(A):
                mat = beta1[bk, xk] @ lam[:, :, bk, xk] - lam[:, :, 0, xk] @ beta0[bk, xk]
                acc += wa[bk] * (mat @ w[:, bk, xk])
            want[:, xk] = acc - lam[:, :, 0, xk] @ g0[:, xk]
        got = g_op(k, beta0, beta1, v, w, g0, m)
        _assert_close(got, want)

