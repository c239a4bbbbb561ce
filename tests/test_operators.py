import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from epiwave.errors import ShapeMismatch
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


def _random_kernel(m, n, rng):
    """Full-rank random tables for every coupling, factored on load."""
    A, X = m.na + 1, m.nx
    return KernelSet.from_dense(rng.normal(size=(n, n, n, A, X, A, X)))


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


def _terms(kind, row, col, m):
    """The (0, 0, 0) kernel row * col as one FactoredTable term, or as
    the terms from_dense factors its dense array into."""
    table = FactoredTable(row, col, m.na + 1)
    if kind == "factored":
        return [KernelTerm(0, 0, 0, 1.0, table)]
    return KernelSet.from_dense(np.asarray(table)[None, None, None]).terms


def _dense(k, m, tilde=False):
    """The (n, n, n, A, X, A, X) table of k's terms (or tilde terms)."""
    A, X = m.na + 1, m.nx
    out = np.zeros((k.n, k.n, k.n, A, X, A, X))
    for t in k.tilde_terms if tilde else k.terms:
        out[t.h, t.i, t.j] += t.weight * np.asarray(t.table)
    return out


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
    k = KernelSet.from_dense(np.ones((1, 1, 1, A, X, A, X)))
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
            k = KernelSet(n=1, terms=_terms(kind, tent, None, m))
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
    dense = _dense(k, m)
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


@pytest.mark.parametrize("na", [4, 8, 20])
def test_from_dense_reproduces_a_full_rank_table(na):
    m = build_mesh(1.0, 1.0, na, 5)
    A, X = m.na + 1, m.nx
    tab = np.random.default_rng(na).normal(size=(A, X, A, X))
    k = KernelSet.from_dense(tab[None, None, None])
    assert 1 <= len(k.terms) <= A
    _assert_close(_dense(k, m)[0, 0, 0], tab, rtol=1e-14)


def test_from_dense_finds_the_rank_and_skips_zero_tables():
    m = build_mesh(1.0, 1.0, 8, 5)
    A, X = m.na + 1, m.nx
    rng = np.random.default_rng(3)
    k7 = np.zeros((2, 2, 2, A, X, A, X))
    rows, cols = rng.normal(size=(3, A, X, X)), rng.normal(size=(3, A, X))
    k7[1, 0, 1] = np.einsum("raxz,rbz->axbz", rows, cols)
    k = KernelSet.from_dense(k7)
    assert k.n == 2
    assert len(k.terms) == 3
    assert all((t.h, t.i, t.j) == (1, 0, 1) for t in k.terms)
    _assert_close(_dense(k, m), k7, rtol=1e-14)
    assert KernelSet.from_dense(np.zeros((1, 1, 1, A, X, A, X))).terms == []


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
        k = KernelSet(n=1, terms=_terms(kind, row, col, m))
        beta0 = np.zeros((A, X, 1, 1))
        kt = attach_tilde(k, beta0, m)
        dense = _dense(kt, m, tilde=True)[0, 0, 0]
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
    row, col = rng.normal(size=(A, X, X)), rng.normal(size=(A, X))
    kt = attach_tilde(KernelSet(n=1, terms=_terms(kind, row, col, m)), beta0, m)
    dense = np.asarray(FactoredTable(row, col, A))
    want = np.gradient(dense, m.da, axis=0, edge_order=2)
    want += np.gradient(dense, m.da, axis=2, edge_order=2)
    want += np.einsum("axz,bz->axbz", dense[:, :, 0, :], beta0[:, :, 0, 0])
    _assert_close(_dense(kt, m, tilde=True)[0, 0, 0], want)

    # an age-constant table has no derivative term; the renewal part is exact
    flat = rng.normal(size=(X, X))
    kt_flat = attach_tilde(KernelSet(n=1, terms=_terms(kind, flat, None, m)), beta0, m)
    assert len(kt_flat.tilde_terms) == 1
    assert isinstance(kt_flat.tilde_terms[0].table, FactoredTable)
    dense_flat = _dense(kt_flat, m, tilde=True)[0, 0, 0]
    dense = np.asarray(FactoredTable(flat, None, A))
    want = np.einsum("axz,bz->axbz", dense[:, :, 0, :], beta0[:, :, 0, 0])
    assert np.allclose(dense_flat, want)


def test_delta_lambda_zero_fields():
    m = _mesh()
    k = _random_kernel(m, 2, np.random.default_rng(0))
    k = attach_tilde(k, np.zeros((m.na + 1, m.nx, 2, 2)), m)
    z = StateField(np.zeros((2, m.na + 1, m.nx)), np.zeros((2, m.na + 1, m.nx)))
    assert np.allclose(delta_lambda_apply(k, lambda_op(k, z.values, m), z, None, m), 0.0)


def test_delta_lambda_product_rule_reduction():
    # age-flat kernel + zero beta0 leaves only Lambda(y) dy + Lambda(dy) y
    for kind in KINDS:
        m = _mesh(nx=5)
        A, X = m.na + 1, m.nx
        rng = np.random.default_rng(8)
        k = KernelSet(n=1, terms=_terms(kind, rng.normal(size=(X, X)), None, m))
        k = attach_tilde(k, np.zeros((A, X, 1, 1)), m)
        assert not k.tilde_terms
        y = StateField(rng.normal(size=(1, A, X)), rng.normal(size=(1, A, X)))
        lam = lambda_op(k, y.values, m)
        got = delta_lambda_apply(k, lam, y, None, m)
        want = apply_matrix_field(lam, y.slope)
        want += apply_matrix_field(lambda_op(k, y.slope, m), y.values)
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
    _assert_close(lambda_op(k, w, m), _lambda_dense(_dense(k, m), w, m))
    _assert_close(lambda_one(k, w, m), _lambda_dense(_dense(k, m, tilde=True), w, m))
    _assert_close(lambda_two(k, g0, m), _lambda_two_dense(_dense(k, m), g0, m))


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
        y = StateField(rng.normal(size=(n, A, X)), rng.normal(size=(n, A, X)))
        g0 = rng.normal(size=(n, X))

        kd = _dense(k, m)
        ktd = _dense(k, m, tilde=True)
        want = np.einsum("hiax,iax->hax", _lambda_dense(kd, y.values, m), y.slope)
        want += np.einsum("hiax,iax->hax", _lambda_dense(kd, y.slope, m), y.values)
        want += np.einsum("hiax,iax->hax", _lambda_dense(ktd, y.values, m), y.values)
        want += np.einsum("hiax,iax->hax", _lambda_two_dense(kd, g0, m), y.values)
        got = delta_lambda_apply(k, lambda_op(k, y.values, m), y, g0, m)
        _assert_close(got, want)


def test_lambda_two_zero_source():
    m = _mesh()
    k = _random_kernel(m, 2, np.random.default_rng(0))
    assert np.allclose(lambda_two(k, None, m), 0.0)


# --------------------------------------------------------------------------
# G operator


def test_g_op_scalar_cancellation():
    # n=1, beta1 = beta0, age-independent kernel, g0=0: integrand cancels
    for kind in KINDS:
        m = _mesh(nx=5)
        A, X = m.na + 1, m.nx
        rng = np.random.default_rng(13)
        k = KernelSet(n=1, terms=_terms(kind, rng.normal(size=(X, X)), None, m))
        beta = np.abs(_dense_beta(m, 1, rng))
        y = rng.normal(size=(1, A, X))
        out = g_op(k, beta, beta, y, None, m)
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
        y = rng.normal(size=(n, A, X))
        g0 = rng.normal(size=(n, X))
        wa = age_weights(m)
        lam = _lambda_dense(_dense(k, m), y, m)
        want = np.zeros((n, X))
        for xk in range(X):
            acc = np.zeros(n)
            for bk in range(A):
                mat = beta1[bk, xk] @ lam[:, :, bk, xk] - lam[:, :, 0, xk] @ beta0[bk, xk]
                acc += wa[bk] * (mat @ y[:, bk, xk])
            want[:, xk] = acc - lam[:, :, 0, xk] @ g0[:, xk]
        got = g_op(k, beta0, beta1, y, g0, m)
        _assert_close(got, want)

