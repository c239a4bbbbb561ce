import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from epiwave import SolverConfig, operators, run_relaxed
from epiwave.birth import newborn_source
from epiwave.errors import ShapeMismatch
from epiwave.fields import StateField, norm_H
from epiwave.io_cli import build_problem, parse_config_dict
from epiwave.mesh import age_weights, build_mesh, space_weights
from epiwave.operators import (
    FactoredTable,
    KernelSet,
    KernelTerm,
    attach_tilde,
    couple,
    delta_lambda_apply,
    fold_ages,
    invert_in_place,
    lambda_one,
    lambda_op,
    lambda_two,
    laplacian_neumann,
    mix,
    neumann_matrix,
    neumann_modes,
)
from epiwave.svir import SvirParams, build_svir

from conftest import g_of


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
    return KernelSet(terms)


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
    """The (n, n, n, A, X, A, X) table of k's terms (or tilde terms), n
    one more than the largest compartment index of the terms."""
    A, X, n = m.na + 1, m.nx, 1 + max(max(t.h, t.i, t.j) for t in k.terms)
    out = np.zeros((n, n, n, A, X, A, X))
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


def _matrix(k, lam, n, tilde=False):
    """The (n, n, ...) matrix field sum_q C_q r_q of the integrals lam of
    k's tables (or tilde tables) and their coupling matrices."""
    c = k.couplings(n)
    c = c[len(k.tables):] if tilde else c[: len(k.tables)]
    return np.einsum("qhi,q...->hi...", c, lam)


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


@pytest.mark.parametrize(
    "bad, first",
    [(np.ones((2, 2)), 1), (np.diag([1.0, 1e-15]), 1), (np.diag([1e8, 1e-7]), 1), (None, None)],
    ids=["exactly-singular", "inverse-too-large", "badly-scaled", "all-regular"],
)
def test_invert_in_place_names_the_first_singular_matrix(bad, first):
    # max|M^-1| max(max|M|, 1) > 1e14 is singular too; the stack is
    # overwritten where it stands and left as it is after a singular entry
    good = np.array([[2.0, 1.0], [1.0, 3.0]])
    mats = np.stack([good, good if bad is None else bad, 4.0 * good])
    assert invert_in_place(mats) == first
    assert np.array_equal(mats[0], np.linalg.inv(good))
    assert np.array_equal(mats[2], np.linalg.inv(4.0 * good) if bad is None else 4.0 * good)


@pytest.mark.parametrize("first", [None, 0, 3, 5])
def test_invert_in_place_chunks_keep_the_first_bad_index(monkeypatch, first):
    # chunks of two matrices: a singular matrix in a later chunk is named
    # by its index in the stack, every one before it is inverted to the
    # bit and every one after it is left as it is
    monkeypatch.setattr(operators, "_INVERT_CHUNK_BYTES", 2 * 4 * 8)
    rng = np.random.default_rng(1)
    mats = rng.normal(size=(6, 2, 2)) + 3.0 * np.eye(2)
    if first is not None:
        mats[first] = np.ones((2, 2))
    want = mats.copy()
    stop = len(mats) if first is None else first
    want[:stop] = np.linalg.inv(mats[:stop])
    assert invert_in_place(mats) == first
    assert np.array_equal(mats, want)


@pytest.mark.parametrize("nx", [3, 5, 21, 41, 81])
def test_neumann_modes_diagonalise_the_laplacian(nx):
    m = _mesh(nx=nx)
    lap = neumann_matrix(m)
    V, lam, V_inv = neumann_modes(m)
    assert np.max(np.abs(lap @ V - V * lam)) <= 1e-13 * np.max(np.abs(lap))
    assert np.max(np.abs(V_inv @ V - np.eye(nx))) <= 1e-13
    assert lam[0] == 0.0 and np.all(np.diff(lam) < 0)


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
            k = KernelSet(terms=_terms(kind, tent, None, m))
            out = _matrix(k, lambda_op(k, np.ones((1, A, X)), m), 1)
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
        lhs = norm_H(mix(lambda_op(k, v1, m), couple(k, v2)), m)
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
    assert _dense(k, m).shape == k7.shape
    assert len(k.terms) == 3
    assert all((t.h, t.i, t.j) == (1, 0, 1) for t in k.terms)
    assert k.integrated.tolist() == [1]  # the j on which a newborn source makes Lambda_2 live
    _assert_close(_dense(k, m), k7, rtol=1e-14)
    assert KernelSet.from_dense(np.zeros((1, 1, 1, A, X, A, X))).terms == []


@pytest.mark.parametrize("kind", KINDS)
def test_attach_tilde_matches_definition(kind):
    # oracle: k_a + k_alpha analytically; the finite-difference
    # derivative converges at second order
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
        k = KernelSet(terms=_terms(kind, row, col, m))
        kt = attach_tilde(k, m)
        dense = _dense(kt, m, tilde=True)[0, 0, 0]
        analytic = (np.cos(a) * np.cos(2 * alf) - 2 * np.sin(a) * np.sin(2 * alf)) * (
            1 + 0.5 * x * z
        )
        return np.max(np.abs(dense - analytic))

    e1, e2 = deriv_error(8), deriv_error(16)
    assert e1 < 0.1
    assert e1 / e2 > 3.0

    # the derivative terms equal np.gradient of the dense table
    m = build_mesh(1.0, 1.0, 8, 5)
    A, X = m.na + 1, m.nx
    rng = np.random.default_rng(4)
    row, col = rng.normal(size=(A, X, X)), rng.normal(size=(A, X))
    kt = attach_tilde(KernelSet(terms=_terms(kind, row, col, m)), m)
    dense = np.asarray(FactoredTable(row, col, A))
    want = np.gradient(dense, m.da, axis=0, edge_order=2)
    want += np.gradient(dense, m.da, axis=2, edge_order=2)
    _assert_close(_dense(kt, m, tilde=True)[0, 0, 0], want)

    # an age-constant table has no derivative term
    flat = rng.normal(size=(X, X))
    kt_flat = attach_tilde(KernelSet(terms=_terms(kind, flat, None, m)), m)
    assert kt_flat.tilde_terms == []


def test_delta_lambda_zero_fields():
    m = _mesh()
    k = _random_kernel(m, 2, np.random.default_rng(0))
    k = attach_tilde(k, m)
    z = StateField(np.zeros((2, m.na + 1, m.nx)), np.zeros((2, m.na + 1, m.nx)))
    src = np.zeros((2, m.nx))
    lam, cy = lambda_op(k, z.values, m), couple(k, z.values)
    assert np.allclose(delta_lambda_apply(k, lam, cy, z, src, m), 0.0)


def test_delta_lambda_product_rule_reduction():
    # age-flat kernel + zero newborn source leaves only Lambda(y) dy + Lambda(dy) y
    for kind in KINDS:
        m = _mesh(nx=5)
        A, X = m.na + 1, m.nx
        rng = np.random.default_rng(8)
        k = KernelSet(terms=_terms(kind, rng.normal(size=(X, X)), None, m))
        k = attach_tilde(k, m)
        assert not k.tilde_terms
        y = StateField(rng.normal(size=(1, A, X)), rng.normal(size=(1, A, X)))
        lam = lambda_op(k, y.values, m)
        got = delta_lambda_apply(k, lam, couple(k, y.values), y, np.zeros((1, X)), m)
        want = mix(lam, couple(k, y.slope))
        want += mix(lambda_op(k, y.slope, m), couple(k, y.values))
        assert np.allclose(got, want)


@pytest.mark.parametrize("kind", KINDS)
def test_lambda_contractions_against_bruteforce(kind):
    # Lambda, Lambda_1 and Lambda_2 against quadrature of the dense kernels
    m = build_mesh(1.0, 1.0, 3, 4)
    n = 2
    A, X = m.na + 1, m.nx
    rng = np.random.default_rng(17)
    k = attach_tilde(_kernel(kind, m, n, rng), m)
    w = rng.normal(size=(n, A, X))
    g0 = rng.normal(size=(n, X))
    _assert_close(_matrix(k, lambda_op(k, w, m), n), _lambda_dense(_dense(k, m), w, m))
    dense_tilde = _lambda_dense(_dense(k, m, tilde=True), w, m)
    _assert_close(_matrix(k, lambda_one(k, w, m), n, tilde=True), dense_tilde)
    _assert_close(_matrix(k, lambda_two(k, g0, m), n), _lambda_two_dense(_dense(k, m), g0, m))


def test_pair_field_of_several_pairs_and_tables():
    # criterion 8's random 2-compartment kernel: every (h, i, j) table is
    # factored into several tables with rows that depend on age, over all
    # four (h, i) pairs
    m = build_mesh(1.0, 1.0, 4, 5)
    rng = np.random.default_rng(0)
    A, X = m.na + 1, m.nx
    k7 = rng.normal(size=(2, 2, 2, A, X, A, X))
    k = KernelSet.from_dense(k7)
    assert np.count_nonzero(k.couplings(2).any(axis=0)) == 4 and len(k.tables) > 8
    assert all(table.row.ndim == 3 for table, _ in k.tables)
    w, y = rng.normal(size=(2, 2, A, X))
    want = np.einsum("hiax,iax->hax", _lambda_dense(k7, w, m), y)
    _assert_close(mix(lambda_op(k, w, m), couple(k, y)), want, rtol=1e-12)

    # a batch of 3 members: each equals its unbatched result to the bit
    ws, ys = rng.normal(size=(2, 3, 2, A, X))
    got = mix(lambda_op(k, ws, m), couple(k, ys))
    for wj, yj, gj in zip(ws, ys, got):
        assert np.array_equal(gj, mix(lambda_op(k, wj, m), couple(k, yj)))
        want = np.einsum("hiax,iax->hax", _lambda_dense(k7, wj, m), yj)
        _assert_close(gj, want, rtol=1e-12)


@pytest.mark.parametrize(
    "contract, shape",
    [(lambda_op, (1, 4, 4)), (lambda_op, (2, 5, 4)), (lambda_op, (4, 4)),
     (lambda_one, (1, 4, 4)), (lambda_two, (1, 4))],
)
def test_contractions_refuse_a_field_off_the_kernels(contract, shape):
    # the kernels hold no compartment count: one read off the field that
    # is too small for their indices is a ShapeMismatch, not an IndexError
    m = build_mesh(1.0, 1.0, 3, 4)
    k = attach_tilde(_kernel("factored", m, 2, np.random.default_rng(17)), m)
    with pytest.raises(ShapeMismatch):
        contract(k, np.ones(shape), m)


def test_delta_lambda_against_bruteforce():
    # oracle: direct quadrature from the four-term definition, whose
    # Lambda_1 kernel is the age derivative plus the boundary-renewal
    # table k^{hij}(a, x, 0, xi) beta0^{jl}(alpha, xi)
    for kind in KINDS:
        m = build_mesh(1.0, 1.0, 3, 4)
        n = 2
        A, X = m.na + 1, m.nx
        rng = np.random.default_rng(21)
        k = _kernel(kind, m, n, rng)
        beta0 = _dense_beta(m, n, rng)
        k = attach_tilde(k, m)
        y = StateField(rng.normal(size=(n, A, X)), rng.normal(size=(n, A, X)))
        g0 = rng.normal(size=(n, X))

        kd = _dense(k, m)
        ktd = _dense(k, m, tilde=True)
        ktd += np.einsum("hijaxz,bzjl->hilaxbz", kd[..., 0, :], beta0)
        want = np.einsum("hiax,iax->hax", _lambda_dense(kd, y.values, m), y.slope)
        want += np.einsum("hiax,iax->hax", _lambda_dense(kd, y.slope, m), y.values)
        want += np.einsum("hiax,iax->hax", _lambda_dense(ktd, y.values, m), y.values)
        want += np.einsum("hiax,iax->hax", _lambda_two_dense(kd, g0, m), y.values)
        src = newborn_source(fold_ages(beta0, m), y.values, g0)
        lam, cy = lambda_op(k, y.values, m), couple(k, y.values)
        got = delta_lambda_apply(k, lam, cy, y, src, m)
        _assert_close(got, want)


def test_lambda_two_zero_source():
    m = _mesh()
    k = _random_kernel(m, 2, np.random.default_rng(0))
    assert np.allclose(lambda_two(k, np.zeros((2, m.nx)), m), 0.0)


# --------------------------------------------------------------------------
# G operator


def test_g_op_scalar_cancellation():
    # n=1, beta1 = beta0, age-independent kernel, g0=0: integrand cancels
    for kind in KINDS:
        m = _mesh(nx=5)
        A, X = m.na + 1, m.nx
        rng = np.random.default_rng(13)
        k = KernelSet(terms=_terms(kind, rng.normal(size=(X, X)), None, m))
        beta = np.abs(_dense_beta(m, 1, rng))
        y = rng.normal(size=(1, A, X))
        out = g_of(k, beta, beta, y, None, m)
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
        got = g_of(k, beta0, beta1, y, g0, m)
        _assert_close(got, want)



# --------------------------------------------------------------------------
# (table, j) columns distinct up to scale; the cached coupling matrices


def _svir_dense(m):
    """The SVIR library kernel and its terms as a dense 7-D table, as a
    tables .npz stores it: six separate tables."""
    lib = build_svir(SvirParams(tau=1e-2, total_S0=100.0), m).kernels
    A, X = m.na + 1, m.nx
    dense = np.zeros((4, 4, 4, A, X, A, X))
    for t in lib.terms:
        dense[t.h, t.i, t.j] += t.weight * np.asarray(t.table)
    return lib, dense


def _pair_weight(k):
    """Each coupled (h, i) pair's weight on k's one table."""
    c = k.couplings(4)[0]
    return {(int(h), int(i)): c[h, i] for h, i in zip(*np.nonzero(c))}


def test_from_dense_svir_tables_index_one_table():
    # +-tent, +-phi1 tent and +-phi2 tent: six rank-1 terms, one column
    m = build_mesh(0.5, 1.0, 4, 5)
    lib, dense = _svir_dense(m)
    k = KernelSet.from_dense(dense)
    assert len(k.terms) == 6 and len(k.tables) == 1 and len(lib.tables) == 1
    got, want = _pair_weight(k), _pair_weight(lib)
    assert got.keys() == want.keys()
    assert max(abs(got[p] - want[p]) for p in want) <= 1e-15
    w = np.random.default_rng(6).normal(size=(4, m.na + 1, m.nx))
    _assert_close(_matrix(k, lambda_op(k, w, m), 4), _matrix(lib, lambda_op(lib, w, m), 4), 1e-15)


def test_tables_merge_only_up_to_scale_on_the_same_j():
    m = build_mesh(1.0, 1.0, 4, 5)
    A, X = m.na + 1, m.nx
    rng = np.random.default_rng(7)
    row, col = rng.normal(size=(A, X, X)), rng.normal(size=(A, X))
    table = FactoredTable(row, col, A)
    bumped = row.copy()
    bumped[1, 2, 3] += 1e-10

    perturbed = KernelSet([KernelTerm(0, 0, 0, 1.0, table),
                           KernelTerm(1, 0, 0, 1.0, FactoredTable(bumped, col, A))])
    assert len(perturbed.tables) == 2
    other_j = KernelSet([KernelTerm(0, 0, 0, 1.0, table), KernelTerm(1, 0, 1, 1.0, table)])
    assert [j for _, j in other_j.tables] == [0, 1]

    # the 2.5x copy (rows 1.25x, cols 2x) joins the column with weight 2.5,
    # and its two derivative tables join the original's
    copy = FactoredTable(1.25 * row, 2.0 * col, A)
    k = attach_tilde(KernelSet([KernelTerm(0, 0, 0, 1.0, table),
                                KernelTerm(1, 0, 0, -0.5, copy)]), m)
    assert len(k.tables) == 1 and len(k.tilde_tables) == 2
    c = k.couplings(2)[:, :, 0]  # each column's weights on the pairs (0, 0) and (1, 0)
    assert np.allclose(c[0], [1.0, -1.25], rtol=1e-15, atol=0)
    assert np.allclose(c[1:].T, [[1.0, 1.0], [-1.25, -1.25]], rtol=1e-14, atol=0)
    assert not k.couplings(2)[:, :, 1].any()
    w = rng.normal(size=(2, A, X))
    _assert_close(_matrix(k, lambda_op(k, w, m), 2), _lambda_dense(_dense(k, m), w, m))
    dense_tilde = _lambda_dense(_dense(k, m, tilde=True), w, m)
    _assert_close(_matrix(k, lambda_one(k, w, m), 2, tilde=True), dense_tilde)


def test_relaxed_sweep_integrates_the_loaded_svir_table_twice(tmp_path):
    # the .npz holds SVIR's kernel as six tables; their terms share one
    # column, so a sweep integrates one row twice (values and slopes), as
    # for the library kernel, not twelve times
    integrals = []

    class Counted(np.ndarray):
        def __matmul__(self, other):
            integrals.append(1)
            return np.asarray(self) @ other

    m = build_mesh(0.5, 1.0, 6, 7)
    lib_spec = build_svir(SvirParams(tau=1e-2, total_S0=100.0), m)
    _, dense = _svir_dense(m)
    births = lib_spec.births
    np.savez(
        tmp_path / "model.npz",
        L=lib_spec.linear.L, L_a=lib_spec.linear.L_a, sigma=lib_spec.linear.sigma,
        kernels=dense, beta0=births.beta0, beta1=births.beta1,
        betaL=births.betaL, beta_grad=births.beta_grad, y0=lib_spec.y0, y1=lib_spec.y1,
    )
    cfg = parse_config_dict({
        "mesh": {"t_max": m.t_max, "a_max": m.a_max, "na": m.na, "nx": m.nx},
        "model": {"kind": "tables", "path": str(tmp_path / "model.npz")},
    })
    _, spec, _ = build_problem(cfg, tau=1e-2)
    terms = [
        dataclasses.replace(t, table=dataclasses.replace(t.table, row=t.table.row.view(Counted)))
        for t in spec.kernels.terms
    ]
    assert len(terms) == 6
    spec = dataclasses.replace(spec, kernels=KernelSet(terms))

    run = run_relaxed(spec, SolverConfig(), m)
    sweeps = sum(len(u) for u in run.picard_updates)
    assert sweeps > m.nt
    assert len(integrals) == 2 * sweeps
    want = run_relaxed(lib_spec, SolverConfig(), m)[-1].values
    _assert_close(run[-1].values, want, rtol=1e-14)


def test_couplings_are_built_once_per_size():
    m = build_mesh(1.0, 1.0, 3, 4)
    rng = np.random.default_rng(9)
    k = _factored_kernel(m, 2, rng)
    w, z = rng.normal(size=(2, 2, m.na + 1, m.nx))
    lam = lambda_op(k, w, m)
    got = mix(lam, couple(k, z))
    want = np.einsum("hiax,iax->hax", _lambda_dense(_dense(k, m), w, m), z)
    _assert_close(got, want)
    assert k.couplings(2) is k.couplings(2) and not k.couplings(2).flags.writeable
    assert np.array_equal(mix(lam, couple(k, z)), got)
    with pytest.raises(ShapeMismatch):  # target 1 is not below n = 1, cached or not
        couple(k, z[:1])
    with pytest.raises(ShapeMismatch):
        couple(k, z[:1])
