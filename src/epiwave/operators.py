"""Spatial, local and nonlocal operators of the model.

Covers the mirror-point Neumann Laplacian, the linear coefficient tables
L / dL/da / sigma, the mixing operator Lambda built from kernel terms,
its transport derivative (with the kernel-derivative and boundary-source
corrections), and the boundary operator G.

Kernels are stored as a sparse list of terms: each term couples one
(target h, multiplied i, integrated j) compartment triple through a
scalar table k(a, x, alpha, xi) and a weight.  Library kernels and the
boundary-renewal terms are FactoredTables, k = row(a, x, xi) *
col(alpha, xi), contracted in O(X^2 + A X); only kernels read from an
.npz of sampled tables are dense (A, X, A, X) arrays, contracted in
O(A^2 X^2).  Terms may share the same table (the SVIR model uses a
single spatial kernel for all couplings), and a shared table is
contracted once per sweep.  Kernel values are taken in consistent rate
units per (age * length); no normalization is applied.
"""

from dataclasses import dataclass, field
from typing import List, Optional, Union

import numpy as np

from .errors import ShapeMismatch
from .fields import StateField
from .mesh import Mesh, age_weights, space_weights


def laplacian_neumann(sl: np.ndarray, m: Mesh) -> np.ndarray:
    """3-point second difference along the last axis, mirror boundaries.

    The ghost value u[-1] = u[1] realizes a zero normal derivative to
    second order; same at the right end.
    """
    sl = np.asarray(sl)
    if sl.shape[-1] != m.nx:
        raise ShapeMismatch(f"last axis {sl.shape[-1]} != nx={m.nx}")
    if m.nx < 3:
        raise ShapeMismatch("need nx >= 3")
    out = np.empty_like(sl, dtype=float)
    inv = 1.0 / (m.dx * m.dx)
    out[..., 1:-1] = (sl[..., 2:] - 2.0 * sl[..., 1:-1] + sl[..., :-2]) * inv
    out[..., 0] = 2.0 * (sl[..., 1] - sl[..., 0]) * inv
    out[..., -1] = 2.0 * (sl[..., -2] - sl[..., -1]) * inv
    return out


def neumann_matrix(m: Mesh) -> np.ndarray:
    """Dense (nx, nx) matrix of laplacian_neumann."""
    return laplacian_neumann(np.eye(m.nx), m).T


@dataclass
class LinearPart:
    """Linear coefficient tables sampled on the (age, space) grid.

    L and L_a are (na+1, nx, n, n); sigma holds the diagonal diffusivity
    entries per age, shape (na+1, n).  L_a should be the analytic age
    derivative when L is known in closed form.
    """

    L: np.ndarray
    L_a: np.ndarray
    sigma: np.ndarray

    @property
    def n(self) -> int:
        return self.L.shape[-1]

    def check_shape(self, m: Mesh) -> None:
        n = self.n
        want = (m.na + 1, m.nx, n, n)
        if self.L.shape != want or self.L_a.shape != want:
            raise ShapeMismatch(f"L tables must have shape {want}")
        if self.sigma.shape != (m.na + 1, n):
            raise ShapeMismatch(f"sigma must have shape {(m.na + 1, n)}")


@dataclass(frozen=True, eq=False)
class FactoredTable:
    """Kernel table k(a, x, alpha, xi) = row(a, x, xi) * col(alpha, xi).

    row is (X, X) when the kernel does not depend on a, else (A, X, X);
    col is (A, X), or None for a kernel constant in alpha.  ages = A =
    na + 1.  np.asarray materialises the dense (A, X, A, X) product.
    """

    row: np.ndarray
    col: Optional[np.ndarray]
    ages: int

    def __array__(self, dtype=None, copy=None):
        if copy is False:
            raise ValueError("a FactoredTable cannot be viewed as a dense array")
        A, X = self.ages, self.row.shape[-1]
        row = self.row if self.row.ndim == 3 else self.row[None]
        out = np.broadcast_to(row[:, :, None, :], (A, X, A, X))
        out = out * (1.0 if self.col is None else self.col)
        return out if dtype is None else out.astype(dtype, copy=False)


Table = Union[np.ndarray, FactoredTable]


@dataclass(frozen=True)
class KernelTerm:
    """One coupling k^{hij}(a, x, alpha, xi) = weight * table."""

    h: int
    i: int
    j: int
    weight: float
    table: Table  # FactoredTable, or a dense (na+1, nx, na+1, nx) array


@dataclass
class KernelSet:
    """Sparse collection of kernel terms plus the derived tilde terms.

    terms are the model's kernel.  tilde_terms realize the kernel of the
    Lambda_1 correction, k_a + k_alpha + sum_l k(alpha=0) * beta0; they
    follow from terms and beta0 alone, so only attach_tilde fills them,
    and the solvers call it once per solve.
    """

    n: int
    terms: List[KernelTerm] = field(default_factory=list)
    tilde_terms: List[KernelTerm] = field(default_factory=list)

    @classmethod
    def empty(cls, n: int) -> "KernelSet":
        return cls(n=n)

    @classmethod
    def from_dense(cls, k7: np.ndarray) -> "KernelSet":
        """Build from a dense (n, n, n, na+1, nx, na+1, nx) table."""
        n = k7.shape[0]
        terms = []
        for h in range(n):
            for i in range(n):
                for j in range(n):
                    tab = k7[h, i, j]
                    if np.any(tab):
                        terms.append(KernelTerm(h, i, j, 1.0, np.array(tab)))
        return cls(n=n, terms=terms)

    def dense(self, m: Mesh, tilde: bool = False) -> np.ndarray:
        A, X = m.na + 1, m.nx
        out = np.zeros((self.n, self.n, self.n, A, X, A, X))
        for t in self.tilde_terms if tilde else self.terms:
            out[t.h, t.i, t.j] += t.weight * np.asarray(t.table)
        return out


def _at_alpha_zero(table: Table) -> np.ndarray:
    """k(a, x, 0, xi): (A, X, X), or (X, X) for a factored row without a."""
    if isinstance(table, FactoredTable):
        return table.row if table.col is None else table.row * table.col[0]
    return table[:, :, 0, :]


def _age_derivatives(table: Table, m: Mesh) -> List[Table]:
    """(d/da + d/dalpha) k as a list of tables, empty when k has no age.

    A factored table knows its age dependence: (d_a row) col when row
    depends on a, plus row (d_alpha col) when col is given.  A dense
    table equal to its age-zero slices at every age pair has none.
    """
    def d_age(f):
        return np.gradient(f, m.da, axis=0, edge_order=2)

    if isinstance(table, FactoredTable):
        out = []
        if table.row.ndim == 3:
            out.append(FactoredTable(d_age(table.row), table.col, table.ages))
        if table.col is not None:
            out.append(FactoredTable(table.row, d_age(table.col), table.ages))
        return out
    if np.array_equal(table, np.broadcast_to(table[:1, :, :1, :], table.shape)):
        return []
    dtab = d_age(table) + np.gradient(table, m.da, axis=2, edge_order=2)
    return [dtab] if np.any(dtab) else []


def attach_tilde(k: KernelSet, beta0: np.ndarray, m: Mesh) -> KernelSet:
    """k with its tilde terms for Lambda_1 derived from k.terms and beta0.

    The solvers call this once per solve; any tilde_terms k already
    holds are replaced.  The age derivative (d/da + d/dalpha) of each
    table uses centered differences (see _age_derivatives).  The
    boundary-renewal part k^{hil}(a, x, 0, xi) beta0^{lj}(alpha, xi) is
    a FactoredTable for every kind of table.  Terms sharing a table
    share its tilde tables.
    """
    tilde: List[KernelTerm] = []
    derivs: dict = {}  # id(table) -> its derivative tables
    renewals: dict = {}  # (id(table), t.j, j) -> its renewal table
    for t in k.terms:
        key = id(t.table)
        if key not in derivs:
            derivs[key] = _age_derivatives(t.table, m)
        for dtab in derivs[key]:
            tilde.append(KernelTerm(t.h, t.i, t.j, t.weight, dtab))
        for j in range(k.n):
            b = beta0[:, :, t.j, j]  # (A, X) over (alpha, xi)
            if not np.any(b):
                continue
            rkey = (key, t.j, j)
            if rkey not in renewals:
                renewals[rkey] = FactoredTable(_at_alpha_zero(t.table), b, m.na + 1)
            tilde.append(KernelTerm(t.h, t.i, j, t.weight, renewals[rkey]))
    return KernelSet(n=k.n, terms=list(k.terms), tilde_terms=tilde)


def _weighted(w: np.ndarray, m: Mesh) -> np.ndarray:
    wa = age_weights(m)
    wx = space_weights(m)
    return w * wa[None, :, None] * wx[None, None, :]


def _integrate(table: Table, f: np.ndarray) -> np.ndarray:
    """sum over (alpha, xi) of k(a, x, alpha, xi) f(alpha, xi).

    Returns (A, X), or (X,) for a factored table constant in a.
    """
    if isinstance(table, FactoredTable):
        s = f.sum(axis=0) if table.col is None else np.einsum("bz,bz->z", table.col, f)
        return table.row @ s
    return np.einsum("axbz,bz->ax", table, f)


def _contract(terms: List[KernelTerm], wq: np.ndarray, n: int) -> np.ndarray:
    A, X = wq.shape[1], wq.shape[2]
    out = np.zeros((n, n, A, X))
    cache: dict = {}
    for t in terms:
        key = (id(t.table), t.j)
        g = cache.get(key)
        if g is None:
            g = _integrate(t.table, wq[t.j])
            cache[key] = g
        out[t.h, t.i] += t.weight * g
    return out


def lambda_op(k: KernelSet, w: np.ndarray, m: Mesh) -> np.ndarray:
    """Mixing matrix field Lambda(a, x, w), shape (n, n, na+1, nx).

    Entry (h, i) integrates w_j against k^{hij} over (alpha, xi) with
    trapezoid weights; w is an (n, na+1, nx) array.
    """
    wq = _weighted(w, m)
    if wq.shape != (k.n, m.na + 1, m.nx):
        raise ShapeMismatch(f"field shape {wq.shape} does not match kernels")
    return _contract(k.terms, wq, k.n)


def lambda_one(k: KernelSet, w: np.ndarray, m: Mesh) -> np.ndarray:
    """Lambda_1: same contraction through the tilde kernel terms."""
    wq = _weighted(w, m)
    return _contract(k.tilde_terms, wq, k.n)


def lambda_two(k: KernelSet, g0: Optional[np.ndarray], m: Mesh) -> np.ndarray:
    """Lambda_2: xi-only integral of k(a, x, 0, xi) against g0(xi)."""
    out = np.zeros((k.n, k.n, m.na + 1, m.nx))
    if g0 is None or not np.any(g0):
        return out
    wx = space_weights(m)
    cache: dict = {}
    for t in k.terms:
        key = (id(t.table), t.j)
        g = cache.get(key)
        if g is None:
            g = _at_alpha_zero(t.table) @ (g0[t.j] * wx)
            cache[key] = g
        out[t.h, t.i] += t.weight * g
    return out


def apply_matrix_field(mat: np.ndarray, f: np.ndarray) -> np.ndarray:
    """Contract an (n, n, A, X) matrix field with an (n, A, X) field."""
    return np.einsum("hiax,iax->hax", mat, f)


def delta_lambda_apply(
    k: KernelSet,
    lam: np.ndarray,
    y: StateField,
    g0: Optional[np.ndarray],
    m: Mesh,
) -> np.ndarray:
    """Transport derivative of the mixing term Lambda(y) y.

    lam is lambda_op(k, y.values, m), which the caller has already
    contracted; k must carry its tilde terms (attach_tilde).  Evaluates
    Lambda(y) dy + Lambda(dy) y + Lambda_1(y) y + Lambda_2(g0) y and
    returns the (n, na+1, nx) field.
    """
    out = apply_matrix_field(lam, y.slope)
    out += apply_matrix_field(lambda_op(k, y.slope, m), y.values)
    if k.tilde_terms:
        out += apply_matrix_field(lambda_one(k, y.values, m), y.values)
    if g0 is not None and np.any(g0):
        out += apply_matrix_field(lambda_two(k, g0, m), y.values)
    return out


def g_op(
    k: KernelSet,
    beta0: np.ndarray,
    beta1: np.ndarray,
    y: np.ndarray,
    g0: Optional[np.ndarray],
    m: Mesh,
) -> np.ndarray:
    """Boundary operator feeding the first-order birth law.

    Returns the (n, nx) slice
      int_alpha (beta1 Lambda(alpha, y) - Lambda(0, y) beta0) y(alpha)
      - Lambda(0, y) g0
    of the (n, na+1, nx) values y.
    """
    lam = lambda_op(k, y, m)  # (n, n, A, X)
    # Contract y first: beta1 acts on Lambda(alpha, y) y(alpha), and
    # Lambda(0, y) on the age integral of beta0 y, plus g0.
    wa = age_weights(m)
    t1 = np.einsum("bxhi,ibx->hbx", beta1, apply_matrix_field(lam, y))
    src = np.einsum("b,ibx->ix", wa, np.einsum("bxij,jbx->ibx", beta0, y))
    if g0 is not None:
        src += g0
    return np.einsum("b,hbx->hx", wa, t1) - np.einsum("hix,ix->hx", lam[:, :, 0, :], src)
