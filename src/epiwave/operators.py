"""Spatial, local and nonlocal operators of the model.

Covers the mirror-point Neumann Laplacian, the linear coefficient tables
L / dL/da / sigma, the mixing operator Lambda built from kernel terms,
its transport derivative (with the kernel-derivative and boundary-source
corrections), and the boundary operator G.

Kernels are stored as a sparse list of terms: each term couples one
(target h, multiplied i, integrated j) compartment triple through a
scalar table k(a, x, alpha, xi) and a weight.  Every table is a
FactoredTable, k = row(a, x, xi) * col(alpha, xi), contracted in
O(X^2 + A X); a dense (A, X, A, X) table, as read from an .npz, is
factored once by KernelSet.from_dense into a sum of such terms.  Terms
may share the same table (the SVIR model uses a single spatial kernel
for all couplings), and a shared table is contracted once per sweep.
Kernel values are taken in consistent rate units per (age * length); no
normalization is applied.
"""

from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

from .errors import NonFinite, ShapeMismatch
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


@dataclass(frozen=True)
class KernelTerm:
    """One coupling k^{hij}(a, x, alpha, xi) = weight * table."""

    h: int
    i: int
    j: int
    weight: float
    table: FactoredTable  # dense tables enter through KernelSet.from_dense


_FACTOR_RTOL = 1e-14  # cross approximation: residual bound relative to max |k|


def _cross_factors(tab: np.ndarray, tol: float) -> List[FactoredTable]:
    """A dense (A, X, A, X) table as a sum of FactoredTables.

    Cross approximation with complete pivoting (Bebendorf 2000), batched
    over xi: in each slice R = k(., ., ., xi), an (A X) x A matrix whose
    largest |R[p, q]| exceeds tol, a component subtracts R[:, q] R[p, :]
    / R[p, q], clearing column q, so at most A components are taken.  A
    row equal at every age is stored as (X, X), a column of ones as None.
    """
    A, X = tab.shape[:2]
    res = np.array(np.moveaxis(tab, 3, 0), order="C").reshape(X, A * X, A)  # (xi, (a, x), alpha)
    work = np.empty_like(res)  # |res|, then the component; one buffer
    xi = np.arange(X)
    out = []
    for _ in range(A):
        mag = np.abs(res, out=work).reshape(X, -1)
        best = mag.argmax(axis=1)
        live = mag[xi, best] > tol
        if not live.any():
            break
        p, q = np.divmod(best, A)
        pivot = np.where(live, res[xi, p, q], 1.0)
        u = np.where(live[:, None], res[xi, :, q], 0.0)
        v = np.where(live[:, None], res[xi, p] / pivot[:, None], 1.0)
        res -= np.multiply(u[:, :, None], v[:, None, :], out=work)
        row, col = u.T.reshape(A, X, X), None if (v == 1.0).all() else v.T
        out.append(FactoredTable(row[0] if (row == row[0]).all() else row, col, A))
    return out


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
    def from_dense(cls, k7: np.ndarray) -> "KernelSet":
        """Terms of a dense (n, n, n, na+1, nx, na+1, nx) table: one per
        cross-approximation component of each nonzero (h, i, j) table,
        raising NonFinite for a table holding NaN or inf."""
        n = k7.shape[0]
        terms = []
        for h, i, j in np.ndindex(n, n, n):
            tab = k7[h, i, j]
            if not np.any(tab):
                continue
            scale = np.max(np.abs(tab))
            if not np.isfinite(scale):
                raise NonFinite(f"kernel table (h={h}, i={i}, j={j}) contains NaN/inf")
            for table in _cross_factors(tab, _FACTOR_RTOL * scale):
                terms.append(KernelTerm(h, i, j, 1.0, table))
        return cls(n=n, terms=terms)

    def check_shape(self, m: Mesh, n: int) -> None:
        """ShapeMismatch, naming the term, unless every term couples
        compartments in [0, n) through a FactoredTable on the mesh."""
        A, X = m.na + 1, m.nx
        if self.n != n:
            raise ShapeMismatch(f"kernels are for n={self.n}, the model has n={n}")
        for t in self.terms:
            tab, name = t.table, f"kernel term (h={t.h}, i={t.i}, j={t.j})"
            if not all(0 <= c < n for c in (t.h, t.i, t.j)):
                raise ShapeMismatch(f"{name}: compartment index outside [0, {n})")
            if not isinstance(tab, FactoredTable):
                raise ShapeMismatch(f"{name}: not a FactoredTable, see KernelSet.from_dense")
            col = (A, X) if tab.col is None else tab.col.shape  # None: constant in alpha
            if (tab.ages, col) != (A, (A, X)) or tab.row.shape not in ((X, X), (A, X, X)):
                raise ShapeMismatch(f"{name}: row {tab.row.shape}, col {col} not on the mesh")


def _at_alpha_zero(table: FactoredTable) -> np.ndarray:
    """k(a, x, 0, xi): (A, X, X), or (X, X) for a row without a."""
    return table.row if table.col is None else table.row * table.col[0]


def _age_derivatives(table: FactoredTable, m: Mesh) -> List[FactoredTable]:
    """(d/da + d/dalpha) k as a list of tables, empty when k has no age.

    A factored table knows its age dependence: (d_a row) col when row
    depends on a, plus row (d_alpha col) when col is given.
    """
    def d_age(f):
        return np.gradient(f, m.da, axis=0, edge_order=2)

    out = []
    if table.row.ndim == 3:
        out.append(FactoredTable(d_age(table.row), table.col, table.ages))
    if table.col is not None:
        out.append(FactoredTable(table.row, d_age(table.col), table.ages))
    return out


def attach_tilde(k: KernelSet, beta0: np.ndarray, m: Mesh) -> KernelSet:
    """k with its tilde terms for Lambda_1 derived from k.terms and beta0.

    The solvers call this once per solve; any tilde_terms k already
    holds are replaced.  The age derivative (d/da + d/dalpha) of each
    table uses centered differences (see _age_derivatives).  The
    boundary-renewal part k^{hil}(a, x, 0, xi) beta0^{lj}(alpha, xi) is
    a FactoredTable with row k(a, x, 0, xi).  Terms sharing a table
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


def _integrate(table: FactoredTable, f: np.ndarray) -> np.ndarray:
    """sum over (alpha, xi) of k(a, x, alpha, xi) f(alpha, xi).

    Returns (A, X), or (X,) for a table constant in a.
    """
    s = f.sum(axis=0) if table.col is None else np.einsum("bz,bz->z", table.col, f)
    return table.row @ s


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
