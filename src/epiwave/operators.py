"""Spatial, local and nonlocal operators of the model.

Covers the mirror-point Neumann Laplacian, the linear coefficient tables
L / dL/da / sigma, the mixing operator Lambda built from kernel terms,
its transport derivative (with the kernel-derivative and boundary-source
corrections), and the bilinear boundary operator G.

Kernels are stored as a sparse list of terms: each term couples one
(target h, multiplied i, integrated j) compartment triple through a
scalar table k(a, x, alpha, xi) and a weight.  Terms may share the same
table (the SVIR model uses a single spatial kernel for all couplings),
which keeps storage linear in the number of couplings.  Kernel values
are taken in consistent rate units per (age * length); no normalization
is applied.
"""

from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

from .errors import MissingSlope, ShapeMismatch
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


@dataclass(frozen=True)
class KernelTerm:
    """One coupling k^{hij}(a, x, alpha, xi) = weight * table."""

    h: int
    i: int
    j: int
    weight: float
    table: np.ndarray  # (na+1, nx, na+1, nx), possibly a broadcast view


@dataclass
class KernelSet:
    """Sparse collection of kernel terms plus the derived tilde terms.

    tilde_terms realize the kernel of the Lambda_1 correction:
    k_a + k_alpha + sum_l k(alpha=0) * beta0, built by attach_tilde.
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
            out[t.h, t.i, t.j] += t.weight * t.table
        return out


def attach_tilde(k: KernelSet, beta0: np.ndarray, m: Mesh) -> KernelSet:
    """Precompute the tilde kernel terms for Lambda_1.

    The age derivative (d/da + d/dalpha) of each table uses centered
    differences; a table equal to its age-zero slices at every age pair
    has no derivative term.
    """
    tilde: List[KernelTerm] = []
    derivs: dict = {}  # one derivative per distinct table
    for t in k.terms:
        key = id(t.table)
        if key not in derivs:
            tab, dtab = t.table, None
            if not np.array_equal(tab, np.broadcast_to(tab[:1, :, :1, :], tab.shape)):
                dtab = np.gradient(tab, m.da, axis=0, edge_order=2)
                dtab += np.gradient(tab, m.da, axis=2, edge_order=2)
            derivs[key] = dtab
        dtab = derivs[key]
        if dtab is not None and np.any(dtab):
            tilde.append(KernelTerm(t.h, t.i, t.j, t.weight, dtab))
        # Boundary-renewal part: k^{hil}(a, x, 0, xi) * beta0^{lj}(alpha, xi).
        row = t.table[:, :, 0, :]  # (A, X, X)
        for j in range(k.n):
            b = beta0[:, :, t.j, j]  # (A, X) over (alpha, xi)
            if not np.any(b):
                continue
            tab = np.einsum("axz,bz->axbz", row, b)
            tilde.append(KernelTerm(t.h, t.i, j, t.weight, tab))
    return KernelSet(n=k.n, terms=list(k.terms), tilde_terms=tilde)


def _weighted(w, m: Mesh) -> np.ndarray:
    v = w.values if isinstance(w, StateField) else np.asarray(w)
    wa = age_weights(m)
    wx = space_weights(m)
    return v * wa[None, :, None] * wx[None, None, :]


def _contract(terms: List[KernelTerm], wq: np.ndarray, n: int) -> np.ndarray:
    A, X = wq.shape[1], wq.shape[2]
    out = np.zeros((n, n, A, X))
    cache: dict = {}
    for t in terms:
        key = (id(t.table), t.j)
        g = cache.get(key)
        if g is None:
            g = np.einsum("axbz,bz->ax", t.table, wq[t.j])
            cache[key] = g
        out[t.h, t.i] += t.weight * g
    return out


def lambda_op(k: KernelSet, w, m: Mesh) -> np.ndarray:
    """Mixing matrix field Lambda(a, x, w), shape (n, n, na+1, nx).

    Entry (h, i) integrates w_j against k^{hij} over (alpha, xi) with
    trapezoid weights.  w may be a StateField or a raw (n, na+1, nx)
    array.
    """
    wq = _weighted(w, m)
    if wq.shape != (k.n, m.na + 1, m.nx):
        raise ShapeMismatch(f"field shape {wq.shape} does not match kernels")
    return _contract(k.terms, wq, k.n)


def lambda_one(k: KernelSet, w, m: Mesh) -> np.ndarray:
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
            g = np.einsum("axz,z->ax", t.table[:, :, 0, :], g0[t.j] * wx)
            cache[key] = g
        out[t.h, t.i] += t.weight * g
    return out


def apply_matrix_field(mat: np.ndarray, f: np.ndarray) -> np.ndarray:
    """Contract an (n, n, A, X) matrix field with an (n, A, X) field."""
    return np.einsum("hiax,iax->hax", mat, f)


def delta_lambda_apply(
    k: KernelSet,
    v: StateField,
    g0: Optional[np.ndarray],
    w: StateField,
    m: Mesh,
) -> np.ndarray:
    """Transport derivative of the mixing term applied to w.

    Evaluates Lambda(v) dw + Lambda(dv) w + Lambda_1(v) w + Lambda_2(g0) w
    and returns the (n, na+1, nx) field.  Both argument fields must carry
    slopes.
    """
    if v.slope is None or w.slope is None:
        raise MissingSlope("delta_lambda_apply needs populated slopes")
    out = apply_matrix_field(lambda_op(k, v.values, m), w.slope)
    out += apply_matrix_field(lambda_op(k, v.slope, m), w.values)
    if k.tilde_terms:
        out += apply_matrix_field(lambda_one(k, v.values, m), w.values)
    if g0 is not None and np.any(g0):
        out += apply_matrix_field(lambda_two(k, g0, m), w.values)
    return out


def g_op(
    k: KernelSet,
    beta0: np.ndarray,
    beta1: np.ndarray,
    v,
    w,
    g0: Optional[np.ndarray],
    m: Mesh,
) -> np.ndarray:
    """Bilinear boundary operator feeding the first-order birth law.

    Returns the (n, nx) slice
      int_alpha (beta1 Lambda(alpha, v) - Lambda(0, v) beta0) w(alpha)
      - Lambda(0, v) g0,
    nonlocal in v and linear in (w, g0).
    """
    vv = v.values if isinstance(v, StateField) else np.asarray(v)
    wv = w.values if isinstance(w, StateField) else np.asarray(w)
    if vv.shape != wv.shape:
        raise ShapeMismatch("v and w shapes differ")
    lam = lambda_op(k, vv, m)  # (n, n, A, X)
    lam0 = lam[:, :, 0, :]  # (n, n, X)
    t1 = np.einsum("bxhi,ijbx,jbx->hbx", beta1, lam, wv)
    t2 = np.einsum("hix,bxij,jbx->hbx", lam0, beta0, wv)
    out = np.einsum("b,hbx->hx", age_weights(m), t1 - t2)
    if g0 is not None and np.any(g0):
        out -= np.einsum("hix,ix->hx", lam0, g0)
    return out

