"""Spatial, local and nonlocal operators of the model.

Covers the mirror-point Neumann Laplacian, the linear coefficient tables
L / dL/da / sigma, the mixing operator Lambda built from kernel terms,
its transport derivative (the kernel's age derivative Lambda_1 and the
age-zero boundary term Lambda_2, k(a, x, 0, xi) against the newborn
source), and the boundary operator G.

Kernels are stored as a sparse list of terms: each term couples one
(target h, multiplied i, integrated j) compartment triple through a
scalar table k(a, x, alpha, xi) and a weight.  Every table is a
FactoredTable, k = row(a, x, xi) * col(alpha, xi), integrated in
O(X^2 + A X); a dense table, read from an .npz one at a time, is
factored once by KernelSet.from_tables into a sum of such terms.
Lambda is applied, never assembled: each (table, j) column, distinct up
to scale, is integrated once per field into r_q (lambda_op), and an
(n, n) coupling matrix C_q per column holds its terms' weights, so
Lambda(w) z = sum_q r_q (C_q z) (couple, mix).  Kernel values are in
rate units per (age * length).
"""

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

import numpy as np

from .errors import NonFinite, ShapeMismatch
from .fields import StateField, node_weights
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


def neumann_modes(m: Mesh) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The eigenbasis of neumann_matrix in closed form: (V, lam, V_inv)
    with neumann_matrix(m) @ V = V * lam and V_inv @ V = I.

    V[j, k] = cos(pi j k / N) and lam_k = -4 sin^2(pi k / (2 N)) / dx^2
    for N = nx - 1, and V^-1 = (2 / N) W V W with W = diag(1/2, 1, ...,
    1, 1/2) (the DCT-I).  Built from cos and sin alone, with no LAPACK
    routine on an (nx, nx) matrix.
    """
    N = m.nx - 1
    k = np.arange(m.nx)
    V = np.cos(np.pi * (np.outer(k, k) % (2 * N)) / N)  # the phase j k reduced exactly
    lam = -4.0 * np.sin(np.pi * k / (2 * N)) ** 2 / m.dx**2
    wt = np.ones(m.nx)
    wt[0] = wt[-1] = 0.5
    return V, lam, (2.0 / N) * wt[:, None] * V * wt


# Bytes per batched inverse: all mode blocks up to na = 80, nx = 81 fit in one.
_INVERT_CHUNK_BYTES = 1 << 20


def invert_in_place(mats: np.ndarray) -> Optional[int]:
    """Overwrite each matrix M of the (k, d, d) stack mats by its inverse.

    The one rule for a numerically singular system: inversion fails, or
    max|M^-1| max(max|M|, 1) exceeds 1e14.  Returns the index of the
    first such matrix, or None; the matrices before it are overwritten
    and the rest left as they are.  Chunks of _INVERT_CHUNK_BYTES bound
    the inverses held next to the stack.
    """
    size = max(1, _INVERT_CHUNK_BYTES // max(mats[:1].nbytes, 1))
    for start in range(0, len(mats), size):
        chunk = mats[start : start + size]
        scale = np.maximum(np.max(np.abs(chunk), axis=(-2, -1)), 1.0)
        inv = batched_or_nan(np.linalg.inv, chunk)
        ok = np.max(np.abs(inv), axis=(-2, -1)) * scale <= 1e14  # False for NaN / inf
        bad = None if ok.all() else int(np.argmin(ok))
        chunk[:bad] = inv[:bad]
        if bad is not None:
            return start + bad
    return None


def batched_or_nan(solve, *stacks: np.ndarray) -> np.ndarray:
    """solve (np.linalg.inv or np.linalg.solve) of the stacked systems in
    one batched call; if one is exactly singular, system by system, with
    NaN for the answer of each such system."""
    try:
        return solve(*stacks)
    except np.linalg.LinAlgError:
        if stacks[0].ndim > 2:
            return np.stack([batched_or_nan(solve, *system) for system in zip(*stacks)])
        return stacks[-1] * np.nan


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


def _scale(a, b) -> Optional[float]:
    """c with table b = c a (1.0 when b is a), or None.  Only FactoredTables
    on the same shapes compare: rows proportional, and cols proportional or
    both None, each to _FACTOR_RTOL of the larger factor's largest entry."""
    if a is b:
        return 1.0
    if not (isinstance(a, FactoredTable) and isinstance(b, FactoredTable)) or (
        (a.ages, a.row.shape, a.col is None) != (b.ages, b.row.shape, b.col is None)
    ):
        return None  # a table of another kind is check_shape's to name
    c = 1.0
    for f, g in ((a.row, b.row), (a.col, b.col)):
        if f is not None:
            p = np.argmax(np.abs(f))
            r = g.flat[p] / f.flat[p] if f.flat[p] else np.nan
            bound = _FACTOR_RTOL * max(abs(f.flat[p]), np.max(np.abs(g)))
            if not np.max(np.abs(g - r * f)) <= bound:
                return None
            c *= r
    return c


def _columns(terms: List[KernelTerm], first: int = 0) -> Tuple[list, list]:
    """The (table, j) columns of terms, distinct up to scale, and each
    term's (first + column, h, i, weight): a term whose table is c times a
    listed table on the same j (_scale) enters its column with c * weight."""
    tables, entries = [], []
    for t in terms:
        for q, (table, j) in enumerate(tables):
            c = _scale(table, t.table) if j == t.j else None
            if c is not None:
                break
        else:
            q, c = len(tables), 1.0
            tables.append((t.table, t.j))
        entries.append((first + q, t.h, t.i, c * t.weight))
    return tables, entries


@dataclass
class KernelSet:
    """Sparse collection of kernel terms plus the derived tilde terms.

    terms are the model's kernel.  tilde_terms realize the kernel of the
    Lambda_1 correction, the age derivative k_a + k_alpha; they follow
    from terms alone, so only attach_tilde fills them, and the solvers
    call it once per solve.  The compartment count is not stored: each
    contraction reads it from the field it contracts.

    Construction indexes the terms once: tables holds the Q (table, j)
    columns of terms distinct up to scale (_columns), tilde_tables the Q~
    of tilde_terms, integrated the distinct j of tables; see couplings.
    """

    terms: List[KernelTerm] = field(default_factory=list)
    tilde_terms: List[KernelTerm] = field(default_factory=list)

    def __post_init__(self):
        self.tables, entries = _columns(self.terms)
        self.tilde_tables, tilde = _columns(self.tilde_terms, len(self.tables))
        self._entries = entries + tilde
        self.integrated = np.array(sorted({j for _, j in self.tables}), dtype=int)
        self._couplings: dict = {}  # n -> couplings(n)

    def couplings(self, n: int) -> np.ndarray:
        """The read-only (Q + Q~, n, n) coupling matrices of tables, then of
        tilde_tables, built once per n: C_q[h, i] sums the weights of column
        q's terms (h, i); ShapeMismatch for an h or i >= n."""
        if n not in self._couplings:
            out = np.zeros((len(self.tables) + len(self.tilde_tables), n, n))
            for q, h, i, w in self._entries:
                if not (0 <= h < n and 0 <= i < n):
                    raise ShapeMismatch(f"kernel terms index compartments beyond the field's {n}")
                out[q, h, i] += w
            out.flags.writeable = False
            self._couplings[n] = out
        return self._couplings[n]

    @classmethod
    def from_dense(cls, k7: np.ndarray) -> "KernelSet":
        """Terms of a dense (n, n, n, na+1, nx, na+1, nx) table (from_tables)."""
        n = len(k7)
        return cls.from_tables(n, (k7[hij] for hij in np.ndindex(n, n, n)))

    @classmethod
    def from_tables(cls, n: int, tables) -> "KernelSet":
        """Terms of the n^3 (na+1, nx, na+1, nx) tables k^{hij}, taken one
        at a time from tables in C order of (h, i, j): one per
        cross-approximation component of each nonzero table, raising
        NonFinite for a table holding NaN or inf."""
        terms = []
        for (h, i, j), tab in zip(np.ndindex(n, n, n), tables, strict=True):
            if not np.any(tab):
                continue
            scale = np.max(np.abs(tab))
            if not np.isfinite(scale):
                raise NonFinite(f"kernel table (h={h}, i={i}, j={j}) contains NaN/inf")
            for table in _cross_factors(tab, _FACTOR_RTOL * scale):
                terms.append(KernelTerm(h, i, j, 1.0, table))
        return cls(terms=terms)

    def check_shape(self, m: Mesh, n: int) -> None:
        """ShapeMismatch, naming the term, unless every term couples
        compartments in [0, n) through a FactoredTable on the mesh."""
        A, X = m.na + 1, m.nx
        for t in self.terms:
            tab, name = t.table, f"kernel term (h={t.h}, i={t.i}, j={t.j})"
            if not all(0 <= c < n for c in (t.h, t.i, t.j)):
                raise ShapeMismatch(f"{name}: compartment index outside [0, {n})")
            if not isinstance(tab, FactoredTable):
                raise ShapeMismatch(f"{name}: not a FactoredTable, see KernelSet.from_dense")
            col = (A, X) if tab.col is None else tab.col.shape  # None: constant in alpha
            if (tab.ages, col) != (A, (A, X)) or tab.row.shape not in ((X, X), (A, X, X)):
                raise ShapeMismatch(f"{name}: row {tab.row.shape}, col {col} not on the mesh")


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


def attach_tilde(k: KernelSet, m: Mesh) -> KernelSet:
    """k with its tilde terms for Lambda_1 derived from k.terms.

    The solvers call this once per solve; any tilde_terms k already
    holds are replaced.  The age derivative (d/da + d/dalpha) of each
    table uses centered differences (see _age_derivatives); terms
    sharing a table share its derivative tables.
    """
    tilde: List[KernelTerm] = []
    derivs: dict = {}  # id(table) -> its derivative tables
    for t in k.terms:
        key = id(t.table)
        if key not in derivs:
            derivs[key] = _age_derivatives(t.table, m)
        tilde.extend(KernelTerm(t.h, t.i, t.j, t.weight, d) for d in derivs[key])
    return KernelSet(terms=list(k.terms), tilde_terms=tilde)


def _integrate(table: FactoredTable, f: np.ndarray, m: Mesh) -> np.ndarray:
    """Trapezoid sum of k(a, x, alpha, xi) f(alpha, xi) of the (..., A, X) f."""
    f = f * node_weights(m)[0]
    s = f.sum(axis=-2) if table.col is None else np.einsum("bz,...bz->...z", table.col, f)
    return (table.row @ s[..., None, :, None])[..., 0]  # (..., A or 1, X)


def _column_integrals(tables: list, f: np.ndarray, integral) -> np.ndarray:
    """Each (table, j) column's integral against f[..., j, :, :]: (..., Q, A or 1, X)."""
    if not tables:
        return np.zeros(f.shape[:-3] + (0, 1, f.shape[-1]))
    try:
        gs = [integral(table, f[..., j, :, :]) for table, j in tables]
    except IndexError:
        n = f.shape[-3]
        raise ShapeMismatch(f"kernel terms index compartments beyond the field's {n}") from None
    return gs[0][..., None, :, :] if len(gs) == 1 else np.stack(np.broadcast_arrays(*gs), -3)


def lambda_op(k: KernelSet, w: np.ndarray, m: Mesh) -> np.ndarray:
    """The integrals r of Lambda(w), (Q, na+1, nx), or (Q, 1, nx) when no
    table depends on a: column (table, j) of k integrates w_j over (alpha,
    xi), trapezoid weights, for an (n, na+1, nx) or (M, n, na+1, nx) w.
    Lambda(w) z is mix(r, couple(k, z))."""
    if w.ndim not in (3, 4) or w.shape[-2:] != (m.na + 1, m.nx):
        raise ShapeMismatch(f"field shape {w.shape} is not (n, na+1, nx)")
    return _column_integrals(k.tables, w, lambda tab, f: _integrate(tab, f, m))


def lambda_one(k: KernelSet, w: np.ndarray, m: Mesh) -> np.ndarray:
    """Lambda_1: the same integrals over the tilde tables."""
    return _column_integrals(k.tilde_tables, w, lambda tab, f: _integrate(tab, f, m))


def lambda_two(k: KernelSet, src: np.ndarray, m: Mesh) -> np.ndarray:
    """Lambda_2: each column's xi-only integral of k(a, x, 0, xi) = row
    col(0) against the (n, nx) newborn source src (birth.newborn_source)."""
    return _column_integrals(k.tables, (src * space_weights(m))[..., None, :], lambda t, s: (
        (t.row if t.col is None else t.row * t.col[0]) @ s[..., None])[..., 0])


def couple(k: KernelSet, z: np.ndarray) -> np.ndarray:
    """C_q z for every coupling matrix of k (KernelSet.couplings), in one
    product: (..., Q + Q~, n, A, X) of the (..., n, A, X) field z."""
    c = k.couplings(z.shape[-3])
    lead, node = z.shape[:-3], z.shape[-2:]
    return (c @ z.reshape(lead + (1, z.shape[-3], -1))).reshape(lead + c.shape[:2] + node)


def mix(r: np.ndarray, cz: np.ndarray) -> np.ndarray:
    """sum_q r_q (C_q z), (..., n, A, X), over the columns of the integrals
    r (lambda_op) and the first as many of cz = couple(k, z)."""
    if not r.shape[-3]:
        return np.zeros(cz.shape[:-4] + cz.shape[-3:])
    out = r[..., 0, None, :, :] * cz[..., 0, :, :, :]
    for q in range(1, r.shape[-3]):
        out += r[..., q, None, :, :] * cz[..., q, :, :, :]
    return out


def delta_lambda_apply(
    k: KernelSet, lam: np.ndarray, cy: np.ndarray, y: StateField, src: Optional[np.ndarray], m: Mesh
) -> np.ndarray:
    """Transport derivative Lambda(y) dy + (Lambda(dy) + Lambda_1(y) +
    Lambda_2(src)) y of the mixing term Lambda(y) y, (n, na+1, nx).

    lam = lambda_op(k, y.values, m) and cy = couple(k, y.values) are the
    caller's, k carries its tilde terms (attach_tilde) and src is
    birth.newborn_source of y.values, None where zero on every integrated
    j; Lambda_1 is skipped without tilde tables."""
    on_values = lambda_op(k, y.slope, m)
    if src is not None:
        on_values = on_values + lambda_two(k, src, m)
    out = mix(lam, couple(k, y.slope)) + mix(on_values, cy)
    if k.tilde_tables:
        out += mix(lambda_one(k, y.values, m), cy[..., len(k.tables):, :, :, :])
    return out


def fold_ages(beta: np.ndarray, m: Mesh) -> tuple:
    """The (na+1, nx, n, n) table beta times the age weights per node, on
    its live rows, columns (j, alpha): age_apply of it is int beta f."""
    folded = (age_weights(m)[:, None, None, None] * beta).transpose(1, 2, 3, 0)
    return live_rows(folded.reshape(beta.shape[1], beta.shape[2], -1))


def live_rows(table: np.ndarray) -> tuple:
    """(rows, table[:, rows]) of the (nx, n, c) per-node table: the rows a
    product with it reaches, where it is not zero; a slice for all n."""
    rows = np.flatnonzero(table.any(axis=(0, 2)))
    return slice(None) if len(rows) == table.shape[1] else rows, table[:, rows]


def age_apply(folded: Optional[tuple], f: np.ndarray) -> np.ndarray:
    """int beta f, (..., n, nx), of the (..., n, r, nx) f for beta folded
    per node on its live rows (fold_ages, birth_context): one product with
    f per node, rows (i, a), on those rows; zero elsewhere or for None."""
    out = np.zeros(f.shape[:-2] + f.shape[-1:])
    if folded is not None:
        n, r, X = f.shape[-3:]
        per_node = f.swapaxes(-1, -3).swapaxes(-1, -2).reshape(f.shape[:-3] + (X, n * r, 1))
        out[..., folded[0], :] = (folded[1] @ per_node)[..., 0].swapaxes(-1, -2)
    return out


def g_op(
    k: KernelSet, beta1, mixed: np.ndarray, lam: np.ndarray, src: np.ndarray, m: Mesh
) -> np.ndarray:
    """Boundary operator feeding the first-order birth law: the (n, nx)
    int_alpha beta1 Lambda(alpha, y) y(alpha) - Lambda(0, y) src of the
    values y, from the sweep's mixed = Lambda(y) y, lam = lambda_op(k, y,
    m), src (birth.newborn_source) and beta1 folded by fold_ages.  It
    integrates no table and does not read m.
    """
    at_zero = mix(lam[..., :1, :], couple(k, src[..., None, :]))[..., 0, :]
    return age_apply(beta1, mixed) - at_zero
