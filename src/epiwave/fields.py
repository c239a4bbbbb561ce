"""Stored runs, their state slices and the discrete norms used everywhere.

A state slice holds the compartment densities y(a, x) together with the
transport derivative dy = (d/dt + d/da) y on the same nodes.  A Run
stores the slices a solve keeps as two stacked (S, n, na+1, nx) arrays,
and every reader slices those stacks.  Norms are trapezoid quadratures
of the L2(age x space) and L2(age, H1(space)) integrands; the spatial
derivative uses central differences with second-order one-sided
stencils at the boundary.  The H1 norm's space part is one quadratic
form per mesh, K_V = W_x + D^T W_x D, and the node weights are cached
per mesh: a norm call does one product with each and differences nothing.
"""

from collections.abc import Sequence
from dataclasses import dataclass
from functools import lru_cache
from typing import List

import numpy as np

from .errors import LengthMismatch, ShapeMismatch
from .mesh import Mesh, age_weights, space_weights


@dataclass
class StateField:
    """Compartment densities and their transport derivative on one slice.

    values and slope are (n, na+1, nx) arrays.
    """

    values: np.ndarray
    slope: np.ndarray


@dataclass(eq=False)
class Run(Sequence):
    """The slices a solve stored, plus its diagnostics.

    values and slopes are (S, n, na+1, nx) stacks whose entry s is the
    slice at time step indices[s]; run[k] is a StateField view of entry
    k.  picard_updates holds, per committed time step, each sweep's
    fixed-point residual norm.  A batch Run of M members has (M, S, n,
    na+1, nx) stacks and member-major picard_updates (members()).
    """

    values: np.ndarray
    slopes: np.ndarray
    indices: List[int]
    mesh: Mesh
    picard_updates: List[List[float]]

    @property
    def times(self) -> List[float]:
        """The time of each stored slice."""
        return [i * self.mesh.dt for i in self.indices]

    def __len__(self) -> int:
        return len(self.indices)

    def __getitem__(self, k: int) -> StateField:
        return StateField(self.values[k], self.slopes[k])

    def members(self) -> List["Run"]:
        """The Run of each member of a batch Run, as views of its stacks."""
        nt = len(self.picard_updates) // len(self.values)
        return [Run(v, s, self.indices, self.mesh, self.picard_updates[j * nt:(j + 1) * nt])
                for j, (v, s) in enumerate(zip(self.values, self.slopes))]


@dataclass
class NormReport:
    """Norm summary of a run difference.

    l2_H / h1_V integrate the slice norms over time; sup_t_V and
    sup_t_H_slope are the C([0,T]) norms of the values (in H1) and of
    the slopes (in L2); sup_abs is the plain max over all grid points.
    """

    l2_H: float = 0.0
    h1_V: float = 0.0
    sup_t_V: float = 0.0
    sup_t_H_slope: float = 0.0
    sup_abs: float = 0.0


@lru_cache(maxsize=64)
def node_weights(m: Mesh, n: int = 1, space: bool = True) -> np.ndarray:
    """The read-only (n, na+1, nx) trapezoid weight of each (age, space)
    node of n compartments, or its age weight alone."""
    w = np.tile(age_weights(m)[:, None] * (space_weights(m) if space else np.ones(m.nx)), (n, 1, 1))
    w.flags.writeable = False
    return w


def space_gradient(v: np.ndarray, m: Mesh) -> np.ndarray:
    """d/dx along the last axis; one-sided second order at the ends."""
    return np.gradient(v, m.dx, axis=-1, edge_order=2)


@lru_cache(maxsize=64)
def _energy_matrix(m: Mesh) -> np.ndarray:
    """K_V = W_x + D^T W_x D, read-only, for W_x the space weights and D
    space_gradient's stencil matrix: v K_V v^T is the trapezoid integral
    of v^2 + (dv/dx)^2 over space."""
    wx = space_weights(m)
    dt = space_gradient(np.eye(m.nx), m)  # row k is the gradient of node k: D^T
    k = np.diag(wx) + dt @ (wx[:, None] * dt.T)
    k.flags.writeable = False
    return k


def _norm(v: np.ndarray, m: Mesh, energy: bool):
    """sqrt(sum v^2 w), or sqrt(sum (v K_V) v w), over the trailing (n, na+1,
    nx) of v in one product: a float, or per member a bit-identical one."""
    if v.ndim not in (3, 4) or v.shape[-2:] != (m.na + 1, m.nx):
        raise ShapeMismatch(f"field shape {v.shape} does not match mesh")
    sq = v @ _energy_matrix(m) * v if energy else v * v
    w = node_weights(m, v.shape[-3], not energy).reshape(-1)
    r = np.sqrt((sq.reshape(sq.shape[:-3] + (1, -1)) @ w)[..., 0])
    return float(r) if r.ndim == 0 else r


def norm_H(v: np.ndarray, m: Mesh):
    """Discrete L2 norm over (age, space), summed over compartments; a
    leading batch axis gives one norm per member."""
    return _norm(v, m, energy=False)


def norm_V(v: np.ndarray, m: Mesh):
    """Discrete L2(age, H1(space)) norm, sqrt(sum_a wa_a sum_h v K_V v^T)
    with the (nx, nx) K_V built once per mesh; batched like norm_H."""
    return _norm(v, m, energy=True)


def age_integral(values: np.ndarray, m: Mesh) -> np.ndarray:
    """Trapezoid integral over age: (..., na+1, nx) -> (..., nx)."""
    return np.einsum("...ax,a->...x", values, age_weights(m))


def diff_norms(run: Run, ref: Run) -> NormReport:
    """Norms of the difference between run and ref at run's stored steps.

    Both runs must be on one mesh.  ref must store every step run
    stores, so a reference stored at every step serves any run on its
    mesh.  Time integrals use trapezoid weights over run's stored times,
    its time indices times dt.
    """
    m = run.mesh
    if ref.mesh != m:
        raise ShapeMismatch(f"the reference's mesh {ref.mesh} is not the run's mesh {m}")
    where = {i: s for s, i in enumerate(ref.indices)}
    missing = [i for i in run.indices if i not in where]
    if missing:
        raise LengthMismatch(f"the reference does not store steps {missing}")
    if run.values.shape[1:] != ref.values.shape[1:]:
        raise ShapeMismatch("slice shapes differ between runs")
    at = [where[i] for i in run.indices]
    dv = run.values - ref.values[at]
    nv = norm_V(dv, m)
    nh = norm_H(dv, m)
    ns = norm_H(run.slopes - ref.slopes[at], m)
    # Trapezoid in time; integer index gaps keep uniform weights exact.
    gaps = np.diff(run.indices)
    wt = np.zeros(len(run))
    wt[:-1] += 0.5 * gaps
    wt[1:] += 0.5 * gaps
    wt *= m.dt
    return NormReport(
        l2_H=float(np.sqrt(np.dot(wt, nh * nh))),
        h1_V=float(np.sqrt(np.dot(wt, nv * nv))),
        sup_t_V=float(np.max(nv)),
        sup_t_H_slope=float(np.max(ns)),
        sup_abs=float(np.max(np.abs(dv))),
    )
