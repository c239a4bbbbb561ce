"""Per-time-slice state storage and the discrete norms used everywhere.

A state slice holds the compartment densities y(a, x) together with the
transport derivative dy = (d/dt + d/da) y on the same nodes.  Norms are
trapezoid quadratures of the L2(age x space) and L2(age, H1(space))
integrands; the spatial derivative uses central differences with
second-order one-sided stencils at the boundary.
"""

from dataclasses import dataclass
from typing import Sequence

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

    @property
    def n(self) -> int:
        return self.values.shape[0]

    def copy(self) -> "StateField":
        return StateField(self.values.copy(), self.slope.copy())

    def check_shape(self, m: Mesh) -> None:
        want = (self.values.shape[0], m.na + 1, m.nx)
        if self.values.shape != want:
            raise ShapeMismatch(f"values shape {self.values.shape} != {want}")
        if self.slope.shape != want:
            raise ShapeMismatch(f"slope shape {self.slope.shape} != {want}")


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


def norm_H(v: np.ndarray, m: Mesh) -> float:
    """Discrete L2 norm over (age, space), summed over compartments."""
    if v.shape[-2:] != (m.na + 1, m.nx):
        raise ShapeMismatch(f"field shape {v.shape} does not match mesh")
    return float(np.sqrt(age_weights(m) @ (v * v).sum(0) @ space_weights(m)))


def space_gradient(v: np.ndarray, m: Mesh) -> np.ndarray:
    """d/dx along the last axis; one-sided second order at the ends."""
    return np.gradient(v, m.dx, axis=-1, edge_order=2)


def norm_V(v: np.ndarray, m: Mesh) -> float:
    """Discrete L2(age, H1(space)) norm."""
    if v.shape[-1] != m.nx or m.nx < 3:
        raise ShapeMismatch("need nx >= 3 matching the mesh")
    if v.shape[-2:] != (m.na + 1, m.nx):
        raise ShapeMismatch(f"field shape {v.shape} does not match mesh")
    g = space_gradient(v, m)
    return float(np.sqrt(age_weights(m) @ (v * v + g * g).sum(0) @ space_weights(m)))


def age_integral(values: np.ndarray, m: Mesh) -> np.ndarray:
    """Trapezoid integral over age: (n, na+1, nx) -> (n, nx)."""
    return np.einsum("iax,a->ix", values, age_weights(m))


def diff_norms(
    run_a: Sequence[StateField], run_b: Sequence[StateField], m: Mesh
) -> NormReport:
    """Norms of the slice-wise difference between two stored runs.

    Both runs must hold the same number of slices with equal shapes.
    Time integrals use trapezoid weights over the stored times of run_a,
    its time indices times dt; a plain list of slices counts as
    consecutive steps.
    """
    if len(run_a) != len(run_b):
        raise LengthMismatch(f"runs of length {len(run_a)} vs {len(run_b)}")
    if len(run_a) == 0:
        return NormReport()
    sup_v = 0.0
    sup_h = 0.0
    sup_abs = 0.0
    h_sq = []
    v_sq = []
    for sa, sb in zip(run_a, run_b):
        if sa.values.shape != sb.values.shape:
            raise ShapeMismatch("slice shapes differ between runs")
        dv = sa.values - sb.values
        nv = norm_V(dv, m)
        nh = norm_H(dv, m)
        sup_v = max(sup_v, nv)
        sup_abs = max(sup_abs, float(np.max(np.abs(dv))))
        v_sq.append(nv * nv)
        h_sq.append(nh * nh)
        sup_h = max(sup_h, norm_H(sa.slope - sb.slope, m))
    # Trapezoid in time; integer index gaps keep uniform weights exact.
    gaps = np.diff(getattr(run_a, "indices", range(len(run_a))))
    wt = np.zeros(len(run_a))
    wt[:-1] += 0.5 * gaps
    wt[1:] += 0.5 * gaps
    wt *= m.dt
    return NormReport(
        l2_H=float(np.sqrt(np.dot(wt, h_sq))),
        h1_V=float(np.sqrt(np.dot(wt, v_sq))),
        sup_t_V=sup_v,
        sup_t_H_slope=sup_h,
        sup_abs=sup_abs,
    )
