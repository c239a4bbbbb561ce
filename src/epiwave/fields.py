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

    def copy(self) -> "StateField":
        return StateField(self.values.copy(), self.slope.copy())


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


def _root_quadrature(sq: np.ndarray, m: Mesh):
    """sqrt of the trapezoid integral of sq over (age, space), summed
    over compartments: a float for an (n, na+1, nx) field, one value per
    member of a (b, n, na+1, nx) batch, each bit-identical to its own."""
    r = np.sqrt(((age_weights(m) @ sq.sum(-3))[..., None, :] @ space_weights(m))[..., 0])
    return float(r) if r.ndim == 0 else r


def _checked(v: np.ndarray, m: Mesh) -> np.ndarray:
    if v.ndim not in (3, 4) or v.shape[-2:] != (m.na + 1, m.nx):
        raise ShapeMismatch(f"field shape {v.shape} does not match mesh")
    return v


def norm_H(v: np.ndarray, m: Mesh):
    """Discrete L2 norm over (age, space), summed over compartments; a
    leading batch axis gives one norm per member."""
    return _root_quadrature(_checked(v, m) ** 2, m)


def space_gradient(v: np.ndarray, m: Mesh) -> np.ndarray:
    """d/dx along the last axis; one-sided second order at the ends."""
    return np.gradient(v, m.dx, axis=-1, edge_order=2)


def norm_V(v: np.ndarray, m: Mesh):
    """Discrete L2(age, H1(space)) norm; batched like norm_H."""
    return _root_quadrature(_checked(v, m) ** 2 + space_gradient(v, m) ** 2, m)


def age_integral(values: np.ndarray, m: Mesh) -> np.ndarray:
    """Trapezoid integral over age: (n, na+1, nx) -> (n, nx)."""
    return np.einsum("iax,a->ix", values, age_weights(m))


def diff_norms(
    run_a: Sequence[StateField], run_b: Sequence[StateField], m: Mesh
) -> NormReport:
    """Norms of the slice-wise difference between two stored runs.

    Both runs must hold the same number of slices with equal shapes,
    and when both carry time indices these must agree.  Time integrals
    use trapezoid weights over the stored times of run_a, its time
    indices times dt; a plain list of slices counts as consecutive steps
    and as aligned with the other operand.
    """
    if len(run_a) != len(run_b):
        raise LengthMismatch(f"runs of length {len(run_a)} vs {len(run_b)}")
    ia, ib = getattr(run_a, "indices", None), getattr(run_b, "indices", None)
    if ia is not None and ib is not None and list(ia) != list(ib):
        raise LengthMismatch(f"runs stored at steps {list(ia)} vs {list(ib)}")
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
