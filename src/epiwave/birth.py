"""Boundary values at age zero from the implicit birth laws.

With dt = da alignment the renewal history is exactly the current age
profile, so births are computed incrementally per time step: the
trapezoid over ages feeds the known part, and the alpha = 0 weight that
multiplies the unknown newborn value itself is moved to the left-hand
side and solved exactly per space node (a small n x n system).
"""

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import ShapeMismatch, SingularBirthSystem, SingularSigma
from .fields import StateField, space_gradient
from .mesh import Mesh, age_weights
from .operators import LinearPart

_SIGMA_FLOOR = 1e-14


@dataclass
class BirthLaws:
    """Birth coefficient tables plus optional explicit source series.

    The four tables are (na+1, nx, n, n); beta_grad holds the scalar
    x-component of the gradient coefficient (1-D space).  g0 / g1 are
    optional (nt+1, n, nx) series of explicit boundary sources.
    """

    beta0: np.ndarray
    beta1: np.ndarray
    betaL: np.ndarray
    beta_grad: np.ndarray
    g0: Optional[np.ndarray] = None
    g1: Optional[np.ndarray] = None

    def check_shape(self, m: Mesh, n: int) -> None:
        want = (m.na + 1, m.nx, n, n)
        for name in ("beta0", "beta1", "betaL", "beta_grad"):
            tab = getattr(self, name)
            if tab.shape != want:
                raise ShapeMismatch(f"{name} shape {tab.shape} != {want}")


@dataclass
class BirthValues:
    """Newborn value B0 and (when requested) newborn slope B1, (n, nx)."""

    B0: np.ndarray
    B1: Optional[np.ndarray] = None


def zero_laws(
    n: int,
    m: Mesh,
    g0: Optional[np.ndarray] = None,
    g1: Optional[np.ndarray] = None,
) -> BirthLaws:
    """Laws with all coefficient tables zero: births are g0 / g1 alone."""
    shape = (m.na + 1, m.nx, n, n)
    return BirthLaws(
        beta0=np.zeros(shape),
        beta1=np.zeros(shape),
        betaL=np.zeros(shape),
        beta_grad=np.zeros(shape),
        g0=g0,
        g1=g1,
    )


def make_compatible(
    beta: np.ndarray,
    linear: LinearPart,
    q1: float,
    q2: float,
    m: Mesh,
) -> BirthLaws:
    """Derive the first-order coefficient tables from a fertility table.

    beta0 = q1 * beta; beta1 = q2 * sigma(0) beta sigma(alpha)^-1;
    betaL = q2 * (sigma(0) Lap beta + sigma(0) beta sigma^-1 L - L(0) beta);
    beta_grad = q2 * 2 sigma(0) grad beta.  Spatial derivatives of beta
    use central differences and vanish exactly for x-independent tables.
    The returned laws carry no g-series.
    """
    sig = linear.sigma
    if np.any(np.abs(sig) < _SIGMA_FLOOR):
        raise SingularSigma("sigma entry below 1e-14; cannot form beta1")
    s0 = sig[0]  # (n,)
    base1 = s0[None, None, :, None] * beta / sig[:, None, None, :]
    if np.ptp(beta, axis=1).max() == 0.0:
        lap_b = np.zeros_like(beta)
        grad_b = np.zeros_like(beta)
    else:
        grad_b = np.gradient(beta, m.dx, axis=1, edge_order=2)
        lap_b = np.gradient(grad_b, m.dx, axis=1, edge_order=2)
    baseL = (
        s0[None, None, :, None] * lap_b
        + np.einsum("axhi,axij->axhj", base1, linear.L)
        - np.einsum("xhi,axij->axhj", linear.L[0], beta)
    )
    return BirthLaws(
        beta0=q1 * beta,
        beta1=q2 * base1,
        betaL=q2 * baseL,
        beta_grad=q2 * 2.0 * s0[None, None, :, None] * grad_b,
    )


def _solve_per_node(mats: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve (nx, n, n) systems against an (n, nx) right side."""
    try:
        sol = np.linalg.solve(mats, rhs.T[:, :, None])[:, :, 0].T
    except np.linalg.LinAlgError as exc:
        raise SingularBirthSystem(str(exc)) from None
    if not np.all(np.isfinite(sol)):
        raise SingularBirthSystem("birth system produced non-finite values")
    return sol


def solve_birth_step(
    laws: BirthLaws,
    y_slice: StateField,
    g0_now: Optional[np.ndarray],
    g1_now: Optional[np.ndarray],
    nonlinear_G: Optional[np.ndarray],
    m: Mesh,
    with_slope: bool = True,
) -> BirthValues:
    """Births at one time level from the (provisional) age profile.

    y_slice holds values and slopes at all ages; the a = 0 rows are
    treated as unknown.  B0 solves (I - w0 beta0(0)) B0 =
    trapz_{alpha>0}(beta0 y) + g0, and B1 solves the analogous system
    with beta1(0) on the left and the beta1 dy + betaL y + beta_grad
    dy/dx quadrature, the G term and g1 on the right; the alpha = 0
    contributions of betaL and beta_grad use the freshly solved B0.
    """
    vals = y_slice.values
    n = vals.shape[0]
    wa = age_weights(m)
    w0 = wa[0]
    eye = np.eye(n)

    def quad(tab, f):  # trapezoid over ages alpha > 0 of tab(alpha) f(alpha)
        return np.tensordot(wa[1:], np.einsum("axhi,iax->ahx", tab[1:], f[:, 1:]), 1)

    known0 = quad(laws.beta0, vals)
    if g0_now is not None:
        known0 = known0 + g0_now
    B0 = _solve_per_node(eye[None] - w0 * laws.beta0[0], known0)
    if not with_slope:
        return BirthValues(B0=B0)

    slope = y_slice.slope
    dvx = space_gradient(vals, m)
    known1 = quad(laws.beta1, slope)
    known1 += quad(laws.betaL, vals)
    known1 += quad(laws.beta_grad, dvx)
    known1 += w0 * np.einsum("xhi,ix->hx", laws.betaL[0], B0)
    known1 += w0 * np.einsum(
        "xhi,ix->hx", laws.beta_grad[0], space_gradient(B0, m)
    )
    if nonlinear_G is not None:
        known1 = known1 + nonlinear_G
    if g1_now is not None:
        known1 = known1 + g1_now
    B1 = _solve_per_node(eye[None] - w0 * laws.beta1[0], known1)
    return BirthValues(B0=B0, B1=B1)

