"""Boundary values at age zero from the implicit birth laws.

With dt = da alignment the renewal history is exactly the current age
profile, so births are computed incrementally per time step: the
trapezoid over ages feeds the known part, and the alpha = 0 weight that
multiplies the unknown newborn value itself is moved to the left-hand
side, a small n x n system per space node.  Both laws are linear in the
slice and their tables do not depend on time, so births are a linear
map fixed per solve: birth_context inverts the per-node systems once and
folds the inverses and age weights into the laws' tables, keeping only
the rows they reach, and each sweep's solve_birth_step applies a few
batched products.
"""

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from .errors import SingularBirthSystem, SingularSigma
from .fields import StateField, space_gradient
from .mesh import Mesh, age_weights
from .operators import LinearPart, age_apply, invert_in_place, live_rows

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


def zero_laws(
    n: int,
    m: Mesh,
    g0: Optional[np.ndarray] = None,
    g1: Optional[np.ndarray] = None,
) -> BirthLaws:
    """Laws with all coefficient tables zero: births are g0 / g1 alone."""
    shape = (m.na + 1, m.nx, n, n)
    return BirthLaws(*(np.zeros(shape) for _ in range(4)), g0=g0, g1=g1)


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


def newborn_source(beta0: np.ndarray, y: np.ndarray, g0: Optional[np.ndarray]) -> np.ndarray:
    """Newborn density int_alpha beta0 y + g0, (..., n, nx), of the (...,
    n, na+1, nx) values y, for beta0 folded by operators.fold_ages and a
    g0 that may be None.  Lambda_2 and G (g_op) read it."""
    src = age_apply(beta0, y)
    if g0 is not None:
        src += g0
    return src


@dataclass(frozen=True)
class BirthContext:
    """The birth laws as an affine map of the slice, fixed per solve.

    inv0 / inv1 are the (nx, n, n) per-node inverses of I - w0 beta0(0)
    and I - w0 beta1(0).  t0, t1, tL and tgrad are a law's table at ages
    1..na times its age weight, from the left by the inverse, per node on
    its live rows (operators.live_rows), columns (i, a).  fL and fgrad are
    the (nx, n, n) age-zero feedback inv1 w0 betaL(0) and inv1 w0
    beta_grad(0) of B0 and its gradient.  An all-zero table is None; so
    is everything after t0 for the zeroth-order law.
    """

    inv0: np.ndarray
    t0: Optional[np.ndarray]
    inv1: Optional[np.ndarray] = None
    t1: Optional[np.ndarray] = None
    tL: Optional[np.ndarray] = None
    tgrad: Optional[np.ndarray] = None
    fL: Optional[np.ndarray] = None
    fgrad: Optional[np.ndarray] = None


def birth_context(laws: BirthLaws, m: Mesh, with_slope: bool = True) -> BirthContext:
    """Fold the birth laws into the map solve_birth_step applies.

    Inverts I - w0 beta0(0) and, with the slope law, I - w0 beta1(0) at
    every space node, and folds each inverse with the age weights into
    the tables of its law, raising SingularBirthSystem, naming the law
    and the node, for a singular system.  The zeroth-order law
    (with_slope False) reads nothing of beta1, betaL or beta_grad.
    """
    wa = age_weights(m)
    w0, eye = wa[0], np.eye(laws.beta0.shape[-1])

    def fold(inv, tab):  # the live rows of the (nx, n, n na) table, or None for a zero one
        if not np.any(tab[1:]):
            return None
        folded = inv @ (wa[1:, None, None, None] * tab[1:])  # (na, nx, n, n)
        return live_rows(folded.transpose(1, 2, 3, 0).reshape(inv.shape[0], inv.shape[1], -1))

    def feedback(inv, tab0):  # (nx, n, n), or None for a zero one
        return inv @ (w0 * tab0) if np.any(tab0) else None

    def invert(law, beta):  # the (nx, n, n) inverses of I - w0 beta(0)
        mats = eye - w0 * beta[0]
        if (bad := invert_in_place(mats)) is not None:
            raise SingularBirthSystem(f"{law} birth system singular at space node {bad}")
        return mats

    inv0 = invert("B0", laws.beta0)
    if not with_slope:
        return BirthContext(inv0, fold(inv0, laws.beta0))
    inv1 = invert("B1", laws.beta1)
    return BirthContext(
        inv0, fold(inv0, laws.beta0),
        inv1=inv1,
        t1=fold(inv1, laws.beta1),
        tL=fold(inv1, laws.betaL),
        tgrad=fold(inv1, laws.beta_grad),
        fL=feedback(inv1, laws.betaL[0]),
        fgrad=feedback(inv1, laws.beta_grad[0]),
    )


def solve_birth_step(
    ctx: BirthContext,
    y_slice: StateField,
    g0_now: Optional[np.ndarray],
    g1_now: Optional[np.ndarray],
    nonlinear_G: Optional[np.ndarray],
    m: Mesh,
) -> Tuple[np.ndarray, Optional[np.ndarray]]:
    """Births (B0, B1), each (n, nx), at one time level from the
    (provisional) age profile; B1 is None when ctx has no slope law.

    y_slice holds values and slopes at all ages, (n, na+1, nx), or (M,
    n, na+1, nx) for M members, whose births then lead with M; the a = 0
    rows are treated as unknown and never read.  B0 solves (I - w0
    beta0(0)) B0 = trapz_{alpha>0}(beta0 y) + g0, and B1 the analogous
    system with beta1(0) on the left and the beta1 dy + betaL y +
    beta_grad dy/dx quadrature, G and g1 on the right; the alpha = 0
    terms of betaL and beta_grad use the solved B0.  ctx (birth_context)
    holds the inverses and folded tables.
    """
    vals = y_slice.values[..., 1:, :]
    B0 = age_apply(ctx.t0, vals)
    if g0_now is not None:
        B0 += _at_nodes(ctx.inv0, g0_now)
    if ctx.inv1 is None:
        return B0, None

    B1 = age_apply(ctx.t1, y_slice.slope[..., 1:, :])
    if ctx.tL is not None:
        B1 += age_apply(ctx.tL, vals)
    if ctx.tgrad is not None:
        B1 += age_apply(ctx.tgrad, space_gradient(vals, m))
    src = [s for s in (nonlinear_G, g1_now) if s is not None]
    if src:  # a sum, not in place: a source without a member axis broadcasts
        B1 = B1 + _at_nodes(ctx.inv1, sum(src))
    if ctx.fL is not None:
        B1 += _at_nodes(ctx.fL, B0)
    if ctx.fgrad is not None:
        B1 += _at_nodes(ctx.fgrad, space_gradient(B0, m))
    return B0, B1


def _at_nodes(mats: np.ndarray, v: np.ndarray) -> np.ndarray:
    """The (nx, n, n) per-node matrices mats applied to the (..., n, nx) v."""
    return (mats @ v.swapaxes(-1, -2)[..., None])[..., 0].swapaxes(-1, -2)
