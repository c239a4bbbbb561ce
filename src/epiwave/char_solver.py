"""One-step advance of the damped-wave system along every characteristic.

Along a diagonal the model reduces to the second-order equation

    tau v_hh + (1 + tau L) v_h + (L + tau L_a) v = sigma Lap v + f,

which is marched as the first-order system v_h = w,
tau w_h = sigma Lap v + f - (1 + tau L) w - (L + tau L_a) v with one
backward Euler step of size da, all stiff terms at the new level.  The
scheme is A-stable, works for every tau >= 0, and at tau = 0 reduces
exactly to the implicit parabolic step with w returned as the
consistent slope sigma Lap v_new + f - L v_new.

Within one step the characteristics do not couple (nonlocal terms enter
as forcing), so a step advances a whole time slice at once: the states
at ages 0..na-1 move to ages 1..na through the implicit matrices of the
target ages, factored once per solve.  When the linear tables do not
vary in space (every model shipped here), each age's matrix is
I (x) B_a - da^2 Lap (x) diag(sigma_a), which the closed-form cosine
eigenbasis of the Neumann Laplacian splits into one n x n block per
(age, mode) (the fast direct solver of Buzbee, Golub & Nielson 1970);
tables that vary in space keep one dense (n nx, n nx) inverse per age.
The matrices are well conditioned, so an explicit inverse is as
accurate as a factored solve.

A step always advances the previous slice, so only its forcing can
change from one fixed-point sweep to the next: step_rhs forms the rest
of the right-hand side once per time step, and step adds da f and
applies the inverses.  Given an (M,) array of taus, step_context
factors one member per tau and every slice gains a leading member axis.
"""

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from .errors import NonFinite, SingularSystem
from .mesh import Mesh
from .operators import (
    LinearPart,
    invert_in_place,
    laplacian_neumann,
    neumann_matrix,
    neumann_modes,
)


@dataclass(frozen=True)
class ModalInverse:
    """The implicit matrices of the target ages in the cosine modes of
    the Neumann Laplacian.

    to_modes is V^-T and from_modes V^T, both (nx, nx), for V the
    eigenbasis of neumann_modes; blocks[h, i, a, k] holds the inverse of
    B_a - da^2 lambda_k diag(sigma_a), shape (n, n, na, nx), for B_a the
    local block shared by every node.
    """

    to_modes: np.ndarray
    blocks: np.ndarray
    from_modes: np.ndarray


@dataclass(frozen=True)
class StepContext:
    """Implicit-step data at the target ages 1..na of a slice advance.

    lcomb is L + tau L_a, shape (na, nx, n, n), and sigma the
    diffusivities, shape (na, n); for an (M,) array tau, all but sigma
    lead with M.  It holds one factorisation of the
    implicit matrices, and the other field is None: modes when the local
    blocks do not vary in x, else inv, the dense inverse of each age's
    (n nx, n nx) matrix stacked (na, n nx, n nx), unknowns ordered
    x * n + h.
    """

    tau: "float | np.ndarray"
    lcomb: np.ndarray
    sigma: np.ndarray
    modes: Optional[ModalInverse] = None
    inv: Optional[np.ndarray] = None


def step_context(lin: LinearPart, tau: float, m: Mesh) -> StepContext:
    """Factor the implicit matrix of every target age 1..na.

    Each age's matrix is I (x) B_a - da^2 Lap (x) diag(sigma_a), with the
    local blocks B_a(x) = tau I + da (I + tau L) + da^2 (L + tau L_a).
    When those are bitwise equal along x, the matrix is inverted in
    cosine modes, one n x n block per (age, mode); otherwise as one dense
    stack.  Raises SingularSystem, naming the age, for a matrix (or a
    mode block) that invert_in_place finds singular.
    """
    n, da = lin.n, m.da
    L, L_a, sigma = lin.L[1:], lin.L_a[1:], lin.sigma[1:]
    eye = np.eye(n)
    t = np.asarray(tau)[..., None, None, None, None]
    lcomb = L + t * L_a
    blks = t * eye + da * (eye + t * L) + da * da * lcomb  # (..., na, nx, n, n)
    if np.all(blks == blks[..., :1, :, :]):
        return StepContext(tau, lcomb, sigma, modes=_modal_inverse(blks[..., 0, :, :], sigma, m))
    return StepContext(tau, lcomb, sigma, inv=_dense_inverse(blks, sigma, m))


def _modal_inverse(blk: np.ndarray, sigma: np.ndarray, m: Mesh) -> ModalInverse:
    """Invert the (..., na, n, n) blocks blk shifted by -da^2 lambda_k
    sigma_a at every mode k, as one batched (... na nx, n, n) stack."""
    V, lam, V_inv = neumann_modes(m)
    n = blk.shape[-1]
    hs = np.arange(n)
    mats = np.repeat(blk[..., None, :, :], m.nx, axis=-3)  # (..., na, nx, n, n)
    mats[..., hs, hs] -= (m.da * m.da) * sigma[:, None, :] * lam[None, :, None]
    if (bad := invert_in_place(mats.reshape(-1, n, n))) is not None:
        age = bad // m.nx % m.na + 1  # of member bad // (nx na)
        raise SingularSystem(f"implicit step matrix singular at age index {age}")
    # C-ordered copies: the products of every step run faster on them
    blocks = np.ascontiguousarray(np.moveaxis(mats, (-2, -1), (-4, -3)))
    return ModalInverse(np.ascontiguousarray(V_inv.T), blocks, np.ascontiguousarray(V.T))


def _dense_inverse(blks: np.ndarray, sigma: np.ndarray, m: Mesh) -> np.ndarray:
    """Assemble each age's matrix from the (..., na, nx, n, n) local blocks
    in one (..., na, nx, n, nx, n) stack, overwritten by its inverse."""
    nx, n = m.nx, blks.shape[-1]
    xs = np.arange(nx)
    mats = np.zeros(blks.shape[:-3] + (nx, n, nx, n))
    # the indexed axes lead the selection: (nx, ..., na, n, n) local blocks ...
    mats[..., xs, :, xs, :] = np.moveaxis(blks, -3, 0)
    # ... and (na, nx, nx) diffusion per compartment, in place on a view
    lap = neumann_matrix(m)
    for h in range(n):
        mats[..., h, :, h] -= (m.da * m.da) * sigma[:, h, None, None] * lap
    inv = mats.reshape(blks.shape[:-3] + (n * nx, n * nx))  # a view: inverses overwrite matrices
    if (bad := invert_in_place(inv.reshape(-1, n * nx, n * nx))) is not None:
        raise SingularSystem(f"implicit step matrix singular at age index {bad % m.na + 1}")
    return inv


def step_rhs(v: np.ndarray, w: np.ndarray, ctx: StepContext, m: Mesh) -> np.ndarray:
    """The forcing-free right-hand side of a step from the (n, na, nx)
    values v and slopes w at ages 0..na-1: tau w + da (sigma Lap v - lcomb v).

    It reads only the slice being advanced, so a solve forms it once per
    time step however many sweeps the step takes.
    """
    with np.errstate(invalid="ignore", over="ignore"):  # step raises NonFinite
        lapv = laplacian_neumann(v, m)
        return np.asarray(ctx.tau)[..., None, None, None] * w + m.da * (
            ctx.sigma.T[:, :, None] * lapv - np.einsum("...axhi,...iax->...hax", ctx.lcomb, v)
        )


def step(
    v: np.ndarray,
    rhs: np.ndarray,
    ctx: StepContext,
    m: Mesh,
    f: Optional[np.ndarray] = None,
) -> Tuple[np.ndarray, np.ndarray]:
    """Advance the (n, na, nx) values v at ages 0..na-1 by da.

    rhs is step_rhs of v and its slopes; f is the optional (n, na, nx)
    forcing at the target ages 1..na, which enters as rhs + da f.
    Returns the values and slopes at ages 1..na.  Raises NonFinite when
    NaN/inf appear.
    """
    *lead, n, na, nx = v.shape
    da = m.da
    with np.errstate(invalid="ignore", over="ignore"):  # NonFinite raised below
        if f is not None:
            f = da * f
            rhs = np.add(f, rhs, out=f)
        if ctx.modes is not None:
            md = ctx.modes
            w_modes = np.einsum("...hiak,...iak->...hak", md.blocks, rhs @ md.to_modes)
            w_new = w_modes @ md.from_modes
        else:
            b = np.moveaxis(rhs, -3, -1).reshape(*lead, na, nx * n, 1)
            w_new = np.moveaxis((ctx.inv @ b).reshape(*lead, na, nx, n), -1, -3)
        v_new = da * w_new
        v_new += v
    if not (np.all(np.isfinite(v_new)) and np.all(np.isfinite(w_new))):
        raise NonFinite("non-finite state after a characteristic step")
    return v_new, w_new
