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
applies the inverses.
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
    diffusivities, shape (na, n).  It holds one factorisation of the
    implicit matrices, and the other field is None: modes when the local
    blocks do not vary in x, else inv, the dense inverse of each age's
    (n nx, n nx) matrix stacked (na, n nx, n nx), unknowns ordered
    x * n + h.
    """

    tau: float
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
    lcomb = L + tau * L_a
    blks = tau * eye + da * (eye + tau * L) + da * da * lcomb  # (na, nx, n, n)
    if np.all(blks == blks[:, :1]):
        return StepContext(tau, lcomb, sigma, modes=_modal_inverse(blks[:, 0], sigma, m))
    return StepContext(tau, lcomb, sigma, inv=_dense_inverse(blks, sigma, m))


def _modal_inverse(blk: np.ndarray, sigma: np.ndarray, m: Mesh) -> ModalInverse:
    """Invert the (na, n, n) blocks blk shifted by -da^2 lambda_k sigma_a
    at every mode k, as one batched (na nx, n, n) stack."""
    V, lam, V_inv = neumann_modes(m)
    hs = np.arange(blk.shape[-1])
    mats = np.repeat(blk[:, None], m.nx, axis=1)  # (na, nx, n, n)
    mats[:, :, hs, hs] -= (m.da * m.da) * sigma[:, None, :] * lam[None, :, None]
    if (bad := invert_in_place(mats.reshape(-1, *blk.shape[1:]))) is not None:
        raise SingularSystem(f"implicit step matrix singular at age index {bad // m.nx + 1}")
    # C-ordered copies: the products of every step run faster on them
    blocks = np.ascontiguousarray(mats.transpose(2, 3, 0, 1))
    return ModalInverse(np.ascontiguousarray(V_inv.T), blocks, np.ascontiguousarray(V.T))


def _dense_inverse(blks: np.ndarray, sigma: np.ndarray, m: Mesh) -> np.ndarray:
    """Assemble each age's matrix from the (na, nx, n, n) local blocks in
    one (na, nx, n, nx, n) stack and overwrite it by its inverse."""
    nx, n = m.nx, blks.shape[-1]
    xs = np.arange(nx)
    mats = np.zeros((m.na, nx, n, nx, n))
    # the indexed axes lead the selection: (nx, na, n, n) local blocks ...
    mats[:, xs, :, xs, :] = blks.transpose(1, 0, 2, 3)
    # ... and (na, nx, nx) diffusion per compartment, in place on a view
    lap = neumann_matrix(m)
    for h in range(n):
        mats[:, :, h, :, h] -= (m.da * m.da) * sigma[:, h, None, None] * lap
    inv = mats.reshape(m.na, n * nx, n * nx)  # a view: inverses overwrite matrices
    if (bad := invert_in_place(inv)) is not None:
        raise SingularSystem(f"implicit step matrix singular at age index {bad + 1}")
    return inv


def step_rhs(v: np.ndarray, w: np.ndarray, ctx: StepContext, m: Mesh) -> np.ndarray:
    """The forcing-free right-hand side of a step from the (n, na, nx)
    values v and slopes w at ages 0..na-1: tau w + da (sigma Lap v - lcomb v).

    It reads only the slice being advanced, so a solve forms it once per
    time step however many sweeps the step takes.
    """
    with np.errstate(invalid="ignore", over="ignore"):  # step raises NonFinite
        lapv = laplacian_neumann(v, m)
        return ctx.tau * w + m.da * (
            ctx.sigma.T[:, :, None] * lapv - np.einsum("axhi,iax->hax", ctx.lcomb, v)
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
    n, na, nx = v.shape
    da = m.da
    with np.errstate(invalid="ignore", over="ignore"):  # NonFinite raised below
        if f is not None:
            rhs = rhs + da * f
        if ctx.modes is not None:
            md = ctx.modes
            w_modes = np.einsum("hiak,iak->hak", md.blocks, rhs @ md.to_modes)
            w_new = w_modes @ md.from_modes
        else:
            b = rhs.transpose(1, 2, 0).reshape(na, nx * n, 1)
            w_new = (ctx.inv @ b).reshape(na, nx, n).transpose(2, 0, 1)
        v_new = v + da * w_new
    if not (np.all(np.isfinite(v_new)) and np.all(np.isfinite(w_new))):
        raise NonFinite("non-finite state after a characteristic step")
    return v_new, w_new
