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
at ages 0..na-1 move to ages 1..na with one batched product against the
inverses of the target ages' implicit matrices, inverted once per solve
(they are well conditioned, so this is as accurate as a factored solve).

A step always advances the previous slice, so only its forcing can
change from one fixed-point sweep to the next: step_rhs forms the rest
of the right-hand side once per time step, and step adds da f and does
the one batched product.
"""

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from .errors import NonFinite, SingularSystem
from .mesh import Mesh
from .operators import LinearPart, invert_in_place, laplacian_neumann, neumann_matrix


@dataclass(frozen=True)
class StepContext:
    """Implicit-step data at the target ages 1..na of a slice advance.

    inv stacks the inverse of each age's (n nx, n nx) matrix, unknowns
    ordered x * n + h; lcomb is L + tau L_a, shape (na, nx, n, n), and
    sigma the diffusivities, shape (na, n).
    """

    tau: float
    inv: np.ndarray
    lcomb: np.ndarray
    sigma: np.ndarray


def step_context(lin: LinearPart, tau: float, m: Mesh) -> StepContext:
    """Invert the implicit matrix of every target age 1..na.

    Each age's matrix tau I + da (I + tau L) + da^2 (L + tau L_a)
    - da^2 sigma Lap is assembled in one (na, nx, n, nx, n) stack and
    overwritten by its inverse.  Raises SingularSystem, naming the age,
    for a matrix that invert_in_place finds singular.
    """
    n, da, nx = lin.n, m.da, m.nx
    L, L_a, sigma = lin.L[1:], lin.L_a[1:], lin.sigma[1:]
    eye = np.eye(n)
    xs, hs = np.arange(nx), np.arange(n)
    mats = np.zeros((m.na, nx, n, nx, n))
    # the indexed axes lead the selection: (nx, na, n, n) local blocks ...
    blks = tau * eye + da * (eye + tau * L) + da * da * (L + tau * L_a)
    mats[:, xs, :, xs, :] = blks.transpose(1, 0, 2, 3)
    # ... and (n, na, nx, nx) diffusion per compartment
    mats[:, :, hs, :, hs] -= (da * da) * sigma.T[:, :, None, None] * neumann_matrix(m)
    inv = mats.reshape(m.na, n * nx, n * nx)  # a view: inverses overwrite matrices
    if (bad := invert_in_place(inv)) is not None:
        raise SingularSystem(f"implicit step matrix singular at age index {bad + 1}")
    return StepContext(tau, inv, L + tau * L_a, sigma)


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
        b = rhs.transpose(1, 2, 0).reshape(na, nx * n, 1)
        w_new = (ctx.inv @ b).reshape(na, nx, n).transpose(2, 0, 1)
        v_new = v + da * w_new
    if not (np.all(np.isfinite(v_new)) and np.all(np.isfinite(w_new))):
        raise NonFinite("non-finite state after a characteristic step")
    return v_new, w_new
