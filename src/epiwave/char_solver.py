"""One-step advance of the damped-wave system along a characteristic.

Along a diagonal the model reduces to the second-order equation

    tau v_hh + (1 + tau L) v_h + (L + tau L_a) v = sigma Lap v + f,

which is marched as the first-order system v_h = w,
tau w_h = sigma Lap v + f - (1 + tau L) w - (L + tau L_a) v with one
backward Euler step of size da, all stiff terms at the new level.  The
scheme is A-stable, works for every tau >= 0, and at tau = 0 reduces
exactly to the implicit parabolic step with w returned as the
consistent slope sigma Lap v_new + f - L v_new.
"""

import warnings
from dataclasses import dataclass, field
from typing import Optional

import numpy as np
from scipy.linalg import lu_factor, lu_solve

from .errors import NonFinite, SingularSystem
from .mesh import Mesh
from .operators import laplacian_neumann, neumann_matrix


@dataclass
class CharState:
    """Value and h-derivative of the state at one characteristic node."""

    v: np.ndarray  # (n, nx)
    w: np.ndarray  # (n, nx)


@dataclass
class StepContext:
    """Coefficients frozen at the target age of one step.

    L_here / L_a_here are (nx, n, n) and sigma_here is (n,).  The
    implicit matrix is factorized on first use and cached, so the
    coefficient tables must not change afterwards.
    """

    tau: float
    a_index: int
    L_here: np.ndarray
    L_a_here: np.ndarray
    sigma_here: np.ndarray
    _lu: Optional[tuple] = field(default=None, repr=False, compare=False)


def _factorize(ctx: StepContext, m: Mesh) -> tuple:
    if ctx._lu is not None:
        return ctx._lu
    n = ctx.sigma_here.shape[0]
    nx = m.nx
    da = m.da
    lap = neumann_matrix(m)
    mat = np.zeros((n * nx, n * nx))
    eye = np.eye(n)
    # Unknown ordering p = x * n + h.
    for x in range(nx):
        lx = ctx.L_here[x]
        lax = ctx.L_a_here[x]
        blk = ctx.tau * eye + da * (eye + ctx.tau * lx) + da * da * (lx + ctx.tau * lax)
        mat[x * n : (x + 1) * n, x * n : (x + 1) * n] = blk
    for h in range(n):
        mat[h::n, h::n] -= (da * da * ctx.sigma_here[h]) * lap
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # singularity detected below
        lu, piv = lu_factor(mat, check_finite=False)
    diag = np.abs(np.diag(lu))
    scale = max(np.max(np.abs(mat)), 1.0)
    if diag.min() <= 1e-14 * scale:
        raise SingularSystem(
            f"implicit step matrix singular at a_index={ctx.a_index}"
        )
    ctx._lu = (lu, piv)
    return ctx._lu


def step(
    state: CharState,
    ctx: StepContext,
    m: Mesh,
    f: Optional[np.ndarray] = None,
) -> CharState:
    """Advance one h-step of size da with the optional (n, nx) forcing f.

    Contexts hold no forcing, so distinct characteristics share them.
    Raises SingularSystem for a singular implicit matrix and NonFinite
    when NaN/inf appear.
    """
    n, nx = state.v.shape
    da = m.da
    lu = _factorize(ctx, m)
    with np.errstate(invalid="ignore", over="ignore"):  # NonFinite raised below
        lapv = laplacian_neumann(state.v, m)
        lcomb = ctx.L_here + ctx.tau * ctx.L_a_here
        rhs = ctx.tau * state.w + da * (
            ctx.sigma_here[:, None] * lapv - np.einsum("xhi,ix->hx", lcomb, state.v)
        )
        if f is not None:
            rhs = rhs + da * f
        sol = lu_solve(lu, rhs.T.reshape(-1), check_finite=False)
        w_new = sol.reshape(nx, n).T
        v_new = state.v + da * w_new
    if not (np.all(np.isfinite(v_new)) and np.all(np.isfinite(w_new))):
        raise NonFinite(f"non-finite state after step at a_index={ctx.a_index}")
    return CharState(v_new, w_new)

