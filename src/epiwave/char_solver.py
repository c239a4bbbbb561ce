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
at ages 0..na-1 move to ages 1..na with one batched solve against the
implicit matrices of the target ages, factored once per solve.
"""

import warnings
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np
from scipy.linalg import block_diag, lu_factor, lu_solve

from .errors import NonFinite, SingularSystem
from .mesh import Mesh
from .operators import LinearPart, laplacian_neumann, neumann_matrix


@dataclass(frozen=True)
class StepContext:
    """Implicit-step data at the target ages 1..na of a slice advance.

    lu / piv stack the LU factors of each age's (n nx, n nx) matrix,
    unknowns ordered x * n + h; lcomb is L + tau L_a, shape
    (na, nx, n, n), and sigma the diffusivities, shape (na, n).
    """

    tau: float
    lu: np.ndarray
    piv: np.ndarray
    lcomb: np.ndarray
    sigma: np.ndarray


def step_context(lin: LinearPart, tau: float, m: Mesh) -> StepContext:
    """Factor the implicit matrix of every target age 1..na.

    Each age assembles tau I + da (I + tau L) + da^2 (L + tau L_a)
    - da^2 sigma Lap and is factored into its own slot of the stack.
    Raises SingularSystem, naming the age, for a singular matrix.
    """
    n, da = lin.n, m.da
    L, L_a, sigma = lin.L[1:], lin.L_a[1:], lin.sigma[1:]
    lap = neumann_matrix(m)
    eye = np.eye(n)
    lu = np.empty((m.na, n * m.nx, n * m.nx))
    piv = np.empty((m.na, n * m.nx), dtype=np.int32)
    for a in range(m.na):
        # (nx, n, n) diagonal blocks of the local terms
        blks = tau * eye + da * (eye + tau * L[a]) + da * da * (L[a] + tau * L_a[a])
        mat = block_diag(*blks)
        for h in range(n):
            mat[h::n, h::n] -= (da * da * sigma[a, h]) * lap
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # singularity detected below
            lu[a], piv[a] = lu_factor(mat, check_finite=False)
        if np.abs(np.diag(lu[a])).min() <= 1e-14 * max(np.max(np.abs(mat)), 1.0):
            raise SingularSystem(f"implicit step matrix singular at age index {a + 1}")
    return StepContext(tau, lu, piv, L + tau * L_a, sigma)


def step(
    v: np.ndarray,
    w: np.ndarray,
    ctx: StepContext,
    m: Mesh,
    f: Optional[np.ndarray] = None,
) -> Tuple[np.ndarray, np.ndarray]:
    """Advance the (n, na, nx) values and slopes at ages 0..na-1 by da.

    f is the optional (n, na, nx) forcing at the target ages 1..na.
    Returns the values and slopes at ages 1..na.  Raises NonFinite when
    NaN/inf appear.
    """
    n, na, nx = v.shape
    da = m.da
    with np.errstate(invalid="ignore", over="ignore"):  # NonFinite raised below
        lapv = laplacian_neumann(v, m)
        rhs = ctx.tau * w + da * (
            ctx.sigma.T[:, :, None] * lapv - np.einsum("axhi,iax->hax", ctx.lcomb, v)
        )
        if f is not None:
            rhs = rhs + da * f
        b = rhs.transpose(1, 2, 0).reshape(na, nx * n, 1)
        sol = lu_solve((ctx.lu, ctx.piv), b, check_finite=False)
        w_new = sol.reshape(na, nx, n).transpose(2, 0, 1)
        v_new = v + da * w_new
    if not (np.all(np.isfinite(v_new)) and np.all(np.isfinite(w_new))):
        raise NonFinite("non-finite state after a characteristic step")
    return v_new, w_new
