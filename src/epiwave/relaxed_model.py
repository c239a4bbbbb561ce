"""Time-marching driver for the relaxed (damped-wave) system.

Each time step freezes the nonlocal terms at the current fixed-point
iterate, advances every characteristic of the previous slice with one
batched implicit solve (the per-age matrices are inverted once per
solve), computes births, and repeats until the update is small in the
tau-weighted energy norm.  The parabolic baseline reuses the
same code path with tau = 0 and the zeroth-order birth law, so the two
solvers differ only by the tau terms.
"""

from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from .birth import BirthLaws, solve_birth_step
from .char_solver import step, step_context
from .errors import (
    InvalidParam,
    LengthMismatch,
    NonFinite,
    PicardDiverged,
    ShapeMismatch,
)
from .fields import StateField, norm_H, norm_V
from .mesh import Mesh
from .operators import (
    KernelSet,
    LinearPart,
    apply_matrix_field,
    attach_tilde,
    delta_lambda_apply,
    g_op,
    lambda_op,
    laplacian_neumann,
)


@dataclass
class ModelSpec:
    """Full problem description on a fixed mesh.

    kernels holds the model's kernel terms; the solvers derive the
    Lambda_1 (tilde) terms from them and births.beta0 once per solve, so
    any tilde_terms given here are ignored.  y0 / y1 are (n, na+1, nx)
    initial value and slope (y1 may be None, meaning zero).  f is an
    optional (nt+1, n, na+1, nx) forcing table.
    """

    n: int
    linear: LinearPart
    kernels: KernelSet
    births: BirthLaws
    y0: np.ndarray
    y1: Optional[np.ndarray] = None
    f: Optional[np.ndarray] = None
    tau: float = 0.0

    def validate(self, m: Mesh) -> None:
        if self.tau < 0:
            raise InvalidParam("tau must be nonnegative")
        want = (self.n, m.na + 1, m.nx)
        if self.y0.shape != want:
            raise ShapeMismatch(f"y0 shape {self.y0.shape} != {want}")
        if not np.all(np.isfinite(self.y0)):
            raise NonFinite("y0 contains NaN/inf")
        if self.y1 is not None:
            if self.y1.shape != want:
                raise ShapeMismatch(f"y1 shape {self.y1.shape} != {want}")
            if not np.all(np.isfinite(self.y1)):
                raise NonFinite("y1 contains NaN/inf")
        if self.f is not None and self.f.shape != (m.nt + 1,) + want:
            raise ShapeMismatch("forcing table shape does not match mesh")
        self.linear.check_shape(m)
        self.kernels.check_shape(m, self.n)
        self.births.check_shape(m, self.n)


@dataclass
class SolverConfig:
    """Fixed-point iteration and storage settings."""

    picard_tol: float = 1e-10
    picard_max: int = 100
    store_every: int = 1

    def validate(self) -> None:
        if self.picard_tol <= 0 or self.picard_max < 1 or self.store_every < 1:
            raise InvalidParam("invalid solver configuration")


class Run(Sequence):
    """Stored time series of state slices plus solve diagnostics."""

    def __init__(self, slices, times, indices, mesh, picard_updates):
        self.slices: List[StateField] = slices
        self.times: List[float] = times
        self.indices: List[int] = indices
        self.mesh: Mesh = mesh
        #: per committed time step, the sweep update norms
        self.picard_updates: List[List[float]] = picard_updates

    def __len__(self) -> int:
        return len(self.slices)

    def __getitem__(self, k):
        return self.slices[k]


def _x_norm(values: np.ndarray, slope: np.ndarray, tau: float, m: Mesh) -> float:
    r = norm_V(values, m)
    if tau > 0:
        r += np.sqrt(tau) * norm_H(slope, m)
    return r


def consistent_slope(
    lin: LinearPart, values: np.ndarray, forcing: np.ndarray, m: Mesh
) -> np.ndarray:
    """Parabolic transport derivative sigma Lap y - L y + forcing.

    values and forcing are (n, r, nx) over the first r ages of the
    tables; forcing carries f and, for nonlinear models, -Lambda(y) y.
    """
    r = values.shape[1]
    out = lin.sigma[:r].T[:, :, None] * laplacian_neumann(values, m)
    out -= np.einsum("axhi,iax->hax", lin.L[:r], values)
    out += forcing
    return out


def derived_initial_slope(spec: ModelSpec, m: Mesh) -> np.ndarray:
    """Compatible initial slope sigma Lap y0 - (L + Lambda(y0)) y0 + f(0).

    The parabolic solver starts from it; relaxed runs given it as y1
    have first-order data that match the parabolic solution.
    """
    y0 = np.array(spec.y0, dtype=float)
    forcing = np.zeros_like(y0) if spec.f is None else spec.f[0].copy()
    if spec.kernels.terms:
        forcing -= apply_matrix_field(lambda_op(spec.kernels, y0, m), y0)
    return consistent_slope(spec.linear, y0, forcing, m)


def _march(
    spec: ModelSpec,
    cfg: SolverConfig,
    m: Mesh,
    tau: float,
    first_order_births: bool,
) -> Run:
    """March spec over the mesh, shared by the relaxed and parabolic solvers.

    The implicit matrices of ages 1..na are inverted and the tilde
    kernel terms derived once per call.  Each Picard sweep contracts
    Lambda of the iterate once, calls step once to carry ages 0..na-1 of
    the previous slice to ages 1..na, then fills age 0 from the birth
    law.
    """
    spec.validate(m)
    cfg.validate()
    if m.dt != m.da:
        raise ShapeMismatch("driver requires dt == da")
    n, A, X = spec.n, m.na + 1, m.nx
    lin = spec.linear
    births = spec.births
    k = attach_tilde(spec.kernels, births.beta0, m)
    has_nl = bool(k.terms)

    ctx = step_context(lin, tau, m)

    def nl_forcing(it: StateField, g0_now) -> np.ndarray:
        lam = lambda_op(k, it.values, m)
        out = apply_matrix_field(lam, it.values)
        if tau > 0:
            out += tau * delta_lambda_apply(k, lam, it, g0_now, m)
        return out

    # Initial slice.
    y0 = np.array(spec.y0, dtype=float)
    if first_order_births:
        s0 = np.array(spec.y1, dtype=float) if spec.y1 is not None else np.zeros_like(y0)
    else:
        s0 = derived_initial_slope(spec, m)
    prev = StateField(y0, s0)

    slices = [prev.copy()]
    times = [0.0]
    indices = [0]
    updates_log: List[List[float]] = []
    prev2: Optional[StateField] = None

    for i in range(1, m.nt + 1):
        g0_now = None if births.g0 is None else births.g0[i]
        g1_now = None if births.g1 is None else births.g1[i]
        f_now = spec.f[i] if spec.f is not None else None

        # Predictor: linear extrapolation of the last two slices.
        if prev2 is not None:
            iterate = StateField(
                2.0 * prev.values - prev2.values,
                2.0 * prev.slope - prev2.slope,
            )
        else:
            iterate = prev.copy()

        updates: List[float] = []
        grew = 0
        for sweep in range(cfg.picard_max):
            forcing = np.zeros((n, A, X)) if f_now is None else f_now.copy()
            if has_nl:
                forcing -= nl_forcing(iterate, g0_now)

            vals = np.zeros((n, A, X))
            slopes = np.zeros((n, A, X))
            vals[:, 1:], slopes[:, 1:] = step(
                prev.values[:, :-1], prev.slope[:, :-1], ctx, m, f=forcing[:, 1:]
            )
            cand = StateField(vals, slopes)

            if first_order_births:
                G = (
                    g_op(k, births.beta0, births.beta1, iterate.values, g0_now, m)
                    if has_nl
                    else None
                )
                bv = solve_birth_step(births, cand, g0_now, g1_now, G, m)
                vals[:, 0] = bv.B0
                slopes[:, 0] = bv.B1
            else:
                bv = solve_birth_step(
                    births, cand, g0_now, None, None, m, with_slope=False
                )
                vals[:, 0] = bv.B0
                slopes[:, :1] = consistent_slope(lin, vals[:, :1], forcing[:, :1], m)

            err = _x_norm(
                cand.values - iterate.values, cand.slope - iterate.slope, tau, m
            )
            updates.append(err)
            iterate = cand
            if not has_nl:
                break
            scale = max(_x_norm(cand.values, cand.slope, tau, m), 1e-300)
            if err <= cfg.picard_tol * scale:
                break
            if len(updates) >= 2 and err > updates[-2]:
                grew += 1
                if grew >= 3:
                    raise PicardDiverged(
                        f"update grew 3 sweeps in a row at step {i}"
                    )
            else:
                grew = 0

        if not np.all(np.isfinite(iterate.values)):
            raise NonFinite(f"non-finite slice at step {i}")
        updates_log.append(updates)
        prev2 = prev
        prev = iterate
        if i % cfg.store_every == 0 or i == m.nt:
            slices.append(prev.copy())
            times.append(i * m.dt)
            indices.append(i)

    return Run(slices, times, indices, m, updates_log)


def run_relaxed(spec: ModelSpec, cfg: SolverConfig, m: Mesh) -> Run:
    """Solve the relaxed system with its first-order birth law."""
    return _march(spec, cfg, m, tau=spec.tau, first_order_births=True)


def residual_check(run: Run, spec: ModelSpec, m: Mesh) -> float:
    """Sup of the discrete strong-form residual on interior nodes.

    Derivatives along characteristics are recomputed from the stored
    values with centered differences, independently of the slopes the
    stepper produced, so the result measures truncation error rather
    than the scheme's own identity.  Requires store_every = 1.
    """
    if len(run) != m.nt + 1:
        raise LengthMismatch("residual_check needs every step stored")
    tau = spec.tau
    lin = spec.linear
    k = attach_tilde(spec.kernels, spec.births.beta0, m)
    dt = m.dt
    worst = 0.0
    for i in range(1, m.nt):
        y = run[i].values
        fwd = run[i + 1].values
        bwd = run[i - 1].values
        # Centered transport derivatives along the diagonals.
        dy = np.zeros_like(y)
        d2y = np.zeros_like(y)
        dy[:, 1:-1] = (fwd[:, 2:] - bwd[:, :-2]) / (2.0 * dt)
        d2y[:, 1:-1] = (fwd[:, 2:] - 2.0 * y[:, 1:-1] + bwd[:, :-2]) / (dt * dt)
        # one-sided boundary rows keep the nonlocal age integrals honest
        dy[:, 0] = (fwd[:, 1] - y[:, 0]) / dt
        dy[:, -1] = (y[:, -1] - bwd[:, -2]) / dt
        g0_now = None if spec.births.g0 is None else spec.births.g0[i]
        res = tau * d2y
        res += dy + tau * np.einsum("axhi,iax->hax", lin.L, dy)
        res += np.einsum("axhi,iax->hax", lin.L + tau * lin.L_a, y)
        res -= lin.sigma.T[:, :, None] * laplacian_neumann(y, m)
        if k.terms:
            lam = lambda_op(k, y, m)
            res += apply_matrix_field(lam, y)
            if tau > 0:
                res += tau * delta_lambda_apply(k, lam, StateField(y, dy), g0_now, m)
        if spec.f is not None:
            res -= spec.f[i]
        worst = max(worst, float(np.max(np.abs(res[:, 1:-1, :]))))
    return worst
