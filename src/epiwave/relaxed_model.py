"""Time-marching driver for the relaxed (damped-wave) system.

Each time step freezes the nonlocal terms at the current fixed-point
iterate, advances every characteristic of the previous slice with one
batched implicit solve (the per-age matrices are inverted once per
solve), computes births, and repeats until the update is small in the
tau-weighted energy norm.  A spec may carry several taus: its members
march in lockstep as one (M, 2, n, na+1, nx) iterate of values and
slopes until the last one converges; a member that converges first is
frozen, restarted from its answer each sweep and not checked again.
Each sweep after a step's first is mixed with the member's last three
sweeps (Anderson acceleration), which takes fewer sweeps than plain
Picard iteration.  Each stored step is written in place into the Run's
preallocated value and slope stacks.  The parabolic baseline reuses the
same code path with tau = 0 and the zeroth-order birth law, so the two
solvers differ only by the tau terms.
"""

from dataclasses import dataclass
from typing import List, Optional, Sequence, Union

import numpy as np

from .birth import BirthLaws, birth_context, newborn_source, solve_birth_step
from .char_solver import step, step_context, step_rhs
from .errors import InvalidParam, LengthMismatch, NonFinite, PicardDiverged, ShapeMismatch
from .fields import Run, StateField, norm_H, norm_V
from .mesh import Mesh, is_real
from .operators import (
    KernelSet,
    LinearPart,
    attach_tilde,
    couple,
    delta_lambda_apply,
    fold_ages,
    g_op,
    lambda_op,
    laplacian_neumann,
    mix,
)


def table_shapes(L: np.ndarray, m: Mesh) -> dict:
    """The shape on m of each table of a model whose L table is L, by name.

    The compartment count n is the last axis of L; an L without one, or
    with none of length 0, is counted as n = 1 and so fails its own shape.
    """
    n = max(np.shape(L)[-1:] + (1,))
    A, X, T = m.na + 1, m.nx, m.nt + 1
    return {
        **dict.fromkeys(("L", "L_a", "beta0", "beta1", "betaL", "beta_grad"), (A, X, n, n)),
        "sigma": (A, n),
        **dict.fromkeys(("y0", "y1"), (n, A, X)),
        **dict.fromkeys(("g0", "g1"), (T, n, X)),  # the birth source series
        "f": (T, n, A, X),
    }


@dataclass
class ModelSpec:
    """Full problem description on a fixed mesh.

    The compartment count n is read from linear.L.  kernels holds the
    model's kernel terms; the solvers derive the Lambda_1 (tilde) terms
    from them alone once per solve, so any tilde_terms given here are
    ignored.  y0 / y1 are (n, na+1, nx) initial value and slope (y1 may
    be None, meaning zero).  f is an optional (nt+1, n, na+1, nx)
    forcing table; table_shapes gives every table's shape.  tau may be
    a sequence of taus: run_relaxed then solves one member per tau.
    """

    linear: LinearPart
    kernels: KernelSet
    births: BirthLaws
    y0: np.ndarray
    y1: Optional[np.ndarray] = None
    f: Optional[np.ndarray] = None
    tau: Union[float, Sequence[float]] = 0.0

    @property
    def n(self) -> int:
        """The compartment count, the last axis of linear.L."""
        return self.linear.n

    def validate(self, m: Mesh) -> None:
        """InvalidParam for a tau that is not a finite nonnegative number or
        a nonempty sequence of them, ShapeMismatch for a table off the mesh,
        then NonFinite, naming the table, for NaN/inf in any table but the
        (factored, checked on load) kernels."""
        seq = isinstance(self.tau, (list, tuple)) or getattr(self.tau, "ndim", 0) == 1
        taus = list(self.tau) if seq else [self.tau]
        if not (taus and all(is_real(t) and 0.0 <= t < np.inf for t in taus)):
            raise InvalidParam(f"tau={self.tau!r} must be finite and nonnegative")
        lin, b = self.linear, self.births
        tables = {"y0": self.y0, "y1": self.y1, "f": self.f, "L": lin.L, "L_a": lin.L_a,
                  "sigma": lin.sigma, "beta0": b.beta0, "beta1": b.beta1, "betaL": b.betaL,
                  "beta_grad": b.beta_grad, "g0": b.g0, "g1": b.g1}
        shapes = table_shapes(lin.L, m)
        for name, tab in tables.items():
            if tab is not None and np.shape(tab) != shapes[name]:
                raise ShapeMismatch(f"{name} shape {np.shape(tab)} != {shapes[name]}")
        self.kernels.check_shape(m, self.n)
        for name, tab in tables.items():
            if tab is not None and not np.all(np.isfinite(tab)):
                raise NonFinite(f"{name} contains NaN/inf")


@dataclass
class SolverConfig:
    """Fixed-point iteration and storage settings."""

    picard_tol: float = 1e-10
    picard_max: int = 100
    store_every: int = 1

    def validate(self) -> None:
        """InvalidParam, naming the field, for a picard_tol that is not a
        finite positive number or a count that is not a positive integer."""
        if not (is_real(self.picard_tol) and 0.0 < self.picard_tol < np.inf):
            raise InvalidParam(f"picard_tol={self.picard_tol!r} must be finite and positive")
        for name in ("picard_max", "store_every"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < 1:
                raise InvalidParam(f"{name}={value!r} must be a positive integer")


def _mixing(k: KernelSet, y, dy, src, tau, m: Mesh):
    """Lambda(y) y plus tau times its transport derivative (dy, the Lambda_2
    source src, k's tilde terms) if a tau of the (M, 1, 1, 1) tau is > 0,
    then Lambda(y) y alone and the integrals of Lambda(y), which G reads."""
    lam = lambda_op(k, y, m)
    cy = couple(k, y)
    out = mixed = mix(lam, cy)
    if np.ndim(tau) or tau > 0:
        out = mixed + tau * delta_lambda_apply(k, lam, cy, StateField(y, dy), src, m)
    return out, mixed, lam


#: Anderson depth: how many past sweeps each sweep's mixing reads.
_DEPTH = 3


def _solve_each(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """np.linalg.solve of each system of the stacks a, b; NaN for a singular one."""
    try:
        return np.linalg.solve(a, b)
    except np.linalg.LinAlgError:
        return np.stack([_solve_each(*ab) for ab in zip(a, b)]) if a.ndim > 2 else b * np.nan


def _failure(what: str, at, updates: List[float]) -> str:
    """The message `what` at step `at` after the sweeps whose residuals are
    updates, with the best, the last and the observed ratio per sweep."""
    n = len(updates)
    msg = f"{what} at step {at}, after {n} sweeps"
    if n:
        msg += f": best residual {min(updates):.3e}, last {updates[-1]:.3e}"
    if n > 1:
        msg += f", observed ratio {(updates[-1] / updates[0]) ** (1 / (n - 1)):.3g} per sweep"
    return msg


def _fixed_point(picard_map, xg, energy, weights, cfg: SolverConfig, linear: bool, at, res):
    """Solve x = picard_map(x) for M members in lockstep: the one stopping rule.

    xg is an (M, 2, c, ...) buffer whose xg[:, 0] holds the starting
    iterates.  picard_map(x, out) writes g(x) of every member into out;
    energy(fg) gives the two rows of norms of fg[:, 0] = g(x) - x and of
    fg[:, 1] = g(x).  Anderson mixing of depth _DEPTH (Walker & Ni 2011)
    picks each member's next iterate: g(x) minus the combination of its
    last sweeps' differences of g whose residual differences best cancel
    the residual, in the inner product that weights component c by
    weights[member, c] (components after the last weighted one are left
    out).  Each member's history starts empty; a singular or non-finite
    mixing solve drops it and takes the plain step g(x).  A member that
    meets picard_tol is written to res and frozen: every later sweep
    restarts it from its answer, with the identity and a zero right-hand
    side as its mixing system, and neither records nor checks it.  The
    sweeps stop when every member is frozen.  A linear map runs once.

    Returns res and each member's sweep residual norms.  PicardDiverged
    once a member's picard_max sweeps all miss picard_tol, NonFinite for a
    non-finite g(x); both messages come from _failure, naming the step as
    at[member].  Floating-point warnings are off for the whole loop.
    """
    M, D = len(xg), _DEPTH
    x, g = xg[:, 0], xg[:, 1]
    updates: List[List[float]] = [[] for _ in range(M)]
    frozen: List[int] = []  # the members written to res, in the order they converged
    with np.errstate(all="ignore"):  # a blow-up is caught by the checks below
        for sweep in range(cfg.picard_max):
            picard_map(x, g)
            np.subtract(g, x, out=x)  # x holds the residual f from here on
            for j, (err, size) in enumerate(zip(*energy(xg).tolist())):
                if j in frozen:
                    continue
                if not abs(size) < np.inf:  # NaN or inf
                    raise NonFinite(_failure("non-finite slice", at[j], updates[j]))
                updates[j].append(err)
                if linear or err <= cfg.picard_tol * max(size, 1e-300):
                    res[j] = g[j]
                    frozen.append(j)
            if len(frozen) == M:
                return res, updates
            if not sweep:  # a second sweep is due: start the histories
                c = 1 + int(np.flatnonzero(weights.any(axis=0)).max(initial=0))
                scale = np.sqrt(weights[:, :c]).reshape((M, c) + (1,) * (xg.ndim - 3))
                # scaled residual differences; the slot the next one takes holds
                # the last residual, slot D this sweep's: one Gram product reads both
                dF = np.zeros((M, D + 1, c) + xg.shape[3:])
                dG = np.zeros((M, D) + xg.shape[2:])  # the same for g, unscaled
                gram = np.repeat(np.eye(D)[None], M, axis=0)  # 1 on an unused slot's diagonal
            np.multiply(x[:, :c], scale, out=dF[:, D])
            if sweep:
                s = (sweep - 1) % D
                np.subtract(dF[:, D], dF[:, s], out=dF[:, s])
                np.subtract(g, dG[:, s], out=dG[:, s])
                flat = dF.reshape(M, D + 1, -1)
                prod = flat[:, :D] @ flat[:, s :: D - s].swapaxes(-1, -2)  # rows s and D
                gram[:, s, :] = gram[:, :, s] = prod[..., 0]
                if frozen:  # a frozen member mixes in nothing
                    gram[frozen], prod[frozen] = np.eye(D), 0.0
                gamma = _solve_each(gram, prod[..., 1:])
                if not np.isfinite(gamma).all():
                    lost = ~np.isfinite(gamma).all(axis=(-2, -1))
                    dF[lost, :D] = dG[lost] = gamma[lost] = 0.0
                    gram[lost] = np.eye(D)
                mix = gamma.swapaxes(-1, -2) @ dG.reshape(M, D, -1)
                np.subtract(g, mix.reshape(g.shape), out=x)
            else:
                x[...] = g
            if frozen:
                x[frozen] = res[frozen]
            dF[:, sweep % D] = dF[:, D]
            dG[:, sweep % D] = g
    j = min(set(range(M)).difference(frozen))
    raise PicardDiverged(_failure(f"no convergence in picard_max={cfg.picard_max} sweeps",
                                  at[j], updates[j]))


def consistent_slope(
    lin: LinearPart, values: np.ndarray, forcing: np.ndarray, m: Mesh
) -> np.ndarray:
    """Parabolic transport derivative sigma Lap y - L y + forcing.

    values and forcing are (..., n, r, nx) over the first r ages of the
    tables; forcing carries f and, for nonlinear models, -Lambda(y) y.
    """
    r = values.shape[-2]
    out = lin.sigma[:r].T[:, :, None] * laplacian_neumann(values, m)
    out -= np.einsum("axhi,...iax->...hax", lin.L[:r], values)
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
        forcing -= _mixing(spec.kernels, y0, None, None, 0.0, m)[0]
    return consistent_slope(spec.linear, y0, forcing, m)


def _march(spec: ModelSpec, cfg: SolverConfig, m: Mesh, first_order_births: bool) -> Run:
    """March spec over the mesh, shared by the relaxed and parabolic solvers.

    Each tau of a relaxed spec is a member; the members march in lockstep
    as one (M, 2, n, na+1, nx) iterate into a batch Run (Run.members).
    Once per call: the implicit matrices of ages 1..na are inverted per
    member, the birth laws folded into their map (birth_context), the
    kernel terms indexed with their tilde terms, beta0 and beta1 folded
    on their live rows (fold_ages) and Lambda_2 found live or not.  Each
    step forms its right-hand side once (step_rhs) and hands its Picard
    map to _fixed_point.  One sweep of all M members integrates each
    kernel column once against their values and once against their
    slopes, applies each coupling matrix once to each (Lambda(y) y, its
    transport derivative and G share them), calls step once and fills age
    0 with one solve_birth_step, into buffers allocated once per call.
    First-order births solve with spec.tau, the zeroth-order law tau = 0.
    """
    spec.validate(m)
    cfg.validate()
    taus = np.array(spec.tau if first_order_births else 0.0, dtype=float, ndmin=1)
    M, n, A, X = len(taus), spec.n, m.na + 1, m.nx
    lin = spec.linear
    births = spec.births
    k = attach_tilde(spec.kernels, m)
    has_nl = bool(k.terms)
    live2 = False  # Lambda_2 reads src only where k integrates
    if has_nl and first_order_births:  # the only solves that form src and G
        beta0, beta1 = fold_ages(births.beta0, m), fold_ages(births.beta1, m)
        live2 = births.beta0[:, :, k.integrated].any() or (
            births.g0 is not None and births.g0[:, k.integrated].any())

    ctx = step_context(lin, taus, m)
    bctx = birth_context(births, m, with_slope=first_order_births)
    relaxed = bool(taus.any())
    tau = taus[:, None, None, None] if relaxed else 0.0  # each member's, on its slices
    # The mixing's inner product weighs the slopes by tau, the square of
    # their energy-norm weight, so at tau = 0, where the map never reads
    # the iterate's slopes, they do not enter.
    weights = np.stack([np.ones(M), taus], axis=1)
    tails = [f", tau={t:.6g}" if first_order_births and np.ndim(spec.tau) else "" for t in taus]

    def energy(fg: np.ndarray) -> np.ndarray:
        both = fg.reshape(-1, 2, n, A, X)  # a member's f and g, then the next member's
        r = norm_V(both[:, 0], m).reshape(-1, 2)
        if relaxed:
            r += np.sqrt(weights[:, 1:]) * norm_H(both[:, 1], m).reshape(-1, 2)
        return r.T

    indices = [i for i in range(m.nt + 1) if i % cfg.store_every == 0 or i == m.nt]
    slot = {i: s for s, i in enumerate(indices)}
    shape = (M, len(indices), n, A, X)
    run = Run(np.empty(shape), np.empty(shape), indices, m, [])
    steps = []  # each step's sweep residuals, per member

    # Initial slice.
    run.values[:, 0] = spec.y0
    if first_order_births:
        run.slopes[:, 0] = 0.0 if spec.y1 is None else spec.y1
    else:
        run.slopes[:, 0] = derived_initial_slope(spec, m)
    prev = np.stack([run.values[:, 0], run.slopes[:, 0]], axis=1)
    prev2 = prev.copy()  # so that step 1's predictor 2 prev - prev2 is prev itself
    xg = np.empty((M, 2) + prev.shape[1:])  # the iterates and the sweep's output
    forcing = np.empty((M, n, A, X))

    for i in range(1, m.nt + 1):
        g0_now = None if births.g0 is None else births.g0[i]
        g1_now = None if births.g1 is None else births.g1[i]
        f_now = 0.0 if spec.f is None else spec.f[i]
        rhs = step_rhs(prev[:, 0, :, :-1], prev[:, 1, :, :-1], ctx, m)

        def picard_map(x: np.ndarray, out: np.ndarray) -> None:
            forcing[...] = f_now
            src = None
            if has_nl:
                if first_order_births:
                    src = newborn_source(beta0, x[:, 0], g0_now)
                mixing, mixed, lam = _mixing(k, x[:, 0], x[:, 1], src if live2 else None, tau, m)
                np.subtract(forcing, mixing, out=forcing)

            vals, slopes = out[:, 0], out[:, 1]
            v = prev[:, 0, :, :-1]
            vals[:, :, 1:], slopes[:, :, 1:] = step(v, rhs, ctx, m, f=forcing[:, :, 1:])
            cand = StateField(vals, slopes)

            if first_order_births:
                G = g_op(k, beta1, mixed, lam, src, m) if has_nl else None
                vals[:, :, 0], slopes[:, :, 0] = solve_birth_step(bctx, cand, g0_now, g1_now, G, m)
            else:
                vals[:, :, 0], _ = solve_birth_step(bctx, cand, g0_now, None, None, m)
                slopes[:, :, :1] = consistent_slope(lin, vals[:, :, :1], forcing[:, :, :1], m)

        # Predictor: linear extrapolation of the last two slices.
        np.multiply(prev, 2.0, out=xg[:, 0])
        xg[:, 0] -= prev2
        at = [f"{i} (t={i * m.dt:.6g}, da={m.da:.6g}{tail})" for tail in tails]
        cur, done = _fixed_point(picard_map, xg, energy, weights, cfg, not has_nl, at, prev2)
        prev2, prev = prev, cur
        steps.append(done)
        if i in slot:
            run.values[:, slot[i]], run.slopes[:, slot[i]] = cur[:, 0], cur[:, 1]

    run.picard_updates = [step[j] for j in range(M) for step in steps]
    return run


def run_relaxed(spec: ModelSpec, cfg: SolverConfig, m: Mesh):
    """Solve the relaxed system with its first-order birth law.

    A sequence of taus in spec solves one member per tau in lockstep and
    returns their Runs in order; a scalar tau returns one Run.
    """
    runs = _march(spec, cfg, m, first_order_births=True).members()
    return runs if np.ndim(spec.tau) else runs[0]


def residual_check(run: Run, spec: ModelSpec) -> float:
    """Sup of the discrete strong-form residual on interior nodes.

    Derivatives along characteristics are recomputed from the stored
    values with centered differences, independently of the slopes the
    stepper produced, so the result measures truncation error rather
    than the scheme's own identity.  Requires store_every = 1.
    """
    m = run.mesh
    spec.validate(m)
    if np.ndim(spec.tau):
        raise InvalidParam("residual_check needs the run's own spec, with one tau")
    if len(run) != m.nt + 1:
        raise LengthMismatch("residual_check needs every step stored")
    tau = spec.tau
    lin = spec.linear
    k = attach_tilde(spec.kernels, m)
    dt = m.dt
    worst = 0.0
    for i in range(1, m.nt):
        bwd, y, fwd = run.values[i - 1 : i + 2]
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
            src = newborn_source(fold_ages(spec.births.beta0, m), y, g0_now) if tau > 0 else None
            res += _mixing(k, y, dy, src, tau, m)[0]
        if spec.f is not None:
            res -= spec.f[i]
        worst = max(worst, float(np.max(np.abs(res[:, 1:-1, :]))))
    return worst
