"""Time-marching driver for the relaxed (damped-wave) system.

Each time step freezes the nonlocal terms at the current fixed-point
iterate, advances every characteristic of the previous slice with one
batched implicit solve (the per-age matrices are inverted once per
solve), computes births, and repeats until the update is small in the
tau-weighted energy norm.  The iterate is one (2, n, na+1, nx) array of
values and slopes, and each sweep after a step's first is mixed with
the step's last three sweeps (Anderson acceleration), which takes fewer
sweeps than plain Picard iteration.  Each stored step is written in
place into the Run's preallocated value and slope stacks.  The
parabolic baseline reuses the same code path with tau = 0 and the
zeroth-order birth law, so the two solvers differ only by the tau terms.
"""

from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from .birth import BirthLaws, birth_context, newborn_source, solve_birth_step
from .char_solver import step, step_context, step_rhs
from .errors import InvalidParam, LengthMismatch, NonFinite, PicardDiverged, ShapeMismatch
from .fields import Run, StateField, norm_H, norm_V
from .mesh import Mesh
from .operators import (
    KernelSet,
    LinearPart,
    apply_pairs,
    attach_tilde,
    delta_lambda_apply,
    fold_ages,
    g_op,
    lambda_op,
    laplacian_neumann,
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


def is_real(value) -> bool:
    """True for a Python or numpy integer or float that is not a bool, so
    a setting can be range-checked without a raw TypeError."""
    return isinstance(value, (int, float, np.integer, np.floating)) and not isinstance(value, bool)


@dataclass
class ModelSpec:
    """Full problem description on a fixed mesh.

    The compartment count n is read from linear.L.  kernels holds the
    model's kernel terms; the solvers derive the Lambda_1 (tilde) terms
    from them alone once per solve, so any tilde_terms given here are
    ignored.  y0 / y1 are (n, na+1, nx) initial value and slope (y1 may
    be None, meaning zero).  f is an optional (nt+1, n, na+1, nx)
    forcing table; table_shapes gives every table's shape.
    """

    linear: LinearPart
    kernels: KernelSet
    births: BirthLaws
    y0: np.ndarray
    y1: Optional[np.ndarray] = None
    f: Optional[np.ndarray] = None
    tau: float = 0.0

    @property
    def n(self) -> int:
        """The compartment count, the last axis of linear.L."""
        return self.linear.n

    def validate(self, m: Mesh) -> None:
        """InvalidParam for a tau that is not a finite nonnegative number,
        ShapeMismatch for a table off the mesh, then NonFinite, naming
        the table, for NaN/inf in any table but the (factored, checked on
        load) kernels."""
        if not (is_real(self.tau) and 0.0 <= self.tau < np.inf):
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


def _mixing(k: KernelSet, y, dy, src, tau: float, m: Mesh):
    """Lambda(y) y, plus tau times its transport derivative if tau > 0
    (reading dy, the newborn source src and k's tilde terms), then
    Lambda(y) y alone and the pair field of Lambda(y), which G reads."""
    lam = lambda_op(k, y, m)
    out = mixed = apply_pairs(k, lam, y)
    if tau > 0:
        out = mixed + tau * delta_lambda_apply(k, lam, StateField(y, dy), src, m)
    return out, mixed, lam


#: Anderson depth: how many past sweeps each sweep's mixing reads.
_DEPTH = 3


def _inner(D: np.ndarray, v: np.ndarray, weights) -> np.ndarray:
    """Inner products of each entry of the (k, c, ...) stack D with the
    (c, ...) array v, summing component c with weight weights[c]; a zero
    weight leaves that component out."""
    k = len(D)
    out = np.zeros(k)
    for c, w in enumerate(weights):
        if w:
            out += w * (D[:, c].reshape(k, -1) @ v[c].ravel())
    return out


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


def _fixed_point(picard_map, x, energy, weights, cfg: SolverConfig, linear: bool, at):
    """Solve x = picard_map(x) from x at step `at`: the one stopping rule.

    x is a (c, ...) array and picard_map returns a new one.  Each sweep
    maps the iterate to g(x), and energy(g(x) - x, g(x)) gives the norms
    of the residual and of g(x).  Anderson mixing of depth _DEPTH
    (Walker & Ni 2011) picks the next iterate: g(x) minus the combination
    of the last sweeps' differences of g whose residual differences best
    cancel the residual, in the inner product that weights component c
    by weights[c].  The history starts empty on every call.  A singular
    or non-finite mixing solve drops it and takes the plain step g(x).
    A linear map runs once.

    Returns the last g(x) and each sweep's residual norm.  The sweep
    budget is the only stop short of an answer: PicardDiverged once
    picard_max sweeps have all missed picard_tol.  Floating-point
    warnings are off for the whole loop, and a non-finite g(x) raises
    NonFinite.  Both messages come from _failure and name the step as
    `at`; _march passes its index with its time and da.
    """
    updates: List[float] = []
    dF, dG = np.empty((_DEPTH,) + x.shape), np.empty((_DEPTH,) + x.shape)
    gram = np.empty((_DEPTH, _DEPTH))  # of dF, one row written per sweep
    filled = 0
    g_old = f_old = None
    with np.errstate(all="ignore"):  # a blow-up is caught by the checks below
        while len(updates) < cfg.picard_max:
            g = picard_map(x)
            f = g - x
            err, size = energy(f, g)
            if not np.isfinite(size):
                raise NonFinite(_failure("non-finite slice", at, updates))
            updates.append(float(err))
            if linear or err <= cfg.picard_tol * max(size, 1e-300):
                return g, updates
            x = g
            if g_old is not None:
                slot = filled % _DEPTH
                np.subtract(f, f_old, out=dF[slot])
                np.subtract(g, g_old, out=dG[slot])
                filled += 1
                k = min(filled, _DEPTH)
                gram[slot, :k] = gram[:k, slot] = _inner(dF[:k], dF[slot], weights)
                try:
                    gamma = np.linalg.solve(gram[:k, :k], _inner(dF[:k], f, weights))
                except np.linalg.LinAlgError:
                    gamma = None
                if gamma is None or not np.all(np.isfinite(gamma)):
                    filled = 0
                else:
                    x = g - (gamma @ dG[:k].reshape(k, -1)).reshape(g.shape)
            g_old, f_old = g, f
    raise PicardDiverged(_failure(f"no convergence in picard_max={cfg.picard_max} sweeps",
                                  at, updates))


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
        forcing -= _mixing(spec.kernels, y0, None, None, 0.0, m)[0]
    return consistent_slope(spec.linear, y0, forcing, m)


def _march(spec: ModelSpec, cfg: SolverConfig, m: Mesh, first_order_births: bool) -> Run:
    """March spec over the mesh, shared by the relaxed and parabolic solvers.

    Once per call: the implicit matrices of ages 1..na are inverted, the
    birth laws folded into their map (birth_context), the kernel terms
    indexed with their tilde terms and, for a kernel with first-order
    births, beta0 and beta1 folded over all ages (fold_ages).  Each time
    step forms the forcing-free right-hand side of the previous slice's
    advance once (step_rhs) and hands its Picard map to _fixed_point.
    One sweep integrates each kernel table once against the iterate's
    values (Lambda(y) y, its transport derivative and G share it) and
    once against its slopes, calls step once to carry ages 0..na-1 to
    1..na, then fills age 0 with one solve_birth_step.  First-order
    births solve with spec.tau, the parabolic zeroth-order law with tau = 0.
    """
    spec.validate(m)
    cfg.validate()
    tau = spec.tau if first_order_births else 0.0
    n, A, X = spec.n, m.na + 1, m.nx
    lin = spec.linear
    births = spec.births
    k = attach_tilde(spec.kernels, m)
    has_nl = bool(k.terms)
    if has_nl and first_order_births:  # the only solves that form src and G
        beta0, beta1 = fold_ages(births.beta0, m), fold_ages(births.beta1, m)

    ctx = step_context(lin, tau, m)
    bctx = birth_context(births, m, with_slope=first_order_births)

    def energy(f: np.ndarray, g: np.ndarray) -> np.ndarray:
        r = norm_V(np.stack([f[0], g[0]]), m)
        if tau > 0:
            r += np.sqrt(tau) * norm_H(np.stack([f[1], g[1]]), m)
        return r

    indices = [i for i in range(m.nt + 1) if i % cfg.store_every == 0 or i == m.nt]
    slot = {i: s for s, i in enumerate(indices)}
    shape = (len(indices), n, A, X)
    run = Run(np.empty(shape), np.empty(shape), indices, m, [])

    # Initial slice.
    run.values[0] = spec.y0
    if first_order_births:
        run.slopes[0] = 0.0 if spec.y1 is None else spec.y1
    else:
        run.slopes[0] = derived_initial_slope(spec, m)
    prev = np.stack([run.values[0], run.slopes[0]])
    prev2: Optional[np.ndarray] = None

    for i in range(1, m.nt + 1):
        g0_now = None if births.g0 is None else births.g0[i]
        g1_now = None if births.g1 is None else births.g1[i]
        f_now = spec.f[i] if spec.f is not None else None
        rhs = step_rhs(prev[0, :, :-1], prev[1, :, :-1], ctx, m)

        def picard_map(x: np.ndarray) -> np.ndarray:
            it = StateField(*x)
            forcing = np.zeros((n, A, X)) if f_now is None else f_now.copy()
            src = None
            if has_nl:
                if first_order_births:
                    src = newborn_source(beta0, it.values, g0_now)
                mixing, mixed, lam = _mixing(k, it.values, it.slope, src, tau, m)
                forcing -= mixing

            out = np.zeros((2, n, A, X))
            vals, slopes = out
            vals[:, 1:], slopes[:, 1:] = step(prev[0, :, :-1], rhs, ctx, m, f=forcing[:, 1:])
            cand = StateField(vals, slopes)

            if first_order_births:
                G = g_op(k, beta1, mixed, lam, src, m) if has_nl else None
                vals[:, 0], slopes[:, 0] = solve_birth_step(bctx, cand, g0_now, g1_now, G, m)
            else:
                vals[:, 0], _ = solve_birth_step(bctx, cand, g0_now, None, None, m)
                slopes[:, :1] = consistent_slope(lin, vals[:, :1], forcing[:, :1], m)
            return out

        # Predictor: linear extrapolation of the last two slices.  The
        # mixing's inner product weighs the slopes by tau, the square of
        # their energy-norm weight, so at tau = 0, where the map never
        # reads the iterate's slopes, they do not enter.
        guess = prev if prev2 is None else 2.0 * prev - prev2
        at = f"{i} (t={i * m.dt:.6g}, da={m.da:.6g})"
        cur, updates = _fixed_point(picard_map, guess, energy, (1.0, tau), cfg, not has_nl, at)
        prev2, prev = prev, cur
        run.picard_updates.append(updates)
        if i in slot:
            run.values[slot[i]], run.slopes[slot[i]] = cur

    return run


def run_relaxed(spec: ModelSpec, cfg: SolverConfig, m: Mesh) -> Run:
    """Solve the relaxed system with its first-order birth law."""
    return _march(spec, cfg, m, first_order_births=True)


def residual_check(run: Run, spec: ModelSpec) -> float:
    """Sup of the discrete strong-form residual on interior nodes.

    Derivatives along characteristics are recomputed from the stored
    values with centered differences, independently of the slopes the
    stepper produced, so the result measures truncation error rather
    than the scheme's own identity.  Requires store_every = 1.
    """
    m = run.mesh
    spec.validate(m)
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
