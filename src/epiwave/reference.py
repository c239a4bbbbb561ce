"""Oracle problems and independent reference solutions for the solvers.

The reference routines compute their answers by routes that share
nothing with the production stepper: closed forms, high-accuracy ODE
integration, or fine-grid integral-equation marching with exact
survival factors.

The catalogue builds the one-compartment oracle problems that
`epiwave validate` and the tests run: heat and damped-wave eigenmodes,
age-only renewal and a manufactured solution.  Each builder takes the
mesh and returns the ModelSpec and its exact answer; relative_error
and total_births turn a run into the measured quantity.
"""

from typing import Callable, Optional, Tuple

import numpy as np
from scipy.integrate import solve_ivp

from .birth import zero_laws
from .mesh import Mesh
from .operators import KernelSet, LinearPart
from .relaxed_model import ModelSpec, Run


def heat_mode_decay(sigma: float, t) -> np.ndarray:
    """Amplitude of the cos(pi x) Neumann mode under pure diffusion."""
    return np.exp(-sigma * np.pi**2 * np.asarray(t, dtype=float))


def damped_mode_solution(
    tau: float,
    rate: float,
    t_end: float,
    q0: float = 1.0,
    p0: float = 0.0,
):
    """High-accuracy solution of tau q'' + q' + rate q = 0.

    Returns callables (q, qprime) valid on [0, t_end].
    """

    def rhs(_t, y):
        return [y[1], -(y[1] + rate * y[0]) / tau]

    sol = solve_ivp(
        rhs,
        (0.0, t_end),
        [q0, p0],
        method="DOP853",
        rtol=1e-12,
        atol=1e-14,
        dense_output=True,
    )

    def q(t):
        return sol.sol(np.asarray(t, dtype=float))[0]

    def qprime(t):
        return sol.sol(np.asarray(t, dtype=float))[1]

    return q, qprime


def renewal_reference(
    beta_fn: Callable,
    mu: float,
    y0_fn: Callable,
    a_max: float,
    t_end: float,
    n_fine: int = 1280,
) -> Tuple[np.ndarray, np.ndarray, float]:
    """Fine-grid march of the age-only renewal equation.

    Solves B(t) = int_0^min(t, a_max) beta(a) e^(-mu a) B(t - a) da
                + e^(-mu t) int_t^a_max beta(a) y0(a - t) da
    with trapezoid quadrature on a grid of n_fine age steps, handling
    the a = 0 self-weight exactly.  Returns (times, B, total births),
    the total integrated over [0, t_end].
    """
    h = a_max / n_fine
    nt = int(round(t_end / h))
    ages = np.arange(n_fine + 1) * h
    wts = np.full(n_fine + 1, h)
    wts[0] = wts[-1] = 0.5 * h
    beta = beta_fn(ages)
    surv = np.exp(-mu * ages)

    B = np.zeros(nt + 1)
    B[0] = float(np.dot(wts, beta * y0_fn(ages)))
    hist_coef = wts * beta * surv  # weight of B(t - a) at lag a
    for k in range(1, nt + 1):
        t = k * h
        j = min(k, n_fine)
        acc = float(np.dot(hist_coef[1 : j + 1], B[k - 1 :: -1][:j]))
        if k < n_fine:
            cohort = y0_fn(ages[k + 1 :] - t)
            acc += np.exp(-mu * t) * float(
                np.dot(wts[k + 1 :] * beta[k + 1 :], cohort)
            )
        B[k] = acc / (1.0 - wts[0] * beta[0])
    times = np.arange(nt + 1) * h
    tw = np.full(nt + 1, h)
    tw[0] = tw[-1] = 0.5 * h
    total = float(np.dot(tw, B))
    return times, B, total


# ---------------------------------------------------------------------------
# oracle catalogue


def scalar_spec(
    m: Mesh,
    y0: np.ndarray,
    sigma: float = 0.1,
    mu: float = 0.0,
    g0: Optional[np.ndarray] = None,
    g1: Optional[np.ndarray] = None,
    kernels: Optional[KernelSet] = None,
    **fields,
) -> ModelSpec:
    """One-compartment spec: constant sigma and mortality mu, no birth law.

    Births come only from the explicit g0 / g1 series; the remaining
    fields (y1, f, tau) pass through to ModelSpec.
    """
    A, X = m.na + 1, m.nx
    linear = LinearPart(
        L=np.full((A, X, 1, 1), mu),
        L_a=np.zeros((A, X, 1, 1)),
        sigma=np.full((A, 1), sigma),
    )
    return ModelSpec(
        n=1,
        linear=linear,
        kernels=kernels if kernels is not None else KernelSet(1),
        births=zero_laws(1, m, g0=g0, g1=g1),
        y0=y0,
        **fields,
    )


def _mode_spec(m: Mesh, sigma: float, amp, damp=None, tau: float = 0.0):
    """cos(pi x) Neumann mode fed at age zero with amplitude amp(t)."""
    mode = np.cos(np.pi * m.xs())
    times = m.times()
    spec = scalar_spec(
        m,
        np.broadcast_to(mode, (1, m.na + 1, m.nx)).copy(),
        sigma=sigma,
        g0=(amp(times)[:, None] * mode)[:, None, :],
        g1=None if damp is None else (damp(times)[:, None] * mode)[:, None, :],
        tau=tau,
    )
    return spec, mode


def heat_eigenmode(m: Mesh, sigma: float = 0.1):
    """Parabolic cos(pi x) mode; (spec, exact final slice)."""
    spec, mode = _mode_spec(m, sigma, lambda t: heat_mode_decay(sigma, t))
    return spec, heat_mode_decay(sigma, m.t_max) * mode


def damped_eigenmode(m: Mesh, sigma: float = 0.1, tau: float = 0.1):
    """Damped-wave cos(pi x) mode; (spec, final slice of the ODE oracle)."""
    q, qp = damped_mode_solution(tau, sigma * np.pi**2, m.t_max)
    spec, mode = _mode_spec(m, sigma, q, qp, tau=tau)
    return spec, q(m.t_max) * mode


def _constant_fertility(a):
    return 1.2 + 0.0 * np.asarray(a)


def _cosine_cohort(a):
    return 1.0 + 0.5 * np.cos(np.pi * np.asarray(a))


def renewal(
    m: Mesh,
    mu: float = 0.3,
    beta_fn: Callable = _constant_fertility,
    y0_fn: Callable = _cosine_cohort,
    n_fine: int = 1280,
):
    """Age-only renewal (sigma = 0); (spec, total births over [0, t_max])."""
    A, X = m.na + 1, m.nx
    ages = m.ages()
    spec = scalar_spec(
        m,
        np.broadcast_to(y0_fn(ages)[None, :, None], (1, A, X)).copy(),
        sigma=0.0,
        mu=mu,
    )
    spec.births.beta0 = np.broadcast_to(
        beta_fn(ages)[:, None, None, None], (A, X, 1, 1)
    ).copy()
    _, _, total = renewal_reference(beta_fn, mu, y0_fn, m.a_max, m.t_max, n_fine)
    return spec, total


def manufactured(m: Mesh, tau: float = 0.05, sigma: float = 0.1):
    """Relaxed problem with y = e^-t (1 + a) cos(pi x); (spec, exact final slice)."""
    ages = m.ages()[None, :, None]
    mode = np.cos(np.pi * m.xs())[None, None, :]
    tt = m.times()

    def exact(t):
        return np.exp(-t) * (1.0 + ages) * mode

    f = np.stack(
        [
            np.exp(-t)
            * mode
            * (tau * (ages - 1.0) - ages + sigma * np.pi**2 * (1.0 + ages))
            for t in tt
        ]
    )
    g0 = np.stack([np.exp(-t) * mode[:, 0, :] for t in tt])
    spec = scalar_spec(
        m,
        exact(0.0),
        sigma=sigma,
        g0=g0,
        g1=np.zeros_like(g0),
        y1=-ages * mode * np.ones_like(ages),
        f=f,
        tau=tau,
    )
    return spec, exact(m.t_max)


def relative_error(values: np.ndarray, exact: np.ndarray) -> float:
    """Max-norm error of a slice relative to the max of the exact one."""
    return float(np.max(np.abs(values - exact))) / float(np.max(np.abs(exact)))


def total_births(run: Run, m: Mesh) -> float:
    """Trapezoid integral over time of the age-zero value at x = 0."""
    b = np.array([sl.values[0, 0, 0] for sl in run])
    tw = np.full(len(b), m.dt)
    tw[0] = tw[-1] = 0.5 * m.dt
    return float(np.dot(tw, b))
