"""Oracle problems and independent reference solutions for the solvers.

The reference routines compute their answers by routes that share
nothing with the production stepper: closed forms, or a second-order
trapezoid march of the renewal integral equation on a fine grid, with
exact survival factors and one correlation for its cohort term.

The catalogue builds the one-compartment oracle problems that
`epiwave validate` and the tests run: heat and damped-wave eigenmodes,
age-only renewal and a manufactured solution.  Each builder takes the
mesh and returns the ModelSpec and its exact answer; relative_error
and total_births turn a run into the measured quantity.
"""

from typing import Callable, Optional, Tuple

import numpy as np

from .birth import zero_laws
from .fields import Run, time_weights
from .mesh import Mesh
from .operators import KernelSet, LinearPart
from .relaxed_model import ModelSpec


def heat_mode_decay(sigma: float, t) -> np.ndarray:
    """Amplitude of the cos(pi x) Neumann mode under pure diffusion."""
    return np.exp(-sigma * np.pi**2 * np.asarray(t, dtype=float))


def damped_mode_solution(tau: float, rate: float):
    """Exact solution of tau q'' + q' + rate q = 0 with q(0) = 1, q'(0) = 0.

    Returns callables (q, qprime).  With k = 1/(2 tau) and d = 1 - 4 tau
    rate, q is e^(-k t) times cos/sin when d < 0 and times (1 + k t) when
    d = 0.  When d > 0 it is c1 e^(s1 t) + c2 e^(s2 t), with the slow root
    s1 in a form free of cancellation; e^(-k t) cosh would overflow at
    small tau.
    """
    k, d = 0.5 / tau, 1.0 - 4.0 * tau * rate
    if d > 0:
        r = np.sqrt(d)
        s1, s2 = -2.0 * rate / (1.0 + r), -(1.0 + r) * k
        c1, c2 = (1.0 + r) / (2.0 * r), s1 * tau / r
        return (
            lambda t: c1 * np.exp(s1 * t) + c2 * np.exp(s2 * t),
            lambda t: rate / r * (np.exp(s2 * t) - np.exp(s1 * t)),
        )
    if d < 0:
        w = np.sqrt(-d) * k
        return (
            lambda t: np.exp(-k * t) * (np.cos(w * t) + k / w * np.sin(w * t)),
            lambda t: -rate / (tau * w) * np.exp(-k * t) * np.sin(w * t),
        )
    return (lambda t: np.exp(-k * t) * (1.0 + k * t), lambda t: -k * k * t * np.exp(-k * t))


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
    by the trapezoid rule on n_fine age steps with half weights at both
    ends of both integrals (second order in the step), solving for the
    a = 0 self-weight exactly; one correlation gives every step's cohort
    term.  Returns (times, B, total births over [0, t_end]).
    """
    h = a_max / n_fine
    nt = int(round(t_end / h))
    ages = np.arange(n_fine + 1) * h
    wts = np.full(n_fine + 1, h)
    wts[0] = wts[-1] = 0.5 * h
    coef = wts * beta_fn(ages)
    surv = np.exp(-mu * ages)
    cohort = y0_fn(ages)
    # lags[k] = sum_d coef[k + d] y0(d h): the cohort integral at t = k h, but
    # weighing a = t by h; forcing halves it, and B(0)'s weight at lag k below
    lags = np.correlate(coef, cohort, mode="full")[n_fine:]
    B = np.zeros(nt + 1)
    B[0] = lags[0]
    forcing = surv * (lags - 0.5 * coef * (cohort[0] + B[0]))
    hist_coef = coef * surv  # weight of B(t - a) at lag a
    for k in range(1, nt + 1):
        j = min(k, n_fine)
        acc = float(np.dot(hist_coef[1 : j + 1], B[k - 1 :: -1][:j]))
        B[k] = (acc + (forcing[k] if k < n_fine else 0.0)) / (1.0 - coef[0])
    total = h * (B.sum() - 0.5 * (B[0] + B[-1]))  # trapezoid over [0, t_end]
    return np.arange(nt + 1) * h, B, float(total)


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
        linear=linear,
        kernels=kernels if kernels is not None else KernelSet(),
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
    """Damped-wave cos(pi x) mode; (spec, exact final slice)."""
    q, qp = damped_mode_solution(tau, sigma * np.pi**2)
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


def total_births(run: Run) -> float:
    """Trapezoid integral over the stored times of the age-zero value at x = 0."""
    run.check_stored()
    return float(np.dot(time_weights(run.indices, run.mesh.dt), run.values[:, 0, 0, 0]))
