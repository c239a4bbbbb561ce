"""Four-compartment SVIR model factory.

Compartment layout: S = 0 (susceptible), V = 1 (vaccinated), I = 2
(infective), R = 3 (removed).  The defaults form the benchmark
configuration used by the acceptance experiments; the infection
pressure acts through a spatial tent kernel on the infective
compartment, with susceptibles, vaccinated (leakage phi1) and removed
(reinfection phi2) as targets.
"""

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .birth import zero_laws
from .errors import InvalidParam
from .mesh import Mesh
from .operators import FactoredTable, KernelSet, KernelTerm, LinearPart
from .relaxed_model import ModelSpec

S, V, I, R = 0, 1, 2, 3
COMPARTMENTS = ("S", "V", "I", "R")


def default_mortality(a):
    return np.exp(-a) * a**5


def default_mortality_da(a):
    return np.exp(-a) * (5.0 * a**4 - a**5)


def default_fertility(a, a_max: float = 1.0):
    return (6.78 / a_max) * a**2 * (a_max - a) * (1.0 + np.sin(np.pi * a / a_max))


def tent_kernel(x, xi, reach: float = 0.1):
    return np.maximum(reach - np.abs(x - xi), 0.0)


def sigma_susceptible(a):
    return 0.1 * np.exp(-0.1 * a)


def sigma_infective(a):
    return 0.05 * np.exp(-0.1 * a)


@dataclass
class SvirParams:
    """Benchmark parameter set; scalar rates plus age/space profiles."""

    c: float = 0.18564
    phi1: float = 0.0052
    phi2: float = 0.00062
    delta_d: float = 0.0018
    gamma: float = 0.278574
    total_S0: float = 1000.0
    I0: float = 10.0
    tau: float = 0.0
    mu: Callable = default_mortality
    mu_da: Optional[Callable] = default_mortality_da
    beta: Callable = default_fertility
    lambda_kernel: Callable = tent_kernel
    sigma_S: Callable = sigma_susceptible
    sigma_V: Callable = sigma_susceptible
    sigma_I: Callable = sigma_infective
    sigma_R: Callable = sigma_susceptible

    def validate(self) -> None:
        for name in ("c", "delta_d", "gamma", "total_S0", "I0"):
            if getattr(self, name) < 0:
                raise InvalidParam(f"{name} must be nonnegative")
        for name in ("phi1", "phi2"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise InvalidParam(f"{name}={v} outside [0, 1]")
        if self.tau < 0:
            raise InvalidParam("tau must be nonnegative")


def boundary_bump(m: Mesh) -> np.ndarray:
    """Hat profile on the last two grid cells with unit space integral.

    A surface concentration at x = 1 has no grid meaning; this ramp is
    its narrowest trapezoid-exact stand-in.
    """
    psi = np.zeros(m.nx)
    psi[-2] = 0.5 / m.dx
    psi[-1] = 1.0 / m.dx
    return psi


def build_svir(p: SvirParams, m: Mesh) -> ModelSpec:
    """Assemble the SVIR ModelSpec on a mesh.

    Initial state: total_S0 susceptibles uniform over age and space, I0
    infectives uniform over age concentrated at the x = 1 boundary,
    initial slope zero, fertility applied at both birth orders
    (beta1 = beta0 = beta); births computed from the weighted total
    population enter S.
    """
    p.validate()
    A, X = m.na + 1, m.nx
    ages = m.ages()
    xs = m.xs()

    mu = p.mu(ages)
    if p.mu_da is not None:
        mu_da = p.mu_da(ages)
    else:
        mu_da = np.gradient(mu, m.da, edge_order=2)

    L = np.zeros((A, X, 4, 4))
    L_a = np.zeros((A, X, 4, 4))
    for h in range(4):
        L[:, :, h, h] = mu[:, None]
        L_a[:, :, h, h] = mu_da[:, None]
    L[:, :, S, V] += -p.c
    L[:, :, V, V] += p.c
    L[:, :, I, I] += p.delta_d + p.gamma
    L[:, :, R, I] += -p.gamma

    sigma = np.stack(
        [p.sigma_S(ages), p.sigma_V(ages), p.sigma_I(ages), p.sigma_R(ages)],
        axis=1,
    )
    linear = LinearPart(L=L, L_a=L_a, sigma=sigma)

    # One age-independent spatial kernel, shared by all six couplings.
    base = FactoredTable(p.lambda_kernel(xs[:, None], xs[None, :]), None, A)
    couplings = [
        (S, S, I, 1.0),
        (V, V, I, p.phi1),
        (I, S, I, -1.0),
        (I, V, I, -p.phi1),
        (I, R, I, -p.phi2),
        (R, R, I, p.phi2),
    ]
    kernels = KernelSet(
        n=4, terms=[KernelTerm(h, i, j, w, base) for h, i, j, w in couplings]
    )

    births = zero_laws(4, m)
    births.beta0[:, :, S, :] = births.beta1[:, :, S, :] = p.beta(ages, m.a_max)[:, None, None]

    y0 = np.zeros((4, A, X))
    y0[S] = p.total_S0 / m.a_max
    y0[I] = (p.I0 / m.a_max) * boundary_bump(m)[None, :]

    return ModelSpec(
        n=4,
        linear=linear,
        kernels=kernels,
        births=births,
        y0=y0,
        y1=np.zeros_like(y0),
        tau=p.tau,
    )

