"""Four-compartment SVIR model factory: the paper's numerical example.

Compartment layout: S = 0 (susceptible), V = 1 (vaccinated), I = 2
(infective), R = 3 (removed).  The defaults form the benchmark
configuration used by the acceptance experiments; the infection
pressure acts through a spatial tent kernel on the infective
compartment, with susceptibles, vaccinated (leakage phi1) and removed
(reinfection phi2) as targets.  SvirParams holds the scalar rates; the
age and space profiles are this module's functions, and another profile
is made by editing the built spec's linear or kernels tables.
"""

from dataclasses import dataclass

import numpy as np

from .birth import zero_laws
from .errors import InvalidParam
from .mesh import Mesh, is_real
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


def tent_kernel(x, xi):
    return np.maximum(0.1 - np.abs(x - xi), 0.0)


def sigma_susceptible(a):
    return 0.1 * np.exp(-0.1 * a)


def sigma_infective(a):
    return 0.05 * np.exp(-0.1 * a)


@dataclass
class SvirParams:
    """The benchmark's scalar rates, initial totals and relaxation time."""

    c: float = 0.18564
    phi1: float = 0.0052
    phi2: float = 0.00062
    delta_d: float = 0.0018
    gamma: float = 0.278574
    total_S0: float = 1000.0
    I0: float = 10.0
    tau: float = 0.0

    def validate(self) -> None:
        for name in ("c", "delta_d", "gamma", "total_S0", "I0"):
            v = getattr(self, name)
            if not (is_real(v) and 0.0 <= v < np.inf):
                raise InvalidParam(f"{name}={v!r} must be finite and nonnegative")
        for name in ("phi1", "phi2"):
            v = getattr(self, name)
            if not (is_real(v) and 0.0 <= v <= 1.0):
                raise InvalidParam(f"{name}={v!r} outside [0, 1]")
        if not (is_real(self.tau) and 0.0 <= self.tau < np.inf):
            raise InvalidParam(f"tau={self.tau!r} must be finite and nonnegative")


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
    A, X, n = m.na + 1, m.nx, len(COMPARTMENTS)
    ages = m.ages()
    xs = m.xs()

    mu, mu_da = default_mortality(ages), default_mortality_da(ages)
    L = np.zeros((A, X, n, n))
    L_a = np.zeros((A, X, n, n))
    for h in range(n):
        L[:, :, h, h] = mu[:, None]
        L_a[:, :, h, h] = mu_da[:, None]
    L[:, :, S, V] += -p.c
    L[:, :, V, V] += p.c
    L[:, :, I, I] += p.delta_d + p.gamma
    L[:, :, R, I] += -p.gamma

    s_sus = sigma_susceptible(ages)
    sigma = np.stack([s_sus, s_sus, sigma_infective(ages), s_sus], axis=1)
    linear = LinearPart(L=L, L_a=L_a, sigma=sigma)

    # One age-independent spatial kernel, shared by all six couplings.
    base = FactoredTable(tent_kernel(xs[:, None], xs[None, :]), None, A)
    couplings = [
        (S, S, I, 1.0),
        (V, V, I, p.phi1),
        (I, S, I, -1.0),
        (I, V, I, -p.phi1),
        (I, R, I, -p.phi2),
        (R, R, I, p.phi2),
    ]
    kernels = KernelSet([KernelTerm(h, i, j, w, base) for h, i, j, w in couplings])

    births = zero_laws(n, m)
    beta = default_fertility(ages, m.a_max)
    births.beta0[:, :, S, :] = births.beta1[:, :, S, :] = beta[:, None, None]

    y0 = np.zeros((n, A, X))
    y0[S] = p.total_S0 / m.a_max
    y0[I] = (p.I0 / m.a_max) * boundary_bump(m)[None, :]

    return ModelSpec(
        linear=linear,
        kernels=kernels,
        births=births,
        y0=y0,
        y1=np.zeros_like(y0),
        tau=p.tau,
    )

