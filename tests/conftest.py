"""Shared fixtures and test-only reference helpers for the test suite."""

import numpy as np
import pytest

from epiwave import SolverConfig, build_mesh, run_parabolic
from epiwave.char_solver import CharState, step
from epiwave.fields import StateField
from epiwave.study import refinement_floor
from epiwave.svir import SvirParams, build_svir


def propagate_characteristic(init_v, init_w, forcing, ctxs, m):
    """Trajectory along one characteristic, initial state included.

    forcing and ctxs carry one entry per advance.  The scheme is linear
    in (init_v, init_w, forcing), so zeroing two of them isolates the
    propagator of the third.
    """
    out = [CharState(np.array(init_v, dtype=float), np.array(init_w, dtype=float))]
    for fk, ctx in zip(forcing, ctxs, strict=True):
        out.append(step(out[-1], ctx, m, f=fk))
    return out


def state_zeros(n, m):
    shape = (n, m.na + 1, m.nx)
    return StateField(np.zeros(shape), np.zeros(shape))


@pytest.fixture(scope="session")
def desk_mesh():
    return build_mesh(1.0, 1.0, 20, 21)


@pytest.fixture(scope="session")
def solver_cfg():
    return SolverConfig()


@pytest.fixture(scope="session")
def svir_baseline(desk_mesh, solver_cfg):
    """Parabolic tau=0 benchmark run on the desk mesh, every step stored."""
    spec = build_svir(SvirParams(tau=0.0), desk_mesh)
    return run_parabolic(spec, solver_cfg, desk_mesh)


@pytest.fixture(scope="session")
def svir_floor(desk_mesh, solver_cfg):
    """(sup, energy) refinement floor between na=20 and na=40 runs."""
    return refinement_floor(SvirParams(), solver_cfg, desk_mesh)


@pytest.fixture(scope="session")
def small_mesh():
    return build_mesh(0.5, 1.0, 10, 11)
