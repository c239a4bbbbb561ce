"""Shared fixtures and test-only reference helpers for the test suite."""

import numpy as np
import pytest

from epiwave import SolverConfig, build_mesh, run_parabolic
from epiwave.char_solver import step
from epiwave.fields import StateField
from epiwave.study import refinement_floor
from epiwave.svir import SvirParams, build_svir


def propagate_characteristic(init_v, init_w, forcing, ages, ctx, m):
    """Trajectory along one characteristic, initial state included.

    forcing and ages carry one entry per advance: the forcing and the
    target age index of that step.  Each advance steps a slice that is
    zero except for this characteristic's column.  The scheme is linear
    in (init_v, init_w, forcing), so zeroing two of them isolates the
    propagator of the third.
    """
    v = np.array(init_v, dtype=float)
    w = np.array(init_w, dtype=float)
    out = [(v, w)]
    shape = (v.shape[0], m.na, m.nx)
    for fk, a in zip(forcing, ages, strict=True):
        vs, ws, fs = np.zeros(shape), np.zeros(shape), np.zeros(shape)
        vs[:, a - 1], ws[:, a - 1] = v, w
        if fk is not None:
            fs[:, a - 1] = fk
        vs, ws = step(vs, ws, ctx, m, f=fs)
        v, w = vs[:, a - 1], ws[:, a - 1]
        out.append((v, w))
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
def svir_floor(desk_mesh, solver_cfg, svir_baseline):
    """Sup refinement floor between the na=20 baseline and an na=40 run."""
    return refinement_floor(svir_baseline, SvirParams(), desk_mesh, solver_cfg)


@pytest.fixture(scope="session")
def small_mesh():
    return build_mesh(0.5, 1.0, 10, 11)
