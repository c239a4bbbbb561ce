"""Baseline solver for the unrelaxed parabolic system.

Shares the stepper, quadratures and birth machinery of the relaxed
driver with tau forced to zero and only the zeroth-order birth law, so
comparisons between the two solvers isolate the relaxation effect.
Committed slopes are the consistent transport derivatives
sigma Lap y - (L + Lambda(y)) y + f, including the age-zero row.
"""

from .mesh import Mesh
from .relaxed_model import ModelSpec, Run, SolverConfig, _march


def run_parabolic(spec: ModelSpec, cfg: SolverConfig, m: Mesh) -> Run:
    """Solve the parabolic system; spec.tau and spec.y1 are ignored."""
    return _march(spec, cfg, m, first_order_births=False).members()[0]
