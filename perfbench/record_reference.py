"""Record the reference totals that the fine-relaxed check reads.

    python3 perfbench/record_reference.py

Solves fine-relaxed on a 3 x 3 grid over the seed band (nodes -1, 0, 1
of each seeded coordinate) and writes the final slice's compartment
totals and marginal profiles (over space and over age) to
fine_reference.json.  It also solves three points between the nodes
and fails if biquadratic interpolation misses them by more than a tenth
of the check's tolerance.  Takes about three minutes on two cores.
"""

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np  # noqa: E402

from epiwave import relaxed_model, svir  # noqa: E402
from epiwave.mesh import build_mesh  # noqa: E402
from workloads import (  # noqa: E402
    BAND, FINE, HERE, RUN_TAU, band_params, compartment_totals, lagrange3, marginals,
)

# Totals relative to the total population, marginals relative to their
# largest value.  Picard iterates converged to picard_tol = 1e-10 differ
# far less; a wrong kernel or birth law, or a 1% change of the inputs
# (about 1e-2 here), moves them far more.  The marginals curve more over
# the band, so biquadratic interpolation of them needs the wider tolerance.
RTOL = {"totals": 1e-5, "marginals": 2e-5}
NODES = (-1.0, 0.0, 1.0)
PROBES = ((0.5, -0.3), (-0.7, 0.9), (0.2, 0.6))


def solve(u1: float, u2: float) -> dict:
    band = band_params(u1, u2)
    p = svir.SvirParams(tau=RUN_TAU, I0=band["I0"], total_S0=band["total_S0"])
    m = build_mesh(*FINE)
    final = relaxed_model.run_relaxed(svir.build_svir(p, m), relaxed_model.SolverConfig(), m)[-1]
    return {"totals": compartment_totals(final.values, m), "marginals": marginals(final.values, m)}


def error(key: str, got: np.ndarray, want: np.ndarray) -> float:
    scale = np.sum(np.abs(want)) if key == "totals" else np.max(np.abs(want))
    return float(np.max(np.abs(got - want)) / scale)


def main() -> None:
    solved = [[solve(u1, u2) for u2 in NODES] for u1 in NODES]
    grid = {key: np.array([[s[key] for s in row] for row in solved])
            for key in ("totals", "marginals")}
    worst = dict.fromkeys(grid, 0.0)
    for u1, u2 in PROBES:
        got = solve(u1, u2)
        for key, values in grid.items():
            est = np.einsum("i,j,ij...->...", lagrange3(u1), lagrange3(u2), values)
            worst[key] = max(worst[key], error(key, est, got[key]))
    seed_move = {key: error(key, grid[key][2, 2], grid[key][1, 1]) for key in grid}
    print(f"worst interpolation error {worst}; move from the band centre to a corner {seed_move}")
    if any(worst[key] > RTOL[key] / 10 for key in grid):
        raise SystemExit("interpolation error too close to the tolerance")
    (HERE / "fine_reference.json").write_text(json.dumps(
        {"band": BAND, "nodes": NODES, "rtol": RTOL, "interpolation_error": worst,
         "totals": grid["totals"].tolist(), "marginals": grid["marginals"].tolist()},
        indent=1,
    ) + "\n")


if __name__ == "__main__":
    main()
