"""The benchmark's four workloads: seeded inputs, set-up, work and checks.

Each workload turns a seed into input files (``write_inputs``), builds a
problem from those files (``setup``, the part ``setup_s`` times), does the
work a user waits for (``work``, the part ``wall_s`` times) and checks the
answer (``check``).  ``digest`` reduces an answer to a string that is equal
for bit-identical answers, so reruns and traced runs can be compared.

Call epiwave through module attributes (``study.tau_sweep``, not a name
imported from it): the tracer wraps those attributes.
"""

import contextlib
import hashlib
import io
import json
import random
from pathlib import Path

import numpy as np

import epiwave
from epiwave import io_cli, relaxed_model, study, svir
from epiwave.fields import age_integral
from epiwave.mesh import build_mesh, space_weights

HERE = Path(__file__).resolve().parent
if Path(epiwave.__file__).resolve().parent.parent != HERE.parent / "src":
    raise ImportError(f"epiwave imported from {epiwave.__file__}, not from this checkout")

DESK = (1.0, 1.0, 20, 21)  # t_max, a_max, na, nx: the paper's desk mesh
FINE = (1.0, 1.0, 40, 41)
TAUS = [1e-4, 10**-3.5, 1e-3, 10**-2.5, 1e-2]
RUN_TAU = 1e-2
# Seeds move I0 and total_S0 by at most this share of their defaults.  The
# Picard sweep count grows with total_S0 (505 -> 534 sweeps at +5% on the
# fine mesh), so a wider band would change the work from seed to seed.
BAND = 0.01
RATE_RANGE = (0.8, 1.2)
CSV_RTOL = 1e-8
ORACLES = {"heat-eigenmode", "damped-wave-eigenmode", "renewal", "manufactured-solution"}


class CheckFailed(Exception):
    """An answer that does not pass its output check."""


def band_params(u1: float, u2: float) -> dict:
    """I0 and total_S0 at coordinates u1, u2 in [-1, 1] of the seed band."""
    base = svir.SvirParams()
    return {
        "u": [u1, u2],
        "I0": base.I0 * (1.0 + BAND * u1),
        "total_S0": base.total_S0 * (1.0 + BAND * u2),
    }


def seeded_params(seed: int) -> dict:
    rng = random.Random(seed)
    return band_params(rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0))


def _params(inputs: Path, tau: float) -> svir.SvirParams:
    raw = json.loads((inputs / "params.json").read_text())
    return svir.SvirParams(tau=tau, I0=raw["I0"], total_S0=raw["total_S0"])


def _write_params(seed: int, inputs: Path) -> None:
    (inputs / "params.json").write_text(json.dumps(seeded_params(seed)))


def compartment_totals(values: np.ndarray, m) -> np.ndarray:
    """Compartment totals: trapezoid integral over age and space."""
    return age_integral(values, m) @ space_weights(m)


def marginals(values: np.ndarray, m) -> np.ndarray:
    """Each compartment's profile over space (integrated over age), then
    over age (integrated over space): shape (n, nx + na + 1)."""
    return np.concatenate([age_integral(values, m), values @ space_weights(m)], axis=1)


def lagrange3(u: float) -> np.ndarray:
    """Quadratic Lagrange weights of the nodes -1, 0, 1 at u."""
    return np.array([0.5 * u * (u - 1.0), 1.0 - u * u, 0.5 * u * (u + 1.0)])


def _sha(*chunks: bytes) -> str:
    h = hashlib.sha256()
    for c in chunks:
        h.update(c)
    return h.hexdigest()


class DeskSweep:
    """Criterion-1 study: baseline, refinement floor and five relaxed members."""

    name = "desk-sweep"

    def write_inputs(self, seed, inputs):
        _write_params(seed, inputs)

    def setup(self, inputs):
        m = build_mesh(*DESK)
        base = _params(inputs, 0.0)
        svir.build_svir(base, m)  # the desk problem, built once as a user would
        return base, relaxed_model.SolverConfig(), m

    def work(self, problem):
        base, cfg, m = problem
        return study.tau_sweep(base, TAUS, cfg, m)

    def expect(self, inputs, problem):
        return None

    def check(self, result, expected):
        rate = result.fitted_rate
        if not (np.isfinite(rate) and RATE_RANGE[0] <= rate <= RATE_RANGE[1]):
            raise CheckFailed(f"fitted rate {rate!r} outside {RATE_RANGE}")

    def digest(self, result):
        reps = [
            (r.l2_H, r.h1_V, r.sup_t_V, r.sup_t_H_slope, r.sup_abs)
            for r in result.energy_diffs
        ]
        return repr(
            (result.fitted_rate, result.fitted_rate_energy, result.floor,
             result.sup_diffs, reps, result.front_positions)
        )


class FineRelaxed:
    """One relaxed SVIR solve on the na=40 mesh, where kernel work shows."""

    name = "fine-relaxed"

    def write_inputs(self, seed, inputs):
        _write_params(seed, inputs)

    def setup(self, inputs):
        m = build_mesh(*FINE)
        spec = svir.build_svir(_params(inputs, RUN_TAU), m)
        return spec, relaxed_model.SolverConfig(), m

    def work(self, problem):
        return relaxed_model.run_relaxed(*problem)

    def expect(self, inputs, problem):
        """Reference totals and marginals for this seed, read off the grid.

        fine_reference.json holds them on a 3 x 3 grid over the seed band;
        biquadratic interpolation between its nodes is far inside the
        tolerance (record_reference.py measures it).
        """
        ref = json.loads((HERE / "fine_reference.json").read_text())
        u1, u2 = json.loads((inputs / "params.json").read_text())["u"]
        w1, w2 = lagrange3(u1), lagrange3(u2)
        want = {
            key: np.einsum("i,j,ij...->...", w1, w2, np.asarray(ref[key]))
            for key in ("totals", "marginals")
        }
        return want, ref["rtol"], problem[2]

    def check(self, run, expected):
        """Totals relative to the total population, and the marginals
        relative to their largest value, so that mass in the wrong place
        fails even when the totals hold."""
        want, rtol, m = expected
        final = run[-1].values
        if not (np.all(np.isfinite(final)) and np.all(np.isfinite(run[-1].slope))):
            raise CheckFailed("final slice is not finite")
        got = {"totals": compartment_totals(final, m), "marginals": marginals(final, m)}
        for key in ("totals", "marginals"):
            scale = np.sum(np.abs(want[key])) if key == "totals" else np.max(np.abs(want[key]))
            err = float(np.max(np.abs(got[key] - want[key])) / scale)
            if err > rtol[key]:
                raise CheckFailed(
                    f"final-slice {key} differ from the recorded reference by "
                    f"{err:.3e} (rtol {rtol[key]:g})"
                )

    def digest(self, run):
        return _sha(run[-1].values.tobytes(), run[-1].slope.tobytes())


class CliTables:
    """`epiwave run` on a dense-table .npz of the SVIR model, writing CSVs."""

    name = "cli-tables"

    def write_inputs(self, seed, inputs):
        _write_params(seed, inputs)
        m = build_mesh(*DESK)
        spec = svir.build_svir(_params(inputs, RUN_TAU), m)
        A, X, n = m.na + 1, m.nx, spec.n
        kernels = np.zeros((n, n, n, A, X, A, X))
        for t in spec.kernels.terms:
            kernels[t.h, t.i, t.j] += t.weight * np.asarray(t.table)
        births = spec.births
        np.savez(
            inputs / "model.npz",
            L=spec.linear.L, L_a=spec.linear.L_a, sigma=spec.linear.sigma,
            kernels=kernels,
            beta0=births.beta0, beta1=births.beta1,
            betaL=births.betaL, beta_grad=births.beta_grad,
            y0=spec.y0, y1=spec.y1,
        )
        t_max, a_max, na, nx = DESK
        config = {
            "mesh": {"t_max": t_max, "a_max": a_max, "na": na, "nx": nx},
            "model": {"kind": "tables", "path": str(inputs / "model.npz")},
            "solver": {"tau": RUN_TAU},
            "output": {"directory": str(inputs / "out")},
        }
        (inputs / "config.json").write_text(json.dumps(config))

    def setup(self, inputs):
        """The CLI's own set-up: config parse and the .npz load.

        The built problem is dropped; `epiwave run` builds its own, so
        peak memory holds one copy of the tables, as in a CLI run.
        """
        io_cli.build_problem(io_cli.parse_config(inputs / "config.json"))
        return inputs

    def work(self, inputs):
        out = inputs / "out"
        with contextlib.redirect_stdout(io.StringIO()):
            code = io_cli.cli_main(
                ["run", "--config", str(inputs / "config.json"), "--out", str(out)]
            )
        return code, out

    def expect(self, inputs, problem):
        """Final slice of the library solve of the same SVIR problem."""
        m = build_mesh(*DESK)
        spec = svir.build_svir(_params(inputs, RUN_TAU), m)
        run = relaxed_model.run_relaxed(spec, relaxed_model.SolverConfig(), m)
        return run[-1].values, m

    def check(self, answer, expected):
        code, out = answer
        want, m = expected
        if code != 0:
            raise CheckFailed(f"epiwave run exited with {code}")
        table = np.loadtxt(out / f"slice_{m.nt}.csv", delimiter=",", skiprows=1)
        got = table[:, 2:].T.reshape(want.shape)
        err = float(np.max(np.abs(got - want)))
        if not err <= CSV_RTOL * float(np.max(np.abs(want))):
            raise CheckFailed(f"final CSV slice differs from the library solve by {err:.3e}")

    def digest(self, answer):
        _, out = answer
        files = sorted(out.glob("*.csv"))
        return _sha(*(f.name.encode() + f.read_bytes() for f in files))


class OracleValidate:
    """The `epiwave validate` oracle suite: linear, one compartment, no kernel.

    The suite's cases are built in, so the seed does not reach it.
    """

    name = "oracle-validate"

    def write_inputs(self, seed, inputs):
        pass

    def setup(self, inputs):
        return None

    def work(self, problem):
        return io_cli.validation_cases()

    def expect(self, inputs, problem):
        return None

    def check(self, cases, expected):
        names = {c[0] for c in cases}
        if names != ORACLES:
            raise CheckFailed(f"oracle cases {sorted(names)} != {sorted(ORACLES)}")
        failed = [f"{n} ({meas:.3e} > {bound:g})" for n, ok, meas, bound in cases if not ok]
        if failed:
            raise CheckFailed("oracles failed: " + ", ".join(failed))

    def digest(self, cases):
        return repr([(n, bool(ok), float(meas)) for n, ok, meas, _ in cases])


WORKLOADS = {w.name: w for w in (DeskSweep(), FineRelaxed(), CliTables(), OracleValidate())}
