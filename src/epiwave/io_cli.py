"""Configuration ingestion, CSV persistence and the command-line surface.

Configs are strict-schema JSON (unknown keys rejected); results are CSV
with 17-significant-digit decimals, which round-trip float64 exactly.
The CLI exposes run / sweep / compare / validate; exit code 2 flags a
configuration problem, 1 a solver or output failure, 0 success.
"""

import argparse
import dataclasses
import json
import sys
import typing
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import List, Optional

import numpy as np

from . import study
from .birth import zero_laws
from .errors import (
    ConfigError,
    EpiwaveError,
    InvalidParam,
    InvalidSize,
    IoError,
    NonCommensurate,
)
from .fields import age_integral, diff_norms
from .mesh import Mesh, build_mesh
from .operators import KernelSet, LinearPart
from .parabolic_model import run_parabolic
from .relaxed_model import (
    ModelSpec,
    Run,
    SolverConfig,
    residual_check,
    run_relaxed,
)
from .svir import COMPARTMENTS, SvirParams, build_svir

_FMT = "%.17g"


# ---------------------------------------------------------------------------
# configuration


@dataclass
class MeshBlock:
    t_max: float = 1.0
    a_max: float = 1.0
    na: int = 20
    nx: int = 21


@dataclass
class ModelBlock:
    kind: str = "svir"
    params: dict = field(default_factory=dict)
    path: Optional[str] = None


@dataclass
class SolverBlock:
    tau: float = 0.0
    picard_tol: float = 1e-10
    picard_max: int = 100
    store_every: int = 1


@dataclass
class StudyBlock:
    taus: List[float] = field(default_factory=lambda: [1e-4, 1e-3, 1e-2])
    q1: Optional[float] = None
    q2: Optional[float] = None
    threshold: Optional[float] = None


@dataclass
class OutputBlock:
    directory: str = "out"


@dataclass
class RunConfig:
    mesh: MeshBlock = field(default_factory=MeshBlock)
    model: ModelBlock = field(default_factory=ModelBlock)
    solver: SolverBlock = field(default_factory=SolverBlock)
    study: StudyBlock = field(default_factory=StudyBlock)
    output: OutputBlock = field(default_factory=OutputBlock)


_SVIR_SCALARS = (
    "c",
    "phi1",
    "phi2",
    "delta_d",
    "gamma",
    "total_S0",
    "I0",
)


def _fits(value, kind) -> bool:
    """Whether a JSON value matches a config field's annotated type."""
    if typing.get_origin(kind) is typing.Union:
        return any(_fits(value, k) for k in typing.get_args(kind))
    if typing.get_origin(kind) is list:
        (item,) = typing.get_args(kind)
        return isinstance(value, list) and all(_fits(v, item) for v in value)
    if isinstance(value, bool):
        return kind is bool
    if kind is float:
        return isinstance(value, (int, float)) and abs(value) <= sys.float_info.max
    return isinstance(value, kind)


def _fill(cls, data, where: str):
    if not isinstance(data, dict):
        raise ConfigError(f"{where} must be an object")
    kinds = {f.name: f.type for f in dataclasses.fields(cls)}
    unknown = set(data) - set(kinds)
    if unknown:
        raise ConfigError(f"unknown key(s) {sorted(unknown)} in {where}")
    for name, value in data.items():
        if not _fits(value, kinds[name]):
            raise ConfigError(f"{where}.{name} has the wrong type: {value!r}")
    return cls(**data)


def parse_config_dict(raw: dict) -> RunConfig:
    if not isinstance(raw, dict):
        raise ConfigError("top-level config must be an object")
    unknown = set(raw) - {"mesh", "model", "solver", "study", "output"}
    if unknown:
        raise ConfigError(f"unknown top-level key(s) {sorted(unknown)}")
    cfg = RunConfig(
        mesh=_fill(MeshBlock, raw.get("mesh", {}), "mesh"),
        model=_fill(ModelBlock, raw.get("model", {}), "model"),
        solver=_fill(SolverBlock, raw.get("solver", {}), "solver"),
        study=_fill(StudyBlock, raw.get("study", {}), "study"),
        output=_fill(OutputBlock, raw.get("output", {}), "output"),
    )
    if cfg.model.kind == "svir":
        unknown = set(cfg.model.params) - set(_SVIR_SCALARS)
        if unknown:
            raise ConfigError(f"unknown model.params key(s) {sorted(unknown)}")
        for name, value in cfg.model.params.items():
            if not _fits(value, float):
                raise ConfigError(f"model.params.{name} must be a number: {value!r}")
    elif cfg.model.kind == "tables":
        if not cfg.model.path:
            raise ConfigError("model.kind 'tables' needs model.path")
    else:
        raise ConfigError(f"unknown model.kind {cfg.model.kind!r}")
    return cfg


def parse_config(path) -> RunConfig:
    p = Path(path)
    if not p.exists():
        raise ConfigError(f"config file not found: {p}")
    try:
        raw = json.loads(p.read_text())
    except (OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ConfigError(f"{p}: {exc}") from None
    return parse_config_dict(raw)


def serialize_config(cfg: RunConfig) -> str:
    return json.dumps(dataclasses.asdict(cfg), indent=2, sort_keys=True)


def svir_params_from(cfg: RunConfig, tau: float) -> SvirParams:
    params = SvirParams(tau=tau, **cfg.model.params)
    try:
        params.validate()
    except InvalidParam as exc:
        raise ConfigError(str(exc)) from None
    return params


def _load_table(data, key: str) -> np.ndarray:
    """One table of an .npz archive as float64; other dtypes are ConfigErrors."""
    try:
        tab = data[key]
    except (OSError, ValueError) as exc:
        raise ConfigError(f"cannot read model table {key!r}: {exc}") from None
    if tab.dtype.kind not in "iuf":
        raise ConfigError(f"model table {key!r} has dtype {tab.dtype}, expected real numbers")
    return np.asarray(tab, dtype=float)


def _spec_from_tables(path: str, m: Mesh, tau: float) -> ModelSpec:
    """Generic model loaded from an .npz of sampled tables.

    L, sigma and y0 are required; every table present must hold real
    numbers in the shape the mesh and the compartment count
    n = L.shape[-1] imply.  Kernel tables are factored on load into the
    model's kernel terms; the solve derives their Lambda_1 (tilde) terms.
    """
    if tau < 0:
        raise ConfigError(f"tau={tau} must be nonnegative")
    try:
        data = np.load(path)
    except (OSError, ValueError) as exc:
        raise ConfigError(f"cannot read model tables: {exc}") from None
    for key in ("L", "sigma", "y0"):
        if key not in data:
            raise ConfigError(f"model tables lack the required key {key!r}")
    L = _load_table(data, "L")
    n = max(L.shape[-1] if L.ndim else 0, 1)  # an L without compartments fails below
    A, X, T = m.na + 1, m.nx, m.nt + 1
    shapes = {
        "L": (A, X, n, n),
        "L_a": (A, X, n, n),
        "sigma": (A, n),
        "kernels": (n, n, n, A, X, A, X),
        "g0": (T, n, X),
        "g1": (T, n, X),
        "y0": (n, A, X),
        "y1": (n, A, X),
        "f": (T, n, A, X),
        **dict.fromkeys(("beta0", "beta1", "betaL", "beta_grad"), (A, X, n, n)),
    }
    tabs = {key: L if key == "L" else _load_table(data, key) for key in shapes if key in data}
    for key, tab in tabs.items():
        if tab.shape != shapes[key]:
            raise ConfigError(
                f"model table {key!r} has shape {tab.shape}, expected {shapes[key]}"
            )
    linear = LinearPart(
        L=L,
        L_a=tabs["L_a"] if "L_a" in tabs else np.gradient(L, m.da, axis=0, edge_order=2),
        sigma=tabs["sigma"],
    )
    kernels = KernelSet.from_dense(tabs.pop("kernels")) if "kernels" in tabs else KernelSet(n)
    births = zero_laws(n, m, g0=tabs.get("g0"), g1=tabs.get("g1"))
    for key in ("beta0", "beta1", "betaL", "beta_grad"):
        if key in tabs:
            setattr(births, key, tabs[key])
    return ModelSpec(
        n=n,
        linear=linear,
        kernels=kernels,
        births=births,
        y0=tabs["y0"],
        y1=tabs.get("y1"),
        f=tabs.get("f"),
        tau=tau,
    )


def _mesh_and_solver(cfg: RunConfig):
    """Mesh and solver settings of a config; bad values are ConfigErrors."""
    try:
        m = build_mesh(cfg.mesh.t_max, cfg.mesh.a_max, cfg.mesh.na, cfg.mesh.nx)
        solver = SolverConfig(
            picard_tol=cfg.solver.picard_tol,
            picard_max=cfg.solver.picard_max,
            store_every=cfg.solver.store_every,
        )
        solver.validate()
    except (InvalidSize, NonCommensurate, InvalidParam) as exc:
        raise ConfigError(str(exc)) from None
    return m, solver


def build_problem(cfg: RunConfig, tau: Optional[float] = None):
    """Mesh, spec and solver settings realized from a parsed config.

    Every error in the configuration or the model tables it names is
    raised as a ConfigError; non-finite kernel values raise NonFinite
    here, other non-finite table values at solve time.
    """
    m, solver = _mesh_and_solver(cfg)
    t = cfg.solver.tau if tau is None else tau
    if cfg.model.kind == "svir":
        spec = build_svir(svir_params_from(cfg, t), m)
    else:
        spec = _spec_from_tables(cfg.model.path, m, t)
    return m, spec, solver


# ---------------------------------------------------------------------------
# writers


def _mkdir(path) -> Path:
    """Create an output directory and its parents; failures are IoErrors."""
    out = Path(path)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise IoError(str(exc)) from None
    return out


def _writerows(path: Path, header: str, rows) -> None:
    try:
        with open(path, "w") as fh:
            fh.write(header + "\n")
            for row in rows:
                fh.write(",".join(_FMT % v for v in row) + "\n")
    except OSError as exc:
        raise IoError(str(exc)) from None


def write_slices(
    run: Run, m: Mesh, out_dir, front_threshold: Optional[float] = None
) -> List[Path]:
    """Persist a run: per-slice CSVs, the x=0 boundary series, fronts.

    slice_{t_index}.csv holds rows (a, x, y1..yn) row-major over (a, x);
    boundary_x0.csv the age-integrated compartments at x = 0 over time;
    fronts.csv the front trajectory of compartment 2 (0 when n < 3) at
    the given threshold, defaulting to 1e-6 times the initial sup of its
    age-integrated density.
    """
    out = _mkdir(out_dir)
    n = run[0].values.shape[0]
    names = list(COMPARTMENTS) if n == 4 else [f"y{k + 1}" for k in range(n)]
    ages = m.ages()
    xs = m.xs()
    written = []
    for idx, sl in zip(run.indices, run):
        path = out / f"slice_{idx}.csv"
        rows = (
            [ages[a], xs[x]] + [sl.values[c, a, x] for c in range(n)]
            for a in range(m.na + 1)
            for x in range(m.nx)
        )
        _writerows(path, "a,x," + ",".join(names), rows)
        written.append(path)

    bpath = out / "boundary_x0.csv"
    rows = (
        [t] + list(age_integral(sl.values, m)[:, 0])
        for t, sl in zip(run.times, run)
    )
    _writerows(bpath, "t," + ",".join(names), rows)
    written.append(bpath)

    comp = 2 if n >= 3 else 0
    init_sup = float(np.max(age_integral(run[0].values, m)[comp]))
    thr = front_threshold if front_threshold is not None else 1e-6 * init_sup
    fronts = study.front_tracker(run, thr, m, compartment=comp)
    fpath = out / "fronts.csv"
    _writerows(fpath, "t,front_x", fronts)
    written.append(fpath)
    return written


def write_sweep(result: study.SweepResult, out_dir) -> List[Path]:
    out = _mkdir(out_dir)
    written = []
    spath = out / "sweep.csv"
    rows = []
    for k, tau in enumerate(result.taus):
        rep = result.energy_diffs[k]
        rows.append(
            [
                tau,
                result.sup_diffs[k],
                study.energy_diff(rep, tau),
                rep.sup_t_V,
                rep.sup_t_H_slope,
                1.0 if result.asymptotic_mask[k] else 0.0,
            ]
        )
    _writerows(
        spath, "tau,sup_diff,energy_diff,sup_t_V,sup_t_H_slope,asymptotic", rows
    )
    written.append(spath)

    rpath = out / "ratefit.dat"
    try:
        with open(rpath, "w") as fh:
            fh.write(f"# fitted_rate {_FMT % result.fitted_rate}\n")
            if result.fitted_rate_energy is not None:
                fh.write(f"# fitted_rate_energy {_FMT % result.fitted_rate_energy}\n")
            if result.floor is not None:
                fh.write(f"# floor {_FMT % result.floor}\n")
            fh.write("# log10_tau log10_sup_diff\n")
            for tau, d in zip(result.taus, result.sup_diffs):
                if d > 0:
                    fh.write(f"{_FMT % np.log10(tau)} {_FMT % np.log10(d)}\n")
    except OSError as exc:
        raise IoError(str(exc)) from None
    written.append(rpath)

    for k, tau in enumerate(result.taus):
        fpath = _mkdir(out / f"tau_{tau:.3e}") / "fronts.csv"
        _writerows(fpath, "t,front_x", result.front_positions[k])
        written.append(fpath)
    return written


# ---------------------------------------------------------------------------
# built-in oracle suite


def validation_cases() -> List[tuple]:
    """(name, passed, measured, bound) for each built-in oracle check."""
    from . import reference  # scipy.integrate loads only when validating

    cases = []

    def case(name, err, ok=True):
        cases.append((name, err < 0.05 and ok, err, 0.05))

    m = build_mesh(0.5, 1.0, 40, 41)
    spec, exact = reference.heat_eigenmode(m)
    run = run_parabolic(spec, SolverConfig(), m)
    case("heat-eigenmode", reference.relative_error(run[-1].values, exact))

    spec, exact = reference.damped_eigenmode(m)
    run = run_relaxed(spec, SolverConfig(), m)
    case("damped-wave-eigenmode", reference.relative_error(run[-1].values, exact))

    mr = build_mesh(1.0, 1.0, 40, 3)
    spec, total_ref = reference.renewal(mr)
    run = run_parabolic(spec, SolverConfig(), mr)
    total = reference.total_births(run, mr)
    case("renewal", abs(total - total_ref) / abs(total_ref))

    mm = build_mesh(0.5, 1.0, 20, 21)
    spec, exact = reference.manufactured(mm)
    run = run_relaxed(spec, SolverConfig(), mm)
    err = float(np.max(np.abs(run[-1].values - exact)))
    case("manufactured-solution", err, np.isfinite(residual_check(run, spec, mm)))
    return cases


# ---------------------------------------------------------------------------
# CLI


def _add_common(p):
    p.add_argument("--config", required=True, help="JSON configuration file")
    p.add_argument("--out", default=None, help="output directory override")


def cli_main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="epiwave",
        description="Age- and space-structured epidemic solver",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one solver and write slices")
    _add_common(p_run)
    p_run.add_argument("--tau", type=float, default=None)

    p_sweep = sub.add_parser("sweep", help="tau sweep with rate fit")
    _add_common(p_sweep)
    p_sweep.add_argument("--taus", default=None, help="comma-separated list")
    p_sweep.add_argument("--q1", type=float, default=None)
    p_sweep.add_argument("--q2", type=float, default=None)

    p_cmp = sub.add_parser("compare", help="relaxed vs parabolic diff norms")
    _add_common(p_cmp)
    p_cmp.add_argument("--tau", type=float, default=None)

    sub.add_parser("validate", help="run the built-in oracle suite")

    args = parser.parse_args(argv)

    if args.command == "validate":
        ok = True
        for name, passed, measured, bound in validation_cases():
            ok &= passed
            print(
                f"{'PASS' if passed else 'FAIL'} {name}: "
                f"measured {measured:.3e} (bound {bound:g})"
            )
        return 0 if ok else 1

    try:
        cfg = parse_config(args.config)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2

    out_dir = args.out or cfg.output.directory
    try:
        if args.command == "run":
            m, spec, solver = build_problem(cfg, tau=args.tau)
            _mkdir(out_dir)
            run = (
                run_relaxed(spec, solver, m)
                if spec.tau > 0
                else run_parabolic(spec, solver, m)
            )
            files = write_slices(
                run, m, out_dir, front_threshold=cfg.study.threshold
            )
            print(f"wrote {len(files)} files to {out_dir}")
            return 0

        if args.command == "compare":
            m, spec, solver = build_problem(cfg, tau=args.tau)
            out = _mkdir(out_dir)
            rel = run_relaxed(spec, solver, m)
            par = run_parabolic(spec, solver, m)
            rep = diff_norms(rel, par, m)
            _writerows(
                out / "diffs.csv",
                "sup_abs,sup_t_V,sup_t_H_slope,l2_H,h1_V",
                [[rep.sup_abs, rep.sup_t_V, rep.sup_t_H_slope, rep.l2_H, rep.h1_V]],
            )
            print(f"sup|y_tau - y| = {rep.sup_abs:.6e}")
            return 0

        # sweep
        if cfg.model.kind != "svir":
            raise ConfigError("sweep requires an svir model")
        m, solver = _mesh_and_solver(cfg)
        try:
            taus = (
                [float(tok) for tok in args.taus.split(",")]
                if args.taus
                else list(cfg.study.taus)
            )
            study.check_taus(taus)
        except (ValueError, InvalidParam) as exc:
            raise ConfigError(f"taus: {exc}") from None
        params = svir_params_from(cfg, 0.0)
        _mkdir(out_dir)
        q1 = args.q1 if args.q1 is not None else cfg.study.q1
        q2 = args.q2 if args.q2 is not None else cfg.study.q2
        spec_for_tau = None
        if q1 is not None or q2 is not None:
            q1 = 1.0 if q1 is None else q1
            q2 = 1.0 if q2 is None else q2
            trace_baseline = None
            if q1 != 1.0 or q2 != 1.0:
                # boundary traces need every step stored
                trace_baseline = run_parabolic(
                    build_svir(params, m), replace(solver, store_every=1), m
                )
            template = study.compatibility_setup(params, q1, q2, trace_baseline, m)
            spec_for_tau = lambda tau: dataclasses.replace(template, tau=tau)
        result = study.tau_sweep(
            params,
            taus,
            solver,
            m,
            threshold=cfg.study.threshold,
            spec_for_tau=spec_for_tau,
        )
        files = write_sweep(result, out_dir)
        print(
            f"fitted rate {result.fitted_rate:.4f} "
            f"(energy {result.fitted_rate_energy}), wrote {len(files)} files"
        )
        return 0
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except IoError as exc:
        print(f"output error: {exc}", file=sys.stderr)
        return 1
    except EpiwaveError as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(cli_main())


if __name__ == "__main__":
    main()
