"""Configuration ingestion, CSV persistence and the command-line surface.

Configs are strict-schema JSON (unknown keys rejected); results are CSV
with 17-significant-digit decimals, which round-trip float64 exactly.
The CLI exposes run / sweep / compare / validate; exit code 2 flags a
configuration problem, 1 a solver or output failure, 0 success.
"""

import argparse
import dataclasses
import json
import math
import sys
import typing
import zipfile
import zlib
from dataclasses import dataclass, field
from pathlib import Path
from typing import List, Optional

import numpy as np

from . import study
from .birth import BirthLaws
from .errors import (
    ConfigError,
    EpiwaveError,
    InvalidParam,
    InvalidSize,
    IoError,
    NonCommensurate,
    NonFinite,
)
from .fields import Run, age_integral, diff_norms
from .mesh import Mesh, build_mesh
from .operators import KernelSet, LinearPart
from .parabolic_model import run_parabolic
from .relaxed_model import ModelSpec, SolverConfig, run_relaxed, table_shapes
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
class SolverBlock(SolverConfig):
    """The solver settings plus the tau that `run` and `compare` solve at."""

    tau: float = 0.0


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


#: The model.params keys: every SvirParams field but tau (it comes from solver).
_SVIR_SCALARS = tuple(f.name for f in dataclasses.fields(SvirParams) if f.name != "tau")


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
        if cfg.model.path is not None:
            raise ConfigError("model.path is read only with model.kind 'tables'")
        unknown = set(cfg.model.params) - set(_SVIR_SCALARS)
        if unknown:
            raise ConfigError(f"unknown model.params key(s) {sorted(unknown)}")
        for name, value in cfg.model.params.items():
            if not _fits(value, float):
                raise ConfigError(f"model.params.{name} must be a number: {value!r}")
    elif cfg.model.kind == "tables":
        if cfg.model.params:
            raise ConfigError("model.params is read only with model.kind 'svir'")
        if not cfg.model.path:
            raise ConfigError("model.kind 'tables' needs model.path")
    else:
        raise ConfigError(f"unknown model.kind {cfg.model.kind!r}")
    return cfg


def parse_config(path) -> RunConfig:
    p = Path(path)
    try:
        raw = json.loads(p.read_text())
    except (OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ConfigError(f"{p}: {exc}") from None
    return parse_config_dict(raw)


def svir_params_from(cfg: RunConfig, tau: float) -> SvirParams:
    params = SvirParams(tau=tau, **cfg.model.params)
    try:
        params.validate()
    except InvalidParam as exc:
        raise ConfigError(str(exc)) from None
    return params


#: What a damaged or cut-short archive raises while a member is read.
_UNREADABLE = (OSError, ValueError, EOFError, zipfile.BadZipFile, zlib.error)


def _table_blocks(archive: zipfile.ZipFile, member: str, shape=None, lead: int = 0):
    """The table in member of archive as float64 blocks of its shape[lead:],
    in C order over its first lead axes.

    The member's .npy header is checked first: a dtype other than real
    numbers, or a shape other than the given one, is a ConfigError.  The
    blocks are then read one at a time (a Fortran-ordered member, which
    holds no contiguous block, is read whole), and the member to its end,
    where zipfile checks its CRC.  A damaged or short member is a
    ConfigError naming the table.
    """
    fmt, key = np.lib.format, member.removesuffix(".npy")
    try:
        with archive.open(member) as fp:
            version = fmt.read_magic(fp)
            header = fmt.read_array_header_1_0 if version == (1, 0) else fmt.read_array_header_2_0
            full, fortran, dtype = header(fp)
            if dtype.kind not in "iuf":
                raise ConfigError(f"model table {key!r} has dtype {dtype}, expected real numbers")
            if shape is not None and full != shape:
                raise ConfigError(f"model table {key!r} has shape {full}, expected {shape}")
            block = full if fortran else full[lead:]
            size = math.prod(block) * dtype.itemsize
            for _ in range(1 if fortran else math.prod(full[:lead])):
                data = fp.read(size)
                if len(data) < size:
                    raise EOFError(f"the member ends {size - len(data)} bytes short")
                tab = np.frombuffer(data, dtype).reshape(block, order="F" if fortran else "C")
                tab = tab.astype(float, copy=False)
                yield from (tab[idx] for idx in np.ndindex(full[:lead])) if fortran else (tab,)
            while fp.read(1 << 20):
                pass
    except _UNREADABLE as exc:
        raise ConfigError(f"cannot read model table {key!r}: {exc}") from None


def _load_table(archive: zipfile.ZipFile, member: str, shape=None) -> np.ndarray:
    """One whole table of the archive as a writable float64 array."""
    (tab,) = _table_blocks(archive, member, shape)
    return np.array(tab)


def _spec_from_tables(path: str, m: Mesh, tau: float) -> ModelSpec:
    """Generic model loaded from an .npz of sampled tables.

    L, sigma and y0 are required; a member named neither in
    relaxed_model.table_shapes nor kernels is a ConfigError.  Every
    table present must hold real numbers in its table_shapes shape, and
    kernels, the one table a ModelSpec does not hold as loaded, must be a
    dense (n, n, n, na+1, nx, na+1, nx) table.  It is read and factored one
    (h, i, j) table at a time into the model's kernel terms, so it is
    never held whole; the solve derives their Lambda_1 (tilde) terms.
    """
    try:
        archive = zipfile.ZipFile(path)
    except _UNREADABLE as exc:
        raise ConfigError(f"cannot read model tables from {path}: {exc}") from None
    with archive:
        members = {name.removesuffix(".npy"): name for name in archive.namelist()}
        for key in ("L", "sigma", "y0"):
            if key not in members:
                raise ConfigError(f"model tables lack the required key {key!r}")
        L = _load_table(archive, members["L"])
        shapes = table_shapes(L, m)
        n, A, X = shapes["y0"]
        shapes["kernels"] = (n, n, n, A, X, A, X)
        unknown = sorted(set(members) - set(shapes))
        if unknown:
            raise ConfigError(f"unknown model table(s) {unknown} in {path}")
        if L.shape != shapes["L"]:
            raise ConfigError(f"model table 'L' has shape {L.shape}, expected {shapes['L']}")
        tabs = {
            key: L if key == "L" else _load_table(archive, members[key], shapes[key])
            for key in shapes
            if key in members and key != "kernels"
        }
        kernels = KernelSet()
        if "kernels" in members:
            blocks = _table_blocks(archive, members["kernels"], shapes["kernels"], lead=3)
            try:
                kernels = KernelSet.from_tables(n, blocks)
            except NonFinite:
                for _ in blocks:  # a damaged member fails its CRC as a ConfigError
                    pass
                raise
    linear = LinearPart(
        L=L,
        L_a=tabs["L_a"] if "L_a" in tabs else np.gradient(L, m.da, axis=0, edge_order=2),
        sigma=tabs["sigma"],
    )
    laws = ("beta0", "beta1", "betaL", "beta_grad")
    births = BirthLaws(**{k: tabs[k] if k in tabs else np.zeros(shapes[k]) for k in laws},
                       g0=tabs.get("g0"), g1=tabs.get("g1"))
    return ModelSpec(
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
            **{f.name: getattr(cfg.solver, f.name) for f in dataclasses.fields(SolverConfig)}
        )
        solver.validate()
    except (InvalidSize, NonCommensurate, InvalidParam) as exc:
        raise ConfigError(str(exc)) from None
    return m, solver


def build_problem(cfg: RunConfig, tau: Optional[float] = None):
    """Mesh, spec and solver settings realized from a parsed config.

    Every error in the configuration or the model tables it names is
    raised as a ConfigError; non-finite kernel values raise NonFinite
    here, and any other non-finite table raises NonFinite, naming it,
    when the solve validates the spec, before any step.
    """
    m, solver = _mesh_and_solver(cfg)
    t = cfg.solver.tau if tau is None else tau
    if not 0.0 <= t < np.inf:
        raise ConfigError(f"tau={t} must be finite and nonnegative")
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


def _writerows(path: Path, header: str, rows, delimiter: str = ",") -> None:
    """Write the header line(s), then one line of decimals per row (a 1-D
    rows is one column), as np.savetxt(fmt=_FMT) writes them, byte for
    byte, but formatted by one % over the lines' template."""
    rows = np.asarray(rows, dtype=float)
    rows = rows[:, None] if rows.ndim == 1 else rows
    line = delimiter.join([_FMT] * rows.shape[1]) + "\n"
    text = (header + "\n" if header else "") + (line * len(rows)) % tuple(rows.ravel().tolist())
    try:
        path.write_text(text)
    except OSError as exc:
        raise IoError(str(exc)) from None


def write_slices(run: Run, out_dir, front_threshold: Optional[float] = None) -> List[Path]:
    """Persist a run: per-slice CSVs, the x=0 boundary series, fronts.

    slice_{t_index}.csv holds rows (a, x, y1..yn) row-major over (a, x);
    boundary_x0.csv the age-integrated compartments at x = 0 over time;
    fronts.csv the front trajectory of compartment 2 (0 when n < 3) at
    the given threshold, or at study.front_tracker's default rule.  The
    fronts are found first, so a run that stores no slice writes nothing.
    """
    m = run.mesh
    n = run.values.shape[1]
    fronts = study.front_tracker(run, front_threshold, compartment=2 if n >= 3 else 0)
    out = _mkdir(out_dir)
    names = list(COMPARTMENTS) if n == 4 else [f"y{k + 1}" for k in range(n)]
    A, X = m.na + 1, m.nx
    grid = np.column_stack([np.repeat(m.ages(), X), np.tile(m.xs(), A)])
    written = []
    for idx, values in zip(run.indices, run.values):
        path = out / f"slice_{idx}.csv"
        table = np.column_stack([grid, values.reshape(n, -1).T])
        _writerows(path, "a,x," + ",".join(names), table)
        written.append(path)

    bpath = out / "boundary_x0.csv"
    boundary = age_integral(run.values, m)[:, :, 0]
    _writerows(bpath, "t," + ",".join(names), np.column_stack([run.times, boundary]))
    written.append(bpath)

    fpath = out / "fronts.csv"
    _writerows(fpath, "t,front_x", fronts)
    written.append(fpath)
    return written


def write_sweep(result: study.SweepResult, out_dir) -> List[Path]:
    """Persist a sweep: sweep.csv, one row of difference norms per tau;
    ratefit.dat, the fitted rates and floor over the log-log points; and
    fronts.csv, the (tau, t, front_x) rows of every member, tau by tau."""
    out = _mkdir(out_dir)
    spath = out / "sweep.csv"
    rows = [
        [tau, sup, study.energy_diff(rep, tau), rep.sup_t_V, rep.sup_t_H_slope]
        for tau, sup, rep in zip(result.taus, result.sup_diffs, result.energy_diffs)
    ]
    _writerows(spath, "tau,sup_diff,energy_diff,sup_t_V,sup_t_H_slope", rows)

    rpath = out / "ratefit.dat"
    header = [f"# fitted_rate {_FMT % result.fitted_rate}"]
    if result.fitted_rate_energy is not None:
        header.append(f"# fitted_rate_energy {_FMT % result.fitted_rate_energy}")
    header += [f"# floor {_FMT % result.floor}", "# log10_tau log10_sup_diff"]
    rows = [(np.log10(t), np.log10(d)) for t, d in zip(result.taus, result.sup_diffs) if d > 0]
    _writerows(rpath, "\n".join(header), rows, delimiter=" ")

    fpath = out / "fronts.csv"
    rows = [(tau, t, x) for tau, fronts in zip(result.taus, result.front_positions)
            for t, x in fronts]
    _writerows(fpath, "tau,t,front_x", rows)
    return [spath, rpath, fpath]


# ---------------------------------------------------------------------------
# built-in oracle suite


def validation_cases() -> List[tuple]:
    """(name, passed, measured, bound) for each built-in oracle check."""
    # imported here, so that importing io_cli to run a model does not compile
    # the oracle catalogue (about 8 us a line of source, on every cold import)
    from . import reference

    cases = []

    def case(name, err):
        cases.append((name, err < 0.05, err, 0.05))

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
    total = reference.total_births(run)
    case("renewal", abs(total - total_ref) / abs(total_ref))

    mm = build_mesh(0.5, 1.0, 20, 21)
    spec, exact = reference.manufactured(mm)
    run = run_relaxed(spec, SolverConfig(), mm)
    case("manufactured-solution", float(np.max(np.abs(run[-1].values - exact))))
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
        out_dir = args.out or cfg.output.directory
        if args.command == "run":
            m, spec, solver = build_problem(cfg, tau=args.tau)
            _mkdir(out_dir)
            run = (
                run_relaxed(spec, solver, m)
                if spec.tau > 0
                else run_parabolic(spec, solver, m)
            )
            files = write_slices(run, out_dir, front_threshold=cfg.study.threshold)
            print(f"wrote {len(files)} files to {out_dir}")
            return 0

        if args.command == "compare":
            m, spec, solver = build_problem(cfg, tau=args.tau)
            out = _mkdir(out_dir)
            rel = run_relaxed(spec, solver, m)
            par = run_parabolic(spec, solver, m)
            rep = diff_norms(rel, par)
            _writerows(
                out / "diffs.csv",
                "sup_abs,sup_t_V,sup_t_H_slope,l2_H,h1_V",
                [[rep.sup_abs, rep.sup_t_V, rep.sup_t_H_slope, rep.l2_H, rep.h1_V]],
            )
            print(f"sup|y_tau - y| = {rep.sup_abs:.6e}")
            return 0

        # sweep
        for flag, value in (("--q1", args.q1), ("--q2", args.q2)):
            if value is not None and not math.isfinite(value):
                raise ConfigError(f"{flag}={value} must be finite")
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
        compat = None
        if q1 is not None or q2 is not None:
            compat = (1.0 if q1 is None else q1, 1.0 if q2 is None else q2)
        result = study.tau_sweep(
            params, taus, solver, m, threshold=cfg.study.threshold, compat=compat
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
