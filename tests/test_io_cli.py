import dataclasses
import io
import json
import os
import subprocess
import sys
import tempfile
import tracemalloc
import zipfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import epiwave
from epiwave import (
    SolverConfig,
    attach_tilde,
    build_mesh,
    run_parabolic,
    run_relaxed,
)
from epiwave import io_cli, study
from epiwave.errors import ConfigError, IoError
from epiwave.operators import KernelSet
from epiwave.io_cli import (
    RunConfig,
    build_problem,
    cli_main,
    parse_config_dict,
    svir_params_from,
    write_slices,
)
from epiwave.svir import SvirParams, build_svir

from conftest import age_kernel_spec


def _tiny_config(tmp_path, **overrides):
    cfg = {
        "mesh": {"t_max": 0.5, "a_max": 1.0, "na": 4, "nx": 5},
        "model": {"kind": "svir", "params": {"total_S0": 100.0, "I0": 1.0}},
        "solver": {"tau": 0.0, "store_every": 1},
        "study": {"taus": [1e-3, 1e-2, 1e-1]},
        "output": {"directory": str(tmp_path / "out")},
    }
    cfg.update(overrides)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    return path


def test_config_round_trip():
    cfg = RunConfig()
    cfg.mesh.na = 12
    cfg.solver.tau = 0.25
    cfg.study.taus = [1e-5, 1e-4]
    again = parse_config_dict(json.loads(json.dumps(dataclasses.asdict(cfg))))
    assert again == cfg


def test_unknown_top_level_key_rejected():
    with pytest.raises(ConfigError):
        parse_config_dict({"grid": {}})


def test_unknown_block_key_rejected():
    with pytest.raises(ConfigError):
        parse_config_dict({"mesh": {"t_max": 1.0, "steps": 3}})


def test_unknown_svir_param_rejected():
    with pytest.raises(ConfigError):
        parse_config_dict({"model": {"kind": "svir", "params": {"r0": 2.5}}})


@pytest.mark.parametrize("name", ["c", "phi1", "phi2", "delta_d", "gamma", "total_S0", "I0"])
def test_every_svir_field_but_tau_is_a_config_param(name):
    cfg = parse_config_dict({"model": {"params": {name: 0.5}}})
    assert getattr(svir_params_from(cfg, 0.0), name) == 0.5


@pytest.mark.parametrize("name", ["mu", "mu_da", "lambda_kernel", "tau"])
def test_profile_and_tau_are_not_config_params(tmp_path, capsys, name):
    model = {"kind": "svir", "params": {name: 0.5}}
    with pytest.raises(ConfigError, match=name):
        parse_config_dict({"model": model})
    assert cli_main(["run", "--config", str(_tiny_config(tmp_path, model=model))]) == 2
    assert name in capsys.readouterr().err


def test_unknown_model_kind_rejected():
    with pytest.raises(ConfigError):
        parse_config_dict({"model": {"kind": "seir"}})


@pytest.mark.parametrize(
    "model, field",
    [
        ({"kind": "tables", "path": "model.npz", "params": {"c": 1.0, "bogus": 3}}, "model.params"),
        ({"kind": "svir", "path": "model.npz"}, "model.path"),
    ],
    ids=["params-with-tables", "path-with-svir"],
)
def test_fields_the_model_kind_ignores_are_rejected(tmp_path, capsys, model, field):
    # nothing reads them, so they are errors, not silently dropped settings
    with pytest.raises(ConfigError, match=field):
        parse_config_dict({"model": model})
    assert cli_main(["run", "--config", str(_tiny_config(tmp_path, model=model))]) == 2
    assert field in capsys.readouterr().err


def test_missing_config_exit_code(tmp_path, capsys):
    # a missing file, a directory and a file that is not UTF-8 text
    (tmp_path / "dir.json").mkdir()
    (tmp_path / "binary.json").write_bytes(b"\xff\xfe{}")
    for name in ("nope.json", "dir.json", "binary.json"):
        rc = cli_main(["run", "--config", str(tmp_path / name)])
        assert rc == 2
        assert name in capsys.readouterr().err


def test_output_path_taken_by_a_file_exits_1(tmp_path, capsys):
    cfgp = _tiny_config(tmp_path)
    taken = tmp_path / "taken"
    taken.write_text("")
    assert cli_main(["compare", "--config", str(cfgp), "--tau", "0.01", "--out", str(taken)]) == 1
    assert "taken" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["run", "compare", "sweep"])
def test_taken_output_path_fails_before_solving(tmp_path, capsys, monkeypatch, command):
    def no_solve(*args, **kwargs):
        raise AssertionError("a solve ran before the output directory was made")

    for module in (io_cli, study):
        monkeypatch.setattr(module, "run_relaxed", no_solve)
        monkeypatch.setattr(module, "run_parabolic", no_solve)
    cfgp = _tiny_config(tmp_path)
    taken = tmp_path / "taken"
    taken.write_text("")
    assert cli_main([command, "--config", str(cfgp), "--out", str(taken)]) == 1
    err = capsys.readouterr().err
    assert "output error" in err and "taken" in err


@pytest.mark.parametrize(
    "argv", [None, [], ["--q1", "0.5", "--q2", "0.7"]], ids=["library", "cli", "cli-q1-q2"]
)
def test_sweep_solves_each_parabolic_problem_once(tmp_path, monkeypatch, argv):
    # one baseline at na serves the floor, the traces and the members;
    # the floor adds the one solve at 2na
    solved = []
    for module in (io_cli, study):
        def counted(spec, cfg, m, solve=module.run_parabolic, **kwargs):
            solved.append(m.na)
            return solve(spec, cfg, m, **kwargs)

        monkeypatch.setattr(module, "run_parabolic", counted)
    cfgp = _tiny_config(tmp_path)
    if argv is None:
        m = build_mesh(0.5, 1.0, 4, 5)
        params = SvirParams(total_S0=100.0, I0=1.0)
        study.tau_sweep(params, [1e-3, 1e-2, 1e-1], SolverConfig(), m)
    else:
        assert cli_main(["sweep", "--config", str(cfgp), *argv]) == 0
    assert sorted(solved) == [4, 8]


def test_run_subcommand_writes_files(tmp_path):
    cfgp = _tiny_config(tmp_path)
    rc = cli_main(["run", "--config", str(cfgp)])
    assert rc == 0
    out = tmp_path / "out"
    assert (out / "slice_0.csv").exists()
    assert (out / "slice_2.csv").exists()
    assert (out / "boundary_x0.csv").exists()
    assert (out / "fronts.csv").exists()
    header = (out / "slice_0.csv").read_text().splitlines()[0]
    assert header == "a,x,S,V,I,R"


def test_run_byte_determinism(tmp_path):
    cfgp = _tiny_config(tmp_path)
    assert cli_main(["run", "--config", str(cfgp), "--out", str(tmp_path / "a")]) == 0
    assert cli_main(["run", "--config", str(cfgp), "--out", str(tmp_path / "b")]) == 0
    for name in ("slice_0.csv", "slice_2.csv", "boundary_x0.csv", "fronts.csv"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def test_slice_round_trip_is_bit_exact(tmp_path):
    m = build_mesh(0.5, 1.0, 4, 5)
    run = run_parabolic(
        build_svir(SvirParams(total_S0=100.0, I0=1.0), m), SolverConfig(), m
    )
    write_slices(run, tmp_path)
    data = np.loadtxt(tmp_path / "slice_1.csv", delimiter=",", skiprows=1)
    k = 0
    for a in range(m.na + 1):
        for x in range(m.nx):
            for c in range(4):
                assert data[k, 2 + c] == run[1].values[c, a, x]
            k += 1


def test_compare_subcommand(tmp_path):
    cfgp = _tiny_config(tmp_path)
    rc = cli_main(["compare", "--config", str(cfgp), "--tau", "0.01"])
    assert rc == 0
    rows = (tmp_path / "out" / "diffs.csv").read_text().splitlines()
    assert rows[0] == "sup_abs,sup_t_V,sup_t_H_slope,l2_H,h1_V"
    assert float(rows[1].split(",")[0]) > 0


def test_sweep_subcommand(tmp_path):
    cfgp = _tiny_config(tmp_path)
    rc = cli_main(["sweep", "--config", str(cfgp), "--taus", "1e-3,1e-2,1e-1"])
    assert rc == 0
    out = tmp_path / "out"
    rows = (out / "sweep.csv").read_text().splitlines()
    assert len(rows) == 4
    assert (out / "ratefit.dat").exists()
    assert sorted(p.name for p in out.iterdir()) == ["fronts.csv", "ratefit.dat", "sweep.csv"]


def test_sweep_writes_one_fronts_table(tmp_path):
    # every member's fronts, tau by tau, as the library sweep finds them
    cfgp = _tiny_config(tmp_path)
    taus = [1e-3, 1e-2, 1e-1]
    assert cli_main(["sweep", "--config", str(cfgp)]) == 0
    res = study.tau_sweep(
        SvirParams(total_S0=100.0, I0=1.0), taus, SolverConfig(), build_mesh(0.5, 1.0, 4, 5)
    )
    lines = (tmp_path / "out" / "fronts.csv").read_text().splitlines()
    assert lines[0] == "tau,t,front_x"
    want = [",".join("%.17g" % v for v in (tau, t, x))
            for tau, fronts in zip(taus, res.front_positions) for t, x in fronts]
    assert want and lines[1:] == want


def test_sweep_with_compatibility_flags(tmp_path):
    # matched q1 = q2 = 1 setup fits a rate near one
    cfg = {
        "mesh": {"t_max": 1.0, "a_max": 1.0, "na": 10, "nx": 11},
        "model": {"kind": "svir", "params": {"total_S0": 200.0, "I0": 2.0}},
        "solver": {"store_every": 2},
        "output": {"directory": str(tmp_path / "out")},
    }
    cfgp = tmp_path / "config.json"
    cfgp.write_text(json.dumps(cfg))
    rc = cli_main(
        ["sweep", "--config", str(cfgp), "--taus", "1e-4,1e-3,1e-2", "--q1", "1", "--q2", "1"]
    )
    assert rc == 0
    rate_line = (tmp_path / "out" / "ratefit.dat").read_text().splitlines()[0]
    rate = float(rate_line.split()[-1])
    assert 0.8 <= rate <= 1.2


def test_validate_subcommand(capsys):
    rc = cli_main(["validate"])
    captured = capsys.readouterr().out
    assert rc == 0
    assert captured.count("PASS") == 4


def test_tables_model_kind(tmp_path):
    m = build_mesh(0.5, 1.0, 4, 5)
    A, X = m.na + 1, m.nx
    np.savez(
        tmp_path / "model.npz",
        L=np.zeros((A, X, 1, 1)),
        sigma=np.full((A, 1), 0.1),
        y0=np.ones((1, A, X)),
    )
    cfg = {
        "mesh": {"t_max": 0.5, "a_max": 1.0, "na": 4, "nx": 5},
        "model": {"kind": "tables", "path": str(tmp_path / "model.npz")},
        "output": {"directory": str(tmp_path / "out")},
    }
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    assert cli_main(["run", "--config", str(path)]) == 0
    assert (tmp_path / "out" / "slice_0.csv").read_text().splitlines()[0] == "a,x,y1"


def test_solver_error_exit_code(tmp_path, capsys):
    m = build_mesh(0.5, 1.0, 4, 5)
    A, X = m.na + 1, m.nx
    bad = np.ones((1, A, X))
    bad[0, 0, 0] = np.inf
    np.savez(
        tmp_path / "model.npz",
        L=np.zeros((A, X, 1, 1)),
        sigma=np.full((A, 1), 0.1),
        y0=bad,
    )
    cfg = {
        "mesh": {"t_max": 0.5, "a_max": 1.0, "na": 4, "nx": 5},
        "model": {"kind": "tables", "path": str(tmp_path / "model.npz")},
        "output": {"directory": str(tmp_path / "out")},
    }
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    assert cli_main(["run", "--config", str(path)]) == 1
    assert "solver error" in capsys.readouterr().err


_BLOCKS = {
    "mesh": ["t_max", "a_max", "na", "nx"],
    "model": ["kind", "params", "path"],
    "solver": ["tau", "picard_tol", "picard_max", "store_every"],
    "study": ["taus", "q1", "q2", "threshold"],
    "output": ["directory"],
}
_json = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=5),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=5), inner, max_size=3),
    max_leaves=8,
)
_block = st.one_of(
    *(
        st.tuples(
            st.just(name),
            _json | st.dictionaries(st.sampled_from(keys + ["bogus"]), _json, max_size=4),
        )
        for name, keys in _BLOCKS.items()
    )
)


@settings(max_examples=300, deadline=None)
@given(raw=_json | st.lists(_block, max_size=5).map(dict))
def test_parse_config_dict_fuzz(raw):
    try:
        cfg = parse_config_dict(raw)
    except ConfigError:
        return
    assert isinstance(cfg, RunConfig)


def _write_config(tmp_path, model=None, **blocks):
    cfg = {
        "mesh": {"t_max": 0.5, "a_max": 1.0, "na": 4, "nx": 5},
        "model": model or {"kind": "svir"},
        "output": {"directory": str(tmp_path / "out")},
        **blocks,
    }
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    return path


@pytest.mark.parametrize(
    "command, blocks",
    [
        ("run", {"mesh": {"na": 1}}),  # InvalidSize
        ("sweep", {"mesh": {"na": 1}}),
        ("run", {"mesh": {"t_max": 0.55, "na": 4}}),  # NonCommensurate
        ("run", {"model": {"kind": "svir", "params": {"phi1": 2.0}}}),  # InvalidParam
        ("sweep", {"model": {"kind": "svir", "params": {"phi1": 2.0}}}),
        ("run", {"solver": {"picard_tol": 0.0}}),  # bad tolerance
        ("sweep", {"solver": {"picard_tol": 0.0}}),
        ("run", {"solver": {"tau": -1.0}}),
        ("run", {"mesh": 1}),
    ],
)
def test_config_value_errors_exit_2(tmp_path, capsys, command, blocks):
    path = _write_config(tmp_path, **blocks)
    assert cli_main([command, "--config", str(path)]) == 2
    assert "config error" in capsys.readouterr().err


def _tables(m, **tables):
    A, X = m.na + 1, m.nx
    base = {
        "L": np.zeros((A, X, 1, 1)),
        "sigma": np.full((A, 1), 0.1),
        "y0": np.ones((1, A, X)),
    }
    return {k: v for k, v in {**base, **tables}.items() if v is not None}


@pytest.mark.parametrize(
    "tables, named",
    [
        ({"L": None}, "'L'"),
        ({"sigma": None}, "'sigma'"),
        ({"y0": None}, "'y0'"),
        ({"y0": np.ones((1, 3, 3))}, "'y0'"),
        ({"beta0": np.zeros((2, 2))}, "'beta0'"),
        ({"kernels": np.zeros((1, 1, 1, 5, 5))}, "'kernels'"),
        ({"g0": np.zeros((4, 1, 5))}, "'g0'"),
        ({"L": np.full((5, 5, 1, 1), "0")}, "'L'"),  # strings
        ({"y0": np.ones((1, 5, 5)) + 1j}, "'y0'"),  # complex
        ({"sigma": np.full((5, 1), True)}, "'sigma'"),  # booleans
        ({"L": np.zeros((5, 5, 0, 0)), "sigma": np.zeros((5, 0)), "y0": np.zeros((0, 5, 5))}, "'L'"),
    ],
)
def test_bad_model_tables_exit_2(tmp_path, capsys, tables, named):
    m = build_mesh(0.5, 1.0, 4, 5)
    np.savez(tmp_path / "model.npz", **_tables(m, **tables))
    path = _write_config(
        tmp_path, model={"kind": "tables", "path": str(tmp_path / "model.npz")}
    )
    assert cli_main(["run", "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert "config error" in err and named in err


@pytest.mark.parametrize(
    "extra",
    [{"beta_0": np.ones((5, 5, 1, 1)), "beta_1": np.ones((5, 5, 1, 1))}, {"tau": np.array(0.1)}],
    ids=["misspelled-birth-tables", "tau"],
)
def test_unknown_model_tables_exit_2(tmp_path, capsys, extra):
    # a member the loader does not read is an error, not a dropped table
    m = build_mesh(0.5, 1.0, 4, 5)
    np.savez(tmp_path / "model.npz", **_tables(m, **extra))
    path = _write_config(
        tmp_path, model={"kind": "tables", "path": str(tmp_path / "model.npz")}
    )
    assert cli_main(["run", "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert "config error" in err and all(repr(name) in err for name in extra)
    assert not (tmp_path / "out").exists()


def test_non_finite_kernel_exits_1(tmp_path, capsys):
    # one NaN in a kernel table stops the load; it is not factored away
    m = build_mesh(0.5, 1.0, 4, 5)
    A, X = m.na + 1, m.nx
    kernels = np.ones((1, 1, 1, A, X, A, X))
    kernels[0, 0, 0, 1, 2, 3, 4] = np.nan
    np.savez(tmp_path / "model.npz", **_tables(m, kernels=kernels))
    path = _write_config(
        tmp_path, model={"kind": "tables", "path": str(tmp_path / "model.npz")}
    )
    assert cli_main(["run", "--config", str(path)]) == 1
    err = capsys.readouterr().err
    assert "solver error" in err and "NaN" in err


@pytest.mark.parametrize("name", ["beta1", "L"])
def test_non_finite_model_table_exits_1(tmp_path, capsys, name):
    # named before the solve, not reported as a singular system
    m = build_mesh(0.5, 1.0, 4, 5)
    table = np.zeros((m.na + 1, m.nx, 1, 1))
    table[3, 2] = np.nan
    np.savez(tmp_path / "model.npz", **_tables(m, **{name: table}))
    path = _write_config(
        tmp_path, model={"kind": "tables", "path": str(tmp_path / "model.npz")}
    )
    assert cli_main(["run", "--config", str(path)]) == 1
    err = capsys.readouterr().err
    assert "solver error" in err and f"{name} contains NaN/inf" in err


@pytest.mark.parametrize("tau", ["0", "0.01"])
def test_unconverged_picard_exits_1(tmp_path, capsys, tau):
    # two sweeps cannot reach picard_tol: the run stops, no slice is written
    path = _write_config(tmp_path, solver={"picard_max": 2})
    assert cli_main(["run", "--config", str(path), "--tau", tau]) == 1
    err = capsys.readouterr().err
    assert "solver error" in err and "picard_max=2 sweeps at step 1" in err
    assert not list((tmp_path / "out").glob("*.csv"))


def test_tables_run_matches_library_spec_with_tilde_terms(tmp_path):
    # an age-dependent kernel with births: Lambda_1 carries the kernel's
    # age derivative, Lambda_2 the boundary-renewal term
    m = build_mesh(0.5, 1.0, 10, 11)
    spec = age_kernel_spec(m, tau=0.1)
    table = spec.kernels.terms[0].table
    assert len(attach_tilde(spec.kernels, m).tilde_terms) == 1
    want = run_relaxed(spec, SolverConfig(), m)[-1].values

    np.savez(
        tmp_path / "model.npz",
        L=spec.linear.L,
        L_a=spec.linear.L_a,
        sigma=spec.linear.sigma,
        kernels=np.asarray(table)[None, None, None],
        beta0=spec.births.beta0,
        beta1=spec.births.beta1,
        y0=spec.y0,
    )
    path = _write_config(
        tmp_path,
        model={"kind": "tables", "path": str(tmp_path / "model.npz")},
        mesh={"t_max": 0.5, "a_max": 1.0, "na": 10, "nx": 11},
        solver={"tau": 0.1},
    )
    assert cli_main(["run", "--config", str(path)]) == 0
    rows = np.loadtxt(tmp_path / "out" / f"slice_{m.nt}.csv", delimiter=",", skiprows=1)
    got = rows[:, 2:].T.reshape(want.shape)
    assert np.allclose(got, want, rtol=1e-12, atol=1e-12)


def test_tables_svir_gets_no_tilde_terms(tmp_path):
    # dense copies of the age-independent SVIR kernel: no derivative terms
    m = build_mesh(0.5, 1.0, 4, 5)
    spec = build_svir(SvirParams(tau=1e-2), m)
    A, X = m.na + 1, m.nx
    kernels = np.zeros((4, 4, 4, A, X, A, X))
    for t in spec.kernels.terms:
        kernels[t.h, t.i, t.j] += t.weight * np.asarray(t.table)
    np.savez(
        tmp_path / "model.npz",
        L=spec.linear.L,
        sigma=spec.linear.sigma,
        kernels=kernels,
        beta0=spec.births.beta0,
        y0=spec.y0,
    )
    cfg = parse_config_dict(
        {
            "mesh": {"t_max": 0.5, "a_max": 1.0, "na": 4, "nx": 5},
            "model": {"kind": "tables", "path": str(tmp_path / "model.npz")},
        }
    )
    _, loaded, _ = build_problem(cfg, tau=1e-2)
    assert len(loaded.kernels.terms) == 6
    assert attach_tilde(loaded.kernels, m).tilde_terms == []


def _svir_npz(path, m, save=np.savez, kernels=None):
    """The SVIR model on m as a tables .npz, as cli-tables writes it;
    returns the dense kernel written (kernels, when given, instead)."""
    spec = build_svir(SvirParams(tau=1e-2), m)
    if kernels is None:
        A, X = m.na + 1, m.nx
        kernels = np.zeros((4, 4, 4, A, X, A, X))
        for t in spec.kernels.terms:
            kernels[t.h, t.i, t.j] += t.weight * np.asarray(t.table)
    save(
        path,
        L=spec.linear.L,
        L_a=spec.linear.L_a,
        sigma=spec.linear.sigma,
        kernels=kernels,
        beta0=spec.births.beta0,
        beta1=spec.births.beta1,
        y0=spec.y0,
    )
    return kernels


def _load_tables(path, m):
    cfg = parse_config_dict(
        {
            "mesh": {"t_max": m.t_max, "a_max": m.a_max, "na": m.na, "nx": m.nx},
            "model": {"kind": "tables", "path": str(path)},
        }
    )
    return build_problem(cfg, tau=1e-2)[1]


def test_tables_kernel_is_read_one_table_at_a_time(tmp_path):
    # the dense kernel is never held whole: the load peaks far below it
    m = build_mesh(0.5, 1.0, 10, 11)
    kernels = _svir_npz(tmp_path / "model.npz", m)
    tracemalloc.start()
    try:
        spec = _load_tables(tmp_path / "model.npz", m)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(spec.kernels.terms) == 6
    assert peak < kernels.nbytes / 4, (peak, kernels.nbytes)


def _random_tables(m, n, dtype, seed):
    A, X = m.na + 1, m.nx
    rng = np.random.default_rng(seed)
    k7 = np.zeros((n, n, n, A, X, A, X))
    k7[0, n - 1, n - 1] = rng.integers(-3, 4, size=(A, X, A, X))
    k7[n - 1, 0, 0] = rng.normal(size=(A, X, A, X))
    return k7.astype(dtype)


@pytest.mark.parametrize(
    "case", ["svir", "age-kernel", "float32", "int", "fortran", "compressed"]
)
def test_tables_kernel_loads_as_from_dense_of_the_whole_array(tmp_path, case):
    # streamed or whole, the loader factors the same tables: the same
    # terms, bit for bit, in the same (h, i, j) order
    m = build_mesh(0.5, 1.0, 10, 11) if case == "age-kernel" else build_mesh(0.5, 1.0, 4, 5)
    path = tmp_path / "model.npz"
    if case == "age-kernel":
        table = np.asarray(age_kernel_spec(m, tau=0.1).kernels.terms[0].table)
        np.savez(path, **_tables(m, kernels=table[None, None, None]))
    elif case in ("float32", "int", "fortran"):
        dtype = {"float32": np.float32, "int": np.int64, "fortran": float}[case]
        k7 = _random_tables(m, 2, dtype, seed=len(case))
        k7 = np.asfortranarray(k7) if case == "fortran" else k7
        np.savez(path, **_tables(m, L=np.zeros((m.na + 1, m.nx, 2, 2)), kernels=k7,
                                 sigma=np.full((m.na + 1, 2), 0.1), y0=np.ones((2, m.na + 1, m.nx))))
    else:
        _svir_npz(path, m, save=np.savez_compressed if case == "compressed" else np.savez)
    with np.load(path) as data:
        whole = np.asarray(data["kernels"], dtype=float)
    want = KernelSet.from_dense(whole).terms
    got = _load_tables(path, m).kernels.terms
    assert [(t.h, t.i, t.j, t.weight) for t in got] == [(t.h, t.i, t.j, t.weight) for t in want]
    for g, w in zip(got, want):
        assert g.table.row.dtype == np.float64 and np.array_equal(g.table.row, w.table.row)
        assert (g.table.col is None) == (w.table.col is None)
        assert g.table.col is None or np.array_equal(g.table.col, w.table.col)
    assert got


def test_object_kernels_member_is_a_config_error(tmp_path):
    m = build_mesh(0.5, 1.0, 4, 5)
    np.savez(tmp_path / "model.npz", **_tables(m, kernels=np.array([None, 1.0], dtype=object)))
    with pytest.raises(ConfigError, match="'kernels'"):
        _load_tables(tmp_path / "model.npz", m)


def _damage(path, how, key):
    """Damage the stored .npz at path: cut the file to half its length,
    cut one member 8 bytes short (its CRC then matches), or change one
    byte of the member's data (low: a last mantissa bit of its first
    value; high: the first value's top byte, 1.0 -> inf)."""
    raw = path.read_bytes()
    if how == "cut-file":
        path.write_bytes(raw[: len(raw) // 2])
        return
    with np.load(path) as data:
        arrays = {k: data[k] for k in data.files}
    if how == "short-member":
        with zipfile.ZipFile(path, "w") as archive:
            for k, arr in arrays.items():
                buf = io.BytesIO()
                np.lib.format.write_array(buf, arr)
                archive.writestr(f"{k}.npy", buf.getvalue()[: -8 if k == key else None])
        return
    start = raw.index(np.lib.format.MAGIC_PREFIX, raw.index(f"{key}.npy".encode()))
    data_at = raw.index(b"\n", start) + 1  # the .npy header ends in a newline
    out = bytearray(raw)
    if how == "flip-low":
        out[data_at] ^= 0x01
    else:
        out[data_at + 7] ^= 0x40
    path.write_bytes(bytes(out))


@pytest.mark.parametrize("key", ["kernels", "y0"])  # streamed, whole
@pytest.mark.parametrize("how", ["cut-file", "short-member", "flip-low", "flip-high"])
def test_damaged_tables_archive_exits_2(tmp_path, capsys, key, how):
    # zipfile's own CRC check fails a changed byte, even one that makes a
    # kernel entry inf before the member's end is read
    m = build_mesh(0.5, 1.0, 4, 5)
    A, X = m.na + 1, m.nx
    np.savez(tmp_path / "model.npz", **_tables(m, kernels=np.ones((1, 1, 1, A, X, A, X))))
    _damage(tmp_path / "model.npz", how, key)
    path = _write_config(
        tmp_path, model={"kind": "tables", "path": str(tmp_path / "model.npz")}
    )
    assert cli_main(["run", "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert "config error" in err
    if how == "cut-file":
        assert "File is not a zip file" in err and "model.npz" in err
    elif how == "short-member":
        assert f"model table {key!r}" in err
    else:
        assert f"Bad CRC-32 for file '{key}.npy'" in err


def test_tables_member_that_is_no_npy_array_exits_2(tmp_path, capsys):
    # np.load read a member without the .npy suffix as raw bytes
    m = build_mesh(0.5, 1.0, 4, 5)
    np.savez(tmp_path / "model.npz", **_tables(m))
    with zipfile.ZipFile(tmp_path / "model.npz", "a") as archive:
        archive.writestr("beta0", b"not an array")
    path = _write_config(
        tmp_path, model={"kind": "tables", "path": str(tmp_path / "model.npz")}
    )
    assert cli_main(["run", "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert "config error" in err and "'beta0'" in err


@pytest.mark.parametrize(
    "taus",
    [
        "1e-2,1e-3,1e-2",
        "-1e-3,1e-2",
        "0,1e-3,1e-2",
        "1e-3,1e-2",
        "1e-3,1e-2,inf",
    ],
)
def test_bad_sweep_taus_exit_2_before_solving(tmp_path, capsys, monkeypatch, taus):
    def no_solve(*args, **kwargs):
        raise AssertionError("a solve ran before the taus were checked")

    monkeypatch.setattr(study, "run_parabolic", no_solve)
    path = _write_config(tmp_path)
    assert cli_main(["sweep", "--config", str(path), f"--taus={taus}"]) == 2
    assert "config error" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["run", "compare"])
@pytest.mark.parametrize("tau", ["nan", "inf"])
def test_non_finite_tau_exits_2_before_solving(tmp_path, capsys, monkeypatch, command, tau):
    def no_solve(*args, **kwargs):
        raise AssertionError("a solve ran before tau was checked")

    monkeypatch.setattr(io_cli, "run_relaxed", no_solve)
    monkeypatch.setattr(io_cli, "run_parabolic", no_solve)
    path = _write_config(tmp_path)
    assert cli_main([command, "--config", str(path), "--tau", tau]) == 2
    assert "config error" in capsys.readouterr().err


@pytest.mark.parametrize("flag", ["--q1", "--q2"])
@pytest.mark.parametrize("value", ["nan", "inf"])
def test_non_finite_compatibility_flag_exits_2_before_solving(
    tmp_path, capsys, monkeypatch, flag, value
):
    def no_solve(*args, **kwargs):
        raise AssertionError(f"a solve ran before {flag} was checked")

    monkeypatch.setattr(study, "run_parabolic", no_solve)
    monkeypatch.setattr(study, "run_relaxed", no_solve)
    path = _write_config(tmp_path)
    assert cli_main(["sweep", "--config", str(path), f"{flag}={value}"]) == 2
    err = capsys.readouterr().err
    assert "config error" in err and flag in err


def _savetxt_bytes(path, header, rows, delimiter=","):
    np.savetxt(path, rows, fmt="%.17g", delimiter=delimiter, header=header, comments="")
    return path.read_bytes()


@pytest.mark.parametrize(
    "name, header, rows, delimiter",
    [
        (
            "slice_5.csv",
            "a,x,S,V,I,R",
            np.random.default_rng(0).normal(size=(30, 6))
            * 10.0 ** np.random.default_rng(1).integers(-300, 300, size=(30, 6)),
            ",",
        ),
        ("fronts.csv", "t,front_x", [], ","),
        (
            "diffs.csv",
            "sup_abs,sup_t_V,sup_t_H_slope,l2_H,h1_V",
            [[0.1, 0.0, -0.0, np.nan, 5e-324]],
            ",",
        ),
        (
            "ratefit.dat",
            "# fitted_rate 0.99\n# floor 1e-05\n# log10_tau log10_sup_diff",
            [(np.log10(t), -1.0 / 3.0) for t in (1e-4, 1e-3, 1e-2)],
            " ",
        ),
    ],
)
def test_csv_writer_writes_the_bytes_of_savetxt(tmp_path, name, header, rows, delimiter):
    io_cli._writerows(tmp_path / name, header, rows, delimiter)
    want = _savetxt_bytes(tmp_path / "want", header, rows, delimiter)
    assert (tmp_path / name).read_bytes() == want


def test_csv_writer_reports_an_unwritable_path(tmp_path):
    for path in (tmp_path, tmp_path / "missing" / "slice_0.csv"):
        with pytest.raises(IoError):
            io_cli._writerows(path, "t,front_x", [(0.0, 1.0)])


_DTYPES = ["f8", "f4", "i8", "u1", "?", "c16", "U2", "O"]
# (right shape or a list of dimensions, dtype, fill value)
_TABLE = st.tuples(
    st.just(True) | st.lists(st.integers(0, 3), max_size=4),
    st.sampled_from(_DTYPES),
    st.integers(-2, 2),
)


def _table_shape(key, m, n):
    A, X, T = m.na + 1, m.nx, m.nt + 1
    return {
        "sigma": (A, n),
        "kernels": (n, n, n, A, X, A, X),
        "g0": (T, n, X),
        "g1": (T, n, X),
        "y0": (n, A, X),
        "y1": (n, A, X),
        "f": (T, n, A, X),
    }.get(key, (A, X, n, n))


@settings(max_examples=150, deadline=None)
@given(
    n=st.integers(0, 2),
    tables=st.fixed_dictionaries(
        {key: _TABLE for key in ("L", "sigma", "y0")},
        optional={
            key: _TABLE
            for key in ("L_a", "kernels", "g0", "g1", "y1", "f", "beta0", "bogus")
        },
    ),
)
def test_build_problem_tables_fuzz(n, tables):
    # random keys, shapes and dtypes: a built problem or a ConfigError
    m = build_mesh(0.5, 1.0, 2, 3)
    arrays = {}
    for key, (shape, dtype, fill) in tables.items():
        shape = _table_shape(key, m, n) if shape is True else tuple(shape)
        arrays[key] = np.full(shape, fill).astype(dtype)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "model.npz"
        np.savez(path, **arrays)
        cfg = parse_config_dict(
            {
                "mesh": {"t_max": 0.5, "a_max": 1.0, "na": 2, "nx": 3},
                "model": {"kind": "tables", "path": str(path)},
            }
        )
        try:
            build_problem(cfg, tau=0.1)
        except ConfigError:
            pass


def test_import_loads_no_scipy():
    # numpy is the only runtime dependency: neither the import nor the
    # oracle suite loads a scipy module, and the import alone loads no
    # oracle catalogue
    listing = "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    src = str(Path(epiwave.__file__).resolve().parents[1])
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    for code in (
        "import sys, epiwave, epiwave.io_cli; assert 'epiwave.reference' not in sys.modules; "
        + listing,
        "import sys, epiwave, epiwave.io_cli; epiwave.io_cli.validation_cases(); " + listing,
    ):
        out = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True,
            text=True,
            check=True,
            env={**os.environ, "PYTHONPATH": path},
        )
        assert out.stdout.strip() == "[]", code
