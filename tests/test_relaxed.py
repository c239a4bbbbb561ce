import dataclasses
import warnings

import numpy as np
import pytest

from epiwave import (
    FactoredTable,
    KernelSet,
    KernelTerm,
    SolverConfig,
    attach_tilde,
    build_mesh,
    norm_H,
    norm_V,
    run_parabolic,
    run_relaxed,
)
from epiwave import relaxed_model
from epiwave.char_solver import step_context
from epiwave.errors import InvalidParam, NonFinite, PicardDiverged, ShapeMismatch
from epiwave.reference import manufactured, scalar_spec
from epiwave.relaxed_model import _fixed_point
from epiwave.svir import SvirParams, build_svir

from conftest import (
    DESK_TAUS,
    TAU_ZERO_MODELS,
    age_kernel_spec,
    assert_members_equal_solo_runs,
    propagate_characteristic,
)


def test_zero_data_zero_run():
    m = build_mesh(0.5, 1.0, 4, 5)
    spec = scalar_spec(m, np.zeros((1, m.na + 1, m.nx)), sigma=0.2, tau=0.3)
    run = run_relaxed(spec, SolverConfig(), m)
    for sl in run:
        assert np.allclose(sl.values, 0.0)
        assert np.allclose(sl.slope, 0.0)


def test_linear_run_matches_characteristic_reassembly():
    # with explicit births the driver must reproduce the solution
    # reassembled characteristic by characteristic, to round-off
    m = build_mesh(1.0, 1.0, 5, 7)
    A, X = m.na + 1, m.nx
    tau = 0.2
    rng = np.random.default_rng(14)
    g0 = rng.normal(size=(m.nt + 1, 1, X))
    g1 = rng.normal(size=(m.nt + 1, 1, X))
    f = rng.normal(size=(m.nt + 1, 1, A, X))
    y0 = rng.normal(size=(1, A, X))
    y1 = rng.normal(size=(1, A, X))
    spec = scalar_spec(
        m, y0, sigma=0.15, mu=0.3, g0=g0, g1=g1, y1=y1, f=f, tau=tau
    )
    ctx = step_context(spec.linear, tau, m)
    run = run_relaxed(spec, SolverConfig(), m)

    got = np.stack([sl.values for sl in run])  # (nt+1, 1, A, X)
    want = np.full_like(got, np.nan)
    for t0 in range(-m.na, m.nt + 1):  # the diagonal through (t, a) = (t0, 0)
        cells = [(t0 + h, h) for h in range(max(-t0, 0), min(m.nt - t0, m.na) + 1)]
        ti0, ai0 = cells[0]
        if t0 <= 0:  # t <= a: fed by initial data (t0 = 0 starts at the corner)
            v0, w0 = y0[:, ai0, :], y1[:, ai0, :]
        else:
            v0, w0 = g0[ti0], g1[ti0]
        ages = [aj for (_, aj) in cells[1:]]
        forcing = [f[ti, :, aj, :] for (ti, aj) in cells[1:]]
        states = propagate_characteristic(v0, w0, forcing, ages, ctx, m)
        for (ti, aj), (v, _) in zip(cells, states):
            want[ti, :, aj, :] = v
    assert np.allclose(got, want, rtol=1e-12, atol=1e-12)


def test_residual_zero_run():
    m = build_mesh(0.5, 1.0, 4, 5)
    spec = scalar_spec(m, np.zeros((1, m.na + 1, m.nx)), tau=0.1)
    run = run_relaxed(spec, SolverConfig(), m)
    assert len(run) == m.nt + 1
    for sl in run:
        assert not sl.values.any()
        assert not sl.slope.any()


def test_manufactured_solution_residual_and_error():
    errs = []
    for na, nx in ((20, 21), (40, 41)):
        m = build_mesh(0.5, 1.0, na, nx)
        spec, exact = manufactured(m)
        run = run_relaxed(spec, SolverConfig(), m)
        errs.append(float(np.max(np.abs(run[-1].values - exact))))
    assert errs[0] < 0.05
    assert errs[0] / errs[1] > 1.7


def test_solve_derives_the_tilde_terms():
    # an age-dependent kernel has a Lambda_1 term; a spec that omits it
    # solves exactly as one that carries it
    m = build_mesh(0.5, 1.0, 6, 7)
    spec = age_kernel_spec(m, tau=0.1)
    attached = dataclasses.replace(spec, kernels=attach_tilde(spec.kernels, m))
    assert len(attached.kernels.tilde_terms) == 1

    cfg = SolverConfig()
    got, want = run_relaxed(spec, cfg, m), run_relaxed(attached, cfg, m)
    for sg, sw in zip(got, want):
        assert np.array_equal(sg.values, sw.values)
        assert np.array_equal(sg.slope, sw.slope)


def test_relaxed_sweep_integrates_the_svir_table_twice(monkeypatch):
    # SVIR's six terms share one (table, j) pair: per sweep it is
    # integrated once against the values, for Lambda(y) y, its transport
    # derivative and G, and once against the slopes; the kernel has no
    # tilde terms and its newborn source vanishes on I, so Lambda_2 is off
    integrals = []

    class Counted(np.ndarray):
        def __matmul__(self, other):
            integrals.append(1)
            return np.asarray(self) @ other

    m = build_mesh(0.5, 1.0, 6, 7)
    spec = build_svir(SvirParams(tau=1e-2, total_S0=100.0), m)
    table = spec.kernels.terms[0].table
    counted = FactoredTable(table.row.view(Counted), None, table.ages)
    terms = [dataclasses.replace(t, table=counted) for t in spec.kernels.terms]
    spec = dataclasses.replace(spec, kernels=KernelSet(terms))

    in_g = []
    g_op = relaxed_model.g_op

    def g_counted(*args):
        before = len(integrals)
        out = g_op(*args)
        in_g.append(len(integrals) - before)
        return out

    monkeypatch.setattr(relaxed_model, "g_op", g_counted)
    run = run_relaxed(spec, SolverConfig(), m)
    sweeps = sum(len(u) for u in run.picard_updates)
    assert sweeps > m.nt
    assert len(integrals) == 2 * sweeps
    assert in_g == [0] * sweeps


@pytest.mark.parametrize("solve", [run_relaxed, run_parabolic])
def test_one_birth_step_per_sweep(monkeypatch, solve):
    # the benchmark tracer times and counts births through this name
    calls = []
    births = relaxed_model.solve_birth_step

    def counted(*args):
        calls.append(1)
        return births(*args)

    monkeypatch.setattr(relaxed_model, "solve_birth_step", counted)
    m = build_mesh(0.5, 1.0, 6, 7)
    run = solve(build_svir(SvirParams(tau=1e-2, total_S0=100.0), m), SolverConfig(), m)
    sweeps = sum(len(u) for u in run.picard_updates)
    assert sweeps > m.nt
    assert len(calls) == sweeps


@pytest.mark.parametrize("solve", [run_relaxed, run_parabolic])
def test_step_rhs_once_per_time_step_and_step_once_per_sweep(monkeypatch, solve):
    # the benchmark tracer times and counts steps through relaxed_model.step
    calls = {"step_rhs": 0, "step": 0}

    def counting(name):
        fn = getattr(relaxed_model, name)

        def counted(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return counted

    for name in calls:
        monkeypatch.setattr(relaxed_model, name, counting(name))
    m = build_mesh(0.5, 1.0, 6, 7)
    run = solve(build_svir(SvirParams(tau=1e-2, total_S0=100.0), m), SolverConfig(), m)
    sweeps = sum(len(u) for u in run.picard_updates)
    assert sweeps > m.nt
    assert calls == {"step_rhs": m.nt, "step": sweeps}


def test_picard_contraction_on_small_svir():
    m = build_mesh(0.5, 1.0, 10, 11)
    # plain Picard contracts by about 0.85 per sweep here (up to 123
    # sweeps in one step); with mixing the most is 37
    run = run_relaxed(build_svir(SvirParams(tau=1e-2), m), SolverConfig(), m)
    for updates in run.picard_updates:
        floor = 1e-12 * max(updates)
        for a, b in zip(updates[1:], updates[2:]):
            if a > floor and b > floor:
                assert b < a


def test_mixing_keeps_desk_sweep_counts_down(svir_baseline, desk_mesh):
    # 260 relaxed and 257 parabolic sweeps with mixing; plain Picard took 433 and 422
    m = desk_mesh
    rel = run_relaxed(build_svir(SvirParams(tau=1e-2), m), SolverConfig(), m)
    for run in (rel, svir_baseline):
        assert sum(len(u) for u in run.picard_updates) <= 300


def test_energy_shape_under_data_scaling():
    # linear problem: doubling y0 scales the tau-weighted energy by 4
    m = build_mesh(0.5, 1.0, 8, 9)
    A, X = m.na + 1, m.nx
    rng = np.random.default_rng(2)
    tau = 0.4
    y0 = rng.normal(size=(1, A, X))

    def energy(scale):
        spec = scalar_spec(m, scale * y0, sigma=0.2, mu=0.1, tau=tau)
        run = run_relaxed(spec, SolverConfig(), m)
        ev = max(norm_V(sl.values, m) for sl in run) ** 2
        eh = max(norm_H(sl.slope, m) for sl in run) ** 2
        return ev + tau * eh

    ratio = energy(2.0) / energy(1.0)
    assert ratio <= 4.5
    assert ratio == pytest.approx(4.0, rel=1e-10)


def test_two_solution_stability():
    # perturbing y0 by eps changes the run by <= C eps with stable C
    m = build_mesh(0.5, 1.0, 20, 21)
    cfg = SolverConfig()
    base_spec = build_svir(SvirParams(tau=0.05), m)
    base = run_relaxed(base_spec, cfg, m)
    consts = []
    for eps in (1e-3, 1e-4):
        spec = dataclasses.replace(base_spec, y0=base_spec.y0 * (1.0 + eps))
        pert = run_relaxed(spec, cfg, m)
        dv = max(
            norm_V(a.values - b.values, m) for a, b in zip(pert, base)
        )
        scale = eps * norm_V(base_spec.y0, m)
        consts.append(dv / scale)
    assert all(np.isfinite(c) for c in consts)
    assert consts[1] == pytest.approx(consts[0], rel=0.2)


def test_picard_divergence_detected():
    # oversized kernel weight at a coarse step breaks the contraction
    m = build_mesh(1.0, 1.0, 2, 5)
    A, X = m.na + 1, m.nx
    flat = FactoredTable(np.ones((X, X)), None, A)
    k = KernelSet(terms=[KernelTerm(0, 0, 0, -80.0, flat)])
    spec = scalar_spec(m, np.full((1, A, X), 1.0), kernels=k)
    with pytest.raises(PicardDiverged):
        run_relaxed(spec, SolverConfig(picard_max=50), m)


@pytest.mark.parametrize(
    "solve, error, sweeps",
    [(run_parabolic, PicardDiverged, "after 100 sweeps: best residual 1.573e+01"),
     (run_relaxed, NonFinite, "sweeps: best residual")],
    ids=["run_parabolic", "run_relaxed"],
)
def test_divergence_names_the_step_its_time_da_and_residuals(solve, error, sweeps):
    # at da = 0.25 the frozen-kernel map of default SVIR does not contract:
    # the parabolic step exhausts picard_max, the relaxed one overflows
    m = build_mesh(0.5, 1.0, 4, 5)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(error) as err:
            solve(build_svir(SvirParams(tau=1e-2), m), SolverConfig(), m)
    msg = str(err.value)
    for part in ("at step 1 (t=0.25, da=0.25)", sweeps, "last", "per sweep"):
        assert part in msg


def test_five_age_svir_mesh_converges():
    # Anderson residuals are not monotone: the first step's residual grows
    # in 66 of its 244 sweeps, up to three in a row, and still converges
    m = build_mesh(1.0, 1.0, 5, 21)
    run = run_relaxed(build_svir(SvirParams(tau=1e-2), m), SolverConfig(picard_max=400), m)
    assert len(run) == m.nt + 1
    assert np.all(np.isfinite(run.values))


def _scripted(errs, sizes=None):
    """A map that adds 1 each sweep, so its residual never changes and
    every sweep falls back to the plain step, and an energy that reads
    the scripted residual norm (and g norm, 1 by default) of each sweep."""
    sizes = sizes or [1.0] * len(errs)
    return (lambda x: x + 1), (lambda f, g: (errs[int(g[0]) - 1], sizes[int(g[0]) - 1]))


def _solve(picard_map, energy, cfg=SolverConfig(), linear=False, at=1, x0=np.zeros(1)):
    """_fixed_point on one member whose iterate is the (c,) array x0, for
    a map returning a new array and an energy(f, g) of two numbers."""
    def sweep(x, out):
        out[0] = picard_map(x[0].copy())

    def norms(fg):
        return np.array(energy(fg[0, 0], fg[0, 1]), dtype=float)[:, None]

    xg = np.array([[x0, x0]], dtype=float)
    res, updates = _fixed_point(sweep, xg, norms, np.ones((1, len(x0))), cfg, linear, [at],
                                np.empty((1, len(x0))))
    return res[0], updates[0]


def test_fixed_point_stops_at_the_tolerance():
    # x -> x / 2 + 1 halves the distance to 2 each sweep
    x, updates = _solve(lambda x: x / 2 + 1, lambda f, g: (abs(f[0]), abs(g[0])))
    assert x[0] == pytest.approx(2.0, rel=1e-9)
    assert updates[-1] <= 1e-10 * x[0] < updates[-2]
    assert all(type(u) is float for u in updates)


def test_fixed_point_accepts_a_residual_that_grows_before_it_converges():
    sweep, energy = _scripted([1.0, 2.0, 3.0, 4.0, 5.0, 1e-12])
    x, updates = _solve(sweep, energy)
    assert (x[0], updates) == (6, [1.0, 2.0, 3.0, 4.0, 5.0, 1e-12])


def test_fixed_point_raises_when_picard_max_is_exhausted():
    sweep, energy = _scripted([1.0, 2.0, 4.0, 8.0, 16.0, 1e-12])
    with pytest.raises(PicardDiverged, match=r"^no convergence in picard_max=5 sweeps at step 7, "
                       r"after 5 sweeps: best residual 1.000e\+00, last 1.600e\+01, "
                       r"observed ratio 2 per sweep$"):
        _solve(sweep, energy, SolverConfig(picard_max=5), at=7)
    assert _solve(sweep, energy, SolverConfig(picard_max=6), at=7)[0][0] == 6


def test_fixed_point_runs_a_linear_map_once():
    sweep, energy = _scripted([1.0, 1e-12])
    x, updates = _solve(sweep, energy, linear=True)
    assert (x[0], updates) == (1, [1.0])


def test_fixed_point_refuses_a_non_finite_candidate():
    sweep, energy = _scripted([1.0, 0.5], sizes=[1.0, np.nan])
    with pytest.raises(NonFinite, match=r"^non-finite slice at step 3, after 1 sweeps: "
                       r"best residual 1.000e\+00, last 1.000e\+00$"):
        _solve(sweep, energy, at=3)
    sweep, energy = _scripted([np.inf], sizes=[np.inf])
    with pytest.raises(NonFinite, match="^non-finite slice at step 3, after 0 sweeps$"):
        _solve(sweep, energy, at=3)


def _norms(f, g):
    return np.linalg.norm(f), np.linalg.norm(g)


def test_fixed_point_mixing_solves_an_affine_contraction():
    # plain Picard needs 391 sweeps: the slow eigenvalue 0.95 sets its rate
    M, c = np.array([[0.95, 0.0], [0.3, 0.5]]), np.array([1.0, 2.0])
    x, updates = _solve(lambda x: M @ x + c, _norms, x0=np.zeros(2))
    assert len(updates) <= 6
    assert np.allclose(x, np.linalg.solve(np.eye(2) - M, c), rtol=1e-9, atol=0.0)


@pytest.mark.parametrize(
    "picard_map",
    [lambda x: x + np.array([1.0, -2.0]), lambda x: 3.0 * x + 1e160],
    ids=["singular-history", "overflowing-history"],
)
def test_fixed_point_falls_back_to_plain_steps(picard_map):
    # a constant residual makes the Gram system singular; residual
    # differences near 1e160 overflow it: both take the plain step g(x)
    seen = []

    def recorded(x):
        seen.append(x)
        return picard_map(x)

    errs = iter([1.0, 0.9, 0.8, 0.7, 1e-12])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        x, updates = _solve(recorded, lambda f, g: (next(errs), 1.0), x0=np.zeros(2))
    assert len(updates) == len(seen) == 5
    for a, b in zip(seen, seen[1:]):
        assert np.array_equal(b, picard_map(a))
    assert np.array_equal(x, picard_map(seen[-1]))


def test_exhausted_picard_max_raises():
    # the unconverged slice is not committed
    m = build_mesh(0.5, 1.0, 6, 7)
    spec = build_svir(SvirParams(tau=1e-2, total_S0=100.0), m)
    with pytest.raises(PicardDiverged, match="picard_max=3 sweeps at step 1"):
        run_relaxed(spec, SolverConfig(picard_max=3), m)


@pytest.mark.parametrize(
    "field, value",
    [
        ("picard_tol", 0.0),
        ("picard_tol", -1e-10),
        ("picard_tol", np.inf),
        ("picard_tol", np.nan),
        ("picard_tol", True),
        ("picard_tol", "1e-10"),
        ("picard_tol", None),
        ("picard_tol", 1e-10 + 0j),
        ("picard_max", 0),
        ("picard_max", 2.5),
        ("picard_max", True),
        ("store_every", 0),
        ("store_every", 1.5),
    ],
)
def test_bad_solver_config_is_an_invalid_param(field, value):
    m = build_mesh(0.5, 1.0, 4, 5)
    spec = build_svir(SvirParams(tau=1e-2), m)
    with pytest.raises(InvalidParam, match=field):
        run_relaxed(spec, SolverConfig(**{field: value}), m)


@pytest.mark.parametrize(
    "series, make, error",
    [
        ("g0", lambda m: np.zeros((2, 1, m.nx)), ShapeMismatch),
        ("g0", lambda m: np.zeros((m.nt + 1, 1, m.nx + 1)), ShapeMismatch),
        ("g0", lambda m: np.full((m.nt + 1, 1, m.nx), np.nan), NonFinite),
        ("g1", lambda m: np.zeros((m.nt, 1, m.nx)), ShapeMismatch),
        ("g1", lambda m: np.full((m.nt + 1, 1, m.nx), np.inf), NonFinite),
    ],
    ids=["g0-short", "g0-wide", "g0-nan", "g1-short", "g1-inf"],
)
def test_bad_birth_series_are_typed_errors(series, make, error):
    # a malformed birth source is a typed error, naming the series, before
    # any step: not an IndexError at the step past its end, a numpy
    # broadcast error, or a NaN reported as a singular birth system
    m = build_mesh(1.0, 1.0, 4, 5)
    spec = scalar_spec(m, np.zeros((1, m.na + 1, m.nx)), tau=0.1, **{series: make(m)})
    with pytest.raises(error, match=series):
        run_relaxed(spec, SolverConfig(), m)


def test_spec_validation_errors():
    m = build_mesh(0.5, 1.0, 4, 5)
    spec = scalar_spec(m, np.zeros((1, 3, 3)))
    with pytest.raises(ShapeMismatch):
        run_relaxed(spec, SolverConfig(), m)


@pytest.mark.parametrize("shape", [(), (5,), (5, 5, 1, 0), (5, 5, 2, 2)])
def test_malformed_L_is_a_shape_mismatch(shape):
    # n is read from L, so an L without a compartment axis must still be
    # named, not fail as an IndexError
    m = build_mesh(0.5, 1.0, 4, 5)
    spec = scalar_spec(m, np.zeros((1, m.na + 1, m.nx)))
    spec.linear.L = np.zeros(shape)
    with pytest.raises(ShapeMismatch, match="^(L|L_a|sigma|y0) shape"):
        run_relaxed(spec, SolverConfig(), m)


def _poisoned(spec, name, m):
    """spec with one NaN in the table called name."""
    if name == "f":
        spec.f = np.zeros((m.nt + 1,) + spec.y0.shape)
    owner = next(o for o in (spec, spec.linear, spec.births) if hasattr(o, name))
    getattr(owner, name).flat[7] = np.nan
    return spec


@pytest.mark.parametrize("solve", [run_relaxed, run_parabolic])
@pytest.mark.parametrize(
    "name", ["beta0", "beta1", "betaL", "beta_grad", "L", "L_a", "sigma", "f"]
)
def test_non_finite_tables_are_named_before_the_solve(monkeypatch, solve, name):
    # not a singular birth or step system, and not silently accepted
    monkeypatch.setattr(relaxed_model, "step_context", None)  # never reached
    m = build_mesh(0.75, 1.0, 4, 5)
    spec = _poisoned(build_svir(SvirParams(tau=1e-2), m), name, m)
    with pytest.raises(NonFinite, match=f"^{name} contains NaN/inf$"):
        solve(spec, SolverConfig(), m)


@pytest.mark.parametrize(
    "bad, match",
    [
        (lambda A, X: KernelTerm(7, 0, 2, 1.0, FactoredTable(np.ones((X, X)), None, A)), "outside"),
        (lambda A, X: KernelTerm(0, 0, 2, 1.0, FactoredTable(np.ones((X, X + 1)), None, A)), "row"),
        (lambda A, X: KernelTerm(0, 0, 2, 1.0, np.ones((A, X, A, X))), "from_dense"),
    ],
)
def test_bad_kernel_terms_are_shape_mismatches(bad, match):
    # an index outside the model, a row off the mesh and a dense table
    m = build_mesh(0.5, 1.0, 4, 5)
    spec = build_svir(SvirParams(tau=1e-2), m)
    term = bad(m.na + 1, m.nx)
    spec = dataclasses.replace(spec, kernels=KernelSet(spec.kernels.terms + [term]))
    with pytest.raises(ShapeMismatch, match=match) as err:
        run_relaxed(spec, SolverConfig(), m)
    assert f"kernel term (h={term.h}, i=0, j=2)" in str(err.value)


@pytest.mark.parametrize("tau", [-0.1, np.nan, np.inf, "0.1", None, 0.1 + 0j])
def test_negative_tau_is_an_invalid_param(tau):
    m = build_mesh(0.5, 1.0, 4, 5)
    spec = scalar_spec(m, np.zeros((1, m.na + 1, m.nx)), tau=tau)
    with pytest.raises(InvalidParam):
        run_relaxed(spec, SolverConfig(), m)


def test_store_every_thins_output():
    m = build_mesh(1.0, 1.0, 8, 5)
    spec = scalar_spec(m, np.ones((1, m.na + 1, m.nx)))
    run = run_relaxed(spec, SolverConfig(store_every=4), m)
    assert run.indices == [0, 4, 8]
    assert run.times == [0.0, 0.5, 1.0]


@pytest.mark.parametrize("solve", [run_relaxed, run_parabolic])
def test_a_consumer_takes_the_stored_steps_in_place_of_the_stacks(solve):
    # the consumer sees each stored step as the stacks would hold it; the
    # returned Runs store no slice but keep every step's sweep residuals
    m = build_mesh(1.0, 1.0, 8, 9)
    spec = dataclasses.replace(age_kernel_spec(m, 0.0, g0=0.3), tau=[1e-2, 0.3])
    cfg = SolverConfig(store_every=3)
    seen = []

    def consume(i, values, slopes):
        seen.append((i, values.copy(), slopes.copy()))

    got, want = solve(spec, cfg, m, consume=consume), solve(spec, cfg, m)
    if solve is run_parabolic:
        got, want = [got], [want]
    assert [i for i, _, _ in seen] == want[0].indices == [0, 3, 6, 8]
    for j, (g, w) in enumerate(zip(got, want)):
        assert len(g) == 0 and g.values.shape == (0,) + w.values.shape[1:]
        assert g.picard_updates == w.picard_updates
        assert np.array_equal(np.stack([v[j] for _, v, _ in seen]), w.values)
        assert np.array_equal(np.stack([s[j] for _, _, s in seen]), w.slopes)


# Lockstep members: a spec whose tau is a sequence marches one member per
# tau as one batch, and each member is its solo run to the bit.

def _varying_in_x(spec, m):
    """spec with L and L_a that vary in x, so its step is dense."""
    x = m.xs()[None, :, None, None]
    spec.linear.L = spec.linear.L * (1.0 + x)
    spec.linear.L_a = 0.3 * x * np.ones_like(spec.linear.L)
    return spec


@pytest.mark.parametrize(
    "model, mesh",
    [
        (lambda m: build_svir(SvirParams(), m), (1.0, 1.0, 20, 21)),
        # live Lambda_1, Lambda_2 and g0
        (lambda m: age_kernel_spec(m, 0.0, g0=0.3), (0.5, 1.0, 8, 9)),
        # L and L_a that vary in x: the dense step path
        (lambda m: _varying_in_x(age_kernel_spec(m, 0.0, g0=0.3), m), (0.5, 1.0, 8, 9)),
        # linear, one sweep a step, with a forcing table
        (lambda m: manufactured(m)[0], (0.5, 1.0, 10, 11)),
    ],
    ids=["desk-svir", "age-kernel", "age-kernel-dense-step", "manufactured"],
)
def test_lockstep_members_equal_their_solo_runs(model, mesh):
    m = build_mesh(*mesh)
    assert_members_equal_solo_runs(model(m), DESK_TAUS, SolverConfig(), m)


def test_lockstep_members_store_the_solo_steps():
    m = build_mesh(1.0, 1.0, 8, 5)
    spec = age_kernel_spec(m, 0.0)
    assert_members_equal_solo_runs(spec, (0.3, 1e-2), SolverConfig(store_every=4), m)


@TAU_ZERO_MODELS
def test_lockstep_tau_zero_member_matches_parabolic_exactly(model):
    # the tau = 0 member adds zero tau terms, so it stays the parabolic run
    m = build_mesh(0.5, 1.0, 10, 11)
    spec = model(m)
    rel = run_relaxed(dataclasses.replace(spec, tau=[0.0, 1e-2]), SolverConfig(), m)[0]
    par = run_parabolic(spec, SolverConfig(), m)
    assert np.array_equal(rel.values, par.values)


def test_a_failing_lockstep_member_is_named_by_its_tau_and_step():
    # step 1 takes 32 and 28 sweeps at tau = 1e-4 and 1e-2, and 40 at
    # 5e-2: only that member exhausts picard_max, after the others froze
    m = build_mesh(0.5, 1.0, 10, 21)
    spec = build_svir(SvirParams(), m)
    cfg = SolverConfig(picard_max=35)
    with pytest.raises(PicardDiverged) as batch:
        run_relaxed(dataclasses.replace(spec, tau=[1e-4, 1e-2, 5e-2]), cfg, m)
    with pytest.raises(PicardDiverged) as solo:
        run_relaxed(dataclasses.replace(spec, tau=5e-2), cfg, m)
    msg = str(batch.value)
    assert "at step 1 (t=0.1, da=0.1, tau=0.05), after 35 sweeps" in msg
    assert msg == str(solo.value).replace("da=0.1)", "da=0.1, tau=0.05)")


def test_frozen_members_stay_off_the_singular_fallback(monkeypatch):
    # step 1 takes 32, 28 and 40 sweeps at these taus.  A frozen member
    # restarts from its answer, so its residual differences vanish: its
    # mixing system must be the identity, not its singular Gram matrix
    m = build_mesh(0.5, 1.0, 10, 21)
    solve, singular = np.linalg.solve, []

    def counted(a, b):
        try:
            return solve(a, b)
        except np.linalg.LinAlgError:
            singular.append(a.shape)
            raise

    monkeypatch.setattr(np.linalg, "solve", counted)
    spec = build_svir(SvirParams(), m)
    assert_members_equal_solo_runs(spec, [1e-4, 1e-2, 5e-2], SolverConfig(picard_max=60), m)
    assert singular == []


def _members(errs, sizes):
    """A lockstep map and energy for scripted members: member j reads
    errs[j][k] and sizes[j][k] at sweep k; the map adds 1 to every
    member's iterate and records each sweep's g."""
    gs = []

    def sweep(x, out):
        out[...] = x + 1.0
        gs.append(out[:, 0].tolist())

    def energy(fg):
        k = len(gs) - 1
        return np.array([[e[k] for e in errs], [s[k] for s in sizes]])

    return gs, sweep, energy


def _lockstep(sweep, energy, res, cfg):
    """_fixed_point on len(res) scripted members of one component, into res."""
    M = len(res)
    labels = [f"5 (tau={0.1 * (j + 1):.6g})" for j in range(M)]
    return _fixed_point(sweep, np.zeros((M, 2, 1)), energy, np.ones((M, 1)), cfg, False,
                        labels, res)


def test_fixed_point_freezes_converged_members_and_names_the_one_that_fails():
    # members 0 and 2 converge at sweeps 1 and 2; the NaN scripted for them
    # afterwards is neither checked nor recorded
    nan = np.nan
    errs = [[1.0, 1e-12, nan, nan, nan], [1.0, 2.0, 4.0, 8.0, 1e-12], [1.0, 0.5, 1e-12, nan, nan]]
    sizes = [[1.0, 1.0, nan, nan, nan], [1.0] * 5, [1.0, 1.0, 1.0, nan, nan]]
    gs, sweep, energy = _members(errs, sizes)
    res = np.full((3, 1), nan)
    with pytest.raises(PicardDiverged, match=r"^no convergence in picard_max=4 sweeps at step "
                       r"5 \(tau=0\.2\), after 4 sweeps: best residual 1\.000e\+00, last "
                       r"8\.000e\+00, observed ratio 2 per sweep$"):
        _lockstep(sweep, energy, res, SolverConfig(picard_max=4))
    # a frozen member's answer is the g of the sweep it converged on, and
    # every later sweep restarts it from that answer
    assert (res[0, 0], res[2, 0]) == (gs[1][0], gs[2][2]) == (2.0, 3.0)
    assert [g[0] for g in gs] == [1.0, 2.0, 3.0, 3.0]
    gs.clear()
    res, updates = _lockstep(sweep, energy, np.full((3, 1), nan), SolverConfig(picard_max=5))
    assert updates == [errs[0][:2], errs[1], errs[2][:3]]
    assert res[:, 0].tolist() == [2.0, 5.0, 3.0]


def test_fixed_point_names_the_member_whose_slice_is_not_finite():
    errs = [[1e-12, 0.0, 0.0], [1.0, 0.5, 0.25], [1.0, 0.5, 0.25]]
    sizes = [[1.0, np.nan, np.nan], [1.0, 1.0, 1.0], [1.0, 1.0, np.inf]]
    gs, sweep, energy = _members(errs, sizes)
    res = np.full((3, 1), np.nan)
    with pytest.raises(NonFinite, match=r"^non-finite slice at step 5 \(tau=0\.3\), after 2 "
                       r"sweeps: best residual 5\.000e-01, last 5\.000e-01"):
        _lockstep(sweep, energy, res, SolverConfig())
    # member 0 froze at sweep 0 and restarts from its answer 1: its later
    # NaN sizes raised nothing
    assert res[0, 0] == gs[0][0] == 1.0
    assert [g[0] for g in gs] == [1.0, 2.0, 2.0]
    sizes[2][2] = 1.0
    errs[1][2] = errs[2][2] = 1e-12
    gs.clear()
    assert _lockstep(sweep, energy, res, SolverConfig())[1] == [[1e-12], errs[1], errs[2]]


@pytest.mark.parametrize(
    "taus",
    [[], [1e-2, -1e-2], [1e-2, "0.1"], [[1e-2]], [[1e-2], [1e-2, 2e-2]], np.array([1e-2, np.nan]),
     np.array([[1e-2]]), np.array(1e-2)],
)
def test_a_bad_tau_sequence_is_an_invalid_param(taus):
    m = build_mesh(0.5, 1.0, 4, 5)
    spec = scalar_spec(m, np.zeros((1, m.na + 1, m.nx)), tau=taus)
    with pytest.raises(InvalidParam, match="tau="):
        run_relaxed(spec, SolverConfig(), m)
