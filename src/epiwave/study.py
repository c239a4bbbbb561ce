"""Relaxation-parameter experiments: sweeps, rate fits, front tracking.

A sweep solves the parabolic baseline once on the mesh, every step
stored, and that one run serves the whole study: it is the coarse half
of the refinement floor (the difference between the na and 2na
parabolic runs), it supplies the boundary traces of a compatibility
setup, and each relaxed member is diffed against it.  The members (one
run_relaxed call, in lockstep) and the 2na run are reduced step by step
as the march hands them over, so a sweep holds the baseline and one
slice per member.  The sweep collects sup-norm and energy-norm
differences and fits the convergence rate on a log-log scale through
every positive difference.  The floor is reported, not used by the fit:
both solvers share one scheme, so the matched-grid differences keep
shrinking linearly below it.
"""

from dataclasses import dataclass, replace
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .birth import make_compatible
from .errors import FitUnderdetermined, InvalidParam, LengthMismatch, ShapeMismatch
from .fields import NormReport, Run, age_integral, norm_report, slice_diffs
from .fields import diff_norms  # noqa: F401 (study.diff_norms stays a traced name)
from .mesh import Mesh, build_mesh, is_real
from .parabolic_model import run_parabolic
from .relaxed_model import ModelSpec, SolverConfig, derived_initial_slope, run_relaxed
from .svir import I as I_COMP
from .svir import SvirParams, build_svir

# The default front threshold, as a share of the initial sup of the
# age-integrated density.
FRONT_FACTOR = 1e-6


@dataclass
class SweepResult:
    """Outcome of one tau sweep; each list holds one entry per tau.

    taus: the relaxation parameters, as given.
    sup_diffs: each member's max |y_tau - y| over the nodes and stored steps.
    energy_diffs: each member's NormReport against the parabolic baseline.
    fitted_rate: the log-log slope of sup_diffs against taus.
    front_positions: each member's (t, front_x) trajectory.
    fitted_rate_energy: the slope of energy_diff; None below three positive.
    floor: the refinement floor; reported, the fits do not read it.
    """

    taus: List[float]
    sup_diffs: List[float]
    energy_diffs: List[NormReport]
    fitted_rate: float
    front_positions: List[List[Tuple[float, float]]]
    fitted_rate_energy: Optional[float]
    floor: float


def fit_rate(taus: Sequence[float], diffs: Sequence[float]) -> float:
    """Least-squares slope of log(diff) against log(tau) over the positive
    diffs.  Raises FitUnderdetermined when fewer than three are positive.
    """
    taus = np.asarray(taus, dtype=float)
    diffs = np.asarray(diffs, dtype=float)
    usable = diffs > 0.0
    if int(usable.sum()) < 3:
        raise FitUnderdetermined(f"only {int(usable.sum())} positive diffs, need 3")
    return float(np.polyfit(np.log(taus[usable]), np.log(diffs[usable]), 1)[0])


def energy_diff(report: NormReport, tau: float) -> float:
    """tau-weighted energy metric sqrt(sup_V^2 + tau * sup_H(slope)^2)."""
    return float(
        np.sqrt(report.sup_t_V**2 + tau * report.sup_t_H_slope**2)
    )


def refinement_floor(coarse: Run, base: SvirParams, cfg: SolverConfig) -> float:
    """Sup diff between a parabolic run and the one on twice its na.

    coarse is the parabolic run of build_svir(base, m) on its mesh m
    with every step stored, solved with cfg; only the 2na problem is
    solved here, with the same Picard settings.  Both runs share nx, and
    the finer run is subsampled onto the coarse lattice, so the
    comparison is pointwise; its march hands over every other step (nt
    is even), the steps the coarse lattice reads, to a running max.
    """
    m = coarse.mesh
    if len(coarse) != m.nt + 1:
        raise LengthMismatch("the coarse run must store every step")
    m2 = build_mesh(m.t_max, m.a_max, 2 * m.na, m.nx)
    worst = np.zeros(())

    def compare(i: int, values: np.ndarray, slopes: np.ndarray) -> None:
        np.maximum(worst, np.max(np.abs(coarse.values[i // 2] - values[0, :, ::2])), out=worst)

    run_parabolic(build_svir(base, m2), replace(cfg, store_every=2), m2, consume=compare)
    return float(worst)


def check_taus(taus: Sequence[float]) -> None:
    """Raise InvalidParam unless taus is a list, tuple or 1-D array of
    three or more positive, finite real numbers, strictly monotone.

    The rate is a log-log fit through at least three points, and a
    tau = 0 member equals the baseline.
    """
    if not (
        (isinstance(taus, (list, tuple)) or isinstance(taus, np.ndarray) and taus.ndim == 1)
        and len(taus) >= 3
        and all(is_real(t) and 0 < t < np.inf for t in taus)
        and (all(np.diff(taus) > 0) or all(np.diff(taus) < 0))
    ):
        raise InvalidParam(
            "sweep taus must be a list, tuple or 1-D array of three or more,"
            f" in (0, inf), strictly monotone: {taus!r}"
        )


def tau_sweep(
    base: SvirParams,
    taus: Sequence[float],
    cfg: SolverConfig,
    m: Mesh,
    threshold: Optional[float] = None,
    compat: Optional[Tuple[float, float]] = None,
) -> SweepResult:
    """Run the relaxed solver per tau and fit the convergence rate.

    The parabolic baseline of build_svir(base, m) is solved once, every
    step stored; it gives the refinement floor, the boundary traces of
    compat = (q1, q2) and the slices each member is diffed against.  The
    members are one spec at each tau: build_svir(base, m), or its
    compatibility_setup(spec, q1, q2, baseline) when compat is given.
    They are reduced step by step as diff_norms and front_tracker reduce
    stored runs (slice_diffs, norm_report, _fronts), to the same bits.
    """
    check_taus(taus)
    taus = list(taus)
    template = build_svir(base, m)
    baseline = run_parabolic(template, replace(cfg, store_every=1), m)
    floor = refinement_floor(baseline, base, cfg)
    if compat is not None:
        template = compatibility_setup(template, *compat, baseline)

    steps, diffs, profiles = [], [], []

    def reduce(i: int, values: np.ndarray, slopes: np.ndarray) -> None:
        steps.append(i)
        diffs.append(slice_diffs(values, slopes, baseline.values[i], baseline.slopes[i], m))
        profiles.append(age_integral(values, m)[:, I_COMP])

    run_relaxed(replace(template, tau=taus), cfg, m, consume=reduce)  # the members, in lockstep
    reports = [norm_report(steps, *d, m) for d in zip(*(np.stack(d, axis=1) for d in zip(*diffs)))]
    fronts = [_fronts(p, [i * m.dt for i in steps], threshold, m) for p in np.stack(profiles, 1)]
    sup_diffs = [r.sup_abs for r in reports]
    energies = [energy_diff(r, t) for r, t in zip(reports, taus)]
    rate = fit_rate(taus, sup_diffs)
    try:
        rate_e = fit_rate(taus, energies)
    except FitUnderdetermined:
        rate_e = None
    return SweepResult(
        taus=taus,
        sup_diffs=sup_diffs,
        energy_diffs=reports,
        fitted_rate=rate,
        front_positions=fronts,
        fitted_rate_energy=rate_e,
        floor=floor,
    )


def front_tracker(
    run: Run, threshold: Optional[float], compartment: int = I_COMP
) -> List[Tuple[float, float]]:
    """Leftmost x where the age-integrated density exceeds the threshold.

    The infection enters at x = 1 and travels inward, so the reported
    coordinate decreases as the front advances; slices never exceeding
    the threshold contribute no entry.  A threshold of None means
    FRONT_FACTOR times the sup of the age-integrated density of run[0].
    LengthMismatch for a run that stores no slice, ShapeMismatch for a
    compartment that is not an index 0..n-1 of run.
    """
    m = run.mesh
    run.check_stored()
    n = run.values.shape[1]
    index = isinstance(compartment, (int, np.integer)) and not isinstance(compartment, bool)
    if not (index and 0 <= compartment < n):
        raise ShapeMismatch(f"compartment={compartment!r} is not one of the run's {n} compartments")
    return _fronts(age_integral(run.values, m)[:, compartment], run.times, threshold, m)


def _fronts(prof: np.ndarray, times, threshold: Optional[float], m: Mesh):
    """front_tracker's rule on the (S, nx) age-integrated profiles at times."""
    if threshold is None:
        threshold = FRONT_FACTOR * float(np.max(prof[0]))
    above = prof > threshold
    xs = m.xs()
    return [(float(t), float(xs[np.argmax(row)])) for t, row in zip(times, above) if row.any()]


def compatibility_setup(spec: ModelSpec, q1: float, q2: float, baseline: Run) -> ModelSpec:
    """spec with matched zeroth/first-order boundary data on baseline's mesh.

    With beta = spec.births.beta0, uses the derived coefficient tables
    beta0 = q1 beta, beta1 = q2 sigma(0) beta sigma^-1 (and friends), the
    compatible initial slope, and boundary source series sampled from the
    age-zero traces of baseline, spec's parabolic run: g0 = (1-q1) y(a=0),
    g1 = (1-q2) dy(a=0).  baseline must store every step and start at spec.y0.
    """
    m = baseline.mesh
    if len(baseline) != m.nt + 1:
        raise LengthMismatch("the baseline must store every step")
    if not np.array_equal(baseline.values[0], spec.y0):
        raise ShapeMismatch(f"the baseline on {m} does not start from the spec's y0")
    laws = make_compatible(spec.births.beta0, spec.linear, q1, q2, m)
    if q1 != 1.0:
        laws.g0 = (1.0 - q1) * baseline.values[:, :, 0]
    if q2 != 1.0:
        laws.g1 = (1.0 - q2) * baseline.slopes[:, :, 0]
    spec = replace(spec, births=laws)
    spec = replace(spec, y1=derived_initial_slope(spec, m))
    return spec
