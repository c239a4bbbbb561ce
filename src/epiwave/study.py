"""Relaxation-parameter experiments: sweeps, rate fits, front tracking.

A sweep runs the relaxed solver for each tau against a single parabolic
baseline on the same mesh, collects sup-norm and energy-norm
differences, and fits the convergence rate on a log-log scale.  Points
whose difference sits within 10x of the measured discretization floor
(the difference between two grid resolutions at tau = 0) are flagged
non-asymptotic; because both solvers share one scheme, the matched-grid
differences keep shrinking linearly below that floor, so the fit falls
back to all usable points when fewer than three remain flagged.
"""

from dataclasses import dataclass, replace
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .birth import make_compatible
from .errors import FitUnderdetermined, InvalidParam, MissingBaseline
from .fields import NormReport, age_integral, diff_norms
from .mesh import Mesh, build_mesh
from .operators import attach_tilde
from .parabolic_model import run_parabolic
from .relaxed_model import ModelSpec, Run, SolverConfig, derived_initial_slope, run_relaxed
from .svir import I as I_COMP
from .svir import SvirParams, build_svir

FLOOR_FACTOR = 10.0


@dataclass
class SweepResult:
    """Outcome of one tau sweep."""

    taus: List[float]
    sup_diffs: List[float]
    energy_diffs: List[NormReport]
    fitted_rate: float
    front_positions: List[List[Tuple[float, float]]]
    fitted_rate_energy: Optional[float] = None
    floor: Optional[float] = None
    asymptotic_mask: Optional[List[bool]] = None
    window_applied: bool = False


def fit_rate(
    taus: Sequence[float],
    diffs: Sequence[float],
    floor: Optional[float] = None,
) -> Tuple[float, List[bool], bool]:
    """Least-squares slope of log(diff) against log(tau).

    Returns (rate, asymptotic_mask, window_applied).  Raises
    FitUnderdetermined when fewer than three points have positive
    differences.
    """
    taus = np.asarray(taus, dtype=float)
    diffs = np.asarray(diffs, dtype=float)
    usable = diffs > 0.0
    mask = usable.copy()
    window_applied = False
    if floor is not None and floor > 0.0:
        above = usable & (diffs > FLOOR_FACTOR * floor)
        if int(above.sum()) >= 3:
            mask = above
            window_applied = True
    if int(mask.sum()) < 3:
        if int(usable.sum()) >= 3:
            mask = usable
        else:
            raise FitUnderdetermined(
                f"only {int(usable.sum())} positive diffs, need 3"
            )
    slope = np.polyfit(np.log(taus[mask]), np.log(diffs[mask]), 1)[0]
    return float(slope), list(mask), window_applied


def energy_diff(report: NormReport, tau: float) -> float:
    """tau-weighted energy metric sqrt(sup_V^2 + tau * sup_H(slope)^2)."""
    return float(
        np.sqrt(report.sup_t_V**2 + tau * report.sup_t_H_slope**2)
    )


def coarse_view(run: Run, factor: int) -> List:
    """Restrict a finer run to every factor-th time and age index."""
    out = []
    for k in range(0, len(run), factor):
        sl = run[k]
        out.append(
            type(sl)(
                sl.values[:, ::factor, :],
                None if sl.slope is None else sl.slope[:, ::factor, :],
            )
        )
    return out


def refinement_floor(
    base: SvirParams, cfg: SolverConfig, m: Mesh
) -> Tuple[float, float]:
    """Sup and energy-metric diff between the na and 2na parabolic runs.

    Both runs share nx; the finer run is subsampled onto the coarse
    lattice, so the comparison is pointwise.
    """
    cfg1 = replace(cfg, store_every=1)
    coarse = run_parabolic(build_svir(replace(base, tau=0.0), m), cfg1, m)
    m2 = build_mesh(m.t_max, m.a_max, 2 * m.na, m.nx)
    fine = run_parabolic(build_svir(replace(base, tau=0.0), m2), cfg1, m2)
    rep = diff_norms(coarse, coarse_view(fine, 2), m)
    return rep.sup_abs, energy_diff(rep, 0.0)


def check_taus(taus: Sequence[float]) -> None:
    """Raise InvalidParam unless the taus are positive and strictly monotone.

    The rate is a log-log fit, and a tau = 0 member equals the baseline.
    """
    steps = np.diff(taus)
    if not (all(t > 0 for t in taus) and (all(steps > 0) or all(steps < 0))):
        raise InvalidParam(f"sweep taus must be positive and strictly monotone: {list(taus)}")


def tau_sweep(
    base: SvirParams,
    taus: Sequence[float],
    cfg: SolverConfig,
    m: Mesh,
    threshold: Optional[float] = None,
    spec_for_tau=None,
    baseline: Optional[Run] = None,
    floor: Optional[float] = None,
) -> SweepResult:
    """Run the relaxed solver per tau and fit the convergence rate.

    spec_for_tau may override the default benchmark factory (a callable
    tau -> ModelSpec) to realize alternative compatibility setups; the
    baseline may be passed in to reuse a precomputed parabolic run, and
    floor injects a precomputed refinement floor.  front_positions uses
    the given absolute threshold on the age-integrated infective
    density, defaulting to 1e-6 times its initial sup.
    """
    taus = list(taus)
    check_taus(taus)
    if baseline is None:
        baseline = run_parabolic(build_svir(replace(base, tau=0.0), m), cfg, m)
    if spec_for_tau is None:
        spec_for_tau = lambda tau: build_svir(replace(base, tau=tau), m)

    if floor is None:
        floor, _ = refinement_floor(base, cfg, m)

    init_sup = float(np.max(age_integral(baseline[0].values, m)[I_COMP]))
    thr = threshold if threshold is not None else 1e-6 * init_sup

    reports, fronts = [], []
    for tau in taus:
        run = run_relaxed(spec_for_tau(tau), cfg, m)
        reports.append(diff_norms(run, baseline, m))
        fronts.append(front_tracker(run, thr, m))
    sup_diffs = [r.sup_abs for r in reports]
    energies = [energy_diff(r, t) for r, t in zip(reports, taus)]
    rate, mask, window = fit_rate(taus, sup_diffs, floor)
    try:
        rate_e, _, _ = fit_rate(taus, energies, None)
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
        asymptotic_mask=mask,
        window_applied=window,
    )


def front_tracker(
    run: Sequence, threshold: float, m: Mesh, compartment: int = I_COMP
) -> List[Tuple[float, float]]:
    """Leftmost x where the age-integrated density exceeds the threshold.

    The infection enters at x = 1 and travels inward, so the reported
    coordinate decreases as the front advances; slices never exceeding
    the threshold contribute no entry.
    """
    xs = m.xs()
    times = getattr(run, "times", None)
    out = []
    for k, sl in enumerate(run):
        prof = age_integral(sl.values, m)[compartment]
        above = np.nonzero(prof > threshold)[0]
        if above.size:
            t = times[k] if times is not None else float(k)
            out.append((float(t), float(xs[above[0]])))
    return out


def compatibility_setup(
    base: SvirParams,
    q1: float,
    q2: float,
    baseline: Optional[Run] = None,
    m: Optional[Mesh] = None,
) -> ModelSpec:
    """Benchmark spec with matched zeroth/first-order boundary data.

    Uses the derived coefficient tables beta0 = q1 beta,
    beta1 = q2 sigma(0) beta sigma^-1 (and friends), the compatible
    initial slope, and boundary source series sampled from the baseline
    run's age-zero traces: g0 = (1-q1) y(a=0), g1 = (1-q2) dy(a=0).
    A baseline with every step stored is required whenever q1 != 1 or
    q2 != 1.
    """
    if m is None:
        if baseline is None:
            raise MissingBaseline("need a mesh or a baseline run")
        m = baseline.mesh
    needs_trace = (q1 != 1.0) or (q2 != 1.0)
    if needs_trace:
        if baseline is None:
            raise MissingBaseline("q1 or q2 != 1 needs a baseline run")
        if len(baseline) != m.nt + 1:
            raise MissingBaseline("baseline must store every step")
    spec = build_svir(base, m)
    beta_tab = spec.births.beta0
    laws = make_compatible(beta_tab, spec.linear, q1, q2, m)
    if q1 != 1.0:
        laws.g0 = (1.0 - q1) * np.stack(
            [sl.values[:, 0, :] for sl in baseline]
        )
    if q2 != 1.0:
        laws.g1 = (1.0 - q2) * np.stack(
            [sl.slope[:, 0, :] for sl in baseline]
        )
    kernels = attach_tilde(spec.kernels, laws.beta0, m)
    spec = replace(spec, births=laws, kernels=kernels)
    spec = replace(spec, y1=derived_initial_slope(spec, m))
    return spec
