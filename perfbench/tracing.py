"""Spans around calls into epiwave's modules, recorded from outside it.

Each traced function is wrapped under the name its caller bound it to, so
``relaxed_model.lambda_op`` (the driver's calls) is timed while the calls
``delta_lambda_apply`` and ``g_op`` make to their own module's
``lambda_op`` are not: every phase is timed once.  A span holds its name,
start, end and the index of the span that was open when it began.  Spans
stay in memory; the runner writes them out when the run ends.

The tracer keeps one stack of open spans, so it assumes one thread.
"""

import functools
import importlib
import os
from collections import Counter
from time import perf_counter

# (module, attribute): the caller-bound names that are wrapped.
WRAPPED = [
    # The driver, as run_relaxed and run_parabolic bind it.
    ("relaxed_model", "_march"),
    ("parabolic_model", "_march"),
    # Phases of a Picard sweep, as the driver binds them.
    ("relaxed_model", "step"),
    ("relaxed_model", "lambda_op"),
    ("relaxed_model", "delta_lambda_apply"),
    ("relaxed_model", "g_op"),
    ("relaxed_model", "solve_birth_step"),
    ("relaxed_model", "norm_V"),
    ("relaxed_model", "norm_H"),
    # The study layer and what it calls.
    ("study", "tau_sweep"),
    ("study", "run_parabolic"),
    ("study", "run_relaxed"),
    ("study", "refinement_floor"),
    ("study", "diff_norms"),
    ("study", "front_tracker"),
    ("study", "fit_rate"),
    ("study", "build_svir"),
    # Problem construction and the CLI.
    ("svir", "build_svir"),
    ("io_cli", "parse_config"),
    ("io_cli", "build_problem"),
    ("io_cli", "build_svir"),
    ("io_cli", "cli_main"),
    ("io_cli", "run_relaxed"),
    ("io_cli", "run_parabolic"),
    ("io_cli", "write_slices"),
    ("io_cli", "diff_norms"),
    ("io_cli", "validation_cases"),
    # validation_cases imports these from their module at call time.
    ("reference", "heat_mode_decay"),
    ("reference", "damped_mode_solution"),
    ("reference", "renewal_reference"),
]

MARCH = {"relaxed_model._march", "parabolic_model._march"}
OPERATORS = {"relaxed_model.lambda_op", "relaxed_model.delta_lambda_apply", "relaxed_model.g_op"}
# Time metrics: the summed duration of the spans of these names.
SPAN_METRICS = {
    "operators.lambda_op_s": {"relaxed_model.lambda_op"},
    "operators.delta_lambda_apply_s": {"relaxed_model.delta_lambda_apply"},
    "operators.g_op_s": {"relaxed_model.g_op"},
    "char_solver.step_s": {"relaxed_model.step"},
    "birth.solve_birth_step_s": {"relaxed_model.solve_birth_step"},
    "fields.norm_s": {"relaxed_model.norm_V", "relaxed_model.norm_H"},
    "fields.diff_norms_s": {"study.diff_norms", "io_cli.diff_norms"},
    "svir.build_svir_s": {"study.build_svir", "io_cli.build_svir", "svir.build_svir"},
    "study.refinement_floor_s": {"study.refinement_floor"},
    "study.fit_s": {"study.fit_rate"},
    "io_cli.build_problem_s": {"io_cli.build_problem"},
    "io_cli.write_slices_s": {"io_cli.write_slices"},
    "reference.s": {
        "reference.heat_mode_decay",
        "reference.damped_mode_solution",
        "reference.renewal_reference",
    },
}
# Spans of these names count only inside a span of the given name.  The
# cli-tables set-up calls build_problem itself, but `epiwave run` loads the
# .npz once, inside cli_main, and that load is the program's figure.
WITHIN = {"io_cli.build_problem": "io_cli.cli_main"}
# Study phases: spans of these names opened directly by tau_sweep.
STUDY_CHILDREN = {
    "study.run_parabolic": "study.baseline_s",
    "study.run_relaxed": "study.member_s",
    "study.diff_norms": "study.member_s",
    "study.front_tracker": "study.member_s",
}
# Exact counts; they must repeat between two runs of the same code and seed.
COUNTS = (
    "relaxed_model.sweeps",
    "relaxed_model.steps",
    "relaxed_model.sweeps_per_step_max",
    "char_solver.step_calls",
    "operators.calls",
    "operators.contract_gflop",
    "birth.calls",
    "io_cli.bytes_written",
)


def _distinct_contractions(terms) -> int:
    return len({(id(t.table), t.j) for t in terms})


class Tracer:
    """Inside its ``with`` block, epiwave's caller-bound names are wrapped."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index or -1]
        self.counts = Counter()
        self._open = []
        self._saved = []

    def __enter__(self):
        for mod_name, attr in WRAPPED:
            module = importlib.import_module(f"epiwave.{mod_name}")
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(original, f"{mod_name}.{attr}"))
        return self

    def __exit__(self, *exc):
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()

    def _wrap(self, fn, name):
        observe = {
            "relaxed_model._march": self._observe_march,
            "parabolic_model._march": self._observe_march,
            "relaxed_model.lambda_op": self._observe_contraction,
            "relaxed_model.delta_lambda_apply": self._observe_contraction,
            "relaxed_model.g_op": self._observe_contraction,
            "io_cli.write_slices": self._observe_written,
        }.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(self.spans)
            span = [name, 0.0, 0.0, self._open[-1] if self._open else -1]
            self.spans.append(span)
            self._open.append(index)
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                self._open.pop()
            if observe is not None:
                observe(name, args, result)
            return result

        return traced

    def _observe_march(self, name, args, run):
        per_step = [len(u) for u in run.picard_updates]
        self.counts["relaxed_model.sweeps"] += sum(per_step)
        self.counts["relaxed_model.steps"] += len(per_step)
        self.counts["relaxed_model.sweeps_per_step_max"] = max(
            self.counts["relaxed_model.sweeps_per_step_max"], max(per_step, default=0)
        )

    def _observe_contraction(self, name, args, result):
        """Computed, not measured: dense (a,x,b,z),(b,z) contractions.

        lambda_op and g_op contract each distinct (table, j) pair of the
        kernel terms once; delta_lambda_apply runs lambda_op twice plus
        lambda_one over the tilde terms.  Each costs 2 A^2 X^2 flops.
        """
        k, m = args[0], args[-1]
        n = _distinct_contractions(k.terms)
        if name == "relaxed_model.delta_lambda_apply":
            n = 2 * n + _distinct_contractions(k.tilde_terms)
        A, X = m.na + 1, m.nx
        self.counts["operators.contract_gflop"] += n * 2.0 * A * A * X * X / 1e9

    def _observe_written(self, name, args, paths):
        self.counts["io_cli.bytes_written"] += sum(os.path.getsize(p) for p in paths)

    def metrics(self) -> dict:
        """Per-layer metrics of the spans and counts recorded so far."""
        out = dict.fromkeys(
            [*SPAN_METRICS, *set(STUDY_CHILDREN.values()),
             "relaxed_model.solve_s", "relaxed_model.self_s"], 0.0)
        out.update(dict.fromkeys(COUNTS, 0))
        out.update(self.counts)
        by_span = {span: metric for metric, spans in SPAN_METRICS.items() for span in spans}
        calls = Counter()
        child_time = [0.0] * len(self.spans)
        for index, (name, start, end, parent) in enumerate(self.spans):
            dur = end - start
            calls[name] += 1
            if parent >= 0:
                child_time[parent] += dur
                if self.spans[parent][0] == "study.tau_sweep" and name in STUDY_CHILDREN:
                    out[STUDY_CHILDREN[name]] += dur
            if name in by_span and (name not in WITHIN or self._inside(index, WITHIN[name])):
                out[by_span[name]] += dur
        for index, (name, start, end, _) in enumerate(self.spans):
            if name in MARCH:
                out["relaxed_model.solve_s"] += end - start
                out["relaxed_model.self_s"] += end - start - child_time[index]
        out["char_solver.step_calls"] = calls["relaxed_model.step"]
        out["birth.calls"] = calls["relaxed_model.solve_birth_step"]
        out["operators.calls"] = sum(calls[name] for name in OPERATORS)
        return out

    def _inside(self, index: int, ancestor: str) -> bool:
        parent = self.spans[index][3]
        while parent >= 0:
            if self.spans[parent][0] == ancestor:
                return True
            parent = self.spans[parent][3]
        return False

    def span_table(self):
        """(names, spans) with each span as [name index, start, end, parent]."""
        names = sorted({s[0] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        return names, [[index[n], s, e, p] for n, s, e, p in self.spans]
