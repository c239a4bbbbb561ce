"""Run one workload of the epiwave benchmark and print its metrics.

    python3 perfbench/run.py --workload desk-sweep --seed 1 --seconds 18 --trace 0

Run from the root of a checkout; epiwave is imported from its ``src``.
With ``--trace 0`` the workload's work is repeated, closed loop in this
one process, for about ``--seconds`` seconds and the end-to-end metrics
are medians over those repetitions.  With ``--trace 1`` set-up plus work
run once untraced to warm up, then in traced and untraced pairs for about
``--seconds`` seconds (at least two pairs); the per-layer metrics come from
the traced runs and their spans are written to ``.bench_out``.  Every
answer is checked; the last line of standard output is one JSON object,
and the exit code is 1 if any check failed.
"""

import argparse
import contextlib
import ctypes
import glob
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_CHILDREN = 5
MIN_REPETITIONS = 2


def child(*argv: str) -> str:
    """Run a child.py step in a fresh interpreter; return its stdout."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "child.py"), *argv],
        capture_output=True, text=True, timeout=150,
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"child step {argv[0]} failed with exit code {proc.returncode}")
    return proc.stdout


def cpu_seconds() -> float:
    """User + system CPU of this process and of its waited-for children."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def openblas_threads():
    import numpy

    libs = glob.glob(str(Path(numpy.__file__).parent.parent / "numpy.libs" / "libscipy_openblas*.so"))
    for lib in libs:
        get = getattr(ctypes.CDLL(lib), "scipy_openblas_get_num_threads64_", None)
        if get is not None:
            return get()
    return None


def environment(loadavg, epiwave_threads) -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": openblas_threads(),
        "thread_env": {k: os.environ.get(k) for k in
                       ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "EPIWAVE_THREADS": epiwave_threads,
        "loadavg_start": list(loadavg),
    }


class Tally:
    """Attempted and failed operations, with the reason for each failure."""

    def __init__(self, workload, expected):
        self.workload = workload
        self.expected = expected
        self.attempted = 0
        self.failed = 0
        self.first_digest = None

    def fail(self, why: str) -> None:
        self.failed += 1
        print(f"FAILED {self.workload.name}: {why}", file=sys.stderr)

    def record(self, answer, error) -> None:
        """Count one operation and check its answer, or the error it raised."""
        from workloads import CheckFailed

        self.attempted += 1
        if error is not None:
            return self.fail(f"{type(error).__name__}: {error}")
        try:
            self.workload.check(answer, self.expected)
        except CheckFailed as exc:
            return self.fail(str(exc))
        digest = self.workload.digest(answer)
        if self.first_digest is None:
            self.first_digest = digest
        elif digest != self.first_digest:
            self.fail("answer is not bit-identical to the first run's")


def attempt(workload, problem):
    """Do the work once: (answer, error, wall seconds, cpu seconds)."""
    from epiwave.errors import EpiwaveError

    answer = error = None
    c0, t0 = cpu_seconds(), perf_counter()
    try:
        answer = workload.work(problem)
    except EpiwaveError as exc:
        error = exc
    wall, cpu = perf_counter() - t0, cpu_seconds() - c0
    return answer, error, wall, cpu


def measure(workload, inputs, seconds, setup):
    """Closed loop: repeat the work until about `seconds` have passed.

    The set-up children run between repetitions, spread over the run, so
    that set-up and work are timed under the same machine conditions.
    `setup` runs one child and returns its set-up times.
    """
    problem = workload.setup(inputs)
    tally = Tally(workload, workload.expect(inputs, problem))
    walls, cpus, setup_times = [], [], []
    children = 0
    start = perf_counter()
    while True:
        due = 1 + int(SETUP_CHILDREN * (perf_counter() - start) / seconds)
        while children < min(due, SETUP_CHILDREN):
            setup_times += setup()
            children += 1
        answer, error, wall, cpu = attempt(workload, problem)
        walls.append(wall)
        cpus.append(cpu)
        tally.record(answer, error)
        # Start another repetition only if it should end by about `seconds`.
        late = perf_counter() - start + statistics.median(walls) / 2 >= seconds
        if late and len(walls) >= MIN_REPETITIONS:
            break
    for _ in range(children, SETUP_CHILDREN):
        setup_times += setup()
    metrics = {
        "wall_s": statistics.median(walls),
        "setup_s": statistics.median(setup_times),
        "cpu_s": statistics.median(cpus),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "ok_ratio": (tally.attempted - tally.failed) / tally.attempted,
    }
    notes = {
        "repetitions": len(walls),
        "wall_s_min": min(walls),
        "wall_s_max": max(walls),
        "setup_s_all": setup_times,
        "fail_ratio": tally.failed / tally.attempted,
    }
    return tally, metrics, notes


def trace(workload, inputs, seconds, spans_path):
    """Set-up plus work: one untraced warm-up, then traced and untraced pairs.

    Lazy imports and first-call costs land in the warm-up.  The pairs
    repeat until about `seconds` have passed, at least twice, and the
    overhead is the median traced minus the median untraced wall time.
    """
    from tracing import COUNTS, Tracer

    tally = Tally(workload, workload.expect(inputs, workload.setup(inputs)))
    walls = {False: [], True: []}
    tracers = []

    def once(traced: bool) -> float:
        tracer = Tracer() if traced else None
        with tracer or contextlib.nullcontext():
            problem = workload.setup(inputs)
            answer, error, wall, _ = attempt(workload, problem)
        tally.record(answer, error)
        if tracer is not None:
            tracers.append(tracer)
        return wall

    once(False)  # warm-up
    start = perf_counter()
    while True:
        for traced in (True, False):
            walls[traced].append(once(traced))
        pairs = len(walls[True])
        # Start another pair only if it should end by about `seconds`.
        late = (perf_counter() - start) * (pairs + 0.5) / pairs >= seconds
        if late and pairs >= MIN_REPETITIONS:
            break
    layers = [t.metrics() for t in tracers]
    for run in layers[1:]:
        for name in COUNTS:
            if run[name] != layers[0][name]:
                tally.fail(f"count {name} differs between two runs: "
                           f"{layers[0][name]!r} vs {run[name]!r}")
    # Counts are equal in every traced run (checked above); times are medians.
    metrics = {
        name: layers[0][name] if name in COUNTS else statistics.median(run[name] for run in layers)
        for name in layers[0]
    }
    metrics["trace.overhead_s"] = statistics.median(walls[True]) - statistics.median(walls[False])
    with open(spans_path, "w") as fh:
        json.dump([{"names": n, "spans": s} for n, s in (t.span_table() for t in tracers)], fh)
    notes = {"untraced_wall_s": walls[False], "traced_wall_s": walls[True], "spans": str(spans_path)}
    return tally, metrics, notes


def main(argv=None) -> int:
    loadavg = os.getloadavg()
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in bench["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=names)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    # The sweep runs as shipped: sequential, with EPIWAVE_THREADS unset.
    epiwave_threads = os.environ.pop("EPIWAVE_THREADS", None)
    work_dir = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    out_dir = ROOT / ".bench_out"
    try:
        work_dir.mkdir(parents=True)
        out_dir.mkdir(exist_ok=True)
        child("inputs", args.workload, str(args.seed), str(work_dir))

        sys.path.insert(0, str(ROOT / "src"))
        from workloads import WORKLOADS

        workload = WORKLOADS[args.workload]
        env = environment(loadavg, epiwave_threads)
        print(json.dumps({"env": env}), flush=True)
        if args.trace:
            spans = out_dir / f"spans-{args.workload}-seed{args.seed}.json"
            tally, values, notes = trace(workload, work_dir, args.seconds, spans)
            declared = bench["per_layer"]
        else:
            tally, values, notes = measure(
                workload, work_dir, args.seconds,
                lambda: [float(t) for t in child("setup", args.workload, str(work_dir)).split()])
            declared = bench["end_to_end"]
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }
    with open(out_dir / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json", "w") as fh:
        json.dump({"env": env, "notes": notes, **result}, fh, indent=1)
    for name, m in metrics.items():
        print(f"{args.workload} {name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps(notes))
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
