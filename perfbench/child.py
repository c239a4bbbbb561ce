"""Steps of a benchmark run that need a fresh process.

    python3 perfbench/child.py inputs <workload> <seed> <dir>
    python3 perfbench/child.py setup <workload> <dir>

``inputs`` writes the workload's seeded input files into <dir>, so that
the memory it takes does not count in the run's peak.  ``setup`` prints,
one a line, the seconds from ``import epiwave`` to a built problem, for
SAMPLES set-ups.  The third-party libraries epiwave imports are loaded
first, and each set-up runs in a fork of that process: the figure is
epiwave's own import plus its set-up, not numpy's and scipy's, and one
interpreter start gives several samples.
"""

import os
import sys
import traceback
from pathlib import Path
from time import perf_counter

import numpy  # noqa: F401
import scipy.integrate  # noqa: F401
import scipy.linalg  # noqa: F401

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

SAMPLES = 4


def timed_setup(name: str, inputs: Path) -> float:
    """Import epiwave and build the problem in a fork; return the seconds."""
    read, write = os.pipe()
    pid = os.fork()
    if pid == 0:
        code = 1
        try:
            os.close(read)
            start = perf_counter()
            import epiwave  # noqa: F401  (the import is part of the timed set-up)
            from workloads import WORKLOADS

            WORKLOADS[name].setup(inputs)
            os.write(write, repr(perf_counter() - start).encode())
            code = 0
        except BaseException:
            traceback.print_exc()
        os._exit(code)  # never return into the parent's code
    os.close(write)
    with os.fdopen(read) as fh:
        out = fh.read()
    _, status = os.waitpid(pid, 0)
    if status != 0:
        raise SystemExit(f"set-up of {name} failed with wait status {status}")
    return float(out)


def main(argv) -> None:
    step, name = argv[0], argv[1]
    if step == "inputs":
        from workloads import WORKLOADS

        WORKLOADS[name].write_inputs(int(argv[2]), Path(argv[3]))
    elif step == "setup":
        for _ in range(SAMPLES):
            print(repr(timed_setup(name, Path(argv[2]))))
    else:
        raise SystemExit(f"unknown step {step!r}")


if __name__ == "__main__":
    main(sys.argv[1:])
