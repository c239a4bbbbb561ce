"""Discrete (t, a, x) grid with characteristic-aligned time and age steps.

The mesh has one step, da, in both time and age, so the transport
operator d/dt + d/da becomes an exact shift by one node in age per time
step: each step carries a whole age slice forward at once.
"""

from dataclasses import astuple, dataclass
from functools import lru_cache

import numpy as np

from .errors import InvalidSize, NonCommensurate

#: Relative slack for the "t_max is a multiple of da" check.
_ROUND_TOL = 1e-9


@dataclass(frozen=True)
class Mesh:
    """Uniform grid on [0, t_max] x [0, a_max] x [0, 1].

    The time step is the age step da; dx = 1/(nx-1) on the unit space
    interval.  Instances are immutable, hashable and safe to share between
    workers; age_weights and space_weights are computed once per mesh.
    The hash is computed once per instance, since every per-mesh lookup
    takes it.
    """

    t_max: float
    a_max: float
    nt: int
    na: int
    nx: int
    da: float
    dx: float

    def __post_init__(self):
        object.__setattr__(self, "_hash", hash(astuple(self)))

    def __hash__(self) -> int:
        return self._hash

    @property
    def dt(self) -> float:
        """The time step, which is the age step."""
        return self.da

    def times(self) -> np.ndarray:
        return np.arange(self.nt + 1) * self.dt

    def ages(self) -> np.ndarray:
        return np.arange(self.na + 1) * self.da

    def xs(self) -> np.ndarray:
        return np.linspace(0.0, 1.0, self.nx)


def build_mesh(t_max: float, a_max: float, na: int, nx: int) -> Mesh:
    """Build a mesh with dt = da = a_max/na and nt = t_max/dt.

    Raises InvalidSize for counts below the minima and NonCommensurate
    when t_max is not an integer multiple of the age step (up to one
    rounding unit).
    """
    if t_max <= 0 or a_max <= 0:
        raise InvalidSize("t_max and a_max must be positive")
    if na < 2:
        raise InvalidSize(f"na={na}, need at least 2 age steps")
    if nx < 3:
        raise InvalidSize(f"nx={nx}, need at least 3 space nodes")
    da = a_max / na
    ratio = t_max / da
    nt = int(round(ratio))
    if nt < 1 or abs(ratio - nt) > _ROUND_TOL * max(1.0, abs(ratio)):
        raise NonCommensurate(
            f"t_max={t_max} is not an integer multiple of da={da}"
        )
    return Mesh(
        t_max=t_max,
        a_max=a_max,
        nt=nt,
        na=na,
        nx=nx,
        da=da,
        dx=1.0 / (nx - 1),
    )


@lru_cache(maxsize=64)
def age_weights(m: Mesh) -> np.ndarray:
    """Trapezoid quadrature weights over the age nodes, built once per
    mesh and returned read-only."""
    w = np.full(m.na + 1, m.da)
    w[0] = w[-1] = 0.5 * m.da
    w.flags.writeable = False
    return w


@lru_cache(maxsize=64)
def space_weights(m: Mesh) -> np.ndarray:
    """Trapezoid quadrature weights over the space nodes, built once per
    mesh and returned read-only."""
    w = np.full(m.nx, m.dx)
    w[0] = w[-1] = 0.5 * m.dx
    w.flags.writeable = False
    return w
