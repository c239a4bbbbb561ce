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


def is_real(value) -> bool:
    """True for a Python or numpy integer or float that is not a bool, so
    a setting can be range-checked without a raw TypeError."""
    return isinstance(value, (int, float, np.integer, np.floating)) and not isinstance(value, bool)


def build_mesh(t_max: float, a_max: float, na: int, nx: int) -> Mesh:
    """Build a mesh with dt = da = a_max/na and nt = t_max/dt.

    Raises InvalidSize, naming the argument, for an extent that is not a
    finite positive number, a count that is not an integer (no bool) of at
    least 2 (na) or 3 (nx), or more nodes on an axis than numpy can index,
    and NonCommensurate when t_max is not a multiple of da (relative slack 1e-9).
    """
    for name, v in (("t_max", t_max), ("a_max", a_max)):
        if not (is_real(v) and 0 < v < np.inf):
            raise InvalidSize(f"{name}={v!r} must be a finite positive number")
    most = np.iinfo(np.intp).max  # the most nodes numpy can index on an axis
    for name, v, least, top in (("na", na, 2, most - 1), ("nx", nx, 3, most)):
        if isinstance(v, bool) or not isinstance(v, (int, np.integer)) or not least <= v <= top:
            raise InvalidSize(f"{name}={v!r} must be an integer from {least} to {top}")
    da = a_max / na
    ratio = t_max / da if da > 0 else np.inf
    if not ratio < most:  # inf, or more time nodes than numpy can index
        raise InvalidSize(f"t_max={t_max!r} is more than {most - 1} steps of da={da!r}")
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
