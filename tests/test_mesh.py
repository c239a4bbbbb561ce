import dataclasses

import numpy as np
import pytest

from epiwave.errors import InvalidSize, NonCommensurate
from epiwave.mesh import age_weights, build_mesh, space_weights


def test_build_mesh_benchmark_grid():
    m = build_mesh(5.0, 1.0, 20, 11)
    assert m.dt == 0.05 and m.da == 0.05
    assert m.nt == 100 and m.nx == 11
    assert m.dx == 0.1


def test_build_mesh_quarter_steps():
    m = build_mesh(1.0, 1.0, 4, 3)
    assert m.dt == 0.25 and m.nt == 4 and m.dx == 0.5


def test_build_mesh_non_commensurate():
    with pytest.raises(NonCommensurate):
        build_mesh(0.9, 1.0, 3, 3)


@pytest.mark.parametrize(
    "args",
    [(1.0, 1.0, 1, 5), (1.0, 1.0, 4, 2), (-1.0, 1.0, 4, 5), (1.0, 0.0, 4, 5)],
)
def test_build_mesh_invalid_sizes(args):
    with pytest.raises(InvalidSize):
        build_mesh(*args)


@pytest.mark.parametrize(
    "args, name",
    [
        ((np.nan, 1, 20, 21), "t_max"),
        ((np.inf, 1, 20, 21), "t_max"),
        ((1, np.inf, 20, 21), "a_max"),
        ((1, np.nan, 20, 21), "a_max"),
        ((True, 1, 20, 21), "t_max"),
        (("1", 1, 20, 21), "t_max"),
        ((1, 1, "20", 21), "na"),
        ((1, 1, 20.0, 21), "na"),
        ((1, 1, 20, 21.0), "nx"),
        ((1, 1, 20, True), "nx"),
        ((1, 1, 20, None), "nx"),
    ],
)
def test_build_mesh_malformed_arguments_name_themselves(args, name):
    with pytest.raises(InvalidSize, match=f"^{name}="):
        build_mesh(*args)


def test_time_step_is_the_age_step():
    # one stored step: a mesh with dt != da cannot be built
    m = build_mesh(1.0, 1.0, 4, 3)
    assert m.dt == m.da
    with pytest.raises(TypeError):
        dataclasses.replace(m, dt=0.5)
    with pytest.raises(AttributeError):
        m.dt = 0.5


def test_quadrature_weights_sum_to_extent():
    m = build_mesh(2.0, 1.5, 6, 7)
    assert np.isclose(age_weights(m).sum(), 1.5)
    assert np.isclose(space_weights(m).sum(), 1.0)


def test_quadrature_weights_are_read_only_trapezoid_weights():
    m = build_mesh(2.0, 1.5, 6, 7)
    wa, wx = np.full(m.na + 1, m.da), np.full(m.nx, m.dx)
    wa[0] = wa[-1] = 0.5 * m.da
    wx[0] = wx[-1] = 0.5 * m.dx
    for got, want in ((age_weights(m), wa), (space_weights(m), wx)):
        assert got.tobytes() == want.tobytes()
        with pytest.raises(ValueError):
            got[1] = 0.0
    # one array per mesh: an equal mesh built again shares it
    assert age_weights(build_mesh(2.0, 1.5, 6, 7)) is age_weights(m)


def test_mesh_hash_is_the_hash_of_its_fields():
    m = build_mesh(2.0, 1.5, 6, 7)
    assert hash(m) == hash(dataclasses.astuple(m)) == hash(build_mesh(2.0, 1.5, 6, 7))
    other = dataclasses.replace(m, nx=9)
    assert hash(other) == hash(dataclasses.astuple(other)) != hash(m)
