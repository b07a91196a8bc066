import math

import pytest

from dighom import CP, build_image, homotopy, lattice, standard_m2
from dighom.lattice import interval_image
from dighom.solver import SolverSession
from dighom.homotopy import DEFAULT_CAPS

RING8 = [(0, 0), (1, 0), (2, 0), (2, 1), (2, 2), (1, 2), (0, 2), (0, 1)]
SQUARE = [(0, 0), (1, 0), (1, 1), (0, 1)]


@pytest.fixture(scope="session")
def point():
    return build_image([(0,)], CP(1), name="point")


@pytest.fixture(scope="session")
def i1():
    return interval_image(0, 1, name="I1")


@pytest.fixture(scope="session")
def i2():
    return interval_image(0, 2, name="I2")


@pytest.fixture(scope="session")
def i4():
    return interval_image(0, 4, name="I4")


@pytest.fixture(scope="session")
def c4():
    return build_image(SQUARE, CP(1), name="C4")


@pytest.fixture(scope="session")
def k4_square():
    return build_image(SQUARE, CP(2), name="K4-square")


@pytest.fixture(scope="session")
def r8():
    return build_image(RING8, CP(1), name="R8")


@pytest.fixture(scope="session")
def family():
    return standard_m2()


@pytest.fixture(scope="session")
def session():
    # Shared across the whole run: the R8 self-map classification is the
    # single most expensive step and every solver test benefits from it.
    return SolverSession(DEFAULT_CAPS)


def rotation_of(ring_points):
    """The one-step cyclic rotation of an 8-ring, as a point mapping."""
    return {ring_points[i]: ring_points[(i + 1) % len(ring_points)]
            for i in range(len(ring_points))}


@pytest.fixture
def product_builds(monkeypatch):
    """Sizes of the products whose edges get built while the test runs."""
    sizes = []
    build = lattice._product_edges

    def counting_build(factors, m):
        sizes.append(math.prod(len(f) for f in factors))
        return build(factors, m)

    monkeypatch.setattr(lattice, "_product_edges", counting_build)
    return sizes


@pytest.fixture
def reference_search_forbidden(monkeypatch):
    """Makes the reference frame BFS raise while the test runs, so that a
    production path falling back to the test oracle fails; returns the
    real search, for a test that still wants to consult the oracle."""
    real = homotopy._reference_search

    def refuse(*args, **kwargs):
        raise AssertionError("production code ran the reference search")

    monkeypatch.setattr(homotopy, "_reference_search", refuse)
    return real
