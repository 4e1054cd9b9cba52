"""Shared fixtures for the test suite.

The synthetic twin and its registered sample sets are expensive to
build, so they live at session scope and are shared by the recovery and
acceptance tests.
"""

from __future__ import annotations

import pytest

from monocal import registration as reg
from monocal.geometry import build_slab_mesh
from monocal.twin import build_twin, write_twin

# Conductivity triple (mS/cm) used by the recovery studies. It sits off
# the ray the coupled update explores from the box midpoint, so the
# studies measure what the search can and cannot identify rather than
# replaying a fixed point.
STAR_SIGMA = (1.23, 0.25, 0.07)


@pytest.fixture(scope="session")
def unit_cube():
    return build_slab_mesh((1.0, 1.0, 1.0), 1.0)


@pytest.fixture(scope="session")
def small_slab():
    """Thin 4 x 2 x 1 element slab for cheap assembly tests."""
    return build_slab_mesh((0.2, 0.1, 0.05), 0.05)


@pytest.fixture(scope="session")
def twin_star():
    """Synthetic twin paced at the recovery-study conductivities."""
    return build_twin(sigma=STAR_SIGMA)


@pytest.fixture(scope="session")
def twin_star_files(twin_star, tmp_path_factory):
    out = tmp_path_factory.mktemp("twin_star")
    return write_twin(twin_star, out)


@pytest.fixture(scope="session")
def star_problem(twin_star, twin_star_files):
    """Registered calibration problem on the twin: (cal, val, plan)."""
    _, samples, _ = reg.register(twin_star.mesh,
                                 twin_star_files["measurements"],
                                 twin_star_files["references"])
    _, cal, val, plan = reg.split_samples(samples)
    return cal, val, plan
