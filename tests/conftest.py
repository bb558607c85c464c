import pytest

from qhkit import build_mesh
from qhkit.scenarios import (
    default_mesh_params,
    frame_region_bottom,
    frame_region_omega,
    frame_space,
    make_region,
)

HP_BBOX = (-2.0, 2.0, 0.2, 4.2)
PP_BBOX = (-5.5, 5.5, -5.5, 5.5)


@pytest.fixture(scope="session")
def halfplane():
    return make_region("halfplane")


@pytest.fixture(scope="session")
def punctured():
    return make_region("punctured")


@pytest.fixture(scope="session")
def disk():
    return make_region("disk")


@pytest.fixture(scope="session")
def frame():
    return frame_space()


@pytest.fixture(scope="session")
def omega(frame):
    return frame_region_omega(frame)


@pytest.fixture(scope="session")
def bottom(frame):
    return frame_region_bottom(frame)


@pytest.fixture(scope="session")
def hp_mesh_01(halfplane):
    return build_mesh(halfplane, 0.1, HP_BBOX)


@pytest.fixture(scope="session")
def hp_mesh_005(halfplane):
    return build_mesh(halfplane, 0.05, HP_BBOX)


@pytest.fixture(scope="session")
def pp_mesh_005(punctured):
    return build_mesh(punctured, 0.05, PP_BBOX)


@pytest.fixture(scope="session")
def omega_mesh(omega):
    return build_mesh(omega, 0.05)


@pytest.fixture(scope="session")
def omega_mesh_length(omega):
    return build_mesh(omega, 0.05, metric="length")


@pytest.fixture(scope="session")
def bottom_mesh(bottom):
    return build_mesh(bottom, 0.05)


@pytest.fixture(scope="session")
def disk_mesh(disk):
    p = default_mesh_params("disk")
    return build_mesh(disk, p["grading_factor"], p["bbox"], max_depth=p["max_depth"])
