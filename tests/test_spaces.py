import math
import random
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qhkit import (
    ConfigurationError,
    CurveComplexSpace,
    DiskRegion,
    MembershipError,
    PolygonRegion,
    ResolutionError,
    Segment,
    ambient_distance,
    boundary_distance,
    component_ball,
    length_distance,
    quasiconvexity_estimate,
)
from qhkit.scenarios import make_region
from qhkit.spaces import PLANE, _projections

import region_reference as rr

SQRT2 = math.sqrt(2.0)


# ---------------------------------------------------------------------------
# ambient and boundary distance
# ---------------------------------------------------------------------------

def test_ambient_distance_plane_euclidean():
    assert ambient_distance(PLANE, 1j, 2j) == 1.0
    assert ambient_distance(PLANE, 0.5 + 0.5j, 0.5 + 0.5j) == 0.0


def test_ambient_distance_on_frame(frame):
    assert ambient_distance(frame, 0j, -1 + 1j) == SQRT2
    assert ambient_distance(frame, 1 + 0j, 1 + 0j) == 0.0


def test_ambient_distance_rejects_off_complex_points(frame):
    with pytest.raises(MembershipError):
        ambient_distance(frame, 0.5 + 0.5j, 0j)


def test_boundary_distance_halfplane(halfplane):
    assert boundary_distance(halfplane, 3 + 0.7j) == 0.7
    with pytest.raises(MembershipError):
        boundary_distance(halfplane, 1 - 0.1j)


def test_boundary_distance_punctured(punctured):
    assert boundary_distance(punctured, 0.3 + 0.4j) == pytest.approx(0.5, abs=1e-15)
    with pytest.raises(MembershipError):
        boundary_distance(punctured, 0j)


def test_boundary_distance_frame_regions(bottom, omega):
    assert boundary_distance(bottom, 0j) == 2.0
    assert boundary_distance(omega, 0j) == SQRT2


def test_subregion_boundary_distance_bound(bottom, omega):
    # delta_P(z) <= c delta_Omega(z) for a subset P of Omega; here exactly 2 <= 5 sqrt2.
    z = 0j
    assert bottom.boundary_distance(z) <= 5.0 * omega.boundary_distance(z)


def test_disk_region_delta():
    disk = DiskRegion(1 + 1j, 2.0)
    assert boundary_distance(disk, 1 + 1j) == 2.0
    assert boundary_distance(disk, 2 + 1j) == 1.0


def test_polygon_region_delta_and_membership():
    square = PolygonRegion([0j, 2 + 0j, 2 + 2j, 2j])
    assert boundary_distance(square, 1 + 1j) == pytest.approx(1.0, abs=1e-12)
    assert not square.contains(3 + 1j)
    assert square.segment_inside(0.5 + 0.5j, 1.5 + 1.5j)


# ---------------------------------------------------------------------------
# length metric and quasiconvexity
# ---------------------------------------------------------------------------

def test_length_distance_plane_is_euclidean():
    assert length_distance(PLANE, 1j, 1 + 1j) == 1.0


def test_length_distance_frame_witness(frame):
    # Around either end of the frame: 2 + 1 + 2.
    assert length_distance(frame, 0j, 1j) == 5.0
    assert length_distance(frame, 1 + 0j, 1 + 0j) == 0.0


def test_length_distance_dominates_ambient(frame):
    rng = random.Random(2)
    for _ in range(50):
        x = frame.sample_point(rng)
        y = frame.sample_point(rng)
        d = length_distance(frame, x, y)
        assert d >= abs(x - y) - 1e-12
        assert d <= 5.0 * abs(x - y) + 1e-9


def test_quasiconvexity_estimate_plane_is_one():
    assert quasiconvexity_estimate(PLANE, 50, 1) == 1.0


def test_quasiconvexity_estimate_frame_approaches_five(frame):
    chat = quasiconvexity_estimate(frame, 600, 3)
    assert 4.0 <= chat <= 5.0 + 1e-9


def test_quasiconvexity_estimate_deterministic(frame):
    a = quasiconvexity_estimate(frame, 100, 9)
    b = quasiconvexity_estimate(frame, 100, 9)
    assert a == b


def test_quasiconvexity_estimate_needs_two_samples():
    with pytest.raises(ConfigurationError):
        quasiconvexity_estimate(PLANE, 1, 0)


def test_curve_complex_requires_connected_segments():
    with pytest.raises(ConfigurationError):
        CurveComplexSpace((Segment(0j, 1 + 0j), Segment(5j, 5 + 5j)))


# ---------------------------------------------------------------------------
# component balls
# ---------------------------------------------------------------------------

def test_component_ball_omega_stays_on_bottom(omega):
    ball = component_ball(omega, 0j, SQRT2, 0.05)
    assert any(abs(p) < 1e-12 for p in ball.nodes)  # center kept
    for p in ball.nodes:
        assert abs(p.imag) <= 1e-9
        assert abs(p.real) < SQRT2


def test_component_ball_bottom_covers_whole_segment(bottom, omega):
    big = component_ball(bottom, 0j, 2.0, 0.05)
    # All region mesh nodes lie strictly inside (-2, 2) x {0} and are reached.
    assert all(abs(p.real) < 2.0 and abs(p.imag) <= 1e-9 for p in big.nodes)
    small = component_ball(omega, 0j, SQRT2, 0.05)
    key = lambda p: (round(p.real, 9), round(p.imag, 9))
    assert {key(p) for p in small.nodes} < {key(p) for p in big.nodes}


def test_component_ball_halfplane_is_disk(halfplane):
    ball = component_ball(halfplane, 1j, 0.5, 0.05)
    assert all(abs(p - 1j) < 0.5 for p in ball.nodes)
    # Convex case: every grid point of the disk is reached by the flood fill.
    expect = 0
    n = int(math.ceil(0.5 / 0.05)) + 1
    for i in range(-n, n + 1):
        for j in range(-n, n + 1):
            if math.hypot(i * 0.05, j * 0.05) < 0.5:
                expect += 1
    assert len(ball.nodes) == expect


def test_component_ball_frontier_ring_distance(halfplane):
    # With r <= delta(z) the set boundary sits at distance r up to a mesh cell.
    z, r, h = 0.5 + 1j, 0.8, 0.04
    ball = component_ball(halfplane, z, r, h)
    gap = min(abs(p - z) for p in ball.frontier)
    assert r - 1.5 * h <= gap <= r + 1.5 * h


def test_component_ball_errors(halfplane):
    with pytest.raises(ResolutionError):
        component_ball(halfplane, 1j, 0.01, 0.5)
    with pytest.raises(MembershipError):
        component_ball(halfplane, -1j, 0.5, 0.05)
    with pytest.raises(ConfigurationError):
        component_ball(halfplane, 1j, -1.0, 0.05)


def test_metric_ball_within_enlarged_component_ball(halfplane):
    # Points of B(z, r) stay inside the component ball of radius (1+c) r.
    z, c = 1j, 1.0
    r = 0.9 * halfplane.boundary_distance(z) / (1.0 + c)
    small = component_ball(halfplane, z, r, 0.05)
    big = component_ball(halfplane, z, (1.0 + c) * r, 0.05)
    key = lambda p: (round(p.real, 9), round(p.imag, 9))
    assert {key(p) for p in small.nodes} <= {key(p) for p in big.nodes}


def test_small_balls_stay_inside_region(frame, omega):
    # r <= 2 delta/(2+c) keeps the whole ambient ball inside the region.
    rng = random.Random(5)
    c = 5.0
    for _ in range(25):
        z = omega.sample_point(rng)
        r = 0.99 * 2.0 * omega.boundary_distance(z) / (2.0 + c)
        for _ in range(40):
            p = frame.sample_point(rng)
            if abs(p - z) < r:
                assert omega.contains(p)


# ---------------------------------------------------------------------------
# Lipschitz property of the boundary distance
# ---------------------------------------------------------------------------

@settings(max_examples=80, deadline=None, derandomize=True)
@given(st.floats(-2, 2), st.floats(0.05, 3), st.floats(-2, 2), st.floats(0.05, 3))
def test_delta_one_lipschitz_halfplane(x1, y1, x2, y2):
    from qhkit.spaces import HalfPlaneRegion
    region = HalfPlaneRegion()
    p, q = complex(x1, y1), complex(x2, y2)
    assert abs(region.boundary_distance(p) - region.boundary_distance(q)) <= abs(p - q) + 1e-12


@settings(max_examples=80, deadline=None, derandomize=True)
@given(st.floats(0, 2 * math.pi), st.floats(0.1, 4), st.floats(0, 2 * math.pi),
       st.floats(0.1, 4))
def test_delta_one_lipschitz_punctured(t1, r1, t2, r2):
    from qhkit.spaces import PuncturedPlaneRegion
    region = PuncturedPlaneRegion()
    p = r1 * complex(math.cos(t1), math.sin(t1))
    q = r2 * complex(math.cos(t2), math.sin(t2))
    assert abs(region.boundary_distance(p) - region.boundary_distance(q)) <= abs(p - q) + 1e-12


def test_delta_one_lipschitz_omega(omega):
    rng = random.Random(17)
    for _ in range(200):
        p = omega.sample_point(rng)
        q = omega.sample_point(rng)
        dp = omega.boundary_distance(p)
        dq = omega.boundary_distance(q)
        assert abs(dp - dq) <= abs(p - q) + 1e-12


# ---------------------------------------------------------------------------
# array forms of the predicates
# ---------------------------------------------------------------------------

# The analytic regions, against the scalar contains and boundary_gap that
# they wrote out by hand before deriving them from the array forms; the
# polygon and curve regions are checked against the scalar code they replaced
# in test_region_predicates.py.
ARRAY_REGIONS = (make_region("halfplane"), make_region("punctured"), make_region("disk"),
                 DiskRegion(0.5 - 2j, 3.0))

_coordinates = st.one_of(
    st.builds(lambda m, e: m * 10.0 ** e, st.floats(-1, 1), st.integers(-300, 300)),
    st.floats(-3, 3),
    st.sampled_from([0.0, -0.0, 1.0, math.inf, -math.inf, math.nan, 1.7e308]))


def _bits(values) -> bytes:
    a = np.asarray(values, dtype=np.float64)
    return np.where(np.isnan(a), np.nan, a).tobytes()  # one nan for all


@settings(max_examples=150, deadline=None, derandomize=True)
@given(st.lists(st.builds(complex, _coordinates, _coordinates), min_size=1, max_size=16))
def test_array_predicates_equal_the_scalar_ones_bit_for_bit(points):
    Z = np.array(points, dtype=np.complex128)
    for region in ARRAY_REGIONS:
        inside = region.contains_many(Z)
        assert inside.tolist() == [rr.contains(region, z) for z in points]
        assert inside.tolist() == [region.contains(z) for z in points]
        gaps = region.boundary_gaps_many(Z)
        assert _bits(gaps) == _bits([rr.boundary_gap(region, z) for z in points])
        assert _bits(gaps) == _bits([region.boundary_gap(z) for z in points])
        # The mesh builder takes a member's delta from boundary_gaps_many.
        members = [z for z in points if rr.contains(region, z)]
        assert _bits(gaps[inside]) == _bits([region.boundary_distance(z) for z in members])


def test_disk_segment_filter_agrees_with_contains_at_the_rim():
    disk = DiskRegion(0.3 + 0.1j, 1.0)
    rng = np.random.default_rng(5)
    r = 1.0 + rng.uniform(-1e-15, 1e-15, 20_000)
    Z = disk.center + r * np.exp(1j * rng.uniform(0.0, 2.0 * math.pi, len(r)))
    inside = [disk.contains(z) for z in Z.tolist()]
    assert 0 < sum(inside) < len(inside)
    assert disk.contains_many(Z).tolist() == inside
    assert disk.segments_inside_many(Z, np.full(len(Z), disk.center)).tolist() == inside


def _project(z: complex, a: complex, b: complex) -> tuple[float, float]:
    """_projections of one point, as floats; the scalar reference gives the same."""
    S, D = _projections(np.array([z]), np.array([a]), np.array([b]))
    got = (float(S[0]), float(D[0]))
    assert got == rr.project_segment(z, a, b)
    return got


def test_segments_longer_than_the_root_of_the_float_range():
    # The squared length overflows; so does b - a in the second segment.
    assert _project(0j, 1e200 + 1j, -1e200 + 1j) == (1e200, 1.0)
    assert _project(0j, -1.7e308 + 1j, 1.7e308 + 1j) == (1.7e308, 1.0)
    assert _project(2e200 + 3j, 1e200 + 1j, -1e200 + 1j) == (0.0, 1e200)
    punctured = make_region("punctured")
    A = np.array([1e200 + 1j, 1e200 + 0j, -1.7e308 + 1j, 1e200 + 1e200j, 1 + 1j])
    B = np.array([-1e200 + 1j, -1e200 + 0j, 1.7e308 + 1j, -1e200 - 1e200j, 2 + 1j])
    expected = [True, False, True, False, True]
    assert [punctured.segment_inside(a, b) for a, b in zip(A.tolist(), B.tolist())] == expected
    assert punctured.segments_inside_many(A, B).tolist() == expected  # no RuntimeWarning


def test_dot_products_beyond_the_float_range():
    # |b - a|^2 is finite, but (z - a).(b - a) reads inf - inf: a is
    # perpendicular to b - a, so 0 projects onto a.
    a = 1e160 + 1e160j
    b = a + (1e150 - 1e150j)
    punctured = make_region("punctured")
    A = np.array([a, b, -a, -1 - 1j])
    B = np.array([b, a, -b, 1 + 1j])
    expected = [True, True, True, False]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert _project(0j, a, b) == (0.0, abs(a))
        assert [punctured.segment_inside(p, q) for p, q in zip(A.tolist(), B.tolist())] == expected
        assert punctured.segments_inside_many(A, B).tolist() == expected
