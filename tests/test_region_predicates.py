"""The numpy region predicates against the scalar ones they replaced
(tests/region_reference.py), bit for bit, on the L-shape, the comb, the
holed square, both frame regions and a bottom segment split by a boundary
point in its middle: points on a 1/8 grid through edges,
vertices and pieces, points within COORD_TOL of the boundary points, and
coordinates out to the ends of the float range."""
import math

import numpy as np
from hypothesis import given, settings, strategies as st

from qhkit import QhkitError
from qhkit.scenarios import frame_space, make_region
from qhkit.spaces import CurveRegion, _projections

import region_reference as ref
from test_qhgraph import _COMB, _HOLED, _L_SHAPE

POLYGONS = (_L_SHAPE, _COMB, _HOLED)
_SPLIT = CurveRegion(frame_space(), (make_region("frame-bottom").pieces[0],), (0j,), name="split")
CURVES = (make_region("frame-omega"), make_region("frame-bottom"), _SPLIT)
PIECES = CURVES[0].pieces  # the bottom piece is among them

_extreme = st.one_of(
    st.builds(lambda m, e: m * 10.0 ** e, st.floats(-1, 1), st.sampled_from([-300, 300])),
    st.sampled_from([0.0, -0.0, 1.7e308, -1.7e308, math.inf, -math.inf, math.nan]))
_grid = st.builds(lambda i, j: complex(i / 8, j / 8), st.integers(-20, 36), st.integers(-12, 36))
_along = st.builds(lambda seg, k: seg.point_at(seg.length * k / 8),
                   st.sampled_from(PIECES), st.integers(0, 8))
_near = st.builds(lambda bp, e: bp + e, st.sampled_from([-1 + 1j, 1 + 1j, -2 + 0j, 2 + 0j, 0j]),
                  st.sampled_from([5e-10, -5e-10, 2e-9, -2e-9, 5e-10j, -5e-10j, 1e-9 + 1e-9j]))
_points = st.lists(st.one_of(_grid, _along, _near, st.builds(complex, _extreme, _extreme),
                             st.builds(complex, _grid.map(lambda z: z.real), _extreme)),
                   min_size=1, max_size=12)


def _bits(values) -> bytes:
    a = np.asarray(values, dtype=np.float64)
    return np.where(np.isnan(a), np.nan, a).tobytes()  # one nan for all


def _all_pairs(points):
    return [(a, b) for a in points for b in points]


@settings(max_examples=200, deadline=None, derandomize=True)
@given(_points)
def test_polygon_predicates_equal_the_scalar_references(points):
    Z = np.array(points, dtype=np.complex128)
    pairs = _all_pairs(points)
    A, B = (np.array(col, dtype=np.complex128) for col in zip(*pairs))
    for region in POLYGONS:
        inside = [ref.polygon_contains(region, z) for z in points]
        assert region.contains_many(Z).tolist() == inside
        assert [region.contains(z) for z in points] == inside
        gaps = [ref.polygon_delta(region, z) for z in points]
        assert _bits(region.boundary_gaps_many(Z)) == _bits(gaps)
        assert _bits([region.boundary_gap(z) for z in points]) == _bits(gaps)
        members = [z for z, ok in zip(points, inside) if ok]
        assert _bits([region.boundary_distance(z) for z in members]) == \
            _bits([g for g, ok in zip(gaps, inside) if ok])
        inside = [ref.polygon_segment_inside(region, a, b) for a, b in pairs]
        assert region.segments_inside_many(A, B).tolist() == inside
        first = pairs[:len(points)]  # the one-element calls, from the first point
        assert [region.segment_inside(a, b) for a, b in first] == inside[:len(points)]


@settings(max_examples=200, deadline=None, derandomize=True)
@given(_points)
def test_curve_predicates_equal_the_scalar_references(points):
    Z = np.array(points, dtype=np.complex128)
    pairs = _all_pairs(points)
    A, B = (np.array(col, dtype=np.complex128) for col in zip(*pairs))
    for region in CURVES:
        inside = [ref.curve_contains(region, z) for z in points]
        assert region.contains_many(Z).tolist() == inside
        assert [region.contains(z) for z in points] == inside
        gaps = [ref.curve_boundary_gap(region, z) for z in points]
        assert _bits(region.boundary_gaps_many(Z)) == _bits(gaps)
        assert _bits([region.boundary_gap(z) for z in points]) == _bits(gaps)
        inside = [ref.curve_segment_inside(region, a, b) for a, b in pairs]
        assert region.segments_inside_many(A, B).tolist() == inside
        first = pairs[:len(points)]
        assert [region.segment_inside(a, b) for a, b in first] == inside[:len(points)]


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.lists(st.tuples(*[st.one_of(_grid, st.builds(complex, _extreme, _extreme))] * 3),
                min_size=1, max_size=12))
def test_array_projections_equal_project_segment(triples):
    # Degenerate segments (a == b) and the _TINY rescale of both forms.
    triples += [(z, a, a) for z, a, _ in triples]
    Z, A, B = (np.array(col, dtype=np.complex128) for col in zip(*triples))
    S, dist = _projections(Z, A, B)
    want = [ref.project_segment(z, a, b) for z, a, b in triples]
    assert _bits(S) == _bits([s for s, _ in want])
    assert _bits(dist) == _bits([d for _, d in want])


def test_frame_scalar_predicates_equal_the_reference_bit_for_bit():
    # The one-element calls of the frame regions, over a 1/8 grid, the
    # points within COORD_TOL of the boundary points and the piece ends,
    # against the scalar contains and boundary gap they replaced; delta_G
    # and its error off G as the scalar require_member gives them.
    points = [complex(i / 8, j / 8) for i in range(-20, 21) for j in range(-4, 21)]
    points += [bp + e for bp in (-1 + 1j, 1 + 1j, -2 + 0j, 2 + 0j, 0j)
               for e in (5e-10, -5e-10, 2e-9, 5e-10j, -2e-9j, 1e-9 + 1e-9j)]
    space = CURVES[0].space
    for region in CURVES[:2]:
        for z in points:
            inside = ref.curve_contains(region, z)
            assert region.contains(z) is inside
            assert _bits([region.boundary_gap(z)]) == _bits([ref.curve_boundary_gap(region, z)])
            got, want = (_outcome(region.boundary_distance, z),
                         _outcome(ref.boundary_distance, region, z))
            assert (_bits([got]) == _bits([want])) if inside else got == want
            assert space.contains(z) is (ref.locate(space.segments, z) is not None)


def _outcome(fn, *args):
    try:
        return fn(*args)
    except QhkitError as exc:
        return f"{type(exc).__name__}: {exc}"


def test_grids_reach_every_kind_of_answer():
    # Segments along pieces, across a boundary point, off the pieces and
    # across the hole.
    omega = CURVES[0]
    assert omega.segment_inside(-1.5 + 0j, 1.5 + 0j)
    assert _SPLIT.segment_inside(0.5 + 0j, 1.5 + 0j)
    assert not _SPLIT.segment_inside(-0.5 + 0j, 0.5 + 0j)
    assert not omega.segment_inside(-1.5 + 1j, 1.5 + 1j)
    assert _HOLED.segment_inside(1 + 1j, 3 + 1j)
    assert not _HOLED.segment_inside(1 + 2j, 3 + 2j)
    assert _L_SHAPE.segment_inside(0.5 + 0.5j, 1.5 + 0.5j)
    assert not _L_SHAPE.segment_inside(1.5 + 0.5j, 0.5 + 1.5j)
    assert not _COMB.segment_inside(2.8 + 1j, 3.1 + 1j)
