"""The array forms on the query and build paths against the scalar code they
replaced (query_reference.py), bit for bit: locate_many against locate, the
curve-complex length metric and delta', and the one-pass _attach against
one per-point attach per endpoint."""
import math
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qhkit import MembershipError, QhkitError, build_mesh, qhgraph
from qhkit.scenarios import BUILTIN_DOMAINS, default_mesh_params, make_region
from qhkit.spaces import COORD_TOL, locate_many

import query_reference as ref
from region_reference import locate
from test_complex_mesh import random_curve_region


def _region(name):
    if name.startswith("random-"):
        return random_curve_region(random.Random(int(name[7:])))
    return make_region(name)


_CURVE_REGIONS = st.sampled_from(["frame-omega", "frame-bottom"]
                                 + [f"random-{seed}" for seed in range(12)])
_OFFSET = st.floats(-2.0 * COORD_TOL, 2.0 * COORD_TOL)


@st.composite
def curve_points(draw, segments, count=8):
    """Points on the segments (their ends too), within about COORD_TOL of
    them, off them, and points within COORD_TOL of the point before."""
    points = []
    for _ in range(count):
        seg = draw(st.sampled_from(segments))
        kind = draw(st.sampled_from(["end", "on", "near", "off", "close"]))
        if kind == "close" and points:
            points.append(points[-1] + complex(draw(_OFFSET), draw(_OFFSET)) / 2.0)
            continue
        s = draw(st.sampled_from([0.0, seg.length]) if kind == "end"
                 else st.floats(0.0, seg.length))
        z = complex(seg.point_at(s))
        if kind == "near":
            z += complex(draw(_OFFSET), draw(_OFFSET))
        elif kind == "off":
            z += complex(draw(st.floats(-1.0, 1.0)), draw(st.floats(-1.0, 1.0)))
        points.append(z)
    return points


def _bits(values) -> list[int]:
    return np.asarray(values, dtype=np.float64).view(np.int64).tolist()


def _error(fn, *args) -> str:
    try:
        fn(*args)
    except QhkitError as exc:
        return f"{type(exc).__name__}: {exc}"
    return "no error"


@settings(max_examples=200, deadline=None, derandomize=True)
@given(_CURVE_REGIONS, st.data())
def test_locate_many_equals_locate(name, data):
    region = _region(name)
    space = region.space
    for segments, many in ((region.pieces, region.locate_many),
                           (space.segments, lambda Z: locate_many(space._a, space._b, Z))):
        Z = np.array(data.draw(curve_points(segments)))
        for z, i, s in zip(Z.tolist(), *(a.tolist() for a in many(Z))):
            loc = locate(segments, z)
            if loc is None:
                assert i == -1
            else:
                assert (i, _bits(s)) == (loc[0], _bits(loc[1]))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(_CURVE_REGIONS, st.data())
def test_length_distances_many_equals_the_scalar_length_distance(name, data):
    space = _region(name).space
    X = data.draw(curve_points(space.segments))
    Y = data.draw(curve_points(space.segments))
    on = [p for p in X + Y if locate(space.segments, p) is not None]
    if on:
        A = np.array(on)
        want = [[ref.length_distance(space, x, y) for y in on] for x in on]
        assert _bits(space.length_distances_many(A[:, None], A)) == _bits(want)
        assert _bits(space.length_distances_many(A, A[::-1])) == \
            _bits([ref.length_distance(space, x, y) for x, y in zip(on, on[::-1])])
        assert _bits([space.length_distance(x, y) for x, y in zip(on, on[::-1])]) == \
            _bits([ref.length_distance(space, x, y) for x, y in zip(on, on[::-1])])
    # The first point of X off the complex raises, else the first of Y, with
    # the scalar code's error.
    anchor = space.segments[0].a
    off_x, off_y = ([p for p in P if locate(space.segments, p) is None] for P in (X, Y))
    want = (_error(ref.length_distance, space, off_x[0], anchor) if off_x else
            _error(ref.length_distance, space, anchor, off_y[0]) if off_y else "no error")
    assert _error(space.length_distances_many, np.array(X), np.array(Y)) == want


@settings(max_examples=200, deadline=None, derandomize=True)
@given(_CURVE_REGIONS, st.data())
def test_length_boundary_distances_many_equals_the_scalar_delta_prime(name, data):
    region = _region(name)
    Z = data.draw(curve_points(region.pieces))
    members = [z for z in Z if region.contains(z)]
    want = [ref.length_boundary_distance(region, z) for z in members]
    assert _bits(region.length_boundary_distances_many(np.array(members, dtype=complex))) == \
        _bits(want)
    assert _bits([region.length_boundary_distance(z) for z in members]) == _bits(want)
    for z in Z:
        if not region.contains(z):
            assert _error(region.length_boundary_distance, z) == \
                _error(ref.length_boundary_distance, region, z)


# ---------------------------------------------------------------------------
# the one-pass attach
# ---------------------------------------------------------------------------

_MESHES = {name: (name, "euclidean") for name in BUILTIN_DOMAINS}
_MESHES.update({f"{name}-length": (name, "length") for name in ("frame-omega", "frame-bottom")})
# Points off each region, and (plane meshes) in it but not covered by the mesh.
_OFF = {"halfplane": 0.5 - 0.5j, "punctured": 0j, "disk": 1.5 + 0j,
        "frame-omega": 0.5 + 0.5j, "frame-bottom": 1j}
_UNCOVERED = {"halfplane": 3.0 + 1.0j, "punctured": 6.0 - 6.0j, "disk": 0.9999 + 0j}


@pytest.fixture(scope="module")
def meshes():
    built = {}
    for key, (name, metric) in _MESHES.items():
        p = default_mesh_params(name)
        built[key] = build_mesh(make_region(name), p["grading_factor"], p["bbox"],
                                metric=metric, max_depth=p["max_depth"])
    return built


def _points(mesh, seed: int) -> list[complex]:
    """Seeded region points, mesh nodes, points a sliver off a node and
    points on a segment to a neighbour."""
    rng = random.Random(seed)
    points = [mesh.region.sample_point(rng) for _ in range(150)]
    for _ in range(20):
        i = rng.randrange(mesh.node_count)
        a = complex(mesh.coords[i])
        b = complex(mesh.coords[int(rng.choice(mesh.neighbors(i)))])
        points += [a, a + 3e-11, 0.5 * a + 0.5 * b, 0.9 * a + 0.1 * b]
    return points


def _reference(mesh, z):
    try:
        return ref.attach(mesh, z)
    except QhkitError as exc:
        return f"{type(exc).__name__}: {exc}"


@pytest.mark.parametrize("key", sorted(_MESHES))
def test_one_pass_attach_equals_the_per_point_attach(meshes, key):
    mesh = meshes[key]
    points = _points(mesh, 11)
    want = [_reference(mesh, z) for z in points]
    good = [z for z, w in zip(points, want) if not isinstance(w, str)]
    assert len(good) >= 0.9 * len(points)
    att = qhgraph._attach(mesh, np.array(good))
    for e, w in enumerate(a for a in want if not isinstance(a, str)):
        nodes, weights = att.anchors(e)
        if w.node is None:
            assert att.node[e] == -1
            assert list(zip(nodes.tolist(), _bits(weights))) == \
                [(v, _bits(x)) for v, x in w.anchors]
        else:
            assert (att.node[e], nodes.tolist(), _bits(weights)) == (w.node, [w.node], [0])
        assert complex(att.point[e]) == w.point
        assert _bits([att.spacing[e], att.delta[e]]) == _bits([w.spacing, w.delta])
    assert att.starts[-1] == len(att.nodes) == len(att.weights)


@pytest.mark.parametrize("key", sorted(_MESHES))
def test_one_pass_attach_raises_for_the_first_failing_point(meshes, key):
    mesh = meshes[key]
    name = _MESHES[key][0]
    rng = random.Random(13)
    points = _points(mesh, 17)[:40]
    bad = [_OFF[name], -_OFF[name] + 7.0]
    if name in _UNCOVERED:
        bad.append(_UNCOVERED[name])
    for _ in range(12):
        batch = points + rng.sample(bad, rng.randint(1, len(bad)))
        rng.shuffle(batch)
        want = next(w for w in (_reference(mesh, z) for z in batch) if isinstance(w, str))
        assert _error(qhgraph._attach, mesh, np.array(batch)) == want


@pytest.mark.parametrize("key", ["halfplane", "punctured", "frame-omega"])
def test_reach_is_the_least_anchor_distance_of_each_endpoint(meshes, key):
    mesh = meshes[key]
    points = [z for z in _points(mesh, 29) if not isinstance(_reference(mesh, z), str)]
    att = qhgraph._attach(mesh, np.array(points))
    assert 0 < np.count_nonzero(att.node >= 0) < len(points)
    dist = np.random.default_rng(3).exponential(size=mesh.node_count + 1)
    dist[::7] = math.inf
    want = [min(dist[v] + w for v, w in zip(*att.anchors(e))) for e in range(len(points))]
    assert _bits(att.reach(dist)) == _bits(want)


def test_one_pass_attach_of_no_points(meshes):
    for mesh in meshes.values():
        att = qhgraph._attach(mesh, np.zeros(0, dtype=complex))
        assert len(att.node) == len(att.nodes) == 0 and att.starts.tolist() == [0]
        assert qhgraph.qh_distance_many(mesh, []) == []


def test_certified_query_segments_skip_the_segment_filter(meshes, monkeypatch):
    # A half-plane point's anchors lie a few spacings from it, well inside
    # its delta disc, so attaching tests no anchor segment; neither does a
    # near pair's straight segment.  A far pair's first search guesses its
    # limit from its straight segment, which no disc certifies: one call,
    # of one segment.
    mesh = meshes["halfplane"]
    region, calls = mesh.region, []
    filter_ = region.segments_inside_many

    def spy(A, B):
        calls.append(len(A))
        return filter_(A, B)

    monkeypatch.setattr(region, "segments_inside_many", spy)
    a, b = 0.1234 + 1.0123j, 0.1571 + 1.0321j
    att = qhgraph._attach(mesh, np.array([a, b]))
    assert (att.node < 0).all() and (np.diff(att.starts) > 1).all()
    assert calls == []
    near = qhgraph.qh_distance(mesh, a, b)
    assert near.node_path == (a, b) and calls == []  # the direct segment wins
    qhgraph.qh_distance(mesh, -1.234 + 0.51j, 1.37 + 2.9j)
    assert calls == [1]


def test_scalar_length_forms_raise_for_points_off_the_complex():
    region = make_region("frame-omega")
    with pytest.raises(MembershipError, match=r"^x \(0\.5\+0\.5j\) is not in the complex space"):
        region.space.length_distance(0.5 + 0.5j, 0j)
    with pytest.raises(MembershipError, match=r"^y \(9\+0j\) is not in the complex space"):
        region.space.length_distance(0j, 9 + 0j)
    with pytest.raises(MembershipError, match="is not in region 'frame-omega'"):
        region.length_boundary_distance(1 + 1j)
    assert math.isinf(make_region("halfplane").space.length_distance(1e308 + 1e308j, -1e308))
