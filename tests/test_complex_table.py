"""Curve-complex length metric: pinned digests and a reference Dijkstra.

The digests were recorded with the per-call graph search that the endpoint
distance table replaced; the built-in frame has integer segment lengths, so
the table reproduces every value bit for bit.  Random complexes with
non-integer lengths are compared to a plain Dijkstra over the complex cut at
the two query points, to 1e-12 relative: the table sums arc + table entry +
arc, the search sums edge by edge, so the last bits may differ.
"""
import hashlib
import heapq
import math
import random

import numpy as np
import pytest

from qhkit import ConfigurationError, CurveComplexSpace, Segment, build_mesh
from qhkit.scenarios import default_mesh_params, frame_space, make_region
from qhkit.spaces import _coord_key, sample_pairs

from region_reference import locate

FRAME_PAIRS_SHA256 = "3c9521f18246494d46012975acdd8858c496afbae3be5d1591e47ebcb0fe1655"
LENGTH_MESH_SHA256 = {
    "frame-omega": "2e8608c14cdf506870a9ca695df7d72639b3189c507897c03e4c4f68158633bc",
    "frame-bottom": "b589a765e9fa234f5fcb08b2776d8b7e38f2ba646a81b8aa518c3dc34c6b64e7",
}


def _sha256(*arrays) -> str:
    h = hashlib.sha256()
    for a, dtype in arrays:
        h.update(np.ascontiguousarray(a, dtype=dtype).tobytes())
    return h.hexdigest()


def frame_pairs_digest() -> str:
    frame = frame_space()
    pairs = sample_pairs(frame.sample_points, random.Random(2024), 500)
    return _sha256(([frame.length_distance(x, y) for x, y in pairs], "<f8"))


def length_mesh_digest(name: str) -> str:
    mesh = build_mesh(make_region(name), metric="length", **default_mesh_params(name))
    g = mesh.graph
    return _sha256((mesh.coords, "<c16"), (mesh.delta, "<f8"), (mesh.spacing, "<f8"),
                   (g.indptr, "<i8"), (g.indices, "<i8"), (g.data, "<f8"))


def test_frame_length_distance_digest():
    assert frame_pairs_digest() == FRAME_PAIRS_SHA256


@pytest.mark.parametrize("name", sorted(LENGTH_MESH_SHA256))
def test_frame_length_mesh_digest(name):
    assert length_mesh_digest(name) == LENGTH_MESH_SHA256[name]


# ---------------------------------------------------------------------------
# Reference: Dijkstra over the complex cut at the two query points
# ---------------------------------------------------------------------------

def reference_distance(space: CurveComplexSpace, x: complex, y: complex) -> float:
    if abs(x - y) <= 1e-9:
        return 0.0
    cuts = [[0.0, seg.length] for seg in space.segments]
    for z in (x, y):
        i, s = locate(space.segments, z)
        cuts[i].append(s)
    nodes: dict = {}
    adj: dict = {}

    def node(p):
        return nodes.setdefault(_coord_key(p), len(nodes))

    for seg, params in zip(space.segments, cuts):
        params = sorted(set(params))
        for s0, s1 in zip(params, params[1:]):
            u, v = node(seg.point_at(s0)), node(seg.point_at(s1))
            adj.setdefault(u, []).append((v, s1 - s0))
            adj.setdefault(v, []).append((u, s1 - s0))
    src, dst = node(x), node(y)
    dist = {src: 0.0}
    heap = [(0.0, src)]
    while heap:
        d, u = heapq.heappop(heap)
        if u == dst:
            return d
        if d > dist[u]:
            continue
        for v, w in adj.get(u, ()):
            if d + w < dist.get(v, math.inf):
                dist[v] = d + w
                heapq.heappush(heap, (d + w, v))
    raise AssertionError("reference search found no path")


def random_complex(rng: random.Random) -> CurveComplexSpace:
    """A connected complex: a random tree over random points plus a few chords,
    with a three-segment junction at the first point."""
    n = rng.randint(4, 9)
    pts = [complex(rng.uniform(-3, 3), rng.uniform(-3, 3)) for _ in range(n)]
    edges = {(0, 1), (0, 2), (0, 3)}
    for k in range(4, n):
        edges.add((rng.randrange(k), k))
    for _ in range(rng.randint(0, 3)):
        a, b = rng.sample(range(n), 2)
        edges.add((min(a, b), max(a, b)))
    return CurveComplexSpace([Segment(pts[a], pts[b]) for a, b in sorted(edges)])


def query_points(space: CurveComplexSpace, rng: random.Random) -> list[tuple[complex, complex]]:
    segs = space.segments
    corners = [p for seg in segs for p in (seg.a, seg.b)]
    pairs = sample_pairs(space.sample_points, rng, 40)
    for _ in range(10):  # both points on one segment
        seg = rng.choice(segs)
        pairs.append((seg.point_at(rng.uniform(0, seg.length)),
                      seg.point_at(rng.uniform(0, seg.length))))
    for _ in range(10):  # corner endpoints
        pairs.append((rng.choice(corners), space.sample_point(rng)))
        pairs.append((rng.choice(corners), rng.choice(corners)))
    x = space.sample_point(rng)
    pairs.append((x, x))
    return pairs


@pytest.mark.parametrize("seed", range(12))
def test_length_distance_matches_reference_dijkstra(seed):
    rng = random.Random(seed)
    space = random_complex(rng)
    for x, y in query_points(space, rng):
        ref = reference_distance(space, x, y)
        got = space.length_distance(x, y)
        assert got == pytest.approx(ref, rel=1e-12, abs=1e-15), (x, y)
        assert space.length_distance(y, x) == pytest.approx(got, rel=1e-12, abs=1e-15)


def test_three_segment_junction():
    star = CurveComplexSpace([Segment(0j, 1 + 0j), Segment(0j, 2j), Segment(0j, -3 + 0j)])
    assert star.length_distance(1 + 0j, 2j) == 3.0
    assert star.length_distance(0.5 + 0j, -1 + 0j) == 1.5
    assert star.length_distance(1j, 1j) == 0.0
    assert star.length_distance(0.25 + 0j, 0.75 + 0j) == 0.5


def test_segment_end_inside_another_segment_is_no_junction():
    # The stub's end (0, 0) lies inside [-1, 1] x {0}, which shares no endpoint
    # with it, so the two pieces do not form a connected complex.
    with pytest.raises(ConfigurationError, match="do not form a connected set"):
        CurveComplexSpace([Segment(-1 + 0j, 1 + 0j), Segment(0j, 1j)])


def test_disconnected_complex_is_rejected():
    with pytest.raises(ConfigurationError, match="do not form a connected set"):
        CurveComplexSpace([Segment(0j, 1 + 0j), Segment(2 + 0j, 3 + 0j)])
