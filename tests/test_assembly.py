"""Plane- and complex-mesh assembly against the symmetric-COO assembly it
replaced, the delta-disc certificate at every scale, and the traced memory
of a plane build."""
import cmath
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import assume, given, settings, strategies as st
from scipy.sparse.csgraph import connected_components

from qhkit import build_mesh, qhgraph
from qhkit.qhgraph import (_assemble_mesh, _disc_certified, _gap_slack, _segment_weights,
                           _unique_pairs)
from qhkit.scenarios import make_region
from qhkit.spaces import DiskRegion, HalfPlaneRegion, PolygonRegion, PuncturedPlaneRegion

from conftest import HP_BBOX, PP_BBOX
from test_qhgraph import _COMB, _HOLED, _L_SHAPE, _SlitHalfPlane, _slit_mesh


def coo_assembly(region, coords, delta, spacing, pu, pv):
    """The assembly that _assemble_mesh replaced: the segment filter on
    every pair and the weights over the whole pair list, a COO of
    [pu, pv]/[pv, pu], components of the full graph, then
    graph[keep][:, keep]."""
    ok = region.segments_inside_many(coords[pu], coords[pv])
    rejected = len(pu) - int(np.count_nonzero(ok))
    pu, pv = pu[ok], pv[ok]
    w = _segment_weights(coords[pu], delta[pu], coords[pv], delta[pv])
    n = len(coords)
    graph = sp.csr_matrix((np.concatenate([w, w]),
                           (np.concatenate([pu, pv]), np.concatenate([pv, pu]))),
                          shape=(n, n))
    ncomp, labels = connected_components(graph, directed=False)
    stats = {"nodes": n, "edges": len(pu), "components": int(ncomp), "dropped_nodes": 0,
             "segment_rejections": rejected}
    keep = np.ones(n, dtype=bool)
    if ncomp > 1:
        keep = labels == np.argmax(np.bincount(labels))
        graph = graph[keep][:, keep]
        coords, delta, spacing = coords[keep], delta[keep], spacing[keep]
        stats["dropped_nodes"] = n - len(coords)
        stats["nodes"] = len(coords)
        stats["edges"] = graph.nnz // 2
    return (coords, delta, spacing, graph.indptr, graph.indices, graph.data), stats, keep


def assert_assembly_matches(region, coords, delta, spacing, pu, pv):
    mesh, keep, ku, kv = _assemble_mesh(region, 0.1, "euclidean", coords, delta, spacing, pu, pv)
    ref, ref_stats, ref_keep = coo_assembly(region, coords, delta, spacing, pu, pv)
    g = mesh.graph
    for got, want in zip((mesh.coords, mesh.delta, mesh.spacing, g.indptr, g.indices, g.data),
                         ref):
        assert got.dtype == want.dtype
        assert got.tobytes() == want.tobytes()
    assert {k: mesh.stats[k] for k in ref_stats} == ref_stats
    assert keep.tobytes() == ref_keep.tobytes()
    upper = sp.triu(g, format="coo")  # the kept pairs are the graph's upper triangle
    assert (ku.tolist(), kv.tolist()) == (upper.row.tolist(), upper.col.tolist())
    return mesh


def _points(*zs):
    return np.array(zs, dtype=np.complex128)


def _sorted_pairs(pairs, n):
    u, v = np.array(pairs, dtype=np.int64).reshape(-1, 2).T
    return _unique_pairs(u, v, n)


def test_equal_largest_components_keep_the_lowest_numbered():
    # {0, 4, 5} and {1, 2, 6} tie at three nodes; 3 stands alone.
    coords = _points(1j, 2 + 1j, 3 + 1j, 4 + 1j, 1 + 2j, 1 + 3j, 2 + 2j)
    pu, pv = _sorted_pairs([(0, 4), (4, 5), (1, 2), (2, 6)], len(coords))
    mesh = assert_assembly_matches(HalfPlaneRegion(), coords, coords.imag, np.full(7, 0.5),
                                   pu, pv)
    assert mesh.coords.tolist() == [1j, 1 + 2j, 1 + 3j]
    assert (mesh.stats["components"], mesh.stats["dropped_nodes"]) == (3, 4)


@pytest.mark.parametrize("split", [False, True])
def test_zero_weight_pair_stays_an_entry(split):
    # Nodes 1 and 2 share a point, so their pair weighs exactly 0.0.
    coords = _points(1j, 1 + 1j, 1 + 1j, 2 + 1j, 5 + 1j)
    pairs = [(0, 1), (1, 2), (2, 3)] + ([] if split else [(3, 4)])
    pu, pv = _sorted_pairs(pairs, len(coords))
    mesh = assert_assembly_matches(HalfPlaneRegion(), coords, coords.imag, np.full(5, 0.5),
                                   pu, pv)
    assert np.count_nonzero(mesh.graph.data == 0.0) == 2


@pytest.mark.parametrize("name", ["walled", "comb"])
def test_plane_builds_match_the_coo_assembly(monkeypatch, name):
    calls = []

    def spy(*args):
        calls.append(args)
        return _assemble_mesh(*args)

    monkeypatch.setattr(qhgraph, "_assemble_mesh", spy)
    # "walled" builds the slit half-plane, whose wall is part of its boundary.
    mesh = _slit_mesh() if name == "walled" else build_mesh(_COMB, 0.3, max_depth=6)
    region, _, _, coords, delta, spacing, pu, pv = calls[0]
    assert pu.dtype == pv.dtype == np.int32
    assert_assembly_matches(region, coords, delta, spacing, pu, pv)
    assert mesh.stats["segment_rejections" if name == "walled" else "dropped_nodes"] > 0


_NODES = st.integers(2, 12)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_NODES.flatmap(lambda n: st.tuples(
    st.lists(st.tuples(st.integers(-3, 3), st.integers(1, 4)), min_size=n, max_size=n),
    st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=3 * n))))
def test_drawn_pair_sets_match_the_coo_assembly(case):
    # Points on a small grid, off the slit's wall, so some coincide (0.0
    # weights) and the wall rejects some pairs; loops and repeats are dropped
    # by _unique_pairs.
    points, pairs = case
    coords = np.array([complex(x, y) for x, y in points])
    pairs = [(a, b) for a, b in pairs if a != b]
    pu, pv = _sorted_pairs(pairs, len(coords))
    assert pu.dtype == pv.dtype == np.int32
    assert list(zip(pu.tolist(), pv.tolist())) == sorted({(min(p), max(p)) for p in pairs})
    region = _SlitHalfPlane()
    assert_assembly_matches(region, coords, region.boundary_gaps_many(coords),
                            np.full(len(coords), 0.5), pu, pv)


def _perimeter_point(polygon, u):
    """The point a fraction u of the way along the edges of polygon, taken
    one after another, each edge an equal share."""
    edges = [(p, q) for ring in (polygon.outer, *polygon.holes)
             for p, q in zip(ring, ring[1:] + ring[:1])]
    k, t = divmod(u * len(edges), 1.0)
    p, q = edges[int(k)]
    return p + t * (q - p)


# Each region at scale 2^e, the bbox of its unit-scale mesh, and a boundary
# point of the unit-scale region for each u in [0, 1).
_SCALED = {
    "halfplane": (lambda s: HalfPlaneRegion(), (-2.0, 2.0, 0.0, 4.0),
                  lambda u: complex(4.0 * u - 2.0, 0.0)),
    "punctured": (lambda s: PuncturedPlaneRegion(), PP_BBOX, lambda u: 0j),
    "disk": (lambda s: DiskRegion(0j, s), (-1.0, 1.0, -1.0, 1.0),
             lambda u: cmath.rect(1.0, 2.0 * math.pi * u)),
    "l-shape": (lambda s: PolygonRegion([z * s for z in _L_SHAPE.outer]), (0.0, 2.0, 0.0, 2.0),
                lambda u: _perimeter_point(_L_SHAPE, u)),
    "holed": (lambda s: PolygonRegion([z * s for z in _HOLED.outer],
                                      [[z * s for z in h] for h in _HOLED.holes]),
              (0.0, 4.0, 0.0, 4.0), lambda u: _perimeter_point(_HOLED, u)),
}


def _exact_sq_distance(z, p, q):
    """The squared distance from z to the segment [p, q], in fractions."""
    (x, y), (px, py), (qx, qy) = ((Fraction(w.real), Fraction(w.imag)) for w in (z, p, q))
    dx, dy = qx - px, qy - py
    t = min(max(((x - px) * dx + (y - py) * dy) / (dx * dx + dy * dy), 0), 1)
    return (x - px - t * dx) ** 2 + (y - py - t * dy) ** 2


def _exact_sq_modulus(z, w):
    """|z - w|^2 in fractions."""
    return (Fraction(z.real) - Fraction(w.real)) ** 2 + (Fraction(z.imag) - Fraction(w.imag)) ** 2


def _exactly_in_the_disc(name, region, z, w):
    """Whether |z - w| < delta_G(z) holds exactly, in fractions.  On a disk,
    delta is R - |z - c|: with l = |z - w|^2, q = |z - c|^2 and
    r = R^2 - l - q, |z - w| < R - |z - c| exactly when r > 0 and
    4lq < r^2."""
    length_sq = _exact_sq_modulus(z, w)
    if name.startswith("disk"):
        q = _exact_sq_modulus(z, region.center)
        r = Fraction(region.radius) ** 2 - length_sq - q
        return r > 0 and 4 * length_sq * q < r * r
    if name == "halfplane":
        return length_sq < Fraction(z.imag) ** 2
    if name == "punctured":
        return length_sq < _exact_sq_modulus(z, 0j)
    rings = (region.outer, *region.holes)
    return length_sq < min(_exact_sq_distance(z, p, q) for ring in rings
                           for p, q in zip(ring, ring[1:] + ring[:1]))


def _candidate_pairs(x0, y0, s0, d, i, j):
    """The pairs the builder may make from the depth-d leaves (i + m, j + n),
    |m|, |n| <= 6: to a same-depth leaf along a stencil offset, either way,
    and to the depth d - lift cell over a touching neighbour, lift 1 to 3;
    each end with its cell size."""
    near = np.arange(-6, 7)
    I, J = (np.repeat(i + near, 13), np.tile(j + near, 13))
    offsets = np.array(qhgraph._BASE_OFFSETS + qhgraph._RAY_OFFSETS)
    offsets = np.concatenate([offsets, -offsets])
    ends = [(0, I[:, None] + offsets[:, 0], J[:, None] + offsets[:, 1])]
    touch = np.array(qhgraph._TOUCH_DIRS)
    ends += [(lift, (I[:, None] + touch[:, 0]) >> lift, (J[:, None] + touch[:, 1]) >> lift)
             for lift in range(1, min(3, d - 1) + 1)]
    A, B, S, T = [], [], [], []
    for lift, bi, bj in ends:
        s, t = s0 / (1 << d), s0 / (1 << (d - lift))
        # qhgraph._refine's centres: x0 + i * s + s / 2.0, in the same order.
        a = (x0 + I * s + s / 2.0) + 1j * (y0 + J * s + s / 2.0)
        b = (x0 + bi * t + t / 2.0) + 1j * (y0 + bj * t + t / 2.0)
        A.append(np.broadcast_to(a[:, None], b.shape).ravel())
        B.append(b.ravel())
        S.append(np.full(b.size, s))
        T.append(np.full(b.size, t))
    return tuple(np.concatenate(X) for X in (A, B, S, T))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.sampled_from(sorted(_SCALED)), st.integers(-60, 60), st.integers(1, 24),
       st.floats(0.0, 1.0, exclude_max=True))
def test_disc_certificates_of_quadtree_pairs_hold_exactly_at_every_scale(name, e, d, u):
    # The candidate pairs the builder can make in the bbox of the region
    # scaled by 2^e from the depth-d leaves within 6 cells of the boundary
    # point u.  Leaves at any grading <= 0.5 are at least two spacings inside
    # G, so the pairs between such leaves span the certificate's edge,
    # |a - b| = max(delta(a), delta(b)); each one it certifies within 2^-10
    # of that edge is checked exactly.  The certificate calls no float
    # filter, so their absolute tolerances (the punctured 1e-12, the polygon
    # eps) do not enter.
    make, (x0, x1, y0, y1), boundary = _SCALED[name]
    scale = 2.0 ** e
    region = make(scale)
    x0, x1, y0, y1 = x0 * scale, x1 * scale, y0 * scale, y1 * scale
    s0 = max(x1 - x0, y1 - y0)
    p, h = boundary(u) * scale, s0 / (1 << d)
    A, B, S, T = _candidate_pairs(x0, y0, s0, d, int((p.real - x0) // h),
                                  int((p.imag - y0) // h))
    dA, dB = region.boundary_gaps_many(A), region.boundary_gaps_many(B)
    leaves = (region.contains_many(A) & region.contains_many(B) & (dA >= 2 * S)
              & (dB >= 2 * T))
    assume(leaves.any())
    A, B, dA, dB = A[leaves], B[leaves], dA[leaves], dB[leaves]
    L = np.abs(A - B)
    # The builder's slack covers all its nodes; these pairs give the least.
    slack = _gap_slack(region, np.append(A, B))
    near = _disc_certified(L, dA, dB, slack) & (L >= np.maximum(dA, dB) * (1.0 - 2.0 ** -10))
    for k in np.flatnonzero(near):
        end, other = (A[k], B[k]) if dA[k] >= dB[k] else (B[k], A[k])
        assert _exactly_in_the_disc(name, region, complex(end), complex(other))


def _assert_near_certified_pairs_hold(monkeypatch, name, region, bbox, max_depth):
    # Drawn pairs seldom come within a few percent of the certificate's edge,
    # while coarse builds have such pairs (232 of the disk's at grading 0.5
    # lie in [1, 1 + 2^-6) times the larger delta): every candidate pair
    # certified within 2^-10 of the edge is checked exactly.
    calls = []

    def spy(*args):
        calls.append(args)
        return _assemble_mesh(*args)

    monkeypatch.setattr(qhgraph, "_assemble_mesh", spy)
    for grading in (0.5, 0.4, 0.3):
        calls.clear()
        build_mesh(region, grading, bbox, max_depth=max_depth)
        _, _, _, coords, delta, _, pu, pv = calls[0]
        L, dA, dB = np.abs(coords[pu] - coords[pv]), delta[pu], delta[pv]
        near = (_disc_certified(L, dA, dB, _gap_slack(region, coords))
                & (L >= np.maximum(dA, dB) * (1.0 - 2.0 ** -10)))
        for k in np.flatnonzero(near):
            a, b = complex(coords[pu[k]]), complex(coords[pv[k]])
            end, other = (a, b) if dA[k] >= dB[k] else (b, a)
            assert _exactly_in_the_disc(name, region, end, other)


@pytest.mark.parametrize("e", [-60, 0, 60])
@pytest.mark.parametrize("name", sorted(_SCALED))
def test_disc_certificates_of_built_pairs_hold_exactly(monkeypatch, name, e):
    make, (x0, x1, y0, y1), _ = _SCALED[name]
    s = 2.0 ** e
    _assert_near_certified_pairs_hold(monkeypatch, name, make(s), (x0 * s, x1 * s, y0 * s, y1 * s),
                                      max_depth=8)


_SHIFT = 1000.1 + 999.7j


@pytest.mark.parametrize("name, region, bbox", [
    ("disk", DiskRegion(_SHIFT, 1.0), None),
    ("l-shape", PolygonRegion([z + _SHIFT for z in _L_SHAPE.outer]), None),
    ("holed", PolygonRegion([z + _SHIFT for z in _HOLED.outer],
                            [[z + _SHIFT for z in h] for h in _HOLED.holes]), None),
])
def test_disc_certificates_of_translated_pairs_hold_exactly(monkeypatch, name, region, bbox):
    # Far from the origin a disk's or polygon's delta rounds by an ulp of the
    # coordinates, about 1e-13 here, which is 1e-10 of the smallest deltas at
    # depth 12: the relative margin 2^-40 alone would not cover it.
    _assert_near_certified_pairs_hold(monkeypatch, name, region, bbox, max_depth=12)


def test_disc_certificate_leaves_pairs_within_the_gap_rounding():
    # a lies on the holed square's edge from 4j to 0 (Re a = 0), yet its
    # delta rounds to 2.2e-16, twice |a - b|; the slack, 8 ulps of 4,
    # leaves the pair to the filter.
    a = 1.1288078977264961j
    A, B = np.array([a]), np.array([a + 1.1e-16])
    dA, dB = _HOLED.boundary_gaps_many(A), _HOLED.boundary_gaps_many(B)
    assert _exact_sq_distance(a, 4j, 0j) == 0 and np.abs(A - B)[0] < dA[0]
    assert not _disc_certified(np.abs(A - B), dA, dB, _gap_slack(_HOLED, np.append(A, B)))[0]


@pytest.mark.parametrize("e", [-60, -40, 40])
@pytest.mark.parametrize("name, grading, max_depth", [("punctured", 0.2, 12),
                                                      ("l-shape", 0.2, 7)])
def test_certified_plane_meshes_scale_by_powers_of_two(name, grading, max_depth, e):
    # The certificate is scale-free, and it holds every pair of these two
    # meshes, so no absolute filter tolerance drops a pair at tiny scales: at
    # 2^-40 the punctured build at grading 0.1 kept 2,384 of 7,332 nodes while
    # every pair went through the filter.  Pairs left to the polygon filter
    # still fail its eps = 1e-12 there: the L-shape at 0.3/6 loses all 192.
    make, (x0, x1, y0, y1), _ = _SCALED[name]

    def build(s):
        return build_mesh(make(s), grading, (x0 * s, x1 * s, y0 * s, y1 * s),
                          max_depth=max_depth)

    unit, scaled, s = build(1.0), build(2.0 ** e), 2.0 ** e
    assert scaled.coords.tobytes() == (unit.coords * s).tobytes()
    assert scaled.delta.tobytes() == (unit.delta * s).tobytes()
    for got, want in zip((scaled._indptr, scaled._indices, scaled._data),
                         (unit._indptr, unit._indices, unit._data)):
        assert got.tobytes() == want.tobytes()
    assert scaled.stats["segment_tests"] == unit.stats["segment_tests"] == 0


@pytest.mark.parametrize("domain, bbox", [("punctured", PP_BBOX), ("halfplane", HP_BBOX)])
def test_plane_build_peak_stays_near_the_graph(domain, bbox):
    region = make_region(domain)
    tracemalloc.start()
    try:
        mesh = build_mesh(region, 0.1, bbox)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    final = mesh._data.nbytes + mesh._indices.nbytes + mesh._indptr.nbytes
    # _data and _indices live in mappings of their own, which tracemalloc
    # does not see; with them added, the traced peak bounds the true one.
    assert peak + mesh._data.nbytes + mesh._indices.nbytes <= 4.5 * final
