import hashlib
import math
import os
import random
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy.sparse.csgraph import dijkstra

from qhkit import (
    AnalyticBackend,
    ConfigurationError,
    ConnectivityError,
    DiskRegion,
    HalfPlaneRegion,
    MembershipError,
    MeshBackend,
    PolygonRegion,
    Region,
    ResolutionError,
    build_mesh,
    lemma34_check,
    lemma36_check,
    path_qh_length,
    qh_distance,
    qh_distance_exact,
    qh_distance_many,
    qhgraph,
)
from qhkit.qhgraph import MAX_PLANE_DEPTH
from qhkit.scenarios import BUILTIN_DOMAINS, make_region
from qhkit.spaces import PLANE, _projections, sample_pairs

import region_reference as rr
from conftest import HP_BBOX, PP_BBOX

LN2 = math.log(2.0)


# ---------------------------------------------------------------------------
# construction contracts
# ---------------------------------------------------------------------------

def test_grading_factor_validation(halfplane):
    with pytest.raises(ConfigurationError):
        build_mesh(halfplane, 0.6, HP_BBOX)
    with pytest.raises(ConfigurationError):
        build_mesh(halfplane, 0.0, HP_BBOX)


def test_unbounded_region_requires_bbox(halfplane):
    with pytest.raises(ConfigurationError):
        build_mesh(halfplane, 0.1)


class _UnitSquare(Region):
    """A bounded plane region with neither a disk centre nor polygon
    vertices, given by the three array predicates alone."""

    name = "unit-square"
    bounded = True

    def __init__(self):
        self.space = PLANE

    def contains_many(self, Z):
        return (0.0 < Z.real) & (Z.real < 1.0) & (0.0 < Z.imag) & (Z.imag < 1.0)

    def boundary_gaps_many(self, Z):
        x, y = Z.real, Z.imag
        return np.abs(np.minimum(np.minimum(x, 1.0 - x), np.minimum(y, 1.0 - y)))

    def segments_inside_many(self, A, B):
        return self.contains_many(A) & self.contains_many(B)  # the square is convex


def test_bounded_region_without_default_bbox_needs_one():
    square = _UnitSquare()
    with pytest.raises(ConfigurationError, match="has no default bbox"):
        build_mesh(square, 0.2)
    assert build_mesh(square, 0.2, (0.0, 1.0, 0.0, 1.0)).node_count > 0


def test_the_array_predicates_are_the_whole_region_contract():
    square = _UnitSquare()
    assert square.contains(0.25 + 0.5j) is True
    assert square.contains((1.5, 0.5)) is False
    assert square.boundary_distance(0.25 + 0.5j) == 0.25
    assert square.boundary_gap(1.5 + 0.5j) == 0.5
    with pytest.raises(MembershipError):
        square.boundary_distance(1.5 + 0.5j)
    assert square.segment_inside(0.25 + 0.5j, 0.75 + 0.25j) is True
    assert square.segment_inside(0.25 + 0.5j, 1.5 + 0.5j) is False
    mesh = build_mesh(square, 0.2, (0.0, 1.0, 0.0, 1.0))
    r = qh_distance(mesh, 0.25 + 0.5j, 0.75 + 0.5j)
    assert r.distance == path_qh_length(mesh, r) > 0.0


def test_bbox_missing_the_region_fails():
    disk = DiskRegion(0j, 1.0)
    with pytest.raises(ConfigurationError):
        build_mesh(disk, 0.2, (10.0, 11.0, 10.0, 11.0))


# A comb whose thin tooth falls apart at depth 6, so pruning drops nodes.
_COMB = PolygonRegion([0j, 4 + 0j, 4 + 2j, 3 + 2j, 3 + 0.02j, 2.9 + 0.02j, 2.9 + 2j, 2j])
_L_SHAPE = PolygonRegion([0j, 2 + 0j, 2 + 1j, 1 + 1j, 1 + 2j, 2j])
_HOLED = PolygonRegion([0j, 4 + 0j, 4 + 4j, 4j], [[1.5 + 1.5j, 2.5 + 1.5j, 2.5 + 2.5j, 1.5 + 2.5j]],
                       name="holed")


def _comb_mesh():
    return build_mesh(_COMB, 0.3, max_depth=6)


def _digest(*arrays):
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


# sha256 of (coords, delta, spacing) and of the CSR arrays (index arrays as
# int64), recorded from the dict-and-set builder that the array build replaced.
GOLDEN_MESHES = {
    "halfplane-0.1": ("68ea7601eba0fc82adaaba1622234b328c2ec35ad120271cc7c8772bb368026f",
                      "286a0e8cd7ef130d243d853fbe2d827eb63b9825d802a5f6f84f561480c9b6be"),
    "punctured-0.1": ("b22040fe4d244696eddc7bc0873005806637b71d28105d1c686dd72d67b72a62",
                      "86cee1c3c737e918ddcfb0ecfb7eadbeeb036f2b3a6161f598018481f34b8cb7"),
    "disk": ("e7fd4b19aaaeda59bd8a4e04a43f325e8496c0aa58e779d04cdba8747079be92",
             "964075895dc65097e75489ff4226a48ecc78e35166c12b554a745b965539d827"),
    "comb": ("368d3040a83df18fbd0f80efe0890c8ceeb9c64904cc1106d2458e519b72057f",
             "8f2553601417ff5ef02457ae42116c4f88e90012f6a99a4625495c178cddd59f"),
}


@pytest.fixture(scope="module")
def golden_meshes(hp_mesh_01, punctured):
    return {"halfplane-0.1": hp_mesh_01,
            "punctured-0.1": build_mesh(punctured, 0.1, PP_BBOX),
            "disk": build_mesh(DiskRegion(0j, 1.0), 0.1, max_depth=8),
            "comb": _comb_mesh()}


@pytest.mark.parametrize("name", sorted(GOLDEN_MESHES))
def test_mesh_arrays_match_golden_digests(golden_meshes, name):
    mesh = golden_meshes[name]
    g = mesh.graph
    assert (_digest(mesh.coords, mesh.delta, mesh.spacing),
            _digest(g.indptr.astype(np.int64), g.indices.astype(np.int64), g.data)) \
        == GOLDEN_MESHES[name]


# sha256 of a polygon mesh's arrays (as in GOLDEN_MESHES), of its node, edge,
# component, dropped-node and segment-rejection counts, and of the answers
# to 20 seeded queries, recorded with the scalar polygon predicates that
# tests/region_reference.py keeps.
POLYGON_MESHES = {
    "l-shape-0.3-6": (_L_SHAPE, 0.3, 6,
                     "1a3e6f43521cc46e0ce6a0f3e92e82a8b2a8d51b3b3d942fb228262e35ccfb4b"),
    "l-shape-0.2-7": (_L_SHAPE, 0.2, 7,
                     "286768d7c903bddbb2025e9598af8aa44115d027b9993a4814f8331de9270b88"),
    "comb-0.3-6": (_COMB, 0.3, 6,
                  "3ddb166cd64e33045b0e460a423c50c1a80bad133a0fc46ecd896af09c02fa9f"),
    "holed-0.3-7": (_HOLED, 0.3, 7,
                   "0fb991201d7fe54ca73605f67c0cafab442d05e3f15a982f4459a9f03015b2d7"),
}


def polygon_mesh_digest(region, grading, max_depth) -> str:
    mesh = build_mesh(region, grading, max_depth=max_depth)
    g = mesh.graph
    h = hashlib.sha256()
    for a in (mesh.coords, mesh.delta, mesh.spacing, g.indptr.astype(np.int64),
              g.indices.astype(np.int64), g.data):
        h.update(np.ascontiguousarray(a).tobytes())
    h.update(repr([mesh.stats[k] for k in ("nodes", "edges", "components", "dropped_nodes",
                                           "segment_rejections")]).encode())
    for x, y in sample_pairs(_covered(mesh, region.sample_points), random.Random(3), 20):
        try:
            r = qh_distance(mesh, x, y)
        except ConnectivityError as exc:
            h.update(str(exc).encode())
            continue
        h.update(np.array([r.distance, r.euclidean_length, *r.node_path],
                          dtype=np.complex128).tobytes())
    return h.hexdigest()


@pytest.mark.parametrize("name", sorted(POLYGON_MESHES))
def test_polygon_meshes_match_the_scalar_predicates(name):
    region, grading, max_depth, want = POLYGON_MESHES[name]
    assert polygon_mesh_digest(region, grading, max_depth) == want


@pytest.mark.parametrize("name", sorted(GOLDEN_MESHES))
def test_exact_node_finds_every_node_and_nothing_half_a_cell_off(golden_meshes, name):
    mesh = golden_meshes[name]
    for i, (c, s) in enumerate(zip(mesh.coords, mesh.spacing)):
        assert mesh.exact_node(c) == i
        assert mesh.exact_node(c + s / 2.0) is None
        assert mesh.exact_node(c + 1j * s / 2.0) is None


def test_exact_node_on_curve_complex(omega_mesh):
    for i, c in enumerate(omega_mesh.coords):
        assert omega_mesh.exact_node(c) == i
    a, b = omega_mesh.coords[0], omega_mesh.coords[omega_mesh.neighbors(0)[0]]
    assert omega_mesh.exact_node((a + b) / 2.0) is None


def test_plane_max_depth_is_capped(halfplane):
    with pytest.raises(ConfigurationError):
        build_mesh(halfplane, 0.4, HP_BBOX, max_depth=MAX_PLANE_DEPTH + 1)
    capped = build_mesh(halfplane, 0.4, HP_BBOX, max_depth=MAX_PLANE_DEPTH)
    assert capped.node_count == build_mesh(halfplane, 0.4, HP_BBOX).node_count


def test_mesh_structure_stats(golden_meshes, omega_mesh):
    assert list(omega_mesh.stats["stage_s"]) == ["cuts", "assemble"]
    for mesh in golden_meshes.values():
        st = mesh.stats
        assert list(st["stage_s"]) == ["refine", "stencil", "cross_depth", "dedupe", "assemble"]
        assert all(t >= 0.0 for t in st["stage_s"].values())
        x0, x1, y0, y1 = st["bbox"]
        s0 = max(x1 - x0, y1 - y0)
        assert sum(st["leaves_per_depth"].values()) == st["nodes"] == mesh.node_count
        for d, count in st["leaves_per_depth"].items():
            assert np.count_nonzero(mesh.spacing == s0 / (1 << d)) == count
        g = mesh.graph.tocoo()
        cross = np.count_nonzero(mesh.spacing[g.row] != mesh.spacing[g.col]) // 2
        assert st["cross_depth_edges"] == cross > 0


def test_capped_cells_count_what_the_depth_cap_stops(disk_mesh, pp_mesh_005, omega_mesh,
                                                    hp_mesh_005):
    # In-region cells still split at max_depth on the plane; intervals that
    # min_len stops above grading * gap on the frame, next to its boundary
    # points.
    assert disk_mesh.stats["capped_cells"] == 7720
    assert pp_mesh_005.stats["capped_cells"] == 1264
    assert hp_mesh_005.stats["capped_cells"] == 0
    assert omega_mesh.stats["capped_cells"] == 40


class _WalledHalfPlane(HalfPlaneRegion):
    """The half-plane whose segment filter also rejects crossings of the
    wall Re z = 0, Im z > 2 (the region itself is unchanged).  Its wall is
    in neither contains_many nor boundary_gaps_many, against the Region
    contract that the delta disc relies on, so only the refine test uses it;
    _SlitHalfPlane stands in for it elsewhere."""

    def segments_inside_many(self, A, B):
        crosses = (np.sign(A.real) != np.sign(B.real)) & (np.minimum(A.imag, B.imag) > 2.0)
        return super().segments_inside_many(A, B) & ~crosses


class _SlitHalfPlane(HalfPlaneRegion):
    """The half-plane less the wall Re z = 1/4, Im z >= 2, which is part of
    its boundary.  At grading 0.5 the leaves two spacings from the wall have
    stencil pairs across it, which the delta disc never certifies, as each
    such segment meets the boundary; at grading 0.5 and max_depth 8, 14 of
    them reach the filter and fail it."""

    name = "slit-halfplane"
    WALL = 0.25

    def contains_many(self, Z):
        return super().contains_many(Z) & ~((Z.real == self.WALL) & (Z.imag >= 2.0))

    def boundary_gaps_many(self, Z):
        x, y = Z.real - self.WALL, Z.imag
        return np.minimum(np.abs(y), np.hypot(x, np.maximum(2.0 - y, 0.0)))

    def segments_inside_many(self, A, B):
        xa, xb = A.real - self.WALL, B.real - self.WALL
        with np.errstate(all="ignore"):
            y = A.imag + xa / (xa - xb) * (B.imag - A.imag)  # where [a, b] meets the wall's line
        crosses = (xa * xb <= 0.0) & (xa != xb) & (y >= 2.0)
        return self.contains_many(A) & self.contains_many(B) & ~crosses


def _slit_mesh():
    return build_mesh(_SlitHalfPlane(), 0.5, HP_BBOX, max_depth=8)


def _stack_refine(region, grading, bbox, max_depth):
    """The per-cell stack loop that qhgraph._refine replaced, kept as its
    reference over the scalar predicates of region_reference: the sorted
    keys, coords and delta of the leaves."""
    x0, x1, y0, y1 = bbox
    s0 = max(x1 - x0, y1 - y0)
    leaves = []
    stack = [(0, 0, 0)]
    while stack:
        d, i, j = stack.pop()
        s = s0 / (1 << d)
        ox, oy = x0 + i * s, y0 + j * s
        if ox >= x1 or oy >= y1:
            continue
        cx, cy = ox + s / 2.0, oy + s / 2.0
        c = complex(cx, cy)
        if (x0 <= cx <= x1) and (y0 <= cy <= y1) and rr.contains(region, c):
            dz = rr.boundary_distance(region, c)
            if s <= grading * dz:
                leaves.append((d, i, j, c, dz))
                continue
        elif not rr.contains(region, c) and rr.boundary_gap(region, c) > s * math.sqrt(2.0) / 2.0:
            continue
        if d >= max_depth:
            continue
        stack.extend(((d + 1, 2 * i, 2 * j), (d + 1, 2 * i + 1, 2 * j),
                      (d + 1, 2 * i, 2 * j + 1), (d + 1, 2 * i + 1, 2 * j + 1)))
    D, I, J = (np.array(col, dtype=np.int64) for col in list(zip(*leaves))[:3])
    keys = qhgraph._cell_keys(D, I, J)
    order = np.argsort(keys)
    return (keys[order], np.array([leaves[k][3] for k in order], dtype=np.complex128),
            np.array([leaves[k][4] for k in order], dtype=np.float64))


_UNIT_BOX = (-1.0, 1.0, -1.0, 1.0)

REFINE_CASES = {
    **{f"{name}-{g}": (make_region(name), g, bbox, qhgraph.DEFAULT_MAX_DEPTH)
       for name, bbox in (("halfplane", HP_BBOX), ("punctured", PP_BBOX), ("disk", _UNIT_BOX))
       for g in (0.05, 0.1, 0.2)},
    "disk-depth-8": (DiskRegion(0j, 1.0), 0.1, _UNIT_BOX, 8),
    "comb": (_COMB, 0.3, (0.0, 4.0, 0.0, 2.0), 6),
    "l-shape": (_L_SHAPE, 0.3, (0.0, 2.0, 0.0, 2.0), 6),
    "walled": (_WalledHalfPlane(), 0.2, HP_BBOX, qhgraph.DEFAULT_MAX_DEPTH),
}


@pytest.mark.parametrize("name", sorted(REFINE_CASES))
def test_refine_sweep_matches_the_stack_loop(name):
    region, grading, bbox, max_depth = REFINE_CASES[name]
    s0 = max(bbox[1] - bbox[0], bbox[3] - bbox[2])
    keys, D, I, J, coords, delta, _ = qhgraph._refine(region, grading, bbox, s0, max_depth)
    ref_keys, ref_coords, ref_delta = _stack_refine(region, grading, bbox, max_depth)
    assert keys.tobytes() == ref_keys.tobytes()
    assert coords.tobytes() == ref_coords.tobytes()
    assert delta.tobytes() == ref_delta.tobytes()
    assert keys.tobytes() == qhgraph._cell_keys(D, I, J).tobytes()


def test_segment_rejections_count_filtered_pairs(monkeypatch):
    calls = []
    assemble = qhgraph._assemble_mesh

    def spy(*args):
        calls.append(args)
        return assemble(*args)

    monkeypatch.setattr(qhgraph, "_assemble_mesh", spy)
    slit = _slit_mesh()
    region, _, _, coords, delta, _, pu, pv = calls[0]
    st = slit.stats
    assert st["dropped_nodes"] == 0
    assert 0 < st["segment_rejections"] < st["segment_tests"] < len(pu)
    assert st["edges"] + st["segment_rejections"] == len(pu)
    # Every pair left to the filter is one the delta disc does not certify,
    # and the filter over all pairs rejects just the pairs it rejected.
    L, dA, dB = np.abs(coords[pu] - coords[pv]), delta[pu], delta[pv]
    certified = qhgraph._disc_certified(L, dA, dB, qhgraph._gap_slack(region, coords))
    assert np.count_nonzero(~certified) == st["segment_tests"]
    inside = region.segments_inside_many(coords[pu], coords[pv])
    assert inside[certified].all()
    assert np.count_nonzero(~inside) == st["segment_rejections"]


def test_mesh_is_connected_and_positive_delta(hp_mesh_01, pp_mesh_005):
    for mesh in (hp_mesh_01, pp_mesh_005):
        assert mesh.stats["components"] >= 1
        assert np.all(mesh.delta > 0)
        # After largest-component filtering every node reaches every other.
        from scipy.sparse.csgraph import connected_components
        n, _ = connected_components(mesh.graph, directed=False)
        assert n == 1


def test_edge_weight_bracket(hp_mesh_01, pp_mesh_005):
    # w(edge) must land between len/delta_max and len/delta_min with the
    # extrema sampled along the edge (endpoints included).
    rng = random.Random(0)
    for mesh in (hp_mesh_01, pp_mesh_005):
        g = mesh.graph.tocoo()
        idx = rng.sample(range(len(g.data)), 200)
        for k in idx:
            u, v, w = g.row[k], g.col[k], g.data[k]
            a, b = mesh.coords[u], mesh.coords[v]
            L = abs(a - b)
            ds = [mesh.region.boundary_distance(a + (b - a) * t)
                  for t in (0.0, 0.25, 0.5, 0.75, 1.0)]
            assert L / max(ds) * (1 - 1e-12) <= w <= L / min(ds) * (1 + 1e-12)


def test_grading_rule_holds_on_nodes(hp_mesh_01):
    assert np.all(hp_mesh_01.spacing <= hp_mesh_01.grading * hp_mesh_01.delta + 1e-12)


# ---------------------------------------------------------------------------
# oracle agreement
# ---------------------------------------------------------------------------

def test_halfplane_vertical_pair(hp_mesh_005, hp_mesh_01):
    k5 = qh_distance(hp_mesh_005, 1j, 2j).distance
    assert abs(k5 - LN2) / LN2 <= 0.02
    k10 = qh_distance(hp_mesh_01, 1j, 2j).distance
    assert abs(k10 - LN2) / LN2 <= 0.05


def test_punctured_axis_pairs(pp_mesh_005):
    k = qh_distance(pp_mesh_005, 1 + 0j, complex(math.e, 0.0)).distance
    assert abs(k - 1.0) <= 0.02
    k = qh_distance(pp_mesh_005, 1 + 0j, 1j).distance
    assert abs(k - math.pi / 2) / (math.pi / 2) <= 0.02


def test_identical_points_have_zero_distance(hp_mesh_01):
    r = qh_distance(hp_mesh_01, 1 + 1j, 1 + 1j)
    assert r.distance == 0.0
    assert r.node_path == (1 + 1j,)


def test_oracle_values():
    assert qh_distance_exact("halfplane", 1j, 2j) == pytest.approx(LN2, abs=1e-15)
    assert qh_distance_exact("halfplane", 1j, 1 + 1j) == pytest.approx(
        math.acosh(1.5), abs=1e-15)
    assert qh_distance_exact("punctured", 1, -1) == pytest.approx(math.pi, abs=1e-15)
    assert qh_distance_exact("punctured", 1, 1) == 0.0
    with pytest.raises(MembershipError):
        qh_distance_exact("halfplane", 1j, -1j)
    with pytest.raises(MembershipError):
        qh_distance_exact("punctured", 0j, 1j)


_NON_FINITE = st.sampled_from([math.nan, math.inf, -math.inf])
_COORD = st.floats(-1e6, 1e6)


@given(st.one_of(st.tuples(_NON_FINITE, _COORD), st.tuples(_COORD, _NON_FINITE),
                 st.tuples(_NON_FINITE, _NON_FINITE)))
def test_non_finite_points_lie_in_no_domain_and_no_oracle(hp_mesh_01, omega_mesh, xy):
    z = complex(*xy)
    for name in BUILTIN_DOMAINS:
        assert not make_region(name).contains(z)
    for oracle, inside in (("halfplane", 1j), ("punctured", 1 + 0j)):
        for x, y in ((z, inside), (inside, z)):
            with pytest.raises(MembershipError):
                qh_distance_exact(oracle, x, y)
    for mesh, inside in ((hp_mesh_01, 1j), (omega_mesh, 0j)):
        with pytest.raises(MembershipError):
            qh_distance(mesh, z, inside)


@pytest.mark.parametrize("t", [1e-8, 1e-6])
def test_halfplane_oracle_keeps_its_digits_at_close_range(t):
    # Vertical: k = log(y / 1) exactly, with y - 1 exact in floating point.
    # Horizontal at height 1: k = 2 asinh(t / 2) = t - t^3 / 24 + O(t^5).
    y = 1.0 + t
    assert qh_distance_exact("halfplane", 1j, complex(0.0, y)) == \
        pytest.approx(math.log1p(y - 1.0), rel=1e-12, abs=0.0)
    assert qh_distance_exact("halfplane", 1j, 1j + t) == \
        pytest.approx(t - t ** 3 / 24.0, rel=1e-12, abs=0.0)


_GRID = st.integers(-8000, 8000).map(lambda i: i / 1000.0)
_HEIGHT = st.integers(1, 8000).map(lambda i: i / 1000.0)


@given(st.tuples(_GRID, _HEIGHT, _GRID, _HEIGHT), st.integers(-996, 996))
def test_oracles_are_invariant_under_dilation(c, e):
    # lam = 2^e spans 1e-300 to 1e300 and scales the grid points exactly.
    # The half-plane oracle is accurate to a few ulp relative; the
    # log-cylinder one subtracts two logarithms, so its error is a few ulp
    # of log|x| absolute whatever the scale.
    lam = 2.0 ** e
    x, y = complex(c[0], c[1]), complex(c[2], c[3])
    for domain, abs_tol in (("halfplane", 0.0), ("punctured", 1e-14)):
        k = qh_distance_exact(domain, x, y)
        try:
            k_lam = qh_distance_exact(domain, lam * x, lam * y)
        except MembershipError:
            continue
        assert math.isfinite(k_lam)
        assert math.isclose(k_lam, k, rel_tol=1e-12, abs_tol=abs_tol)


@pytest.mark.parametrize("x, y, k", [
    (1e-200j, 1 + 1e-200j, 2.0 * math.asinh(0.5e200)),
    (1e-170j, 1e-170 + 1e-170j, 2.0 * math.asinh(0.5)),
    (1e200j, 1e200 + 1e200j, 2.0 * math.asinh(0.5)),
    (-1.7e308 + 1j, 1.7e308 + 1j, 2.0 * (math.log(1.7e308) + math.log(2.0))),
])
def test_halfplane_oracle_at_extreme_scales(x, y, k):
    assert qh_distance_exact("halfplane", x, y) == pytest.approx(k, rel=1e-12, abs=0.0)


def test_punctured_oracle_and_regions_take_moduli_beyond_the_float_range():
    z = 1.7e308 + 1.7e308j  # |z| overflows
    k = math.hypot(math.log(1.7e308) + 0.5 * math.log(2.0), math.pi / 4.0)
    assert qh_distance_exact("punctured", z, 1.0) == pytest.approx(k, rel=1e-12, abs=0.0)
    assert make_region("punctured").contains(z)
    assert not make_region("disk").contains(z)
    # The distances that pass through |z| are inf instead of an OverflowError.
    assert make_region("punctured").boundary_distance(z) == math.inf
    assert make_region("punctured").boundary_gap(z) == math.inf
    assert make_region("disk").boundary_gap(z) == math.inf
    assert [a.tolist() for a in _projections(np.array([z]), 0j, 1 + 0j)] == [[1.0], [math.inf]]
    assert [a.tolist() for a in _projections(np.array([0j]), z, z)] == [[0.0], [math.inf]]


def test_mesh_overestimates_oracle(hp_mesh_01, pp_mesh_005, halfplane, punctured):
    # Shortest path over a restricted curve family dominates the infimum.  In
    # the half-plane 1/delta is convex along every chord, so the trapezoid
    # weights only add to the overestimate; in the punctured plane 1/delta is
    # concave near a chord's closest approach to the puncture and quadrature
    # can bias a path downward by O((stencil * grading)^2).
    rng = random.Random(8)
    pairs_hp = [(halfplane.sample_point(rng), halfplane.sample_point(rng))
                for _ in range(20)]
    for (x, y), r in zip(pairs_hp, qh_distance_many(hp_mesh_01, pairs_hp)):
        assert r.distance >= qh_distance_exact("halfplane", x, y) * (1 - 1e-9)
    pairs_pp = [(punctured.sample_point(rng), punctured.sample_point(rng))
                for _ in range(20)]
    quad = (4.0 * pp_mesh_005.grading) ** 2 / 8.0
    for (x, y), r in zip(pairs_pp, qh_distance_many(pp_mesh_005, pairs_pp)):
        assert r.distance >= qh_distance_exact("punctured", x, y) * (1 - quad)


# ---------------------------------------------------------------------------
# metric structure on the mesh
# ---------------------------------------------------------------------------

def test_symmetry_is_bitwise(hp_mesh_01):
    a, b = 0.3 + 1.1j, -0.4 + 1.7j
    assert qh_distance(hp_mesh_01, a, b).distance == qh_distance(hp_mesh_01, b, a).distance


def test_triangle_inequality_on_nodes(hp_mesh_01):
    rng = random.Random(12)
    coords = hp_mesh_01.coords
    ids = [rng.randrange(len(coords)) for _ in range(12)]
    pts = [complex(coords[i]) for i in ids]
    for a, b, c in zip(pts[0::3], pts[1::3], pts[2::3]):
        dab, dbc, dac = (r.distance for r in
                         qh_distance_many(hp_mesh_01, [(a, b), (b, c), (a, c)]))
        assert dac <= dab + dbc + 1e-12


@pytest.mark.parametrize("mesh_name", ["hp_mesh_01", "pp_mesh_005", "disk_mesh", "omega_mesh",
                                       "omega_mesh_length"])
def test_path_qh_length_equals_distance(request, mesh_name):
    # Off-node endpoints: anchor edges at both ends of far pairs, and near
    # pairs (a point and the midpoint to one of its anchors) whose answer
    # can be the straight segment.
    mesh = request.getfixturevalue(mesh_name)
    sample_points = _covered(mesh, mesh.region.sample_points) if mesh_name == "disk_mesh" \
        else mesh.region.sample_points
    points = [p for pair in sample_pairs(sample_points, random.Random(59), 15) for p in pair]
    points = [p for p in points if mesh.exact_node(p) is None]
    att = qhgraph._attach(mesh, np.array(points))
    near = [(p, (p + mesh.coords[att.anchors(e)[0][0]]) / 2.0) for e, p in enumerate(points)]
    results = qh_distance_many(mesh, list(zip(points[0::2], points[1::2])) + near)
    for r in results:
        assert path_qh_length(mesh, r) == r.distance
    assert any(len(r.node_path) == 2 for r in results[-len(near):])


def _covered(mesh, sample_points):
    """A batch sampler over sample_points that keeps the points with a host
    cell, in draw order, drawing only as many as it still needs: the points
    that one draw at a time, each redrawn until covered, would give.  The
    default disk mesh leaves part of the rim uncovered."""
    def draw(rng, n):
        out = []
        while len(out) < n:
            out += [p for p in sample_points(rng, n - len(out)) if mesh._host_cell(p) is not None]
        return out
    return draw


def _assert_batch_equals_singles(mesh, pairs, stats=None):
    batch = qh_distance_many(mesh, pairs, stats)
    for (x, y), r in zip(pairs, batch):
        single = qh_distance(mesh, x, y)
        assert type(r.distance) is float
        assert r.distance == single.distance
        assert r.node_path == single.node_path


@pytest.mark.parametrize("mesh_name, region_name", [("hp_mesh_01", "halfplane"),
                                                     ("pp_mesh_005", "punctured"),
                                                     ("omega_mesh", "omega"),
                                                     ("disk_mesh", "disk"),
                                                     ("omega_mesh_length", "omega")])
def test_batch_answers_equal_single_pair_answers(request, mesh_name, region_name):
    # A pair's answer must not depend on the other pairs of its batch, nor on
    # the search limits that the batch's earlier rows give its source.
    mesh = request.getfixturevalue(mesh_name)
    region = request.getfixturevalue(region_name)
    sample_points = _covered(mesh, region.sample_points) if mesh_name == "disk_mesh" \
        else region.sample_points
    stats = {}
    _assert_batch_equals_singles(mesh, sample_pairs(sample_points, random.Random(41), 200),
                                 stats)
    assert stats["dijkstra_limited"] > 0


@pytest.mark.parametrize("mesh_name, region_name", [("hp_mesh_01", "halfplane"),
                                                     ("pp_mesh_005", "punctured"),
                                                     ("omega_mesh", "omega")])
def test_shared_and_mixed_sources_equal_single_pair_answers(request, mesh_name, region_name):
    # One off-mesh source with many targets, and a batch whose sources are
    # partly mesh nodes (slack 0) and partly off-mesh points.
    mesh = request.getfixturevalue(mesh_name)
    region = request.getfixturevalue(region_name)
    rng = random.Random(43)
    hub = region.sample_point(rng)
    assert mesh.exact_node(hub) is None
    _assert_batch_equals_singles(mesh, [(hub, region.sample_point(rng)) for _ in range(25)])
    nodes = [complex(mesh.coords[rng.randrange(mesh.node_count)]) for _ in range(20)]
    points = [region.sample_point(rng) for _ in range(20)]
    pairs = list(zip(nodes[:10], points[:10])) + list(zip(points[10:], points[:10])) + \
        list(zip(nodes[10:], nodes[:10]))
    rng.shuffle(pairs)
    stats = {}
    _assert_batch_equals_singles(mesh, pairs, stats)
    assert 0 < stats["appended_rows"] < stats["sources"]
    assert stats["dijkstra_limited"] > 0


def test_large_batch_searches_limited(pp_mesh_005, punctured):
    pairs = sample_pairs(punctured.sample_points, random.Random(47), 200)
    stats = {}
    qh_distance_many(pp_mesh_005, pairs, stats)
    assert stats["sources"] == stats["appended_rows"] == 200
    assert stats["dijkstra_full"] + stats["dijkstra_limited"] == 200
    assert stats["dijkstra_limited"] >= 190
    vertices = pp_mesh_005.node_count + stats["appended_rows"]
    assert stats["reached"] < 0.7 * stats["sources"] * vertices
    assert stats["anchors"] > 200
    assert all(stats[k] >= 0.0 for k in ("attach_s", "bound_s", "dijkstra_s", "unwind_s"))


def test_single_pair_runs_one_guessed_search(pp_mesh_005):
    stats = {}
    qh_distance(pp_mesh_005, 0.7 + 0.2j, -1.3 + 2.1j, stats)
    assert (stats["sources"], stats["dijkstra_full"], stats["dijkstra_limited"]) == (1, 0, 1)
    assert (stats["dijkstra_guessed"], stats["dijkstra_retried"]) == (1, 0)
    assert stats["reached"] < pp_mesh_005.node_count


def _l_shape_mesh():
    # Non-convex: delta is not concave, and some segments leave the region.
    return build_mesh(PolygonRegion([0j, 2 + 0j, 2 + 1j, 1 + 1j, 1 + 2j, 2j]), 0.3,
                      max_depth=6)


@pytest.mark.parametrize("mesh_name", ["hp_mesh_01", "pp_mesh_005", "disk_mesh", "l_shape"])
def test_guessed_limits_give_the_full_search_answers(request, monkeypatch, mesh_name):
    mesh = _l_shape_mesh() if mesh_name == "l_shape" else request.getfixturevalue(mesh_name)
    pairs = sample_pairs(_covered(mesh, mesh.region.sample_points), random.Random(53), 60)
    stats = [{} for _ in pairs[:30]]
    guessed = [qh_distance(mesh, x, y, st) for (x, y), st in zip(pairs, stats)]
    batch_stats = {}
    guessed_batch = qh_distance_many(mesh, pairs, batch_stats)
    assert sum(st["dijkstra_guessed"] for st in stats) >= 20
    assert sum(st["dijkstra_retried"] for st in stats + [batch_stats]) == 0
    monkeypatch.setattr(qhgraph, "_segment_guess", lambda m, jobs: math.inf)
    full = [qh_distance(mesh, x, y) for x, y in pairs[:30]]
    for g, f in zip(guessed + guessed_batch, full + qh_distance_many(mesh, pairs)):
        assert g.distance == f.distance
        assert g.node_path == f.node_path


@pytest.mark.parametrize("scale, limited", [(0.999, 2), (1e-6, 1)])
def test_too_small_guess_searches_again(monkeypatch, hp_mesh_01, scale, limited):
    # Just under the answer, the target's anchors settle and the row is run
    # again up to the answer; far under it, the target is not reached and the
    # row is run again in full.
    x, y = 0.3 + 0.7j, -0.9 + 1.6j
    full = qh_distance(hp_mesh_01, x, y)
    monkeypatch.setattr(qhgraph, "_segment_guess", lambda m, jobs: scale * full.distance)
    stats = {}
    again = qh_distance(hp_mesh_01, x, y, stats)
    assert (again.distance, again.node_path) == (full.distance, full.node_path)
    assert (stats["dijkstra_guessed"], stats["dijkstra_retried"]) == (1, 1)
    assert (stats["dijkstra_limited"], stats["dijkstra_full"]) == (limited, 2 - limited)


def test_no_guess_on_complexes_or_segments_leaving_the_region(omega_mesh, pp_mesh_005):
    for mesh, x, y in ((omega_mesh, 0j, complex(1.5, 0.0)), (pp_mesh_005, -1 + 0j, 1 + 0j)):
        stats = {}
        qh_distance(mesh, x, y, stats)
        assert (stats["dijkstra_guessed"], stats["dijkstra_full"]) == (0, 1)


@pytest.mark.parametrize("mesh_name, region_name", [("hp_mesh_01", "halfplane"),
                                                     ("pp_mesh_005", "punctured"),
                                                     ("omega_mesh", "omega")])
def test_slack_bounds_the_detour_through_the_cheapest_anchor(request, mesh_name, region_name):
    # d(k0, x) <= D[x] + slack at every mesh node, D being the row of an
    # off-mesh source and k0 its cheapest anchor.
    mesh = request.getfixturevalue(mesh_name)
    region = request.getfixturevalue(region_name)
    rng = random.Random(19)
    att = qhgraph._attach(mesh, np.array([region.sample_point(rng) for _ in range(8)]))
    off = np.flatnonzero(att.node < 0).tolist()
    slacks = qhgraph._slacks(mesh.graph, att, off)
    n = mesh.node_count
    rows = [dijkstra(qhgraph._with_source_row(mesh, att, e), directed=True, indices=n)[:n]
            for e in off]
    checked = 0
    for e, slack, row in zip(off, slacks, rows):
        nodes, weights = att.anchors(e)
        k0 = nodes[np.argmin(weights)]
        assert slack >= -weights.min()
        if math.isfinite(slack):
            d0 = dijkstra(mesh.graph, directed=True, indices=k0)
            assert np.all(d0 <= row + slack + 1e-12 * (1.0 + row))
            checked += 1
    assert checked >= len(off) // 2 > 0


def _concatenated_row(graph, att, e):
    """The graph plus the query vertex's row for endpoint e as a fresh
    concatenation."""
    nodes, weights = att.anchors(e)
    n, end = graph.shape[0], graph.nnz + len(nodes)
    return (np.concatenate([graph.indptr, [end]]).astype(graph.indptr.dtype),
            np.concatenate([graph.indices, nodes.astype(graph.indices.dtype)]),
            np.concatenate([graph.data, weights]),
            (n + 1, n + 1))


def _graph_digest(graph) -> str:
    h = hashlib.sha256()
    for a in (graph.indptr, graph.indices, graph.data):
        h.update(a.tobytes())
    return h.hexdigest()


def test_source_rows_are_written_after_the_mesh_entries(request, hp_mesh_005, halfplane):
    mesh = hp_mesh_005
    digest = _graph_digest(mesh.graph)
    buffers = (mesh._data, mesh._indices, mesh.graph.data)
    rng = random.Random(23)
    att = qhgraph._attach(mesh, np.array([halfplane.sample_point(rng) for _ in range(50)]))
    e = int(np.argmax(att.node < 0))
    assert att.node[e] < 0
    expected = _concatenated_row(mesh.graph, att, e)
    aug = qhgraph._with_source_row(mesh, att, e)
    # Past indptr[-1] is unused room.
    for got, want in zip((aug.indptr, aug.indices[:aug.nnz], aug.data[:aug.nnz]), expected):
        assert got.dtype == want.dtype and np.array_equal(got, want)
    assert aug.shape == expected[3]
    # The graph and the augmented view share the reserved buffers: no copy.
    assert np.shares_memory(aug.indices, mesh.graph.indices)
    assert np.shares_memory(aug.data, mesh.graph.data)
    # Queries write into the room reserved at build; nothing reallocates it.
    pairs = sample_pairs(halfplane.sample_points, rng, 250)
    qh_distance_many(mesh, pairs[:200])
    for x, y in pairs[200:]:
        qh_distance(mesh, x, y)
    assert all(a is b for a, b in zip((mesh._data, mesh._indices, mesh.graph.data), buffers))
    assert _graph_digest(mesh.graph) == digest
    # The room holds the anchors of any attachment.
    for mesh_name, region_name in (("hp_mesh_005", "halfplane"), ("pp_mesh_005", "punctured"),
                                   ("disk_mesh", "disk"), ("omega_mesh", "omega")):
        m, region = request.getfixturevalue(mesh_name), request.getfixturevalue(region_name)
        room = len(m._data) - m.graph.nnz
        rng = random.Random(37)
        Z = np.array([region.sample_point(rng) for _ in range(300)])
        if not m._piece_registry:
            Z = Z[m._host_cells(Z) >= 0]  # the disk's uncovered rim
        att = qhgraph._attach(m, Z)
        assert np.diff(att.starts)[att.node < 0].max() <= room
        assert len(Z) >= 250


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_forked_writes_leave_the_parents_buffers_alone(hp_mesh_01):
    # The query buffers are private, as heap memory is: a forked child that
    # queries, then overwrites the graph and its room, changes none of the
    # parent's bytes.
    mesh = hp_mesh_01
    before = mesh._data.tobytes(), mesh._indices.tobytes()
    pid = os.fork()
    if pid == 0:
        code = 1
        try:
            qh_distance(mesh, 0.3 + 0.7j, -0.4 + 1.3j)
            mesh._data[:] = -1.0
            mesh._indices[:] = 0
            code = 0
        finally:
            os._exit(code)
    assert os.waitpid(pid, 0)[1] == 0
    assert (mesh._data.tobytes(), mesh._indices.tobytes()) == before


def test_queries_leave_the_mesh_graph_unchanged(hp_mesh_01, halfplane):
    mesh = hp_mesh_01
    digest = _graph_digest(mesh.graph)
    rng = random.Random(29)
    for size in (1, 40, 1, 3, 120, 1):
        pairs = sample_pairs(halfplane.sample_points, rng, size)
        if size == 1:
            qh_distance(mesh, *pairs[0])
        else:
            qh_distance_many(mesh, pairs)
    assert _graph_digest(mesh.graph) == digest


def test_threads_querying_one_mesh_get_the_sequential_answers(hp_mesh_01, halfplane):
    # Each query writes its source rows into the mesh's one spare room; the
    # mesh lock keeps another thread's rows out of a search in progress.
    mesh = hp_mesh_01
    rng = random.Random(31)
    work = [sample_pairs(halfplane.sample_points, rng, 60) for _ in range(2)]

    def answers(pairs):
        return [(r.distance, r.node_path) for r in (qh_distance(mesh, *p) for p in pairs)]

    want = [answers(pairs) for pairs in work]
    got = [None, None]

    def run(t):
        got[t] = answers(work[t])

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=run, args=(t,)) for t in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
    finally:
        sys.setswitchinterval(interval)
    assert got == want


@pytest.mark.parametrize("mesh_name", ["hp_mesh_01", "omega_mesh"])
def test_adjacent_nodes_distance_is_their_edge(request, mesh_name):
    # A near pair of joined mesh nodes must not count its edge twice.  A
    # stencil edge several cells long can lose to the path through the nodes
    # between, so equality is asserted for one-cell neighbours only.
    mesh = request.getfixturevalue(mesh_name)
    rng = random.Random(5)
    one_cell = 0
    for _ in range(100):
        i = rng.randrange(mesh.node_count)
        nbrs = mesh.neighbors(i)
        j = int(nbrs[rng.randrange(len(nbrs))])
        r = qh_distance(mesh, complex(mesh.coords[i]), complex(mesh.coords[j]))
        assert r.distance <= mesh.graph[i, j]
        assert r.distance == path_qh_length(mesh, r)
        if abs(mesh.coords[i] - mesh.coords[j]) <= min(mesh.spacing[i], mesh.spacing[j]):
            one_cell += 1
            assert r.distance == mesh.graph[i, j]
    assert one_cell >= 5


def test_pruned_plane_mesh_attaches_queries_to_their_cell():
    # The dropped nodes shift node ids, and a point next to a kept node must
    # still attach to it.
    mesh = _comb_mesh()
    assert mesh.stats["dropped_nodes"] > 0
    rng = random.Random(2)
    for _ in range(20):
        c = complex(mesh.coords[rng.randrange(mesh.node_count)])
        assert qh_distance(mesh, c + 1e-7 * (1 + 1j), c).distance < 1e-5


def test_distance_decreases_when_region_grows():
    # Convex ambient: a larger region has larger delta pointwise, so shared
    # edges get smaller qh weight.
    disk = DiskRegion(2j, 1.0)
    hp = make_region("halfplane")
    rng = random.Random(3)
    for _ in range(50):
        z = disk.sample_point(rng)
        w = disk.sample_point(rng)
        if z == w:
            continue
        d_small = disk.boundary_distance(z)
        d_big = hp.boundary_distance(z)
        assert d_small <= d_big + 1e-12
        w_small = abs(z - w) * (1 / disk.boundary_distance(z) + 1 / disk.boundary_distance(w)) / 2
        w_big = abs(z - w) * (1 / hp.boundary_distance(z) + 1 / hp.boundary_distance(w)) / 2
        assert w_big <= w_small + 1e-12


def test_query_point_outside_bbox_raises(pp_mesh_005):
    with pytest.raises(ConnectivityError):
        qh_distance(pp_mesh_005, 6 + 6j, 1 + 0j)


def test_query_point_outside_region_raises(hp_mesh_01):
    with pytest.raises(MembershipError):
        qh_distance(hp_mesh_01, 1 - 1j, 1j)


# ---------------------------------------------------------------------------
# convergence
# ---------------------------------------------------------------------------

def test_halfplane_convergence_trend(halfplane, hp_mesh_005):
    errs = []
    for g in (0.4, 0.2, 0.1):
        mesh = build_mesh(halfplane, g, HP_BBOX)
        k = qh_distance(mesh, 1j, 2j).distance
        errs.append(abs(k - LN2) / LN2)
    errs.append(abs(qh_distance(hp_mesh_005, 1j, 2j).distance - LN2) / LN2)
    # Halving the grading factor should not make things worse (small slack
    # for noise), and the finest level meets the 2 percent budget.
    for coarse, fine in zip(errs, errs[1:]):
        assert fine <= coarse + 0.01
    assert errs[-1] <= 0.02


def test_disk_mesh_matches_radial_oracle():
    # In the unit disk the density depends on |z| alone, so any path from the
    # center has QH length >= integral of d|z|/(1-|z|) and the radial segment
    # attains it: k(0, z) = -log(1 - |z|).  Curved-boundary quadtree check.
    disk = DiskRegion(0j, 1.0)
    mesh = build_mesh(disk, 0.1, max_depth=8)
    for target, rho in ((0.5 + 0j, 0.5), (0.3j, 0.3), (-0.6 + 0j, 0.6)):
        k = qh_distance(mesh, 0j, target).distance
        exact = -math.log(1.0 - rho)
        assert abs(k - exact) / exact <= 0.03


def test_polygon_mesh_builds_and_queries():
    square = PolygonRegion([0j, 2 + 0j, 2 + 2j, 2j])
    mesh = build_mesh(square, 0.15, max_depth=7)
    assert mesh.node_count > 50
    r = qh_distance(mesh, 0.5 + 1j, 1.5 + 1j)
    assert r.distance > 0.0
    assert r.distance == qh_distance(mesh, 1.5 + 1j, 0.5 + 1j).distance


# ---------------------------------------------------------------------------
# length-metric variant
# ---------------------------------------------------------------------------

def test_length_metric_collapses_on_halfplane(halfplane, hp_mesh_01):
    mesh_l = build_mesh(halfplane, 0.1, HP_BBOX, metric="length")
    a, b = 1j, 2j
    assert qh_distance(mesh_l, a, b).distance == qh_distance(hp_mesh_01, a, b).distance


def test_length_metric_sandwich_on_omega(omega, omega_mesh, omega_mesh_length):
    rng = random.Random(31)
    pairs = []
    while len(pairs) < 50:
        x = omega.sample_point(rng)
        y = omega.sample_point(rng)
        if abs(x - y) > 1e-9:
            pairs.append((x, y))
    ks = [r.distance for r in qh_distance_many(omega_mesh, pairs)]
    kps = [r.distance for r in qh_distance_many(omega_mesh_length, pairs)]
    c = 5.0
    for k, kp in zip(ks, kps):
        assert k / c <= kp * 1.05
        assert kp <= c * k * 1.05


def test_length_metric_deltas_dominate(omega, omega_mesh, omega_mesh_length):
    # delta <= delta' <= c delta node by node.
    d = omega_mesh.delta
    dp = omega_mesh_length.delta
    assert np.all(d <= dp + 1e-12)
    assert np.all(dp <= 5.0 * d + 1e-9)


# ---------------------------------------------------------------------------
# lemma suites
# ---------------------------------------------------------------------------

def test_lemma34_halfplane_oracle(halfplane):
    report = lemma34_check(halfplane, AnalyticBackend(halfplane), count=200, seed=7)
    assert report.passed, report.violations[:3]


def test_lemma34_punctured_oracle(punctured):
    report = lemma34_check(punctured, AnalyticBackend(punctured), count=200, seed=7)
    assert report.passed, report.violations[:3]


def test_lemma34_omega_mesh(omega, omega_mesh):
    report = lemma34_check(omega, MeshBackend(omega_mesh), count=120, seed=7)
    assert report.passed, report.violations[:3]


def test_lemma36_oracle_domains(halfplane, punctured):
    for region in (halfplane, punctured):
        report = lemma36_check(region, None, None, count=150, seed=7)
        assert report.passed, report.violations[:3]


def test_lemma36_omega(omega, omega_mesh, omega_mesh_length):
    report = lemma36_check(omega, omega_mesh, omega_mesh_length, count=120, seed=7)
    assert report.passed, report.violations[:3]


class _UnitBackend:
    def distance_pairs(self, pairs):
        return [1.0] * len(pairs)


def test_lemma34_skips_only_toolkit_errors_of_component_ball(monkeypatch, omega):
    def fail(exc):
        def component_ball(*args, **kwargs):
            raise exc
        return component_ball

    monkeypatch.setattr(qhgraph, "component_ball", fail(ResolutionError("too coarse")))
    report = lemma34_check(omega, _UnitBackend(), count=20, seed=7)
    assert report.checked == 20
    monkeypatch.setattr(qhgraph, "component_ball", fail(ZeroDivisionError("bug")))
    with pytest.raises(ZeroDivisionError):
        lemma34_check(omega, _UnitBackend(), count=20, seed=7)


class _ScaledBackend(AnalyticBackend):
    """The analytic k_G times a constant: a wrong backend every bound must catch."""

    def __init__(self, region, scale):
        super().__init__(region)
        self.scale = scale

    def distance_pairs(self, pairs):
        return [self.scale * k for k in super().distance_pairs(pairs)]


VIOLATION_KEYS = {
    "3.4(1)": {"lemma", "index", "x", "y", "value", "bound"},
    "3.4(2)": {"lemma", "index", "x", "y", "z", "t", "value", "lo", "hi"},
    "3.4(3)": {"lemma", "index", "x", "y", "value", "lo", "hi"},
    "3.6(1)": {"lemma", "index", "x", "y", "d", "sep"},
    "3.6(2)": {"lemma", "index", "x", "y", "k", "kprime"},
}


def test_forced_violations_keep_their_fields_and_failed_rows(halfplane):
    # Shrinking k breaks the growth bound (1); inflating it breaks the upper
    # sides of (2) and (3); c < 1 breaks both length-metric sandwiches.
    reports = [lemma34_check(halfplane, _ScaledBackend(halfplane, s), count=40, seed=7)
               for s in (0.01, 100.0)]
    reports.append(lemma36_check(halfplane, None, None, count=40, seed=7, c=0.5))
    seen = set()
    for report in reports:
        assert sum(1 for row in report.rows if row[-1] == 0) == len(report.violations) > 0
        for v in report.violations:
            assert set(v) == VIOLATION_KEYS[v["lemma"]]
            seen.add(v["lemma"])
    assert seen == set(VIOLATION_KEYS)
