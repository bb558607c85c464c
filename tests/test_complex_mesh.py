"""Curve-complex meshes: pinned Euclidean digests and the recursive builder
that the cut sweep replaced, as a reference.

The digests were recorded with the builder that cut each piece by recursive
halving and tested each cut with the scalar `contains`; the reference
builder takes each node's delta from the scalar code of query_reference.py.
They cover every
array of the mesh, the piece registry, the coordinate index and the
`capped_cells` count; the length-metric meshes are pinned in
test_complex_table.py.
"""
import hashlib
import random

import numpy as np
import pytest

from qhkit import ConfigurationError, CurveComplexSpace, Segment, build_mesh
from qhkit.qhgraph import _assemble_mesh, _unique_pairs
from qhkit.scenarios import default_mesh_params, make_region
from qhkit.spaces import COORD_TOL, CurveRegion, _coord_key

import region_reference as rr
from query_reference import region_delta
from test_complex_table import random_complex

EUCLIDEAN_MESH_SHA256 = {
    "frame-omega": "7a3ee4eb0d07bff0a601c335e6805497349c97f34a0253a78e3cd05a6ccb3bff",
    "frame-bottom": "6cf000116d3bc0304b530706f275410f40b2f71cadf8eda22aee9d3d998647b2",
}


def mesh_digest(mesh) -> str:
    """sha256 of the mesh arrays, the CSR graph, the piece registry, the
    coordinate index in insertion order and capped_cells."""
    h = hashlib.sha256()
    g = mesh.graph
    for a, dtype in ((mesh.coords, "<c16"), (mesh.delta, "<f8"), (mesh.spacing, "<f8"),
                     (g.indptr, "<i8"), (g.indices, "<i8"), (g.data, "<f8")):
        h.update(np.ascontiguousarray(a, dtype=dtype).tobytes())
    for cuts, ids in mesh._piece_registry:
        h.update(b"|" + np.array(cuts, dtype="<f8").tobytes() + np.array(ids, dtype="<i8").tobytes())
    h.update(b"|" + np.array(list(mesh._node_of), dtype="<f8").tobytes()
             + np.array(list(mesh._node_of.values()), dtype="<i8").tobytes())
    h.update(str(mesh.stats["capped_cells"]).encode())
    return h.hexdigest()


@pytest.mark.parametrize("name", sorted(EUCLIDEAN_MESH_SHA256))
def test_frame_euclidean_mesh_digest(name):
    mesh = build_mesh(make_region(name), 0.05, metric="euclidean", max_depth=12)
    assert mesh_digest(mesh) == EUCLIDEAN_MESH_SHA256[name]


def assert_edges_inside(mesh):
    """segments_inside_many holds on every edge: _assemble_mesh tests no
    complex step, so the steps _cut_pieces makes must all be open."""
    g = mesh.graph.tocoo()
    assert mesh.region.segments_inside_many(mesh.coords[g.row], mesh.coords[g.col]).all()
    assert mesh.stats["segment_tests"] == mesh.stats["segment_rejections"] == 0


@pytest.mark.parametrize("metric", ["euclidean", "length"])
@pytest.mark.parametrize("name", sorted(EUCLIDEAN_MESH_SHA256))
def test_frame_mesh_edges_stay_inside(name, metric):
    p = default_mesh_params(name)
    assert_edges_inside(build_mesh(make_region(name), p["grading_factor"], metric=metric,
                                   max_depth=p["max_depth"]))


# ---------------------------------------------------------------------------
# Reference: the recursive cuts and the per-cut scalar builder
# ---------------------------------------------------------------------------

def recursive_piece_cuts(region: CurveRegion, seg, grading: float,
                         max_depth: int) -> tuple[list[float], int]:
    cuts = {0.0, seg.length}
    for bp in region.boundary_points:
        s, d = rr.project_segment(bp, seg.a, seg.b)
        if d <= COORD_TOL:
            cuts.add(s)
    base = sorted(cuts)
    min_len = seg.length / (1 << max_depth)

    def split(lo: float, hi: float) -> int:
        L = hi - lo
        mid = seg.point_at((lo + hi) / 2.0)
        gap = region.boundary_gap(mid)
        if L <= grading * gap:
            return 0
        if L <= min_len:
            return 1
        m = (lo + hi) / 2.0
        cuts.add(m)
        return split(lo, m) + split(m, hi)

    capped = sum(split(lo, hi) for lo, hi in zip(base, base[1:]))
    return sorted(cuts), capped


def scalar_complex_mesh(region: CurveRegion, grading: float, metric: str, max_depth: int):
    node_of: dict = {}
    coords, delta, spacing, registry, pairs = [], [], [], [], []
    capped = 0
    for seg in region.pieces:
        cuts, piece_capped = recursive_piece_cuts(region, seg, grading, max_depth)
        capped += piece_capped
        ids = []
        for k, s in enumerate(cuts):
            p = seg.point_at(s)
            if not region.contains(p):
                ids.append(-1)
                continue
            key = _coord_key(p)
            if key in node_of:
                nid = node_of[key]
            else:
                nid = len(coords)
                node_of[key] = nid
                coords.append(p)
                delta.append(region_delta(region, metric, p))
                spacing.append(0.0)
            ids.append(nid)
            gap = max(cuts[k] - cuts[k - 1] if k > 0 else 0.0,
                      cuts[k + 1] - cuts[k] if k + 1 < len(cuts) else 0.0)
            spacing[nid] = max(spacing[nid], gap)
        for a, b in zip(ids, ids[1:]):
            if a >= 0 and b >= 0 and a != b:
                pairs.append((a, b))
        registry.append((cuts, ids))
    if len(coords) < 2:
        raise ConfigurationError("grading left fewer than two usable mesh nodes")
    pu, pv = _unique_pairs(*np.array(pairs, dtype=np.int64).reshape(-1, 2).T)
    mesh, keep, _, _ = _assemble_mesh(region, grading, metric,
                                      np.array(coords, dtype=np.complex128),
                                      np.array(delta, dtype=np.float64),
                                      np.array(spacing, dtype=np.float64), pu, pv)
    remap = np.where(keep, np.cumsum(keep) - 1, -1)
    mesh._piece_registry = [(cuts, [int(remap[i]) if i >= 0 else -1 for i in ids])
                            for cuts, ids in registry]
    mesh._node_of = {k: int(remap[i]) for k, i in node_of.items() if keep[i]}
    mesh.stats["capped_cells"] = capped
    return mesh


def random_curve_region(rng: random.Random) -> CurveRegion:
    """A random complex less 1-4 boundary points, some of them piece corners."""
    space = random_complex(rng)
    corners = [p for seg in space.segments for p in (seg.a, seg.b)]
    boundary = [rng.choice(corners) if rng.random() < 0.25 else space.sample_point(rng)
                for _ in range(rng.randint(1, 4))]
    return CurveRegion(space, space.segments, boundary, name="random")


def swept_complex_mesh(region: CurveRegion, grading: float, metric: str, max_depth: int):
    return build_mesh(region, grading, metric=metric, max_depth=max_depth)


def build_or_error(build, *args):
    try:
        return build(*args)
    except ConfigurationError as exc:
        return f"ConfigurationError: {exc}"


@pytest.mark.parametrize("seed", range(8))
def test_cut_sweep_matches_the_recursive_builder(seed):
    region = random_curve_region(random.Random(seed))
    for grading in (0.05, 0.2, 0.5):
        for metric in ("euclidean", "length"):
            for max_depth in (6, 12):
                case = (grading, metric, max_depth)
                want = build_or_error(scalar_complex_mesh, region, *case)
                got = build_or_error(swept_complex_mesh, region, *case)
                if isinstance(want, str):
                    assert got == want, case
                    continue
                assert_edges_inside(got)
                assert mesh_digest(got) == mesh_digest(want), case
                for key in ("nodes", "edges", "components", "dropped_nodes",
                            "segment_rejections", "capped_cells"):
                    assert got.stats[key] == want.stats[key], (case, key)


def test_piece_shorter_than_the_coordinate_key_adds_no_loop():
    # The stub's two ends share the _coord_key of the corner 1, so its one
    # step joins a node to itself; the builder must drop it.
    space = CurveComplexSpace([Segment(0j, 1 + 0j), Segment(1 + 0j, 1 + 1e-12 + 0j),
                               Segment(1 + 0j, 1 + 1j)])
    region = CurveRegion(space, space.segments, [0.5 + 0j], name="stub")
    for metric in ("euclidean", "length"):
        got = build_mesh(region, 0.1, metric=metric, max_depth=8)
        want = scalar_complex_mesh(region, 0.1, metric, 8)
        assert mesh_digest(got) == mesh_digest(want)
        g = got.graph.tocoo()
        assert got.edge_count == want.edge_count and not (g.row == g.col).any()


def test_curve_region_needs_a_piece():
    space = CurveComplexSpace([Segment(0j, 1 + 0j)])
    with pytest.raises(ConfigurationError, match="at least one piece"):
        CurveRegion(space, [], [0.5 + 0j])
