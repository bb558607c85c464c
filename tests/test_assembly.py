"""Plane- and complex-mesh assembly against the symmetric-COO assembly it
replaced, and the traced memory of a plane build."""
import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings, strategies as st
from scipy.sparse.csgraph import connected_components

from qhkit import build_mesh, qhgraph
from qhkit.qhgraph import _assemble_mesh, _segment_weights, _unique_pairs
from qhkit.scenarios import make_region
from qhkit.spaces import HalfPlaneRegion

from conftest import HP_BBOX, PP_BBOX
from test_qhgraph import _COMB, _WalledHalfPlane


def coo_assembly(region, coords, delta, spacing, pu, pv):
    """The assembly that _assemble_mesh replaced: the segment filter and the
    weights over the whole pair list, a COO of [pu, pv]/[pv, pu], components
    of the full graph, then graph[keep][:, keep]."""
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
    mesh = (build_mesh(_WalledHalfPlane(), 0.2, HP_BBOX) if name == "walled"
            else build_mesh(_COMB, 0.3, max_depth=6))
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
    # Points on a small grid, so some coincide (0.0 weights) and the wall
    # rejects some pairs; loops and repeats are dropped by _unique_pairs.
    points, pairs = case
    coords = np.array([complex(x, y) for x, y in points])
    pairs = [(a, b) for a, b in pairs if a != b]
    pu, pv = _sorted_pairs(pairs, len(coords))
    assert pu.dtype == pv.dtype == np.int32
    assert list(zip(pu.tolist(), pv.tolist())) == sorted({(min(p), max(p)) for p in pairs})
    assert_assembly_matches(_WalledHalfPlane(), coords, coords.imag, np.full(len(coords), 0.5),
                            pu, pv)


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
    assert peak <= 4.5 * final
