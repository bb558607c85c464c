"""The plane stencil's pairs, bit for bit, against the per-offset stencil and
the sort-all dedupe it replaced (stencil_reference.py): the pairs that
_build_plane_mesh hands to _assemble_mesh, on the benchmark meshes, the
polygons and drawn regions, bboxes and gradings down to depth 24."""
import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from qhkit import ConfigurationError, build_mesh, qhgraph
from qhkit.scenarios import default_mesh_params, make_region
from qhkit.spaces import DiskRegion, HalfPlaneRegion, PuncturedPlaneRegion

import stencil_reference as ref
from test_qhgraph import _COMB, _HOLED, _L_SHAPE


def _captured_pairs(build):
    """Run build() with _refine and _assemble_mesh watched: the leaves
    (keys, D, I, J) of each plane build and the pairs it assembles."""
    leaves, pairs = [], []
    refine, assemble = qhgraph._refine, qhgraph._assemble_mesh

    def refine_spy(*args):
        out = refine(*args)
        leaves.append(out[:4])
        return out

    def assemble_spy(*args):
        pairs.append(args[6:8])
        return assemble(*args)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(qhgraph, "_refine", refine_spy)
        mp.setattr(qhgraph, "_assemble_mesh", assemble_spy)
        build()
    return leaves, pairs


def assert_stencil_matches(build):
    (leaves,), ((pu, pv),) = _captured_pairs(build)
    want = ref.plane_pairs(*leaves)
    assert pu.dtype == pv.dtype == np.int32
    assert (pu.tobytes(), pv.tobytes()) == (want[0].tobytes(), want[1].tobytes())


def test_forward_stencil_rows_hold_the_offsets():
    forward = {(di, dj) for dj, dis in qhgraph._STENCIL_ROWS for di in dis}
    offsets = qhgraph._BASE_OFFSETS + qhgraph._RAY_OFFSETS
    assert len(forward) == len(offsets) == 32
    assert forward == {(di, dj) if dj > 0 or (dj == 0 and di > 0) else (-di, -dj)
                       for di, dj in offsets}


_BENCHMARK = {
    "halfplane": ("halfplane", 0.05),
    "punctured": ("punctured", 0.05),
    "disk": ("disk", None),
}


@pytest.mark.parametrize("name", sorted(_BENCHMARK))
def test_benchmark_plane_meshes_match_the_per_offset_stencil(name):
    domain, grading = _BENCHMARK[name]
    p = default_mesh_params(domain)
    assert_stencil_matches(lambda: build_mesh(make_region(domain), grading or p["grading_factor"],
                                              p["bbox"], max_depth=p["max_depth"]))


@pytest.mark.parametrize("metric", ["euclidean", "length"])
def test_complex_mesh_pairs_match_the_sort_all_dedupe(monkeypatch, metric):
    # The two frame-omega meshes of the benchmark dedupe their steps through
    # _unique_pairs alone.
    calls = []
    unique = qhgraph._unique_pairs

    def spy(u, v):
        out = unique(u, v)
        calls.append((u, v, out))
        return out

    monkeypatch.setattr(qhgraph, "_unique_pairs", spy)
    p = default_mesh_params("frame-omega")
    mesh = build_mesh(make_region("frame-omega"), p["grading_factor"], metric=metric,
                      max_depth=p["max_depth"])
    (u, v, (lo, hi)), = calls
    want = ref.unique_pairs(u, v, int(max(u.max(), v.max())) + 1)
    assert (lo.tobytes(), hi.tobytes()) == (want[0].tobytes(), want[1].tobytes())
    assert mesh.edge_count == len(lo)


@pytest.mark.parametrize("region, grading, max_depth", [
    (_L_SHAPE, 0.3, 12), (_L_SHAPE, 0.2, 7), (_COMB, 0.3, 6), (_HOLED, 0.3, 7)],
    ids=["l-shape-0.3-12", "l-shape-0.2-7", "comb-0.3-6", "holed-0.3-7"])
def test_polygon_meshes_match_the_per_offset_stencil(region, grading, max_depth):
    assert_stencil_matches(lambda: build_mesh(region, grading, max_depth=max_depth))


@pytest.mark.parametrize("grading, bbox, max_depth", [
    (0.5, (10.0, 11.0, 10.0, 11.0), 12), (0.5, (10.0, 11.0, 10.0, 10.4), 12),
    (0.4, (-0.7, 0.3, -0.2, 0.8), 24), (0.3, (0.0, 1.0, -0.5, 0.5), 24)],
    ids=["one-leaf", "two-leaves", "depth-24", "depth-24-column-0"])
def test_punctured_builds_match_the_per_offset_stencil(grading, bbox, max_depth):
    # One leaf and no pair; two leaves and one same-depth pair; and leaves
    # down to depth 24 around the puncture, in the last build in column 0 of
    # every depth, where the windows of rows to the left start before it.
    assert_stencil_matches(lambda: build_mesh(PuncturedPlaneRegion(), grading, bbox,
                                              max_depth=max_depth))


# Regions with a line or circle boundary refine along all of it, so their
# builds stop at depth 9; the punctured plane refines around one point and
# goes down to depth 24.
_GRADING = st.floats(0.15, 0.5)


@st.composite
def plane_builds(draw):
    kind = draw(st.sampled_from(["punctured", "halfplane", "disk", "polygon"]))
    grading = draw(_GRADING)
    if kind == "polygon":
        region = draw(st.sampled_from([_L_SHAPE, _COMB, _HOLED]))
        return region, grading, None, draw(st.integers(1, 8))
    if kind == "disk":
        region = DiskRegion(complex(draw(st.floats(-3, 3)), draw(st.floats(-3, 3))),
                            draw(st.floats(0.1, 4.0)))
        return region, grading, None, draw(st.integers(1, 8))
    # A bbox of w x h whose left and bottom edges lie a fraction fx, fy of the
    # way before the boundary; fx = 0 puts the finest leaves in column 0,
    # where the windows of rows to the left start before column 0.
    w, h = draw(st.floats(0.05, 8.0)), draw(st.floats(0.05, 8.0))
    fx = draw(st.sampled_from([0.0, 1e-9]) | st.floats(0.0, 1.0))
    fy = draw(st.sampled_from([0.0, 1e-9]) | st.floats(0.0, 1.0))
    if kind == "punctured":
        return (PuncturedPlaneRegion(), grading, (-fx * w, (1 - fx) * w, -fy * h, (1 - fy) * h),
                draw(st.sampled_from([24, 23]) | st.integers(1, 24)))
    # Half-plane bboxes start above the line, so the depth stays small.
    y0 = draw(st.floats(0.01, 1.0))
    return (HalfPlaneRegion(), grading, (-fx * w, (1 - fx) * w, y0, y0 + h),
            draw(st.integers(1, 9)))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(plane_builds())
def test_drawn_plane_builds_match_the_per_offset_stencil(case):
    region, grading, bbox, max_depth = case
    build = lambda: build_mesh(region, grading, bbox, max_depth=max_depth)  # noqa: E731
    try:
        assert_stencil_matches(build)
    except ConfigurationError:  # no leaf in the bbox
        assume(False)
