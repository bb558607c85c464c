"""Boundary-graded meshes and quasihyperbolic shortest paths.

A region is discretized into a weighted graph whose edge weights approximate
the line integral of 1/delta_G, so shortest-path distances converge to k_G as
the grading factor shrinks (essentially from above: the restricted curve
family biases upward, quadrature can shave a sliver back).  Plane regions get
a quadtree refined until cell size <= grading * delta at the cell center;
curve complexes get an adaptive polyline subdivision.  Analytic oracles for
the half-plane and the punctured plane back every accuracy claim, and the
inequality suites for the comparison lemmas live next to the machinery they
exercise.
"""
from __future__ import annotations

import cmath
import math
import random
import sys
import threading
from bisect import bisect_left
from dataclasses import dataclass, field
from time import perf_counter
from typing import Optional, Sequence, Union

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import connected_components, dijkstra

from .errors import (
    ConfigurationError,
    ConnectivityError,
    MembershipError,
    QhkitError,
)
from .spaces import (
    COORD_TOL,
    CurveRegion,
    HalfPlaneRegion,
    PuncturedPlaneRegion,
    Region,
    _coord_key,
    as_point,
    component_ball,
    disk_point,
    sample_pairs,
)

# Same-level stencil: all Chebyshev-<=3 offsets plus the (4,1)/(4,3) ray
# directions.  8-neighbor connectivity alone quantizes directions to 45
# degrees and caps shortest-path accuracy near 8 percent; this set brings the
# worst directional overshoot under 1 percent.
_BASE_OFFSETS = [(di, dj) for di in range(-3, 4) for dj in range(-3, 4)
                 if (di > 0 or (di == 0 and dj > 0))]
_RAY_OFFSETS = [(4, 1), (4, -1), (4, 3), (4, -3), (3, 4), (3, -4), (1, 4), (1, -4)]
_TOUCH_DIRS = [(-1, -1), (-1, 0), (-1, 1), (0, -1), (0, 1), (1, -1), (1, 0), (1, 1)]

DEFAULT_GRADING = 0.1
DEFAULT_MAX_DEPTH = 12


@dataclass(frozen=True)
class PathResult:
    """Shortest-path answer: QH distance, node chain, and Euclidean length.

    distance equals the sum of the _segment_weights of node_path's segments
    exactly (see path_qh_length), and endpoint_spacing records the local
    mesh size at the two query points as the error budget.
    """

    distance: float
    node_path: tuple[complex, ...]
    euclidean_length: float
    endpoint_spacing: tuple[float, float]


class QhMesh:
    """Graded graph over a region with quasihyperbolic edge weights.

    The graph's content never changes once built.  Its CSR indices and data
    may sit at the head of larger private buffers, whose spare room after
    graph.nnz holds the source rows of the query in progress (see
    _with_source_rows); _lock serialises the queries that use it.
    """

    def __init__(self, region: Region, grading: float, metric: str,
                 coords: np.ndarray, delta: np.ndarray, spacing: np.ndarray,
                 graph: sp.csr_matrix, stats: dict):
        self.region = region
        self.grading = grading
        self.metric = metric
        self.coords = coords
        self.delta = delta
        self.spacing = spacing
        self.graph = graph  # symmetric CSR: each undirected edge stored both ways
        self.stats = stats
        # graph.indices and graph.data are the first graph.nnz entries of these.
        self._indices, self._data = graph.indices, graph.data
        self._lock = threading.Lock()
        # Filled by the builders.  Plane quadtrees: the root cell (x0, y0, size)
        # and the sorted cell keys, node i owning the i-th.  Curve complexes:
        # the piece registry and the coordinate index of the nodes.
        self._root = (0.0, 0.0, 0.0)
        self._keys = np.zeros(0, dtype=np.int64)
        self._piece_registry: list[tuple[list[float], list[int]]] = []
        self._node_of: dict[tuple[float, float], int] = {}

    @property
    def node_count(self) -> int:
        return len(self.coords)

    @property
    def edge_count(self) -> int:
        return self.graph.nnz // 2

    def delta_at(self, z: complex) -> float:
        return _region_delta(self.region, self.metric, z)

    def neighbors(self, u: int) -> np.ndarray:
        g = self.graph
        return g.indices[g.indptr[u]:g.indptr[u + 1]]

    def _host_cell(self, z: complex) -> Optional[int]:
        """The plane-mesh node whose quadtree cell holds z, or None."""
        x0, y0, s0 = self._root
        d = np.arange((self._keys[-1] >> (2 * _KEY_BITS)) + 1)
        # Clipping keeps far points out of float and int64 overflow; _find
        # rejects them.
        off = np.clip(np.array([[z.real - x0], [z.imag - y0]]), -s0, 2.0 * s0)
        i, j = np.clip(np.floor(off / (s0 / (1 << d))), -1, 1 << _KEY_BITS).astype(np.int64)
        return next((int(h) for h in _find(self._keys, d, i, j) if h >= 0), None)

    def exact_node(self, z: complex) -> Optional[int]:
        if self._piece_registry:
            return self._node_of.get(_coord_key(z))
        host = self._host_cell(z)
        exact = host is not None and _coord_key(self.coords[host]) == _coord_key(z)
        return host if exact else None

    def __repr__(self) -> str:
        return (f"QhMesh({self.region.name}, grading={self.grading}, metric={self.metric}, "
                f"nodes={self.node_count}, edges={self.edge_count})")


# ---------------------------------------------------------------------------
# Builders
# ---------------------------------------------------------------------------

def _segment_weights(A, dA, B, dB):
    """Trapezoid rule for the integral of 1/delta along each straight segment
    A -> B, with dA and dB the delta at its ends; arrays or scalars.  Every
    edge, anchor and segment weight in this module is this expression."""
    return np.abs(A - B) * (1.0 / dA + 1.0 / dB) / 2.0


def _region_delta(region: Region, metric: str, z: complex) -> float:
    """delta'_G(z) for length-metric meshes, delta_G(z) otherwise."""
    if metric == "length":
        return region.length_boundary_distance(z)
    return region.boundary_distance(z)


# Plane cells are keyed by one int64, (d, j, i) from the high bits down, so
# sorting keys sorts cells by depth, then row, then column.
_KEY_BITS = 25
MAX_PLANE_DEPTH = _KEY_BITS - 1


def build_mesh(region: Region, grading_factor: float = DEFAULT_GRADING,
               bbox: Optional[tuple[float, float, float, float]] = None, *,
               metric: str = "euclidean",
               max_depth: int = DEFAULT_MAX_DEPTH) -> QhMesh:
    """Discretize (G, delta_G) into a graded weighted graph.

    bbox = (x0, x1, y0, y1) clips unbounded plane regions and is mandatory for
    them, and for bounded regions other than disks and polygons; curve
    complexes ignore it.  metric="length" swaps delta_G for the length-metric
    boundary distance delta'_G in the edge weights; the plane is convex, so
    the two agree there and only curve complexes change.  Plane quadtrees
    refine to at most MAX_PLANE_DEPTH levels.  mesh.stats["stage_s"] holds
    the seconds of each build stage: refine, stencil, cross_depth, dedupe
    and assemble for plane meshes, cuts and assemble for curve complexes.
    """
    if not (0.0 < grading_factor <= 0.5):
        raise ConfigurationError("grading_factor must lie in (0, 0.5]")
    if metric not in ("euclidean", "length"):
        raise ConfigurationError(f"unknown metric {metric!r}")
    if isinstance(region, CurveRegion):
        return _build_complex_mesh(region, grading_factor, metric, max_depth)
    if max_depth > MAX_PLANE_DEPTH:
        raise ConfigurationError(f"max_depth must be at most {MAX_PLANE_DEPTH} for plane regions")
    return _build_plane_mesh(region, grading_factor, bbox, metric, max_depth)


def _cell_keys(d: np.ndarray, i: np.ndarray, j: np.ndarray) -> np.ndarray:
    return (d << (2 * _KEY_BITS)) | (j << _KEY_BITS) | i


def _find(keys: np.ndarray, d: np.ndarray, i: np.ndarray, j: np.ndarray) -> np.ndarray:
    """Index of each cell (d, i, j) in the sorted keys, or -1 for non-leaves."""
    size = 1 << d
    k = _cell_keys(d, i, j)
    pos = np.minimum(np.searchsorted(keys, k), len(keys) - 1)
    hit = (i >= 0) & (i < size) & (j >= 0) & (j < size) & (keys[pos] == k)
    return np.where(hit, pos, -1)


def _build_plane_mesh(region: Region, grading: float,
                      bbox: Optional[tuple[float, float, float, float]],
                      metric: str, max_depth: int) -> QhMesh:
    t0 = perf_counter()
    if bbox is None:
        if not region.bounded:
            raise ConfigurationError(
                f"region '{region.name}' is unbounded; a bbox is required")
        if hasattr(region, "center"):  # disk
            c, R = region.center, region.radius
            bbox = (c.real - R, c.real + R, c.imag - R, c.imag + R)
        elif hasattr(region, "outer"):  # polygon
            pts = region.outer
            bbox = (min(p.real for p in pts), max(p.real for p in pts),
                    min(p.imag for p in pts), max(p.imag for p in pts))
        else:
            raise ConfigurationError(
                f"region '{region.name}' has no default bbox; pass bbox=(x0, x1, y0, y1)")
    x0, x1, y0, y1 = map(float, bbox)
    if not (x1 > x0 and y1 > y0):
        raise ConfigurationError(f"degenerate bbox {bbox}")
    s0 = max(x1 - x0, y1 - y0)

    leaves: list[tuple[int, int, int, complex, float]] = []
    stack: list[tuple[int, int, int]] = [(0, 0, 0)]
    while stack:
        d, i, j = stack.pop()
        s = s0 / (1 << d)
        ox, oy = x0 + i * s, y0 + j * s
        if ox >= x1 or oy >= y1:
            continue  # no overlap with the bbox
        cx, cy = ox + s / 2.0, oy + s / 2.0
        c = complex(cx, cy)
        in_bbox = (x0 <= cx <= x1) and (y0 <= cy <= y1)
        if in_bbox and region.contains(c):
            dz = region.boundary_distance(c)
            if s <= grading * dz:
                leaves.append((d, i, j, c, dz))
                continue
        else:
            gap = region.boundary_gap(c)
            if not region.contains(c) and gap > s * math.sqrt(2.0) / 2.0:
                continue  # cell lies wholly outside G
        if d >= max_depth:
            continue  # unresolvable sliver hugging the boundary
        stack.extend(((d + 1, 2 * i, 2 * j), (d + 1, 2 * i + 1, 2 * j),
                      (d + 1, 2 * i, 2 * j + 1), (d + 1, 2 * i + 1, 2 * j + 1)))

    if not leaves:
        raise ConfigurationError("bbox does not intersect the region at this grading")

    D, I, J = (np.array(col, dtype=np.int64) for col in list(zip(*leaves))[:3])
    keys = _cell_keys(D, I, J)
    order = np.argsort(keys)
    keys, D, I, J = keys[order], D[order], I[order], J[order]
    coords = np.array([leaves[k][3] for k in order], dtype=np.complex128)
    delta = np.array([leaves[k][4] for k in order], dtype=np.float64)
    spacing = s0 / (1 << D)
    t1 = perf_counter()

    # Same-depth pairs: the stencil offsets are one-sided, so each pair once.
    ids = np.arange(len(keys))
    di, dj = (np.array(_BASE_OFFSETS + _RAY_OFFSETS).T)[:, :, None]
    v = _find(keys, D, I + di, J + dj)
    u = np.broadcast_to(ids, v.shape)
    us, vs = [u[v >= 0]], [v[v >= 0]]
    t2 = perf_counter()
    # Cross-depth pairs: for each leaf and touch direction, the finest strict
    # ancestor of the neighbour cell that is a leaf.  A neighbour cell that is
    # itself a leaf has no leaf ancestor, so it is settled at once.  Searching
    # from the finer side alone finds every touching pair of unequal depths.
    u = np.repeat(ids, len(_TOUCH_DIRS))
    dx, dy = np.tile(np.array(_TOUCH_DIRS).T, len(ids))
    ni, nj, du = I[u] + dx, J[u] + dy, D[u]
    open_ = _find(keys, du, ni, nj) < 0
    for k in range(1, int(D.max()) + 1):
        open_ &= du >= k
        u, ni, nj, du = u[open_], ni[open_], nj[open_], du[open_]
        v = _find(keys, du - k, ni >> k, nj >> k)
        open_ = v < 0
        us.append(u[~open_])
        vs.append(v[~open_])
    t3 = perf_counter()
    pu, pv = _unique_pairs(np.concatenate(us), np.concatenate(vs), len(keys))
    t4 = perf_counter()

    mesh, keep = _assemble_mesh(region, grading, metric, coords, delta, spacing, pu, pv)
    mesh._root = (x0, y0, s0)
    mesh._keys = keys[keep]
    g, Dk = mesh.graph, D[keep]
    rows = np.repeat(Dk, np.diff(g.indptr))
    mesh.stats["leaves_per_depth"] = {int(d): int(c) for d, c in
                                      enumerate(np.bincount(Dk)) if c}
    mesh.stats["cross_depth_edges"] = int(np.count_nonzero(rows != Dk[g.indices])) // 2
    mesh.stats["bbox"] = (x0, x1, y0, y1)
    mesh.stats["stage_s"] = {"refine": t1 - t0, "stencil": t2 - t1, "cross_depth": t3 - t2,
                             "dedupe": t4 - t3, "assemble": perf_counter() - t4}
    return mesh


def _unique_pairs(u: np.ndarray, v: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """The distinct unordered pairs as (lo, hi) arrays, sorted by lo, then hi."""
    key = np.sort(np.minimum(u, v) * n + np.maximum(u, v))
    key = key[np.diff(key, prepend=-1) != 0]
    return key // n, key % n


def _assemble_mesh(region: Region, grading: float, metric: str,
                   coords: np.ndarray, delta: np.ndarray, spacing: np.ndarray,
                   pu: np.ndarray, pv: np.ndarray) -> tuple[QhMesh, np.ndarray]:
    """The mesh over the largest component of the sorted distinct pairs
    (pu, pv) that pass the segment filter, and the mask of kept nodes."""
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
    return QhMesh(region, grading, metric, coords, delta, spacing, graph, stats), keep


def _build_complex_mesh(region: CurveRegion, grading: float, metric: str,
                        max_depth: int) -> QhMesh:
    t0 = perf_counter()
    node_of: dict[tuple[float, float], int] = {}
    coords: list[complex] = []
    delta: list[float] = []
    spacing: list[float] = []
    registry: list[tuple[list[float], list[int]]] = []
    pairs: list[tuple[int, int]] = []
    for seg in region.pieces:
        cuts = _piece_cuts(region, seg, grading, max_depth)
        ids: list[int] = []
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
                delta.append(_region_delta(region, metric, p))
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

    t1 = perf_counter()
    pu, pv = _unique_pairs(*np.array(pairs, dtype=np.int64).reshape(-1, 2).T, len(coords))
    mesh, keep = _assemble_mesh(region, grading, metric,
                                np.array(coords, dtype=np.complex128),
                                np.array(delta, dtype=np.float64),
                                np.array(spacing, dtype=np.float64), pu, pv)
    remap = np.where(keep, np.cumsum(keep) - 1, -1)
    mesh._piece_registry = [(cuts, [int(remap[i]) if i >= 0 else -1 for i in ids])
                            for cuts, ids in registry]
    mesh._node_of = {k: int(remap[i]) for k, i in node_of.items() if keep[i]}
    mesh.stats["stage_s"] = {"cuts": t1 - t0, "assemble": perf_counter() - t1}
    return mesh


def _piece_cuts(region: CurveRegion, seg, grading: float, max_depth: int) -> list[float]:
    cuts = {0.0, seg.length}
    for bp in region.boundary_points:
        s, d = seg.project(bp)
        if d <= COORD_TOL:
            cuts.add(s)
    base = sorted(cuts)
    min_len = seg.length / (1 << max_depth)

    def split(lo: float, hi: float) -> None:
        L = hi - lo
        mid = seg.point_at((lo + hi) / 2.0)
        gap = region.boundary_gap(mid)
        if L <= grading * gap or L <= min_len:
            return
        m = (lo + hi) / 2.0
        cuts.add(m)
        split(lo, m)
        split(m, hi)

    for lo, hi in zip(base, base[1:]):
        split(lo, hi)
    return sorted(cuts)


# ---------------------------------------------------------------------------
# Shortest-path queries
# ---------------------------------------------------------------------------

@dataclass
class _Attachment:
    """How a query point hooks into the mesh: an exact node or anchor edges."""
    point: complex                           # the node's coordinate for an exact node
    node: Optional[int]                      # exact mesh node id, if any
    anchors: list[tuple[int, float]] = field(default_factory=list)  # (node, weight)
    spacing: float = 0.0
    delta: float = 0.0


def _attach(mesh: QhMesh, z: complex) -> _Attachment:
    z = mesh.region.require_member(as_point(z), "query point")
    if mesh._piece_registry:
        nid = mesh.exact_node(z)
        return _node_attachment(mesh, nid) if nid is not None else _attach_complex(mesh, z)
    return _attach_plane(mesh, z)


def _node_attachment(mesh: QhMesh, nid: int) -> _Attachment:
    return _Attachment(complex(mesh.coords[nid]), nid, [], float(mesh.spacing[nid]),
                       float(mesh.delta[nid]))


def _attach_plane(mesh: QhMesh, z: complex) -> _Attachment:
    host = mesh._host_cell(z)
    if host is None:
        raise ConnectivityError(f"query point {z} is not covered by the mesh")
    if _coord_key(mesh.coords[host]) == _coord_key(z):
        return _node_attachment(mesh, host)
    dz = mesh.delta_at(z)
    cand = np.concatenate([[host], mesh.neighbors(host)])
    cand = cand[mesh.region.segments_inside_many(np.full(len(cand), z), mesh.coords[cand])]
    if not len(cand):
        raise ConnectivityError(f"query point {z} cannot be joined to the mesh")
    w = _segment_weights(z, dz, mesh.coords[cand], mesh.delta[cand])
    return _Attachment(z, None, list(zip(cand.tolist(), w.tolist())),
                       float(mesh.spacing[host]), dz)


def _attach_complex(mesh: QhMesh, z: complex) -> _Attachment:
    region: CurveRegion = mesh.region  # type: ignore[assignment]
    loc = region.locate(z)
    if loc is None:
        raise MembershipError(f"query point {z} is not on the complex")
    pi, s = loc
    cuts, ids = mesh._piece_registry[pi]
    pos = bisect_left(cuts, s)
    for k in (pos - 1, pos, pos + 1):
        if 0 <= k < len(cuts) and abs(cuts[k] - s) <= 1e-12 and ids[k] >= 0:
            return _node_attachment(mesh, ids[k])
    ks = [k for k in (pos - 1, pos) if 0 <= k < len(cuts) and ids[k] >= 0]
    if not ks:
        raise ConnectivityError(f"query point {z} is isolated by the boundary")
    dz = mesh.delta_at(z)
    anchors = [(ids[k], float(_segment_weights(z, dz, mesh.coords[ids[k]], mesh.delta[ids[k]])))
               for k in ks]
    return _Attachment(z, None, anchors, max(abs(cuts[k] - s) for k in ks), dz)


def _canonical(x: complex, y: complex) -> bool:
    """True when (x, y) is already in canonical order (makes queries symmetric)."""
    return (x.real, x.imag) <= (y.real, y.imag)


def qh_distance(m: QhMesh, x, y, stats: Optional[dict] = None) -> PathResult:
    """Mesh quasihyperbolic distance between two region points.

    A query point that is not a mesh node joins the mesh through edges to
    its anchors (the host cell's node and its mesh neighbours that it sees
    along a segment inside G), so the reported distance is for the exact
    endpoints.  Endpoints a few cells apart also compare the straight
    segment between them.  Every one of these segments and every mesh edge
    weighs _segment_weights.  The distance converges to k_G as the grading
    factor shrinks; restricting to graph paths biases it upward, and
    trapezoid quadrature can offset a sliver of that on edges where 1/delta
    is concave.  stats is filled as by qh_distance_many.
    """
    return qh_distance_many(m, [(x, y)], stats)[0]


def qh_distance_many(m: QhMesh, pairs: Sequence[tuple],
                     stats: Optional[dict] = None) -> list[PathResult]:
    """qh_distance for each pair, with one Dijkstra search per source.

    Each answer is the one qh_distance gives for its pair alone: a source
    that is not a mesh node gets its own appended CSR row of out-edges to
    its anchors, so no pair's endpoints are on another pair's paths; a
    target is resolved as the minimum of dist[a] + w(a, target) over its
    anchors.

    Each source stops at a limit.  A source with a finite landmark bound
    from the rows already searched (ALT search, see _Limits) takes it.  On
    a plane mesh, any other source, the first one included, guesses its
    limit from the straight segments of its pairs (see _segment_guess);
    curve complexes and sources with a segment leaving G search the whole
    graph.  scipy drops only the relaxations above the limit, so every
    vertex within it settles through the same relaxations as in a full
    search: a limited row is exact wherever it is finite, and an answer
    within the limit, the near-pair straight segment included, is the full
    search's.  A guess can be too small: a row with an answer above the
    limit is searched again up to its largest answer, and a row with a
    target not reached is searched again in full, so the answers do not
    change.  Each row is unwound and folded into the bounds right after its
    search, so one row is held at a time.

    The source rows are written into spare room after the mesh's own CSR
    entries (see _with_source_rows), so calls on one mesh run one at a
    time: each holds the mesh's lock from appending its rows to its last
    search.  Calls on different meshes do not wait for each other.

    stats, when given, receives the counts sources, appended_rows, anchors
    (over the distinct endpoints), dijkstra_full and dijkstra_limited (the
    searches by their limit, reruns included), dijkstra_guessed (searches
    whose limit is a segment guess), dijkstra_retried (searches run again
    after a guess missed) and reached (finite distances summed over the
    searches), and the seconds attach_s (endpoints and appended rows),
    bound_s (limits, guesses and slacks), dijkstra_s and unwind_s.
    """
    t0 = perf_counter()
    atts: dict[tuple[float, float], _Attachment] = {}

    def attach(p: complex) -> _Attachment:
        k = _coord_key(p)
        if k not in atts:
            atts[k] = _attach(m, p)
        return atts[k]

    todo = []
    for a, b in pairs:
        a, b = as_point(a), as_point(b)
        swap = not _canonical(a, b)
        if swap:
            a, b = b, a
        todo.append((a, b, attach(a), attach(b), swap))

    n = m.node_count
    vertex: dict[tuple[float, float], int] = {}  # source point -> graph vertex
    appended: list[_Attachment] = []              # sources with their own CSR row
    for a, _, att_a, att_b, _ in todo:
        k = _coord_key(a)
        if att_a is not att_b and k not in vertex:
            vertex[k] = n + len(appended) if att_a.node is None else att_a.node
            if att_a.node is None:
                appended.append(att_a)
    sources = sorted(set(vertex.values()))
    row_of = {s: r for r, s in enumerate(sources)}
    jobs: list[list[int]] = [[] for _ in sources]  # the pairs of each source row
    results: list[Optional[PathResult]] = [None] * len(todo)
    for i, (a, b, att_a, att_b, swap) in enumerate(todo):
        if att_a is att_b:
            spacing = (att_b.spacing, att_a.spacing) if swap else (att_a.spacing, att_b.spacing)
            results[i] = PathResult(0.0, (b if swap else a,), 0.0, spacing)
        else:
            jobs[row_of[vertex[_coord_key(a)]]].append(i)
    with m._lock:  # the appended rows live in the mesh's spare room
        graph = _with_source_rows(m, appended)
        t1 = perf_counter()
        limits = _Limits(m.graph, [todo[js[0]][2] for js in jobs],
                         [[todo[i][3] for i in js] for js in jobs]) if len(sources) > 1 else None
        counts = dict.fromkeys(("dijkstra_full", "dijkstra_limited", "dijkstra_guessed",
                                "dijkstra_retried", "reached"), 0)
        times = dict(attach_s=t1 - t0, bound_s=perf_counter() - t1, dijkstra_s=0.0, unwind_s=0.0)

        def coord_of(v: int) -> complex:
            return m.coords[v] if v < n else appended[v - n].point

        def search(r: int, src: int, limit: float) -> np.ndarray:
            t1 = perf_counter()
            dist, pred = dijkstra(graph, directed=True, indices=[src],
                                  return_predecessors=True, limit=limit)
            dist, pred = dist[0], pred[0]
            t2 = perf_counter()
            for i in jobs[r]:
                results[i] = _unwind(m, todo[i], src, dist, pred, coord_of)
            times["dijkstra_s"] += t2 - t1
            times["unwind_s"] += perf_counter() - t2
            counts["dijkstra_limited" if limit < np.inf else "dijkstra_full"] += 1
            if stats is not None:
                counts["reached"] += int(np.count_nonzero(np.isfinite(dist)))
            return dist

        for r, src in enumerate(sources):
            t0 = perf_counter()
            limit = limits.limit(r) if r else np.inf
            if limit == np.inf and not m._piece_registry:
                limit = _segment_guess(m, [todo[i] for i in jobs[r]])
                counts["dijkstra_guessed"] += limit < np.inf
            times["bound_s"] += perf_counter() - t0
            dist = search(r, src, limit)
            # A limited row is exact wherever it is finite, so an answer within
            # the limit is the full search's; a guess can be too small.
            worst = max(np.inf if results[i] is None else results[i].distance for i in jobs[r])
            if worst > limit:
                counts["dijkstra_retried"] += 1
                dist = search(r, src, worst * (1.0 + 1e-9))
            t0 = perf_counter()
            if r + 1 < len(sources):
                limits.add_row(r, dist)
            times["bound_s"] += perf_counter() - t0
    if stats is not None:
        stats.update(sources=len(sources), appended_rows=len(appended),
                     anchors=sum(len(att.anchors) for att in atts.values()), **counts, **times)
    for (a, b, *_), result in zip(todo, results):
        if result is None:
            raise ConnectivityError(f"endpoints {a} and {b} lie in different mesh components")
    return results


class _Ends:
    """The anchors and weights of a list of endpoints, concatenated; an exact
    node is its own anchor with weight 0."""

    def __init__(self, atts: list[_Attachment]):
        ends = [[(a.node, 0.0)] if a.node is not None else a.anchors for a in atts]
        self.sizes = [len(e) for e in ends]
        self.starts = np.cumsum([0] + self.sizes[:-1])
        self.nodes = np.array([v for e in ends for v, _ in e], dtype=np.intp)
        self.weights = np.array([w for e in ends for _, w in e])

    def reach(self, dist: np.ndarray) -> np.ndarray:
        """min over each endpoint's anchors a of dist[a] + w_a."""
        return np.minimum.reduceat(dist[self.nodes] + self.weights, self.starts)


class _Limits:
    """Dijkstra limits of the source rows, from the rows searched before them.

    Through the source of row r, with D its distance row,
    d(s, t) <= min_a (w_a + D[a]) + min_b (D[b] + w_b) + 2 slack_r for a
    pair (s, t), a over the anchors of s and b over those of t.  Each row
    tightens the bound of every pair of the batch, and the limit of a row is
    the largest bound over its pairs widened by 1e-9 relative.  It is inf
    while some bound is, as for the first row, and qh_distance_many then
    guesses a limit on plane meshes (see _segment_guess).  slack_r is 0 for
    a mesh-node source, whose row is d(source, .) itself.  Other sources
    cannot route through an off-mesh source, so its bound passes through its
    cheapest anchor and slack_r is from _slacks; the last row helps no later
    source and gets no slack.
    """

    def __init__(self, graph: sp.csr_matrix, sources: list[_Attachment],
                 targets: list[list[_Attachment]]):
        # Each pair's source ends, then its target ends.
        self._ends = _Ends([e for s, ts in zip(sources, targets) for t in ts for e in (s, t)])
        self._first = np.cumsum([0] + [len(ts) for ts in targets])
        self._bound = np.full(self._first[-1], np.inf)
        self._slack2 = np.zeros(len(sources))  # 2 slack_r
        off = [r for r, s in enumerate(sources[:-1]) if s.node is None]
        if off:
            self._slack2[off] = 2.0 * _slacks(graph, [sources[r] for r in off])

    def add_row(self, r: int, dist: np.ndarray) -> None:
        reach = self._ends.reach(dist)
        np.minimum(self._bound, reach[0::2] + reach[1::2] + self._slack2[r], out=self._bound)

    def limit(self, r: int) -> float:
        return float(self._bound[self._first[r]:self._first[r + 1]].max()) * (1.0 + 1e-9)


_GUESS_PIECES = 16   # sub-segments per segment in _segment_guess
_GUESS_FACTOR = 1.1  # covers the mesh's overshoot of the segment's integral


def _segment_guess(m: QhMesh, jobs: list[tuple]) -> float:
    """A likely Dijkstra limit for one source row of a plane mesh:
    _GUESS_FACTOR times the largest, over the row's pairs (a, b), sum of
    _segment_weights over _GUESS_PIECES equal sub-segments of a -> b, an
    upper estimate of k_G(a, b); inf when some segment leaves G."""
    A, B = (np.array([job[i] for job in jobs], dtype=np.complex128) for i in (0, 1))
    if not m.region.segments_inside_many(A, B).all():
        return np.inf
    P = A[:, None] + (B - A)[:, None] * (np.arange(_GUESS_PIECES + 1) / _GUESS_PIECES)
    d = np.array([m.delta_at(p) for p in P.ravel().tolist()]).reshape(P.shape)
    w = _segment_weights(P[:, :-1], d[:, :-1], P[:, 1:], d[:, 1:])
    return _GUESS_FACTOR * float(w.sum(axis=1).max())


def _slacks(graph: sp.csr_matrix, sources: list[_Attachment]) -> np.ndarray:
    """For each off-mesh source, an s with d(k0, x) <= D[x] + s at every mesh
    node x, where D is the source's distance row and k0 its cheapest anchor.

    With anchors k and weights w_k, D[x] = min_k (w_k + d(k, x)), and
    d(k0, x) <= graph[k0, k] + d(k, x) gives s = max_k (graph[k0, k] - w_k),
    taking graph[k0, k0] = 0.  s is inf when some anchor is not a mesh
    neighbour of k0.
    """
    ends = _Ends(sources)
    k0 = np.repeat([min(s.anchors, key=lambda c: c[1])[0] for s in sources], ends.sizes)
    edge = np.asarray(graph[k0, ends.nodes]).ravel()  # 0 off the row of k0
    edge[(edge == 0.0) & (ends.nodes != k0)] = np.inf
    return np.maximum.reduceat(edge - ends.weights, ends.starts)


def _unwind(m: QhMesh, job: tuple, src: int, dist: np.ndarray, pred: np.ndarray,
            coord_of) -> Optional[PathResult]:
    """The answer of one pair from its source's distance and predecessor rows,
    or None when the target is not reached."""
    a, b, att_a, att_b, swap = job
    spacing = (att_b.spacing, att_a.spacing) if swap else (att_a.spacing, att_b.spacing)
    # Candidates (distance, last graph vertex, final point off the graph).
    if att_b.node is not None:
        best = (dist[att_b.node], att_b.node, None)
    else:
        best = min(((dist[v] + w, v, att_b.point) for v, w in att_b.anchors),
                   key=lambda c: c[0])
    pa, pb = att_a.point, att_b.point
    joined = att_a.node is not None and att_b.node is not None and \
        att_b.node in m.neighbors(att_a.node)
    if not joined and abs(pa - pb) <= 3.0 * max(att_a.spacing, att_b.spacing) \
            and m.region.segment_inside(pa, pb):
        direct = _segment_weights(pa, att_a.delta, pb, att_b.delta)
        if direct < best[0]:
            best = (direct, src, pb)
    d, v, tail = best
    if not math.isfinite(d):
        return None
    chain = [v]
    while chain[-1] != src:
        p = int(pred[chain[-1]])
        if p < 0:
            raise ConnectivityError("predecessor chain broken")
        chain.append(p)
    path = tuple(coord_of(u) for u in reversed(chain))
    if tail is not None:
        path += (tail,)
    elen = 0.0
    for p, q in zip(path, path[1:]):
        elen += abs(p - q)
    if swap:
        path = tuple(reversed(path))
    return PathResult(float(d), path, elen, spacing)


def _with_source_rows(m: QhMesh, sources: list[_Attachment]) -> sp.csr_matrix:
    """The mesh graph with one appended row of anchor out-edges per source.

    The rows are written into the spare room after the graph's entries in
    m's CSR buffers, and the result views those buffers through a fresh
    indptr, so the graph's entries are not copied.  A batch that needs more
    room than there is grows the buffers (see _grow_room).  The result is
    good until the next call; callers hold m._lock.
    """
    if not sources:
        return m.graph
    sizes = [len(s.anchors) for s in sources]
    nnz = m.graph.nnz
    end = nnz + sum(sizes)
    if end > len(m._data):
        _grow_room(m, end - nnz)
    m._data[nnz:end] = [w for s in sources for _, w in s.anchors]
    m._indices[nnz:end] = [v for s in sources for v, _ in s.anchors]
    g = m.graph
    indptr = np.concatenate([g.indptr, (nnz + np.cumsum(sizes)).astype(g.indptr.dtype)])
    total = g.shape[0] + len(sources)
    return sp.csr_matrix((m._data[:end], m._indices[:end], indptr), shape=(total, total),
                         copy=False)


def _grow_room(m: QhMesh, need: int) -> None:
    """Move m's CSR entries to new buffers with at least need spare entries.

    The room doubles, up to nnz: scipy copies a view of less than half its
    buffer, and m.graph must stay a view of the new buffers.
    """
    g = m.graph
    nnz = g.nnz
    room = max(need, min(2 * (len(m._data) - nnz), nnz))
    m._data = np.empty(nnz + room, dtype=g.data.dtype)
    m._indices = np.empty(nnz + room, dtype=g.indices.dtype)
    m._data[:nnz], m._indices[:nnz] = g.data, g.indices
    m.graph = sp.csr_matrix((m._data[:nnz], m._indices[:nnz], g.indptr), shape=g.shape,
                            copy=False)


def path_qh_length(mesh: QhMesh, result: PathResult) -> float:
    """Sum the QH weights of the segments of a returned path.

    Matches PathResult.distance exactly: mesh edges, anchor edges and the
    near-pair segment all carry the weight _segment_weights gives, so each
    is recomputed from the path's points, and the sum runs in the canonical
    order the search accumulated it.
    """
    path = result.node_path
    if len(path) > 1 and not _canonical(path[0], path[-1]):
        path = path[::-1]
    P = np.array(path, dtype=np.complex128)
    d = np.array([mesh.delta_at(p) for p in path])
    return sum(_segment_weights(P[:-1], d[:-1], P[1:], d[1:]).tolist(), 0.0)


# ---------------------------------------------------------------------------
# Analytic oracles
# ---------------------------------------------------------------------------

def qh_distance_exact(domain: Union[str, Region], x, y) -> float:
    """Closed-form k_G for the half-plane and the punctured plane.

    HalfPlane: 2 asinh(|x-y| / (2 sqrt(Im x Im y))), the hyperbolic metric
    (equal to arccosh(1 + |x-y|^2 / (2 Im x Im y)), which loses every digit
    when the points are close: it returns 0 for 1j -> 1j + 1e-8).
    PuncturedPlane: sqrt((log|y|-log|x|)^2 + dtheta^2) with dtheta in [0, pi],
    the flat metric of the log-cylinder.  Both hold at every finite scale:
    where a product or modulus would leave the float range they are taken
    in a scaled form (see _halfplane_far and _log_modulus_ratio).  A
    non-finite point raises MembershipError.
    """
    x, y = as_point(x), as_point(y)
    if not (cmath.isfinite(x) and cmath.isfinite(y)):
        raise MembershipError("oracle points must be finite")
    name = domain if isinstance(domain, str) else oracle_for(domain)
    if name is None:
        raise ConfigurationError(f"no analytic oracle for {domain!r}")
    name = name.lower().replace("-", "").replace("_", "")
    if name in ("halfplane", "upperhalfplane"):
        if x.imag <= 0 or y.imag <= 0:
            raise MembershipError("oracle points must lie in the upper half-plane")
        p = x.imag * y.imag
        if sys.float_info.min <= p <= sys.float_info.max:
            try:
                k = 2.0 * math.asinh(abs(x - y) / (2.0 * math.sqrt(p)))
            except OverflowError:  # |x - y| beyond the float range
                k = math.inf
            if k < math.inf:
                return k
        return _halfplane_far(x, y)
    if name in ("punctured", "puncturedplane"):
        if x == 0 or y == 0:
            raise MembershipError("oracle points must avoid the puncture")
        if x == y:
            return 0.0
        du = _log_modulus_ratio(x, y)
        dth = abs(math.atan2(x.imag, x.real) - math.atan2(y.imag, y.real))
        if dth > math.pi:
            dth = 2.0 * math.pi - dth
        return math.hypot(du, dth)
    raise ConfigurationError(f"unknown oracle domain {domain!r}")


def _halfplane_far(x: complex, y: complex) -> float:
    """The half-plane oracle where Im x Im y leaves the normal floats or
    |x - y| overflows: the difference is quartered and the square roots
    taken one at a time, so no step leaves the float range."""
    h = math.hypot(0.25 * x.real - 0.25 * y.real, 0.25 * x.imag - 0.25 * y.imag)
    s = math.sqrt(x.imag) * math.sqrt(y.imag)
    q = h / s  # |x - y| / (4 sqrt(Im x Im y))
    if q < 2.0 ** 1000:
        return 2.0 * math.asinh(2.0 * q)
    # asinh(r) = log(2 r) to double precision once r exceeds 2^28.
    return 2.0 * (math.log(4.0) + math.log(h) - math.log(s))


def _log_modulus_ratio(x: complex, y: complex) -> float:
    """log|y| - log|x| for nonzero finite points.  Beyond 2^+-16, where |z|
    can overflow and the two logarithms lose digits to their size, each
    point is first scaled by a power of two to unit size, which makes the
    value exactly invariant under dilations by powers of two."""
    ex, ey = (math.frexp(max(abs(z.real), abs(z.imag)))[1] for z in (x, y))
    if max(abs(ex), abs(ey)) <= 16:  # the plain form, whose values the reports pin
        return math.log(abs(y)) - math.log(abs(x))
    xs = complex(math.ldexp(x.real, -ex), math.ldexp(x.imag, -ex))
    ys = complex(math.ldexp(y.real, -ey), math.ldexp(y.imag, -ey))
    return math.log(abs(ys)) - math.log(abs(xs)) + (ey - ex) * math.log(2.0)


def oracle_for(region: Region) -> Optional[str]:
    if isinstance(region, HalfPlaneRegion):
        return "halfplane"
    if isinstance(region, PuncturedPlaneRegion):
        return "punctured"
    return None


# ---------------------------------------------------------------------------
# Distance backends (shared by the estimators and the lemma suites)
# ---------------------------------------------------------------------------

class AnalyticBackend:
    """Exact k_G via qh_distance_exact; the oracle side of dual-route checks."""

    def __init__(self, region: Region):
        name = oracle_for(region)
        if name is None:
            raise ConfigurationError(f"region '{region.name}' has no analytic oracle")
        self.region = region
        self.domain = name

    def distance(self, x, y) -> float:
        return qh_distance_exact(self.domain, x, y)

    def distance_pairs(self, pairs: Sequence[tuple]) -> list[float]:
        return [qh_distance_exact(self.domain, a, b) for a, b in pairs]

    def sample_point(self, rng: random.Random) -> complex:
        return self.region.sample_point(rng)


class MeshBackend:
    """k_G through a QhMesh; samples exact mesh nodes so replay is bitwise.

    sample_window restricts sampling to a rectangle and delta_range to a band
    of boundary distances; both keep sampled points (and their images under
    the maps of interest) inside the meshed area.
    """

    def __init__(self, mesh: QhMesh, sample_window: Optional[tuple[float, float, float, float]] = None,
                 delta_range: Optional[tuple[float, float]] = None):
        self.mesh = mesh
        self.region = mesh.region
        mask = np.ones(mesh.node_count, dtype=bool)
        if sample_window is not None:
            x0, x1, y0, y1 = sample_window
            c = mesh.coords
            mask &= (c.real >= x0) & (c.real <= x1) & (c.imag >= y0) & (c.imag <= y1)
        if delta_range is not None:
            d0, d1 = delta_range
            mask &= (mesh.delta >= d0) & (mesh.delta <= d1)
        self._pool = np.flatnonzero(mask)
        if len(self._pool) == 0:
            raise ConfigurationError("sampling constraints leave no mesh nodes")

    def distance(self, x, y) -> float:
        return qh_distance(self.mesh, x, y).distance

    def distance_pairs(self, pairs: Sequence[tuple]) -> list[float]:
        return [r.distance for r in qh_distance_many(self.mesh, pairs)]

    def sample_point(self, rng: random.Random) -> complex:
        return complex(self.mesh.coords[self._pool[rng.randrange(len(self._pool))]])


# ---------------------------------------------------------------------------
# Inequality suites (comparison lemmas)
# ---------------------------------------------------------------------------

@dataclass
class LemmaSuiteReport:
    """Outcome of one inequality suite: violations are data, not errors."""

    domain: str
    lemma: str
    checked: int
    violations: list[dict]
    rows: list[tuple]

    @property
    def passed(self) -> bool:
        return not self.violations

    def check(self, lemma: str, index: int, row_id: int, x: complex, y: complex,
              value: float, oracle: float, lo: float, hi: float, ok: bool, /,
              **detail) -> None:
        """Record one checked inequality as a CSV row; a failed one also
        becomes a violation carrying the pair and the detail fields."""
        self.rows.append((row_id, x.real, x.imag, y.real, y.imag, value, oracle, lo, hi,
                          int(ok)))
        if not ok:
            self.violations.append({"lemma": lemma, "index": index, "x": [x.real, x.imag],
                                    "y": [y.real, y.imag], **detail})


def lemma34_check(region: Region, backend, *, count: int = 200, seed: int = 7,
                  c: Optional[float] = None, eps: float = 0.05,
                  ball_resolution: Optional[float] = None) -> LemmaSuiteReport:
    """Check the three k_G comparison bounds on seeded pairs.

    (1) |x-y| <= (e^k - 1) delta_G(x), all pairs;
    (2) the two-sided component-ball bound with center z and scale t;
    (3) (1/2)|x-y|/delta_G(x) < k <= 3c|x-y|/delta_G(x) whenever
        |x-y| <= delta_G(x)/(3c) or k <= 1.
    eps is the mesh tolerance applied multiplicatively to each bound.
    """
    c = region.space.quasiconvexity if c is None else c
    if c is None:
        raise ConfigurationError("quasiconvexity constant required for lemma 3.4")
    rng = random.Random(seed)
    report = LemmaSuiteReport(region.name, "lemma-3.4", count, [], [])

    pairs = sample_pairs(region.sample_point, rng, count)
    ks = backend.distance_pairs(pairs)

    for idx, ((x, y), k) in enumerate(zip(pairs, ks)):
        dx = region.boundary_distance(x)
        sep = abs(x - y)
        # (1): growth bound
        hi = (math.exp(k) - 1.0) * dx * (1.0 + eps) if k < 700 else math.inf
        report.check("3.4(1)", idx, idx, x, y, sep, k, 0.0, hi, sep <= hi,
                     value=sep, bound=hi)
        # (3): small-separation two-sided bound
        if sep <= dx / (3.0 * c) or k <= 1.0:
            lo = 0.5 * sep / dx
            hi = 3.0 * c * sep / dx
            ok = (lo < k * (1.0 + eps)) and (k <= hi * (1.0 + eps))
            report.check("3.4(3)", idx, idx, x, y, k, k, lo, hi, ok, value=k, lo=lo, hi=hi)

    # (2): component-ball bound, seeded centers and scales
    n_ball = max(10, count // 10)
    ball_pairs: list[tuple[complex, complex]] = []
    ball_meta: list[tuple[complex, float, float]] = []
    for _ in range(n_ball):
        z = region.sample_point(rng)
        dz = region.boundary_distance(z)
        t = rng.uniform(0.2, 0.9)
        rho = t / (2.0 * c) * dz
        if isinstance(region, CurveRegion):
            h = ball_resolution if ball_resolution is not None else rho / 8.0
            try:
                ball = component_ball(region, z, rho, h)
            except QhkitError:
                continue
            nodes = list(ball.nodes)
            if len(nodes) < 2:
                continue
            x = nodes[rng.randrange(len(nodes))]
            y = nodes[rng.randrange(len(nodes))]
            if abs(x - y) <= COORD_TOL:
                continue
        else:
            # Convex ambient: the component ball is the metric ball itself.
            x, y = disk_point(rng, z, rho), disk_point(rng, z, rho)
            if abs(x - y) <= COORD_TOL or not (region.contains(x) and region.contains(y)):
                continue
        ball_pairs.append((x, y))
        ball_meta.append((z, t, dz))
    if ball_pairs:
        kvals = backend.distance_pairs(ball_pairs)
        for idx, ((x, y), (z, t, dz), k) in enumerate(zip(ball_pairs, ball_meta, kvals)):
            sep = abs(x - y)
            lo = c / (c + t) * sep / dz
            hi = c / (1.0 - (1.0 + c) * t / (2.0 * c)) * sep / dz
            ok = (lo <= k * (1.0 + eps)) and (k <= hi * (1.0 + eps))
            report.check("3.4(2)", idx, 10000 + idx, x, y, k, k, lo, hi, ok,
                         z=[z.real, z.imag], t=t, value=k, lo=lo, hi=hi)
    report.checked += len(ball_pairs)
    return report


def lemma36_check(region: Region, mesh_euclid: Optional[QhMesh],
                  mesh_length: Optional[QhMesh], *, count: int = 200, seed: int = 7,
                  c: Optional[float] = None, eps: float = 0.05) -> LemmaSuiteReport:
    """Check the length-metric sandwiches on seeded pairs.

    (1) |x-y| <= d(x,y) <= c|x-y| in the ambient space;
    (2) (1/c) k_G <= k'_G <= c k_G, with k_G and k'_G from the two meshes
        (or both from analytic oracles when the meshes are omitted).
    """
    c = region.space.quasiconvexity if c is None else c
    if c is None:
        raise ConfigurationError("quasiconvexity constant required for lemma 3.6")
    rng = random.Random(seed)
    report = LemmaSuiteReport(region.name, "lemma-3.6", 2 * count, [], [])

    pairs = sample_pairs(region.sample_point, rng, count)

    slack = 1.0 + 1e-9
    for idx, (x, y) in enumerate(pairs):
        sep = abs(x - y)
        d = region.space.length_distance(x, y)
        ok = (sep <= d * slack) and (d <= c * sep * slack)
        report.check("3.6(1)", idx, idx, x, y, d, sep, sep, c * sep, ok, d=d, sep=sep)

    if mesh_euclid is not None and mesh_length is not None:
        k_vals = [r.distance for r in qh_distance_many(mesh_euclid, pairs)]
        kp_vals = [r.distance for r in qh_distance_many(mesh_length, pairs)]
    else:
        backend = AnalyticBackend(region)
        k_vals = backend.distance_pairs(pairs)
        kp_vals = list(k_vals)  # convex ambient: d = |.| hence k' = k
    for idx, ((x, y), k, kp) in enumerate(zip(pairs, k_vals, kp_vals)):
        if k <= 0.0:
            continue
        ok = (k / c <= kp * (1.0 + eps)) and (kp <= c * k * (1.0 + eps))
        report.check("3.6(2)", idx, 20000 + idx, x, y, kp, k, k / c, c * k, ok, k=k, kprime=kp)
    return report
