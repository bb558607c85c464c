"""Boundary-graded meshes and quasihyperbolic shortest paths.

A region is discretized into a weighted graph whose edge weights approximate
the line integral of 1/delta_G, so shortest-path distances converge to k_G as
the grading factor shrinks (essentially from above: the restricted curve
family biases upward, quadrature can shave a sliver back).  Plane regions get
a quadtree refined until cell size <= grading * delta at the cell center;
curve complexes get an adaptive polyline subdivision.  The analytic oracles
of the half-plane and the punctured plane (Region.k_exact_many) back every
accuracy claim, and the inequality suites for the comparison lemmas live
next to the machinery they exercise.
"""
from __future__ import annotations

import math
import mmap
import random
import threading
from dataclasses import dataclass
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
from .scenarios import make_region
from .spaces import (
    COORD_TOL,
    CurveRegion,
    Region,
    _coord_key,
    _cut_pieces,
    _moduli,
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
# The same offsets turned forward in key order (dj > 0, or dj == 0 and di >
# 0), by row: (dj, the sorted di of the row).  Rows dj = 0..4.
_STENCIL_ROWS = [(row, sorted({di if dj > 0 or (dj == 0 and di > 0) else -di
                               for di, dj in _BASE_OFFSETS + _RAY_OFFSETS if abs(dj) == row}))
                 for row in range(5)]
_TOUCH_DIRS = [(-1, -1), (-1, 0), (-1, 1), (0, -1), (0, 1), (1, -1), (1, 0), (1, 1)]

DEFAULT_GRADING = 0.1
DEFAULT_MAX_DEPTH = 12
_SLICE = 1 << 14  # pairs per slice of _assemble_mesh's segment filter and weights


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

    The graph never changes once built.  Its CSR arrays are the head of
    private buffers (_indptr, _indices, _data) that _assemble_mesh writes
    with room for one more row, of the query vertex node_count: a search
    writes its source's anchors there (see _with_source_row), and _lock
    serialises the queries that use it.  Nothing moves them.
    """

    def __init__(self, region: Region, grading: float, metric: str,
                 coords: np.ndarray, delta: np.ndarray, spacing: np.ndarray,
                 buffers: tuple[np.ndarray, np.ndarray, np.ndarray], stats: dict):
        self.region = region
        self.grading = grading
        self.metric = metric
        self.coords = coords
        self.delta = delta
        self.spacing = spacing
        self._data, self._indices, self._indptr = buffers
        n, nnz = len(coords), int(self._indptr[-2])
        # Symmetric CSR, each undirected edge stored both ways; a CSR may keep
        # storage past indptr[-1], as the query graph's last row does.
        self.graph = sp.csr_matrix((self._data[:nnz], self._indices[:nnz], self._indptr[:-1]),
                                   shape=(n, n), copy=False)
        self._query_graph = sp.csr_matrix((self._data, self._indices, self._indptr),
                                          shape=(n + 1, n + 1), copy=False)
        self.stats = stats
        self._lock = threading.Lock()
        # Filled by the builders.  Plane quadtrees: the root cell (x0, y0, size)
        # and the sorted cell keys, node i owning the i-th.  Curve complexes:
        # the piece registry and the coordinate index of the nodes.
        self._root = (0.0, 0.0, 0.0)
        self._keys = np.zeros(0, dtype=np.int64)
        self._piece_registry: list[tuple[np.ndarray, np.ndarray]] = []
        self._node_of: dict[tuple[float, float], int] = {}

    @property
    def node_count(self) -> int:
        return len(self.coords)

    @property
    def edge_count(self) -> int:
        return self.graph.nnz // 2

    def neighbors(self, u: int) -> np.ndarray:
        g = self.graph
        return g.indices[g.indptr[u]:g.indptr[u + 1]]

    def _host_cells(self, Z: np.ndarray) -> np.ndarray:
        """The plane-mesh node whose quadtree cell holds each point of the
        1-D array Z, or -1: one _find over (points x depths), the first
        depth with a leaf winning."""
        x0, y0, s0 = self._root
        d = np.arange((self._keys[-1] >> (2 * _KEY_BITS)) + 1)
        # Clipping keeps far points out of float and int64 overflow; _find
        # rejects them.
        off = np.clip(np.stack([Z.real - x0, Z.imag - y0])[..., None], -s0, 2.0 * s0)
        i, j = np.clip(np.floor(off / (s0 / (1 << d))), -1, 1 << _KEY_BITS).astype(np.int64)
        hosts = _find(self._keys, d, i, j)
        first = np.argmax(hosts >= 0, axis=1)
        return np.where(hosts.max(axis=1, initial=-1) >= 0, hosts[np.arange(len(Z)), first], -1)

    def _host_cell(self, z: complex) -> Optional[int]:
        """The plane-mesh node whose quadtree cell holds z, or None."""
        host = int(self._host_cells(np.array([as_point(z)]))[0])
        return host if host >= 0 else None

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
    edge, anchor and segment weight in this module is this expression, by
    way of _trapezoid."""
    return _trapezoid(np.abs(A - B), dA, dB)


def _trapezoid(L, dA, dB):
    """_segment_weights from the segment lengths L = |A - B|."""
    return L * (1.0 / dA + 1.0 / dB) / 2.0


def _disc_certified(L, dA, dB, slack):
    """Where a segment [a, b] of length L lies in G by the delta disc of an
    end: the open disc B(a, delta(a)) lies in G and is convex.  The factor
    1 - 2^-40 covers the relative rounding of L and of delta, a few ulps
    each, and slack (_gap_slack) the absolute rounding of delta."""
    return L < np.maximum(dA, dB) * (1.0 - 2.0 ** -40) - slack


def _gap_slack(region: Region, coords: np.ndarray) -> float:
    """8 ulps of the largest magnitude that the deltas at coords compute
    with, the nodes' own or the region's gap_scale(): a polygon's or disk's
    delta rounds by an ulp of it, however small delta is."""
    return 8.0 * float(np.spacing(max(float(np.abs(coords).max(initial=0.0)),
                                      region.gap_scale())))


def _region_deltas(region: Region, metric: str, Z: np.ndarray) -> np.ndarray:
    """delta'_G for length-metric meshes, delta_G otherwise, over a 1-D
    array of points of G."""
    if metric == "length":
        return region.length_boundary_distances_many(Z)
    return region.boundary_gaps_many(Z)


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
    refine breadth first to at most MAX_PLANE_DEPTH levels, one array pass
    per depth through the region's contains_many and boundary_gaps_many;
    each leaf takes its delta from boundary_gaps_many.  A plane pair joins
    the graph without segments_inside_many when it is shorter than the
    delta of an end (_disc_certified); mesh.stats["segment_tests"] counts
    the pairs the predicate tested and "segment_rejections" those it
    rejected.  Curve-complex pieces are halved breadth first as well
    (_piece_cuts), and spaces._cut_pieces, which also cuts component balls,
    makes the nodes and steps, each in G.  _assemble_mesh writes the graph
    once into the buffers the queries use.  mesh.stats["stage_s"] holds the
    seconds of each build stage: refine, stencil (the same-depth pairs, one
    searchsorted per stencil row), cross_depth (the ancestor search), dedupe
    (the distinct cross-depth pairs, merged after the same-depth ones of
    each row) and assemble for plane meshes, cuts and assemble for curve
    complexes.
    """
    if not (0.0 < grading_factor <= 0.5):
        raise ConfigurationError("grading_factor must lie in (0, 0.5]")
    if metric not in ("euclidean", "length"):
        raise ConfigurationError(f"unknown metric {metric!r}")
    if max_depth < 0:
        raise ConfigurationError(f"max_depth must be >= 0, got {max_depth}")
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
    if not all(map(math.isfinite, (x0, x1, y0, y1))):
        raise ConfigurationError(f"bbox must be finite, got {bbox}")
    if not (x1 > x0 and y1 > y0):
        raise ConfigurationError(f"degenerate bbox {bbox}")
    s0 = max(x1 - x0, y1 - y0)

    keys, D, I, J, coords, delta, capped = _refine(region, grading, (x0, x1, y0, y1), s0,
                                                   max_depth)
    spacing = s0 / (1 << D)
    t1 = perf_counter()

    # Same-depth pairs, one searchsorted per stencil row.  The leaves of row
    # j + dj in columns i + lo .. i + hi are among the width = hi - lo + 1
    # keys from the first one at or past base = (d << 50) + ((j + dj) << 25)
    # + (i + lo).  base is additive, so a window that starts before column 0
    # lands past the end of row j + dj - 1, where no leaf is; padded ends the
    # keys with values no window reaches.  A key is a pair where its distance
    # from base is a stencil offset of the row, less lo.  The offsets point
    # forward, so each pair comes once, from its lower end, and each row of
    # win lists a leaf's partners in key order, the pairs where hit holds.
    # same[u, 1 + dx, 1 + dy] marks a same-depth leaf next to u in touch
    # direction (dx, dy): the pairs along (1, 0), (+-1, 1) and (0, 1) give
    # four directions, and the leaves they find the mirrors.
    n = len(keys)
    same = np.zeros((n, 3, 3), dtype=bool)
    widths = [dis[-1] - dis[0] + 1 for _, dis in _STENCIL_ROWS]
    padded = np.append(keys, np.full(max(widths), np.iinfo(np.int64).max))
    win = np.empty((n, sum(widths)), dtype=np.int32)
    hit = np.empty(win.shape, dtype=bool)
    col = 0
    for (dj, dis), width in zip(_STENCIL_ROWS, widths):
        lo = dis[0]
        row = np.zeros(width + 1, dtype=bool)  # the row's offsets from lo, then the rest
        row[np.subtract(dis, lo)] = True
        base = keys + ((dj << _KEY_BITS) + lo)
        at = np.searchsorted(keys, base)[:, None] + np.arange(width)
        rel = padded[at] - base[:, None]
        ok = row.take(rel, mode="clip")
        for di in (di for di in dis if dj <= 1 and abs(di) <= 1):  # touch directions
            touch = np.flatnonzero(ok & (rel == di - lo))
            same[touch // width, 1 + di, 1 + dj] = True
            same[at.ravel()[touch], 1 - di, 1 - dj] = True
        win[:, col:col + width], hit[:, col:col + width] = at, ok
        col += width
    t2 = perf_counter()
    # Cross-depth pairs: for each leaf and touch direction, the finest strict
    # ancestor of the neighbour cell that is a leaf.  A neighbour cell that is
    # itself a leaf has no leaf ancestor, so it is settled at once, and only
    # the other (leaf, direction) entries are made.  Searching from the finer
    # side alone finds every touching pair of unequal depths.
    u, t = np.divmod(np.flatnonzero(~np.delete(same.reshape(-1, 9), 4, axis=1)),
                     len(_TOUCH_DIRS))  # _TOUCH_DIRS order
    del same
    u = u.astype(np.int32)
    dx, dy = np.array(_TOUCH_DIRS)[t].T
    ni, nj, du = I[u] + dx, J[u] + dy, D[u]
    open_ = np.ones(len(u), dtype=bool)
    # Empty starts, for a build whose leaves all have depth 0.
    fine, coarse = [np.zeros(0, dtype=np.int32)], [np.zeros(0, dtype=np.int32)]
    for k in range(1, int(D.max()) + 1):
        open_ &= du >= k
        u, ni, nj, du = u[open_], ni[open_], nj[open_], du[open_]
        v = _find(keys, du - k, ni >> k, nj >> k)
        open_ = v < 0
        fine.append(u[~open_])
        coarse.append(v[~open_])
    t3 = perf_counter()
    # The distinct cross-depth pairs, sorted.  Their lower end is the coarse
    # leaf and their upper end is deeper than its same-depth partners, so in
    # each row of pu they follow the same-depth pairs, and counts per row
    # place every pair: the pair list is never sorted.
    clo, chi = _unique_pairs(np.concatenate(coarse, dtype=np.int32),
                             np.concatenate(fine, dtype=np.int32))
    del fine, coarse
    level, across = np.count_nonzero(hit, axis=1), np.bincount(clo, minlength=n)
    pu = np.repeat(np.arange(n, dtype=np.int32), level + across)
    pv = np.empty(len(pu), dtype=np.int32)
    first = np.repeat(np.tile([True, False], n), np.stack((level, across), axis=1).ravel())
    pv[first] = win[hit]
    pv[~first] = chi
    del win, hit, first, clo, chi  # freed before the assembly, whose peak is the build's
    t4 = perf_counter()

    mesh, keep, pu, pv = _assemble_mesh(region, grading, metric, coords, delta, spacing, pu, pv)
    mesh._root = (x0, y0, s0)
    mesh._keys = keys[keep]
    Dk = D[keep]
    mesh.stats["leaves_per_depth"] = {int(d): int(c) for d, c in
                                      enumerate(np.bincount(Dk)) if c}
    mesh.stats["cross_depth_edges"] = int(np.count_nonzero(Dk[pu] != Dk[pv]))
    mesh.stats["capped_cells"] = capped
    mesh.stats["bbox"] = (x0, x1, y0, y1)
    mesh.stats["stage_s"] = {"refine": t1 - t0, "stencil": t2 - t1, "cross_depth": t3 - t2,
                             "dedupe": t4 - t3, "assemble": perf_counter() - t4}
    return mesh


def _refine(region: Region, grading: float, bbox: tuple[float, float, float, float],
            s0: float, max_depth: int) -> tuple[np.ndarray, ...]:
    """The quadtree's leaves as arrays (keys, D, I, J, coords, delta), sorted
    by key, and the count of cells with centres in G that max_depth stops
    from splitting.  A breadth-first sweep tests each depth's cells at once: a
    cell whose centre lies in the bbox and in G is a leaf once s <= grading *
    delta; a cell whose centre is outside G by more than half its diagonal is
    dropped; any other cell above max_depth splits into four."""
    x0, x1, y0, y1 = bbox
    I = J = np.zeros(1, dtype=np.int64)
    found = []
    for d in range(max_depth + 1):
        s = s0 / (1 << d)
        ox, oy = x0 + I * s, y0 + J * s
        overlap = (ox < x1) & (oy < y1)
        I, J = I[overlap], J[overlap]
        cx, cy = ox[overlap] + s / 2.0, oy[overlap] + s / 2.0
        C = np.column_stack((cx, cy)).view(np.complex128).ravel()
        inside = region.contains_many(C)
        gap = region.boundary_gaps_many(C)  # delta_G at the centres in G
        leaf = inside & (x0 <= cx) & (cx <= x1) & (y0 <= cy) & (cy <= y1) & (s <= grading * gap)
        found.append((np.full(np.count_nonzero(leaf), d, dtype=np.int64), I[leaf], J[leaf],
                      C[leaf], gap[leaf]))
        split = ~(leaf | (~inside & (gap > s * math.sqrt(2.0) / 2.0)))
        I, J = 2 * I[split], 2 * J[split]
        I, J = np.concatenate([I, I + 1, I, I + 1]), np.concatenate([J, J, J + 1, J + 1])
    D, I, J, coords, delta = (np.concatenate(col) for col in zip(*found))
    if not len(D):
        raise ConfigurationError("bbox does not intersect the region at this grading")
    keys = _cell_keys(D, I, J)
    order = np.argsort(keys)
    capped = int(np.count_nonzero(split & inside))  # at max_depth
    return keys[order], D[order], I[order], J[order], coords[order], delta[order], capped


def _unique_pairs(u: np.ndarray, v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct unordered pairs of the int32 or int64 ids u, v as int32
    (lo, hi) arrays, sorted by lo, then hi, via one int64 key lo << 32 | hi
    sorted in place."""
    key = np.minimum(u, v).astype(np.int64) << 32
    key |= np.maximum(u, v)
    key.sort()
    key = key[np.diff(key, prepend=-1) != 0]
    return (key >> 32).astype(np.int32), (key & 0xFFFFFFFF).astype(np.int32)


def _assemble_mesh(region: Region, grading: float, metric: str,
                   coords: np.ndarray, delta: np.ndarray, spacing: np.ndarray,
                   pu: np.ndarray, pv: np.ndarray) -> tuple[QhMesh, np.ndarray, ...]:
    """The mesh over the largest component of the sorted distinct pairs
    (pu, pv) whose segments lie in G, the mask of kept nodes, and the kept
    pairs, renumbered.

    On a plane region, a pair that _disc_certified holds is in G, and only
    the others go to segments_inside_many (stats: segment_tests of them,
    segment_rejections failed), so delta must be delta_G at the nodes.  The
    steps of a curve complex are in G as _cut_pieces makes them, and none is
    tested.  Certificates and weights share |A - B| and run over slices of
    _SLICE pairs; components over the upper triangle U, a CSR of the pairs as
    they stand.  The symmetric CSR is written once into the QhMesh buffers,
    row by row the lower triangle (U.tocsc(), as a CSR of U.T) and then U,
    each sorted; 0.0 weights stay entries, as U + U.T would not keep them.
    """
    n, m = len(coords), len(pu)
    plane = not isinstance(region, CurveRegion)
    ok, w = np.ones(m, dtype=bool), np.empty(m)
    tested = 0
    slack = _gap_slack(region, coords) if plane else 0.0
    for s in range(0, m, _SLICE):
        a, b = pu[s:s + _SLICE], pv[s:s + _SLICE]
        A, B, dA, dB = coords.take(a), coords.take(b), delta.take(a), delta.take(b)
        L = np.abs(A - B)
        w[s:s + _SLICE] = _trapezoid(L, dA, dB)
        if plane:
            rest = np.flatnonzero(~_disc_certified(L, dA, dB, slack))
            if len(rest):
                ok[s + rest] = region.segments_inside_many(A[rest], B[rest])
                tested += len(rest)
    rejected = m - int(np.count_nonzero(ok))
    if rejected:
        pu, pv, w = pu[ok], pv[ok], w[ok]
    upper = _upper(w, pu, pv, n)
    ncomp, labels = connected_components(upper, directed=False)
    keep = np.ones(n, dtype=bool)
    if ncomp > 1:
        keep = labels == np.argmax(np.bincount(labels))
        new = np.cumsum(keep, dtype=np.int32) - 1
        kept = keep[pu]  # both ends of a pair share a component
        pu, pv, w = new[pu[kept]], new[pv[kept]], w[kept]
        coords, delta, spacing = coords[keep], delta[keep], spacing[keep]
        upper = _upper(w, pu, pv, len(coords))
    k, nnz = len(coords), 2 * len(pu)
    below, above = np.bincount(pv, minlength=k), np.bincount(pu, minlength=k)
    degree = below + above
    # Room for the query vertex's row: a plane point's host node and its
    # neighbours, 2 on a complex.
    dmax = int(degree.max(initial=0))
    room = 1 + max(dmax, 1)
    itype = np.int32 if nnz + room <= np.iinfo(np.int32).max else np.int64
    data, indices = _mapped_zeros(nnz + room, np.float64), _mapped_zeros(nnz + room, itype)
    # The last row, of the query vertex, holds all the room until a source
    # row is written.
    indptr = np.concatenate([[0], np.cumsum(degree), [nnz + room]]).astype(itype)
    # Row by row, the lower triangle's entries come first.
    low = np.repeat(np.tile([True, False], k), np.stack((below, above), axis=1).ravel())
    for part, at in ((upper.tocsc(), low), (upper, ~low)):
        data[:nnz][at], indices[:nnz][at] = part.data, part.indices
    stats = {"nodes": k, "edges": len(pu), "components": int(ncomp), "dropped_nodes": n - k,
             "segment_tests": tested, "segment_rejections": rejected,
             "degree_mean": float(degree.mean()), "degree_max": dmax,
             "realized_grading": float((spacing / delta).max())}
    return (QhMesh(region, grading, metric, coords, delta, spacing, (data, indices, indptr), stats),
            keep, pu, pv)


def _mapped_zeros(n: int, dtype) -> np.ndarray:
    """n zeros in a private anonymous mapping of their own.  _assemble_mesh
    makes the graph's buffers while the build's pair arrays are alive; on the
    heap the buffers pinned the memory those free below them, and the
    benchmark's peak RSS rose 5% on mesh-build and 11% on halfplane-single.
    Private, as heap memory is: a forked process writes its source rows into
    a copy of its own."""
    size = n * np.dtype(dtype).itemsize
    if hasattr(mmap, "MAP_PRIVATE"):
        return np.frombuffer(mmap.mmap(-1, size, flags=mmap.MAP_PRIVATE | mmap.MAP_ANONYMOUS),
                             dtype=dtype)
    return np.frombuffer(mmap.mmap(-1, size), dtype=dtype)  # Windows: no fork


def _upper(w: np.ndarray, pu: np.ndarray, pv: np.ndarray, n: int) -> sp.csr_matrix:
    """The upper-triangle CSR of the sorted distinct pairs (pu, pv), weights w."""
    indptr = np.concatenate([[0], np.cumsum(np.bincount(pu, minlength=n))])
    return sp.csr_matrix((w, pv, indptr), shape=(n, n), copy=False)


def _build_complex_mesh(region: CurveRegion, grading: float, metric: str,
                        max_depth: int) -> QhMesh:
    t0 = perf_counter()
    cuts, capped = zip(*(_piece_cuts(region, i, grading, max_depth)
                         for i in range(len(region.pieces))))
    P, ids, idx, member, u, v = _cut_pieces(region, list(enumerate(cuts)))
    coords = P[member]  # nodes number the members in order of first cut
    if len(coords) < 2:
        raise ConfigurationError("grading left fewer than two usable mesh nodes")
    node = np.cumsum(member) - 1
    delta = _region_deltas(region, metric, coords)
    # A node's spacing is the longest interval next to any of its cuts.
    k = np.concatenate(idx)
    gap = np.concatenate([np.maximum(np.diff(S, prepend=S[0]), np.diff(S, append=S[-1]))
                          for S in cuts])
    spacing = np.zeros(len(coords))
    np.maximum.at(spacing, node[k[member[k]]], gap[member[k]])

    t1 = perf_counter()
    pu, pv = _unique_pairs(node[u], node[v])
    mesh, keep, _, _ = _assemble_mesh(region, grading, metric, coords, delta, spacing, pu, pv)
    final = np.full(len(P), -1)
    final[member] = np.where(keep, np.cumsum(keep) - 1, -1)
    mesh._piece_registry = [(S, final[k]) for S, k in zip(cuts, idx)]
    final = final.tolist()
    mesh._node_of = {key: final[i] for key, i in ids.items() if final[i] >= 0}
    mesh.stats["capped_cells"] = sum(capped)
    mesh.stats["stage_s"] = {"cuts": t1 - t0, "assemble": perf_counter() - t1}
    return mesh


def _piece_cuts(region: CurveRegion, i: int, grading: float,
                max_depth: int) -> tuple[np.ndarray, int]:
    """The sorted cuts of piece i, and the count of intervals that min_len
    stops while they are still coarser than grading * gap.  A breadth-first
    sweep from the piece's ends and boundary points: each pass halves every
    interval longer than grading times boundary_gaps_many at its midpoint,
    down to min_len = length / 2^max_depth."""
    seg, arcs = region.pieces[i], region._arcs[i]
    found = [np.unique(np.concatenate(([0.0, seg.length], arcs[~np.isnan(arcs)])))]
    lo, hi = found[0][:-1], found[0][1:]
    min_len = seg.length / (1 << max_depth)
    capped = 0
    while len(lo):
        L, mid = hi - lo, (lo + hi) / 2.0
        split = L > grading * region.boundary_gaps_many(seg.point_at(mid))
        stop = split & (L <= min_len)
        capped += int(np.count_nonzero(stop))
        split &= ~stop
        lo, mid, hi = lo[split], mid[split], hi[split]
        found.append(mid)
        lo, hi = np.concatenate([lo, mid]), np.concatenate([mid, hi])
    return np.unique(np.concatenate(found)), capped


# ---------------------------------------------------------------------------
# Shortest-path queries
# ---------------------------------------------------------------------------

@dataclass
class _Attachment:
    """How the distinct endpoints of one query call hook into the mesh, in
    flat arrays indexed by endpoint e (see _attach).

    node[e] is e's exact mesh node, or -1.  point[e] is that node's
    coordinate, or else the query point itself; spacing[e] and delta[e] are
    the mesh size and the delta (delta' on length-metric meshes) there.  The
    anchors of e are nodes[starts[e]:starts[e + 1]], with the weights of
    their edges from e: an exact node is its own anchor at weight 0, any
    other point has an anchor edge to each mesh node it joins.
    """
    point: np.ndarray
    node: np.ndarray
    spacing: np.ndarray
    delta: np.ndarray
    starts: np.ndarray
    nodes: np.ndarray
    weights: np.ndarray

    def anchors(self, e: int) -> tuple[np.ndarray, np.ndarray]:
        """The anchor nodes and weights of endpoint e."""
        lo, hi = self.starts[e], self.starts[e + 1]
        return self.nodes[lo:hi], self.weights[lo:hi]

    def reach(self, dist: np.ndarray) -> np.ndarray:
        """min over each endpoint's anchors a of dist[a] + w_a, for every
        endpoint (each has at least one anchor once _attach returns)."""
        return np.minimum.reduceat(dist[self.nodes] + self.weights, self.starts[:-1])


# Why _attach rejects an endpoint, by code; 1 is require_member's MembershipError.
_NOT_MEMBER, _NOT_COVERED, _NOT_JOINED, _ISOLATED = 1, 2, 3, 4
_ATTACH_ERRORS = {_NOT_COVERED: "is not covered by the mesh",
                  _NOT_JOINED: "cannot be joined to the mesh",
                  _ISOLATED: "is isolated by the boundary"}


def _attach(m: QhMesh, Z: np.ndarray) -> _Attachment:
    """Attach the distinct query points Z (a 1-D complex array) in one array
    pass.

    Membership is one contains_many call.  A plane point takes its host cell
    from _host_cells, and is an exact node when its coordinate key is the
    host's; otherwise its candidates are the host and its mesh neighbours in
    CSR order, kept where the delta disc certifies them (_disc_certified) or
    else segments_inside_many joins them.  A curve-complex point is an exact
    node by its coordinate key or when a cut of its piece lies within 1e-12
    of it; otherwise its candidates are the member cuts just below and above
    it.  delta (or delta') at the other points is one _region_deltas call,
    and their anchor weights one _segment_weights call.
    The first point that fails raises, with the error that attaching the
    points one at a time in order would raise.
    """
    region = m.region
    fail = np.where(region.contains_many(Z), 0, _NOT_MEMBER)
    find = _complex_candidates if m._piece_registry else _plane_candidates
    node, spacing, delta, owner, cand = find(m, Z, fail)
    if fail.any():
        k = int(np.argmax(fail != 0))
        z = complex(Z[k])
        if fail[k] == _NOT_MEMBER:
            raise region.not_member(z, "query point")
        raise ConnectivityError(f"query point {z} {_ATTACH_ERRORS[int(fail[k])]}")
    exact = node >= 0
    delta[exact] = m.delta[node[exact]]
    spacing[exact] = m.spacing[node[exact]]
    weights = _segment_weights(Z[owner], delta[owner], m.coords[cand], m.delta[cand])
    # An exact node is its own anchor at weight 0; anchors stay in candidate order.
    owner = np.concatenate([owner, np.flatnonzero(exact)])
    order = np.argsort(owner, kind="stable")
    point = np.where(exact, m.coords[np.maximum(node, 0)], Z)
    return _Attachment(point, node, spacing, delta,
                       np.searchsorted(owner[order], np.arange(len(Z) + 1)),
                       np.concatenate([cand, node[exact]])[order],
                       np.concatenate([weights, np.zeros(np.count_nonzero(exact))])[order])


def _plane_candidates(m: QhMesh, Z: np.ndarray, fail: np.ndarray) -> tuple[np.ndarray, ...]:
    """_attach on a plane mesh: each point's exact node (or -1) and spacing,
    the delta of the others, and their (owner, candidate) pairs that
    _inside keeps; fail gets _NOT_COVERED and _NOT_JOINED."""
    host = np.full(len(Z), -1)
    member = fail == 0
    host[member] = m._host_cells(Z[member])
    fail[member & (host < 0)] = _NOT_COVERED
    covered = np.flatnonzero(fail == 0)
    exact = np.zeros(len(Z), dtype=bool)
    exact[covered] = [_coord_key(c) == _coord_key(z) for c, z in
                      zip(m.coords[host[covered]].tolist(), Z[covered].tolist())]
    off = (fail == 0) & ~exact
    # Candidates: each host, then its neighbours in CSR order.
    g, h = m.graph, host[off]
    size = g.indptr[h + 1] - g.indptr[h] + 1
    owner = np.repeat(np.flatnonzero(off), size)
    k = np.arange(len(owner)) - np.repeat(np.cumsum(size) - size, size)
    cand = g.indices[np.maximum(np.repeat(g.indptr[h] - 1, size) + k, 0)].astype(np.intp)
    cand[k == 0] = h
    delta = np.zeros(len(Z))
    delta[off] = _region_deltas(m.region, m.metric, Z[off])
    keep = _inside(m.region, Z[owner], delta[owner], m.coords[cand], m.delta[cand])
    fail[off & (np.bincount(owner[keep], minlength=len(Z)) == 0)] = _NOT_JOINED
    spacing = np.where(off, m.spacing[np.maximum(host, 0)], 0.0)
    return np.where(exact, host, -1), spacing, delta, owner[keep], cand[keep]


def _inside(region: Region, A: np.ndarray, dA: np.ndarray, B: np.ndarray,
            dB: np.ndarray) -> np.ndarray:
    """Whether each segment [a, b] between plane members lies in G, with
    dA and dB delta_G at the ends: the pairs that _disc_certified holds
    (slack over the ends) are in G, and segments_inside_many tests the rest."""
    inside = _disc_certified(np.abs(A - B), dA, dB, _gap_slack(region, np.append(A, B)))
    rest = np.flatnonzero(~inside)
    if len(rest):
        inside[rest] = region.segments_inside_many(A[rest], B[rest])
    return inside


def _complex_candidates(m: QhMesh, Z: np.ndarray, fail: np.ndarray) -> tuple[np.ndarray, ...]:
    """_attach on a curve-complex mesh: each point's exact node (or -1) and
    spacing (the farther of its anchor cuts), the delta (or delta') of the
    others, and their (owner, candidate) pairs; fail gets _ISOLATED."""
    node = np.full(len(Z), -1)
    member = np.flatnonzero(fail == 0)
    node[member] = [m._node_of.get(_coord_key(z), -1) for z in Z[member].tolist()]
    piece, s = m.region.locate_many(Z)
    spacing = np.zeros(len(Z))
    near = np.full((len(Z), 2), -1)  # the member cuts just below and above
    for pi, (cuts, ids) in enumerate(m._piece_registry):
        on = np.flatnonzero((fail == 0) & (node < 0) & (piece == pi))
        t = s[on, None]
        k = np.searchsorted(cuts, t) + np.arange(-1, 2)  # the cuts pos - 1, pos, pos + 1
        kk = np.clip(k, 0, len(cuts) - 1)
        cut = np.where((k == kk) & (ids[kk] >= 0), ids[kk], -1)
        hit = (cut >= 0) & (np.abs(cuts[kk] - t) <= 1e-12)  # the first hit is an exact node
        node[on] = np.where(hit.any(axis=1), cut[np.arange(len(on)), hit.argmax(axis=1)], -1)
        near[on] = np.where(node[on, None] < 0, cut[:, :2], -1)
        spacing[on] = np.where(near[on] >= 0, np.abs(cuts[kk[:, :2]] - t), -np.inf).max(axis=1)
    off = (fail == 0) & (node < 0)
    fail[off & (near < 0).all(axis=1)] = _ISOLATED
    delta = np.zeros(len(Z))
    delta[off] = _region_deltas(m.region, m.metric, Z[off])
    owner, c = np.nonzero(off[:, None] & (near >= 0))
    return node, spacing, delta, owner, near[owner, c]


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
    that is not a mesh node is searched from the query vertex, whose CSR
    row holds out-edges to its anchors only, so no pair's endpoints are on
    another pair's paths; a target is resolved as the minimum of
    dist[a] + w(a, target) over its anchors.

    The endpoints are put in canonical pair order (a, then b) and made
    distinct by coordinate key, the first point of each key standing for
    all; _attach then hooks them all into the mesh in one array pass, and
    the first endpoint that fails raises.  Its anchor table, in which an
    exact node is its own anchor at weight 0, is the one table that the
    source rows, limits, slacks and targets read.  One pass over the pairs'
    straight segments (_straight_segments) gives the near pairs' direct
    weights and each pair's guess.

    Every search stops at its row's limit from _Limits, a per-pair bound
    table that starts at the guesses and that each searched row tightens.
    scipy drops only the relaxations above the limit, so a limited row is
    exact wherever it is finite, and an answer within the limit, the
    near-pair straight segment included, is the full search's.  A guess can
    be too small: a row with an answer above the limit is searched again up
    to its largest answer, and a row with a target not reached is searched
    again in full, so the answers do not change.  Each row is unwound and
    folded into the bounds right after its search.

    Each source's row is written, just before its search, into the room the
    mesh reserves after its own CSR entries (see _with_source_row), so
    calls on one mesh run one at a time: each holds the mesh's lock over
    its searches.  Calls on different meshes do not wait for each other.

    stats, when given, receives the counts sources, appended_rows, anchors
    (over the distinct endpoints), dijkstra_full and dijkstra_limited (the
    searches by their limit, reruns included), dijkstra_guessed (searches
    whose limit is a pair's guess), dijkstra_retried (searches run again
    after a guess missed) and reached (finite distances summed over the
    searches), and the seconds attach_s (the one attach pass over the
    distinct endpoints), bound_s (the segment pass, limits and slacks),
    dijkstra_s (the searches and their row writes) and unwind_s (the
    paths).
    """
    t0 = perf_counter()
    index: dict[tuple[float, float], int] = {}  # coordinate key -> endpoint
    points, todo = [], []
    for a, b in pairs:
        a, b = as_point(a), as_point(b)
        swap = not _canonical(a, b)
        if swap:
            a, b = b, a
        ends = []
        for p in (a, b):
            ends.append(index.setdefault(_coord_key(p), len(index)))
            if ends[-1] == len(points):
                points.append(p)
        todo.append((a, b, *ends, swap))
    att = _attach(m, np.array(points, dtype=complex))
    t1 = perf_counter()

    n = m.node_count
    node = att.node.tolist()

    def vertex(e: int) -> int:  # a source's graph vertex
        return n if node[e] < 0 else node[e]

    rows: dict = {}  # source, a mesh node or -1 - e for an off-mesh endpoint e -> its pairs
    results: list[Optional[PathResult]] = [None] * len(todo)
    for i, (a, b, ea, eb, swap) in enumerate(todo):
        if ea == eb:
            results[i] = PathResult(0.0, (b if swap else a,), 0.0, _spacing(att, todo[i]))
        else:
            rows.setdefault(node[ea] if node[ea] >= 0 else -1 - ea, []).append(i)
    # Mesh-node sources by id, then off-mesh ones by first appearance.
    jobs = sorted(rows.values(), key=lambda js: vertex(todo[js[0]][2]))
    sources = [todo[js[0]][2] for js in jobs]
    t2 = perf_counter()
    ea, eb = (np.array([job[k] for job in todo], dtype=np.intp) for k in (2, 3))
    direct, guess = _straight_segments(m, att, ea, eb)
    limits = _Limits(m.graph, att, ea, eb, jobs, guess)
    counts = dict.fromkeys(("dijkstra_full", "dijkstra_limited", "dijkstra_guessed",
                            "dijkstra_retried", "reached"), 0)
    times = dict(attach_s=t1 - t0, bound_s=perf_counter() - t2, dijkstra_s=0.0, unwind_s=0.0)
    with m._lock:  # the source row lives in the mesh's reserved room

        def search(r: int, limit: float) -> np.ndarray:
            t1 = perf_counter()
            src = vertex(sources[r])
            dist, pred = dijkstra(_with_source_row(m, att, sources[r]), directed=True,
                                  indices=[src], return_predecessors=True, limit=limit)
            dist, pred = dist[0], pred[0]
            t2 = perf_counter()
            for i in jobs[r]:
                results[i] = _unwind(m, att, todo[i], direct[i], src, dist, pred)
            times["dijkstra_s"] += t2 - t1
            times["unwind_s"] += perf_counter() - t2
            counts["dijkstra_limited" if limit < np.inf else "dijkstra_full"] += 1
            if stats is not None:
                counts["reached"] += int(np.count_nonzero(np.isfinite(dist)))
            return dist

        for r in range(len(sources)):
            t0 = perf_counter()
            limit, guessed = limits.limit(r)
            counts["dijkstra_guessed"] += guessed
            times["bound_s"] += perf_counter() - t0
            dist = search(r, limit)
            # A limited row is exact wherever it is finite, so an answer within
            # the limit is the full search's; a guess can be too small.
            worst = max(np.inf if results[i] is None else results[i].distance for i in jobs[r])
            if worst > limit:
                counts["dijkstra_retried"] += 1
                dist = search(r, worst * (1.0 + 1e-9))
            t0 = perf_counter()
            if r + 1 < len(sources):
                limits.add_row(r, dist)
            times["bound_s"] += perf_counter() - t0
    if stats is not None:
        off = att.node < 0
        stats.update(sources=len(sources), appended_rows=sum(node[e] < 0 for e in sources),
                     anchors=int(np.diff(att.starts)[off].sum()), **counts, **times)
    for (a, b, *_), result in zip(todo, results):
        if result is None:
            raise ConnectivityError(f"endpoints {a} and {b} lie in different mesh components")
    return results


class _Limits:
    """Dijkstra limits of the source rows from one per-pair bound table: a
    row's limit is the largest bound over its pairs, widened by 1e-9.

    Each pair's bound starts at its guess (_straight_segments), and each
    searched row r tightens every bound by the landmark bound of ALT search:
    with D the row, d(s, t) <= min_a (w_a + D[a]) + min_b (D[b] + w_b) +
    2 slack_r, a over the anchors of s and b over those of t, both read from
    the call's one anchor table (_Attachment.reach).  Other sources cannot
    route through an off-mesh source, so its bound passes through its
    cheapest anchor; slack_r is from _slacks, 0 for a mesh-node source,
    computed at the first add_row, so a call with one source never pays it.
    """

    def __init__(self, graph: sp.csr_matrix, att: _Attachment, ea: np.ndarray,
                 eb: np.ndarray, jobs: list[list[int]], guess: np.ndarray):
        pairs = np.array([i for js in jobs for i in js], dtype=np.intp)
        self._graph, self._att = graph, att
        # Each pair's endpoints and guess, row by row.
        self._s, self._t, self._guess = ea[pairs], eb[pairs], guess[pairs]
        self._bound = self._guess.copy()
        self._first = np.cumsum([0] + [len(js) for js in jobs])
        self._slack2: Optional[np.ndarray] = None  # 2 slack of each endpoint

    def add_row(self, r: int, dist: np.ndarray) -> None:
        if self._slack2 is None:
            self._slack2 = 2.0 * _slacks(self._graph, self._att)
        reach = self._att.reach(dist)
        np.minimum(self._bound, reach[self._s] + reach[self._t]
                   + self._slack2[self._s[self._first[r]]], out=self._bound)

    def limit(self, r: int) -> tuple[float, bool]:
        """The limit of row r, and whether it is a pair's guess."""
        k = self._first[r] + int(np.argmax(self._bound[self._first[r]:self._first[r + 1]]))
        bound = self._bound[k]
        return float(bound) * (1.0 + 1e-9), bool(bound == self._guess[k] < np.inf)


_GUESS_PIECES = 16   # sub-segments per segment of a guess
_GUESS_FACTOR = 1.1  # covers the mesh's overshoot of the segment's integral


def _straight_segments(m: QhMesh, att: _Attachment, ea: np.ndarray,
                       eb: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The straight segment a -> b of each pair of endpoints (ea, eb) in one
    array pass: per-pair arrays (direct, guess), both inf where the segment
    leaves G (_inside on a plane mesh, one segments_inside_many call on a
    curve complex).  direct is the segment's _segment_weights where a and b
    lie within 3 spacings, else inf.  guess, a likely Dijkstra limit, is
    _GUESS_FACTOR times the trapezoid sum over _GUESS_PIECES equal
    sub-segments, an upper estimate of k_G(a, b); the ends' points and
    deltas are att's, the inner deltas from one _region_deltas call.  Two
    mesh nodes joined by an edge need no exception: an exact node's point
    and delta are the mesh's, so their segment weighs the edge's weight,
    which the search reaches no later, and _unwind takes the segment only
    when it is strictly shorter."""
    A, B, dA, dB = att.point[ea], att.point[eb], att.delta[ea], att.delta[eb]
    inside = (m.region.segments_inside_many(A, B) if m._piece_registry
              else _inside(m.region, A, dA, B, dB))
    L = _moduli(A, B)
    direct = np.where(inside & (L <= 3.0 * np.maximum(att.spacing[ea], att.spacing[eb])),
                      _segment_weights(A, dA, B, dB), np.inf)
    inner = A[inside, None] + (B - A)[inside, None] * (np.arange(1, _GUESS_PIECES) / _GUESS_PIECES)
    d = np.column_stack([dA[inside], _region_deltas(m.region, m.metric, inner.ravel())
                         .reshape(inner.shape), dB[inside]])
    guess = np.full(len(ea), np.inf)
    guess[inside] = _GUESS_FACTOR * _trapezoid(L[inside, None] / _GUESS_PIECES, d[:, :-1],
                                               d[:, 1:]).sum(axis=1)
    return direct, guess


def _slacks(graph: sp.csr_matrix, att: _Attachment) -> np.ndarray:
    """For each endpoint of the anchor table, an s with d(k0, x) <= D[x] + s
    at every mesh node x, where D is the distance row of a search from the
    endpoint and k0 its cheapest anchor (the first of equal weights).

    With anchors k and weights w_k, D[x] = min_k (w_k + d(k, x)), and
    d(k0, x) <= graph[k0, k] + d(k, x) gives s = max_k (graph[k0, k] - w_k),
    taking graph[k0, k0] = 0.  s is inf when some anchor is not a mesh
    neighbour of k0.  An exact node is its own anchor at weight 0, so its
    s is 0.
    """
    sizes = np.diff(att.starts)
    owner = np.repeat(np.arange(len(sizes)), sizes)
    cheapest = np.lexsort((att.weights, owner))[att.starts[:-1]]  # stable: first of equals
    k0 = np.repeat(att.nodes[cheapest], sizes)
    edge = np.asarray(graph[k0, att.nodes]).ravel()  # 0 off the row of k0
    edge[(edge == 0.0) & (att.nodes != k0)] = np.inf
    return np.maximum.reduceat(edge - att.weights, att.starts[:-1])


def _spacing(att: _Attachment, job: tuple) -> tuple[float, float]:
    """The endpoint spacings of a pair, in the caller's order."""
    _, _, ea, eb, swap = job
    return tuple(att.spacing[[eb, ea] if swap else [ea, eb]].tolist())


def _unwind(m: QhMesh, att: _Attachment, job: tuple, direct: float, src: int,
            dist: np.ndarray, pred: np.ndarray) -> Optional[PathResult]:
    """The answer of one pair from its source's distance and predecessor rows,
    and the weight of its direct segment (inf when it has none), or None
    when the target is not reached."""
    _, _, ea, eb, swap = job
    # Candidates (distance, last graph vertex, final point off the graph).
    nodes, weights = att.anchors(eb)
    reach = dist[nodes] + weights
    k = int(np.argmin(reach))  # the first of the least
    best = (reach[k], int(nodes[k]), None if att.node[eb] >= 0 else complex(att.point[eb]))
    if direct < best[0]:
        best = (direct, src, complex(att.point[eb]))
    d, v, tail = best
    if not math.isfinite(d):
        return None
    chain, step = [v], pred.item
    while v != src:
        v = step(v)
        if v < 0:
            raise ConnectivityError("predecessor chain broken")
        chain.append(v)
    chain.reverse()
    head = []
    if chain[0] == m.node_count:  # the query vertex stands for an off-mesh source
        head, chain = [att.point[ea]], chain[1:]
    P = np.concatenate([head, m.coords[chain], [] if tail is None else [tail]])
    # The step lengths as abs() gives them, summed one after another.
    elen = float(np.add.accumulate(_moduli(P[:-1], P[1:]))[-1]) if len(P) > 1 else 0.0
    path = P.tolist()
    if swap:
        path.reverse()
    return PathResult(float(d), tuple(path), elen, _spacing(att, job))


def _with_source_row(m: QhMesh, att: _Attachment, e: int) -> sp.csr_matrix:
    """The mesh graph plus the query vertex n = m.node_count, whose row holds
    the anchor out-edges of the source endpoint e, written into the room
    after the graph's entries in m's CSR buffers: nothing is copied.  A
    mesh-node source's row is one 0-weight edge to its node, which its
    search, run from the node, never uses: no edge leads to the query
    vertex.  Good until the next call; callers hold m._lock."""
    nnz = m.graph.nnz
    nodes, weights = att.anchors(e)
    end = nnz + len(nodes)
    m._data[nnz:end] = weights
    m._indices[nnz:end] = nodes
    m._indptr[-1] = end
    return m._query_graph


def path_qh_length(mesh: QhMesh, result: PathResult) -> float:
    """Sum the QH weights of the segments of a returned path.

    Matches PathResult.distance exactly: mesh edges, anchor edges and the
    near-pair segment all carry the weight _segment_weights gives, so each
    is recomputed from the path's points, with their deltas from one
    _region_deltas call, and the sum runs in the canonical order the search
    accumulated it.  A path point outside G raises MembershipError.
    """
    path = result.node_path
    if len(path) > 1 and not _canonical(path[0], path[-1]):
        path = path[::-1]
    P = np.array(path, dtype=np.complex128)
    inside = mesh.region.contains_many(P)
    if not inside.all():
        raise mesh.region.not_member(path[int(np.argmin(inside))])
    d = _region_deltas(mesh.region, mesh.metric, P)
    return sum(_segment_weights(P[:-1], d[:-1], P[1:], d[1:]).tolist(), 0.0)


# ---------------------------------------------------------------------------
# Distance backends (shared by the estimators and the lemma suites)
# ---------------------------------------------------------------------------

class AnalyticBackend:
    """Exact k_G via region.k_exact_many; the oracle side of dual-route checks."""

    def __init__(self, region: Region):
        if region.k_exact_many is None:
            raise ConfigurationError(f"region '{region.name}' has no analytic oracle")
        self.region = region

    def distance(self, x, y) -> float:
        return self.region.k_exact_many(np.array([as_point(x)]), np.array([as_point(y)]))[0]

    def distance_pairs(self, pairs: Sequence[tuple]) -> list[float]:
        Z = np.array([as_point(z) for pair in pairs for z in pair], dtype=complex)
        return self.region.k_exact_many(Z[0::2], Z[1::2])

    def sample_point(self, rng: random.Random) -> complex:
        return self.region.sample_point(rng)

    def sample_points(self, rng: random.Random, n: int) -> list[complex]:
        return self.region.sample_points(rng, n)


def qh_distance_exact(domain: Union[str, Region], x, y) -> float:
    """Closed-form k_G(x, y) on a built-in domain named by make_region, or on
    the region given: the one-element call of its k_exact_many.  A region
    without one raises ConfigurationError; a point off G, MembershipError."""
    region = make_region(domain) if isinstance(domain, str) else domain
    return AnalyticBackend(region).distance(x, y)


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

    def sample_points(self, rng: random.Random, n: int) -> list[complex]:
        return [self.sample_point(rng) for _ in range(n)]


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
                  c: Optional[float] = None, eps: float = 0.05) -> LemmaSuiteReport:
    """Check the three k_G comparison bounds on seeded pairs.

    (1) |x-y| <= (e^k - 1) delta_G(x), all pairs;
    (2) the two-sided component-ball bound with center z and scale t, the
        balls of radius rho cut at h = rho / 8 on curve complexes;
    (3) (1/2)|x-y|/delta_G(x) < k <= 3c|x-y|/delta_G(x) whenever
        |x-y| <= delta_G(x)/(3c) or k <= 1.
    eps is the mesh tolerance applied multiplicatively to each bound.
    """
    if count < 1:
        raise ConfigurationError(f"lemma 3.4 needs count >= 1, got {count}")
    c = region.space.quasiconvexity if c is None else c
    if c is None:
        raise ConfigurationError("quasiconvexity constant required for lemma 3.4")
    rng = random.Random(seed)
    report = LemmaSuiteReport(region.name, "lemma-3.4", count, [], [])

    pairs = sample_pairs(region.sample_points, rng, count)
    ks = backend.distance_pairs(pairs)
    X = np.array([x for x, _ in pairs], dtype=complex)
    member = region.contains_many(X)
    if not member.all():  # delta_G(x) of a point off G
        raise region.not_member(complex(X[np.argmax(~member)]))

    for idx, ((x, y), k, dx) in enumerate(zip(pairs, ks, region.boundary_gaps_many(X).tolist())):
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
            try:
                ball = component_ball(region, z, rho, rho / 8.0)
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
            if abs(x - y) <= COORD_TOL:
                continue
        ball_pairs.append((x, y))
        ball_meta.append((z, t, dz))
    if not isinstance(region, CurveRegion):  # keep the pairs with both points in G
        inside = region.contains_many(np.array(ball_pairs, dtype=complex).ravel())
        keep = np.flatnonzero(inside.reshape(-1, 2).all(axis=1)).tolist()
        ball_pairs, ball_meta = [ball_pairs[i] for i in keep], [ball_meta[i] for i in keep]
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

    (1) |x-y| <= d(x,y) <= c|x-y| in the ambient space, d from one
        length_distances_many call;
    (2) (1/c) k_G <= k'_G <= c k_G, with k_G and k'_G from the two meshes
        (or both from the region's analytic oracle when both meshes are
        omitted; omitting one raises ConfigurationError).
    """
    if (mesh_euclid is None) != (mesh_length is None):
        raise ConfigurationError("lemma 3.6 takes both meshes or neither")
    if count < 1:
        raise ConfigurationError(f"lemma 3.6 needs count >= 1, got {count}")
    c = region.space.quasiconvexity if c is None else c
    if c is None:
        raise ConfigurationError("quasiconvexity constant required for lemma 3.6")
    rng = random.Random(seed)
    report = LemmaSuiteReport(region.name, "lemma-3.6", 2 * count, [], [])

    pairs = sample_pairs(region.sample_points, rng, count)

    slack = 1.0 + 1e-9
    X, Y = np.array(pairs, dtype=complex).reshape(-1, 2).T
    ds = region.space.length_distances_many(X, Y).tolist()
    for idx, ((x, y), d) in enumerate(zip(pairs, ds)):
        sep = abs(x - y)
        ok = (sep <= d * slack) and (d <= c * sep * slack)
        report.check("3.6(1)", idx, idx, x, y, d, sep, sep, c * sep, ok, d=d, sep=sep)

    if mesh_euclid is not None:
        k_vals = [r.distance for r in qh_distance_many(mesh_euclid, pairs)]
        kp_vals = [r.distance for r in qh_distance_many(mesh_length, pairs)]
    else:  # convex ambient: d = |.| hence k' = k
        k_vals = kp_vals = AnalyticBackend(region).distance_pairs(pairs)
    for idx, ((x, y), k, kp) in enumerate(zip(pairs, k_vals, kp_vals)):
        if k <= 0.0:
            continue
        ok = (k / c <= kp * (1.0 + eps)) and (kp <= c * k * (1.0 + eps))
        report.check("3.6(2)", idx, 20000 + idx, x, y, kp, k, k / c, c * k, ok, k=k, kprime=kp)
    return report
