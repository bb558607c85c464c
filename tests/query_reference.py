"""The per-point query attach and the scalar curve-complex length metric that
the array forms in qhkit replaced, kept as references: one _attach call per
endpoint (_attach_plane, _attach_complex), the scalar length_distance of a
curve complex and the scalar length_boundary_distance of a curve region."""
from bisect import bisect_left
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from qhkit.errors import ConnectivityError, MembershipError
from qhkit.qhgraph import _segment_weights
from qhkit.spaces import COORD_TOL, CurveRegion, _coord_key, as_point

from region_reference import locate


def length_distance(space, x: complex, y: complex) -> float:
    """Exact shortest-path length between two on-complex points: the least
    of |s - t| (one segment) and arc(x, u) + D[u][v] + arc(v, y) over the
    ends u, v of their segments."""
    x, y = as_point(x), as_point(y)
    locs = []
    for z, what in ((x, "x"), (y, "y")):
        loc = locate(space.segments, z)
        if loc is None:
            raise MembershipError(f"{what} {z} is not in the {space.kind} space")
        locs.append(loc)
    (i, s), (j, t) = locs
    if abs(x - y) <= COORD_TOL:
        return 0.0
    table = np.asarray(space._table).tolist()
    (a0, a1), (b0, b1) = (tuple(int(e) for e in space._ends[k]) for k in (i, j))
    arcs_x = ((a0, s), (a1, space.segments[i].length - s))
    arcs_y = ((b0, t), (b1, space.segments[j].length - t))
    best = min(ax + table[u][v] + ay for u, ax in arcs_x for v, ay in arcs_y)
    return min(best, abs(s - t)) if i == j else best


def length_boundary_distance(region, z: complex) -> float:
    """delta'_G(z) of a curve region: the least length distance to a
    boundary point."""
    z = region.require_member(z)
    return min(length_distance(region.space, z, bp) for bp in region.boundary_points)


def region_delta(region, metric: str, z: complex) -> float:
    """delta'_G(z) on length-metric curve-region meshes, delta_G(z) otherwise
    (delta'_G = delta_G in the plane)."""
    if metric == "length" and isinstance(region, CurveRegion):
        return length_boundary_distance(region, z)
    return region.boundary_distance(z)


@dataclass
class Attachment:
    """How a query point hooks into the mesh: an exact node or anchor edges."""
    point: complex
    node: Optional[int]
    anchors: list[tuple[int, float]] = field(default_factory=list)  # (node, weight)
    spacing: float = 0.0
    delta: float = 0.0


def attach(mesh, z: complex) -> Attachment:
    z = mesh.region.require_member(as_point(z), "query point")
    if mesh._piece_registry:
        nid = mesh._node_of.get(_coord_key(z))
        return node_attachment(mesh, nid) if nid is not None else attach_complex(mesh, z)
    return attach_plane(mesh, z)


def node_attachment(mesh, nid: int) -> Attachment:
    return Attachment(complex(mesh.coords[nid]), nid, [], float(mesh.spacing[nid]),
                      float(mesh.delta[nid]))


def attach_plane(mesh, z: complex) -> Attachment:
    host = mesh._host_cell(z)
    if host is None:
        raise ConnectivityError(f"query point {z} is not covered by the mesh")
    if _coord_key(mesh.coords[host]) == _coord_key(z):
        return node_attachment(mesh, host)
    dz = region_delta(mesh.region, mesh.metric, z)
    cand = np.concatenate([[host], mesh.neighbors(host)])
    cand = cand[mesh.region.segments_inside_many(np.full(len(cand), z), mesh.coords[cand])]
    if not len(cand):
        raise ConnectivityError(f"query point {z} cannot be joined to the mesh")
    w = _segment_weights(z, dz, mesh.coords[cand], mesh.delta[cand])
    return Attachment(z, None, list(zip(cand.tolist(), w.tolist())),
                      float(mesh.spacing[host]), dz)


def attach_complex(mesh, z: complex) -> Attachment:
    region = mesh.region
    loc = locate(region.pieces, z)
    if loc is None:
        raise MembershipError(f"query point {z} is not on the complex")
    pi, s = loc
    cuts, ids = (list(np.asarray(a).tolist()) for a in mesh._piece_registry[pi])
    pos = bisect_left(cuts, s)
    for k in (pos - 1, pos, pos + 1):
        if 0 <= k < len(cuts) and abs(cuts[k] - s) <= 1e-12 and ids[k] >= 0:
            return node_attachment(mesh, ids[k])
    ks = [k for k in (pos - 1, pos) if 0 <= k < len(cuts) and ids[k] >= 0]
    if not ks:
        raise ConnectivityError(f"query point {z} is isolated by the boundary")
    dz = region_delta(region, mesh.metric, z)
    anchors = [(ids[k], float(_segment_weights(z, dz, mesh.coords[ids[k]], mesh.delta[ids[k]])))
               for k in ks]
    return Attachment(z, None, anchors, max(abs(cuts[k] - s) for k in ks), dz)
