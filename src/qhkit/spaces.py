"""Metric space models and proper subdomains.

Two kinds of ambient space are supported: the Euclidean plane and 1-D curve
complexes (unions of straight segments with shared endpoints, carrying the
restricted plane metric).  Regions are proper open connected subsets with a
closed-form boundary-distance oracle, a membership predicate, and enough
geometry hooks (segment containment, sampling) for the mesh builders and
estimators layered on top.
"""
from __future__ import annotations

import cmath
import math
import random
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import ConfigurationError, MembershipError, ResolutionError

COORD_TOL = 1e-9

Point = complex


def as_point(p) -> complex:
    """Coerce (x, y) pairs or complex numbers to a complex point."""
    if isinstance(p, complex):
        return p
    if isinstance(p, (int, float)):
        return complex(p, 0.0)
    x, y = p
    return complex(float(x), float(y))


def _coord_key(z: complex, digits: int = 10) -> tuple[float, float]:
    z = complex(z)  # numpy scalars round like Python floats
    return (round(z.real, digits), round(z.imag, digits))


def disk_point(rng: random.Random, center: complex, radius: float) -> complex:
    """A uniform draw from the open disk B(center, radius)."""
    r = radius * math.sqrt(rng.random())
    th = rng.uniform(0.0, 2.0 * math.pi)
    return center + complex(r * math.cos(th), r * math.sin(th))


def project_segment(z: complex, a: complex, b: complex) -> tuple[float, float]:
    """(arclength from a of the point of [a, b] closest to z, distance from z to it)."""
    d = b - a
    L2 = d.real * d.real + d.imag * d.imag
    if L2 == 0.0:
        return 0.0, abs(z - a)
    t = ((z - a).real * d.real + (z - a).imag * d.imag) / L2
    t = 0.0 if t < 0.0 else (1.0 if t > 1.0 else t)
    return t * math.sqrt(L2), abs(z - (a + d * t))


def _orient(a: complex, b: complex, c: complex) -> float:
    return (b.real - a.real) * (c.imag - a.imag) - (b.imag - a.imag) * (c.real - a.real)


def segments_cross(a: complex, b: complex, c: complex, d: complex, eps: float = 1e-12) -> bool:
    """True when segment [a,b] meets segment [c,d] (touching counts)."""
    o1 = _orient(a, b, c)
    o2 = _orient(a, b, d)
    o3 = _orient(c, d, a)
    o4 = _orient(c, d, b)
    if (o1 * o2 < eps) and (o3 * o4 < eps):
        # Possible proper crossing or touch; rule out disjoint collinear boxes.
        if max(min(a.real, b.real), min(c.real, d.real)) <= min(max(a.real, b.real), max(c.real, d.real)) + eps and \
           max(min(a.imag, b.imag), min(c.imag, d.imag)) <= min(max(a.imag, b.imag), max(c.imag, d.imag)) + eps:
            return True
    return False


@dataclass(frozen=True)
class Segment:
    """Straight segment between two plane points, parametrized by arclength."""

    a: complex
    b: complex

    @property
    def length(self) -> float:
        return abs(self.b - self.a)

    def point_at(self, s: float) -> complex:
        """Point at arclength s from endpoint a (s in [0, length])."""
        L = self.length
        if L == 0.0:
            return self.a
        return self.a + (self.b - self.a) * (s / L)

    def project(self, z: complex) -> tuple[float, float]:
        """(arclength of the closest point, distance from z to it)."""
        return project_segment(z, self.a, self.b)


def locate(segments: Sequence[Segment], z, tol: float = COORD_TOL) -> Optional[tuple[int, float]]:
    """(segment index, arclength parameter) of z on the nearest segment within
    tol, or None when z is off every segment."""
    z = as_point(z)
    best = None
    for i, seg in enumerate(segments):
        s, d = seg.project(z)
        if d <= tol and (best is None or d < best[2]):
            best = (i, s, d)
    if best is None:
        return None
    return best[0], best[1]


def point_along(segments: Sequence[Segment], lengths: Sequence[float], u: float) -> complex:
    """Point at arclength u along the segments laid end to end."""
    for seg, L in zip(segments, lengths):
        if u <= L:
            return seg.point_at(u)
        u -= L
    return segments[-1].b


def sample_pairs(sample_point: Callable[[random.Random], complex], rng: random.Random,
                 count: int) -> list[tuple[complex, complex]]:
    """count seeded pairs (x, y) of distinct points; a y that repeats x is
    redrawn from the same stream, so the draw order is fixed by the seed."""
    pairs = []
    for _ in range(count):
        x = sample_point(rng)
        y = sample_point(rng)
        while abs(x - y) <= COORD_TOL:
            y = sample_point(rng)
        pairs.append((x, y))
    return pairs


# ---------------------------------------------------------------------------
# Space models
# ---------------------------------------------------------------------------

class SpaceModel:
    """Ambient metric space; see PlaneSpace and CurveComplexSpace."""

    kind: str = "abstract"
    #: c such that the space is c-quasiconvex (None when not declared).
    quasiconvexity: Optional[float] = None

    def contains(self, z: complex, tol: float = COORD_TOL) -> bool:
        raise NotImplementedError

    def require_member(self, z: complex, what: str = "point") -> complex:
        z = as_point(z)
        if not self.contains(z):
            raise MembershipError(f"{what} {z} is not in the {self.kind} space")
        return z

    def ambient_distance(self, x: complex, y: complex) -> float:
        x = self.require_member(x, "x")
        y = self.require_member(y, "y")
        return abs(x - y)

    def length_distance(self, x: complex, y: complex) -> float:
        raise NotImplementedError

    def sample_point(self, rng: random.Random) -> complex:
        raise NotImplementedError


class PlaneSpace(SpaceModel):
    """The Euclidean plane (convex, so the length metric equals |x - y|)."""

    kind = "plane"
    quasiconvexity = 1.0

    def __init__(self, sample_window: tuple[float, float, float, float] = (-3.0, 3.0, -3.0, 3.0)):
        self.sample_window = sample_window

    def contains(self, z: complex, tol: float = COORD_TOL) -> bool:
        return True

    def length_distance(self, x: complex, y: complex) -> float:
        return self.ambient_distance(x, y)

    def sample_point(self, rng: random.Random) -> complex:
        x0, x1, y0, y1 = self.sample_window
        return complex(rng.uniform(x0, x1), rng.uniform(y0, y1))


PLANE = PlaneSpace()


class CurveComplexSpace(SpaceModel):
    """Connected union of straight segments with the restricted plane metric.

    Points are located as (segment index, arclength parameter), so arc
    distances come out exact rather than mesh-approximated.  Segments meet
    only at shared endpoints; a table of shortest distances between the
    endpoints, computed once, carries the length metric.
    """

    kind = "complex"

    def __init__(self, segments: Sequence[Segment], quasiconvexity: Optional[float] = None):
        segments = tuple(segments)
        if not segments:
            raise ConfigurationError("curve complex needs at least one segment")
        self.segments = segments
        self.quasiconvexity = quasiconvexity
        ids: dict[tuple[float, float], int] = {}
        self._ends = [tuple(ids.setdefault(_coord_key(z), len(ids)) for z in (seg.a, seg.b))
                      for seg in segments]
        # Floyd-Warshall over the endpoints, each segment an edge of its length.
        D = np.full((len(ids), len(ids)), np.inf)
        np.fill_diagonal(D, 0.0)
        for (u, v), seg in zip(self._ends, segments):
            D[u, v] = D[v, u] = min(D[u, v], seg.length)
        for k in range(len(ids)):
            np.minimum(D, D[:, k, None] + D[None, k, :], out=D)
        if not np.isfinite(D).all():
            raise ConfigurationError("curve complex segments do not form a connected set")
        self._table = D.tolist()

    def locate(self, z: complex, tol: float = COORD_TOL) -> Optional[tuple[int, float]]:
        return locate(self.segments, z, tol)

    def contains(self, z: complex, tol: float = COORD_TOL) -> bool:
        return self.locate(z, tol) is not None

    def length_distance(self, x: complex, y: complex) -> float:
        """Exact shortest-path length between two on-complex points.

        With x at arclength s on segment i and y at t on segment j, d(x, y) is
        the least of |s - t| (when i == j) and arc(x, u) + D[u][v] + arc(v, y)
        over the ends u of segment i and v of segment j, D being the endpoint
        distance table.
        """
        x, y = as_point(x), as_point(y)
        (i, s), (j, t) = self._locate_member(x, "x"), self._locate_member(y, "y")
        if abs(x - y) <= COORD_TOL:
            return 0.0
        (a0, a1), (b0, b1) = self._ends[i], self._ends[j]
        arcs_x = ((a0, s), (a1, self.segments[i].length - s))
        arcs_y = ((b0, t), (b1, self.segments[j].length - t))
        best = min(ax + self._table[u][v] + ay for u, ax in arcs_x for v, ay in arcs_y)
        return min(best, abs(s - t)) if i == j else best

    def _locate_member(self, z: complex, what: str) -> tuple[int, float]:
        loc = self.locate(z)
        if loc is None:
            raise MembershipError(f"{what} {z} is not in the {self.kind} space")
        return loc

    def sample_point(self, rng: random.Random) -> complex:
        lengths = [seg.length for seg in self.segments]
        return point_along(self.segments, lengths, rng.uniform(0.0, sum(lengths)))


# ---------------------------------------------------------------------------
# Regions
# ---------------------------------------------------------------------------

class Region:
    """Nonempty proper open connected subset G of a space, with exact delta_G."""

    name: str = "region"
    space: SpaceModel
    bounded: bool = False

    def contains(self, z: complex) -> bool:
        raise NotImplementedError

    def require_member(self, z: complex, what: str = "point") -> complex:
        z = as_point(z)
        if not self.contains(z):
            raise MembershipError(f"{what} {z} is not in region '{self.name}'")
        return z

    def boundary_distance(self, z: complex) -> float:
        """delta_G(z): distance from z to the boundary of G in the ambient metric."""
        z = self.require_member(z)
        return self._delta(z)

    def _delta(self, z: complex) -> float:
        raise NotImplementedError

    def boundary_gap(self, z: complex) -> float:
        """Unsigned distance from z to the boundary set, defined on either side."""
        return self._delta(z)

    def length_boundary_distance(self, z: complex) -> float:
        """delta'_G(z): boundary distance in the length metric of the space."""
        return self.boundary_distance(z)

    def segment_inside(self, a: complex, b: complex) -> bool:
        """True when the straight segment [a, b] stays inside G."""
        raise NotImplementedError

    def segments_inside_many(self, A: np.ndarray, B: np.ndarray) -> np.ndarray:
        """Vectorized segment_inside over complex arrays (loop fallback)."""
        return np.array([self.segment_inside(a, b) for a, b in zip(A, B)], dtype=bool)

    def sample_point(self, rng: random.Random) -> complex:
        raise NotImplementedError

    def key(self) -> tuple:
        return (type(self).__name__, self.name)

    def __eq__(self, other) -> bool:
        return isinstance(other, Region) and self.key() == other.key()

    def __hash__(self) -> int:
        return hash(self.key())

    def describe(self) -> dict:
        return {"kind": type(self).__name__, "name": self.name}


class HalfPlaneRegion(Region):
    """Upper half-plane {Im z > 0} inside the Euclidean plane; delta = Im z."""

    name = "halfplane"
    bounded = False

    def __init__(self, sample_window: tuple[float, float, float, float] = (-2.0, 2.0, 0.2, 2.5)):
        self.space = PLANE
        self.sample_window = sample_window

    def contains(self, z: complex) -> bool:
        z = as_point(z)
        return z.imag > 0.0 and cmath.isfinite(z)

    def _delta(self, z: complex) -> float:
        return z.imag

    def boundary_gap(self, z: complex) -> float:
        return abs(as_point(z).imag)

    def segment_inside(self, a: complex, b: complex) -> bool:
        return a.imag > 0.0 and b.imag > 0.0

    def segments_inside_many(self, A: np.ndarray, B: np.ndarray) -> np.ndarray:
        return (A.imag > 0.0) & (B.imag > 0.0)

    def sample_point(self, rng: random.Random) -> complex:
        x0, x1, y0, y1 = self.sample_window
        return complex(rng.uniform(x0, x1), rng.uniform(y0, y1))


class PuncturedPlaneRegion(Region):
    """Punctured plane C \\ {0}; delta = |z|."""

    name = "punctured"
    bounded = False

    def __init__(self, sample_radii: tuple[float, float] = (0.2, 5.0)):
        self.space = PLANE
        self.sample_radii = sample_radii

    def contains(self, z: complex) -> bool:
        z = as_point(z)
        return z != 0 and cmath.isfinite(z)

    def _delta(self, z: complex) -> float:
        return abs(z)

    def boundary_gap(self, z: complex) -> float:
        return abs(as_point(z))

    def segment_inside(self, a: complex, b: complex) -> bool:
        if not (self.contains(a) and self.contains(b)):
            return False
        return project_segment(0j, a, b)[1] > 1e-12

    def segments_inside_many(self, A: np.ndarray, B: np.ndarray) -> np.ndarray:
        D = B - A
        L2 = D.real * D.real + D.imag * D.imag
        L2 = np.where(L2 == 0.0, 1.0, L2)
        t = np.clip(-(A.real * D.real + A.imag * D.imag) / L2, 0.0, 1.0)
        Q = A + D * t
        d = np.hypot(Q.real, Q.imag)
        return (np.abs(A) > 0.0) & (np.abs(B) > 0.0) & (d > 1e-12)

    def sample_point(self, rng: random.Random) -> complex:
        r0, r1 = self.sample_radii
        r = math.exp(rng.uniform(math.log(r0), math.log(r1)))
        th = rng.uniform(0.0, 2.0 * math.pi)
        return complex(r * math.cos(th), r * math.sin(th))


class DiskRegion(Region):
    """Open disk |z - center| < radius; delta = radius - |z - center|."""

    bounded = True

    def __init__(self, center: complex, radius: float, name: str = "disk"):
        if radius <= 0:
            raise ConfigurationError("disk radius must be positive")
        self.space = PLANE
        self.center = as_point(center)
        self.radius = float(radius)
        self.name = name

    def contains(self, z: complex) -> bool:
        try:
            return abs(as_point(z) - self.center) < self.radius
        except OverflowError:  # |z - center| beyond the float range
            return False

    def _delta(self, z: complex) -> float:
        return self.radius - abs(z - self.center)

    def boundary_gap(self, z: complex) -> float:
        return abs(self.radius - abs(as_point(z) - self.center))

    def segment_inside(self, a: complex, b: complex) -> bool:
        return self.contains(a) and self.contains(b)

    def segments_inside_many(self, A: np.ndarray, B: np.ndarray) -> np.ndarray:
        return (np.abs(A - self.center) < self.radius) & (np.abs(B - self.center) < self.radius)

    def sample_point(self, rng: random.Random) -> complex:
        return disk_point(rng, self.center, self.radius * 0.95)

    def key(self) -> tuple:
        return ("DiskRegion", _coord_key(self.center), round(self.radius, 12))

    def describe(self) -> dict:
        return {"kind": "DiskRegion", "center": [self.center.real, self.center.imag],
                "radius": self.radius}


class PolygonRegion(Region):
    """Polygon interior minus polygonal holes; delta = distance to the edges."""

    bounded = True

    def __init__(self, outer: Sequence[complex], holes: Sequence[Sequence[complex]] = (),
                 name: str = "polygon"):
        self.space = PLANE
        self.outer = tuple(as_point(p) for p in outer)
        self.holes = tuple(tuple(as_point(p) for p in h) for h in holes)
        if len(self.outer) < 3:
            raise ConfigurationError("polygon needs at least 3 vertices")
        self.name = name
        self._edges: list[tuple[complex, complex]] = []
        for ring in (self.outer, *self.holes):
            n = len(ring)
            for i in range(n):
                self._edges.append((ring[i], ring[(i + 1) % n]))

    @staticmethod
    def _inside_ring(z: complex, ring: tuple[complex, ...]) -> bool:
        x, y = z.real, z.imag
        inside = False
        n = len(ring)
        for i in range(n):
            xi, yi = ring[i].real, ring[i].imag
            xj, yj = ring[(i + 1) % n].real, ring[(i + 1) % n].imag
            if (yi > y) != (yj > y):
                xc = (xj - xi) * (y - yi) / (yj - yi) + xi
                if x < xc:
                    inside = not inside
        return inside

    def contains(self, z: complex) -> bool:
        z = as_point(z)
        if not self._inside_ring(z, self.outer):
            return False
        if any(self._inside_ring(z, h) for h in self.holes):
            return False
        return self.boundary_gap(z) > 0.0

    def _delta(self, z: complex) -> float:
        return min(project_segment(z, a, b)[1] for a, b in self._edges)

    def boundary_gap(self, z: complex) -> float:
        return self._delta(as_point(z))

    def segment_inside(self, a: complex, b: complex) -> bool:
        if not (self.contains(a) and self.contains(b)):
            return False
        if any(segments_cross(a, b, p, q) for p, q in self._edges):
            return False
        return self.contains((a + b) / 2)

    def sample_point(self, rng: random.Random) -> complex:
        xs = [p.real for p in self.outer]
        ys = [p.imag for p in self.outer]
        for _ in range(10000):
            z = complex(rng.uniform(min(xs), max(xs)), rng.uniform(min(ys), max(ys)))
            if self.contains(z):
                return z
        raise ResolutionError("rejection sampling failed; polygon area too thin")

    def key(self) -> tuple:
        return ("PolygonRegion", tuple(_coord_key(p) for p in self.outer),
                tuple(tuple(_coord_key(p) for p in h) for h in self.holes))


class CurveRegion(Region):
    """Open subdomain of a curve complex given by kept pieces and boundary points.

    The boundary is an explicit finite point set relative to the ambient
    complex, so delta_G is an exact minimum of point distances.
    """

    def __init__(self, space: CurveComplexSpace, pieces: Sequence[Segment],
                 boundary_points: Sequence[complex], name: str = "curve-region"):
        self.space = space
        self.pieces = tuple(pieces)
        self.boundary_points = tuple(as_point(p) for p in boundary_points)
        if not self.boundary_points:
            raise ConfigurationError("a proper subdomain needs a nonempty boundary")
        self.name = name
        self.bounded = True

    def locate(self, z: complex, tol: float = COORD_TOL) -> Optional[tuple[int, float]]:
        return locate(self.pieces, z, tol)

    def contains(self, z: complex) -> bool:
        z = as_point(z)
        if self.locate(z) is None:
            return False
        return min(abs(z - bp) for bp in self.boundary_points) > COORD_TOL

    def _delta(self, z: complex) -> float:
        return min(abs(z - bp) for bp in self.boundary_points)

    def boundary_gap(self, z: complex) -> float:
        return self._delta(as_point(z))

    def length_boundary_distance(self, z: complex) -> float:
        z = self.require_member(z)
        return min(self.space.length_distance(z, bp) for bp in self.boundary_points)

    def segment_inside(self, a: complex, b: complex) -> bool:
        # Mesh edges on a complex run along a single piece; check the chord
        # lies on one piece and no boundary point sits strictly between.
        if not (self.contains(a) and self.contains(b)):
            return False
        for seg in self.pieces:
            sa, da = seg.project(a)
            sb, db = seg.project(b)
            if da <= COORD_TOL and db <= COORD_TOL:
                lo, hi = min(sa, sb), max(sa, sb)
                blocked = False
                for bp in self.boundary_points:
                    sp, dp = seg.project(bp)
                    if dp <= COORD_TOL and lo + COORD_TOL < sp < hi - COORD_TOL:
                        blocked = True
                        break
                if not blocked:
                    return True
        return False

    def sample_point(self, rng: random.Random) -> complex:
        lengths = [seg.length for seg in self.pieces]
        total = sum(lengths)
        for _ in range(10000):
            z = point_along(self.pieces, lengths, rng.uniform(0.0, total))
            if self.contains(z):
                return z
        raise ResolutionError("could not sample a region point clear of the boundary")

    def key(self) -> tuple:
        return ("CurveRegion", self.name,
                tuple((_coord_key(s.a), _coord_key(s.b)) for s in self.pieces),
                tuple(_coord_key(p) for p in self.boundary_points))

    def describe(self) -> dict:
        return {"kind": "CurveRegion", "name": self.name,
                "boundary_points": [[p.real, p.imag] for p in self.boundary_points]}


# ---------------------------------------------------------------------------
# Component balls
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ComponentBall:
    """Mesh realization of B^G(z, r): the z-component of B(z, r) and G.

    nodes are the flood-filled mesh points; frontier holds the mesh points
    adjacent to the component but excluded from it (outside the ball, outside
    G, or cut off by the boundary); spacing is the mesh size h.
    """

    center: complex
    radius: float
    nodes: tuple[complex, ...]
    frontier: tuple[complex, ...]
    spacing: float

    def contains_point(self, z: complex, tol: float = COORD_TOL) -> bool:
        z = as_point(z)
        return any(abs(z - n) <= tol for n in self.nodes)


#: Most mesh points a component ball may cut; a finer mesh raises
#: ResolutionError before any point is built.
MAX_BALL_POINTS = 250_000

_BALL_NEIGHBORS = [(di, dj) for di in (-1, 0, 1) for dj in (-1, 0, 1) if (di, dj) != (0, 0)]


def _check_ball_points(count: int, z: complex, r: float, h: float) -> None:
    if count > MAX_BALL_POINTS:
        raise ResolutionError(
            f"resolution {h} cuts B({z}, {r}) into {count} mesh points, "
            f"over the cap MAX_BALL_POINTS = {MAX_BALL_POINTS}")


def _component_ball_plane(region: Region, z: complex, r: float, h: float) -> ComponentBall:
    n = int(math.ceil(r / h)) + 1
    _check_ball_points((2 * n + 1) ** 2, z, r, h)
    accept: dict[tuple[int, int], complex] = {}
    candidates: dict[tuple[int, int], complex] = {}
    for i in range(-n, n + 1):
        for j in range(-n, n + 1):
            g = z + complex(i * h, j * h)
            candidates[(i, j)] = g
            if math.hypot(i * h, j * h) < r and region.contains(g):
                accept[(i, j)] = g

    if (0, 0) not in accept:
        accept[(0, 0)] = z  # center always belongs to its own component
    visited = {(0, 0)}
    stack = [(0, 0)]
    while stack:
        ci, cj = stack.pop()
        a = accept[(ci, cj)]
        for di, dj in _BALL_NEIGHBORS:
            key = (ci + di, cj + dj)
            if key in visited or key not in accept:
                continue
            b = accept[key]
            if region.segment_inside(a, b):
                visited.add(key)
                stack.append(key)

    if len(visited) < 2:
        raise ResolutionError(
            f"resolution {h} places no mesh node besides the center in B({z}, {r})")

    frontier = []
    for ci, cj in visited:
        for di, dj in _BALL_NEIGHBORS:
            key = (ci + di, cj + dj)
            if key not in visited and key in candidates:
                frontier.append(candidates[key])
    nodes = tuple(accept[k] for k in sorted(visited))
    frontier_t = tuple(sorted(set(frontier), key=_coord_key))
    return ComponentBall(z, r, nodes, frontier_t, h)


def _component_ball_complex(region: CurveRegion, z: complex, r: float, h: float) -> ComponentBall:
    loc = region.locate(z)
    if loc is None:
        raise MembershipError(f"center {z} is not on the complex")

    node_ids: dict[tuple[float, float], int] = {}
    coords: list[complex] = []
    in_ball: list[bool] = []
    adj: list[list[int]] = []

    def get_node(p: complex) -> int:
        k = _coord_key(p)
        if k not in node_ids:
            node_ids[k] = len(coords)
            coords.append(p)
            in_ball.append(abs(p - z) < r and region.contains(p))
            adj.append([])
        return node_ids[k]

    # Each piece keeps its whole-length grid L*k/m, visited only over the
    # indices within r + 2h of z, one index of margin on each side.  Visited
    # nodes lie within r of z and their neighbours within r + h, so every
    # node, edge and frontier point of the ball is cut as before.
    reach = r + 2.0 * h
    windows = []
    for pi, seg in enumerate(region.pieces):
        s0, d = seg.project(z)
        if d >= reach and pi != loc[0]:
            continue
        L = seg.length
        if L / h == math.inf:
            raise ResolutionError(f"resolution {h} is too fine to cut a piece of length {L}")
        m = max(1, int(math.ceil(L / h)))
        w = math.sqrt(max(reach * reach - d * d, 0.0))
        lo = max(0, math.floor((s0 - w) * m / L) - 1) if L > 0.0 else 0
        hi = min(m, math.ceil((s0 + w) * m / L) + 1) if L > 0.0 else m
        windows.append((pi, seg, m, lo, hi))
    _check_ball_points(sum(hi - lo + 1 for *_, lo, hi in windows), z, r, h)

    for pi, seg, m, lo, hi in windows:
        params = [seg.length * k / m for k in range(lo, hi + 1)]
        if pi == loc[0]:
            params = sorted(set(params + [loc[1]]))
        prev = None
        for s in params:
            p = seg.point_at(s)
            nid = get_node(p)
            if prev is not None and region.segment_inside(coords[prev], coords[nid]):
                adj[prev].append(nid)
                adj[nid].append(prev)
            prev = nid

    start = get_node(region.pieces[loc[0]].point_at(loc[1]))
    in_ball[start] = True
    visited = {start}
    stack = [start]
    while stack:
        u = stack.pop()
        for v in adj[u]:
            if v not in visited and in_ball[v]:
                visited.add(v)
                stack.append(v)

    if len(visited) < 2:
        raise ResolutionError(
            f"resolution {h} places no mesh node besides the center in B({z}, {r})")

    frontier = sorted({_coord_key(coords[v]) for u in visited for v in adj[u]
                       if v not in visited})
    nodes = tuple(sorted((coords[u] for u in visited), key=_coord_key))
    return ComponentBall(z, r, nodes, tuple(complex(a, b) for a, b in frontier), h)


# ---------------------------------------------------------------------------
# Module-level operations
# ---------------------------------------------------------------------------

def ambient_distance(space: SpaceModel, x, y) -> float:
    """|x - y| in the ambient metric; both points must belong to the space."""
    return space.ambient_distance(as_point(x), as_point(y))


def boundary_distance(region: Region, x) -> float:
    """delta_G(x), exact for analytic regions and explicit curve regions."""
    return region.boundary_distance(as_point(x))


def length_distance(space: SpaceModel, x, y) -> float:
    """Length metric d(x, y) of the space (exact for both supported kinds)."""
    return space.length_distance(as_point(x), as_point(y))


def quasiconvexity_estimate(space: SpaceModel, samples: int, seed: int) -> float:
    """Max of d(x, y)/|x - y| over seeded sample pairs; a lower bound for c."""
    if samples < 2:
        raise ConfigurationError("quasiconvexity estimate needs samples >= 2")
    best = 1.0
    for x, y in sample_pairs(space.sample_point, random.Random(seed), samples):
        ratio = space.length_distance(x, y) / abs(x - y)
        if ratio > best:
            best = ratio
    return best


def component_ball(region: Region, z, r: float, resolution: float) -> ComponentBall:
    """Flood-fill realization of the component ball B^G(z, r) at mesh size h.

    Edges whose endpoints leave the open ball are excluded outright, which
    keeps every node within distance r of the center.  In the plane the mesh
    is the square grid of spacing h around z, (2n + 1)^2 points with
    n = ceil(r/h) + 1.  On a curve complex each piece of length L carries
    the grid L*k/m, m = ceil(L/h), but only the part of it within r + 2h of
    z is cut: O(r/h) points per nearby piece, and the same nodes and frontier
    as cutting every piece whole.  A mesh of more than MAX_BALL_POINTS
    points raises ResolutionError before anything is built.
    """
    z = region.require_member(as_point(z), "center")
    if not 0.0 < r < math.inf:
        raise ConfigurationError("component ball radius must be positive and finite")
    if not 0.0 < resolution < math.inf:
        raise ConfigurationError("resolution must be positive and finite")
    if r / resolution == math.inf:
        raise ResolutionError(f"resolution {resolution} cuts B({z}, {r}) into more than "
                              f"MAX_BALL_POINTS = {MAX_BALL_POINTS} mesh points")
    if isinstance(region, CurveRegion):
        return _component_ball_complex(region, z, r, resolution)
    return _component_ball_plane(region, z, r, resolution)
