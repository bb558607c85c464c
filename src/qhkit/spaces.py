"""Metric space models and proper subdomains.

Two kinds of ambient space are supported: the Euclidean plane and 1-D curve
complexes (unions of straight segments with shared endpoints, carrying the
restricted plane metric).  Regions are proper open connected subsets with a
closed-form boundary-distance oracle, a membership predicate, and enough
geometry hooks (segment containment, sampling) for the mesh builders and
estimators layered on top.
"""
from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components

from .errors import ConfigurationError, MembershipError, ResolutionError

COORD_TOL = 1e-9
#: Consecutive rejected tries after which a rejection sampler gives up.
_MAX_REJECTIONS = 10000

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


#: An exact power of two that brings the square of any finite length into range.
_TINY = 2.0 ** -600


def _modulus(z: complex) -> float:
    """abs(z), not math.hypot, which rounds some results differently; inf
    where abs() overflows."""
    try:
        return abs(z)
    except OverflowError:  # |z| beyond the float range
        return math.inf


def _moduli(Z: np.ndarray, center: complex = 0j) -> np.ndarray:
    """abs(z - center) for each z of a complex array, bit for bit as abs()
    gives it (np.abs rounds some differently), and inf where abs() overflows."""
    with np.errstate(over="ignore"):
        W = Z - center
        return np.hypot(W.real, W.imag)


def _projections(Z: np.ndarray, A: np.ndarray, B: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Over broadcast complex arrays, the arclength from a of the point of
    [a, b] closest to z (t |b - a| with t clipped to [0, 1]) and the distance
    from z to it (as abs() gives it), rescaled by _TINY where the square of
    |b - a| overflows or the dot product reads inf - inf."""
    with np.errstate(all="ignore"):
        D, W = B - A, Z - A
        L2 = D.real * D.real + D.imag * D.imag
        dot = W.real * D.real + W.imag * D.imag
        t = np.where(L2 == 0.0, 0.0, np.clip(dot / L2, 0.0, 1.0))  # clip keeps -0.0 and nan
        R = Z - (A + D * t)
        S, dist = t * np.sqrt(L2), np.hypot(R.real, R.imag)
        big = np.isinf(L2) | (np.isnan(dot) & np.isfinite(Z))
        if big.any():
            big &= np.isfinite(A) & np.isfinite(B)
            s, d = _projections(*(np.broadcast_to(X, big.shape)[big] * _TINY for X in (Z, A, B)))
            S[big], dist[big] = s / _TINY, d / _TINY
    return S, dist


def _orient(A: np.ndarray, B: np.ndarray, C: np.ndarray) -> np.ndarray:
    return (B.real - A.real) * (C.imag - A.imag) - (B.imag - A.imag) * (C.real - A.real)


@dataclass(frozen=True)
class Segment:
    """Straight segment between two plane points, parametrized by arclength."""

    a: complex
    b: complex

    @property
    def length(self) -> float:
        return abs(self.b - self.a)

    def point_at(self, s):
        """Point at arclength s from endpoint a (s in [0, length]); an array
        of s gives a complex array, bit for bit the scalar results."""
        L = self.length
        if L == 0.0:
            return self.a if np.ndim(s) == 0 else np.full(np.shape(s), self.a)
        return self.a + (self.b - self.a) * (s / L)


def locate_many(A: np.ndarray, B: np.ndarray, Z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Place every point of Z on the segments [A[k], B[k]]: arrays of Z's
    shape with the index of the first segment at the least distance within
    COORD_TOL (-1 when z is off every segment) and the arclength on it, both
    from one _projections call."""
    shape = (-1,) + (1,) * Z.ndim
    S, D = _projections(Z, A.reshape(shape), B.reshape(shape))
    D = np.where(D <= COORD_TOL, D, np.inf)  # off-segment and nan distances never win
    i = np.expand_dims(np.argmin(D, axis=0), 0)  # the first of the least
    found = np.isfinite(np.take_along_axis(D, i, 0)[0])
    return np.where(found, i[0], -1), np.take_along_axis(S, i, 0)[0]


def point_along(segments: Sequence[Segment], lengths: Sequence[float], u: float) -> complex:
    """Point at arclength u along the segments laid end to end."""
    for seg, L in zip(segments, lengths):
        if u <= L:
            return seg.point_at(u)
        u -= L
    return segments[-1].b


def sample_pairs(sample_points: Callable[[random.Random, int], list[complex]],
                 rng: random.Random, count: int) -> list[tuple[complex, complex]]:
    """count seeded pairs: each x with the next point farther than COORD_TOL
    from it.  A batch asks for the points that the pairs left take with no
    skip, so no point is drawn past the last pair, as one at a time."""
    pairs, x = [], None
    while len(pairs) < count:
        for p in sample_points(rng, 2 * (count - len(pairs)) - (x is not None)):
            if x is None:
                x = p
            elif not abs(x - p) <= COORD_TOL:
                pairs.append((x, p))
                x = None
    return pairs


# ---------------------------------------------------------------------------
# Space models
# ---------------------------------------------------------------------------

class SpaceModel:
    """Ambient metric space; see PlaneSpace and CurveComplexSpace."""

    kind: str = "abstract"
    #: c such that the space is c-quasiconvex (None when not declared).
    quasiconvexity: Optional[float] = None

    def contains(self, z: complex) -> bool:
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

    def length_distances_many(self, X: np.ndarray, Y: np.ndarray) -> np.ndarray:
        """The length metric d(x, y) over broadcast complex arrays X and Y."""
        raise NotImplementedError

    def length_distance(self, x: complex, y: complex) -> float:
        """d(x, y): a one-element call of length_distances_many."""
        return float(self.length_distances_many(np.array([as_point(x)]),
                                                np.array([as_point(y)]))[0])

    def sample_point(self, rng: random.Random) -> complex:
        raise NotImplementedError

    def sample_points(self, rng: random.Random, n: int) -> list[complex]:
        """n draws of sample_point from the stream."""
        return [self.sample_point(rng) for _ in range(n)]


class PlaneSpace(SpaceModel):
    """The Euclidean plane (convex, so the length metric equals |x - y|)."""

    kind = "plane"
    quasiconvexity = 1.0

    def __init__(self, sample_window: tuple[float, float, float, float] = (-3.0, 3.0, -3.0, 3.0)):
        self.sample_window = sample_window

    def contains(self, z: complex) -> bool:
        return True

    def length_distances_many(self, X: np.ndarray, Y: np.ndarray) -> np.ndarray:
        return _moduli(X, Y)  # |x - y| as abs() gives it, inf past the float range

    def sample_point(self, rng: random.Random) -> complex:
        x0, x1, y0, y1 = self.sample_window
        return complex(rng.uniform(x0, x1), rng.uniform(y0, y1))


PLANE = PlaneSpace()


class CurveComplexSpace(SpaceModel):
    """Connected union of straight segments with the restricted plane metric.

    locate_many places points as (segment index, arclength parameter), so
    arc distances come out exact rather than mesh-approximated; contains is
    its one-element call.  Segments meet only at shared endpoints; a table of
    shortest distances between the endpoints, computed once, carries the
    length metric, which length_distances_many evaluates over arrays
    (length_distance is its one-element call).
    """

    kind = "complex"

    def __init__(self, segments: Sequence[Segment], quasiconvexity: Optional[float] = None):
        segments = tuple(segments)
        if not segments:
            raise ConfigurationError("curve complex needs at least one segment")
        self.segments = segments
        self.quasiconvexity = quasiconvexity
        ids: dict[tuple[float, float], int] = {}
        self._ends = np.array([[ids.setdefault(_coord_key(z), len(ids)) for z in (seg.a, seg.b)]
                               for seg in segments])
        self._a = np.array([seg.a for seg in segments])
        self._b = np.array([seg.b for seg in segments])
        self._lengths = _moduli(self._b, self._a)  # seg.length, bit for bit
        # Floyd-Warshall over the endpoints, each segment an edge of its length.
        D = np.full((len(ids), len(ids)), np.inf)
        np.fill_diagonal(D, 0.0)
        for (u, v), L in zip(self._ends.tolist(), self._lengths.tolist()):
            D[u, v] = D[v, u] = min(D[u, v], L)
        for k in range(len(ids)):
            np.minimum(D, D[:, k, None] + D[None, k, :], out=D)
        if not np.isfinite(D).all():
            raise ConfigurationError("curve complex segments do not form a connected set")
        self._table = D

    def contains(self, z: complex) -> bool:
        return bool(locate_many(self._a, self._b, np.array([as_point(z)]))[0][0] >= 0)

    def length_distances_many(self, X: np.ndarray, Y: np.ndarray) -> np.ndarray:
        """Exact shortest-path lengths between on-complex points, over
        broadcast arrays.

        With x at arclength s on segment i and y at t on segment j, d(x, y) is
        the least of arc(x, u) + D[u][v] + arc(v, y) over the ends u of
        segment i and v of segment j, in that order, D being the endpoint
        distance table; then of that and |s - t| when i == j; and 0 where
        |x - y| <= COORD_TOL.  The first point of X, then of Y, that is off
        the complex raises MembershipError.
        """
        (i, s), (j, t) = (self._locate_members(Z, what) for Z, what in ((X, "x"), (Y, "y")))
        best = np.min([ax + self._table[self._ends[i, u], self._ends[j, v]] + ay
                       for u, ax in enumerate((s, self._lengths[i] - s))
                       for v, ay in enumerate((t, self._lengths[j] - t))], axis=0)
        best = np.where(i == j, np.minimum(best, np.abs(s - t)), best)
        return np.where(_moduli(X, Y) <= COORD_TOL, 0.0, best)

    def _locate_members(self, Z: np.ndarray, what: str) -> tuple[np.ndarray, np.ndarray]:
        i, s = locate_many(self._a, self._b, Z)
        if (i < 0).any():
            z = complex(Z.flat[np.argmax(i < 0)])
            raise MembershipError(f"{what} {z} is not in the {self.kind} space")
        return i, s

    def sample_point(self, rng: random.Random) -> complex:
        lengths = [seg.length for seg in self.segments]
        return point_along(self.segments, lengths, rng.uniform(0.0, sum(lengths)))


# ---------------------------------------------------------------------------
# Regions
# ---------------------------------------------------------------------------

class Region:
    """Nonempty proper open connected subset G of a space, with exact delta_G.

    A subclass gives three array predicates over complex arrays:
    contains_many (membership), boundary_gaps_many (the unsigned distance to
    the boundary set, defined on either side) and segments_inside_many
    (whether each straight segment [a, b] stays in G).  The mesh builders
    refine, cut, filter and weigh through these, the component balls accept
    and join through them, and the queries attach all their endpoints
    through them in one pass.  At a member z, boundary_gaps_many must be the
    distance to the whole boundary, delta_G(z), not to a part of it: the
    plane builder takes every segment shorter than it from z as inside G
    without calling segments_inside_many (qhgraph._disc_certified).  Its
    rounding must stay within a few ulps of the largest of |z| and
    gap_scale(), the largest magnitude of the region's own that it computes
    with.  The scalar predicates derive from them:
    contains, boundary_gap and segment_inside are one-element calls, and
    boundary_distance, delta_G, is the boundary_gap of a member.
    length_boundary_distances_many gives delta'_G of members, which is delta_G
    in the plane, and length_boundary_distance is its one-element call on
    curve regions.  sample_points(rng, n) gives what n calls of sample_point
    give; the rejection samplers draw in batches (_rejection_sample) and
    test each batch with one contains_many call.
    """

    name: str = "region"
    space: SpaceModel
    bounded: bool = False

    def contains_many(self, Z: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def boundary_gaps_many(self, Z: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def segments_inside_many(self, A: np.ndarray, B: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def gap_scale(self) -> float:
        return 0.0

    def contains(self, z: complex) -> bool:
        return bool(self.contains_many(np.array([as_point(z)]))[0])

    def boundary_gap(self, z: complex) -> float:
        """Unsigned distance from z to the boundary set, defined on either side."""
        return float(self.boundary_gaps_many(np.array([as_point(z)]))[0])

    def segment_inside(self, a: complex, b: complex) -> bool:
        """True when the straight segment [a, b] stays inside G."""
        return bool(self.segments_inside_many(np.array([as_point(a)]),
                                              np.array([as_point(b)]))[0])

    def require_member(self, z: complex, what: str = "point") -> complex:
        z = as_point(z)
        if not self.contains(z):
            raise self.not_member(z, what)
        return z

    def not_member(self, z: complex, what: str = "point") -> MembershipError:
        """The error require_member raises for a point z outside G."""
        return MembershipError(f"{what} {z} is not in region '{self.name}'")

    def boundary_distance(self, z: complex) -> float:
        """delta_G(z): distance from z to the boundary of G in the ambient metric."""
        return self.boundary_gap(self.require_member(z))

    def length_boundary_distance(self, z: complex) -> float:
        """delta'_G(z): boundary distance in the length metric of the space."""
        return self.boundary_distance(z)

    def length_boundary_distances_many(self, Z: np.ndarray) -> np.ndarray:
        """delta'_G over a 1-D array of points of G; the plane is convex, so
        delta'_G = delta_G there."""
        return self.boundary_gaps_many(Z)

    def sample_point(self, rng: random.Random) -> complex:
        raise NotImplementedError

    def sample_points(self, rng: random.Random, n: int) -> list[complex]:
        """n draws of sample_point from the stream."""
        return [self.sample_point(rng) for _ in range(n)]

    def _rejection_sample(self, rng: random.Random, n: int,
                          draw: Callable[[random.Random], complex], message: str) -> list[complex]:
        """The first n members of G among the tries draw(rng): each batch draws
        the tries still needed, so the stream ends where one-at-a-time draws
        leave it, even at the _MAX_REJECTIONS-th rejection in a row."""
        out, run = [], 0  # run: rejections since the last accepted try
        while len(out) < n:
            k = min(n - len(out), _MAX_REJECTIONS - run)
            Z = np.array([draw(rng) for _ in range(k)], dtype=complex)
            ok = self.contains_many(Z)
            out += Z[ok].tolist()
            run = k - 1 - int(np.flatnonzero(ok)[-1]) if ok.any() else run + k
            if run == _MAX_REJECTIONS:
                raise ResolutionError(message)
        return out

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

    def contains_many(self, Z: np.ndarray) -> np.ndarray:
        return (Z.imag > 0.0) & np.isfinite(Z)

    def boundary_gaps_many(self, Z: np.ndarray) -> np.ndarray:
        return np.abs(Z.imag)

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

    def contains_many(self, Z: np.ndarray) -> np.ndarray:
        return (Z != 0) & np.isfinite(Z)

    def boundary_gaps_many(self, Z: np.ndarray) -> np.ndarray:
        return _moduli(Z)

    def segments_inside_many(self, A: np.ndarray, B: np.ndarray) -> np.ndarray:
        return (self.contains_many(A) & self.contains_many(B)
                & (_projections(0j, A, B)[1] > 1e-12))

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

    def contains_many(self, Z: np.ndarray) -> np.ndarray:
        return _moduli(Z, self.center) < self.radius

    def boundary_gaps_many(self, Z: np.ndarray) -> np.ndarray:
        return np.abs(self.radius - _moduli(Z, self.center))

    def gap_scale(self) -> float:
        return abs(self.center) + self.radius

    def segments_inside_many(self, A: np.ndarray, B: np.ndarray) -> np.ndarray:
        return self.contains_many(A) & self.contains_many(B)

    def sample_point(self, rng: random.Random) -> complex:
        return disk_point(rng, self.center, self.radius * 0.95)

    def key(self) -> tuple:
        return ("DiskRegion", _coord_key(self.center), round(self.radius, 12))

    def describe(self) -> dict:
        return {"kind": "DiskRegion", "center": [self.center.real, self.center.imag],
                "radius": self.radius}


class PolygonRegion(Region):
    """Polygon interior minus polygonal holes; delta = distance to the edges.

    The predicates broadcast over (edges, points).  Membership is crossing-
    number ray casting, the crossings XOR-accumulated per ring, and a gap
    above 0; the gap is the least _projections distance to an edge, as
    Python's min() takes it; a segment stays inside when both ends do, the
    orientation tests (with their bounding-box rule, both to within 1e-12)
    find no edge that it meets, and its midpoint is inside.
    """

    bounded = True

    def __init__(self, outer: Sequence[complex], holes: Sequence[Sequence[complex]] = (),
                 name: str = "polygon"):
        self.space = PLANE
        self.outer = tuple(as_point(p) for p in outer)
        self.holes = tuple(tuple(as_point(p) for p in h) for h in holes)
        if len(self.outer) < 3:
            raise ConfigurationError("polygon needs at least 3 vertices")
        self.name = name
        rings = (self.outer, *self.holes)
        # Edge k runs from _a[k] to _b[k]; ring r's edges start at _starts[r].
        self._a = np.array([z for ring in rings for z in ring])[:, None]
        self._b = np.array([z for ring in rings for z in ring[1:] + ring[:1]])[:, None]
        self._starts = np.cumsum([0] + [len(ring) for ring in rings[:-1]])

    def contains_many(self, Z: np.ndarray) -> np.ndarray:
        x, y = Z.real, Z.imag
        xi, yi, xj, yj = self._a.real, self._a.imag, self._b.real, self._b.imag
        with np.errstate(all="ignore"):
            crossed = ((yi > y) != (yj > y)) & (x < (xj - xi) * (y - yi) / (yj - yi) + xi)
        odd = np.logical_xor.reduceat(crossed, self._starts, axis=0)
        inside = odd[0] & ~odd[1:].any(axis=0)
        inside[inside] = self.boundary_gaps_many(Z[inside]) > 0.0
        return inside

    def boundary_gaps_many(self, Z: np.ndarray) -> np.ndarray:
        dist = _projections(Z, self._a, self._b)[1]
        # min() keeps its first value when that is nan, and skips a later nan.
        return np.where(np.isnan(dist[0]), np.nan, np.fmin.reduce(dist, axis=0))

    def gap_scale(self) -> float:
        return float(np.abs(self._a).max())

    def segments_inside_many(self, A: np.ndarray, B: np.ndarray) -> np.ndarray:
        ok = self.contains_many(A) & self.contains_many(B)
        a, b, p, q = A[ok], B[ok], self._a, self._b
        eps = 1e-12
        with np.errstate(all="ignore"):
            meets = ((_orient(a, b, p) * _orient(a, b, q) < eps)
                     & (_orient(p, q, a) * _orient(p, q, b) < eps))
            for part in (np.real, np.imag):
                a_, b_, p_, q_ = part(a), part(b), part(p), part(q)
                meets &= (np.maximum(np.minimum(a_, b_), np.minimum(p_, q_))
                          <= np.minimum(np.maximum(a_, b_), np.maximum(p_, q_)) + eps)
            clear = ~meets.any(axis=0)
            clear[clear] = self.contains_many((a[clear] + b[clear]) / 2)
        ok[ok] = clear
        return ok

    def sample_point(self, rng: random.Random) -> complex:
        return self.sample_points(rng, 1)[0]

    def sample_points(self, rng: random.Random, n: int) -> list[complex]:
        x0, x1 = min(p.real for p in self.outer), max(p.real for p in self.outer)
        y0, y1 = min(p.imag for p in self.outer), max(p.imag for p in self.outer)
        return self._rejection_sample(
            rng, n, lambda r: complex(r.uniform(x0, x1), r.uniform(y0, y1)),
            "rejection sampling failed; polygon area too thin")

    def key(self) -> tuple:
        return ("PolygonRegion", tuple(_coord_key(p) for p in self.outer),
                tuple(tuple(_coord_key(p) for p in h) for h in self.holes))


def _blocked(arcs: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """The blocking rule of curve regions: True where one of the boundary
    arclengths along the last axis of arcs (nan pads) lies strictly between
    lo + COORD_TOL and hi - COORD_TOL.  arcs (m,) with lo and hi (n,) gives
    (n,); arcs (k, m) with lo and hi (k, n) gives (k, n)."""
    s = arcs[..., None]
    return ((lo[..., None, :] + COORD_TOL < s) & (s < hi[..., None, :] - COORD_TOL)).any(axis=-2)


class CurveRegion(Region):
    """Open subdomain of a curve complex given by kept pieces and boundary points.

    The boundary is an explicit finite point set relative to the ambient
    complex, so delta_G is an exact minimum of point distances, and delta'_G
    an exact minimum of length distances (length_boundary_distances_many).
    A segment stays inside when both ends are members, both lie on one
    piece, and no boundary point on that piece lies strictly between them
    (_blocked).  A member lies on a piece, farther than COORD_TOL from every
    boundary point; locate_many places whole arrays of points on the pieces.
    """

    def __init__(self, space: CurveComplexSpace, pieces: Sequence[Segment],
                 boundary_points: Sequence[complex], name: str = "curve-region"):
        self.space = space
        self.pieces = tuple(pieces)
        if not self.pieces:
            raise ConfigurationError("a curve region needs at least one piece")
        self.boundary_points = tuple(as_point(p) for p in boundary_points)
        if not self.boundary_points:
            raise ConfigurationError("a proper subdomain needs a nonempty boundary")
        self.name = name
        self.bounded = True
        self._a = np.array([seg.a for seg in self.pieces])[:, None]
        self._b = np.array([seg.b for seg in self.pieces])[:, None]
        self._bp = np.array(self.boundary_points)
        # Per piece, the sorted arclengths of the boundary points on it, nan
        # padded: the cuts that start _piece_cuts and the blocks of _blocked.
        S, D = _projections(self._bp, self._a, self._b)
        self._arcs = np.sort(np.where(D <= COORD_TOL, S, np.nan), axis=1)

    def locate_many(self, Z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The pieces of an array of points: (piece index or -1, arclength)."""
        return locate_many(self._a, self._b, Z)

    def contains_many(self, Z: np.ndarray) -> np.ndarray:
        on = (_projections(Z, self._a, self._b)[1] <= COORD_TOL).any(axis=0)
        return on & (self.boundary_gaps_many(Z) > COORD_TOL)

    def boundary_gaps_many(self, Z: np.ndarray) -> np.ndarray:
        return np.min([_moduli(Z, bp) for bp in self.boundary_points], axis=0)

    def segments_inside_many(self, A: np.ndarray, B: np.ndarray) -> np.ndarray:
        n = len(A)
        ends = np.concatenate((A, B))
        S, D = _projections(ends, self._a, self._b)
        on = (D[:, :n] <= COORD_TOL) & (D[:, n:] <= COORD_TOL)
        lo, hi = np.minimum(S[:, :n], S[:, n:]), np.maximum(S[:, :n], S[:, n:])
        member = self.boundary_gaps_many(ends) > COORD_TOL
        return (on & ~_blocked(self._arcs, lo, hi)).any(axis=0) & member[:n] & member[n:]

    def length_boundary_distance(self, z: complex) -> float:
        return float(self.length_boundary_distances_many(np.array([self.require_member(z)]))[0])

    def length_boundary_distances_many(self, Z: np.ndarray) -> np.ndarray:
        """delta'_G over a 1-D array of points of G: the least length distance
        to a boundary point, from one length_distances_many call over
        (points x boundary points)."""
        return self.space.length_distances_many(Z[:, None], self._bp).min(axis=1)

    def sample_point(self, rng: random.Random) -> complex:
        return self.sample_points(rng, 1)[0]

    def sample_points(self, rng: random.Random, n: int) -> list[complex]:
        lengths = [seg.length for seg in self.pieces]
        total = sum(lengths)
        return self._rejection_sample(
            rng, n, lambda r: point_along(self.pieces, lengths, r.uniform(0.0, total)),
            "could not sample a region point clear of the boundary")

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

    nodes are the mesh points of the component that component_ball's array
    flood finds; frontier holds the mesh points paired with the component but
    excluded from it (outside the ball, outside G, or cut off by the
    boundary); spacing is the mesh size h.
    """

    center: complex
    radius: float
    nodes: tuple[complex, ...]
    frontier: tuple[complex, ...]
    spacing: float


#: Most mesh points a component ball may cut; a finer mesh raises
#: ResolutionError before any point is built.
MAX_BALL_POINTS = 250_000


def _check_ball_points(count: int, z: complex, r: float, h: float) -> None:
    if count > MAX_BALL_POINTS:
        raise ResolutionError(
            f"resolution {h} cuts B({z}, {r}) into {count} mesh points, "
            f"over the cap MAX_BALL_POINTS = {MAX_BALL_POINTS}")


def _flood(z: complex, r: float, h: float, P: np.ndarray, u: np.ndarray, v: np.ndarray,
           joined: np.ndarray, start: int) -> tuple[np.ndarray, np.ndarray]:
    """(nodes, frontier) masks over the points P: the component of start in
    the graph of the joined pairs (u, v), and the points outside it that
    share a pair with it, joined or not."""
    graph = csr_matrix((np.ones(np.count_nonzero(joined)), (u[joined], v[joined])),
                       shape=(len(P), len(P)))
    labels = connected_components(graph, directed=False)[1]
    nodes = labels == labels[start]
    if np.count_nonzero(nodes) < 2:
        raise ResolutionError(
            f"resolution {h} places no mesh node besides the center in B({z}, {r})")
    frontier = np.zeros(len(P), dtype=bool)
    frontier[v[nodes[u]]] = frontier[u[nodes[v]]] = True
    return nodes, frontier & ~nodes


def _component_ball_plane(region: Region, z: complex, r: float, h: float) -> ComponentBall:
    n = int(math.ceil(r / h)) + 1
    side = 2 * n + 1
    _check_ball_points(side * side, z, r, h)
    ulp = math.ulp(max(abs(z.real), abs(z.imag)) + r + 2.0 * h)  # at the grid's edge
    if h <= ulp:  # the grid points would round onto one another
        raise ResolutionError(f"resolution {h} is not above the float spacing {ulp} "
                              f"of the coordinates of B({z}, {r})")
    # The grid z + h (i + j i), |i|, |j| <= n, flat in (i, j) order.
    I, J = np.divmod(np.arange(side * side), side)
    X, Y = (I - n) * h, (J - n) * h
    P = np.column_stack((z.real + X, z.imag + Y)).view(np.complex128).ravel()
    D = np.hypot(X, Y)  # math.hypot rounds some differently; it decides near r
    near = np.flatnonzero(np.abs(D - r) <= 4.0 * math.ulp(r))
    D[near] = [math.hypot(x, y) for x, y in zip(X[near].tolist(), Y[near].tolist())]
    ok = D < r
    ok[ok] = region.contains_many(P[ok])
    ok[n * side + n] = True  # the center always belongs to its own component
    # Each 8-neighbour pair once, along the 4 one-sided offsets.
    u, v = [], []
    for di, dj in ((0, 1), (1, -1), (1, 0), (1, 1)):
        u.append(np.flatnonzero((I + di < side) & (0 <= J + dj) & (J + dj < side)))
        v.append(u[-1] + (di * side + dj))
    u, v = np.concatenate(u), np.concatenate(v)
    joined = ok[u] & ok[v]
    joined[joined] = region.segments_inside_many(P[u[joined]], P[v[joined]])
    nodes, frontier = _flood(z, r, h, P, u, v, joined, n * side + n)
    return ComponentBall(z, r, tuple(P[nodes].tolist()),
                         tuple(sorted(P[frontier].tolist(), key=_coord_key)), h)


def _cut_pieces(region: CurveRegion, cuts: Sequence[tuple[int, np.ndarray]]) -> tuple:
    """Cut each piece region.pieces[i] at the sorted arclengths S of
    cuts = [(i, S), ...].

    Returns (P, ids, idx, member, u, v): the distinct points in cut order,
    the first point of each _coord_key standing for all; the dict from
    _coord_key to point id; each piece's array of point ids, one per cut; the
    mask of points in G, farther than COORD_TOL from every boundary point;
    and the open steps u - v between two distinct members that are
    consecutive cuts of a piece with no boundary point strictly between them.
    """
    ids: dict[tuple[float, float], int] = {}
    points, idx, steps = [], [], []
    for i, S in cuts:
        points.append(region.pieces[i].point_at(S))
        k = np.array([ids.setdefault(_coord_key(p), len(ids)) for p in points[-1].tolist()],
                     dtype=np.int64)
        idx.append(k)
        steps.append(np.stack((k[:-1], k[1:]))[:, ~_blocked(region._arcs[i], S[:-1], S[1:])])
    P = np.concatenate(points)[np.unique(np.concatenate(idx), return_index=True)[1]]
    member = region.boundary_gaps_many(P) > COORD_TOL
    u, v = np.concatenate(steps, axis=1)
    open_ = member[u] & member[v] & (u != v)
    return P, ids, idx, member, u[open_], v[open_]


def _component_ball_complex(region: CurveRegion, z: complex, r: float, h: float) -> ComponentBall:
    (i0,), (s_z,) = (a.tolist() for a in region.locate_many(np.array([z])))
    # Each piece keeps its whole-length grid L*k/m, cut only over the indices
    # within r + 2h of z, one index of margin on each side.  Component nodes
    # lie within r of z and their neighbours within r + h, so every node,
    # pair and frontier point of the ball is cut as from the whole grid.  Above
    # the float spacing of L, m <= 2^53 + 1: L*k/m is formed with every k exact.
    reach = r + 2.0 * h
    windows = []
    S0, D0 = (a.tolist() for a in _projections(z, region._a[:, 0], region._b[:, 0]))
    for pi, (seg, s0, d) in enumerate(zip(region.pieces, S0, D0)):
        if d >= reach and pi != i0:
            continue
        L = seg.length
        if not h > math.ulp(L):
            raise ResolutionError(f"resolution {h} is too fine to cut a piece of length {L}")
        m = max(1, int(math.ceil(L / h)))
        w = math.sqrt(max(reach * reach - d * d, 0.0))
        lo = max(0, math.floor((s0 - w) * m / L) - 1) if L > 0.0 else 0
        hi = min(m, math.ceil((s0 + w) * m / L) + 1) if L > 0.0 else m
        windows.append((pi, L, m, lo, hi))
    _check_ball_points(sum(hi - lo + 1 for *_, lo, hi in windows), z, r, h)

    cuts = []
    for pi, L, m, lo, hi in windows:
        S = L * np.arange(lo, hi + 1) / m
        if pi == i0 and not (S == s_z).any():
            S = np.insert(S, np.searchsorted(S, s_z), s_z)
        cuts.append((pi, S))
    P, ids, _, member, u, v = _cut_pieces(region, cuts)
    in_ball = member & (_moduli(P, z) < r)
    start = ids[_coord_key(region.pieces[i0].point_at(s_z))]
    in_ball[start] = True
    nodes, frontier = _flood(z, r, h, P, u, v, in_ball[u] & in_ball[v], start)
    keys = list(ids)
    nodes = sorted(np.flatnonzero(nodes).tolist(), key=keys.__getitem__)
    frontier = sorted(keys[i] for i in np.flatnonzero(frontier).tolist())
    return ComponentBall(z, r, tuple(P[nodes].tolist()), tuple(complex(*k) for k in frontier), h)


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
    X, Y = np.array(sample_pairs(space.sample_points, random.Random(seed), samples)).T
    return float(np.fmax.reduce(space.length_distances_many(X, Y) / _moduli(X, Y), initial=1.0))


def component_ball(region: Region, z, r: float, resolution: float) -> ComponentBall:
    """Flood-fill realization of the component ball B^G(z, r) at mesh size h.

    One array flood serves the plane and curve complexes: scipy's
    connected_components labels the center's component over the pairs of
    mesh points that both lie in the open ball and in G and whose step stays
    in G.  In the plane the mesh is the square grid of spacing h around z,
    (2n + 1)^2 points with n = ceil(r/h) + 1, each paired with its 8
    neighbours.  On a curve complex each piece of length L carries the grid
    L*k/m, m = ceil(L/h), cut only within r + 2h of z: O(r/h) points per
    nearby piece, and the same ball as cutting every piece whole.  There
    consecutive points pair unless a boundary point lies strictly between
    them.  A mesh of more than MAX_BALL_POINTS points, a plane grid whose h
    is not above the float spacing of its coordinates, or a piece within
    reach whose length's float spacing h is not above, raises
    ResolutionError before anything is built.
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
