"""The scalar geometry that the numpy forms in qhkit.spaces replaced, kept as
references: project_segment and locate; the half-plane, punctured-plane,
disk and curve-region membership and boundary gap; PolygonRegion's ray
casting, edge distance and segment test (with segments_cross);
CurveRegion's segment test; and the one-draw-at-a-time samplers (the
polygon and curve-region rejection loops and sample_pairs)."""
import cmath
import math

from qhkit.errors import ResolutionError
from qhkit.spaces import (COORD_TOL, CurveRegion, DiskRegion, HalfPlaneRegion, PolygonRegion,
                          PuncturedPlaneRegion, _modulus, as_point, point_along)

#: An exact power of two that brings the square of any finite length into range.
_TINY = 2.0 ** -600


def project_segment(z: complex, a: complex, b: complex) -> tuple[float, float]:
    """(arclength from a of the point of [a, b] closest to z, distance from z to it)."""
    d = b - a
    L2 = d.real * d.real + d.imag * d.imag
    dot = (z - a).real * d.real + (z - a).imag * d.imag
    # Rescale where the square overflows, or the dot product reads inf - inf.
    if (L2 == math.inf or (dot != dot and cmath.isfinite(z))) and \
            cmath.isfinite(a) and cmath.isfinite(b):
        s, dist = project_segment(z * _TINY, a * _TINY, b * _TINY)
        return s / _TINY, dist / _TINY
    t = 0.0
    if L2 != 0.0:
        t = dot / L2
        t = 0.0 if t < 0.0 else (1.0 if t > 1.0 else t)
    return t * math.sqrt(L2), _modulus(z - (a + d * t))


def locate(segments, z, tol: float = COORD_TOL):
    """(segment index, arclength parameter) of z on the nearest segment within
    tol, or None when z is off every segment."""
    z = as_point(z)
    best = None
    for i, seg in enumerate(segments):
        s, d = project_segment(z, seg.a, seg.b)
        if d <= tol and (best is None or d < best[2]):
            best = (i, s, d)
    if best is None:
        return None
    return best[0], best[1]


def curve_contains(region, z: complex) -> bool:
    z = as_point(z)
    return locate(region.pieces, z) is not None and curve_boundary_gap(region, z) > COORD_TOL


def curve_boundary_gap(region, z: complex) -> float:
    z = as_point(z)
    return min(_modulus(z - bp) for bp in region.boundary_points)


def contains(region, z: complex) -> bool:
    """The hand-written scalar membership of the analytic plane regions and
    curve regions, and the region's own contains for the others."""
    if isinstance(region, HalfPlaneRegion):
        return z.imag > 0.0 and cmath.isfinite(z)
    if isinstance(region, PuncturedPlaneRegion):
        return z != 0 and cmath.isfinite(z)
    if isinstance(region, DiskRegion):
        try:
            return abs(z - region.center) < region.radius
        except OverflowError:  # |z - center| beyond the float range
            return False
    if isinstance(region, CurveRegion):
        return curve_contains(region, z)
    return region.contains(z)


def boundary_gap(region, z: complex) -> float:
    """The hand-written scalar boundary gap of the analytic plane regions and
    curve regions, and the region's own boundary_gap for the others."""
    if isinstance(region, HalfPlaneRegion):
        return abs(z.imag)
    if isinstance(region, PuncturedPlaneRegion):
        return _modulus(z)
    if isinstance(region, DiskRegion):
        return abs(region.radius - _modulus(z - region.center))
    if isinstance(region, CurveRegion):
        return curve_boundary_gap(region, z)
    return region.boundary_gap(z)


def boundary_distance(region, z: complex) -> float:
    """delta_G(z) through the scalar predicates, with require_member's error
    for a point outside G."""
    if not contains(region, z):
        raise region.not_member(z)
    return boundary_gap(region, z)


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


def polygon_edges(region) -> list[tuple[complex, complex]]:
    return [(ring[i], ring[(i + 1) % len(ring)])
            for ring in (region.outer, *region.holes) for i in range(len(ring))]


def polygon_delta(region, z: complex) -> float:
    return min(project_segment(z, a, b)[1] for a, b in polygon_edges(region))


def polygon_contains(region, z: complex) -> bool:
    if not _inside_ring(z, region.outer):
        return False
    if any(_inside_ring(z, h) for h in region.holes):
        return False
    return polygon_delta(region, z) > 0.0


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


def polygon_segment_inside(region, a: complex, b: complex) -> bool:
    if not (polygon_contains(region, a) and polygon_contains(region, b)):
        return False
    if any(segments_cross(a, b, p, q) for p, q in polygon_edges(region)):
        return False
    return polygon_contains(region, (a + b) / 2)


def curve_segment_inside(region, a: complex, b: complex) -> bool:
    # Mesh edges on a complex run along a single piece; check the chord
    # lies on one piece and no boundary point sits strictly between.
    if not (curve_contains(region, a) and curve_contains(region, b)):
        return False
    for seg in region.pieces:
        sa, da = project_segment(a, seg.a, seg.b)
        sb, db = project_segment(b, seg.a, seg.b)
        if da <= COORD_TOL and db <= COORD_TOL:
            lo, hi = min(sa, sb), max(sa, sb)
            blocked = False
            for bp in region.boundary_points:
                sp, dp = project_segment(bp, seg.a, seg.b)
                if dp <= COORD_TOL and lo + COORD_TOL < sp < hi - COORD_TOL:
                    blocked = True
                    break
            if not blocked:
                return True
    return False


def sample_point(region, rng) -> complex:
    """One draw of the sequential rejection loops of polygons and curve
    regions (at most 10,000 tries, each tested alone), and the region's own
    sample_point for the others."""
    if isinstance(region, PolygonRegion):
        xs = [p.real for p in region.outer]
        ys = [p.imag for p in region.outer]
        for _ in range(10000):
            z = complex(rng.uniform(min(xs), max(xs)), rng.uniform(min(ys), max(ys)))
            if polygon_contains(region, z):
                return z
        raise ResolutionError("rejection sampling failed; polygon area too thin")
    if isinstance(region, CurveRegion):
        lengths = [seg.length for seg in region.pieces]
        total = sum(lengths)
        for _ in range(10000):
            z = point_along(region.pieces, lengths, rng.uniform(0.0, total))
            if curve_contains(region, z):
                return z
        raise ResolutionError("could not sample a region point clear of the boundary")
    return region.sample_point(rng)


def sample_pairs(sample_point, rng, count: int) -> list[tuple[complex, complex]]:
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
