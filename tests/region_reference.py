"""The scalar region predicates that the numpy forms in qhkit.spaces replaced,
kept as references: the half-plane, punctured-plane and disk membership and
boundary gap; PolygonRegion's ray casting, edge distance and segment test
(with segments_cross); and CurveRegion's segment test."""
import cmath

from qhkit.spaces import (COORD_TOL, DiskRegion, HalfPlaneRegion, PuncturedPlaneRegion,
                          _modulus, project_segment)


def contains(region, z: complex) -> bool:
    """The hand-written scalar membership of the analytic plane regions, and
    the region's own contains for the others."""
    if isinstance(region, HalfPlaneRegion):
        return z.imag > 0.0 and cmath.isfinite(z)
    if isinstance(region, PuncturedPlaneRegion):
        return z != 0 and cmath.isfinite(z)
    if isinstance(region, DiskRegion):
        try:
            return abs(z - region.center) < region.radius
        except OverflowError:  # |z - center| beyond the float range
            return False
    return region.contains(z)


def boundary_gap(region, z: complex) -> float:
    """The hand-written scalar boundary gap of the analytic plane regions."""
    if isinstance(region, HalfPlaneRegion):
        return abs(z.imag)
    if isinstance(region, PuncturedPlaneRegion):
        return _modulus(z)
    if isinstance(region, DiskRegion):
        return abs(region.radius - _modulus(z - region.center))
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
    if not (region.contains(a) and region.contains(b)):
        return False
    for seg in region.pieces:
        sa, da = seg.project(a)
        sb, db = seg.project(b)
        if da <= COORD_TOL and db <= COORD_TOL:
            lo, hi = min(sa, sb), max(sa, sb)
            blocked = False
            for bp in region.boundary_points:
                sp, dp = seg.project(bp)
                if dp <= COORD_TOL and lo + COORD_TOL < sp < hi - COORD_TOL:
                    blocked = True
                    break
            if not blocked:
                return True
    return False
