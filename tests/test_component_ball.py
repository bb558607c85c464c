"""Component balls: pinned digests, the stack floods they replaced as
references, fine-resolution balls and the point cap.

The complex digests were recorded with the routine that cut every piece of
the complex along its whole length, the plane digest with the Python stack
flood over a dict of grid points.  The array flood must reproduce the nodes,
the frontier and the error strings of both bit for bit.
"""
import hashlib
import math
import random
import time
import tracemalloc
import warnings

import numpy as np
import pytest

from qhkit import ConfigurationError, QhkitError, ResolutionError, component_ball, spaces
from qhkit.scenarios import make_region
from qhkit.spaces import ComponentBall, CurveRegion, _coord_key

import region_reference as rr
from test_complex_table import random_complex
from test_qhgraph import _COMB, _HOLED, _L_SHAPE

BALL_SHA256 = {
    "frame-omega": "12d53d8e68ebbb93d6657674552c25670730395741fc2e0c6786903780095482",
    "frame-bottom": "a2854659e8f8be12694edd801b231fca26c3e47dbaf4d62b17a13569b3ce99d8",
    "random": "703fcc84099bbeba5f26b2ba5648e03bed4d7ac06e2c2622861de38ef49d5280",
    "plane": "7f9f3e44ce344da59ff7fda4772b3af73e5e669a2812f38f745a7ab5f867c1af",
    # Finer polygon balls, recorded with the scalar polygon predicates.
    "l-shape": "494edd3ef0c4ef47d14bea36d601af27873ee5b9d468efc2b1a0301fb6c37348",
    "holed": "0441e41439c6114ae3f9f76eee3be165be19c3f49195ab6626b54f0256b89572",
    "comb": "ad4a94b3961309d6c6064f568cf6fe3051d348bd3fbdd3d0bc9a0311864baaaa",
}

#: Per plane region: the finest r/h of its seeded cases in the "plane" digest
#: (coarser on the polygons, whose predicates were scalar when it was
#: recorded) and fixed cases where the grid meets the boundary: a grid point
#: on the puncture, balls across the half-plane's edge, the disk's rim, the
#: L's re-entrant corner, the hole and the comb's slot, and radii on a 3-4-5
#: grid triangle.  At the last half-plane case, math.hypot puts the grid
#: points (6h, 8h) inside r = 10h and np.hypot does not.
PLANE_CASES = {
    "halfplane": (40.0, [(1j, 0.5, 0.05), (1j, 0.5, 0.1), (0.3 + 0.04j, 0.25, 0.01),
                         (-1 + 0.5j, 1.0, 0.2), (1j, 0.7947134602381254, 0.07947134602381253)]),
    "punctured": (40.0, [(0.05 + 0.05j, 0.2, 0.01), (0.013 + 0.007j, 0.1, 0.004),
                         (1 + 0j, 1.5, 0.1), (-0.3 + 0.2j, 0.5, 0.05)]),
    "disk": (40.0, [(0.9 + 0j, 0.3, 0.02), (0j, 1.0, 0.1), (0.5 + 0.5j, 0.5, 0.05)]),
    "l-shape": (16.0, [(1.1 + 0.9j, 0.5, 0.1), (0.9 + 1.1j, 0.4, 0.05), (0.5 + 0.5j, 0.5, 0.1)]),
    "holed": (16.0, [(1.2 + 2j, 0.8, 0.1), (2 + 1.3j, 0.5, 0.1), (3 + 3j, 1.5, 0.3)]),
    "comb": (16.0, [(2.85 + 1j, 0.2, 0.04), (3.05 + 1.5j, 0.3, 0.05), (2.95 + 0.01j, 0.1, 0.02)]),
}


def plane_region(name: str):
    return {"l-shape": _L_SHAPE, "holed": _HOLED, "comb": _COMB}.get(name) or make_region(name)


def plane_ball_cases(name: str, rng: random.Random, count: int,
                     finest: float = 0.0) -> list[tuple[complex, float, float]]:
    """The fixed cases of PLANE_CASES, then count sampled centres, each with
    r from 0.01 to 5 times its boundary gap at a fine h (r/finest to r/1.1,
    finest from PLANE_CASES unless given) and at a coarse one (r to 4r)."""
    region = plane_region(name)
    default, cases = PLANE_CASES[name]
    finest = finest or default
    cases = list(cases)
    for z in (region.sample_point(rng) for _ in range(count)):
        r = max(region.boundary_gap(z), 0.05) * math.exp(rng.uniform(math.log(0.01),
                                                                      math.log(5.0)))
        cases.append((z, r, r / rng.uniform(1.1, finest)))
        cases.append((z, r, r * rng.uniform(1.0, 4.0)))
    return cases


#: Balls that fail before the flood: the point cap and the float spacing.
PLANE_ERROR_CASES = [("halfplane", 1j, 0.5, 1e-6), ("halfplane", 1e200j, 1.0, 0.5),
                     ("punctured", 1.7e308 + 1.7e308j, 1.0, 0.5)]


def random_region(rng: random.Random) -> CurveRegion:
    space = random_complex(rng)
    boundary = [space.sample_point(rng) for _ in range(rng.randint(1, 3))]
    return CurveRegion(space, space.segments, boundary, name="random")


def ball_cases(region: CurveRegion, rng: random.Random,
               count: int) -> list[tuple[complex, float, float]]:
    """Seeded (centre, r, h): every piece corner, then sampled centres, each
    with r from 0.01 to 5 times its boundary gap at a fine h (r/40 to r/1.1)
    and at a coarse one (r to 4r); then every boundary point, no member."""
    corners = sorted({p for seg in region.pieces for p in (seg.a, seg.b)}, key=_coord_key)
    centres = corners + [region.sample_point(rng) for _ in range(max(0, count - len(corners)))]
    cases = []
    for z in centres:
        r = max(region.boundary_gap(z), 0.05) * math.exp(rng.uniform(math.log(0.01),
                                                                      math.log(5.0)))
        cases.append((z, r, r / rng.uniform(1.1, 40.0)))
        cases.append((z, r, r * rng.uniform(1.0, 4.0)))
    return cases + [(p, 1.0, 0.1) for p in region.boundary_points]


def ball_bytes(region, z, r, h, flood=component_ball) -> bytes:
    try:
        ball = flood(region, z, r, h)
    except QhkitError as exc:
        return f"{type(exc).__name__}: {exc}".encode()
    return (np.array(ball.nodes, dtype="<c16").tobytes() + b"|"
            + np.array(ball.frontier, dtype="<c16").tobytes())


def digest(name: str) -> str:
    h = hashlib.sha256()
    if name == "plane":
        for domain in PLANE_CASES:
            region = plane_region(domain)
            for case in plane_ball_cases(domain, random.Random(11), 16):
                h.update(ball_bytes(region, *case))
        for domain, *case in PLANE_ERROR_CASES:
            h.update(ball_bytes(make_region(domain), *case))
    elif name in ("l-shape", "holed", "comb"):
        for case in plane_ball_cases(name, random.Random(13), 12, finest=40.0):
            h.update(ball_bytes(plane_region(name), *case))
    elif name == "random":
        for seed in range(12):
            rng = random.Random(seed)
            region = random_region(rng)
            for case in ball_cases(region, rng, 10):
                h.update(ball_bytes(region, *case))
    else:
        region = make_region(name)
        rng = random.Random(7)
        for case in ball_cases(region, rng, 40):
            h.update(ball_bytes(region, *case))
    return h.hexdigest()


@pytest.mark.parametrize("name", sorted(BALL_SHA256))
def test_ball_digest(name):
    assert digest(name) == BALL_SHA256[name]


# ---------------------------------------------------------------------------
# References: the Python stack floods the array flood replaced
# ---------------------------------------------------------------------------

_BALL_NEIGHBORS = [(di, dj) for di in (-1, 0, 1) for dj in (-1, 0, 1) if (di, dj) != (0, 0)]


def stack_plane_ball(region, z: complex, r: float, h: float) -> ComponentBall:
    """The plane flood over a dict of grid points, with a scalar contains
    per point and segment_inside per edge; the caller checks the point cap
    and the float spacing."""
    z = region.require_member(z, "center")
    n = int(math.ceil(r / h)) + 1
    accept: dict = {}
    candidates: dict = {}
    for i in range(-n, n + 1):
        for j in range(-n, n + 1):
            g = z + complex(i * h, j * h)
            candidates[(i, j)] = g
            if math.hypot(i * h, j * h) < r and region.contains(g):
                accept[(i, j)] = g
    if (0, 0) not in accept:
        accept[(0, 0)] = z
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
    return ComponentBall(z, r, nodes, tuple(sorted(set(frontier), key=_coord_key)), h)


def whole_complex_ball(region: CurveRegion, z: complex, r: float, h: float) -> ComponentBall:
    z = region.require_member(z, "center")
    loc = rr.locate(region.pieces, z)
    node_ids: dict = {}
    coords: list = []
    in_ball: list = []
    adj: list = []

    def get_node(p):
        k = _coord_key(p)
        if k not in node_ids:
            node_ids[k] = len(coords)
            coords.append(p)
            in_ball.append(abs(p - z) < r and region.contains(p))
            adj.append([])
        return node_ids[k]

    for pi, seg in enumerate(region.pieces):
        m = max(1, int(math.ceil(seg.length / h)))
        params = [seg.length * k / m for k in range(m + 1)]
        if pi == loc[0]:
            params = sorted(set(params + [loc[1]]))
        prev = None
        for s in params:
            nid = get_node(seg.point_at(s))
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


@pytest.mark.parametrize("seed", range(100, 112))
def test_windowed_ball_matches_whole_complex(seed):
    rng = random.Random(seed)
    region = random_region(rng)
    centres = [seg.a for seg in region.pieces] + [region.sample_point(rng) for _ in range(8)]
    compared = 0
    for z in centres:
        r = rng.uniform(0.05, 3.0)
        h = r / rng.uniform(0.5, 10.0)
        try:
            want = whole_complex_ball(region, z, r, h)
        except QhkitError as exc:
            with pytest.raises(type(exc)) as got:
                component_ball(region, z, r, h)
            assert str(got.value) == str(exc)
            continue
        got = component_ball(region, z, r, h)
        for a, b in ((got.nodes, want.nodes), (got.frontier, want.frontier)):
            assert (np.array(a, dtype="<c16").tobytes()
                    == np.array(b, dtype="<c16").tobytes()), (z, r, h)
        compared += 1
    assert compared >= 2


@pytest.mark.parametrize("name", sorted(PLANE_CASES))
def test_plane_ball_matches_the_stack_flood(name):
    region = plane_region(name)
    for case in plane_ball_cases(name, random.Random(29), 8):
        assert ball_bytes(region, *case) == ball_bytes(region, *case, flood=stack_plane_ball), case


@pytest.mark.parametrize("domain, z, r, h, count, seconds", [
    ("halfplane", 1j, 0.5, 0.003, 87_253, 0.5),        # the stack flood: about 1 s
    ("frame-omega", 0.5 + 0j, 5e-3, 1e-6, 10_001, 0.2),  # the scalar predicates: about 0.4 s
])
def test_fine_ball_is_one_array_flood(domain, z, r, h, count, seconds):
    region = make_region(domain)
    t0 = time.perf_counter()
    ball = component_ball(region, z, r, h)
    assert time.perf_counter() - t0 < seconds
    assert len(ball.nodes) == count


def test_extreme_scale_ball(punctured):
    # Every anti-diagonal step's dot product with its start reads inf - inf.
    z, r, h = 1e160 + 1e160j, 1e151, 1e150
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        ball = component_ball(punctured, z, r, h)
    assert ball == stack_plane_ball(punctured, z, r, h)
    assert len(ball.nodes) == sum(math.hypot(i * h, j * h) < r
                                  for i in range(-11, 12) for j in range(-11, 12))


def test_fine_ball_cuts_only_near_the_centre(omega):
    # Cut whole, the frame would take 10 / 1e-6 points, far over the cap.
    t0 = time.perf_counter()
    ball = component_ball(omega, 0.5 + 0j, 5e-4, 1e-6)
    assert time.perf_counter() - t0 < 1.0
    assert len(ball.nodes) == 999
    assert all(abs(p - 0.5) < 5e-4 for p in ball.nodes)


@pytest.mark.parametrize("domain, z, r, h", [("halfplane", 1j, 0.5, 1e-6),
                                             ("frame-omega", 0j, 5.0, 1e-6),
                                             ("halfplane", 1j, 0.5, 1e-320),
                                             ("frame-omega", 0j, 5.0, 1e-320)])
def test_oversized_ball_fails_before_allocating(domain, z, r, h):
    region = make_region(domain)
    tracemalloc.start()
    try:
        with pytest.raises(ResolutionError, match="MAX_BALL_POINTS"):
            component_ball(region, z, r, h)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


@pytest.mark.parametrize("domain, z", [("halfplane", 1j), ("frame-omega", 0j)])
def test_overflowing_grid_is_a_resolution_error(domain, z):
    # On the complex, L/h overflows to inf while r/h stays finite.
    with pytest.raises(ResolutionError):
        component_ball(make_region(domain), z, 1e-300, 1e-320)


@pytest.mark.parametrize("domain, z", [("halfplane", 1e200j), ("halfplane", 1e16j),
                                       ("punctured", 1.7e308 + 1.7e308j)])
def test_grid_below_the_float_spacing_is_a_resolution_error(domain, z):
    # The grid points z + h (i + j i) would round onto one another.
    with pytest.raises(ResolutionError, match="float spacing"):
        component_ball(make_region(domain), z, 1.0, 0.5)


def test_plane_point_count_meets_the_cap_exactly(monkeypatch, halfplane):
    # r/h = 10 gives n = 11, a 23 x 23 grid.
    monkeypatch.setattr(spaces, "MAX_BALL_POINTS", 23 * 23)
    component_ball(halfplane, 1j, 0.5, 0.05)
    monkeypatch.setattr(spaces, "MAX_BALL_POINTS", 23 * 23 - 1)
    with pytest.raises(ResolutionError, match="529 mesh points"):
        component_ball(halfplane, 1j, 0.5, 0.05)


@pytest.mark.parametrize("r, h", [(math.inf, 0.05), (math.nan, 0.05), (0.5, math.nan),
                                  (0.5, math.inf), (0.0, 0.05)])
def test_radius_and_resolution_must_be_positive_and_finite(halfplane, omega, r, h):
    for region, z in ((halfplane, 1j), (omega, 0j)):
        with pytest.raises(ConfigurationError, match="positive and finite"):
            component_ball(region, z, r, h)


@pytest.mark.parametrize("z, r, h", [(0.5 + 0j, 1e-20, 1e-21), (0j, 1e-300, 1e-301),
                                     (0.5 + 0j, 1e-14, math.ulp(4.0))])
def test_complex_grid_below_the_float_spacing_of_a_piece_is_a_resolution_error(
        monkeypatch, omega, z, r, h):
    # m = ceil(L/h) would pass 2^53 (at the first two, the int64 range), so
    # L*k/m could not be formed in float64; no point is cut.
    def cut(*args):
        raise AssertionError("a piece was cut")

    monkeypatch.setattr(spaces, "_cut_pieces", cut)
    with pytest.raises(ResolutionError, match="too fine to cut a piece of length 4.0"):
        component_ball(omega, z, r, h)


def test_complex_grid_above_the_float_spacing_of_a_piece_is_cut(omega):
    # The bottom piece of length 4 at twice its float spacing: the grid is
    # formed, and only the collapse of its points onto one key stops the ball.
    h = 2.0 * math.ulp(4.0)
    with pytest.raises(ResolutionError, match="places no mesh node besides the center"):
        component_ball(omega, 0.5 + 0j, 10.0 * h, h)
