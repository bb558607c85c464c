"""Monte-Carlo estimators for the mapping properties under study.

Every estimator reports an envelope (a maximum over evaluated samples), which
is a certified lower bound for the true coefficient, together with the
extremal witness so the reported number can be replayed.  Sampling is a
single seeded stream, so estimates are non-decreasing in the sample count at
a fixed seed and reports are bit-for-bit reproducible.
"""
from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .errors import ConfigurationError, QhkitError
from .maps import HalfPlaneShearMap, InversionMap, MapSpec
from .spaces import COORD_TOL, CurveRegion, Region, as_point, component_ball, sample_pairs

_N_DIRECTIONS = 64  # deterministic angular resolution for L_f / l_f probing


@dataclass(frozen=True)
class SampleSpec:
    """Sampling plan: seed, sample count, locality parameter, radius schedule."""

    seed: int
    count: int
    locality_q: float = 0.5
    radius_schedule: tuple[float, ...] = (0.4, 0.2, 0.1, 0.05)

    def __post_init__(self):
        if self.count < 1:
            raise ConfigurationError("sample count must be >= 1")
        if not (0.0 < self.locality_q < 1.0):
            raise ConfigurationError("locality_q must lie in (0, 1)")
        rs = self.radius_schedule
        if any(r <= 0 for r in rs) or any(b >= a for a, b in zip(rs, rs[1:])):
            raise ConfigurationError("radius schedule must be positive and strictly decreasing")


@dataclass
class PropertyReport:
    """Envelope estimate plus the witness that attains it.

    The estimate is a maximum over evaluated samples and therefore a lower
    bound of the true coefficient; replaying the witness reproduces it.
    """

    property: str
    estimate: float
    witness: dict
    samples_used: int
    seed: int
    table: tuple = ()
    skipped: int = 0
    meta: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "property": self.property,
            "estimate": self.estimate,
            "witness": self.witness,
            "samples_used": self.samples_used,
            "seed": self.seed,
            "table": [list(row) for row in self.table],
            "skipped": self.skipped,
            "meta": self.meta,
        }


def _pt(z: complex) -> list[float]:
    return [z.real, z.imag]


def _ratio_track(best: Optional[tuple[float, dict]], value: float, witness: dict):
    if best is None or value > best[0]:
        return (value, witness)
    return best


# ---------------------------------------------------------------------------
# Quasiconformality
# ---------------------------------------------------------------------------

def estimate_qc(f: MapSpec, spec: SampleSpec) -> PropertyReport:
    """Directional distortion table H(x, r) over the radius schedule.

    For each base point and admissible radius, the ratio max/min over 64
    equispaced directions of |f(x + r e^(i theta)) - f(x)| / |(x + r e^(i
    theta)) - x| approximates L_f/l_f; the estimate is the envelope at each
    point's smallest admissible radius.  The limit r -> 0 is reported as the
    trend table, never extrapolated.
    """
    region = f.source_region
    rng = random.Random(spec.seed)
    table: list[tuple] = []
    skipped = 0
    best: Optional[tuple[float, dict]] = None
    dirs = [complex(math.cos(2.0 * math.pi * k / _N_DIRECTIONS),
                    math.sin(2.0 * math.pi * k / _N_DIRECTIONS))
            for k in range(_N_DIRECTIONS)]

    for _ in range(spec.count):
        x = region.sample_point(rng)
        dx = region.boundary_distance(x)
        fx = f.eval(x)
        smallest: Optional[tuple[float, float, dict]] = None
        for r in spec.radius_schedule:
            if r >= dx:
                skipped += 1
                continue
            ratios: list[tuple[float, complex]] = []
            for e in dirs:
                a = x + r * e
                if not region.contains(a):
                    continue
                chord = abs(a - x)
                if chord == 0.0:
                    continue
                ratios.append((abs(f.eval(a) - fx) / chord, a))
            if len(ratios) < 2:
                skipped += 1
                continue
            hi = max(ratios, key=lambda t: t[0])
            lo = min(ratios, key=lambda t: t[0])
            H = hi[0] / lo[0]
            table.append((x.real, x.imag, r, H))
            smallest = (r, H, {"x": _pt(x), "r": r, "a_max": _pt(hi[1]),
                               "a_min": _pt(lo[1]), "ratio": H})
        if smallest is not None:
            best = _ratio_track(best, smallest[1], smallest[2])

    if best is None:
        raise ConfigurationError("no admissible (point, radius) sample; shrink the radii")
    return PropertyReport("quasiconformality", best[0], best[1], spec.count,
                          spec.seed, tuple(table), skipped,
                          {"directions": _N_DIRECTIONS,
                           "radius_schedule": list(spec.radius_schedule)})


# ---------------------------------------------------------------------------
# Weak quasisymmetry (global and local)
# ---------------------------------------------------------------------------

def _eval_triple(f: MapSpec, x: complex, a: complex, b: complex) -> Optional[tuple[float, dict]]:
    """Ratio |f(x)-f(a)| / |f(x)-f(b)| with the triple ordered so |x-a| <= |x-b|."""
    da, db = abs(x - a), abs(x - b)
    if db == 0.0 and da == 0.0:
        return None
    if da > db:
        a, b, da, db = b, a, db, da
    if db == 0.0:
        return None
    fx = f.eval(x)
    denom = abs(fx - f.eval(b))
    if denom == 0.0:
        return None
    ratio = abs(fx - f.eval(a)) / denom
    return ratio, {"x": _pt(x), "a": _pt(a), "b": _pt(b), "ratio": ratio}


def _probe_triples(x: complex, radius: float, rng: random.Random) -> list[tuple[complex, complex, complex]]:
    """Deterministic probe triples around x within the given radius.

    The degenerate probe (a == b) pins the universally valid ratio 1 exactly;
    the perpendicular probes challenge anisotropic maps with equidistant legs.
    """
    th = rng.uniform(0.0, 2.0 * math.pi)
    v = radius * complex(math.cos(th), math.sin(th))
    e1 = radius * complex(1.0, 0.0)
    e2 = radius * complex(0.0, 1.0)
    return [
        (x, x + v, x + v),            # a == b: ratio exactly 1 for any map
        (x, x + e1, x + e2),          # axis-aligned perpendicular legs
        (x, x + v, x + v * 1j),       # rotated perpendicular legs
        (x, x + v, x - v),            # antipodal legs
    ]


def inversion_weak_qs_witness(t: float) -> tuple[complex, complex, complex]:
    """The unbounded witness family for the inversion: x = 1, a = 1/t, b = t."""
    if t <= 1.0:
        raise ConfigurationError("witness family needs t > 1")
    return complex(1.0, 0.0), complex(1.0 / t, 0.0), complex(t, 0.0)


def shear_local_witness(n: float, q: float, eps: float = 0.25) -> tuple[complex, complex, complex]:
    """The local witness family for the half-plane shear at base (n, 1/2).

    a sits half a locality radius above the base, b the same distance to the
    left; the image ratio grows like (2 sqrt(5)/5)(n+1).
    """
    if not (0.0 < eps < 0.5):
        raise ConfigurationError("witness needs 0 < eps < 1/2")
    O = complex(float(n), 0.5)
    a = complex(float(n), 0.5 + q * eps / 2.0)
    b = complex(float(n) - q * eps / 2.0, 0.5)
    return O, a, b


def estimate_weak_qs(f: MapSpec, spec: SampleSpec,
                     witness_ts: Sequence[float] = (2.0, 10.0, 100.0),
                     extra_triples: Sequence[tuple] = ()) -> PropertyReport:
    """Envelope of |f(x)-f(a)| / |f(x)-f(b)| over triples with |x-a| <= |x-b|.

    Includes the deterministic inversion witness family x=1, a=1/t, b=t when f
    is the inversion, whose ratio equals t (so the coefficient is unbounded).
    """
    region = f.source_region
    rng = random.Random(spec.seed)
    best: Optional[tuple[float, dict]] = None
    used = 0
    witness_rows: list[tuple] = []

    for _ in range(spec.count):
        x = region.sample_point(rng)
        a = region.sample_point(rng)
        b = region.sample_point(rng)
        while abs(b - x) <= COORD_TOL:  # b == x: resample, same stream
            b = region.sample_point(rng)
        out = _eval_triple(f, x, a, b)
        if out is not None:
            best = _ratio_track(best, out[0], out[1])
            used += 1
        probe_r = 0.3 * region.boundary_distance(x)
        for (px, pa, pb) in _probe_triples(x, probe_r, rng):
            if region.contains(pa) and region.contains(pb):
                out = _eval_triple(f, px, pa, pb)
                if out is not None:
                    best = _ratio_track(best, out[0], out[1])
                    used += 1

    if isinstance(f, InversionMap):
        for t in witness_ts:
            x, a, b = inversion_weak_qs_witness(t)
            out = _eval_triple(f, x, a, b)
            if out is not None:
                witness_rows.append((t, out[0]))
                best = _ratio_track(best, out[0], out[1])
                used += 1

    for (x, a, b) in extra_triples:
        out = _eval_triple(f, as_point(x), as_point(a), as_point(b))
        if out is not None:
            best = _ratio_track(best, out[0], out[1])
            used += 1

    if best is None:
        raise ConfigurationError("no admissible triple was sampled")
    return PropertyReport("weak-quasisymmetry", best[0], best[1], used, spec.seed,
                          tuple(witness_rows), 0, {"witness_ts": list(witness_ts)})


def estimate_local_weak_qs(f: MapSpec, spec: SampleSpec,
                           witness_ns: Sequence[float] = (1.0, 10.0, 100.0),
                           collect_triples: bool = False) -> PropertyReport:
    """Weak-QS envelope restricted to triples inside B^G(z, q delta_G(z)).

    For the built-in analytic regions the metric ball of radius q delta_G(z)
    already lies in G and is connected, so triples are drawn from it directly;
    curve regions fall back to component-ball nodes.  Includes the shear
    witness family with ratio (2 sqrt(5)/5)(n+1) when f is the shear.
    """
    region = f.source_region
    q = spec.locality_q
    rng = random.Random(spec.seed)
    best: Optional[tuple[float, dict]] = None
    used = 0
    collected: list[tuple[complex, complex, complex]] = []
    witness_rows: list[tuple] = []

    def ball_point(z: complex, rho: float) -> complex:
        r = rho * math.sqrt(rng.random())
        th = rng.uniform(0.0, 2.0 * math.pi)
        return z + complex(r * math.cos(th), r * math.sin(th))

    for _ in range(spec.count):
        z = region.sample_point(rng)
        rho = q * region.boundary_distance(z)
        if isinstance(region, CurveRegion):
            try:
                ball = component_ball(region, z, rho, rho / 8.0)
            except QhkitError:
                continue
            nodes = list(ball.nodes)
            if len(nodes) < 3:
                continue
            x = nodes[rng.randrange(len(nodes))]
            a = nodes[rng.randrange(len(nodes))]
            b = nodes[rng.randrange(len(nodes))]
        else:
            x = ball_point(z, rho)
            a = ball_point(z, rho)
            b = ball_point(z, rho)
            if not (region.contains(x) and region.contains(a) and region.contains(b)):
                continue
        out = _eval_triple(f, x, a, b)
        if out is not None:
            out[1]["z"] = _pt(z)
            best = _ratio_track(best, out[0], out[1])
            used += 1
            if collect_triples:
                collected.append((x, a, b))
        if not isinstance(region, CurveRegion):
            margin = 0.9 * (rho - abs(x - z))
            if margin > 0.0:
                for (px, pa, pb) in _probe_triples(x, margin, rng):
                    if region.contains(pa) and region.contains(pb):
                        out = _eval_triple(f, px, pa, pb)
                        if out is not None:
                            best = _ratio_track(best, out[0], out[1])
                            used += 1
                            if collect_triples:
                                collected.append((px, pa, pb))

    if isinstance(f, HalfPlaneShearMap):
        for n in witness_ns:
            O, a, b = shear_local_witness(n, q)
            out = _eval_triple(f, O, a, b)
            if out is not None:
                witness_rows.append((n, out[0]))
                best = _ratio_track(best, out[0], out[1])
                used += 1

    if best is None:
        raise ConfigurationError("no admissible local triple was sampled")
    meta = {"locality_q": q, "witness_ns": list(witness_ns)}
    if collect_triples:
        meta["triples"] = [[_pt(x), _pt(a), _pt(b)] for x, a, b in collected]
    return PropertyReport("local-weak-quasisymmetry", best[0], best[1], used,
                          spec.seed, tuple(witness_rows), 0, meta)


# ---------------------------------------------------------------------------
# Semisolidity
# ---------------------------------------------------------------------------

def estimate_semisolid(f: MapSpec, k_src, k_img, spec: SampleSpec,
                       alphas: Sequence[float] = tuple(a / 20.0 for a in range(1, 21))
                       ) -> PropertyReport:
    """Scatter of (k_G(x,y), k_G'(f x, f y)) with envelope fits.

    Reports the best linear slope  s = max k'/k  and the power-envelope pair
    (mu, alpha) minimizing mu subject to k' <= mu max(t^alpha, t) over the
    scatter (grid search on alpha; max-ratio is the faithful envelope).
    k_src and k_img are distance backends (mesh or analytic oracle).
    """
    pairs = sample_pairs(k_src.sample_point, random.Random(spec.seed), spec.count)

    image_pairs = [(f.eval(x), f.eval(y)) for x, y in pairs]
    ts = k_src.distance_pairs(pairs)
    us = k_img.distance_pairs(image_pairs)

    scatter: list[tuple] = []
    slope_best: Optional[tuple[float, dict]] = None
    for (x, y), t, u in zip(pairs, ts, us):
        if t <= 0.0:
            continue
        scatter.append((t, u))
        ratio = u / t
        slope_best = _ratio_track(slope_best, ratio,
                                  {"x": _pt(x), "y": _pt(y), "k": t, "k_img": u,
                                   "ratio": ratio})
    if slope_best is None:
        raise ConfigurationError("no nondegenerate pair sampled")

    t_arr = np.array([s[0] for s in scatter])
    u_arr = np.array([s[1] for s in scatter])
    best_mu, best_alpha = math.inf, 1.0
    for alpha in alphas:
        env = np.maximum(t_arr ** alpha, t_arr)
        mu = float(np.max(u_arr / env))
        if mu < best_mu:
            best_mu, best_alpha = mu, alpha

    def backend_info(backend) -> dict:
        mesh = getattr(backend, "mesh", None)
        if mesh is None:
            return {"kind": "analytic", "domain": getattr(backend, "domain", "?")}
        return {"kind": "mesh", "grading": mesh.grading, "metric": mesh.metric,
                "nodes": mesh.node_count}

    return PropertyReport("semisolidity", slope_best[0], slope_best[1],
                          len(scatter), spec.seed, tuple(scatter), 0,
                          {"mu": best_mu, "alpha": best_alpha,
                           "slope": slope_best[0],
                           "k_src": backend_info(k_src),
                           "k_img": backend_info(k_img)})


# ---------------------------------------------------------------------------
# Relativity
# ---------------------------------------------------------------------------

def estimate_relative(f: MapSpec, spec: SampleSpec, t0: float,
                      bins: int = 20) -> PropertyReport:
    """Per-bin envelope of |f(x)-f(y)| / delta_G'(f x) against t = |x-y|/delta_G(x).

    Pairs are drawn with |x-y| < t0 delta_G(x); the binned envelope is made
    monotone by a cumulative max, matching the role of a relativity control.
    """
    if not (0.0 < t0 <= 1.0):
        raise ConfigurationError("t0 must lie in (0, 1]")
    region = f.source_region
    image = f.image_region
    rng = random.Random(spec.seed)
    env = [0.0] * bins
    best: Optional[tuple[float, dict]] = None
    used = 0

    for _ in range(spec.count):
        x = region.sample_point(rng)
        dx = region.boundary_distance(x)
        rho = rng.uniform(0.0, 1.0) * t0 * dx
        th = rng.uniform(0.0, 2.0 * math.pi)
        y = x + rho * complex(math.cos(th), math.sin(th))
        if not region.contains(y):
            continue
        sep = abs(x - y)
        if sep == 0.0 or sep >= t0 * dx:
            continue
        t = sep / dx
        fx = f.eval(x)
        ratio = abs(fx - f.eval(y)) / image.boundary_distance(fx)
        b = min(bins - 1, int(t / t0 * bins))
        if ratio > env[b]:
            env[b] = ratio
        best = _ratio_track(best, ratio, {"x": _pt(x), "y": _pt(y), "t": t,
                                          "ratio": ratio})
        used += 1

    if best is None:
        raise ConfigurationError("no admissible near pair was sampled")
    # Cumulative max keeps the table monotone non-decreasing like a control.
    run = 0.0
    table = []
    for b in range(bins):
        run = max(run, env[b])
        table.append(((b + 1) * t0 / bins, run))
    return PropertyReport("relativity", best[0], best[1], used, spec.seed,
                          tuple(table), spec.count - used, {"t0": t0, "bins": bins})


# ---------------------------------------------------------------------------
# Ring property
# ---------------------------------------------------------------------------

def _ring_probes(z: complex, r: float, n: int, region: Region,
                 radii: Sequence[float]) -> list[complex]:
    pts = [z]
    for rho in radii:
        for k in range(n):
            th = 2.0 * math.pi * k / n
            p = z + rho * complex(math.cos(th), math.sin(th))
            if region.contains(p):
                pts.append(p)
    return pts


def _ring_extent(f: MapSpec, region: Region, z: complex, r: float, alpha: float,
                 probes: int) -> Optional[tuple[float, float]]:
    """(diam f(closed B), dist(f(closed B), f(alpha-sphere))) for B = B(z, r)
    from the probe rings, or None when fewer than 3 probes land on either."""
    ball_pts = _ring_probes(z, r, probes, region, [r, 0.75 * r, 0.5 * r, 0.25 * r])
    ring_pts = [p for p in _ring_probes(z, r, 2 * probes, region, [alpha * r])
                if p != z]
    if len(ball_pts) < 3 or len(ring_pts) < 3:
        return None
    S = np.array([f.eval(p) for p in ball_pts])
    T = np.array([f.eval(p) for p in ring_pts])
    return (float(np.max(np.abs(S[:, None] - S[None, :]))),
            float(np.min(np.abs(S[:, None] - T[None, :]))))


def estimate_ring(f: MapSpec, spec: SampleSpec, alpha: float, beta: float,
                  probes: int = 16) -> PropertyReport:
    """Envelope of diam f(closed B) / dist(f(closed B), boundary f(alpha B)).

    Balls B = B(z, r) are sampled with beta r < delta_G(z), so both B and
    alpha B stay round and inside G for the analytic regions.  The closed ball
    is probed on exact-radius rings (plus the center) and the boundary of
    alpha B on its exact sphere, keeping the convex identity case exact.
    """
    if not (1.0 < alpha <= beta):
        raise ConfigurationError("ring property needs 1 < alpha <= beta")
    region = f.source_region
    rng = random.Random(spec.seed)
    best: Optional[tuple[float, dict]] = None
    used = 0
    skipped = 0

    for _ in range(spec.count):
        z = region.sample_point(rng)
        dz = region.boundary_distance(z)
        r = rng.uniform(0.3, 0.99) * dz / beta
        if r <= 0.0 or not math.isfinite(r):
            skipped += 1
            continue
        extent = _ring_extent(f, region, z, r, alpha, probes)
        if extent is None or extent[1] <= 0.0:
            skipped += 1
            continue
        diam, dist = extent
        ratio = diam / dist
        best = _ratio_track(best, ratio, {"z": _pt(z), "r": r, "diam": diam,
                                          "dist": dist, "ratio": ratio})
        used += 1

    if best is None:
        raise ConfigurationError("no admissible ball was sampled")
    return PropertyReport("ring", best[0], best[1], used, spec.seed, (), skipped,
                          {"alpha": alpha, "beta": beta, "probes": probes})


# ---------------------------------------------------------------------------
# Witness replay
# ---------------------------------------------------------------------------

def replay_witness(f: MapSpec, report: PropertyReport,
                   k_src=None, k_img=None) -> float:
    """Recompute the reported extremal ratio from the stored witness points."""
    w = report.witness
    if report.property == "quasiconformality":
        x = complex(*w["x"])
        fx = f.eval(x)
        a_max, a_min = complex(*w["a_max"]), complex(*w["a_min"])
        hi = abs(f.eval(a_max) - fx) / abs(a_max - x)
        lo = abs(f.eval(a_min) - fx) / abs(a_min - x)
        return hi / lo
    if report.property in ("weak-quasisymmetry", "local-weak-quasisymmetry"):
        x, a, b = complex(*w["x"]), complex(*w["a"]), complex(*w["b"])
        fx = f.eval(x)
        return abs(fx - f.eval(a)) / abs(fx - f.eval(b))
    if report.property == "semisolidity":
        if k_src is None or k_img is None:
            raise ConfigurationError("semisolid replay needs the distance backends")
        x, y = complex(*w["x"]), complex(*w["y"])
        return k_img.distance(f.eval(x), f.eval(y)) / k_src.distance(x, y)
    if report.property == "relativity":
        x, y = complex(*w["x"]), complex(*w["y"])
        fx = f.eval(x)
        return abs(fx - f.eval(y)) / f.image_region.boundary_distance(fx)
    if report.property == "ring":
        extent = _ring_extent(f, f.source_region, complex(*w["z"]), w["r"],
                              report.meta["alpha"], report.meta["probes"])
        if extent is None:
            raise ConfigurationError("ring witness has too few probes inside the region")
        return extent[0] / extent[1]
    raise ConfigurationError(f"unknown property {report.property!r}")
