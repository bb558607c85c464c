"""Monte-Carlo estimators for the mapping properties under study.

Every estimator reports an envelope (a maximum over evaluated samples)
together with the extremal witness so the reported number can be replayed.
When every ratio is evaluated exactly (the map in closed form, and for
semisolidity analytic k_G backends) the envelope is a certified lower bound
for the true coefficient.  estimate_semisolid over a MeshBackend divides two
mesh approximations of k_G, so its envelope is an estimate, not a bound.
Sampling is a single seeded stream, so estimates are non-decreasing in the
sample count at a fixed seed and reports are bit-for-bit reproducible.
"""
from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .errors import ConfigurationError, QhkitError
from .maps import HalfPlaneShearMap, InversionMap, MapSpec
from .spaces import COORD_TOL, CurveRegion, Region, as_point, component_ball, disk_point, sample_pairs

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

    The estimate is a maximum over evaluated samples: a lower bound of the
    true coefficient when the ratios are exact (analytic backends), an
    estimate when they come from mesh distances.  Replaying the witness
    reproduces it.
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


class _Envelope:
    """Running maximum of the offered ratios and the witness that attains it.

    Only a strictly larger ratio replaces the maximum, so the first witness
    of a tie is kept.  used counts the offers; skipped is counted by callers.
    """

    def __init__(self):
        self.best: Optional[tuple[float, dict]] = None
        self.used = 0
        self.skipped = 0

    def offer(self, ratio: float, witness: dict) -> None:
        if self.best is None or ratio > self.best[0]:
            self.best = (ratio, witness)
        self.used += 1

    def triple(self, f: MapSpec, x: complex, a: complex, b: complex,
               collected: Optional[list] = None, **extra) -> Optional[float]:
        """Offer |f(x)-f(a)| / |f(x)-f(b)| with the triple ordered so |x-a| <= |x-b|,
        its witness extended by extra, and append (x, a, b) to collected.
        A degenerate triple offers nothing and returns None."""
        u, v = (b, a) if abs(x - a) > abs(x - b) else (a, b)
        if abs(x - v) == 0.0:
            return None
        fx = f.eval(x)
        denom = abs(fx - f.eval(v))
        if denom == 0.0:
            return None
        ratio = abs(fx - f.eval(u)) / denom
        self.offer(ratio, {"x": _pt(x), "a": _pt(u), "b": _pt(v), "ratio": ratio, **extra})
        if collected is not None:
            collected.append((x, a, b))
        return ratio

    def report(self, property: str, seed: int, empty_msg: str, table,
               meta: dict) -> PropertyReport:
        if self.best is None:
            raise ConfigurationError(empty_msg)
        return PropertyReport(property, self.best[0], self.best[1], self.used, seed,
                              tuple(table), self.skipped, meta)


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
    env = _Envelope()
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
                env.skipped += 1
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
                env.skipped += 1
                continue
            hi = max(ratios, key=lambda t: t[0])
            lo = min(ratios, key=lambda t: t[0])
            H = hi[0] / lo[0]
            table.append((x.real, x.imag, r, H))
            smallest = (r, H, {"x": _pt(x), "r": r, "a_max": _pt(hi[1]),
                               "a_min": _pt(lo[1]), "ratio": H})
        if smallest is not None:
            env.offer(smallest[1], smallest[2])

    return env.report("quasiconformality", spec.seed,
                      "no admissible (point, radius) sample; shrink the radii", table,
                      {"directions": _N_DIRECTIONS,
                       "radius_schedule": list(spec.radius_schedule)})


# ---------------------------------------------------------------------------
# Weak quasisymmetry (global and local)
# ---------------------------------------------------------------------------

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


def _offer_probes(env: _Envelope, f: MapSpec, region: Region, x: complex, radius: float,
                  rng: random.Random, collected: Optional[list] = None) -> None:
    """Offer each probe triple around x whose legs both lie in the region."""
    for (px, pa, pb) in _probe_triples(x, radius, rng):
        if region.contains(pa) and region.contains(pb):
            env.triple(f, px, pa, pb, collected)


def _offer_family(env: _Envelope, f: MapSpec, params: Sequence[float], witness) -> tuple:
    """Offer the closed-form witness triple of each parameter; (param, ratio) rows."""
    rows = []
    for p in params:
        ratio = env.triple(f, *witness(p))
        if ratio is not None:
            rows.append((p, ratio))
    return tuple(rows)


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
    env = _Envelope()

    for _ in range(spec.count):
        x = region.sample_point(rng)
        a = region.sample_point(rng)
        b = region.sample_point(rng)
        while abs(b - x) <= COORD_TOL:  # b == x: resample, same stream
            b = region.sample_point(rng)
        env.triple(f, x, a, b)
        _offer_probes(env, f, region, x, 0.3 * region.boundary_distance(x), rng)

    witness_rows = _offer_family(env, f, witness_ts, inversion_weak_qs_witness) \
        if isinstance(f, InversionMap) else ()
    for (x, a, b) in extra_triples:
        env.triple(f, as_point(x), as_point(a), as_point(b))

    return env.report("weak-quasisymmetry", spec.seed, "no admissible triple was sampled",
                      witness_rows, {"witness_ts": list(witness_ts)})


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
    env = _Envelope()
    collected: Optional[list[tuple[complex, complex, complex]]] = [] if collect_triples else None

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
            x = disk_point(rng, z, rho)
            a = disk_point(rng, z, rho)
            b = disk_point(rng, z, rho)
            if not (region.contains(x) and region.contains(a) and region.contains(b)):
                continue
        env.triple(f, x, a, b, collected, z=_pt(z))
        if not isinstance(region, CurveRegion):
            margin = 0.9 * (rho - abs(x - z))
            if margin > 0.0:
                _offer_probes(env, f, region, x, margin, rng, collected)

    witness_rows = _offer_family(env, f, witness_ns, lambda n: shear_local_witness(n, q)) \
        if isinstance(f, HalfPlaneShearMap) else ()
    meta = {"locality_q": q, "witness_ns": list(witness_ns)}
    if collect_triples:
        meta["triples"] = [[_pt(x), _pt(a), _pt(b)] for x, a, b in collected]
    return env.report("local-weak-quasisymmetry", spec.seed,
                      "no admissible local triple was sampled", witness_rows, meta)


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

    env = _Envelope()
    scatter: list[tuple] = []
    for (x, y), t, u in zip(pairs, ts, us):
        if t <= 0.0:
            continue
        scatter.append((t, u))
        ratio = u / t
        env.offer(ratio, {"x": _pt(x), "y": _pt(y), "k": t, "k_img": u, "ratio": ratio})
    report = env.report("semisolidity", spec.seed, "no nondegenerate pair sampled",
                        scatter, {})

    t_arr, u_arr = np.array(scatter).T
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

    report.meta.update(mu=best_mu, alpha=best_alpha, slope=report.estimate,
                       k_src=backend_info(k_src), k_img=backend_info(k_img))
    return report


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
    if bins < 1:
        raise ConfigurationError("bins must be >= 1")
    region = f.source_region
    image = f.image_region
    rng = random.Random(spec.seed)
    peaks = [0.0] * bins
    env = _Envelope()

    for _ in range(spec.count):
        x = region.sample_point(rng)
        dx = region.boundary_distance(x)
        rho = rng.uniform(0.0, 1.0) * t0 * dx
        th = rng.uniform(0.0, 2.0 * math.pi)
        y = x + rho * complex(math.cos(th), math.sin(th))
        sep = abs(x - y)
        if not region.contains(y) or sep == 0.0 or sep >= t0 * dx:
            env.skipped += 1
            continue
        t = sep / dx
        fx = f.eval(x)
        ratio = abs(fx - f.eval(y)) / image.boundary_distance(fx)
        b = min(bins - 1, int(t / t0 * bins))
        if ratio > peaks[b]:
            peaks[b] = ratio
        env.offer(ratio, {"x": _pt(x), "y": _pt(y), "t": t, "ratio": ratio})

    # Cumulative max keeps the table monotone non-decreasing like a control.
    run = 0.0
    table = []
    for b in range(bins):
        run = max(run, peaks[b])
        table.append(((b + 1) * t0 / bins, run))
    return env.report("relativity", spec.seed, "no admissible near pair was sampled",
                      table, {"t0": t0, "bins": bins})


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
    env = _Envelope()

    for _ in range(spec.count):
        z = region.sample_point(rng)
        dz = region.boundary_distance(z)
        r = rng.uniform(0.3, 0.99) * dz / beta
        if r <= 0.0 or not math.isfinite(r):
            env.skipped += 1
            continue
        extent = _ring_extent(f, region, z, r, alpha, probes)
        if extent is None or extent[1] <= 0.0:
            env.skipped += 1
            continue
        diam, dist = extent
        ratio = diam / dist
        env.offer(ratio, {"z": _pt(z), "r": r, "diam": diam, "dist": dist, "ratio": ratio})

    return env.report("ring", spec.seed, "no admissible ball was sampled", (),
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
