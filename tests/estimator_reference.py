"""The scalar estimators that the array kernels in qhkit.estimators
replaced, kept as references, evaluating maps and regions through the scalar
formulas and predicates of map_reference and region_reference: one
evaluation per probe, the 64 directions and
the ring angles from math.cos and math.sin, and max() and min() picking the
first extremal direction in estimate_qc and estimate_ring; one triple (or
pair) at a time, evaluated and offered before the next is drawn, in the
triple estimators and estimate_semisolid."""
import math
import random
from typing import Optional, Sequence

import numpy as np

from qhkit.errors import ConfigurationError, QhkitError, ResolutionError
from qhkit.estimators import (_N_DIRECTIONS, PropertyReport, SampleSpec, _pt,
                              inversion_weak_qs_witness, shear_local_witness)
from qhkit.maps import HalfPlaneShearMap, InversionMap, MapSpec
from qhkit.spaces import (COORD_TOL, CurveRegion, Region, _modulus, as_point, component_ball,
                          disk_point)

import map_reference as mr
import region_reference as rr


class _Envelope:
    """The running maximum as one ratio at a time offered it."""

    def __init__(self):
        self.best: Optional[tuple[float, dict]] = None
        self.used = 0
        self.skipped = 0

    def offer(self, ratio: float, witness: dict) -> None:
        if math.isnan(ratio):
            sample = {k: v for k, v in witness.items() if k != "ratio"}
            raise ResolutionError(f"the ratio is nan at {sample}")
        if self.best is None or ratio > self.best[0]:
            self.best = (ratio, witness)
        self.used += 1

    def report(self, property: str, seed: int, empty_msg: str, table,
               meta: dict) -> PropertyReport:
        if self.best is None:
            raise ConfigurationError(empty_msg)
        return PropertyReport(property, self.best[0], self.best[1], self.used, seed,
                              tuple(table), self.skipped, meta)


def estimate_qc(f: MapSpec, spec: SampleSpec) -> PropertyReport:
    region = f.source_region
    rng = random.Random(spec.seed)
    table: list[tuple] = []
    env = _Envelope()
    dirs = [complex(math.cos(2.0 * math.pi * k / _N_DIRECTIONS),
                    math.sin(2.0 * math.pi * k / _N_DIRECTIONS))
            for k in range(_N_DIRECTIONS)]

    for _ in range(spec.count):
        x = rr.sample_point(region, rng)
        dx = rr.boundary_distance(region, x)
        fx = mr.eval_point(f, x)
        smallest: Optional[tuple[float, float, dict]] = None
        for r in spec.radius_schedule:
            if r >= dx:
                env.skipped += 1
                continue
            ratios: list[tuple[float, complex]] = []
            for e in dirs:
                a = x + r * e
                if not rr.contains(region, a):
                    continue
                chord = abs(a - x)
                if chord == 0.0:
                    continue
                ratios.append((abs(mr.eval_point(f, a) - fx) / chord, a))
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


def _ring_probes(z: complex, r: float, n: int, region: Region,
                 radii: Sequence[float]) -> list[complex]:
    pts = [z]
    for rho in radii:
        for k in range(n):
            th = 2.0 * math.pi * k / n
            p = z + rho * complex(math.cos(th), math.sin(th))
            if rr.contains(region, p):
                pts.append(p)
    return pts


def _ring_extent(f: MapSpec, region: Region, z: complex, r: float, alpha: float,
                 probes: int) -> Optional[tuple[float, float]]:
    ball_pts = _ring_probes(z, r, probes, region, [r, 0.75 * r, 0.5 * r, 0.25 * r])
    ring_pts = [p for p in _ring_probes(z, r, 2 * probes, region, [alpha * r])
                if p != z]
    if len(ball_pts) < 3 or len(ring_pts) < 3:
        return None
    S = np.array([mr.eval_point(f, p) for p in ball_pts])
    T = np.array([mr.eval_point(f, p) for p in ring_pts])
    return (float(np.max(np.abs(S[:, None] - S[None, :]))),
            float(np.min(np.abs(S[:, None] - T[None, :]))))


def estimate_ring(f: MapSpec, spec: SampleSpec, alpha: float, beta: float,
                  probes: int = 16) -> PropertyReport:
    if not (1.0 < alpha <= beta):
        raise ConfigurationError("ring property needs 1 < alpha <= beta")
    region = f.source_region
    rng = random.Random(spec.seed)
    env = _Envelope()

    for _ in range(spec.count):
        z = rr.sample_point(region, rng)
        dz = rr.boundary_distance(region, z)
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


def _triple(env: _Envelope, f: MapSpec, x: complex, a: complex, b: complex,
            collected: Optional[list] = None, **extra) -> Optional[float]:
    u, v = (b, a) if _modulus(x - a) > _modulus(x - b) else (a, b)
    if _modulus(x - v) == 0.0:
        return None
    fx = mr.eval_point(f, x)
    denom = _modulus(fx - mr.eval_point(f, v))
    if denom == 0.0:
        return None
    ratio = _modulus(fx - mr.eval_point(f, u)) / denom
    env.offer(ratio, {"x": _pt(x), "a": _pt(u), "b": _pt(v), "ratio": ratio, **extra})
    if collected is not None:
        collected.append((x, a, b))
    return ratio


def _probe_triples(x: complex, radius: float, rng: random.Random) -> list[tuple]:
    th = rng.uniform(0.0, 2.0 * math.pi)
    v = radius * complex(math.cos(th), math.sin(th))
    e1 = radius * complex(1.0, 0.0)
    e2 = radius * complex(0.0, 1.0)
    return [(x, x + v, x + v), (x, x + e1, x + e2), (x, x + v, x + v * 1j), (x, x + v, x - v)]


def _offer_probes(env: _Envelope, f: MapSpec, region: Region, x: complex, radius: float,
                  rng: random.Random, collected: Optional[list] = None) -> None:
    for (px, pa, pb) in _probe_triples(x, radius, rng):
        if rr.contains(region, pa) and rr.contains(region, pb):
            _triple(env, f, px, pa, pb, collected)


def _offer_family(env: _Envelope, f: MapSpec, params: Sequence[float], witness) -> tuple:
    rows = []
    for p in params:
        ratio = _triple(env, f, *witness(p))
        if ratio is not None:
            rows.append((p, ratio))
    return tuple(rows)


def estimate_weak_qs(f: MapSpec, spec: SampleSpec,
                     witness_ts: Sequence[float] = (2.0, 10.0, 100.0),
                     extra_triples: Sequence[tuple] = ()) -> PropertyReport:
    region = f.source_region
    rng = random.Random(spec.seed)
    env = _Envelope()

    for _ in range(spec.count):
        x = rr.sample_point(region, rng)
        a = rr.sample_point(region, rng)
        b = rr.sample_point(region, rng)
        while _modulus(b - x) <= COORD_TOL:
            b = rr.sample_point(region, rng)
        _triple(env, f, x, a, b)
        _offer_probes(env, f, region, x, 0.3 * rr.boundary_distance(region, x), rng)

    witness_rows = _offer_family(env, f, witness_ts, inversion_weak_qs_witness) \
        if isinstance(f, InversionMap) else ()
    for (x, a, b) in extra_triples:
        _triple(env, f, as_point(x), as_point(a), as_point(b))

    return env.report("weak-quasisymmetry", spec.seed, "no admissible triple was sampled",
                      witness_rows, {"witness_ts": list(witness_ts)})


def estimate_local_weak_qs(f: MapSpec, spec: SampleSpec,
                           witness_ns: Sequence[float] = (1.0, 10.0, 100.0),
                           collect_triples: bool = False) -> PropertyReport:
    region = f.source_region
    q = spec.locality_q
    rng = random.Random(spec.seed)
    env = _Envelope()
    collected: Optional[list] = [] if collect_triples else None

    for _ in range(spec.count):
        z = rr.sample_point(region, rng)
        rho = q * rr.boundary_distance(region, z)
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
            if not (rr.contains(region, x) and rr.contains(region, a) and rr.contains(region, b)):
                continue
        _triple(env, f, x, a, b, collected, z=_pt(z))
        if not isinstance(region, CurveRegion):
            margin = 0.9 * (rho - _modulus(x - z))
            if margin > 0.0:
                _offer_probes(env, f, region, x, margin, rng, collected)

    witness_rows = _offer_family(env, f, witness_ns, lambda n: shear_local_witness(n, q)) \
        if isinstance(f, HalfPlaneShearMap) else ()
    meta = {"locality_q": q, "witness_ns": list(witness_ns)}
    if collect_triples:
        meta["triples"] = [[_pt(x), _pt(a), _pt(b)] for x, a, b in collected]
    return env.report("local-weak-quasisymmetry", spec.seed,
                      "no admissible local triple was sampled", witness_rows, meta)


def estimate_semisolid(f: MapSpec, k_src, k_img, spec: SampleSpec,
                       alphas: Sequence[float] = tuple(a / 20.0 for a in range(1, 21))
                       ) -> PropertyReport:
    pairs = rr.sample_pairs(k_src.sample_point, random.Random(spec.seed), spec.count)

    image_pairs = [(mr.eval_point(f, x), mr.eval_point(f, y)) for x, y in pairs]
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


def estimate_relative(f: MapSpec, spec: SampleSpec, t0: float,
                      bins: int = 20) -> PropertyReport:
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
        x = rr.sample_point(region, rng)
        dx = rr.boundary_distance(region, x)
        rho = rng.uniform(0.0, 1.0) * t0 * dx
        th = rng.uniform(0.0, 2.0 * math.pi)
        y = x + rho * complex(math.cos(th), math.sin(th))
        sep = _modulus(x - y)
        if not rr.contains(region, y) or sep == 0.0 or sep >= t0 * dx:
            env.skipped += 1
            continue
        t = sep / dx
        fx = mr.eval_point(f, x)
        ratio = _modulus(fx - mr.eval_point(f, y)) / rr.boundary_distance(image, fx)
        b = min(bins - 1, int(t / t0 * bins))
        if ratio > peaks[b]:
            peaks[b] = ratio
        env.offer(ratio, {"x": _pt(x), "y": _pt(y), "t": t, "ratio": ratio})

    run = 0.0
    table = []
    for b in range(bins):
        run = max(run, peaks[b])
        table.append(((b + 1) * t0 / bins, run))
    return env.report("relativity", spec.seed, "no admissible near pair was sampled",
                      table, {"t0": t0, "bins": bins})
