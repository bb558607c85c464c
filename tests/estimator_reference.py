"""The scalar estimate_qc and estimate_ring that the array kernels in
qhkit.estimators replaced, kept as references: one f.eval per probe, the
64 directions and the ring angles from math.cos and math.sin, and max() and
min() picking the first extremal direction."""
import math
import random
from typing import Optional, Sequence

import numpy as np

from qhkit.errors import ConfigurationError
from qhkit.estimators import _N_DIRECTIONS, PropertyReport, SampleSpec, _Envelope, _pt
from qhkit.maps import MapSpec
from qhkit.spaces import Region


def estimate_qc(f: MapSpec, spec: SampleSpec) -> PropertyReport:
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
