"""Monte-Carlo estimators for the mapping properties under study.

Every estimator reports an envelope (a maximum over evaluated samples)
together with the extremal witness so the reported number can be replayed.
When every ratio is evaluated exactly (the map in closed form, and for
semisolidity analytic k_G backends) the envelope is a certified lower bound
for the true coefficient.  estimate_semisolid over a MeshBackend divides two
mesh approximations of k_G, so its envelope is an estimate, not a bound.
Sampling is a single seeded stream, so estimates are non-decreasing in the
sample count at a fixed seed and reports are bit-for-bit reproducible.
A modulus that overflows reads inf (spaces._modulus, np.hypot), never an
OverflowError; a ratio that comes out nan is a ResolutionError.
"""
from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .errors import ConfigurationError, QhkitError, ResolutionError
from .maps import HalfPlaneShearMap, InversionMap, MapSpec
from .spaces import (COORD_TOL, CurveRegion, Region, _modulus, as_point, component_ball,
                     disk_point, sample_pairs)

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
    of a tie is kept; a nan ratio (say inf / inf after an overflow) is a
    ResolutionError naming its sample.  used counts the offers; skipped is
    counted by callers.
    """

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

    def triple(self, f: MapSpec, x: complex, a: complex, b: complex,
               collected: Optional[list] = None, **extra) -> Optional[float]:
        """Offer |f(x)-f(a)| / |f(x)-f(b)| with the triple ordered so |x-a| <= |x-b|,
        its witness extended by extra, and append (x, a, b) to collected.
        A degenerate triple offers nothing and returns None."""
        u, v = (b, a) if _modulus(x - a) > _modulus(x - b) else (a, b)
        if _modulus(x - v) == 0.0:
            return None
        fx = f.eval(x)
        denom = _modulus(fx - f.eval(v))
        if denom == 0.0:
            return None
        ratio = _modulus(fx - f.eval(u)) / denom
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

def _unit_circle(n: int) -> np.ndarray:
    """The n equispaced unit directions, as math.cos and math.sin give them."""
    return np.array([complex(math.cos(2.0 * math.pi * k / n), math.sin(2.0 * math.pi * k / n))
                     for k in range(n)])


def _circle_points(z: np.ndarray, rho: np.ndarray, E: np.ndarray) -> np.ndarray:
    """z + rho * e broadcast over z, rho and the directions E, bit for bit as
    Python computes it: rho * e promotes rho to complex(rho, 0.0)."""
    re = z.real + (rho * E.real - 0.0 * E.imag)
    P = np.empty(re.shape, dtype=complex)
    P.real, P.imag = re, z.imag + (rho * E.imag + 0.0 * E.real)
    return P


def estimate_qc(f: MapSpec, spec: SampleSpec) -> PropertyReport:
    """Directional distortion table H(x, r) over the radius schedule.

    For each base point and admissible radius, the ratio max/min over 64
    equispaced directions of |f(x + r e^(i theta)) - f(x)| / |(x + r e^(i
    theta)) - x| approximates L_f/l_f; the estimate is the envelope at each
    point's smallest admissible radius.  The limit r -> 0 is reported as the
    trend table, never extrapolated.  The base points are drawn first, every
    (point, radius, direction) probe is evaluated in one array pass, and the
    rows fold into the table and the envelope in sampling order.  A ratio
    max/min that is undefined (min 0, or inf / inf) is a ResolutionError.
    """
    region = f.source_region
    rng = random.Random(spec.seed)
    X = np.array([region.sample_point(rng) for _ in range(spec.count)], dtype=complex)
    FX = f.eval_many(X)
    radii = np.array(spec.radius_schedule)
    # One row k per admissible (point pt[k], radius rad[k]), in sampling order.
    pt, rad = np.nonzero(~(radii >= region.boundary_gaps_many(X)[:, None]))
    A = _circle_points(X[pt, None], radii[rad, None], _unit_circle(_N_DIRECTIONS))
    with np.errstate(all="ignore"):
        D = A - X[pt, None]
        chord = np.hypot(D.real, D.imag)
        ok = region.contains_many(A.ravel()).reshape(A.shape) & (chord != 0.0)
        G = f.eval_many(A[ok]) - np.broadcast_to(FX[pt, None], A.shape)[ok]
        ratios = np.zeros(A.shape)
        ratios[ok] = np.hypot(G.real, G.imag) / chord[ok]
        # First occurrences, as max() and min() pick them.
        hi = np.where(ok, ratios, -np.inf).argmax(axis=1)
        lo = np.where(ok, ratios, np.inf).argmin(axis=1)
        rows = np.arange(len(pt))
        H = ratios[rows, hi] / ratios[rows, lo]
    counted = np.flatnonzero(ok.sum(axis=1) >= 2)

    env = _Envelope()
    env.skipped = spec.count * len(radii) - len(counted)
    table: list[tuple] = []
    smallest: dict[int, tuple[float, dict]] = {}  # per point, its last row
    for k in counted:
        x, r = complex(X[pt[k]]), spec.radius_schedule[rad[k]]
        top, bottom = float(ratios[k, hi[k]]), float(ratios[k, lo[k]])
        if bottom == 0.0 or math.isnan(H[k]):
            raise ResolutionError(f"directional distortion {top!r} / {bottom!r} is "
                                  f"undefined at x = {_pt(x)}, r = {r!r}")
        ratio = float(H[k])
        table.append((x.real, x.imag, r, ratio))
        smallest[pt[k]] = (ratio, {"x": _pt(x), "r": r, "a_max": _pt(complex(A[k, hi[k]])),
                                   "a_min": _pt(complex(A[k, lo[k]])), "ratio": ratio})
    for ratio, witness in smallest.values():
        env.offer(ratio, witness)

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
        while _modulus(b - x) <= COORD_TOL:  # b == x: resample, same stream
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
        sep = _modulus(x - y)
        if not region.contains(y) or sep == 0.0 or sep >= t0 * dx:
            env.skipped += 1
            continue
        t = sep / dx
        fx = f.eval(x)
        ratio = _modulus(fx - f.eval(y)) / image.boundary_distance(fx)
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

def _ring_extents(f: MapSpec, region: Region, Z: np.ndarray, R: np.ndarray, alpha: float,
                  probes: int) -> tuple[np.ndarray, np.ndarray]:
    """Per ball B = B(z, r): diam f(closed B) and dist(f(closed B), f(alpha-sphere)),
    nan where fewer than 3 probes land on either.

    The closed ball is probed by z and by probes directions on the rings of
    radius r, 3r/4, r/2 and r/4, the alpha-sphere by 2 probes directions;
    only the probes inside the region count, and the sphere's never equal z.
    """
    rho = R[:, None, None] * np.array([1.0, 0.75, 0.5, 0.25])[:, None]
    P = _circle_points(Z[:, None, None], rho, _unit_circle(probes)).reshape(len(Z), 4 * probes)
    Q = _circle_points(Z[:, None], alpha * R[:, None], _unit_circle(2 * probes))
    in_p = region.contains_many(P.ravel()).reshape(P.shape)
    in_q = region.contains_many(Q.ravel()).reshape(Q.shape) & (Q != Z[:, None])
    enough = np.flatnonzero((in_p.sum(axis=1) >= 2) & (in_q.sum(axis=1) >= 3))
    in_p, in_q = in_p[enough], in_q[enough]
    FZ, FP, FQ = np.split(f.eval_many(np.concatenate(
        (Z[enough], P[enough][in_p], Q[enough][in_q]))), np.cumsum([len(enough), in_p.sum()]))
    p_at, q_at = (np.concatenate(([0], np.cumsum(m.sum(axis=1)))) for m in (in_p, in_q))
    diam, dist = np.full(len(Z), np.nan), np.full(len(Z), np.nan)
    with np.errstate(all="ignore"):
        for i, k in enumerate(enough):  # one ball's pairwise arrays at a time
            S = np.concatenate((FZ[i:i + 1], FP[p_at[i]:p_at[i + 1]]))
            T = FQ[q_at[i]:q_at[i + 1]]
            diam[k] = np.max(np.abs(S[:, None] - S[None, :]))
            dist[k] = np.min(np.abs(S[:, None] - T[None, :]))
    return diam, dist


def estimate_ring(f: MapSpec, spec: SampleSpec, alpha: float, beta: float,
                  probes: int = 16) -> PropertyReport:
    """Envelope of diam f(closed B) / dist(f(closed B), boundary f(alpha B)).

    Balls B = B(z, r) are sampled with beta r < delta_G(z), so both B and
    alpha B stay round and inside G for the analytic regions.  The closed ball
    is probed on exact-radius rings (plus the center) and the boundary of
    alpha B on its exact sphere, keeping the convex identity case exact.
    Every (z, r) is drawn first; _ring_extents then evaluates the probes of
    all balls in one array pass, and the balls fold into the envelope in
    sampling order.
    """
    if not (1.0 < alpha <= beta):
        raise ConfigurationError("ring property needs 1 < alpha <= beta")
    region = f.source_region
    rng = random.Random(spec.seed)
    env = _Envelope()
    balls = []
    for _ in range(spec.count):
        z = region.sample_point(rng)
        r = rng.uniform(0.3, 0.99) * region.boundary_distance(z) / beta
        if r <= 0.0 or not math.isfinite(r):
            env.skipped += 1
        else:
            balls.append((z, r))
    Z, R = np.array([z for z, _ in balls], dtype=complex), np.array([r for _, r in balls])
    diam, dist = _ring_extents(f, region, Z, R, alpha, probes)
    for (z, r), d, s in zip(balls, diam.tolist(), dist.tolist()):
        if not s > 0.0:  # too few probes (nan), or a distance of 0
            env.skipped += 1
            continue
        ratio = d / s
        env.offer(ratio, {"z": _pt(z), "r": r, "diam": d, "dist": s, "ratio": ratio})

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
        hi = _modulus(f.eval(a_max) - fx) / _modulus(a_max - x)
        lo = _modulus(f.eval(a_min) - fx) / _modulus(a_min - x)
        return hi / lo
    if report.property in ("weak-quasisymmetry", "local-weak-quasisymmetry"):
        x, a, b = complex(*w["x"]), complex(*w["a"]), complex(*w["b"])
        fx = f.eval(x)
        return _modulus(fx - f.eval(a)) / _modulus(fx - f.eval(b))
    if report.property == "semisolidity":
        if k_src is None or k_img is None:
            raise ConfigurationError("semisolid replay needs the distance backends")
        x, y = complex(*w["x"]), complex(*w["y"])
        return k_img.distance(f.eval(x), f.eval(y)) / k_src.distance(x, y)
    if report.property == "relativity":
        x, y = complex(*w["x"]), complex(*w["y"])
        fx = f.eval(x)
        return _modulus(fx - f.eval(y)) / f.image_region.boundary_distance(fx)
    if report.property == "ring":
        diam, dist = _ring_extents(f, f.source_region, np.array([complex(*w["z"])]),
                                   np.array([w["r"]]), report.meta["alpha"],
                                   report.meta["probes"])
        if math.isnan(dist[0]):
            raise ConfigurationError("ring witness has too few probes inside the region")
        return float(diam[0]) / float(dist[0])
    raise ConfigurationError(f"unknown property {report.property!r}")
