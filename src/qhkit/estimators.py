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
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator, Optional, Sequence

import numpy as np

from .errors import ConfigurationError, QhkitError, ResolutionError
from .maps import HalfPlaneShearMap, InversionMap, MapSpec
from .spaces import (COORD_TOL, CurveRegion, Region, _moduli, _modulus, as_point,
                     component_ball, disk_point, sample_pairs)

_N_DIRECTIONS = 64  # deterministic angular resolution for L_f / l_f probing
_ALPHAS = tuple(a / 20.0 for a in range(1, 21))  # estimate_semisolid's alpha grid


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

    def offer(self, ratios: np.ndarray, witness: Callable[[int], dict]) -> None:
        """Offer the ratios in order, witness(k) building the witness of
        ratios[k]; only the first nan ratio or the first largest one needs it."""
        nan = np.isnan(ratios)
        k = int(np.argmax(nan) if nan.any() else np.argmax(ratios)) if len(ratios) else None
        if nan.any():
            sample = {key: v for key, v in witness(k).items() if key != "ratio"}
            raise ResolutionError(f"the ratio is nan at {sample}")
        if k is not None and (self.best is None or ratios[k] > self.best[0]):
            self.best = (float(ratios[k]), witness(k))
        self.used += len(ratios)

    def triples(self, f: MapSpec, X: np.ndarray, A: np.ndarray, B: np.ndarray,
                extra: Optional[dict] = None) -> np.ndarray:
        """Offer |f(x)-f(a)| / |f(x)-f(b)| of each triple of the arrays X, A, B
        in order, legs swapped so |x-a| <= |x-b|, witness k extended by
        extra[k]; the ratios, nan where a triple offers nothing.  As a triple
        at a time, f is evaluated at x and b where |x-b| != 0, and at a where
        |f(x)-f(b)| != 0; the first failure or nan ratio in order raises."""
        with np.errstate(all="ignore"):
            swap = _moduli(X, A) > _moduli(X, B)
            U, V = np.where(swap, B, A), np.where(swap, A, B)
            live = _moduli(X, V) != 0.0
            (FX, bad_x), (FV, bad_v) = _images_at(f, X, live), _images_at(f, V, live)
            denom = _moduli(FX, FV)
            due = live & ~(bad_x | bad_v) & (denom != 0.0)
            FU, bad_u = _images_at(f, U, due)
            ratios = np.where(due, _moduli(FX, FU) / denom, np.nan)
        fails = np.select((bad_x, bad_v, bad_u), (1, 2, 3))  # failing at x, at b, at a
        first = next(iter(np.flatnonzero(fails)), len(X))
        at = np.flatnonzero(due[:first])
        self.offer(ratios[at], lambda k: {
            "x": _pt(complex(X[at[k]])), "a": _pt(complex(U[at[k]])), "b": _pt(complex(V[at[k]])),
            "ratio": float(ratios[at[k]]), **(extra or {}).get(int(at[k]), {})})
        if first < len(X):
            raise f._rejection(complex((X, V, U)[fails[first] - 1][first]))
        return ratios

    def report(self, property: str, seed: int, empty_msg: str, table,
               meta: dict) -> PropertyReport:
        if self.best is None:
            raise ConfigurationError(empty_msg)
        return PropertyReport(property, self.best[0], self.best[1], self.used, seed,
                              tuple(table), self.skipped, meta)


# ---------------------------------------------------------------------------
# Quasiconformality
# ---------------------------------------------------------------------------

def _unit(th: float) -> complex:
    """The unit direction at angle th, as math.cos and math.sin give it."""
    return complex(math.cos(th), math.sin(th))


def _unit_circle(n: int) -> np.ndarray:
    """The n equispaced unit directions."""
    return np.array([_unit(math.tau * k / n) for k in range(n)])


def _product(A, B) -> np.ndarray:
    """A * B over broadcast complex arrays, bit for bit as Python multiplies
    complex numbers: a real factor r is promoted to complex(r, 0.0)."""
    A, B = np.asarray(A, dtype=complex), np.asarray(B, dtype=complex)
    P = (A.real * B.real - A.imag * B.imag).astype(complex)
    P.imag = A.real * B.imag + A.imag * B.real
    return P


def _images_at(f: MapSpec, Z: np.ndarray, mask: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """f._images over the points of Z where mask holds: the images (nan
    elsewhere) and where f rejects a point (False elsewhere)."""
    W, bad = np.full(len(Z), np.nan, dtype=complex), np.zeros(len(Z), dtype=bool)
    W[mask], bad[mask] = f._images(Z[mask])
    return W, bad


@contextmanager
def _drawn(draws: Iterable) -> Iterator[list]:
    """The items of draws up to the first that raises.  That exception is
    raised when the block ends without an error of its own, so an error that
    a sample-at-a-time loop met first, at an earlier sample, comes first."""
    items, failure = [], None
    try:
        for item in draws:
            items.append(item)
    except Exception as exc:
        failure = exc
    yield items
    if failure is not None:
        raise failure


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
    X = np.array(region.sample_points(rng, spec.count), dtype=complex)
    FX = f.eval_many(X)
    radii = np.array(spec.radius_schedule)
    # One row k per admissible (point pt[k], radius rad[k]), in sampling order.
    pt, rad = np.nonzero(~(radii >= region.boundary_gaps_many(X)[:, None]))
    A = X[pt, None] + _product(radii[rad, None], _unit_circle(_N_DIRECTIONS))
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
    rows = list(smallest.values())
    env.offer(np.array([ratio for ratio, _ in rows]), lambda k: rows[k][1])

    return env.report("quasiconformality", spec.seed,
                      "no admissible (point, radius) sample; shrink the radii", table,
                      {"directions": _N_DIRECTIONS,
                       "radius_schedule": list(spec.radius_schedule)})


# ---------------------------------------------------------------------------
# Weak quasisymmetry (global and local)
# ---------------------------------------------------------------------------

def _with_probes(region: Region, X: np.ndarray, A: np.ndarray, B: np.ndarray,
                 R: np.ndarray, E: np.ndarray) -> tuple[np.ndarray, ...]:
    """X, A, B arrays of each sample's (x, a, b) and then its probe triples
    around x at radius r > 0, direction e, whose legs lie in the region, bit
    for bit as Python forms them, and a mask of the samples' own triples.
    The probe a == b pins the ratio 1; the others have equidistant legs."""
    with np.errstate(all="ignore"):
        V = _product(R, E)
        # a == b, axis-aligned legs, rotated legs, antipodal legs.
        PA = np.stack((X + V, X + _product(R, 1.0 + 0j), X + V, X + V), axis=1)
        PB = np.stack((X + V, X + _product(R, 1j), X + _product(V, 1j), X - V), axis=1)
    legs = region.contains_many(np.concatenate((PA.ravel(), PB.ravel())))
    keep = np.ones((len(X), 5), dtype=bool)
    keep[:, 1:] = (legs[:PA.size] & legs[PA.size:]).reshape(PA.shape) & (R > 0.0)[:, None]
    return (np.broadcast_to(X[:, None], keep.shape)[keep], np.column_stack((A, PA))[keep],
            np.column_stack((B, PB))[keep], np.broadcast_to(np.arange(5) == 0, keep.shape)[keep])


def _offer_family(env: _Envelope, f: MapSpec, params: Sequence[float], witness) -> tuple:
    """Offer the closed-form witness triple of each parameter; (param, ratio) rows."""
    with _drawn(witness(p) for p in params) as triples:
        ratios = env.triples(f, *np.array(triples, dtype=complex).reshape(-1, 3).T).tolist()
    return tuple((p, r) for p, r in zip(params, ratios) if not math.isnan(r))


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

    Each sample offers its triple and the probe triples around x at radius
    0.3 delta_G(x), all drawn first and evaluated in one array pass.  Then
    come the inversion witness family x=1, a=1/t, b=t when f is the
    inversion, whose ratio equals t (so the coefficient is unbounded), and
    extra_triples.
    """
    region = f.source_region
    rng = random.Random(spec.seed)
    env = _Envelope()

    def draws():
        for _ in range(spec.count):
            x, a, b = region.sample_points(rng, 3)
            while _modulus(b - x) <= COORD_TOL:  # b == x: resample, same stream
                b = region.sample_point(rng)
            yield x, a, b, _unit(rng.uniform(0.0, math.tau))

    with _drawn(draws()) as samples:
        X, A, B, E = np.array(samples, dtype=complex).reshape(-1, 4).T
        env.triples(f, *_with_probes(region, X, A, B, 0.3 * region.boundary_gaps_many(X), E)[:3])

    witness_rows = _offer_family(env, f, witness_ts, inversion_weak_qs_witness) \
        if isinstance(f, InversionMap) else ()
    with _drawn((as_point(x), as_point(a), as_point(b)) for x, a, b in extra_triples) as extra:
        env.triples(f, *np.array(extra, dtype=complex).reshape(-1, 3).T)

    return env.report("weak-quasisymmetry", spec.seed, "no admissible triple was sampled",
                      witness_rows, {"witness_ts": list(witness_ts)})


def estimate_local_weak_qs(f: MapSpec, spec: SampleSpec,
                           witness_ns: Sequence[float] = (1.0, 10.0, 100.0),
                           collect_triples: bool = False) -> PropertyReport:
    """Weak-QS envelope restricted to triples inside B^G(z, q delta_G(z)).

    For the built-in analytic regions the metric ball of radius q delta_G(z)
    already lies in G and is connected, so triples are drawn from it directly
    and offered with the probe triples around x that stay in the ball; curve
    regions fall back to component-ball nodes.  The draw loop takes the
    membership and delta_G(z) its draws depend on; the triples are evaluated
    in one array pass.  Includes the shear witness family with ratio
    (2 sqrt(5)/5)(n+1) when f is the shear.
    """
    region = f.source_region
    q = spec.locality_q
    rng = random.Random(spec.seed)
    env = _Envelope()

    def draws():
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
                x, a, b = (nodes[rng.randrange(len(nodes))] for _ in range(3))
                margin = math.nan  # no probes
            else:
                x, a, b = (disk_point(rng, z, rho) for _ in range(3))
                if not region.contains_many(np.array([x, a, b])).all():
                    continue
                margin = 0.9 * (rho - _modulus(x - z))
            # Probes around x, inside the ball, draw a direction.
            yield z, x, a, b, margin, (_unit(rng.uniform(0.0, math.tau)) if margin > 0.0
                                       else math.nan)

    with _drawn(draws()) as samples:
        Z, X, A, B, R, E = np.array(samples, dtype=complex).reshape(-1, 6).T
        TX, TA, TB, own = _with_probes(region, X, A, B, R.real, E)
        centers = dict(zip(np.flatnonzero(own).tolist(), ({"z": _pt(z)} for z in Z.tolist())))
        offered = ~np.isnan(env.triples(f, TX, TA, TB, centers))

    witness_rows = _offer_family(env, f, witness_ns, lambda n: shear_local_witness(n, q)) \
        if isinstance(f, HalfPlaneShearMap) else ()
    meta = {"locality_q": q, "witness_ns": list(witness_ns)}
    if collect_triples:
        meta["triples"] = [[_pt(x), _pt(a), _pt(b)] for x, a, b in
                           zip(*(T[offered].tolist() for T in (TX, TA, TB)))]
    return env.report("local-weak-quasisymmetry", spec.seed,
                      "no admissible local triple was sampled", witness_rows, meta)


# ---------------------------------------------------------------------------
# Semisolidity
# ---------------------------------------------------------------------------

def estimate_semisolid(f: MapSpec, k_src, k_img, spec: SampleSpec) -> PropertyReport:
    """Scatter of (k_G(x,y), k_G'(f x, f y)) with envelope fits.

    Reports the best linear slope  s = max k'/k  and the power-envelope pair
    (mu, alpha) minimizing mu subject to k' <= mu max(t^alpha, t) over the
    scatter (grid search on alpha over _ALPHAS; max-ratio is the faithful
    envelope).
    k_src and k_img are distance backends (mesh or analytic oracle).
    """
    pairs = sample_pairs(k_src.sample_points, random.Random(spec.seed), spec.count)

    W = f._eval_each(np.array(pairs, dtype=complex).ravel()).tolist()  # x0, y0, x1, ...
    ts = np.array(k_src.distance_pairs(pairs))
    us = np.array(k_img.distance_pairs(list(zip(W[0::2], W[1::2]))))

    env = _Envelope()
    at = np.flatnonzero(~(ts <= 0.0))
    t_arr, u_arr = ts[at], us[at]
    env.offer(u_arr / t_arr, lambda k: {
        "x": _pt(pairs[at[k]][0]), "y": _pt(pairs[at[k]][1]), "k": float(t_arr[k]),
        "k_img": float(u_arr[k]), "ratio": float(u_arr[k] / t_arr[k])})
    report = env.report("semisolidity", spec.seed, "no nondegenerate pair sampled",
                        list(zip(t_arr.tolist(), u_arr.tolist())), {})

    best_mu, best_alpha = math.inf, 1.0
    for alpha in _ALPHAS:
        env = np.maximum(t_arr ** alpha, t_arr)
        mu = float(np.max(u_arr / env))
        if mu < best_mu:
            best_mu, best_alpha = mu, alpha

    def backend_info(backend) -> dict:
        mesh = getattr(backend, "mesh", None)
        if mesh is None:
            return {"kind": "analytic", "domain": backend.region.name}
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
    rng = random.Random(spec.seed)
    env = _Envelope()
    with _drawn((region.sample_point(rng), rng.uniform(0.0, 1.0),
                 _unit(rng.uniform(0.0, math.tau))) for _ in range(spec.count)) as samples, \
            np.errstate(all="ignore"):
        X, S, E = np.array(samples, dtype=complex).reshape(-1, 3).T
        dx = region.boundary_gaps_many(X)
        Y = X + _product(S.real * t0 * dx, E)
        sep = _moduli(X, Y)
        t = sep / dx
        member = region.contains_many(X)
        near = region.contains_many(Y) & (sep != 0.0) & ~(sep >= t0 * dx)
        (FX, bad_x), (FY, bad_y) = _images_at(f, X, member & near), _images_at(f, Y, member & near)
        ratios = _moduli(FX, FY) / f.image_region.boundary_gaps_many(FX)
        fails = np.select((~member, bad_x, bad_y), (1, 2, 3))  # off G (delta_G(x)), at x, at y
        first = next(iter(np.flatnonzero(fails)), len(X))
        at = np.flatnonzero((member & near)[:first])
        env.offer(ratios[at], lambda k: {"x": _pt(complex(X[at[k]])), "y": _pt(complex(Y[at[k]])),
                                         "t": float(t[at[k]]), "ratio": float(ratios[at[k]])})
        if first < len(X):
            raise (region.not_member if fails[first] == 1 else f._rejection)(
                complex((X, X, Y)[fails[first] - 1][first]))
    env.skipped = int(np.count_nonzero(~near))
    peaks = np.zeros(bins)
    np.maximum.at(peaks, np.minimum(bins - 1, (t[at] / t0 * bins).astype(int)), ratios[at])

    # Cumulative max keeps the table monotone non-decreasing like a control.
    table = [((b + 1) * t0 / bins, run)
             for b, run in enumerate(np.maximum.accumulate(peaks).tolist())]
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
    P = (Z[:, None, None] + _product(rho, _unit_circle(probes))).reshape(len(Z), 4 * probes)
    Q = Z[:, None] + _product(alpha * R[:, None], _unit_circle(2 * probes))
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
    Every (z, r) is drawn first, r from one boundary_gaps_many call;
    _ring_extents then evaluates the probes of all balls in one array pass,
    and the balls fold into the envelope in sampling order.
    """
    if not (1.0 < alpha <= beta):
        raise ConfigurationError("ring property needs 1 < alpha <= beta")
    region = f.source_region
    rng = random.Random(spec.seed)
    env = _Envelope()
    with _drawn((region.sample_point(rng), rng.uniform(0.3, 0.99))
                for _ in range(spec.count)) as samples:
        Z, S = np.array(samples, dtype=complex).reshape(-1, 2).T
        member = region.contains_many(Z)
        if not member.all():  # delta_G(z) of a point off G
            raise region.not_member(complex(Z[np.argmax(~member)]))
    R = S.real * region.boundary_gaps_many(Z) / beta
    ok = np.isfinite(R) & (R > 0.0)
    Z, R = Z[ok], R[ok]
    diam, dist = _ring_extents(f, region, Z, R, alpha, probes)
    at = np.flatnonzero(dist > 0.0)  # not too few probes (nan), nor a distance of 0
    env.skipped = spec.count - len(at)
    env.offer(diam[at] / dist[at], lambda k: {
        "z": _pt(complex(Z[at[k]])), "r": float(R[at[k]]), "diam": float(diam[at[k]]),
        "dist": float(dist[at[k]]), "ratio": float(diam[at[k]] / dist[at[k]])})

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
