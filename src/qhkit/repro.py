"""Reproduction suites for the worked examples and the inequality lemmas.

Each suite runs a pinned-seed scenario, evaluates its assertions at the
documented tolerances, and returns PASS/FAIL rows plus CSV/JSON payloads.
Suite names are stable identifiers used by the command line.
"""
from __future__ import annotations

import math
import random
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigurationError, ResolutionError
from .estimators import (
    SampleSpec,
    estimate_semisolid,
    inversion_weak_qs_witness,
    shear_local_witness,
)
from .maps import HalfPlaneShearMap, InversionMap
from .qhgraph import (
    AnalyticBackend,
    MeshBackend,
    build_mesh,
    lemma34_check,
    lemma36_check,
    qh_distance_many,
)
from .scenarios import (
    default_mesh_params,
    frame_region_bottom,
    frame_region_omega,
    frame_space,
    make_region,
)
from .spaces import component_ball, length_distance, quasiconvexity_estimate, sample_pairs

CLOSED_FORM_TOL = 1e-12
MESH_TOL = 0.05


@dataclass
class Assertion:
    label: str
    passed: bool
    detail: str


@dataclass
class ReproResult:
    name: str
    seed: int
    assertions: list[Assertion] = field(default_factory=list)
    rows: list[tuple] = field(default_factory=list)
    values: dict = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return all(a.passed for a in self.assertions)

    def check(self, label: str, ok: bool, detail: str = "") -> None:
        self.assertions.append(Assertion(label, bool(ok), detail))

    def report(self) -> dict:
        return {
            "suite": self.name,
            "seed": self.seed,
            "passed": self.passed,
            "values": self.values,
            "assertions": [{"label": a.label, "passed": a.passed, "detail": a.detail}
                           for a in self.assertions],
        }


def repro_example_1_1(seed: int = 11, count: int = 100, mesh_pairs: int = 60,
                      grading: float = 0.1,
                      witness_ts: tuple[float, ...] = (2.0, 10.0, 100.0)) -> ReproResult:
    """Inversion of the punctured plane: QH isometry, unbounded weak-QS ratios."""
    if count < 1 or mesh_pairs < 1:
        raise ConfigurationError("example-1-1 needs count >= 1 and mesh_pairs >= 1")
    res = ReproResult("example-1-1", seed)
    f = InversionMap()
    region = f.source_region
    pairs = sample_pairs(region.sample_points, random.Random(seed), count)
    Z = np.array(pairs, dtype=complex)
    W = f.eval_many(Z.ravel()).reshape(-1, 2)
    exact = region.k_exact_many(Z[:, 0], Z[:, 1])
    exact_img = f.image_region.k_exact_many(W[:, 0], W[:, 1])
    worst = 0.0
    for idx, ((x, y), k, k_img) in enumerate(zip(pairs, exact, exact_img)):
        diff = abs(k - k_img)
        worst = max(worst, diff)
        res.rows.append((idx, x.real, x.imag, y.real, y.imag, k_img, k,
                         0.0, CLOSED_FORM_TOL, int(diff <= CLOSED_FORM_TOL)))
    res.check("isometry-oracle",
              worst <= CLOSED_FORM_TOL,
              f"max |k(fx,fy) - k(x,y)| = {worst:.3e} over {count} pairs")

    for t in witness_ts:
        fx, fa, fb = f._eval_each(np.array(inversion_weak_qs_witness(t))).tolist()
        ratio = abs(fx - fa) / abs(fx - fb)
        res.values[f"witness_ratio_t={t:g}"] = ratio
        res.check(f"weak-qs-witness-t={t:g}",
                  abs(ratio - t) <= CLOSED_FORM_TOL,
                  f"ratio = {ratio!r}, expected {t:g}")

    mesh = build_mesh(region, grading, default_mesh_params("punctured")["bbox"])
    inner = [(x, y) for x, y in pairs[:mesh_pairs]]
    ks = [r.distance for r in qh_distance_many(mesh, inner)]
    k_imgs = [r.distance for r in qh_distance_many(mesh, W[:mesh_pairs].tolist())]
    worst_rel = max(abs(k - ki) / k for k, ki in zip(ks, k_imgs) if k > 0)
    res.check("isometry-mesh",
              worst_rel <= 0.04,
              f"max relative |k(fx,fy) - k(x,y)| = {worst_rel:.4f} over "
              f"{len(inner)} pairs at grading {grading}")
    return res


def repro_example_1_8(seed: int = 11, pairs: int = 200, grading: float = 0.1,
                      witness_ns: tuple[float, ...] = (1.0, 10.0, 100.0),
                      locality_q: float = 0.5) -> ReproResult:
    """Half-plane shear: sqrt(3)-linear semisolidity and the local-QS witnesses."""
    res = ReproResult("example-1-8", seed)
    f = HalfPlaneShearMap()
    region = f.source_region
    mesh = build_mesh(region, grading, default_mesh_params("halfplane")["bbox"])
    backend = MeshBackend(mesh, sample_window=(-1.0, 1.0, 0.25, 1.8))

    spec = SampleSpec(seed=seed, count=pairs)
    report = estimate_semisolid(f, backend, MeshBackend(mesh), spec)
    bound = math.sqrt(3.0) * (1.0 + MESH_TOL)
    viol = [(t, u) for t, u in report.table if u > bound * t]
    res.check("semisolid-sqrt3",
              not viol,
              f"max slope k'/k = {report.meta['slope']:.4f} over "
              f"{report.samples_used} mesh pairs; bound sqrt(3)(1+{MESH_TOL}) = {bound:.4f}")
    for t, u in report.table:
        res.rows.append((len(res.rows), t, 0.0, u, 0.0, u, t, 0.0, bound * t,
                         int(u <= bound * t)))

    expected_coeff = 2.0 * math.sqrt(5.0) / 5.0
    for n in witness_ns:
        O, a, b = shear_local_witness(n, locality_q)
        if O in (a, b):
            raise ResolutionError(f"the shear witness at n = {n:g} rounds onto its base {O}")
        fO, fa, fb = f._eval_each(np.array((O, a, b))).tolist()
        ratio = abs(fO - fa) / abs(fO - fb)
        expected = expected_coeff * (n + 1.0)
        res.values[f"witness_ratio_n={n:g}"] = ratio
        res.check(f"local-weak-qs-witness-n={n:g}",
                  abs(ratio - expected) <= CLOSED_FORM_TOL * max(1.0, expected),
                  f"ratio = {ratio!r}, expected (2 sqrt(5)/5)(n+1) = {expected!r}")
    return res


def repro_example_3_1(resolution: float = 0.05) -> ReproResult:
    """Frame complex: exact boundary distances, 5-quasiconvexity witness, and
    the strict reversal of component-ball inclusion for nested domains."""
    res = ReproResult("example-3-1", 0)
    space = frame_space()
    omega = frame_region_omega(space)
    bottom = frame_region_bottom(space)
    z = complex(0.0, 0.0)

    d_bottom = bottom.boundary_distance(z)
    res.check("delta-bottom", d_bottom == 2.0, f"delta_D(0,0) = {d_bottom!r}")
    d_omega = omega.boundary_distance(z)
    res.check("delta-omega", d_omega == math.sqrt(2.0),
              f"delta_Omega(0,0) = {d_omega!r}")
    res.check("subregion-bound", d_bottom <= 5.0 * d_omega,
              f"delta_D <= c delta_Omega: {d_bottom!r} <= {5.0 * d_omega!r}")

    d = length_distance(space, z, complex(0.0, 1.0))
    res.check("quasiconvexity-witness", d == 5.0,
              f"d((0,0),(0,1)) = {d!r}; ratio = {d / 1.0!r}")

    ball_omega = component_ball(omega, z, d_omega, resolution)
    ball_bottom = component_ball(bottom, z, d_bottom, resolution)
    on_bottom = all(abs(p.imag) <= 1e-9 and abs(p.real) < math.sqrt(2.0)
                    for p in ball_omega.nodes)
    res.check("omega-ball-on-bottom-segment", on_bottom,
              f"{len(ball_omega.nodes)} nodes, all within (-sqrt2, sqrt2) x {{0}}")

    key = lambda p: (round(p.real, 9), round(p.imag, 9))
    omega_keys = {key(p) for p in ball_omega.nodes}
    bottom_keys = {key(p) for p in ball_bottom.nodes}
    res.check("strict-ball-inclusion",
              omega_keys < bottom_keys,
              f"|omega ball| = {len(omega_keys)} < |bottom ball| = {len(bottom_keys)}"
              f" and subset = {omega_keys <= bottom_keys}")

    chat = quasiconvexity_estimate(space, 400, 11)
    res.check("quasiconvexity-estimate-below-c", 1.0 <= chat <= 5.0 + 1e-9,
              f"sampled c-hat = {chat:.4f} (true c = 5)")
    return res


_LEMMA_DOMAINS = ("halfplane", "punctured", "frame-omega", "frame-bottom")


def _domain_backend(name: str):
    region = make_region(name)
    if region.k_exact_many is not None:
        return region, AnalyticBackend(region)
    return region, MeshBackend(build_mesh(region, 0.05))


def repro_lemma_3_4(seed: int = 7, count: int = 200, eps: float = MESH_TOL) -> ReproResult:
    """Zero violations of the three k_G comparison bounds on every built-in domain."""
    res = ReproResult("lemma-3-4", seed)
    for name in _LEMMA_DOMAINS:
        region, backend = _domain_backend(name)
        report = lemma34_check(region, backend, count=count, seed=seed, eps=eps)
        res.check(f"{name}",
                  report.passed,
                  f"{len(report.violations)} violations over {report.checked} checks")
        res.rows.extend(report.rows)
    return res


def repro_lemma_3_6(seed: int = 7, count: int = 200, eps: float = MESH_TOL,
                    grading: float = 0.05) -> ReproResult:
    """Length-metric sandwiches |x-y| <= d <= c|x-y| and k/c <= k' <= ck."""
    res = ReproResult("lemma-3-6", seed)
    for name in _LEMMA_DOMAINS:
        region = make_region(name)
        if region.k_exact_many is not None:
            mesh_e = mesh_l = None  # convex ambient: d = |.| makes k' = k exactly
        else:
            mesh_e = build_mesh(region, grading, metric="euclidean")
            mesh_l = build_mesh(region, grading, metric="length")
        report = lemma36_check(region, mesh_e, mesh_l, count=count, seed=seed, eps=eps)
        res.check(f"{name}",
                  report.passed,
                  f"{len(report.violations)} violations over {report.checked} checks")
        res.rows.extend(report.rows)
    return res


SUITES = {
    "example-1-1": repro_example_1_1,
    "example-1-8": repro_example_1_8,
    "example-3-1": repro_example_3_1,
    "lemma-3-4": repro_lemma_3_4,
    "lemma-3-6": repro_lemma_3_6,
}


def run_suite(name: str, **overrides) -> ReproResult:
    try:
        fn = SUITES[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown suite {name!r}; choose from {', '.join(sorted(SUITES))}") from None
    return fn(**overrides)
