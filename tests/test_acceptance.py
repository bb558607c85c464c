"""Acceptance gate: every criterion at its stated tolerance.

Run with `pytest -s tests/test_acceptance.py` to see one PASS line per
criterion.  Shared meshes come from session fixtures; criterion 1 builds its
meshes fresh so the quoted runtime is a real wall measurement.
"""
import math
import random
import re
import time

import pytest

from qhkit import (
    ConfigurationError,
    IdentityMap,
    MeshBackend,
    ResolutionError,
    SampleSpec,
    build_mesh,
    chain_constants,
    estimate_local_weak_qs,
    estimate_qc,
    estimate_semisolid,
    estimate_weak_qs,
    qh_distance,
    qh_distance_exact,
    qh_distance_many,
    theta_ring,
)
from qhkit.constants import (
    chain_count_bound,
    eta_prime_knot_residuals,
    relative_control_from_semisolid,
)
from qhkit.repro import SUITES, run_suite
from qhkit.reports import canonical_json

from conftest import HP_BBOX

LN2 = math.log(2.0)


def _report(criterion: str, ok: bool, detail: str):
    print(f"{'PASS' if ok else 'FAIL'}: {criterion} :: {detail}")
    assert ok, detail


def test_criterion_1_halfplane_oracle(halfplane):
    t_start = time.perf_counter()
    mesh5 = build_mesh(halfplane, 0.05, HP_BBOX)
    k5 = qh_distance(mesh5, 1j, 2j).distance
    mesh10 = build_mesh(halfplane, 0.1, HP_BBOX)
    k10 = qh_distance(mesh10, 1j, 2j).distance
    elapsed = time.perf_counter() - t_start
    e5 = abs(k5 - LN2) / LN2
    e10 = abs(k10 - LN2) / LN2
    _report("criterion 1 (half-plane oracle)",
            e5 <= 0.02 and e10 <= 0.05 and elapsed < 30.0,
            f"err@0.05 = {e5:.4%} (<=2%), err@0.1 = {e10:.4%} (<=5%), "
            f"runtime = {elapsed:.1f}s (<30s)")


def test_criterion_2_punctured_oracle(pp_mesh_005, punctured):
    rng = random.Random(42)
    pairs = []
    while len(pairs) < 20:
        x = punctured.sample_point(rng)
        y = punctured.sample_point(rng)
        if abs(x - y) > 1e-9:
            pairs.append((x, y))
    worst = 0.0
    for (x, y), r in zip(pairs, qh_distance_many(pp_mesh_005, pairs)):
        exact = qh_distance_exact("punctured", x, y)
        worst = max(worst, abs(r.distance - exact) / exact)
    _report("criterion 2 (punctured-plane oracle)", worst <= 0.02,
            f"worst relative error = {worst:.4%} over 20 seeded pairs (<=2%)")


def test_criterion_3_inversion_example():
    res = run_suite("example-1-1")
    ok = res.passed
    _report("criterion 3 (inversion: isometry + weak-QS witnesses)", ok,
            "; ".join(f"{a.label}: {'ok' if a.passed else a.detail}"
                      for a in res.assertions))


def test_criterion_4_shear_example():
    res = run_suite("example-1-8")
    _report("criterion 4 (shear: sqrt(3)-semisolidity + local witnesses)",
            res.passed,
            "; ".join(f"{a.label}: {'ok' if a.passed else a.detail}"
                      for a in res.assertions))


def test_criterion_5_frame_example():
    res = run_suite("example-3-1")
    _report("criterion 5 (frame complex: exact deltas, witness 5, ball inclusion)",
            res.passed,
            "; ".join(f"{a.label}: {'ok' if a.passed else a.detail}"
                      for a in res.assertions))


def test_criterion_6_lemma_suites():
    res34 = run_suite("lemma-3-4")
    res36 = run_suite("lemma-3-6")
    _report("criterion 6 (inequality suites, eps = 5%)",
            res34.passed and res36.passed,
            "; ".join(f"{a.label}: {a.detail}"
                      for a in res34.assertions + res36.assertions))


def test_degenerate_repro_runs_are_typed_errors():
    with pytest.raises(ConfigurationError, match="example-1-1 needs count >= 1"):
        run_suite("example-1-1", count=0)
    with pytest.raises(ConfigurationError, match="mesh_pairs >= 1"):
        run_suite("example-1-1", count=5, mesh_pairs=0)
    # b = (n - q eps/2, 1/2) rounds onto the base point (n, 1/2).
    for n in (1e15, 1e17, -1e17):
        message = re.escape(f"the shear witness at n = {n:g} rounds onto its base")
        with pytest.raises(ResolutionError, match=message):
            run_suite("example-1-8", pairs=5, witness_ns=(n,))
    assert run_suite("example-1-8", pairs=5, witness_ns=(1e14,)).values["witness_ratio_n=1e+14"] > 0


def test_criterion_7_constants():
    cs = chain_constants(1.0, 0.5, 1.0, 1.0)
    ok_chain = (cs.ring_M == 4.0 and cs.alpha_ring == 3.0 and cs.beta == 12.0
                and cs.t0 == 1.0 / 5184.0)
    ok_k0 = abs(cs.k0 - 2.70951) <= 1e-5
    ok_theta = theta_ring(1.0 / 31104.0, 1.0, 1.0, 4.0, 3.0, 12.0) == 32.0
    theta = relative_control_from_semisolid(lambda t: t, 1.0)
    thetaM = theta(2.0 / 3.0)
    H = chain_count_bound(1.0) * thetaM ** chain_count_bound(1.0)
    r1, r2 = eta_prime_knot_residuals(1.0, thetaM, H, theta)
    knot = 1.0 / 3.0
    t0_resid = abs(3 * 1 * (3 + 1) / (3 - 1) * knot - (1 + knot) / (1 - knot)) / 2.0
    ok_knots = r1 <= 1e-12 and r2 <= 1e-12 and t0_resid <= 1e-12
    _report("criterion 7 (constant pipelines)",
            ok_chain and ok_k0 and ok_theta and ok_knots,
            f"chain=(M={cs.ring_M}, alpha={cs.alpha_ring}, beta={cs.beta}, "
            f"t0=1/{round(1 / cs.t0)}), k0={cs.k0:.6f}, theta(1/31104)=32 exact, "
            f"knot residuals=({r1:.1e}, {r2:.1e}, {t0_resid:.1e})")


def test_criterion_8_repro_determinism():
    mismatches = []
    for name in sorted(SUITES):
        a = run_suite(name)
        b = run_suite(name)
        bytes_a = canonical_json(a.report()).encode() + repr(a.rows).encode()
        bytes_b = canonical_json(b.report()).encode() + repr(b.rows).encode()
        if bytes_a != bytes_b:
            mismatches.append(name)
    _report("criterion 8 (byte-identical repro reports)", not mismatches,
            f"all {len(SUITES)} suites byte-identical"
            if not mismatches else f"mismatches: {mismatches}")


def test_criterion_9_identity_estimators(halfplane, hp_mesh_01):
    ident = IdentityMap(halfplane)
    spec = SampleSpec(seed=5, count=40)
    qc = estimate_qc(ident, spec).estimate
    wqs = estimate_weak_qs(ident, spec).estimate
    lwqs = estimate_local_weak_qs(ident, spec).estimate
    backend = MeshBackend(hp_mesh_01)
    slope = estimate_semisolid(ident, backend, backend, spec).meta["slope"]
    ok = qc == 1.0 and wqs == 1.0 and lwqs == 1.0 and slope == 1.0
    _report("criterion 9 (identity estimator sanity, all exact)", ok,
            f"H_qc={qc!r}, H_wqs={wqs!r}, H_lwqs={lwqs!r}, slope={slope!r}")
