import json
import math

import pytest

from qhkit import (
    AffineMap,
    AnalyticBackend,
    ConfigurationError,
    HalfPlaneShearMap,
    IdentityMap,
    InversionMap,
    MeshBackend,
    ResolutionError,
    SampleSpec,
    estimate_local_weak_qs,
    estimate_qc,
    estimate_relative,
    estimate_ring,
    estimate_semisolid,
    estimate_weak_qs,
    estimators,
    replay_witness,
    theta0_relative,
)
from qhkit.spaces import HalfPlaneRegion

SQRT3 = math.sqrt(3.0)


def spec(count=60, seed=5, q=0.5):
    return SampleSpec(seed=seed, count=count, locality_q=q)


# ---------------------------------------------------------------------------
# identity sanity: everything equals 1 exactly
# ---------------------------------------------------------------------------

def test_identity_qc_exact(halfplane):
    report = estimate_qc(IdentityMap(halfplane), spec())
    assert report.estimate == 1.0
    assert all(row[3] == 1.0 for row in report.table)


def test_identity_weak_qs_exact(halfplane):
    report = estimate_weak_qs(IdentityMap(halfplane), spec())
    assert report.estimate == 1.0


def test_identity_local_weak_qs_exact(halfplane):
    for q in (0.3, 0.5, 0.8):
        report = estimate_local_weak_qs(IdentityMap(halfplane), spec(q=q))
        assert report.estimate == 1.0


def test_identity_semisolid_slope_exact_on_shared_mesh(hp_mesh_01, halfplane):
    backend = MeshBackend(hp_mesh_01)
    report = estimate_semisolid(IdentityMap(halfplane), backend, backend, spec(count=40))
    assert report.meta["slope"] == 1.0


def test_identity_ring_is_one(halfplane):
    report = estimate_ring(IdentityMap(halfplane), spec(count=30), 3.0, 12.0)
    assert abs(report.estimate - 1.0) <= 1e-12


# ---------------------------------------------------------------------------
# anisotropic affine map: coefficient 2 along the axes
# ---------------------------------------------------------------------------

def _double_x(halfplane):
    return AffineMap(((2, 0), (0, 1)), 0j, halfplane, HalfPlaneRegion())


def test_affine_qc_two(halfplane):
    report = estimate_qc(_double_x(halfplane), spec())
    assert report.estimate == pytest.approx(2.0, abs=1e-12)


def test_affine_weak_qs_two(halfplane):
    report = estimate_weak_qs(_double_x(halfplane), spec())
    assert report.estimate == pytest.approx(2.0, abs=1e-12)


def test_affine_local_weak_qs_two_any_q(halfplane):
    for q in (0.3, 0.6):
        report = estimate_local_weak_qs(_double_x(halfplane), spec(q=q))
        assert report.estimate == pytest.approx(2.0, abs=1e-12)


# ---------------------------------------------------------------------------
# inversion: conformal but not weakly quasisymmetric
# ---------------------------------------------------------------------------

def test_inversion_qc_tends_to_one():
    f = InversionMap()
    report = estimate_qc(f, SampleSpec(seed=5, count=40,
                                       radius_schedule=(0.1, 0.05, 0.025)))
    # Distortion shrinks with the radius at every base point.
    by_x = {}
    for (xr, xi, r, H) in report.table:
        by_x.setdefault((xr, xi), []).append((r, H))
    for rows in by_x.values():
        rows.sort()
        for (r1, H1), (r2, H2) in zip(rows, rows[1:]):
            assert H1 <= H2 * 1.10  # smaller radius, smaller distortion


def test_inversion_weak_qs_witness_family():
    report = estimate_weak_qs(InversionMap(), spec(count=10),
                              witness_ts=(2.0, 10.0, 100.0))
    assert report.estimate >= 100.0 * (1 - 1e-12)
    for t, ratio in report.table:
        assert ratio == pytest.approx(t, rel=1e-12)


def test_inversion_semisolid_slope_one(punctured):
    backend = AnalyticBackend(punctured)
    report = estimate_semisolid(InversionMap(), backend, backend, spec(count=100))
    assert report.meta["slope"] == pytest.approx(1.0, rel=0.03)
    assert report.meta["mu"] >= 1.0 - 1e-9


def test_inversion_ring_finite_and_seed_stable():
    f = InversionMap()
    r1 = estimate_ring(f, SampleSpec(seed=5, count=30), 3.0, 12.0)
    r2 = estimate_ring(f, SampleSpec(seed=6, count=30), 3.0, 12.0)
    assert math.isfinite(r1.estimate) and math.isfinite(r2.estimate)
    assert abs(math.log(r1.estimate / r2.estimate)) < 1.0
    again = estimate_ring(f, SampleSpec(seed=5, count=30), 3.0, 12.0)
    assert again.estimate == r1.estimate


# ---------------------------------------------------------------------------
# the shear: locally weakly QS fails with unbounded witnesses
# ---------------------------------------------------------------------------

def test_shear_local_witness_family():
    report = estimate_local_weak_qs(HalfPlaneShearMap(), spec(count=10),
                                    witness_ns=(1.0, 10.0, 100.0))
    coeff = 2.0 * math.sqrt(5.0) / 5.0
    for n, ratio in report.table:
        assert ratio == pytest.approx(coeff * (n + 1.0), rel=1e-12)
    assert report.estimate >= coeff * 101.0 * (1 - 1e-12)


# ---------------------------------------------------------------------------
# relativity estimator
# ---------------------------------------------------------------------------

def test_relative_identity_ratio_equals_t(halfplane):
    report = estimate_relative(IdentityMap(halfplane), spec(count=200), 0.5)
    assert report.witness["ratio"] == report.witness["t"]
    for t_hi, v in report.table:
        assert v <= t_hi + 1e-15


def test_relative_inversion_sharp_bound():
    # For pairs with |x-y| = t delta(x) the chain k <= -log(1-t) and the
    # isometry give ratio <= t/(1-t); that is the honest derived envelope.
    report = estimate_relative(InversionMap(), spec(count=500), 0.5)
    for t_hi, v in report.table:
        assert v <= t_hi / (1.0 - t_hi) + 1e-12


def test_relative_shear_below_composite_control():
    # theta = psi . phi . theta0 with phi(t) = sqrt(3) t bounds the envelope.
    report = estimate_relative(HalfPlaneShearMap(), spec(count=500), 0.5)
    for t_hi, v in report.table:
        assert v <= math.expm1(SQRT3 * theta0_relative(t_hi, 1.0)) + 1e-12


def test_relative_rejects_bad_window(halfplane):
    with pytest.raises(ConfigurationError):
        estimate_relative(IdentityMap(halfplane), spec(), 1.5)


# ---------------------------------------------------------------------------
# report mechanics: determinism, monotonicity, witnesses
# ---------------------------------------------------------------------------

def test_reports_bit_for_bit_deterministic(halfplane):
    f = _double_x(halfplane)
    a = estimate_weak_qs(f, spec(count=50, seed=21)).to_dict()
    b = estimate_weak_qs(f, spec(count=50, seed=21)).to_dict()
    assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)


def test_estimate_monotone_in_count(halfplane):
    f = HalfPlaneShearMap()
    small = estimate_weak_qs(f, spec(count=30, seed=13), witness_ts=())
    big = estimate_weak_qs(f, spec(count=90, seed=13), witness_ts=())
    assert big.estimate >= small.estimate


def test_local_weak_qs_below_weak_qs_on_shared_triples():
    # Feeding the local sample set to the global estimator realizes the
    # hierarchy: the local envelope cannot exceed the global one.
    f = InversionMap()
    local = estimate_local_weak_qs(f, spec(count=40, seed=9), witness_ns=(),
                                   collect_triples=True)
    triples = [tuple(complex(*p) for p in t) for t in local.meta["triples"]]
    global_ = estimate_weak_qs(f, spec(count=40, seed=9), witness_ts=(),
                               extra_triples=triples)
    assert local.estimate <= global_.estimate


def test_witness_replay_closed_form(halfplane, punctured):
    f = _double_x(halfplane)
    for report in (estimate_qc(f, spec(count=20)),
                   estimate_weak_qs(f, spec(count=20)),
                   estimate_local_weak_qs(f, spec(count=20))):
        assert replay_witness(f, report) == pytest.approx(report.estimate, rel=1e-12)
    rel = estimate_relative(f, spec(count=50), 0.5)
    assert replay_witness(f, rel) == pytest.approx(rel.estimate, rel=1e-12)
    ring = estimate_ring(f, spec(count=20), 3.0, 12.0)
    assert replay_witness(f, ring) == pytest.approx(ring.estimate, rel=1e-12)


def test_witness_replay_semisolid(punctured):
    backend = AnalyticBackend(punctured)
    f = InversionMap()
    report = estimate_semisolid(f, backend, backend, spec(count=30))
    assert replay_witness(f, report, backend, backend) == pytest.approx(
        report.meta["slope"], rel=1e-12)


def test_sample_spec_validation():
    with pytest.raises(ConfigurationError):
        SampleSpec(seed=1, count=0)
    with pytest.raises(ConfigurationError):
        SampleSpec(seed=1, count=10, locality_q=1.5)
    with pytest.raises(ConfigurationError):
        SampleSpec(seed=1, count=10, radius_schedule=(0.1, 0.2))


def test_ring_requires_valid_alpha_beta(halfplane):
    with pytest.raises(ConfigurationError):
        estimate_ring(IdentityMap(halfplane), spec(), 0.5, 2.0)


def test_qc_inadmissible_radii_are_skipped_and_logged(halfplane):
    # Radii at or above delta(x) are dropped, not evaluated.
    report = estimate_qc(IdentityMap(halfplane),
                         SampleSpec(seed=5, count=20, radius_schedule=(10.0, 0.05)))
    assert report.skipped >= 20
    assert report.estimate == 1.0


def test_semisolid_report_records_backends(hp_mesh_01, halfplane):
    backend = MeshBackend(hp_mesh_01)
    report = estimate_semisolid(IdentityMap(halfplane), backend, backend,
                                spec(count=20))
    assert report.meta["k_src"]["kind"] == "mesh"
    assert report.meta["k_src"]["grading"] == hp_mesh_01.grading


class _Collapse(IdentityMap):
    """Sends every point to 0, so no triple has a nonzero denominator."""

    def _forward(self, z: complex) -> complex:
        return 0j


def test_weak_qs_without_admissible_triple_is_a_typed_error(halfplane):
    with pytest.raises(ConfigurationError):
        estimate_weak_qs(_Collapse(halfplane), spec(count=5))


def test_local_weak_qs_skips_only_toolkit_errors_of_component_ball(monkeypatch, omega):
    def fail(exc):
        def component_ball(*args, **kwargs):
            raise exc
        return component_ball

    monkeypatch.setattr(estimators, "component_ball", fail(ResolutionError("too coarse")))
    with pytest.raises(ConfigurationError, match="no admissible local triple"):
        estimate_local_weak_qs(IdentityMap(omega), spec(count=5))
    monkeypatch.setattr(estimators, "component_ball", fail(ZeroDivisionError("bug")))
    with pytest.raises(ZeroDivisionError):
        estimate_local_weak_qs(IdentityMap(omega), spec(count=5))
