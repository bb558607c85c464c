import hashlib
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qhkit import (
    AffineMap,
    AnalyticBackend,
    ConfigurationError,
    HalfPlaneShearMap,
    IdentityMap,
    InversionMap,
    MembershipError,
    MeshBackend,
    QhkitError,
    ResolutionError,
    SampleSpec,
    compose,
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
from qhkit.reports import canonical_json
from qhkit.scenarios import frame_region_omega, make_map, make_region
from qhkit.spaces import HalfPlaneRegion

import estimator_reference as ref

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
    with pytest.raises(ConfigurationError, match="bins"):
        estimate_relative(IdentityMap(halfplane), spec(), 0.5, bins=0)


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


def test_qc_counts_only_base_points_that_offer_a_ratio():
    # On frame-omega some base points have no admissible radius and add no ratio.
    report = estimate_qc(IdentityMap(frame_region_omega()),
                         SampleSpec(seed=3, count=20, radius_schedule=(0.5, 0.3)))
    assert report.samples_used == len({(x, y) for x, y, _, _ in report.table}) < 20


def test_semisolid_report_records_backends(hp_mesh_01, halfplane):
    backend = MeshBackend(hp_mesh_01)
    report = estimate_semisolid(IdentityMap(halfplane), backend, backend,
                                spec(count=20))
    assert report.meta["k_src"]["kind"] == "mesh"
    assert report.meta["k_src"]["grading"] == hp_mesh_01.grading


class _Collapse(IdentityMap):
    """Sends every point to i, inside the image region, so no triple has a
    nonzero denominator."""

    def _forward_many(self, x, y):
        return np.zeros_like(x), np.ones_like(y)


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


# ---------------------------------------------------------------------------
# golden reports: every estimator on the built-in maps at two seeds
# ---------------------------------------------------------------------------

_GOLDEN_MAPS = {
    "identity": lambda: IdentityMap(make_region("halfplane")),
    "affine": lambda: make_map("affine", "halfplane", matrix=((2.0, 0.5), (0.0, 1.0))),
    "inversion": InversionMap,
    "shear": HalfPlaneShearMap,
    "identity-omega": lambda: IdentityMap(frame_region_omega()),
}
_GOLDEN_ESTIMATORS = {
    "qc": estimate_qc,
    "weak_qs": estimate_weak_qs,
    "weak_qs-extra": lambda f, s: estimate_weak_qs(
        f, s, extra_triples=[((0.0, 1.0), (0.1, 1.0), (0.0, 1.2)),
                             ((0.5, 0.5), (0.5, 0.5), (0.5, 0.5))]),
    "local_weak_qs": lambda f, s: estimate_local_weak_qs(f, s, collect_triples=True),
    "relative": lambda f, s: estimate_relative(f, s, 0.5),
    "ring": lambda f, s: estimate_ring(f, s, 3.0, 12.0),
}


def _digest(report) -> str:
    return hashlib.sha256(canonical_json(report.to_dict()).encode()).hexdigest()


def _golden_outcome(case: str, hp_mesh) -> str:
    """sha256 of the canonical report JSON, or the error line it raises."""
    name, kind, seed = case.split("/")
    s = SampleSpec(seed=int(seed), count=20)
    try:
        if kind == "inversion-analytic":
            pp = AnalyticBackend(make_region("punctured"))
            report = estimate_semisolid(InversionMap(), pp, pp, s)
        elif kind == "shear-mesh":
            report = estimate_semisolid(
                HalfPlaneShearMap(), MeshBackend(hp_mesh, sample_window=(-1.0, 1.0, 0.25, 1.8)),
                MeshBackend(hp_mesh), s)
        else:
            report = _GOLDEN_ESTIMATORS[name](_GOLDEN_MAPS[kind](), s)
    except QhkitError as exc:
        return f"{type(exc).__name__}: {exc}"
    return _digest(report)


# Recorded from the per-estimator best/used bookkeeping that _Envelope replaced.
# semisolid/shear-mesh/3 and /7 were re-pinned when anchor weights took the
# mesh's np.abs segment length (values moved by at most 2.1e-16 relative).
# qc/identity-omega/3 and /7 were re-pinned when samples_used came to count
# only the base points that offer a ratio (20 -> 18 and 20 -> 19).
GOLDEN_REPORTS = {
    "local_weak_qs/affine/3":
        "f88acab126e6be8994b44a97067b5db2cb3d175de7ac1dff1896ac37e0abacd3",
    "local_weak_qs/affine/7":
        "32a7f22b149619c0b5a14b5789679481d677d4e343900339b2c924903d4e153a",
    "local_weak_qs/identity-omega/3":
        "87b9f50606dc90e33450bd1e007c29708992124f6aefff778da4b8736458e1e9",
    "local_weak_qs/identity-omega/7":
        "05861a84778451a4578db84306ca6a71304d23db96fb3de16c215e1079d30f76",
    "local_weak_qs/identity/3":
        "aa13b48bc9bdd4c27db88ace4b8e9053aec74aa31ebed343186c05df514deffa",
    "local_weak_qs/identity/7":
        "9f3a31991ba4a2040f63356a2ca06d2ea30fb948efed0ccc765cb6f457060bcd",
    "local_weak_qs/inversion/3":
        "d3c6a505cea610129237f1102a65b6781d395d601628f7142be4ee3336b5bf34",
    "local_weak_qs/inversion/7":
        "4fdb0992b66fc7160f50c815804e411fae8355b0b21cecaac066f191edea01e1",
    "local_weak_qs/shear/3":
        "83f547daf38da1336628d0a21001f9eb13fe65aa59f5b778642f3422ebba0bc6",
    "local_weak_qs/shear/7":
        "32a605c1bd7f09ba5748d41297118654c4afd121412a68fec05fcbe28153a7b0",
    "qc/affine/3":
        "cc99914d550ad1d353ff7c08b09aadf7d2c4e622d28d673ceabac9cd6eb975e6",
    "qc/affine/7":
        "5d7d8967dcff7d6e27ce06d90b6e50fca2a6d9fc096dbdccf1f343f5545d62ae",
    "qc/identity-omega/3":
        "1c19aa1b6d8de04d60f4d9d6ffc29feae6f5cea3d600615526711a26de0ebf8d",
    "qc/identity-omega/7":
        "df024e1b70de88cb193b5180bee16e824c5ae7f4095fb88f57cca622fbdc0915",
    "qc/identity/3":
        "560dbd7cf8083ff316dda8415279a65a2865ccf0ff0b963dea676d5f9fdb63c7",
    "qc/identity/7":
        "7cc9c279ab56b8300ee98c8bf7abaf459419d51d2a557011611c917cba7f1966",
    "qc/inversion/3":
        "dcfe990c03d4e257b41ab3a154515202936b80b7d256ad14a3545da09de9e286",
    "qc/inversion/7":
        "52c3e33c92f4be928b5364662a3ed57e4636870c0404dc6ea4efd8433d736a5c",
    "qc/shear/3":
        "47c6f990976a6535365e7489fcb27c6c17a73c8f369243d5d121d424eafb48a5",
    "qc/shear/7":
        "818f0fb09a8e49f67c1fe4ad579abe1d5f0e01c49344704674d4108ee99d3313",
    "relative/affine/3":
        "f6bd6ec8dc92b73474b8b7c9b016f8d6537e22476672151217ffc934bee58ea5",
    "relative/affine/7":
        "f543d293cabf1bdf99490da9d5ccd3a2964d9174c6785f8a42c61ab87903f040",
    "relative/identity-omega/3":
        "ConfigurationError: no admissible near pair was sampled",
    "relative/identity-omega/7":
        "ConfigurationError: no admissible near pair was sampled",
    "relative/identity/3":
        "460785cc6e60ec95a89c8c5b70824f7ec12833637fafc54e03f042e6998a7a1a",
    "relative/identity/7":
        "d9eccb5554e5d659e7ec7a67c0576209032008e0d6598e2597c2c86842f96c7a",
    "relative/inversion/3":
        "4df159e90f8bfd3c1e4aeaf6f19eeb16a6e8e7dde12b9b3b72343371d14d139b",
    "relative/inversion/7":
        "e782abae6a164d20b1f06529cb833d44537ca34fcfefa893f21cd11000390e89",
    "relative/shear/3":
        "316544b78b6b8c218829243854ead2bd74066c668725f7c77875964fc7db6742",
    "relative/shear/7":
        "f1c1d0e64ae8aa242c79998fd4c19a1223e29ad1e8e223378eabcc43f1447406",
    "ring/affine/3":
        "41ad13032bc5a6fb0870c090f5bdf4644df02a449a5974f5e30b9d41c0138a33",
    "ring/affine/7":
        "a6dd002bd2de3b18456466e90f5fdade4b5921c85cb5102cd2d52263bc5092a0",
    "ring/identity-omega/3":
        "ConfigurationError: no admissible ball was sampled",
    "ring/identity-omega/7":
        "ConfigurationError: no admissible ball was sampled",
    "ring/identity/3":
        "69963a6abdcf7de90290ad5334944c6c55b5d3710fd5bdf1c9289952b142dda0",
    "ring/identity/7":
        "524089adb1f74ba6f9f71851f77b9559632ca26320542221fa9a47c24c8b68f7",
    "ring/inversion/3":
        "ba2c50090a27eaf6e64ce4d8af211981128b2833c94947c114448fa087ca2501",
    "ring/inversion/7":
        "423b5a9a9d19f20af411277107ab2ca689b08ac18f551047267ebc7106f22e81",
    "ring/shear/3":
        "844df22bc0cef9cb13974c3e3ee3b1be2863dbc6999c822326c18c2d77de627a",
    "ring/shear/7":
        "a8767e0528789600641b77721de7f0577c1729842c4c0e80fc2d46947c7c734c",
    "semisolid/inversion-analytic/3":
        "c63b9049db653c2f857c321facb30bbe5c0118a9ca9497cca7bd71285b037c7f",
    "semisolid/inversion-analytic/7":
        "7eda7f3831fface9a1a044280094480bd27970d2f8e49afddf24673869e7bba7",
    "semisolid/shear-mesh/3":
        "e37bff51e63b0b3b8359a325b70c5a68976ce9a424c9559ec00aa338fba6e1f4",
    "semisolid/shear-mesh/7":
        "730f1a46e6080bd1ca39de97feadcc55510614f6c8bb595c0f5e4bb847491a72",
    "weak_qs-extra/identity/3":
        "c0583167d61fac318577276a140d0f75e5b5a34e2e2604f334c2c11a450dbb7b",
    "weak_qs-extra/shear/3":
        "192a5e4d87364adda883f5421b83cf21aa523231f4ade99436a5f64875984b9a",
    "weak_qs/affine/3":
        "a112f34a71817094eb1af14286efa2ee0948af9a6a10c99c16424787ddb0b3e9",
    "weak_qs/affine/7":
        "131cb76a7078f4dfd70f0ae1295f436c6fd1a3ded0b5c96e41fab77f356bbb59",
    "weak_qs/identity-omega/3":
        "3d964e77709e15c48cd1b028b499eeb8546f1e45722577f4455c18a97f0e3480",
    "weak_qs/identity-omega/7":
        "5139b4e441322e402dee0b55d9fec53230ac99e3584851c9386ba989a429dd10",
    "weak_qs/identity/3":
        "fdfa36fc3f0e2d0750df46896e39a5a1d9d5246616f939ab7d14df1615acf878",
    "weak_qs/identity/7":
        "06f6dc304cb34f143f93a98d4fee8017a8fc5e4909bd8717a54d3a22968a5f67",
    "weak_qs/inversion/3":
        "e40339385e927911d956f7104e436f945906a3b7a2e4fca21304ac2bd98f30f4",
    "weak_qs/inversion/7":
        "ee65f2a72efc31c89a40320ff71dec3b8466c03c2824e05a1107526cbddc96df",
    "weak_qs/shear/3":
        "78a6adb060849d501f30918ff51f13817b5ac4a2fe93c27d57b6c9380c614065",
    "weak_qs/shear/7":
        "348b8ef8d51577d678affe6ff929e322ef6791f87b7694b35f8e35738f3c92ef",
}


@pytest.mark.parametrize("case", sorted(GOLDEN_REPORTS))
def test_reports_match_golden_digests(case, hp_mesh_01):
    assert _golden_outcome(case, hp_mesh_01) == GOLDEN_REPORTS[case]


# ---------------------------------------------------------------------------
# the array kernels of estimate_qc and estimate_ring
# ---------------------------------------------------------------------------

_BATTERY_AFFINE = ((1.0, 0.25), (0.0, 1.25))
_BATTERY_MAPS = {
    "shear": HalfPlaneShearMap,
    "inversion": InversionMap,
    "affine": lambda: make_map("affine", "halfplane", matrix=_BATTERY_AFFINE),
    "shear-after-affine": lambda: compose(
        HalfPlaneShearMap(), make_map("affine", "halfplane", matrix=_BATTERY_AFFINE)),
}
_ARRAY_ESTIMATORS = {
    "qc": estimate_qc,
    "ring": lambda f, s: estimate_ring(f, s, 2.0, 3.0),
}


# Recorded with the scalar estimate_qc and estimate_ring (one f.eval per
# probe), before the array kernels replaced them: the paper-repro battery at
# its count of 200, ring at alpha = 2 and beta = 3.
BATTERY_REPORTS = {
    "qc/shear/1": "4882d1eef3496d836485b16a74f1176b8dfd2b6b433c5918b48809bf053eb0ee",
    "qc/shear/7": "a80ab3dfc8c3701606140f25159f3bd0f584e7635e95ca706915b52d2d8ee4c6",
    "qc/inversion/1": "7f45e1b36574d4e74beefe08fcc24f653ba1eca85b32a3d51f563dcd69a09c79",
    "qc/inversion/7": "eb68f3ef8dc023c59b2b9d535ea55e2b173009dd820979c369536ebd7127906b",
    "qc/affine/1": "05d0fac2b7b61421093689588757820d70b5a62e39ea750721ccea57123bd2db",
    "qc/affine/7": "0aa534a5673a34eb176fb56d090edb5778f1daa4f902a896d59ccf526e8a4135",
    "qc/shear-after-affine/1":
        "85be76369ddf926de3d956db1c279d7d775ccd0db4622b8c774245c2a7877367",
    "qc/shear-after-affine/7":
        "95d759e64f6cddbc928448adb13738834f2fcbc542e6e3eea37eb9ae6f00b1b1",
    "ring/shear/1": "642cc1aaa9742d5cfca926eab36e63f68ee32ee93fd4ed3e58a7461f930ee267",
    "ring/shear/7": "d675ada50fa36d833a35e1543c9686e17c0feece23be8c34507e469d95c661df",
    "ring/inversion/1": "deb1a869d447d93ad2d40f0c88d688378781e96fdfaa7fec9b2d93ab93700fd3",
    "ring/inversion/7": "c2b0d71751c9581630fc982d81d1bb6afc066fb704a8adb562dcb74c102d37b5",
    "ring/affine/1": "b4b9ef060d3a89d4eec98e568892f5a790a9905a8ef244972341defabe0f2fda",
    "ring/affine/7": "64ad110af7aa50033e243338ee2a5e10caeea8d237b0a167d397873d4467a341",
    "ring/shear-after-affine/1":
        "270afa3a02ab70ce9e8e839c7a34041acecce93b0a57ba5f1e1c8e7785a69a61",
    "ring/shear-after-affine/7":
        "ccc3e558f235d1a566e0013dfefc831b0a9f23c68d2052e0cdea7f7d4aa8c9a7",
}


# Recorded with the triple estimators that evaluated one triple (or pair) at
# a time through the scalar eval, before the array triple path replaced them:
# the paper-repro battery at its count of 200, semisolidity on analytic k_G.
BATTERY_REPORTS.update({
    "weak_qs/shear/1": "0bedec8cf7c8501246a7db0687c121e5e966badbb28932201f30c28234b13212",
    "weak_qs/shear/7": "f997b345aea73d8c02e426b3e339b203c6487470c5ff4c2db32507d2d401f0c6",
    "weak_qs/inversion/1": "c15dca63438d2d4cf80387d6a7b25730cadcacfe7dd8b98067d5873a87bf13fe",
    "weak_qs/inversion/7": "4479616f24d9c9a9e55c5c95ad7934163e9ee2fdecaf69bfca23c6ad5795b1a5",
    "weak_qs/affine/1": "1221012c267901ba33a35eee69caa4c77d0b527ee5e9e2f87d8a8052b4533a8d",
    "weak_qs/affine/7": "3ec8dab1f895592ff1d9d3f4cfa3f17f8d4b9d249a957ec95f30858a33b0bcb5",
    "weak_qs/shear-after-affine/1": "64497a91a6c4e3509e9f71904ef9b3ee6f9edd4a59764a8154792f950e780a16",
    "weak_qs/shear-after-affine/7": "03bc5e33cdbb14750624cc13740d0aedc2a0079ab145f7047ab9d53681071c68",
    "local_weak_qs/shear/1": "2f300253e3b16b41af6aa7f8e06c6e516370ddaedb49a12c8374b08d57508df3",
    "local_weak_qs/shear/7": "96adb006409cc507addc858cff8cf84592fe3bb4ee53e98073a1406070f33e7b",
    "local_weak_qs/inversion/1": "d49595f3475edc3ab9a7052ecbf3f61201289a89f370222d58de8060a0dc94b5",
    "local_weak_qs/inversion/7": "f29d155bec2a65c86e529d48c004c8c55e65a8c3ff1de2a9fa05f300d9831046",
    "local_weak_qs/affine/1": "f1d13ddb131a8d5ae095065318f7d910cea87c48e19e692eebbcb3abebc7a9de",
    "local_weak_qs/affine/7": "c62243be1a0343b30d14a271ef8158f5419abb3b0050ce41052c7c1a75cbfc5c",
    "local_weak_qs/shear-after-affine/1": "683da0203ab1e5eb4b51eb81d0229001a32d9c292857ff19d50f6cb0917a8f98",
    "local_weak_qs/shear-after-affine/7": "ef8b7fdc76ffa0fd48da1c0465109f0fe0b17e93234d9b2a5c8462a1973a17e7",
    "relative/shear/1": "4d6db6f6c7b70870146007eff8ca40e0ed151358ce212f55dd3128adce391337",
    "relative/shear/7": "9ea4905750ff141b0afa55ad965efeb3c38d9df8bf0638b8c6034c851c467561",
    "relative/inversion/1": "9199d3844348f825ab0eb8dd11b22ddde818967246c848e0e46d47a2a23eda43",
    "relative/inversion/7": "5faeafb0e911e9985bb1c8c1cccb265d08bf9fd5405f697d75261241c92bea24",
    "relative/affine/1": "c8918a4f4a54d3aa2f967c6dee64b8be2689f22946bd3b13d84179b51705f940",
    "relative/affine/7": "5d47d2fa54014c5ad577c2add179d7edc2e1980ad8d435b44f6ca0a598c83974",
    "relative/shear-after-affine/1": "09837c3e4d888d8cd17d8f727a845fa8d65ecfa1894bf0e429a4b3846adaba2d",
    "relative/shear-after-affine/7": "be005213c255faeb07a63cf810e6007df1d0881df8a072239043561799247a6f",
    "semisolid/shear/1": "61ed589c0a2bbd2deb99407451ed22642037b53d595ccd3761ebc710fcf28e1e",
    "semisolid/shear/7": "9be9ac622f57f65cc51af3caa94d55595c7b5e241d3210f5ec37147fd7bdc68c",
    "semisolid/inversion/1": "7b6a8414fab8bc6311d4994de21a62577cb94aaa0e3db69ae3892f5ce0ad7110",
    "semisolid/inversion/7": "a631d6443ef1cc2d5d01ce7ee9fba95b8616eb7d0b9de3e74641e9e6e501fabc",
    "semisolid/affine/1": "7ad977dcef1853f63498baa231c3056e7f33e467af88677e462cb42d96a8985c",
    "semisolid/affine/7": "e8aba18f990de4792d98ab1e3b95329688208a7d469beb802305a5f5be05345a",
    "semisolid/shear-after-affine/1": "4c0e1bf72bbc71cb0e20e0ce3dae9d24a247b46eeeae331145c3ebd56253241e",
    "semisolid/shear-after-affine/7": "f6d55ff03fac148424ab0a67695364bd0454ea7efdc52b5d589ceafc6d5384bd",
})


def _analytic_semisolid(f, s):
    k = AnalyticBackend(f.source_region)
    return estimate_semisolid(f, k, k, s)


_TRIPLE_ESTIMATORS = {
    "weak_qs": estimate_weak_qs,
    "local_weak_qs": estimate_local_weak_qs,
    "relative": lambda f, s: estimate_relative(f, s, 0.5),
    "semisolid": _analytic_semisolid,
}


@pytest.mark.parametrize("case", sorted(BATTERY_REPORTS))
def test_battery_reports_match_the_scalar_digests(case):
    name, kind, seed = case.split("/")
    estimate = {**_ARRAY_ESTIMATORS, **_TRIPLE_ESTIMATORS}[name]
    report = estimate(_BATTERY_MAPS[kind](), SampleSpec(seed=int(seed), count=200))
    assert _digest(report) == BATTERY_REPORTS[case]


_PARITY_MAPS = {**_GOLDEN_MAPS, "battery-affine": _BATTERY_MAPS["affine"],
                "shear-after-affine": _BATTERY_MAPS["shear-after-affine"]}


@pytest.mark.parametrize("kind", sorted(_PARITY_MAPS.keys() - {"identity-omega"}))
@pytest.mark.parametrize("name", sorted(_ARRAY_ESTIMATORS))
def test_replay_returns_the_qc_and_ring_estimates_exactly(name, kind):
    f = _PARITY_MAPS[kind]()
    for seed in (1, 7):
        report = _ARRAY_ESTIMATORS[name](f, SampleSpec(seed=seed, count=200))
        assert replay_witness(f, report) == report.estimate


def _outcome(estimate, f, s, *args) -> str:
    """The canonical report JSON, or the error line it raises."""
    try:
        return canonical_json(estimate(f, s, *args).to_dict())
    except QhkitError as exc:
        return f"{type(exc).__name__}: {exc}"


_parity_maps = st.sampled_from(sorted(_PARITY_MAPS))
_specs = st.builds(
    lambda seed, count, radii: SampleSpec(seed=seed, count=count,
                                          radius_schedule=tuple(sorted(radii, reverse=True))),
    st.integers(0, 2**32 - 1), st.integers(1, 300),
    st.lists(st.floats(1e-3, 3.0), min_size=1, max_size=5, unique=True))


@settings(max_examples=40, deadline=None, derandomize=True)
@given(_parity_maps, _specs)
def test_array_qc_equals_the_scalar_reference(kind, s):
    f = _PARITY_MAPS[kind]()
    assert _outcome(estimate_qc, f, s) == _outcome(ref.estimate_qc, f, s)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(_parity_maps, _specs, st.floats(1.0, 4.0, exclude_min=True), st.floats(1.0, 4.0),
       st.integers(1, 24))
def test_array_ring_equals_the_scalar_reference(kind, s, alpha, stretch, probes):
    f = _PARITY_MAPS[kind]()
    beta = alpha * stretch
    assert _outcome(estimate_ring, f, s, alpha, beta, probes) == \
        _outcome(ref.estimate_ring, f, s, alpha, beta, probes)


# The triple estimators against their scalar references: the parity maps,
# the degenerate affine maps of the command-line tests (images past the float
# range, rounded onto the boundary, reflected out of it, or with vertical
# differences that round away), and a half-plane whose sampling window dips
# below the axis, so that samples leave the region.
def _affine(matrix, offset=0j):
    return lambda: make_map("affine", "halfplane", matrix=matrix, offset=offset)


_TRIPLE_MAPS = {
    **_PARITY_MAPS,
    "affine-huge": _affine(((1e308, 0.0), (0.0, 1e308))),
    "affine-subnormal": _affine(((1.0, 0.0), (0.0, 1e-323))),
    "affine-reflect": _affine(((1.0, 0.0), (0.0, -1.0))),
    "affine-flat": _affine(((1.0, 0.0), (0.0, 1e-17)), 1j),
    "identity-low-window": lambda: IdentityMap(HalfPlaneRegion((-1.0, 1.0, -0.05, 1.0))),
}
_triple_maps = st.sampled_from(sorted(_TRIPLE_MAPS))
_triple_specs = st.builds(lambda seed, count, q: SampleSpec(seed=seed, count=count, locality_q=q),
                          st.integers(0, 2**32 - 1), st.integers(1, 120),
                          st.floats(0.05, 0.95))
# Valid and invalid family parameters: t <= 1 is a ConfigurationError, and
# nan or inf puts a witness point outside the region.
_family = st.lists(st.sampled_from([2.0, 10.0, 100.0, 1.0, 0.5, -5.0, math.nan, math.inf, 1e308]),
                   max_size=4)
_extra_point = st.sampled_from([(0.0, 1.0), (0.1, 1.0), (0.0, 1.2), (0.5, 0.5), (0.5, -0.5),
                                (1.0, 0.0), (3.0, 4.0), (-2.0, 1e-300), (1e308, 1e308)])


@settings(max_examples=40, deadline=None, derandomize=True)
@given(_triple_maps, _triple_specs, _family,
       st.lists(st.tuples(_extra_point, _extra_point, _extra_point), max_size=3))
def test_weak_qs_equals_the_scalar_reference(kind, s, ts, extra):
    f = _TRIPLE_MAPS[kind]()
    assert _outcome(estimate_weak_qs, f, s, ts, extra) == \
        _outcome(ref.estimate_weak_qs, f, s, ts, extra)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(_triple_maps, _triple_specs, _family)
def test_local_weak_qs_equals_the_scalar_reference(kind, s, ns):
    f = _TRIPLE_MAPS[kind]()
    assert _outcome(estimate_local_weak_qs, f, s, ns, True) == \
        _outcome(ref.estimate_local_weak_qs, f, s, ns, True)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(_triple_maps, _triple_specs, st.floats(0.0, 1.0, exclude_min=True), st.integers(1, 24))
def test_relative_equals_the_scalar_reference(kind, s, t0, bins):
    f = _TRIPLE_MAPS[kind]()
    assert _outcome(estimate_relative, f, s, t0, bins) == \
        _outcome(ref.estimate_relative, f, s, t0, bins)


@settings(max_examples=30, deadline=None, derandomize=True)
@given(_triple_maps.filter(lambda kind: kind != "identity-omega"), _triple_specs,
       st.booleans())
def test_semisolid_equals_the_scalar_reference(hp_mesh_01, kind, s, on_mesh):
    f = _TRIPLE_MAPS[kind]()
    if on_mesh and f.source_region == HalfPlaneRegion():
        k_src, k_img = MeshBackend(hp_mesh_01, sample_window=(-1.0, 1.0, 0.25, 1.8)), \
            MeshBackend(hp_mesh_01)
    else:
        k_src = k_img = AnalyticBackend(make_region(f.source_region.name))
    assert _outcome(estimate_semisolid, f, k_src, k_img, s) == \
        _outcome(ref.estimate_semisolid, f, k_src, k_img, s)


def test_the_first_failing_triple_raises_as_in_the_scalar_loop():
    # The first samples' images are fine; the sample that fails first under
    # the scalar loop is not the first point of any one array of the pass.
    f = _TRIPLE_MAPS["affine-subnormal"]()
    with pytest.raises(MembershipError) as exc:
        estimate_weak_qs(f, SampleSpec(seed=1, count=50))
    assert str(exc.value) == ("f((-0.09106484992353207+0.20492469666543106j)) = "
                              "(-0.09106484992353207+0j) is outside the image region of affine")
    # An invalid family parameter comes after a witness point that fails.
    with pytest.raises(MembershipError, match="outside the source region of inversion"):
        estimate_weak_qs(InversionMap(), spec(count=5), witness_ts=(math.inf, 0.5))
    # Reflected images fail at every triple; the draw loop of the local
    # estimator raises at a centre below the axis (its delta_G), and the
    # relativity pass at a base point below it.  Which comes first depends
    # on the seed.
    low = HalfPlaneRegion((-1.0, 1.0, -0.5, 1.0))
    f = AffineMap(((1.0, 0.0), (0.0, -1.0)), 0j, low, HalfPlaneRegion())
    seen = set()
    for seed in range(12):
        for new, old in ((estimate_local_weak_qs, ref.estimate_local_weak_qs),
                         (lambda f, s: estimate_relative(f, s, 0.5),
                          lambda f, s: ref.estimate_relative(f, s, 0.5))):
            line = _outcome(new, f, spec(count=50, seed=seed))
            assert line == _outcome(old, f, spec(count=50, seed=seed))
            seen.add("not in region" in line)
    assert seen == {True, False}


def test_undefined_qc_distortion_is_a_resolution_error():
    # Every vertical probe's image difference rounds away next to the offset.
    f = make_map("affine", "halfplane", matrix=((1.0, 0.0), (0.0, 1e-17)), offset=1j)
    with pytest.raises(ResolutionError, match=r"directional distortion 1\.0 / 0\.0 is undefined"):
        estimate_qc(f, spec(count=5))


def test_overflowing_moduli_are_inf_and_a_nan_ratio_is_a_resolution_error():
    f = make_map("affine", "halfplane", matrix=((8e307, 0.0), (0.0, 1.0)))
    env = estimators._Envelope()

    def triple(x, a, b):
        return env.triples(f, *(np.array([p]) for p in (x, a, b)))[0]

    # The nearer leg's image distance overflows, the farther one's does not.
    assert triple(1.5 + 1j, -1.5 + 1j, 1.5 + 5j) == math.inf
    with pytest.raises(ResolutionError, match="ratio is nan at"):
        triple(1.5 + 1j, -1.5 + 1j, -1.4 + 1j)
