import math
import random
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qhkit import (
    AffineMap,
    CompositionError,
    HalfPlaneShearMap,
    IdentityMap,
    InversionMap,
    MembershipError,
    compose,
    eval_map,
    invert_map,
    pushforward_points,
    qh_distance_exact,
)
from qhkit.scenarios import frame_region_omega
from qhkit.spaces import HalfPlaneRegion, PuncturedPlaneRegion

import map_reference


# ---------------------------------------------------------------------------
# forward evaluation
# ---------------------------------------------------------------------------

def test_inversion_values():
    f = InversionMap()
    assert eval_map(f, 1 + 1j) == 0.5 + 0.5j
    assert eval_map(f, 2 + 0j) == 0.5 + 0j
    with pytest.raises(MembershipError):
        eval_map(f, 0j)


def test_shear_branch_values():
    f = HalfPlaneShearMap()
    assert eval_map(f, 1 + 0.5j) == 1 + 1j
    assert eval_map(f, 1 + 2j) == 1 + 3j
    assert eval_map(f, -1 + 3j) == -1 + 3j
    with pytest.raises(MembershipError):
        eval_map(f, 1 - 0.5j)


def test_identity_map():
    f = IdentityMap(HalfPlaneRegion())
    z = 0.25 + 0.75j
    assert eval_map(f, z) == z
    assert invert_map(f, z) == z


def test_shear_seam_continuity():
    f = HalfPlaneShearMap()
    for y in (0.25, 0.5, 1.0, 1.5, 3.0):
        left = f.eval(complex(0.0, y))
        right = complex(0.0, (0.0 + 1.0) * y) if y <= 1.0 else complex(0.0, 0.0 + y)
        assert left == right
    for x in (0.0, 0.5, 1.0, 2.0):
        low = complex(x, (x + 1.0) * 1.0)
        high = complex(x, x + 1.0)
        assert low == high


def test_shear_maps_halfplane_onto_itself():
    f = HalfPlaneShearMap()
    rng = random.Random(6)
    for _ in range(200):
        z = complex(rng.uniform(-4, 4), rng.uniform(1e-3, 4))
        w = eval_map(f, z)
        assert w.imag > 0
        assert abs(invert_map(f, w) - z) <= 1e-12


# ---------------------------------------------------------------------------
# inversion round trips
# ---------------------------------------------------------------------------

def test_inversion_is_involution():
    f = InversionMap()
    assert invert_map(f, 0.5 + 0.5j) == 1 + 1j


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.floats(0.05, 20), st.floats(0, 2 * math.pi))
def test_inversion_round_trip(r, th):
    f = InversionMap()
    z = r * complex(math.cos(th), math.sin(th))
    assert abs(invert_map(f, eval_map(f, z)) - z) <= 1e-12 * max(1.0, abs(z))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.floats(-5, 5), st.floats(1e-3, 5))
def test_shear_round_trip(x, y):
    f = HalfPlaneShearMap()
    z = complex(x, y)
    assert abs(invert_map(f, eval_map(f, z)) - z) <= 1e-12 * max(1.0, abs(z))


def test_affine_round_trip():
    hp = HalfPlaneRegion()
    f = AffineMap(((2, 1), (0, 1)), 0.5j, hp, hp)
    rng = random.Random(4)
    for _ in range(300):
        z = complex(rng.uniform(-3, 3), rng.uniform(0.01, 3))
        assert abs(invert_map(f, eval_map(f, z)) - z) <= 1e-12 * max(1.0, abs(z))


# ---------------------------------------------------------------------------
# composition
# ---------------------------------------------------------------------------

def test_inversion_composed_with_itself_is_identity():
    f = InversionMap()
    ff = compose(f, f)
    rng = random.Random(1)
    region = PuncturedPlaneRegion()
    for _ in range(100):
        z = region.sample_point(rng)
        assert abs(eval_map(ff, z) - z) <= 1e-12 * max(1.0, abs(z))


def test_identity_after_shear_is_shear():
    shear = HalfPlaneShearMap()
    comp = compose(IdentityMap(HalfPlaneRegion()), shear)
    rng = random.Random(2)
    for _ in range(100):
        z = complex(rng.uniform(-2, 2), rng.uniform(0.01, 3))
        assert eval_map(comp, z) == eval_map(shear, z)


def test_shear_after_translation_round_trip():
    hp = HalfPlaneRegion()
    shift = AffineMap(((1, 0), (0, 1)), 1 + 0j, hp, hp)
    comp = compose(HalfPlaneShearMap(), shift)
    rng = random.Random(3)
    for _ in range(100):
        z = complex(rng.uniform(-2, 2), rng.uniform(0.01, 2))
        w = eval_map(comp, z)
        assert abs(invert_map(comp, w) - z) <= 1e-12 * max(1.0, abs(z))


def test_composite_rejects_an_inner_image_outside_its_image_region():
    # The shift sends 1 to the puncture, where the inversion is undefined.
    pp = PuncturedPlaneRegion()
    f = compose(InversionMap(), AffineMap(((1, 0), (0, 1)), -1 + 0j, pp, pp))
    inner = "at map 1 of 2, f((1+0j)) = 0j is outside the image region of affine"
    with pytest.raises(MembershipError, match=re.escape(f"(1+0j) is outside the domain of "
                                                        f"composition: {inner}")):
        eval_map(f, 1 + 0j)
    with pytest.raises(MembershipError, match=re.escape(f"point at index 1: (1+0j) is outside "
                                                        f"the domain of composition: {inner}")):
        pushforward_points(f, [2 + 0j, 1 + 0j])
    assert eval_map(f, 2 + 0j) == 1 + 0j


def test_composition_region_mismatch():
    with pytest.raises(CompositionError):
        compose(HalfPlaneShearMap(), InversionMap())


# ---------------------------------------------------------------------------
# bulk evaluation
# ---------------------------------------------------------------------------

def test_pushforward_points():
    f = InversionMap()
    assert pushforward_points(f, []) == []
    out = pushforward_points(f, [1 + 0j, 2 + 0j, 1 + 1j])
    assert out == [1 + 0j, 0.5 + 0j, 0.5 + 0.5j]


def test_pushforward_reports_failing_index():
    f = InversionMap()
    with pytest.raises(MembershipError, match="index 1"):
        pushforward_points(f, [1 + 0j, 0j, 2 + 0j])


# ---------------------------------------------------------------------------
# the inversion preserves the quasihyperbolic metric
# ---------------------------------------------------------------------------

def test_inversion_qh_isometry_via_oracle():
    # Equality holds to floating round-off; asserted at the closed-form
    # witness tolerance.
    f = InversionMap()
    region = PuncturedPlaneRegion()
    rng = random.Random(7)
    worst = 0.0
    for _ in range(100):
        x = region.sample_point(rng)
        y = region.sample_point(rng)
        if x == y:
            continue
        k = qh_distance_exact("punctured", x, y)
        k_img = qh_distance_exact("punctured", eval_map(f, x), eval_map(f, y))
        worst = max(worst, abs(k - k_img))
    assert worst <= 1e-12


# ---------------------------------------------------------------------------
# the array form: eval_many against eval, bit for bit
# ---------------------------------------------------------------------------

_HP, _PP = HalfPlaneRegion(), PuncturedPlaneRegion()
_ARRAY_MAPS = {
    "identity": lambda: IdentityMap(_HP),
    "identity-omega": lambda: IdentityMap(frame_region_omega()),
    "affine": lambda: AffineMap(((1.0, 0.25), (0.0, 1.25)), 0j, _HP, _HP),
    "affine-offset": lambda: AffineMap(((2.0, -0.5), (0.0, 1.0)), 0.3 + 0.5j, _HP, _HP),
    "affine-reflect": lambda: AffineMap(((1.0, 0.0), (0.0, -1.0)), 0j, _HP, _HP),
    "affine-punctured": lambda: AffineMap(((0.0, -1.0), (3.0, 0.5)), 0j, _PP, _PP),
    "inversion": InversionMap,
    "shear": HalfPlaneShearMap,
    "shear-after-affine": lambda: compose(
        HalfPlaneShearMap(), AffineMap(((1.0, 0.25), (0.0, 1.25)), 0j, _HP, _HP)),
    "shear-after-shift": lambda: compose(
        HalfPlaneShearMap(), AffineMap(((1.0, 0.0), (0.0, 1.0)), -1.0 + 0j, _HP, _HP)),
    "inversion-twice": lambda: compose(InversionMap(), InversionMap()),
    "inversion-after-affine": lambda: compose(
        InversionMap(), AffineMap(((0.0, -1.0), (3.0, 0.5)), 0j, _PP, _PP)),
}
# Signed zeros, the shear's seams at x = 0 and y = 1 and their neighbours,
# magnitudes whose images overflow, and magnitudes where the inversion's
# |z|^2 underflows to 0 or to a subnormal, or overflows, so that it takes its
# rescaled form.
_coords = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -1.0, math.nextafter(1.0, 0.0), math.nextafter(1.0, 2.0),
                     1e-100, -1e-100, 1e150, math.inf, math.nan, 1e-170, -1e-160, 1e-155,
                     1e-320, -5e-324, 1.4e154]),
    st.floats(-8.0, 8.0))
_huge = st.sampled_from([1e200, -1.7e308])


def _bits(values) -> list[tuple[int, int]]:
    return [tuple(np.array([w.real, w.imag]).view(np.int64)) for w in values]


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.sampled_from(sorted(_ARRAY_MAPS)), st.data())
def test_eval_many_equals_eval_bit_for_bit(kind, data):
    # Against the scalar formulas and region predicates they replaced.
    coords = st.one_of(_coords, _huge)
    points = data.draw(st.lists(st.builds(complex, coords, coords), min_size=1, max_size=12))
    f = _ARRAY_MAPS[kind]()
    accepted, images, first = [], [], None
    for i, z in enumerate(points):
        try:
            images.append(map_reference.eval_point(f, z))
            accepted.append(z)
        except MembershipError as exc:
            first = first or (i, exc)
            with pytest.raises(MembershipError) as one:
                f.eval(z)
            assert str(one.value) == str(exc)
    assert _bits(f.eval_many(np.array(accepted, dtype=complex))) == _bits(images)
    assert _bits([f.eval(z) for z in accepted]) == _bits(images)
    if first is not None:
        with pytest.raises(MembershipError) as many:
            f.eval_many(np.array(points))
        assert str(many.value) == f"point at index {first[0]}: {first[1]}"


def test_eval_rejects_an_image_outside_the_image_region():
    f = _ARRAY_MAPS["affine-reflect"]()
    with pytest.raises(MembershipError, match="outside the image region of affine"):
        eval_map(f, 0.5 + 0.5j)
    with pytest.raises(MembershipError, match="index 0: .* outside the image region"):
        f.eval_many(np.array([0.5 + 0.5j]))
    # The inversion sends a subnormal point past the float range.
    with pytest.raises(MembershipError, match="index 1: .* outside the image region"):
        pushforward_points(InversionMap(), [1 + 0j, 1e-320 + 0j])


def _exact_inverse(z: complex) -> complex:
    """z / |z|^2 correctly rounded, from exact rationals."""
    x, y = Fraction(z.real), Fraction(z.imag)
    r2 = x * x + y * y
    return complex(float(x / r2), float(y / r2))


def _ulps(a: float, b: float) -> float:
    return abs(a - b) / math.ulp(b)


@pytest.mark.parametrize("z", [1e-170, 1e-160, 1e200j, -3e-200 + 4e-200j, 1.4e154 + 1j,
                               1.7e308 + 1e308j, 3e-305 - 4e-305j, 1e-300 + 5e-324j])
def test_inversion_rescales_where_the_square_leaves_the_normal_floats(z):
    f = InversionMap()
    z = complex(z)
    w = f.eval(z)
    exact = _exact_inverse(z)
    assert _ulps(w.real, exact.real) <= 2 and _ulps(w.imag, exact.imag) <= 2
    assert _bits(f.eval_many(np.array([z]))) == _bits([w])


def test_inversion_underflow_and_overflow_fixes():
    f = InversionMap()
    for z in (1e-170 + 0j, 1e-160 + 0j, 1e200j):  # a bare ZeroDivisionError, 1.0000111e160, ok
        w, ref = f.eval(z), 1 / z.conjugate()
        assert _ulps(w.real, ref.real) <= 2 and _ulps(w.imag, ref.imag) <= 2
        assert _bits(f.eval_many(np.array([z]))) == _bits([w])
    assert compose(InversionMap(), InversionMap()).eval(1e200j) == 1e200j
    # A normal-range square keeps the plain formula.
    z = 0.3 - 0.7j
    r2 = z.real * z.real + z.imag * z.imag
    assert f.eval(z) == complex(z.real / r2, z.imag / r2)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.floats(-1.7e308, 1.7e308).filter(lambda v: v != 0.0),
       st.floats(-1.7e308, 1.7e308), st.integers(-1074, 1023))
def test_inversion_is_within_two_ulps_at_every_scale(x, y, k):
    z = complex(math.ldexp(math.frexp(x)[0], k), y)
    with np.errstate(all="ignore"):  # images past the float range are inf
        u, v = InversionMap()._forward_many(np.array([z.real]), np.array([z.imag]))
    w = complex(u[0], v[0])
    exact = _exact_inverse(z)
    for got, want in ((w.real, exact.real), (w.imag, exact.imag)):
        if math.isinf(want):
            assert got == want
        else:
            assert _ulps(got, want) <= 2
