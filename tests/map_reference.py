"""The scalar forward formulas that each map's _forward_many replaced, kept
as references: one complex point at a time, the inversion with its own
power-of-two rescale, and eval built on them with the scalar region
predicates of region_reference, compositions checking each intermediate
image against the image region of the map that made it."""
import math
import sys

from qhkit.errors import MembershipError
from qhkit.maps import (AffineMap, CompositionMap, HalfPlaneShearMap, IdentityMap, InversionMap,
                        MapSpec)

import region_reference as rr


def _invert(z: complex) -> complex:
    x, y = z.real, z.imag
    r2 = x * x + y * y
    if (r2 < sys.float_info.min or r2 == math.inf) and z != 0 and \
            math.isfinite(x) and math.isfinite(y):
        e = math.frexp(max(abs(x), abs(y)))[1]
        x, y = math.ldexp(x, -e), math.ldexp(y, -e)
        r2 = x * x + y * y
        h1, h2 = math.ldexp(1.0, -e // 2), math.ldexp(1.0, -e - -e // 2)
        return complex(x / r2 * h1 * h2, y / r2 * h1 * h2)
    return complex(x / r2, y / r2)


def _shear(z: complex) -> complex:
    x, y = z.real, z.imag
    if x <= 0.0:
        return z
    if y <= 1.0:
        return complex(x, (x + 1.0) * y)
    return complex(x, x + y)


def forward(f: MapSpec, z: complex) -> complex:
    """f(z) by the scalar formula, unchecked."""
    if isinstance(f, IdentityMap):
        return z
    if isinstance(f, AffineMap):
        return complex(f.a * z.real + f.b * z.imag, f.c * z.real + f.d * z.imag) + f.offset
    if isinstance(f, InversionMap):
        return _invert(z)
    if isinstance(f, HalfPlaneShearMap):
        return _shear(z)
    if isinstance(f, CompositionMap):
        for g in f.maps:
            z = forward(g, z)
        return z
    raise TypeError(f"no reference formula for {f!r}")


def eval_point(f: MapSpec, z: complex) -> complex:
    """eval(f, z) with its MembershipError messages."""
    if not rr.contains(f.source_region, z):
        raise MembershipError(f"{z} is outside the source region of {f.kind}")
    if isinstance(f, CompositionMap):
        w = z
        for k, g in enumerate(f.maps[:-1]):
            try:
                w = eval_point(g, w)
            except MembershipError as exc:
                raise MembershipError(f"{z} is outside the domain of {f.kind}: at map "
                                      f"{k + 1} of {len(f.maps)}, {exc}") from None
    w = forward(f, z)
    if not rr.contains(f.image_region, w):
        raise MembershipError(f"f({z}) = {w} is outside the image region of {f.kind}")
    return w
