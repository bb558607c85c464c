"""Built-in homeomorphisms with exact forward and inverse evaluation.

The two counterexample maps (the inversion of the punctured plane and the
three-piece shear of the upper half-plane) plus identity, real-affine maps,
and compositions.  Image regions are declared analytically so the image-side
boundary distance stays exact for the estimators.
"""
from __future__ import annotations

from typing import Sequence

import numpy as np

from .errors import CompositionError, ConfigurationError, MembershipError
from .spaces import (
    HalfPlaneRegion,
    PuncturedPlaneRegion,
    Region,
    as_point,
)


class MapSpec:
    """A homeomorphism f: source_region -> image_region with an exact inverse.

    A map gives its forward formula once, _forward_many on the arrays of real
    and imaginary parts.  _images applies it to a complex array and marks the
    points that eval rejects: a point outside the source region, or an image
    outside the image region (a non-finite one included).  eval_many raises a
    MembershipError naming the first of them by index; eval is the
    one-element call of _eval_each, whose error carries no index.
    """

    kind: str = "abstract"
    source_region: Region
    image_region: Region

    def _forward_many(self, x: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        raise NotImplementedError

    def _backward(self, w: complex) -> complex:
        raise NotImplementedError

    def _images(self, Z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(W, bad): f at each point of the 1-D complex array Z, and True where
        eval rejects the point."""
        with np.errstate(all="ignore"):
            u, v = self._forward_many(Z.real, Z.imag)
        W = u.astype(complex)
        W.imag = v
        return W, ~(self.source_region.contains_many(Z) & self.image_region.contains_many(W))

    def _rejection(self, z: complex) -> MembershipError:
        """The MembershipError eval raises at z, a point that _images rejects."""
        if not self.source_region.contains(z):
            return MembershipError(f"{z} is outside the source region of {self.kind}")
        w = complex(self._images(np.array([z]))[0][0])
        return MembershipError(f"f({z}) = {w} is outside the image region of {self.kind}")

    def _eval_each(self, Z: np.ndarray) -> np.ndarray:
        """eval at each point of a 1-D complex array: eval's error at the first it rejects."""
        W, bad = self._images(Z)
        if bad.any():
            raise self._rejection(complex(Z[np.argmax(bad)]))
        return W

    def eval(self, z) -> complex:
        return complex(self._eval_each(np.array([as_point(z)]))[0])

    def eval_many(self, Z: np.ndarray) -> np.ndarray:
        """eval over a 1-D complex array; a MembershipError names the first
        index that eval would reject."""
        Z = np.asarray(Z, dtype=complex)
        W, bad = self._images(Z)
        if bad.any():
            i = int(np.argmax(bad))
            raise MembershipError(f"point at index {i}: {self._rejection(complex(Z[i]))}")
        return W

    def invert(self, w) -> complex:
        w = as_point(w)
        if not self.image_region.contains(w):
            raise MembershipError(f"{w} is outside the image region of {self.kind}")
        return self._backward(w)

    def params(self) -> dict:
        return {}

    def describe(self) -> dict:
        return {"kind": self.kind, "params": self.params(),
                "source": self.source_region.describe(),
                "image": self.image_region.describe()}

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.source_region.name} -> {self.image_region.name})"


class IdentityMap(MapSpec):
    kind = "identity"

    def __init__(self, region: Region):
        self.source_region = region
        self.image_region = region

    def _forward_many(self, x, y):
        return x, y

    def _backward(self, w: complex) -> complex:
        return w


class AffineMap(MapSpec):
    """Real-affine map z -> A z + b with invertible 2x2 matrix A."""

    kind = "affine"

    def __init__(self, matrix: Sequence[Sequence[float]], offset,
                 source_region: Region, image_region: Region):
        (a, b), (c, d) = matrix
        det = a * d - b * c
        if det == 0.0:
            raise ConfigurationError("affine matrix must be invertible")
        self.a, self.b, self.c, self.d = float(a), float(b), float(c), float(d)
        self._det = det
        self.offset = as_point(offset)
        self.source_region = source_region
        self.image_region = image_region

    def _forward_many(self, x, y):
        return (self.a * x + self.b * y + self.offset.real,
                self.c * x + self.d * y + self.offset.imag)

    def _backward(self, w: complex) -> complex:
        v = w - self.offset
        return complex((self.d * v.real - self.b * v.imag) / self._det,
                       (-self.c * v.real + self.a * v.imag) / self._det)

    def params(self) -> dict:
        return {"matrix": [[self.a, self.b], [self.c, self.d]],
                "offset": [self.offset.real, self.offset.imag]}


class InversionMap(MapSpec):
    """f(z) = z / |z|^2 on the punctured plane; an involution.  Where |z|^2
    underflows or overflows the image is taken in a rescaled form, so every
    finite nonzero z gets z / |z|^2 to within 2 ulps; elsewhere the plain
    formula stands."""

    kind = "inversion"

    def __init__(self, region: PuncturedPlaneRegion | None = None):
        region = region if region is not None else PuncturedPlaneRegion()
        self.source_region = region
        self.image_region = region

    def _forward_many(self, x, y):
        r2 = x * x + y * y
        u, v = x / r2, y / r2
        out = (((r2 < np.finfo(float).tiny) | (r2 == np.inf)) & ((x != 0) | (y != 0))
               & np.isfinite(x) & np.isfinite(y))
        if out.any():
            # |z|^2 leaves the normal floats: invert z / 2^e, whose larger
            # coordinate lies in [1/2, 1), then divide by 2^e in two exact halves.
            x, y = x[out], y[out]
            e = np.frexp(np.maximum(np.abs(x), np.abs(y)))[1]
            x, y = np.ldexp(x, -e), np.ldexp(y, -e)
            r2 = x * x + y * y
            h1, h2 = np.ldexp(1.0, -e // 2), np.ldexp(1.0, -e - -e // 2)
            u[out], v[out] = x / r2 * h1 * h2, y / r2 * h1 * h2
        return u, v

    def _backward(self, w: complex) -> complex:
        return complex(self._images(np.array([w]))[0][0])


class HalfPlaneShearMap(MapSpec):
    """Three-piece shear of the upper half-plane.

    Identity for x <= 0; x + i (x+1) y for x >= 0 with 0 < y <= 1; and
    x + i (x + y) for x >= 0 with y > 1.  Continuous across both seams and a
    self-homeomorphism of the half-plane.
    """

    kind = "halfplane-shear"

    def __init__(self, region: HalfPlaneRegion | None = None):
        region = region if region is not None else HalfPlaneRegion()
        self.source_region = region
        self.image_region = region

    def _forward_many(self, x, y):
        return x, np.where(x <= 0.0, y, np.where(y <= 1.0, (x + 1.0) * y, x + y))

    def _backward(self, w: complex) -> complex:
        u, v = w.real, w.imag
        if u <= 0.0:
            return w
        if v <= u + 1.0:
            return complex(u, v / (u + 1.0))
        return complex(u, v - u)


class CompositionMap(MapSpec):
    """Ordered composition: maps[0] applied first."""

    kind = "composition"

    def __init__(self, maps: Sequence[MapSpec]):
        if not maps:
            raise CompositionError("composition needs at least one map")
        for f, g in zip(maps, maps[1:]):
            if f.image_region != g.source_region:
                raise CompositionError(
                    f"image of {f.kind} does not match source of {g.kind}")
        self.maps = tuple(maps)
        self.source_region = maps[0].source_region
        self.image_region = maps[-1].image_region

    def _images(self, Z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Each map in turn, checking each image against that map's image region."""
        bad = np.zeros(len(Z), dtype=bool)
        for f in self.maps:
            Z, out = f._images(Z)
            bad |= out
        return Z, bad

    def _rejection(self, z: complex) -> MembershipError:
        """As for one map, unless an inner map's image leaves its image region."""
        if not self.source_region.contains(z):
            return MembershipError(f"{z} is outside the source region of {self.kind}")
        w = z
        for k, f in enumerate(self.maps[:-1]):
            W, bad = f._images(np.array([w]))
            if bad[0]:
                return MembershipError(f"{z} is outside the domain of {self.kind}: at map "
                                       f"{k + 1} of {len(self.maps)}, {f._rejection(w)}")
            w = complex(W[0])
        return super()._rejection(z)

    def _backward(self, w: complex) -> complex:
        for f in reversed(self.maps):
            w = f._backward(w)
        return w

    def params(self) -> dict:
        return {"maps": [f.describe() for f in self.maps]}


# ---------------------------------------------------------------------------
# Operations
# ---------------------------------------------------------------------------

def eval_map(f: MapSpec, x) -> complex:
    """f(x) in closed form; MembershipError outside the source region, or for
    an image outside the image region."""
    return f.eval(x)


def invert_map(f: MapSpec, y) -> complex:
    """f^{-1}(y); eval_map(f, invert_map(f, y)) == y to 1e-12."""
    return f.invert(y)


def compose(g: MapSpec, f: MapSpec) -> CompositionMap:
    """g after f; the image region of f must equal the source region of g."""
    parts: list[MapSpec] = []
    for m in (f, g):
        parts.extend(m.maps if isinstance(m, CompositionMap) else (m,))
    return CompositionMap(parts)


def pushforward_points(f: MapSpec, pts: Sequence) -> list[complex]:
    """eval_map of each point, order preserved, through one eval_many call;
    aborts naming the first failing index."""
    return f.eval_many(np.array([as_point(p) for p in pts], dtype=complex)).tolist()
