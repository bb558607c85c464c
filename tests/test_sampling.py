"""The batch samplers against the one-draw-at-a-time loops they replaced
(region_reference.sample_point and sample_pairs): the same points in the
same order, the stream left in the same state, and the same errors.

Regions: both frame regions, random curve regions, the L-shape, the comb,
the holed square and a sliver polygon that rejects most draws; a sampler
that repeats points forces the pair sampler's y == x skips."""
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qhkit import PolygonRegion, ResolutionError, Segment
from qhkit.qhgraph import AnalyticBackend
from qhkit.scenarios import frame_space, make_region
from qhkit.spaces import COORD_TOL, CurveRegion, Region, sample_pairs

import region_reference as rr
from test_complex_mesh import random_curve_region
from test_qhgraph import _COMB, _HOLED, _L_SHAPE

#: About 0.5% of its bounding box.
_SLIVER = PolygonRegion([0j, 1 + 1j, 1 + 0.99j], name="sliver")
_REGIONS = {"frame-omega": make_region("frame-omega"), "frame-bottom": make_region("frame-bottom"),
            "l-shape": _L_SHAPE, "comb": _COMB, "holed": _HOLED, "sliver": _SLIVER,
            "halfplane": make_region("halfplane")}
_REGIONS.update({f"random-{seed}": random_curve_region(random.Random(seed)) for seed in range(8)})
_NAMES = st.sampled_from(sorted(_REGIONS))


def _sequential(region):
    return lambda rng: rr.sample_point(region, rng)


def _outcome(fn, *args):
    try:
        return fn(*args)
    except ResolutionError as exc:
        return f"ResolutionError: {exc}"


@settings(max_examples=120, deadline=None, derandomize=True)
@given(_NAMES, st.integers(0, 2**32 - 1), st.integers(0, 25))
def test_sample_points_equal_the_sequential_draws(name, seed, n):
    region = _REGIONS[name]
    rng, want_rng = random.Random(seed), random.Random(seed)
    got = region.sample_points(rng, n)
    assert got == [rr.sample_point(region, want_rng) for _ in range(n)]
    assert all(type(z) is complex for z in got)
    assert rng.getstate() == want_rng.getstate()
    assert region.sample_point(rng) == rr.sample_point(region, want_rng)
    assert rng.getstate() == want_rng.getstate()


@settings(max_examples=120, deadline=None, derandomize=True)
@given(_NAMES, st.integers(0, 2**32 - 1), st.integers(0, 15))
def test_sample_pairs_equal_the_sequential_pairs(name, seed, count):
    region = _REGIONS[name]
    rng, want_rng = random.Random(seed), random.Random(seed)
    got = sample_pairs(region.sample_points, rng, count)
    assert got == rr.sample_pairs(_sequential(region), want_rng, count)
    assert rng.getstate() == want_rng.getstate()


@settings(max_examples=120, deadline=None, derandomize=True)
@given(_NAMES, st.integers(0, 2**32 - 1), st.integers(0, 15))
def test_sample_pairs_skip_the_points_that_repeat_x(name, seed, count):
    # Three of every four draws snap onto a pool of a point, a second point
    # within COORD_TOL of it, and a third, so many y repeat their x.
    region = _REGIONS[name]
    p, q = region.sample_points(random.Random(0), 2)
    pool = (p, p + COORD_TOL / 2, q)

    def snap(z: complex) -> complex:
        k = int(abs(z.real) * 1e6) % 4
        return z if k == 3 else pool[k]

    rng, want_rng = random.Random(seed), random.Random(seed)
    got = sample_pairs(lambda r, n: [snap(z) for z in region.sample_points(r, n)], rng, count)
    want = rr.sample_pairs(lambda r: snap(rr.sample_point(region, r)), want_rng, count)
    assert got == want
    assert rng.getstate() == want_rng.getstate()
    assert all(not abs(x - y) <= COORD_TOL for x, y in got)


def test_backends_sample_as_their_regions():
    region = make_region("punctured")
    rng, want_rng = random.Random(5), random.Random(5)
    assert AnalyticBackend(region).sample_points(rng, 7) == \
        [region.sample_point(want_rng) for _ in range(7)]
    assert rng.getstate() == want_rng.getstate()


class _Threshold(Region):
    """Accepts a draw u of rng.random() when u < p: a run of 10,000
    rejections comes about once in e^(10000 p) points."""

    name = "threshold"

    def __init__(self, p: float):
        self.p = p

    def contains_many(self, Z: np.ndarray) -> np.ndarray:
        return Z.real < self.p

    def sample_points(self, rng: random.Random, n: int) -> list[complex]:
        return self._rejection_sample(rng, n, lambda r: complex(r.random()), "no draw below p")


def _threshold_reference(p: float, rng: random.Random, n: int) -> list[complex]:
    out = []
    for _ in range(n):
        for _ in range(10000):
            z = complex(rng.random())
            if z.real < p:
                out.append(z)
                break
        else:
            raise ResolutionError("no draw below p")
    return out


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.sampled_from([1e-4, 1.5e-4, 3e-4, 0.5]), st.integers(0, 2**32 - 1),
       st.integers(0, 6))
def test_rejection_runs_span_batches_as_in_the_sequential_loop(p, seed, n):
    # Runs of rejections that cross batch boundaries, and the 10,000th
    # rejection in a row, with no try drawn past it.
    rng, want_rng = random.Random(seed), random.Random(seed)
    assert _outcome(_Threshold(p).sample_points, rng, n) == \
        _outcome(_threshold_reference, p, want_rng, n)
    assert rng.getstate() == want_rng.getstate()


@pytest.mark.parametrize("region, message", [
    (PolygonRegion([0j, 1 + 1j, 1 + (1 - 1e-300) * 1j], name="thin"),
     "rejection sampling failed; polygon area too thin"),
    (CurveRegion(frame_space(), (Segment(0j, 1e-10 + 0j),), (0j,), name="short"),
     "could not sample a region point clear of the boundary"),
])
def test_ten_thousand_rejections_keep_their_messages(region, message):
    for n in (1, 5):
        rng, want_rng = random.Random(3), random.Random(3)
        with pytest.raises(ResolutionError) as exc:
            region.sample_points(rng, n)
        assert str(exc.value) == message
        assert _outcome(rr.sample_point, region, want_rng) == f"ResolutionError: {message}"
        assert rng.getstate() == want_rng.getstate()
    with pytest.raises(ResolutionError, match=message):
        region.sample_point(random.Random(3))
