"""Pinned answers of qh_distance_many: sha256 digests of every field of the
results (distance, node_path, euclidean_length, endpoint_spacing) for seeded
batches, and the error line of batches with a failing endpoint.

The digests were recorded with the per-point attach (one _attach call per
distinct endpoint, kept in tests/query_reference.py) and the scalar
length metric.  Each batch mixes seeded pairs, exact mesh nodes, repeated
and swapped endpoints, equal points, points one coordinate key apart and
near pairs on the segment between two joined nodes.
"""
import hashlib
import random

import numpy as np
import pytest

from qhkit import QhkitError, build_mesh, qh_distance_many
from qhkit.scenarios import make_region

from conftest import HP_BBOX, PP_BBOX

QUERY_MESHES = {
    "frame-omega": ("frame-omega", 0.05, None, "euclidean"),
    "frame-omega-length": ("frame-omega", 0.05, None, "length"),
    "frame-bottom-length": ("frame-bottom", 0.05, None, "length"),
    "halfplane-0.1": ("halfplane", 0.1, HP_BBOX, "euclidean"),
    "punctured-0.1": ("punctured", 0.1, PP_BBOX, "euclidean"),
}

QUERY_SHA256 = {
    "frame-omega": ["865d9cc7d5b2d4a71386a966aef7665c280d3fb0d7066a738e18d0dac4d786f8",
                    "890318de849d1eef62eca4b8c43d48dd67c75e69a95e4bf44b5131514099f4e7"],
    "frame-omega-length": ["c0335dfef368118a2a14a4041457530806cb81947a3c63b53f9717b4837b1bd2",
                           "9f67513dc767027c7c7ae5044ab5b9d6375c14090d5ee185608a7d6ebb5082bb"],
    "frame-bottom-length": ["083ebe4f0b74ab626a7750c262a49acf6c324d2615a4b91f9ba38d7bcdf1ebd6",
                            "da306774f73728b389120f579c68c5167b2afe92a526c7260ef52acba8a94a83"],
    "halfplane-0.1": ["4fcdae771004beacf912eedf6c9e1b6b0b885f36aa1f1a92f064e0376176187a",
                      "bd7a3998916bd50b3cfa7e45b1e827bc39de16293650c71991b5063863b6e299"],
    "punctured-0.1": ["723ef7a89349be64d4c13d9416958ff41c1b93ca3b85532e6b95326bbb2a682e",
                      "a10289b8233e3fa3bf92addf6c62c24a40afeb89e37762c725d0be5fbb881be0"],
}

ERROR_LINES = {
    "frame-omega": {
        "off-b":
            "MembershipError: query point (0.5+0.5j) is not in region 'frame-omega'",
        "off-a-swapped":
            "MembershipError: query point (-10+0j) is not in region 'frame-omega'",
        "off-then-off":
            "MembershipError: query point (0.625+0.5j) is not in region 'frame-omega'",
    },
    "frame-omega-length": {
        "off-b":
            "MembershipError: query point (0.5+0.5j) is not in region 'frame-omega'",
        "off-a-swapped":
            "MembershipError: query point (-10+0j) is not in region 'frame-omega'",
        "off-then-off":
            "MembershipError: query point (0.625+0.5j) is not in region 'frame-omega'",
    },
    "frame-bottom-length": {
        "off-b":
            "MembershipError: query point (0.5+0.5j) is not in region 'frame-bottom'",
        "off-a-swapped":
            "MembershipError: query point (-10+0j) is not in region 'frame-bottom'",
        "off-then-off":
            "MembershipError: query point (0.625+0.5j) is not in region 'frame-bottom'",
    },
    "halfplane-0.1": {
        "off-b":
            "MembershipError: query point (0.5-0.25j) is not in region 'halfplane'",
        "off-a-swapped":
            "MembershipError: query point (-10+0j) is not in region 'halfplane'",
        "off-then-off":
            "MembershipError: query point (0.625-0.25j) is not in region 'halfplane'",
        "uncovered-b":
            "ConnectivityError: query point (2.5+1j) is not covered by the mesh",
        "uncovered-then-off":
            "ConnectivityError: query point (2.5+1j) is not covered by the mesh",
        "both-fail":
            "MembershipError: query point (0.5-0.25j) is not in region 'halfplane'",
    },
    "punctured-0.1": {
        "off-b":
            "MembershipError: query point 0j is not in region 'punctured'",
        "off-a-swapped":
            "ConnectivityError: query point (-10+0j) is not covered by the mesh",
        "off-then-off":
            "MembershipError: query point 0j is not in region 'punctured'",
        "uncovered-b":
            "ConnectivityError: query point (6+6j) is not covered by the mesh",
        "uncovered-then-off":
            "ConnectivityError: query point (6+6j) is not covered by the mesh",
        "both-fail":
            "MembershipError: query point 0j is not in region 'punctured'",
    },
}


@pytest.fixture(scope="module")
def query_meshes():
    return {name: build_mesh(make_region(domain), grading, bbox, metric=metric)
            for name, (domain, grading, bbox, metric) in QUERY_MESHES.items()}


def query_batch(mesh, seed: int) -> list[tuple[complex, complex]]:
    """Seeded pairs, node endpoints, repeats, swaps, equal and key-equal
    points, and near pairs along mesh edges."""
    rng = random.Random(seed)
    region = mesh.region
    pts = [region.sample_point(rng) for _ in range(40)]
    nodes = [complex(mesh.coords[rng.randrange(mesh.node_count)]) for _ in range(10)]
    pairs = list(zip(pts[:20], pts[20:]))
    pairs += list(zip(nodes[:5], pts[:5])) + list(zip(pts[5:10], nodes[5:]))
    pairs += [(y, x) for x, y in pairs[:5]] + [(nodes[0], nodes[1]), (nodes[2], nodes[2])]
    pairs += [(pts[3], pts[3]), (pts[4], pts[4] + 1e-12), (nodes[3] + 3e-11, nodes[3])]
    for _ in range(6):
        i = rng.randrange(mesh.node_count)
        nbrs = mesh.neighbors(i)
        a, b = complex(mesh.coords[i]), complex(mesh.coords[int(nbrs[rng.randrange(len(nbrs))])])
        pairs += [(0.3 * a + 0.7 * b, a), (0.2 * a + 0.8 * b, 0.6 * a + 0.4 * b)]
    return pairs


def query_digest(results) -> str:
    h = hashlib.sha256()
    for r in results:
        path = np.array([complex(p) for p in r.node_path], dtype="<c16")
        h.update(np.array([r.distance, len(path), r.euclidean_length, *r.endpoint_spacing],
                          dtype="<f8").tobytes() + path.tobytes())
    return h.hexdigest()


def error_line(mesh, pairs) -> str:
    with pytest.raises(QhkitError) as err:
        qh_distance_many(mesh, pairs)
    return f"{type(err.value).__name__}: {err.value}"


def error_batches(name: str, mesh) -> dict:
    """Batches whose k-th endpoint fails: off the region, and (plane meshes)
    not covered; each after valid pairs, and before a later failing one."""
    pairs = query_batch(mesh, 3)[:12]
    plane = name.startswith(("halfplane", "punctured"))
    off = {"halfplane": 0.5 - 0.25j, "punctured": 0j}.get(name.split("-")[0], 0.5 + 0.5j)
    far = {"halfplane": 2.5 + 1.0j, "punctured": 6.0 + 6.0j}.get(name.split("-")[0])
    batches = {
        "off-b": pairs[:5] + [(pairs[5][0], off)] + pairs[6:],
        "off-a-swapped": pairs[:7] + [(off, -10 + 0j)] + pairs[7:],
        "off-then-off": pairs[:3] + [(pairs[3][0], off + 0.125)] + [(off, pairs[4][1])],
    }
    if plane:
        batches["uncovered-b"] = pairs[:4] + [(pairs[4][0], far)] + pairs[5:]
        batches["uncovered-then-off"] = pairs[:2] + [(far, pairs[2][1]), (off, pairs[3][1])]
        batches["both-fail"] = pairs[:2] + [(far, off)]
    return batches


@pytest.mark.parametrize("name", sorted(QUERY_MESHES))
def test_query_answers_match_pinned_digests(query_meshes, name):
    mesh = query_meshes[name]
    got = [query_digest(qh_distance_many(mesh, query_batch(mesh, seed))) for seed in (1, 2)]
    assert got == QUERY_SHA256[name]


@pytest.mark.parametrize("name", sorted(QUERY_MESHES))
def test_failing_endpoints_raise_the_pinned_error(query_meshes, name):
    mesh = query_meshes[name]
    got = {k: error_line(mesh, pairs) for k, pairs in error_batches(name, mesh).items()}
    assert got == ERROR_LINES[name]
