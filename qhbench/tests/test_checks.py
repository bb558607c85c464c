"""Each benchmark check accepts qhkit's real output and rejects a corrupted one."""
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import checks
import runner
import workloads
from tracing import Tracer
from qhkit import estimators, maps, qhgraph, scenarios

ROOT = Path(__file__).resolve().parents[2]
HP = checks.DOMAINS["halfplane"]
TOL = checks.ORACLE_TOL[0.05]


@pytest.fixture(scope="module")
def hp_mesh():
    return workloads.build(scenarios.make_region("halfplane"), "halfplane", 0.05)


@pytest.fixture(scope="module")
def answer(hp_mesh):
    x, y = complex(-0.9, 0.7), complex(0.8, 1.9)
    return x, y, qhgraph.qh_distance(hp_mesh, x, y)


def test_real_answer_passes(answer):
    x, y, r = answer
    assert checks.path_problems(r.distance, r.node_path, x, y, HP.delta) == []
    assert checks.relerr(r.distance, checks.halfplane_k(x, y)) <= TOL


def test_scaled_distance_is_rejected(answer):
    x, y, r = answer
    bad = 1.05 * r.distance
    assert checks.path_problems(bad, r.node_path, x, y, HP.delta)
    assert checks.relerr(bad, checks.halfplane_k(x, y)) > TOL


def test_path_with_a_hop_removed_is_rejected(answer):
    x, y, r = answer
    assert len(r.node_path) > 3
    mid = len(r.node_path) // 2
    short = r.node_path[:mid] + r.node_path[mid + 1:]
    assert checks.path_problems(r.distance, short, x, y, HP.delta)


def test_path_that_misses_an_endpoint_is_rejected(answer):
    x, y, r = answer
    assert checks.path_problems(r.distance, r.node_path[:-1], x, y, HP.delta)


def test_affine_estimate_above_the_singular_value_ratio_is_rejected():
    hp = scenarios.make_region("halfplane")
    f = maps.AffineMap(workloads.AFFINE, 0j, hp, hp)
    bound = checks.affine_distortion(workloads.AFFINE)
    spec = estimators.SampleSpec(seed=3, count=100)
    for est in (estimators.estimate_qc(f, spec), estimators.estimate_weak_qs(f, spec)):
        assert checks.bound_problems("affine", est.estimate, bound) == []
        assert checks.bound_problems("affine", bound * 1.001, bound)


def test_mesh_check_rejects_a_changed_weight_and_a_moved_node():
    region = scenarios.make_region("frame-omega")
    mesh = workloads.build(region, "frame-omega", None)
    dom = checks.DOMAINS["frame-omega"]
    args = (mesh.coords, mesh.delta, mesh.spacing, mesh.graph, dom, None)
    assert checks.mesh_problems(*args) == []
    graph = mesh.graph.copy()
    graph.data[0] *= 1.01
    assert checks.mesh_problems(mesh.coords, mesh.delta, mesh.spacing, graph, dom, None)
    coords = mesh.coords.copy()
    coords[0] += 0.5j
    assert checks.mesh_problems(coords, mesh.delta, mesh.spacing, mesh.graph, dom, None)


def test_witness_and_constant_checks_reject_a_perturbed_value():
    assert checks.witness_problems("t", 10.0, checks.inversion_witness_ratio(10.0)) == []
    assert checks.witness_problems("t", 10.0 * (1 + 1e-9), 10.0)
    expected = checks.shear_witness_ratio(1.0)
    assert abs(expected - 4.0 * 5 ** 0.5 / 5) < 1e-15
    from qhkit import constants
    cs = constants.chain_constants(2.0, 0.25, 5.0, 5.0).as_dict()
    assert checks.chain_constant_problems(cs) == []
    assert checks.chain_constant_problems(dict(cs, beta=cs["beta"] * 1.001))


def test_pair_stream_is_seeded_and_keeps_k_above_the_floor():
    a = workloads.PairStream(4, "punctured").take(50)
    assert a == workloads.PairStream(4, "punctured").take(50)
    assert a != workloads.PairStream(5, "punctured").take(50)
    assert all(checks.punctured_k(x, y) >= workloads.K_MIN for x, y in a)


def test_near_pairs_lie_within_the_direct_edge_reach():
    for domain, pairs in workloads.NEAR_PAIRS.items():
        delta = checks.DOMAINS[domain].delta
        for x, y in pairs:
            cell = workloads.GRADING * float(delta(np.array([x]))[0])
            assert abs(abs(x - y) / cell - 3.0) < 1e-9


def test_benchmark_json_names_every_reported_metric(tmp_path):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    tracers = {phase: Tracer() for phase in ("setup", "loop", "probe")}
    m = runner.layer_metrics(workloads.Workload(1, str(tmp_path)), tracers, [1.0], [1.0])
    assert set(m) == {metric["name"] for metric in spec["per_layer"]}


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(ROOT / "qhbench", tmp_path / "qhbench",
                    ignore=shutil.ignore_patterns("__pycache__", "tests"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "qhbench/run.py", "--workload", "mesh-build",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
