"""Runs one workload: its timed set-ups, the timed loop, the probe, and the
metrics.  With tracing on, the first half of the loop runs untraced and the
second half traced, so the tracing overhead is measured in the same process.
"""
from __future__ import annotations

import json
import os
import resource
import statistics
import sys
from pathlib import Path
from time import perf_counter

from qhkit import constants, estimators, maps, qhgraph, repro, reports, spaces

import workloads
from tracing import Tracer

MIN_ROUNDS = 2  # a median of one round would be a single-sample timing

# Metric names and units, as BENCHMARK.json at the checkout's root lists them.
_SPEC = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
END_TO_END = {m["name"]: m["unit"] for m in _SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in _SPEC["per_layer"]}

MESH_KEYS = tuple(m[0] for m in workloads.MESHES)
SUITES = tuple(repro.SUITES)
LAYERS = ("qhgraph", "scipy.csgraph", "spaces", "maps", "estimators", "constants",
          "repro", "reports")
_PREDICATES = ("contains", "boundary_distance", "boundary_gap", "segments_inside_many",
               "segment_inside", "length_boundary_distance")


# ---------------------------------------------------------------------------
# Instrumentation
# ---------------------------------------------------------------------------

def _on_build(span, args, kwargs, mesh):
    span["mesh"] = workloads.mesh_key(mesh)
    span["stats"] = {k: mesh.stats[k] for k in ("nodes", "edges", "dropped_nodes")}


def _on_query(span, args, kwargs, result):
    span["pairs"] = len(args[1])


def _on_dijkstra(span, args, kwargs, result):
    span["sources"] = len(kwargs.get("indices", ()))
    span["vertices"] = args[0].shape[0]


def _on_suite(span, args, kwargs, result):
    span["name"] = f"repro.{args[0]}"


def _on_write(span, args, kwargs, path):
    span["bytes"] = os.path.getsize(path)


def instrument(tracer: Tracer, w) -> None:
    """Wrap the calls into each qhkit layer (and qhgraph's csgraph calls)."""
    for owner in (qhgraph, repro):
        tracer.patch(owner, "build_mesh", "qhgraph.build_mesh", "qhgraph", on_exit=_on_build)
        tracer.patch(owner, "qh_distance_many", "qhgraph.qh_distance_many", "qhgraph",
                     on_exit=_on_query)
        tracer.patch(owner, "lemma34_check", "qhgraph.lemma34_check", "qhgraph")
        tracer.patch(owner, "lemma36_check", "qhgraph.lemma36_check", "qhgraph")
    tracer.patch(qhgraph, "qh_distance", "qhgraph.qh_distance", "qhgraph")
    tracer.patch(qhgraph, "dijkstra", "csgraph.dijkstra", "scipy.csgraph",
                 on_exit=_on_dijkstra)
    tracer.patch(qhgraph, "connected_components", "csgraph.connected_components",
                 "scipy.csgraph")
    for owner in (spaces, qhgraph, estimators, repro):
        tracer.patch(owner, "component_ball", "spaces.component_ball", "spaces")
    for cls in (spaces.PlaneSpace, spaces.CurveComplexSpace):
        tracer.patch(cls, "length_distance", "spaces.length_distance", "spaces", keep=False)
    for region in w.regions():
        for attr in _PREDICATES:
            tracer.patch(region, attr, f"spaces.{attr}", "spaces", keep=False)
    tracer.patch(maps.MapSpec, "eval", "maps.eval", "maps", keep=False)
    for e in workloads.ESTIMATORS:
        tracer.patch(estimators, f"estimate_{e}", f"estimators.{e}", "estimators")
    tracer.patch(repro, "estimate_semisolid", "estimators.semisolid", "estimators")
    tracer.patch(repro, "run_suite", "repro.run_suite", "repro", on_exit=_on_suite)
    tracer.patch(constants, "chain_constants", "constants.chain_constants", "constants")
    for fn in ("write_json", "write_csv", "write_scatter_svg"):
        tracer.patch(reports, fn, f"reports.{fn}", "reports", on_exit=_on_write)


# ---------------------------------------------------------------------------
# Running
# ---------------------------------------------------------------------------

def _rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def timed_loop(w, seconds: float, min_rounds: int) -> list[float]:
    """Whole rounds until the next one would end past `seconds`."""
    times: list[float] = []
    start = perf_counter()
    while True:
        times.append(w.round())
        elapsed = perf_counter() - start
        if len(times) >= min_rounds and elapsed + statistics.median(times) > seconds:
            return times


def _median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def _mean(values) -> float:
    values = list(values)
    return statistics.fmean(values) if values else 0.0


def _traced(tracers: dict, phase: str, w, fn):
    tracers[phase] = t = Tracer()
    instrument(t, w)
    try:
        return fn()
    finally:
        t.restore()


def run(name: str, seed: int, seconds: float, trace: bool, out_root: str) -> dict:
    w = workloads.WORKLOADS[name](seed, os.path.join(out_root, f"{name}-reports"))
    tracers = {}
    try:
        setup_times = []
        for i in range(w.setups):
            hook = None
            if trace and i == w.setups - 1:
                tracers["setup"] = Tracer()
                hook = lambda wl: instrument(tracers["setup"], wl)  # noqa: E731
            t0 = perf_counter()
            w.setup(hook)
            setup_times.append(perf_counter() - t0)
            if "setup" in tracers:
                tracers["setup"].restore()
        w.prepare()
        if not trace:
            rounds = timed_loop(w, seconds, MIN_ROUNDS)
            w.probe()
            metrics = {
                "setup_s": _median(setup_times),
                "round_s": _median(rounds),
                "pairs_per_s": w.pairs_done / w.pair_s if w.pair_s else 0.0,
                "oracle_relerr_mean": _mean(w.relerrs),
                "peak_rss_mb": _rss_mb(),
            }
            units = END_TO_END
        else:
            plain = timed_loop(w, seconds / 2.0, 1)
            traced = _traced(tracers, "loop", w, lambda: timed_loop(w, seconds / 2.0, 1))
            _traced(tracers, "probe", w, w.probe)
            metrics = layer_metrics(w, tracers, plain, traced)
            units = PER_LAYER
            tracers["loop"].dump(os.path.join(out_root, f"trace-{name}-{seed}.json"), {
                "workload": name, "seed": seed, "untraced_rounds_s": plain,
                "traced_rounds_s": traced,
                "setup_spans": tracers["setup"].spans, "probe_spans": tracers["probe"].spans,
                "metrics": metrics})
    finally:
        for t in tracers.values():
            t.restore()
        w.close()
    for failure in dict.fromkeys(w.failures):
        print(f"failed: {failure}", file=sys.stderr)
    for problem in w.problems[:20]:
        print(f"check failed: {problem}", file=sys.stderr)
    return {"correct": not w.problems, "attempted": w.attempted, "failed": w.failed,
            "metrics": {k: {"value": float(metrics[k]), "unit": u} for k, u in units.items()}}


# ---------------------------------------------------------------------------
# Per-layer metrics
# ---------------------------------------------------------------------------

def layer_metrics(w, tracers: dict, plain: list[float], traced: list[float]) -> dict:
    """Per-layer figures of a traced run.

    Counts and times under a layer are per traced round.  Build figures are
    per build of each mesh and query figures per timed query call, from every
    traced phase (set-up, loop and probe).  A layer a workload never calls
    reads 0.  Every name BENCHMARK.json lists is computed, and no other.
    """
    loop = tracers["loop"]
    n = len(traced)
    every = [s for t in tracers.values() for s in t.spans]
    m = {}

    for key in MESH_KEYS:
        builds = [s for s in every if s["name"] == "qhgraph.build_mesh" and s.get("mesh") == key]
        m[f"qhgraph.build_s.{key}"] = _median(s["end"] - s["start"] for s in builds)
        for what in ("nodes", "edges", "dropped_nodes"):
            m[f"qhgraph.{what}.{key}"] = builds[-1]["stats"][what] if builds else 0
    m["qhgraph.components_s"] = _median(s["end"] - s["start"] for s in every
                                        if s["name"] == "csgraph.connected_components")
    for attr in ("contains", "boundary_distance", "boundary_gap"):
        m[f"spaces.{attr}_calls"] = loop.calls[f"spaces.{attr}"] / n
    m["spaces.segments_inside_many_s"] = loop.call_s["spaces.segments_inside_many"] / n
    m["spaces.predicate_s"] = sum(loop.outer_s[f"spaces.{a}"] for a in _PREDICATES) / n

    # Query calls: the qh_distance_many calls of the workload's timed size.
    queried = [t for k, t in tracers.items() if k != "setup"]
    rows = []
    for t in queried:
        dijkstra = {s["parent"]: s for s in t.spans if s["name"] == "csgraph.dijkstra"}
        for i, s in enumerate(t.spans):
            if s["name"] != "qhgraph.qh_distance_many" or \
                    w.query_pairs not in (None, s.get("pairs")):
                continue
            d = dijkstra.get(i)
            total = s["end"] - s["start"]
            dij = d["end"] - d["start"] if d else 0.0
            rows.append((total, dij, d["sources"] if d else 0, d["vertices"] if d else 0))
    m["qhgraph.query_s"] = _median(r[0] for r in rows)
    m["qhgraph.dijkstra_s"] = _median(r[1] for r in rows)
    m["qhgraph.query_other_s"] = _median(r[0] - r[1] for r in rows)
    m["qhgraph.dijkstra_sources"] = _mean(r[2] for r in rows)
    m["qhgraph.dijkstra_vertices"] = _mean(r[3] for r in rows)
    pairs = sum(s.get("pairs", 0) for t in queried for s in t.spans
                if s["name"] == "qhgraph.qh_distance_many")
    m["spaces.segment_inside_calls"] = sum(
        t.calls["spaces.segment_inside"] for t in queried) / pairs if pairs else 0.0
    m["qhgraph.path_hops_mean"] = _mean(w.hops)
    m["qhgraph.oracle_relerr_max"] = max(w.relerrs, default=0.0)
    m["qhgraph.oracle_residual_min"] = min(w.residuals, default=0.0)

    for suite in SUITES:
        m[f"repro.{suite}_s"] = sum(s["end"] - s["start"] for s in loop.named(f"repro.{suite}")) / n
    m["spaces.component_ball_s"] = loop.call_s["spaces.component_ball"] / n
    m["spaces.component_ball_calls"] = loop.calls["spaces.component_ball"] / n
    m["spaces.length_distance_s"] = loop.call_s["spaces.length_distance"] / n
    m["maps.eval_calls"] = loop.calls["maps.eval"] / n
    for e in workloads.ESTIMATORS:
        m[f"estimators.{e}_s"] = loop.call_s[f"estimators.{e}"] / n
    rounds = len(plain) + n
    m["estimators.samples_used"] = w.samples_used / rounds
    samples = w.samples_used + w.samples_skipped
    m["estimators.used_ratio"] = w.samples_used / samples if samples else 0.0
    m["constants.chain_constants_s"] = loop.call_s["constants.chain_constants"] / n
    writes = [s for s in loop.spans if s["layer"] == "reports"]
    m["reports.write_s"] = sum(s["end"] - s["start"] for s in writes) / n
    m["reports.bytes"] = sum(s.get("bytes", 0) for s in writes) / n

    table = loop.layer_table()
    for layer in LAYERS:
        row = table.get(layer, {"time_s": 0.0, "self_s": 0.0})
        m[f"layer.{layer}.time_s"] = row["time_s"] / n
        m[f"layer.{layer}.self_s"] = row["self_s"] / n
    m["trace.overhead_s"] = _median(traced) - _median(plain)
    m["trace.overhead_ratio"] = m["trace.overhead_s"] / _median(plain)
    if set(m) != set(PER_LAYER):
        raise KeyError(f"per-layer metrics differ from BENCHMARK.json: {set(m) ^ set(PER_LAYER)}")
    return m
