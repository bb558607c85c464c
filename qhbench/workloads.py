"""The four workloads of the qhkit benchmark.

Each workload has a set-up (regions, maps, meshes and a warm-up; the runner
times it `setups` times), a round (the unit the timed loop repeats: it times
its own calls into qhkit and checks their outputs after the clock stops) and
a probe that runs once after the loop.  Inputs come from the seed only.

An operation is one call whose answer the benchmark judges: one mesh build,
one pair of a query, one repro suite, one estimator or one chain_constants
call.  It fails when qhkit raises, when a suite reports FAIL, or when one of
its distances is wrong: the trapezoid sum along its node_path differs from
it, or it misses the oracle by more than the grading's tolerance.  Any other
check that does not hold (mesh invariants, witness ratios, bounds, closed
forms, byte-identical reports) makes the run incorrect.
"""
from __future__ import annotations

import cmath
import hashlib
import math
import os
import random
import shutil
from time import perf_counter

from qhkit import constants, estimators, maps, qhgraph, repro, reports, scenarios
from qhkit.errors import QhkitError

import checks
from tracing import Tracer

# ---------------------------------------------------------------------------
# Inputs
# ---------------------------------------------------------------------------

GRADING = 0.05

# Seeded pairs keep k_G >= K_MIN.  Closer pairs are where the mesh overshoots
# k_G by more than the 2% tolerance (direct query edges stop at 3 spacings),
# so a seeded close pair would fail on some seeds only and the failed share
# would differ between runs.  Measured on 2000 uniform pairs per domain at
# grading 0.05, pairs with k >= 1 stayed within 1.0% of the oracle.  The
# near-pair overshoot is judged instead on NEAR_PAIRS, which every round of
# both query workloads queries.
K_MIN = 1.0

# Query windows.  A half-plane geodesic stays within the x-span of its ends
# and below the top of its semicircle (at most 3.9 here), and a punctured
# geodesic (a log-spiral) keeps |z| between |x| and |y|, so every geodesic
# lies inside the meshed bbox of its domain.
POINTS = {
    "halfplane": lambda u, v: complex(-1.5 + 3.0 * u, 0.4 + 3.1 * v),
    "punctured": lambda u, v: (0.3 * 15.0 ** u) * complex(math.cos(2.0 * math.pi * v),
                                                          math.sin(2.0 * math.pi * v)),
}

# Fixed near pairs, the same on every seed, judged against the tolerance like
# the seeded pairs.  A cell at z is grading * delta(z) wide, so these pairs
# are 3 cells apart, inside the 3-spacing reach of the direct query edges.
# Punctured: from 1 in the 8 compass directions (0.15 delta apart), one
# qh_distance_many call; today 1 -> 1.15 and 1 -> 0.85 miss the 2% (4.3% and
# 6.3%).  Half-plane: 1j -> 1.15j, along the gradient of delta where the
# overshoot is largest (2.3% today), one qh_distance call.
NEAR_PAIRS = {
    "punctured": tuple((1 + 0j, 1 + 0.15 * cmath.exp(0.25j * math.pi * k)) for k in range(8)),
    "halfplane": ((1j, 1.15j),),
}


class PairStream:
    """Uniform point pairs with k_G >= K_MIN on a domain's query window,
    drawn from random.Random(f"{seed}:{domain}")."""

    def __init__(self, seed, domain: str):
        self._rng = random.Random(f"{seed}:{domain}")
        self._point = POINTS[domain]
        self._k = checks.DOMAINS[domain].k

    def next(self) -> tuple[complex, complex]:
        while True:
            r = self._rng.random
            x, y = self._point(r(), r()), self._point(r(), r())
            if self._k(x, y) >= K_MIN:
                return x, y

    def take(self, n: int) -> list[tuple[complex, complex]]:
        return [self.next() for _ in range(n)]


# (key, domain, grading, metric); grading None takes the domain's default.
MESHES = (
    ("halfplane", "halfplane", GRADING, "euclidean"),
    ("punctured", "punctured", GRADING, "euclidean"),
    ("disk", "disk", None, "euclidean"),
    ("frame-omega", "frame-omega", None, "euclidean"),
    ("frame-omega-length", "frame-omega", None, "length"),
)


def build(region, domain: str, grading, metric: str = "euclidean"):
    p = scenarios.default_mesh_params(domain)
    return qhgraph.build_mesh(region, grading or p["grading_factor"], p["bbox"],
                              metric=metric, max_depth=p["max_depth"])


def mesh_key(mesh):
    """The MESHES key of a built mesh, or None for any other mesh."""
    for key, domain, grading, metric in MESHES:
        g = grading or scenarios.default_mesh_params(domain)["grading_factor"]
        if (mesh.region.name, mesh.grading, mesh.metric) == (domain, g, metric):
            return key
    return None


def _point(p) -> complex:
    return p if isinstance(p, complex) else complex(*p)


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------

class Workload:
    name = ""
    query_pairs = None  # pair count of the query call this workload times
    # Set-ups per run: enough for about 8 s of set-up in all, so that their
    # median repeats from run to run; a short set-up swings by 10-15% alone.
    setups = 3

    def __init__(self, seed: int, out_dir: str):
        self.seed = seed
        self.out_dir = out_dir
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.failures: list[str] = []
        self.relerrs: list[float] = []
        self.residuals: list[float] = []
        self.hops: list[int] = []
        self.pairs_done = 0
        self.pair_s = 0.0
        self.samples_used = 0
        self.samples_skipped = 0

    def setup(self, instrument=None) -> None:
        raise NotImplementedError

    def prepare(self) -> None:
        """Once, untimed, after the set-ups: check what they built."""

    def round(self) -> float:
        raise NotImplementedError

    def probe(self) -> None:
        pass

    def close(self) -> None:
        pass

    def regions(self) -> list:
        return []

    # -- shared checks -------------------------------------------------------

    def check_mesh(self, key: str, mesh, grading) -> None:
        self.problems += [f"{key}: {p}" for p in checks.mesh_problems(
            mesh.coords, mesh.delta, mesh.spacing, mesh.graph, checks.DOMAINS[key], grading)]

    def check_pair(self, domain: str, x: complex, y: complex, result, tol=None) -> bool:
        """Checks one answered pair against its path sum and, given tol, the
        oracle; returns False (the answer is wrong) when either misses."""
        dom = checks.DOMAINS[domain]
        wrong = checks.path_problems(result.distance, result.node_path, x, y, dom.delta)
        k = dom.k(x, y)
        if k > 0.0:
            e = (result.distance - k) / k
            self.relerrs.append(abs(e))
            self.residuals.append(e)
            self.hops.append(len(result.node_path) - 1)
            if tol is not None and abs(e) > tol:
                wrong.append(f"{domain} {x} -> {y}: {result.distance!r} misses k_G = {k!r} "
                             f"by {abs(e):.2%} (tolerance {tol:.0%})")
        self.failures += wrong
        return not wrong

    def query(self, domain: str, mesh, pairs, tol) -> float:
        """Times one qh_distance_many call (qh_distance for a single pair),
        checks its answers and returns the time."""
        self.attempted += len(pairs)
        t0 = perf_counter()
        try:
            if len(pairs) == 1:
                out = [qhgraph.qh_distance(mesh, *pairs[0])]
            else:
                out = qhgraph.qh_distance_many(mesh, pairs)
        except QhkitError:
            self.failed += len(pairs)
            return perf_counter() - t0
        dt = perf_counter() - t0
        self.pairs_done += len(pairs)
        self.pair_s += dt
        for (x, y), r in zip(pairs, out):
            if not self.check_pair(domain, x, y, r, tol):
                self.failed += 1
        return dt


class MeshBuild(Workload):
    """Rounds that build the five meshes; no queries."""

    name = "mesh-build"
    setups = 9
    probe_pairs = 100

    def setup(self, instrument=None):
        self._regions = {key: scenarios.make_region(domain)
                         for key, domain, _, _ in MESHES}
        if instrument:
            instrument(self)
        build(self._regions["disk"], "disk", None)  # warm-up
        self._first = {}
        self.last = {}

    def regions(self):
        return list(self._regions.values())

    def round(self):
        self.last = {}  # release the previous round's meshes before building
        t0 = perf_counter()
        for key, domain, grading, metric in MESHES:
            try:
                self.last[key] = build(self._regions[key], domain, grading, metric)
            except QhkitError:
                self.failed += 1
        dt = perf_counter() - t0
        self.attempted += len(MESHES)
        for key, domain, grading, metric in MESHES:
            mesh = self.last.get(key)
            if mesh is None:
                continue
            g = grading or scenarios.default_mesh_params(domain)["grading_factor"]
            self.check_mesh(key, mesh, g)
            digest = hashlib.sha256()
            for a in (mesh.coords, mesh.graph.indptr, mesh.graph.indices, mesh.graph.data):
                digest.update(a.tobytes())
            if self._first.setdefault(key, digest.digest()) != digest.digest():
                self.problems.append(f"{key}: the mesh differs from round 1")
        return dt

    def probe(self):
        """Oracle accuracy of the last round's half-plane and punctured meshes."""
        for key in ("halfplane", "punctured"):
            if key in self.last:
                pairs = PairStream(self.seed, key).take(self.probe_pairs)
                self.query(key, self.last[key], pairs, checks.ORACLE_TOL[GRADING])


class PuncturedBatch(Workload):
    """One punctured mesh; each round a 200-pair qh_distance_many batch and
    one batch of the fixed near pairs."""

    name = "punctured-batch"
    query_pairs = 200

    def setup(self, instrument=None):
        self.region = scenarios.make_region("punctured")
        if instrument:
            instrument(self)
        self.mesh = build(self.region, "punctured", GRADING)
        qhgraph.qh_distance_many(self.mesh, PairStream(f"{self.seed}:warm-up",
                                                       "punctured").take(8))

    def prepare(self):
        self.check_mesh("punctured", self.mesh, GRADING)
        self._pairs = PairStream(self.seed, "punctured")

    def regions(self):
        return [self.region]

    def round(self):
        tol = checks.ORACLE_TOL[GRADING]
        return (self.query("punctured", self.mesh, self._pairs.take(self.query_pairs), tol)
                + self.query("punctured", self.mesh, NEAR_PAIRS["punctured"], tol))


class HalfplaneSingle(Workload):
    """One half-plane mesh; each round a qh_distance call on a seeded pair and
    one on the fixed near pair."""

    name = "halfplane-single"
    setups = 5
    query_pairs = 1

    def setup(self, instrument=None):
        self.region = scenarios.make_region("halfplane")
        if instrument:
            instrument(self)
        self.mesh = build(self.region, "halfplane", GRADING)
        for pair in PairStream(f"{self.seed}:warm-up", "halfplane").take(3):
            qhgraph.qh_distance(self.mesh, *pair)

    def prepare(self):
        self.check_mesh("halfplane", self.mesh, GRADING)
        self._pairs = PairStream(self.seed, "halfplane")

    def regions(self):
        return [self.region]

    def round(self):
        tol = checks.ORACLE_TOL[GRADING]
        return (self.query("halfplane", self.mesh, [self._pairs.next()], tol)
                + self.query("halfplane", self.mesh, NEAR_PAIRS["halfplane"], tol))


AFFINE = ((1.0, 0.25), (0.0, 1.25))
CHAIN_PARAMS = ((1.0, 0.5, 1.0, 1.0), (2.0, 0.25, 5.0, 5.0), (3.0, 0.75, 1.5, 2.0))
ESTIMATORS = ("qc", "weak_qs", "local_weak_qs", "relative", "ring", "semisolid")
BATTERY_COUNT = 200


class PaperRepro(Workload):
    """Rounds of the five repro suites at their pinned seeds, an estimator
    battery on four maps and chain_constants, all written through reports.

    Every qh_distance_many call the suites make is recorded, so its pairs are
    checked against the oracles and the path sums, and timed as the query
    layer's share.  A wrong distance fails the suite that asked for it.
    """

    name = "paper-repro"
    setups = 13

    def __init__(self, seed, out_dir):
        super().__init__(seed, out_dir)
        self._reference = None
        self._captured = []
        self._op = None
        self._capture = Tracer()
        for owner in (qhgraph, repro):
            self._capture.patch(owner, "qh_distance_many", "capture", "qhgraph",
                                on_exit=self._record)

    def _record(self, span, args, kwargs, out):
        if self._op is not None:
            self._captured.append((self._op, args[0], list(args[1]), out,
                                   span["end"] - span["start"]))

    def close(self):
        self._capture.restore()
        shutil.rmtree(self.out_dir, ignore_errors=True)

    def setup(self, instrument=None):
        if instrument:
            instrument(self)
        self.shear = maps.HalfPlaneShearMap()
        self.inversion = maps.InversionMap()
        hp = self.shear.source_region
        self.affine = maps.AffineMap(AFFINE, 0j, hp, hp)
        self.maps = {"shear": self.shear, "inversion": self.inversion,
                     "affine": self.affine,
                     "shear-after-affine": maps.compose(self.shear, self.affine)}
        # Exact k_G on both sides: a mesh backend samples mesh nodes, and on
        # some seeds those pairs meet the doubled-edge fault (CHANGES.md), so
        # the semisolid battery would fail on some seeds only.  example-1-8
        # runs the mesh route at its pinned seed.
        self.k = {hp: qhgraph.AnalyticBackend(hp),
                  self.inversion.source_region: qhgraph.AnalyticBackend(
                      self.inversion.source_region)}
        for suite in ("example-3-1", "lemma-3-6"):  # warm-up
            repro.run_suite(suite)
        for name in ESTIMATORS:
            self._estimate(name, self.shear, 20)

    def _estimate(self, name, f, count=BATTERY_COUNT):
        spec = estimators.SampleSpec(seed=self.seed, count=count)
        if name == "qc":
            return estimators.estimate_qc(f, spec)
        if name == "weak_qs":
            return estimators.estimate_weak_qs(f, spec)
        if name == "local_weak_qs":
            return estimators.estimate_local_weak_qs(f, spec)
        if name == "relative":
            return estimators.estimate_relative(f, spec, 0.5)
        if name == "ring":
            return estimators.estimate_ring(f, spec, 2.0, 3.0)
        k = self.k[f.source_region]
        return estimators.estimate_semisolid(f, k, k, spec)

    def _run(self, op, fn, *args):
        """One operation; None (and one failed) when qhkit raises."""
        self.attempted += 1
        self._op = op
        try:
            return fn(*args)
        except QhkitError:
            self.failed += 1
            return None
        finally:
            self._op = None

    def round(self):
        out = os.path.join(self.out_dir, "reference" if self._reference is None else "round")
        shutil.rmtree(out, ignore_errors=True)
        reports.ensure_dir(out)
        suites, battery, chains = {}, {}, []
        self._captured = []
        t0 = perf_counter()
        for name in repro.SUITES:
            r = self._run(name, repro.run_suite, name)
            if r is None:
                continue
            suites[name] = r
            reports.write_json(os.path.join(out, f"repro-{name}.json"), r.report())
            if r.rows:
                reports.write_csv(os.path.join(out, f"repro-{name}.csv"), r.rows)
        for label, f in self.maps.items():
            for name in ESTIMATORS:
                rep = self._run(f"{label} {name}", self._estimate, name, f)
                if rep is None:
                    continue
                battery[label, name] = rep
                reports.write_json(os.path.join(out, f"{label}-{name}.json"), rep.to_dict())
                if name == "semisolid":
                    reports.write_scatter_svg(os.path.join(out, f"{label}-semisolid.svg"),
                                              list(rep.table), title=f"{label} semisolid")
        for params in CHAIN_PARAMS:
            cs = self._run("chain_constants", constants.chain_constants, *params)
            if cs is None:
                continue
            chains.append(cs.as_dict())
            reports.write_json(os.path.join(
                out, "constants-{:g}-{:g}-{:g}-{:g}.json".format(*params)), cs.as_dict())
        dt = perf_counter() - t0
        self._check(suites, battery, chains, out)
        return dt

    def _check(self, suites, battery, chains, out):
        failed_ops = {name for name, r in suites.items() if not r.passed}
        for name, r in suites.items():
            for key, ratio in r.values.items():
                label, _, value = key.partition("=")
                if label == "witness_ratio_t":
                    self.problems += checks.witness_problems(
                        f"{name} {key}", ratio, checks.inversion_witness_ratio(float(value)))
                elif label == "witness_ratio_n":
                    self.problems += checks.witness_problems(
                        f"{name} {key}", ratio, checks.shear_witness_ratio(float(value)))
        bound = checks.affine_distortion(AFFINE)
        for name in ("qc", "weak_qs"):
            rep = battery.get(("affine", name))
            if rep is not None:
                self.problems += checks.bound_problems(f"affine {name}", rep.estimate, bound)
        for t, ratio in getattr(battery.get(("inversion", "weak_qs")), "table", ()):
            self.problems += checks.witness_problems(f"inversion t={t:g}", ratio,
                                                     checks.inversion_witness_ratio(t))
        for n, ratio in getattr(battery.get(("shear", "local_weak_qs")), "table", ()):
            self.problems += checks.witness_problems(f"shear n={n:g}", ratio,
                                                     checks.shear_witness_ratio(n))
        for cs in chains:
            self.problems += checks.chain_constant_problems(cs)
        for rep in battery.values():
            self.samples_used += rep.samples_used
            self.samples_skipped += rep.skipped
        for op, mesh, pairs, results, dt in self._captured:
            self.pairs_done += len(pairs)
            self.pair_s += dt
            domain = mesh.region.name
            if domain not in ("halfplane", "punctured"):
                continue
            for p, r in zip(pairs, results):
                if not self.check_pair(domain, _point(p[0]), _point(p[1]), r):
                    failed_ops.add(op)
        self.failed += len(failed_ops)
        files = {}
        for entry in sorted(os.listdir(out)):
            with open(os.path.join(out, entry), "rb") as fh:
                files[entry] = fh.read()
        if self._reference is None:
            self._reference = files
        elif files != self._reference:
            changed = sorted(k for k in set(files) | set(self._reference)
                             if files.get(k) != self._reference.get(k))
            self.problems.append(f"reports differ between rounds: {changed[:5]}")


WORKLOADS = {w.name: w for w in (MeshBuild, PuncturedBatch, HalfplaneSingle, PaperRepro)}
