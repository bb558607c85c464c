"""Command-line front end.

Subcommands: qh, ball, check-qc, check-wqs, check-lwqs, check-semisolid,
check-relative, check-ring, constants, repro.  Exit codes: 0 all good,
2 property-suite violations or failed assertions, 1 configuration/usage
errors.  Seeds come from flags, a JSON config file, or the QH_SEED
environment variable (highest precedence), never from the wall clock.

CSV reports use the fixed column order
(id, x_re, x_im, y_re, y_im, value, oracle, bound_lo, bound_hi, pass);
JSON reports are canonical (sorted keys), so identical configurations
produce byte-identical files.
"""
from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Optional

from . import constants as consts
from .errors import ConfigurationError, QhkitError
from .estimators import (
    SampleSpec,
    estimate_local_weak_qs,
    estimate_qc,
    estimate_relative,
    estimate_ring,
    estimate_semisolid,
    estimate_weak_qs,
)
from .qhgraph import (
    MeshBackend,
    build_mesh,
    oracle_for,
    qh_distance,
    qh_distance_exact,
)
from .repro import SUITES, run_suite
from .reports import ensure_dir, write_csv, write_json, write_scatter_svg
from .scenarios import (
    BUILTIN_DOMAINS,
    default_mesh_params,
    make_map,
    make_region,
    semisolid_sampling,
)
from .spaces import component_ball


def _convert(cast, value, what: str):
    """cast(value); a value it rejects is a ConfigurationError saying what it must be."""
    try:
        return cast(value)
    except (TypeError, ValueError):
        raise ConfigurationError(f"{what}, got {value!r}") from None


def _floats(value, what: str, n: Optional[int] = None) -> tuple[float, ...]:
    """Comma-separated text or a config list as floats, exactly n of them if n is given."""
    try:
        vals = tuple(float(v) for v in (value.split(",") if isinstance(value, str) else value))
    except (TypeError, ValueError):
        vals = None
    if vals is None or (n is not None and len(vals) != n):
        raise ConfigurationError(f"{what}, got {value!r}")
    return vals


def _parse_point(text: str) -> complex:
    return complex(*_floats(text, "point must be X,Y", 2))


def _load_config(path: Optional[str]) -> dict:
    if not path:
        return {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            config = json.load(fh)
    except (OSError, ValueError) as exc:
        raise ConfigurationError(f"cannot read config {path!r}: {exc}") from None
    if not isinstance(config, dict):
        raise ConfigurationError(f"config {path!r} must hold a JSON object")
    return config


def _resolve_seed(args, config: dict) -> int:
    env = os.environ.get("QH_SEED")
    if env is not None:
        return _convert(int, env, "QH_SEED must be an integer")
    if getattr(args, "seed", None) is not None:
        return args.seed
    return _convert(int, config.get("seed", 7), "config seed must be an integer")


def _sample_spec(args, config: dict) -> SampleSpec:
    radii = getattr(args, "radii", None) or config.get("radius_schedule", [0.4, 0.2, 0.1, 0.05])
    return SampleSpec(
        seed=_resolve_seed(args, config),
        count=args.count if args.count is not None else
        _convert(int, config.get("count", 200), "config count must be an integer"),
        locality_q=args.q if getattr(args, "q", None) is not None else
        _convert(float, config.get("q", 0.5), "config q must be a number"),
        radius_schedule=_floats(radii, "radius schedule must be a list of numbers"),
    )


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="qhkit",
                                description="quasihyperbolic metric toolkit")
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument("--config", help="JSON config file with default parameters")
    shared.add_argument("--out", help="output directory for reports")
    shared.add_argument("--svg", action="store_true", help="also emit SVG scatter plots")
    sub = p.add_subparsers(dest="command", required=True, parser_class=argparse.ArgumentParser)

    def common(sp, domain=True):
        sp.add_argument("--seed", type=int)
        sp.add_argument("--count", type=int)
        if domain:
            sp.add_argument("--domain", choices=BUILTIN_DOMAINS, default=None)

    qh = sub.add_parser("qh", parents=[shared], help="mesh quasihyperbolic distance between two points")
    qh.add_argument("--domain", choices=BUILTIN_DOMAINS, required=True)
    qh.add_argument("--from", dest="src", required=True, metavar="X,Y")
    qh.add_argument("--to", dest="dst", required=True, metavar="X,Y")
    qh.add_argument("--grading", type=float, default=None)
    qh.add_argument("--bbox", type=str, default=None, metavar="X0,X1,Y0,Y1")
    qh.add_argument("--length-metric", action="store_true",
                    help="use the intrinsic-metric weights (k' instead of k)")
    qh.add_argument("--stats", action="store_true",
                    help="print mesh and query statistics to stderr (never to reports)")

    ball = sub.add_parser("ball", parents=[shared], help="flood-fill a component ball")
    ball.add_argument("--domain", choices=BUILTIN_DOMAINS, required=True)
    ball.add_argument("--center", required=True, metavar="X,Y")
    ball.add_argument("--radius", type=float, required=True)
    ball.add_argument("--resolution", type=float, required=True)

    for name, help_text in (("check-qc", "quasiconformality estimate"),
                            ("check-wqs", "weak quasisymmetry estimate"),
                            ("check-lwqs", "local weak quasisymmetry estimate"),
                            ("check-relative", "relativity envelope"),
                            ("check-ring", "ring property estimate"),
                            ("check-semisolid", "semisolidity scatter")):
        sp = sub.add_parser(name, parents=[shared], help=help_text)
        sp.add_argument("--map", dest="map_kind", required=True,
                        help="identity | inversion | shear | affine")
        sp.add_argument("--matrix", help="a,b,c,d for affine maps")
        sp.add_argument("--offset", default="0,0", help="x,y offset for affine maps")
        common(sp)
        sp.add_argument("--q", type=float, default=None)
        sp.add_argument("--radii", help="comma-separated radius schedule")
        sp.add_argument("--bound", type=float, default=None,
                        help="fail (exit 2) when the estimate exceeds this bound")
        if name == "check-ring":
            sp.add_argument("--alpha", type=float, default=3.0)
            sp.add_argument("--beta", type=float, default=12.0)
        if name == "check-relative":
            sp.add_argument("--t0", type=float, default=0.5)
        if name == "check-semisolid":
            sp.add_argument("--grading", type=float, default=None)

    cst = sub.add_parser("constants", parents=[shared], help="closed-form constant chain")
    cst.add_argument("--H", type=float, required=True)
    cst.add_argument("--q", type=float, required=True)
    cst.add_argument("--c", type=float, required=True)
    cst.add_argument("--cprime", type=float, required=True)
    cst.add_argument("--K0", type=float, default=1.0)
    cst.add_argument("--alpha-exp", type=float, default=1.0)

    rp = sub.add_parser("repro", parents=[shared], help="run a pinned reproduction suite")
    rp.add_argument("suite", choices=sorted(SUITES))
    rp.add_argument("--seed", type=int)
    rp.add_argument("--count", type=int)
    rp.add_argument("--n", type=float, default=None,
                    help="extra witness index for the shear suite")
    rp.add_argument("--h", type=float, default=None,
                    help="claimed coefficient bound to test witnesses against")
    return p


def _make_cli_map(args):
    matrix = None
    if args.matrix:
        a, b, c, d = _floats(args.matrix, "matrix must be a,b,c,d", 4)
        matrix = ((a, b), (c, d))
    return make_map(args.map_kind, getattr(args, "domain", None), matrix=matrix,
                    offset=_parse_point(args.offset) if args.matrix else 0j)


def _emit_report(args, name: str, payload: dict, rows=None) -> None:
    if args.out:
        ensure_dir(args.out)
        write_json(os.path.join(args.out, f"{name}.json"), payload)
        if rows:
            write_csv(os.path.join(args.out, f"{name}.csv"), rows)


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors; the documented contract is 1
        # (reserving 2 for property-suite violations).
        return 0 if exc.code in (0, None) else 1
    try:
        return _dispatch(args)
    except QhkitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def _dispatch(args) -> int:
    config = _load_config(args.config)

    if args.command == "qh":
        params = default_mesh_params(args.domain)
        grading = args.grading if args.grading is not None else \
            _convert(float, config.get("grading", params["grading_factor"]),
                     "config grading must be a number")
        bbox = args.bbox or config.get("bbox")
        bbox = params["bbox"] if bbox is None else _floats(bbox, "bbox must be x0,x1,y0,y1", 4)
        region = make_region(args.domain)
        metric = "length" if args.length_metric else "euclidean"
        mesh = build_mesh(region, grading, bbox, metric=metric,
                          max_depth=params.get("max_depth", 12))
        src, dst = _parse_point(args.src), _parse_point(args.dst)
        stats = {} if args.stats else None
        result = qh_distance(mesh, src, dst, stats)
        if stats is not None:
            print("stats: " + json.dumps({"mesh": mesh.stats, "query": stats}), file=sys.stderr)
        print(f"k({args.src} -> {args.dst}) = {result.distance:.6f}  "
              f"[{mesh.node_count} nodes, grading {grading}]")
        oracle = oracle_for(region)
        if oracle and metric == "euclidean":
            exact = qh_distance_exact(oracle, src, dst)
            rel = abs(result.distance - exact) / exact if exact else 0.0
            print(f"oracle = {exact:.6f}   relative error = {rel:.4%}")
        _emit_report(args, "qh", {"domain": args.domain, "from": [src.real, src.imag],
                                  "to": [dst.real, dst.imag], "grading": grading,
                                  "distance": result.distance,
                                  "euclidean_length": result.euclidean_length})
        return 0

    if args.command == "ball":
        region = make_region(args.domain)
        ball = component_ball(region, _parse_point(args.center), args.radius,
                              args.resolution)
        gaps = [abs(p - ball.center) for p in ball.frontier]
        print(f"component ball: {len(ball.nodes)} nodes, {len(ball.frontier)} frontier "
              f"points, spacing {ball.spacing}")
        if gaps:
            print(f"frontier distance range: [{min(gaps):.6f}, {max(gaps):.6f}] "
                  f"(radius {args.radius})")
        _emit_report(args, "ball", {"domain": args.domain, "nodes": len(ball.nodes),
                                    "frontier": len(ball.frontier),
                                    "radius": args.radius,
                                    "resolution": args.resolution})
        return 0

    if args.command == "constants":
        cs = consts.chain_constants(args.H, args.q, args.c, args.cprime,
                                    K0=args.K0, alpha_exp=args.alpha_exp)
        for line in cs.pretty_lines():
            print(line)
        _emit_report(args, "constants", cs.as_dict())
        return 0

    if args.command == "repro":
        overrides = {}
        if args.seed is not None and args.suite != "example-3-1":
            overrides["seed"] = args.seed
        count_param = {"example-1-1": "count", "example-1-8": "pairs",
                       "lemma-3-4": "count", "lemma-3-6": "count"}.get(args.suite)
        if args.count is not None and count_param:
            overrides[count_param] = args.count
        if args.n is not None and args.suite == "example-1-8":
            overrides["witness_ns"] = (args.n,)
        result = run_suite(args.suite, **overrides)
        for a in result.assertions:
            status = "PASS" if a.passed else "FAIL"
            print(f"{status}: {result.name} :: {a.label} :: {a.detail}")
        if args.h is not None:
            # Witness ratios exceeding the claimed bound disprove the claim.
            ratios = [v for k, v in result.values.items()
                      if k.startswith("witness_ratio")]
            if ratios and max(ratios) > args.h:
                print(f"PASS: witness ratio {max(ratios):.5f} exceeds the "
                      f"claimed bound H = {args.h:g}")
            else:
                print(f"claimed bound H = {args.h:g} not exceeded by the "
                      f"computed witnesses")
        _emit_report(args, f"repro-{result.name}", result.report(), result.rows)
        return 0 if result.passed else 2

    # Estimator subcommands share map/spec construction.
    f = _make_cli_map(args)
    spec = _sample_spec(args, config)
    if args.command == "check-qc":
        report = estimate_qc(f, spec)
    elif args.command == "check-wqs":
        report = estimate_weak_qs(f, spec)
    elif args.command == "check-lwqs":
        report = estimate_local_weak_qs(f, spec)
    elif args.command == "check-relative":
        report = estimate_relative(f, spec, args.t0)
    elif args.command == "check-ring":
        report = estimate_ring(f, spec, args.alpha, args.beta)
    elif args.command == "check-semisolid":
        params = default_mesh_params(f.source_region.name)
        grading = args.grading if args.grading is not None else params["grading_factor"]
        mesh = build_mesh(f.source_region, grading, params["bbox"],
                          max_depth=params.get("max_depth", 12))
        backend = MeshBackend(mesh, **semisolid_sampling(f.source_region))
        report = estimate_semisolid(f, backend, MeshBackend(mesh), spec)
        if args.out and args.svg:
            ensure_dir(args.out)
            write_scatter_svg(os.path.join(args.out, "semisolid.svg"),
                              [(t, u) for t, u in report.table],
                              title="k_G vs k_G' scatter")
    else:  # pragma: no cover
        raise QhkitError(f"unhandled command {args.command}")

    kind = "mesh estimate" if args.command == "check-semisolid" else "lower bound"
    print(f"{report.property}: estimate = {report.estimate!r} "
          f"({kind}; {report.samples_used} samples, seed {report.seed})")
    _emit_report(args, args.command, report.to_dict())
    if args.bound is not None and report.estimate > args.bound:
        print(f"estimate exceeds the claimed bound {args.bound:g}: "
              f"the property fails for that coefficient")
        return 2
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
