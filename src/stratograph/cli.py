"""Command-line pipeline: generate, reconstruct, fit, evaluate, pipeline,
emit-plot.

Exit codes: 0 success, 1 bad options, 2 I/O or parse failure,
3 reconstruction failure, 4 fit non-convergence.  Every error path prints
a single line starting with "error:" to stderr.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import sys

from .core import PointCloud
from .fit import FitProblem, fit as run_fit
from .io import (FormatError, read_cloud, read_embedded_graph, read_fit_result,
                 read_stratification, write_cloud, write_fit_result,
                 write_report, write_stratification)
from .metrics import graph_isomorphic, vertex_error
from .sampler import SampleOptions, sample_graph, validate_epsilon_sample
from .stratify import IncidenceError, reconstruct_structure


def _err(msg: str) -> None:
    print(f"error: {msg}", file=sys.stderr)


def _bad_option(args) -> str | None:
    """Why a scale option is unusable (not finite and > 0), or None."""
    for name in ("epsilon", "vertex_threshold"):
        value = getattr(args, name, None)
        if value is not None and not (math.isfinite(value) and value > 0.0):
            flag = "--" + name.replace("_", "-")
            return f"{flag} must be a finite number > 0, got {value}"
    return None


def _count(n: int, singular: str, plural: str) -> str:
    return f"{n} {singular}" if n == 1 else f"{n} {plural}"


def _cmd_generate(args) -> int:
    try:
        options = SampleOptions(noise_radius=args.noise, spacing=args.spacing,
                                seed=args.seed).resolve(args.epsilon)
    except ValueError as exc:
        _err(str(exc))
        return 1
    graph = read_embedded_graph(args.graph)
    cloud = sample_graph(graph, args.epsilon, options)
    valid, estimate = validate_epsilon_sample(cloud, graph, args.epsilon)
    write_cloud(cloud, args.out)
    if not valid:
        _err(f"generated sample failed certification (d_H estimate {estimate})")
        return 3
    print(f"wrote {args.out} ({len(cloud)} points), d_H ≤ {args.epsilon}: ok")
    return 0


def _load_cloud(path: str, epsilon: float | None) -> PointCloud:
    cloud = read_cloud(path, epsilon=epsilon)
    if epsilon is not None and cloud.epsilon != epsilon:
        cloud = PointCloud(cloud.array, epsilon)
    return cloud


def _cmd_reconstruct(args) -> int:
    cloud = _load_cloud(args.cloud, args.epsilon)
    try:
        strat = reconstruct_structure(cloud, vertex_threshold=args.vertex_threshold)
    except IncidenceError as exc:
        _err(str(exc))
        return 3
    except ValueError as exc:
        _err(f"reconstruction failed: {exc}")
        return 3
    write_stratification(strat, args.out)
    print(f"wrote {args.out}: "
          f"{_count(len(strat.vertex_clusters), 'vertex', 'vertices')}, "
          f"{_count(len(strat.edge_clusters), 'edge', 'edges')}")
    return 0


def _cmd_fit(args) -> int:
    cloud = _load_cloud(args.cloud, args.epsilon)
    strat = read_stratification(args.stratification)
    try:
        problem = FitProblem(cloud, strat)
    except ValueError as exc:
        _err(f"stratification does not match the cloud: {exc}")
        return 1
    result = run_fit(problem)
    write_fit_result(result, args.out)
    if not result.converged:
        _err(f"fit did not converge within {result.iterations} iterations")
        return 4
    print(f"wrote {args.out}: objective {result.objective:.6e}, "
          f"{result.iterations} iterations")
    return 0


def _load_fitted(path: str):
    """A fitted model file: FitResult JSON or plain embedded-graph JSON."""
    with open(path) as fh:
        try:
            keys = set(json.load(fh))
        except json.JSONDecodeError as exc:
            raise FormatError(f"{path}: invalid JSON ({exc})") from exc
    if "thetas" in keys:
        return read_fit_result(path).embedded_graph()
    return read_embedded_graph(path)


def _evaluation_report(fitted, truth) -> dict:
    report = {"isomorphic": False, "max_vertex_error": None,
              "mean_vertex_error": None, "hausdorff_sample_to_model": None}
    if graph_isomorphic(fitted.graph, truth.graph) is not None:
        max_err, mean_err, _ = vertex_error(fitted, truth)
        report["isomorphic"] = True
        report["max_vertex_error"] = max_err
        report["mean_vertex_error"] = mean_err
    return report


def _cmd_evaluate(args) -> int:
    fitted = _load_fitted(args.fitted)
    truth = read_embedded_graph(args.truth)
    report = _evaluation_report(fitted, truth)
    if args.cloud is not None:
        cloud = _load_cloud(args.cloud, args.epsilon)
        _, estimate = validate_epsilon_sample(cloud, fitted, cloud.epsilon)
        report["hausdorff_sample_to_model"] = estimate
    write_report(report, args.out)
    pieces = [f"isomorphic {str(report['isomorphic']).lower()}"]
    if report["isomorphic"]:
        pieces.append(f"max vertex error {report['max_vertex_error']:.6g}")
    print(f"wrote {args.out}: " + ", ".join(pieces))
    return 0


def _plot_rows(cloud: PointCloud, strat, fitted_positions) -> list:
    dim = cloud.array.shape[1]
    header = "kind,cluster,dim," + ",".join(f"x{i}" for i in range(dim))
    rows = [header]
    cluster_of = {}
    label_of = {}
    if strat is not None:
        for j, c in enumerate(strat.vertex_clusters):
            for i in c:
                cluster_of[i], label_of[i] = f"v{j}", 0
        for k, c in enumerate(strat.edge_clusters):
            for i in c:
                cluster_of[i], label_of[i] = f"e{k}", 1
    for i, p in enumerate(cloud.array):
        coords = ",".join(repr(float(c)) for c in p)
        rows.append(f"sample,{cluster_of.get(i, '')},{label_of.get(i, '')},{coords}")
    if fitted_positions is not None:
        for j, p in enumerate(fitted_positions):
            coords = ",".join(repr(float(c)) for c in p)
            rows.append(f"vertex,v{j},0,{coords}")
    return rows


def _write_plot(rows: list, path: str):
    parent = os.path.dirname(os.path.abspath(path))
    os.makedirs(parent, exist_ok=True)
    with open(path, "w") as fh:
        fh.write("\n".join(rows) + "\n")


def _cmd_emit_plot(args) -> int:
    if args.stratification is None and args.fitted is None:
        _err("emit-plot needs --stratification or --fitted (or both)")
        return 1
    cloud = _load_cloud(args.cloud, args.epsilon)
    strat = (read_stratification(args.stratification)
             if args.stratification is not None else None)
    positions = (_load_fitted(args.fitted).vertex_positions
                 if args.fitted is not None else None)
    rows = _plot_rows(cloud, strat, positions)
    _write_plot(rows, args.out)
    print(f"wrote {args.out}: {len(rows) - 1} rows")
    return 0


def _sha256(path: str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 16), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _cmd_pipeline(args) -> int:
    out = args.out_dir
    os.makedirs(out, exist_ok=True)
    graph = read_embedded_graph(args.graph)
    try:
        options = SampleOptions(noise_radius=args.noise, spacing=args.spacing,
                                seed=args.seed).resolve(args.epsilon)
    except ValueError as exc:
        _err(str(exc))
        return 1

    cloud_path = os.path.join(out, "cloud.json")
    cloud = sample_graph(graph, args.epsilon, options)
    valid, estimate = validate_epsilon_sample(cloud, graph, args.epsilon)
    write_cloud(cloud, cloud_path)
    print(f"wrote {cloud_path} ({len(cloud)} points), "
          f"d_H ≤ {args.epsilon}: {'ok' if valid else 'FAILED'}")

    strat_path = os.path.join(out, "stratification.json")
    try:
        strat = reconstruct_structure(cloud)
    except ValueError as exc:
        _err(f"reconstruction failed: {exc}")
        return 3
    write_stratification(strat, strat_path)
    print(f"wrote {strat_path}: "
          f"{_count(len(strat.vertex_clusters), 'vertex', 'vertices')}, "
          f"{_count(len(strat.edge_clusters), 'edge', 'edges')}")

    fit_path = os.path.join(out, "fit.json")
    result = run_fit(FitProblem(cloud, strat))
    write_fit_result(result, fit_path)
    print(f"wrote {fit_path}: objective {result.objective:.6e}, "
          f"{result.iterations} iterations")
    if not result.converged:
        _err(f"fit did not converge within {result.iterations} iterations")
        return 4

    eval_path = os.path.join(out, "evaluation.json")
    fitted = result.embedded_graph()
    report = _evaluation_report(fitted, graph)
    _, model_dist = validate_epsilon_sample(cloud, fitted, args.epsilon)
    report["hausdorff_sample_to_model"] = model_dist
    write_report(report, eval_path)
    print(f"wrote {eval_path}: isomorphic {str(report['isomorphic']).lower()}")

    plot_path = os.path.join(out, "plot.csv")
    rows = _plot_rows(cloud, strat, result.vertex_positions)
    _write_plot(rows, plot_path)
    print(f"wrote {plot_path}: {len(rows) - 1} rows")

    artifacts = ["cloud.json", "stratification.json", "fit.json",
                 "evaluation.json", "plot.csv"]
    manifest = {"command": "pipeline",
                "graph": os.path.basename(args.graph),
                "epsilon": args.epsilon,
                "noise": options.noise_radius,
                "spacing": options.spacing,
                "seed": args.seed,
                "artifacts": [{"name": name,
                               "sha256": _sha256(os.path.join(out, name))}
                              for name in artifacts]}
    write_report(manifest, os.path.join(out, "manifest.json"))
    print(f"wrote {os.path.join(out, 'manifest.json')}")
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="stratograph",
        description="Reconstruct embedded graphs from noisy point samples.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="sample a graph into a point cloud")
    p.add_argument("--graph", required=True)
    p.add_argument("--epsilon", type=float, required=True)
    p.add_argument("--noise", type=float, default=None)
    p.add_argument("--spacing", type=float, default=None)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_generate)

    p = sub.add_parser("reconstruct", help="recover structure from a cloud")
    p.add_argument("--cloud", required=True)
    p.add_argument("--epsilon", type=float, required=True)
    p.add_argument("--vertex-threshold", type=float, default=None)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_reconstruct)

    p = sub.add_parser("fit", help="fit vertex positions to a stratified cloud")
    p.add_argument("--cloud", required=True)
    p.add_argument("--stratification", required=True)
    p.add_argument("--epsilon", type=float, default=None)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_fit)

    p = sub.add_parser("evaluate", help="score a fitted model against truth")
    p.add_argument("--fitted", required=True)
    p.add_argument("--truth", required=True)
    p.add_argument("--cloud", default=None)
    p.add_argument("--epsilon", type=float, default=None)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_evaluate)

    p = sub.add_parser("pipeline", help="run every stage into a directory")
    p.add_argument("--graph", required=True)
    p.add_argument("--epsilon", type=float, required=True)
    p.add_argument("--noise", type=float, default=None)
    p.add_argument("--spacing", type=float, default=None)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=_cmd_pipeline)

    p = sub.add_parser("emit-plot", help="flatten results into plot-ready CSV")
    p.add_argument("--cloud", required=True)
    p.add_argument("--stratification", default=None)
    p.add_argument("--fitted", default=None)
    p.add_argument("--epsilon", type=float, default=None)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_emit_plot)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code == 0 else 1
    problem = _bad_option(args)
    if problem is not None:
        _err(problem)
        return 1
    try:
        return args.func(args)
    except (FormatError, OSError) as exc:
        _err(str(exc))
        return 2
    except ValueError as exc:
        _err(str(exc))
        return 1


if __name__ == "__main__":
    sys.exit(main())
