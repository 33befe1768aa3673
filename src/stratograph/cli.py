"""Command-line pipeline: generate, reconstruct, fit, evaluate, pipeline,
emit-plot.

Each stage command reads its input files and calls one stage helper,
which writes the stage's artifact, prints one "wrote ..." line and
returns the in-memory result.  ``pipeline`` chains the same helpers on
in-memory objects and writes a manifest of artifact hashes.  It stops at
the first stage that fails, with that stage's exit code: a sample that
fails its d_H <= epsilon certificate stops it with exit 3, after
cloud.json is written and before any later artifact or the manifest.

Exit codes: 0 success, 1 bad options, 2 I/O or parse failure,
3 failed certification or reconstruction, 4 fit non-convergence.  Every
error path prints a single line starting with "error:" to stderr.
"""
from __future__ import annotations

import argparse
import functools
import hashlib
import math
import os
import sys

from .fit import FitProblem, fit as run_fit
from .io import (FormatError, read_cloud, read_embedded_graph, read_fitted,
                 read_stratification, write_cloud, write_fit_result,
                 write_report, write_stratification)
from .metrics import graph_isomorphic, vertex_error
from .sampler import SampleOptions, sample_graph, validate_epsilon_sample
from .stratify import reconstruct_structure

_ARTIFACTS = ("cloud.json", "stratification.json", "fit.json",
              "evaluation.json", "plot.csv")


class _StageError(Exception):
    """A stage failed; ``main`` prints the message and exits with ``code``."""

    def __init__(self, code: int, message: str):
        super().__init__(message)
        self.code = code


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


def _sample_options(args) -> SampleOptions:
    return SampleOptions(noise_radius=args.noise, spacing=args.spacing,
                         seed=args.seed).resolve(args.epsilon)


def _generate(graph, epsilon: float, options: SampleOptions, out: str):
    """Sample ``graph``, write the cloud, and certify d_H <= epsilon."""
    cloud = sample_graph(graph, epsilon, options)
    valid, estimate = validate_epsilon_sample(cloud, graph, epsilon)
    write_cloud(cloud, out)
    if not valid:
        raise _StageError(
            3, f"generated sample failed certification (d_H estimate {estimate})")
    print(f"wrote {out} ({len(cloud)} points), d_H ≤ {epsilon}: ok")
    return cloud


def _reconstruct(cloud, out: str, vertex_threshold: float | None = None):
    cloud.array  # an invalid cloud is bad input (exit 1), as in every stage
    try:
        strat = reconstruct_structure(cloud, vertex_threshold=vertex_threshold)
    except ValueError as exc:
        raise _StageError(3, f"reconstruction failed: {exc}") from exc
    write_stratification(strat, out)
    print(f"wrote {out}: "
          f"{_count(len(strat.vertex_clusters), 'vertex', 'vertices')}, "
          f"{_count(len(strat.edge_clusters), 'edge', 'edges')}")
    return strat


def _require_cover(cloud, strat) -> None:
    """Exit 1 unless ``strat`` partitions exactly the points of ``cloud``."""
    if strat.n_points != len(cloud):
        raise _StageError(1, f"stratification does not match the cloud: the "
                             f"stratification covers {strat.n_points} points, "
                             f"the cloud has {len(cloud)}")


def _fit(cloud, strat, out: str):
    """Fit vertex positions; the result is written even if not converged."""
    _require_cover(cloud, strat)
    result = run_fit(FitProblem(cloud, strat))
    write_fit_result(result, out)
    if not result.converged:
        raise _StageError(
            4, f"fit did not converge within {result.iterations} iterations")
    print(f"wrote {out}: objective {result.objective:.6e}, "
          f"{result.iterations} iterations")
    return result


def _evaluate(fitted, truth, cloud, out: str) -> dict:
    """Score ``fitted`` against ``truth``; with a cloud, also the sample's
    distance to the fitted model."""
    report = {"isomorphic": False, "max_vertex_error": None,
              "mean_vertex_error": None, "hausdorff_sample_to_model": None}
    if graph_isomorphic(fitted.graph, truth.graph) is not None:
        max_err, mean_err, _ = vertex_error(fitted, truth)
        report.update(isomorphic=True, max_vertex_error=max_err,
                      mean_vertex_error=mean_err)
    if cloud is not None:
        _, estimate = validate_epsilon_sample(cloud, fitted, cloud.epsilon)
        report["hausdorff_sample_to_model"] = estimate
    write_report(report, out)
    pieces = [f"isomorphic {str(report['isomorphic']).lower()}"]
    if report["isomorphic"]:
        pieces.append(f"max vertex error {report['max_vertex_error']:.6g}")
    print(f"wrote {out}: " + ", ".join(pieces))
    return report


def _emit_plot(cloud, strat, fitted_positions, out: str) -> list:
    """Plot-ready CSV: one row per sample with its cluster and label (when
    ``strat`` is given), then one row per fitted vertex."""
    dim = cloud.array.shape[1]
    rows = ["kind,cluster,dim," + ",".join(f"x{i}" for i in range(dim))]
    cells = [","] * len(cloud)
    if strat is not None:
        _require_cover(cloud, strat)
        k = len(strat.vertex_clusters)
        cells = [f"v{c},0" if c < k else f"e{c - k},1"
                 for c in strat.cluster_of.tolist()]
    for cell, p in zip(cells, cloud.array):
        coords = ",".join(repr(float(c)) for c in p)
        rows.append(f"sample,{cell},{coords}")
    if fitted_positions is not None:
        for j, p in enumerate(fitted_positions):
            coords = ",".join(repr(float(c)) for c in p)
            rows.append(f"vertex,v{j},0,{coords}")
    os.makedirs(os.path.dirname(os.path.abspath(out)), exist_ok=True)
    with open(out, "w") as fh:
        fh.write("\n".join(rows) + "\n")
    print(f"wrote {out}: {len(rows) - 1} rows")
    return rows


def _cmd_generate(args) -> int:
    options = _sample_options(args)
    _generate(read_embedded_graph(args.graph), args.epsilon, options, args.out)
    return 0


def _cmd_reconstruct(args) -> int:
    cloud = read_cloud(args.cloud, epsilon=args.epsilon)
    _reconstruct(cloud, args.out, args.vertex_threshold)
    return 0


def _cmd_fit(args) -> int:
    cloud = read_cloud(args.cloud, epsilon=args.epsilon)
    _fit(cloud, read_stratification(args.stratification), args.out)
    return 0


def _cmd_evaluate(args) -> int:
    fitted = read_fitted(args.fitted)
    truth = read_embedded_graph(args.truth)
    cloud = (read_cloud(args.cloud, epsilon=args.epsilon)
             if args.cloud is not None else None)
    _evaluate(fitted, truth, cloud, args.out)
    return 0


def _cmd_emit_plot(args) -> int:
    if args.stratification is None and args.fitted is None:
        raise _StageError(1, "emit-plot needs --stratification or --fitted (or both)")
    cloud = read_cloud(args.cloud, epsilon=args.epsilon)
    strat = (read_stratification(args.stratification)
             if args.stratification is not None else None)
    positions = (read_fitted(args.fitted).vertex_positions
                 if args.fitted is not None else None)
    _emit_plot(cloud, strat, positions, args.out)
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
    options = _sample_options(args)
    path = {name: os.path.join(out, name) for name in _ARTIFACTS + ("manifest.json",)}

    cloud = _generate(graph, args.epsilon, options, path["cloud.json"])
    strat = _reconstruct(cloud, path["stratification.json"])
    result = _fit(cloud, strat, path["fit.json"])
    _evaluate(result.embedded_graph(), graph, cloud, path["evaluation.json"])
    _emit_plot(cloud, strat, result.vertex_positions, path["plot.csv"])

    manifest = {"command": "pipeline",
                "graph": os.path.basename(args.graph),
                "epsilon": args.epsilon,
                "noise": options.noise_radius,
                "spacing": options.spacing,
                "seed": args.seed,
                "artifacts": [{"name": name, "sha256": _sha256(path[name])}
                              for name in _ARTIFACTS]}
    write_report(manifest, path["manifest.json"])
    print(f"wrote {path['manifest.json']}")
    return 0


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The parser of every command, built once per process.

    A parser is a reference cycle of a few hundred objects that only a
    full garbage collection frees, so a process that built one per
    ``main`` call kept a growing share of them resident.
    """
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
    except _StageError as exc:
        _err(str(exc))
        return exc.code
    except (FormatError, OSError) as exc:
        _err(str(exc))
        return 2
    except ValueError as exc:
        _err(str(exc))
        return 1


if __name__ == "__main__":
    sys.exit(main())
