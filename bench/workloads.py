"""The benchmark's workloads: what one trial runs, and how its output is checked.

A trial is the paper's unit of work: sample a cloud, certify it,
reconstruct the structure, fit the embedding and evaluate it.  ``run`` is
the timed part and calls the program only; ``check`` is untimed and
decides whether the trial passed:

  * the cloud certifies as an eps-sample;
  * the fit converges;
  * the recovered abstract graph equals the truth;
  * the worst vertex error is at most 5 eps.

Stage functions are looked up as module attributes at call time
(``sg.fit``, ``cli.main``), so a traced run sees the wrapped names.
"""
from __future__ import annotations

import hashlib
import importlib
import io
import json
import os
import shutil
import traceback
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field

import numpy as np
from scipy.spatial import cKDTree

import stratograph as sg
import graphs
import scoring

cli = importlib.import_module("stratograph.cli")

EPS = graphs.EPS
MAX_ERROR = scoring.MAX_ERROR_EPS * EPS
# The classifier's local ball and the neighbour graph's radius, in eps.
BALL_RADIUS = 10.0 * EPS
GRAPH_RADIUS = 3.0 * EPS
# vertex_error and the matching scorer must agree this closely.
AGREEMENT = 1e-9


@dataclass
class Checked:
    """What ``check`` found for one trial."""
    problems: list
    error_eps: float | None
    digest: str
    counts: dict = field(default_factory=dict)


def _digest(obj) -> str:
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()


def _strat_digest(vertex_clusters, edge_clusters, incidence, extra=()) -> str:
    return _digest([[list(map(int, c)) for c in vertex_clusters],
                    [list(map(int, c)) for c in edge_clusters],
                    [list(map(int, p)) for p in incidence],
                    list(extra)])


def _failure(out: dict) -> str:
    return out["error"].strip().splitlines()[-1]


def geometry_counts(points: np.ndarray, vertex_clusters, edge_clusters,
                    iterations: int) -> dict:
    """Per-layer counts measured from a trial's inputs and outputs.

    Ball sizes and graph edges come from the benchmark's own k-d tree, so
    they do not depend on the program's neighbour index.
    """
    n = len(points)
    tree = cKDTree(points)
    balls = tree.query_ball_point(points, BALL_RADIUS, return_length=True)
    pairs = (int(tree.count_neighbors(tree, GRAPH_RADIUS)) - n) // 2
    return {"sampler.points": n,
            "dimension.ball_mean": float(np.mean(balls)),
            "dimension.ball_max": int(np.max(balls)),
            "dimension.dim0_frac": sum(len(c) for c in vertex_clusters) / n,
            "neighbors.graph_edges": pairs,
            "stratify.vertex_clusters": len(vertex_clusters),
            "stratify.edge_clusters": len(edge_clusters),
            "fit.iterations": int(iterations)}


class LibraryWorkload:
    """Trials through the library API, cycling over one or more truths.

    ``program_scores``: evaluate with stratograph's vertex_error inside
    the trial (graphs of at most 12 vertices); the matching scorer then
    cross-checks it.  Larger graphs are scored by the benchmark alone,
    outside the timed part.
    """

    def __init__(self, truths: tuple, spacing: float | None, program_scores: bool):
        self.truths = truths
        self.round_size = len(truths)
        self.spacing = spacing
        self.program_scores = program_scores

    def set_up(self, work_dir: str):
        self.warm_truth = graphs.warm_up_path()

    def warm_up(self):
        self._trial(self.warm_truth, 0)

    def run(self, k: int, seed: int) -> dict:
        return self._trial(self.truths[k % len(self.truths)], seed)

    def _trial(self, truth, seed: int) -> dict:
        out = {"truth": truth}
        try:
            cloud = sg.sample_graph(truth, EPS,
                                    sg.SampleOptions(spacing=self.spacing, seed=seed))
            out["cloud"] = cloud
            out["certified"], _ = sg.validate_epsilon_sample(cloud, truth, EPS)
            out["strat"] = strat = sg.reconstruct_structure(cloud)
            out["result"] = result = sg.fit(sg.FitProblem(cloud, strat))
            if self.program_scores:
                fitted = result.embedded_graph()
                out["program_error"] = None
                if sg.graph_isomorphic(fitted.graph, truth.graph) is not None:
                    out["program_error"] = sg.vertex_error(fitted, truth)[:2]
        except Exception:  # a failing trial is counted, not fatal
            out["error"] = traceback.format_exc()
        return out

    def check(self, out: dict, spans) -> Checked:
        if "error" in out:
            return Checked([_failure(out)], None, _digest(_failure(out)))
        truth, strat, result = out["truth"], out["strat"], out["result"]
        problems = []
        if not out["certified"]:
            problems.append("cloud did not certify")
        if not result.converged:
            problems.append("fit did not converge")
        score = scoring.match_score(result.vertex_positions, result.edges,
                                    truth.vertex_positions, truth.graph.edges,
                                    MAX_ERROR)
        if score.problem is not None:
            problems.append(score.problem)
        if self.program_scores:
            problems += _agreement(out["program_error"], score)
        counts = {}
        if spans is not None:
            counts = geometry_counts(out["cloud"].array, strat.vertex_clusters,
                                     strat.edge_clusters, result.iterations)
        error_eps = score.max_error / EPS if np.isfinite(score.max_error) else None
        return Checked(problems, error_eps,
                       _strat_digest(strat.vertex_clusters, strat.edge_clusters,
                                     strat.incidence), counts)


def _agreement(program_error, score) -> list:
    """The matching scorer and vertex_error must give the same verdict and error."""
    if score.problem is None:
        if program_error is None:
            return ["scorer accepted a graph graph_isomorphic rejected"]
        gap = max(abs(program_error[0] - score.max_error),
                  abs(program_error[1] - score.mean_error))
        if gap > AGREEMENT:
            return [f"scorer and vertex_error differ by {gap:.3e}"]
    elif program_error is not None and program_error[0] <= MAX_ERROR:
        return ["scorer rejected a graph vertex_error accepted"]
    return []


def _sha256(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _load(path: str) -> dict:
    with open(path) as fh:
        return json.load(fh)


def _same_bytes(a: str, b: str) -> bool:
    with open(a, "rb") as fa, open(b, "rb") as fb:
        return fa.read() == fb.read()


class CliWorkload:
    """Each trial runs ``pipeline`` into its own directory, then
    ``reconstruct`` and ``fit`` again on the files it wrote."""

    round_size = 1

    def __init__(self):
        self.truth = graphs.five_vertex(graphs.EMBED_2D)
        self.work_dir = None

    def set_up(self, work_dir: str):
        self.work_dir = work_dir
        self.graph_path = os.path.join(work_dir, "truth.json")
        sg.write_embedded_graph(self.truth, self.graph_path)
        self.warm_path = os.path.join(work_dir, "warm-up.json")
        sg.write_embedded_graph(graphs.warm_up_path(), self.warm_path)

    def warm_up(self):
        out = self._trial(self.warm_path, "warm-up", 0)
        shutil.rmtree(out["dir"])

    def run(self, k: int, seed: int) -> dict:
        return self._trial(self.graph_path, f"trial-{k}", seed)

    def _trial(self, graph_path: str, name: str, seed: int) -> dict:
        d = os.path.join(self.work_dir, name)
        rerun = os.path.join(d, "rerun")
        cloud = os.path.join(d, "cloud.json")
        eps = repr(EPS)
        commands = (
            ["pipeline", "--graph", graph_path, "--epsilon", eps,
             "--seed", str(seed), "--out-dir", d],
            ["reconstruct", "--cloud", cloud, "--epsilon", eps,
             "--out", os.path.join(rerun, "stratification.json")],
            ["fit", "--cloud", cloud,
             "--stratification", os.path.join(rerun, "stratification.json"),
             "--out", os.path.join(rerun, "fit.json")])
        codes = []
        stdout, stderr = io.StringIO(), io.StringIO()
        with redirect_stdout(stdout), redirect_stderr(stderr):
            for argv in commands:
                codes.append(cli.main(argv))
                if codes[-1] != 0:
                    break
        return {"dir": d, "codes": codes, "stderr": stderr.getvalue()}

    def check(self, out: dict, spans) -> Checked:
        try:
            return self._check(out, spans)
        except (OSError, KeyError, TypeError, ValueError) as exc:
            reason = f"unreadable artifacts: {type(exc).__name__}: {exc}"
            return Checked([reason], None, _digest(reason))
        finally:
            shutil.rmtree(out["dir"], ignore_errors=True)

    def _check(self, out: dict, spans) -> Checked:
        d = out["dir"]
        if out["codes"] != [0, 0, 0]:
            reason = f"exit codes {out['codes']}: {out['stderr'].strip()}"
            return Checked([reason], None, _digest(reason))
        problems = []
        strat = _load(os.path.join(d, "stratification.json"))
        fit_doc = _load(os.path.join(d, "fit.json"))
        evaluation = _load(os.path.join(d, "evaluation.json"))
        manifest = _load(os.path.join(d, "manifest.json"))
        cloud_doc = _load(os.path.join(d, "cloud.json"))
        points = np.array(cloud_doc["points"], dtype=float)

        certified, _ = sg.validate_epsilon_sample(
            sg.PointCloud(points, cloud_doc["epsilon"]), self.truth, EPS)
        if not certified:
            problems.append("cloud did not certify")
        if not fit_doc["converged"]:
            problems.append("fit did not converge")
        score = scoring.match_score(fit_doc["vertices"], fit_doc["edges"],
                                    self.truth.vertex_positions,
                                    self.truth.graph.edges, MAX_ERROR)
        if score.problem is not None:
            problems.append(score.problem)
        if not evaluation["isomorphic"]:
            problems.append("evaluation.json: not isomorphic")
        elif abs(evaluation["max_vertex_error"] - score.max_error) > AGREEMENT:
            problems.append("evaluation.json max_vertex_error disagrees with the scorer")
        for name in ("stratification.json", "fit.json"):
            if not _same_bytes(os.path.join(d, name), os.path.join(d, "rerun", name)):
                problems.append(f"re-run {name} differs from the pipeline's")
        hashes = [(a["name"], a["sha256"]) for a in manifest["artifacts"]]
        for name, sha in hashes:
            if _sha256(os.path.join(d, name)) != sha:
                problems.append(f"manifest hash of {name} does not match the file")

        counts = {}
        if spans is not None:
            counts = geometry_counts(points, strat["vertex_clusters"],
                                     strat["edge_clusters"], fit_doc["iterations"])
            counts["io.bytes_written"] = sum(
                os.path.getsize(os.path.join(root, f))
                for root, _, files in os.walk(d) for f in files)
        error_eps = score.max_error / EPS if np.isfinite(score.max_error) else None
        return Checked(problems, error_eps,
                       _strat_digest(strat["vertex_clusters"], strat["edge_clusters"],
                                     strat["incidence"], hashes), counts)


@dataclass(frozen=True)
class Spec:
    make: object
    # Every timed run completes at least this many trials (about half of
    # what fits in one run); the digest and the worst vertex error cover
    # exactly these, so runs of different speed compare the same trials.
    scored_trials: int


# Why each workload exists is recorded in BENCHMARK.json.
WORKLOADS = {
    "sweep-5v": Spec(
        lambda: LibraryWorkload((graphs.five_vertex(graphs.EMBED_2D),
                                 graphs.five_vertex(graphs.EMBED_3D)), None, True),
        100),
    "dense-5v": Spec(
        lambda: LibraryWorkload((graphs.five_vertex(graphs.EMBED_2D),
                                 graphs.five_vertex(graphs.EMBED_3D)), EPS / 5, True),
        24),
    "lattice-8x8": Spec(
        lambda: LibraryWorkload((graphs.lattice(8, 4.0),), None, False),
        5),
    "cli-5v": Spec(CliWorkload, 48),
}
