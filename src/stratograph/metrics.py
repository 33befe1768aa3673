"""Evaluation metrics: Hausdorff distance between finite point sets,
abstract-graph isomorphism for small graphs, vertex position error under
the best matching isomorphism, and the per-vertex bias of the whole
pipeline over repeated noisy trials.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.spatial import cKDTree

from .core import AbstractGraph, EmbeddedGraph
from .fit import FitProblem, fit
from .sampler import SampleOptions, check_assumptions, sample_graph
from .stratify import reconstruct_structure

_MAX_ISO_VERTICES = 12


class UnsupportedGraphSize(ValueError):
    """Isomorphism search is restricted to small graphs on purpose."""


def hausdorff(a, b) -> float:
    """Exact Hausdorff distance between two finite point sets.

    The maximum over both sets of the distance to the other set: zero iff
    the sets are equal as sets.  Nearest neighbours come from a k-d tree
    over each set, so memory is linear in the sets, not their product.
    """
    a = np.atleast_2d(np.asarray(a, dtype=float))
    b = np.atleast_2d(np.asarray(b, dtype=float))
    if len(a) == 0 or len(b) == 0:
        raise ValueError("hausdorff distance needs two non-empty sets")
    if a.shape[1] != b.shape[1]:
        raise ValueError("ambient dimensions differ")
    return float(max(cKDTree(b).query(a)[0].max(), cKDTree(a).query(b)[0].max()))


def _check_size(g1: AbstractGraph, g2: AbstractGraph):
    biggest = max(g1.vertex_count, g2.vertex_count)
    if biggest > _MAX_ISO_VERTICES:
        raise UnsupportedGraphSize(
            f"isomorphism search supports at most {_MAX_ISO_VERTICES} "
            f"vertices, got {biggest}")


def iter_isomorphisms(g1: AbstractGraph, g2: AbstractGraph):
    """Yield every isomorphism g1 -> g2 as a mapping list (duplicates none).

    Backtracking over vertices in order of decreasing degree, pruning
    candidates by degree and by adjacency to already-mapped neighbors.
    """
    _check_size(g1, g2)
    n = g1.vertex_count
    if n != g2.vertex_count or g1.edge_count != g2.edge_count:
        return
    deg1 = g1.degrees()
    deg2 = g2.degrees()
    if sorted(deg1) != sorted(deg2):
        return
    adj1 = g1.adjacency_sets()
    adj2 = g2.adjacency_sets()
    order = sorted(range(n), key=lambda v: -deg1[v])
    mapping = [-1] * n
    used = [False] * n

    def extend(k):
        if k == n:
            for (i, j) in g1.edges:
                if mapping[j] not in adj2[mapping[i]]:
                    return
            yield list(mapping)
            return
        v = order[k]
        for u in range(n):
            if used[u] or deg1[v] != deg2[u]:
                continue
            ok = True
            for w in adj1[v]:
                if mapping[w] != -1 and mapping[w] not in adj2[u]:
                    ok = False
                    break
            if not ok:
                continue
            mapping[v] = u
            used[u] = True
            yield from extend(k + 1)
            mapping[v] = -1
            used[u] = False

    yield from extend(0)


def graph_isomorphic(g1: AbstractGraph, g2: AbstractGraph):
    """First isomorphism found as a dict {g1 vertex: g2 vertex}, else None.

    The returned mapping is re-verified edge by edge before being handed
    back, so a bug in the search cannot produce a false positive.
    """
    for mapping in iter_isomorphisms(g1, g2):
        adj2 = g2.adjacency_sets()
        for (i, j) in g1.edges:
            if mapping[j] not in adj2[mapping[i]]:
                raise RuntimeError("isomorphism search returned a non-mapping")
        return {v: mapping[v] for v in range(g1.vertex_count)}
    return None


def vertex_error(fitted: EmbeddedGraph, truth: EmbeddedGraph):
    """(max error, mean error, mapping) under the best isomorphism.

    Symmetric embeddings admit several isomorphisms; the one minimizing
    the maximum per-vertex position error is reported (ties broken by
    mean error, then deterministically by enumeration order).
    """
    if fitted.ambient_dim != truth.ambient_dim:
        raise ValueError("ambient dimensions differ")
    best = None
    for mapping in iter_isomorphisms(fitted.graph, truth.graph):
        errs = np.linalg.norm(
            fitted.vertex_positions - truth.vertex_positions[mapping], axis=1)
        key = (float(errs.max()) if len(errs) else 0.0,
               float(errs.mean()) if len(errs) else 0.0)
        if best is None or key < best[0]:
            best = (key, mapping)
    if best is None:
        raise ValueError("graphs are not isomorphic")
    (max_err, mean_err), mapping = best
    return max_err, mean_err, {v: mapping[v] for v in range(len(mapping))}


@dataclass(frozen=True)
class BiasReport:
    """Empirical per-vertex displacement of fitted positions from truth.

    Vertices are indexed as in the true graph; displacement for a trial is
    (fitted - true) under the best isomorphism of that trial.  Failures
    (reconstruction or matching errors) are excluded and counted.
    """
    mean_displacement: np.ndarray
    covariance: np.ndarray
    per_trial: tuple
    trials: int
    failures: int
    failure_messages: tuple
    seed: int

    def as_dict(self) -> dict:
        return {"mean_displacement": [list(map(float, row))
                                      for row in self.mean_displacement],
                "covariance": [[list(map(float, row)) for row in block]
                               for block in self.covariance],
                "trials": self.trials,
                "failures": self.failures,
                "failure_messages": list(self.failure_messages),
                "seed": self.seed}


def _trial_seed(seed: int, trial: int) -> int:
    return int(np.random.SeedSequence([int(seed), int(trial)]).generate_state(1)[0])


def estimate_bias(true_graph: EmbeddedGraph, epsilon: float, trials: int,
                  seed: int = 0, noise_radius: float | None = None,
                  spacing: float | None = None) -> BiasReport:
    """Sample, reconstruct, and fit `trials` times; report displacement stats.

    Purely observational: the report quantifies drift, it does not correct
    it.  Each trial derives its own seed from (seed, trial index), so a
    longer run reproduces a shorter run's prefix exactly.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if not check_assumptions(true_graph, epsilon).passed:
        raise ValueError("true_graph violates the geometric assumptions")
    k = true_graph.graph.vertex_count
    dim = true_graph.ambient_dim
    per_trial = []
    failures = []

    for trial in range(trials):
        opts = SampleOptions(noise_radius=noise_radius, spacing=spacing,
                             seed=_trial_seed(seed, trial))
        try:
            cloud = sample_graph(true_graph, epsilon, opts)
            strat = reconstruct_structure(cloud)
            result = fit(FitProblem(cloud, strat))
            fitted = result.embedded_graph()
            _, _, mapping = vertex_error(fitted, true_graph)
        except (ValueError, np.linalg.LinAlgError) as exc:
            failures.append(f"trial {trial}: {exc}")
            per_trial.append(None)
            continue
        disp = np.empty((k, dim))
        for fitted_v, true_v in mapping.items():
            disp[true_v] = fitted.vertex_positions[fitted_v] - true_graph.vertex_positions[true_v]
        per_trial.append(disp)

    ok = [d for d in per_trial if d is not None]
    mean = np.mean(ok, axis=0) if ok else np.zeros((k, dim))
    cov = np.zeros((k, dim, dim))
    if len(ok) >= 2:
        stack = np.stack(ok)
        for v in range(k):
            cov[v] = np.cov(stack[:, v, :].T, ddof=1).reshape(dim, dim)
    return BiasReport(mean_displacement=mean, covariance=cov,
                      per_trial=tuple(per_trial), trials=trials,
                      failures=len(failures), failure_messages=tuple(failures),
                      seed=int(seed))
