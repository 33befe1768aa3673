"""Matching-based scoring of a fitted graph against the truth.

stratograph's vertex_error and graph_isomorphic search isomorphisms and
stop at 12 vertices, so larger graphs are scored here: fitted vertices are
matched to true ones by linear_sum_assignment on their distances, and the
edge set under that matching must equal the true edge set exactly.  The
matching is the geometric one whenever every vertex lies within 5 eps of
its counterpart, because the workloads keep true vertices at least 20 eps
apart: any other assignment moves some vertex by at least 15 eps, and on
every cycle it permutes it costs more than the geometric one.

Every run checks the scorer with ``rejection_problems``, and every trial
of a five-vertex workload checks it against stratograph's vertex_error.
"""
from __future__ import annotations

from typing import NamedTuple

import numpy as np
from scipy.optimize import linear_sum_assignment
from scipy.spatial.distance import cdist

MAX_ERROR_EPS = 5.0


class Score(NamedTuple):
    max_error: float
    mean_error: float
    problem: str | None  # None when the fitted graph equals the truth


def _edge_set(edges) -> set:
    return {frozenset((int(a), int(b))) for a, b in edges}


def match_score(fitted_positions, fitted_edges, truth_positions, truth_edges,
                max_error: float) -> Score:
    """Score by nearest matching; ``problem`` says why the graphs differ."""
    fitted = np.asarray(fitted_positions, dtype=float)
    truth = np.asarray(truth_positions, dtype=float)
    if len(fitted) != len(truth):
        return Score(np.inf, np.inf, f"{len(fitted)} vertices, expected {len(truth)}")
    cost = cdist(fitted, truth)
    rows, cols = linear_sum_assignment(cost)
    errors = cost[rows, cols]
    mapping = tuple(int(c) for c in cols)
    worst = float(errors.max()) if len(errors) else 0.0
    mean = float(errors.mean()) if len(errors) else 0.0
    if worst > max_error:
        return Score(worst, mean, f"vertex error {worst:.6g} exceeds {max_error:.6g}")
    mapped = _edge_set((mapping[a], mapping[b]) for a, b in fitted_edges)
    if len(mapped) != len(fitted_edges) or mapped != _edge_set(truth_edges):
        return Score(worst, mean, "edge set differs from the truth")
    return Score(worst, mean, None)


def rejection_problems(truth, eps: float) -> list:
    """The scorer must accept the truth and reject two corrupted copies.

    One copy replaces an edge by a non-edge; the other swaps the positions
    of vertex 0 and a vertex with a different neighbourhood.
    """
    pos = truth.vertex_positions
    edges = list(truth.graph.edges)
    bound = MAX_ERROR_EPS * eps
    problems = []
    if match_score(pos, edges, pos, edges, bound).problem is not None:
        problems.append("scorer rejected the truth itself")
    adjacency = truth.graph.adjacency_sets()
    n = len(pos)
    a, b = edges[0]
    c = next(v for v in range(n) if v not in (a, b) and v not in adjacency[a])
    wrong = [(a, c)] + edges[1:]
    if match_score(pos, wrong, pos, edges, bound).problem is None:
        problems.append("scorer accepted a wrong edge set")
    other = next(v for v in range(1, n) if adjacency[v] - {0} != adjacency[0] - {v})
    swapped = pos.copy()
    swapped[[0, other]] = swapped[[other, 0]]
    if match_score(swapped, edges, pos, edges, bound).problem is None:
        problems.append("scorer accepted swapped vertices")
    return problems
