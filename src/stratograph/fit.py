"""Vertex coordinate recovery: minimize the summed squared distances from
samples to their assigned strata.

The objective couples vertex positions x_j and per-sample coordinates
theta_i in [0, 1] along edges.  Both blocks have exact solvers: each
theta_i is a clamped projection onto its segment, and with thetas fixed
the positions solve a linear least-squares system, separable per ambient
coordinate.  Alternating the two exact steps descends monotonically.

A vertex whose system row is all zero (no sample refers to it, not even
through an edge term) cannot move the objective; it is pinned to its
initial position and reported.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import AbstractGraph, EmbeddedGraph, PointCloud, Stratification
from .geometry import project_many

__all__ = ["FitProblem", "FitResult", "objective", "initialize", "fit"]

# Sweeps of ``fit`` at most, and the decrease of the objective, absolute
# or relative to it, below which a sweep may stop the loop.
_MAX_ITERS = 200
_ABS_TOL = 1e-14
_REL_TOL = 1e-10


class FitProblem:
    """Sample-to-stratum assignments extracted from a stratification.

    Dimension-0 points belong to a vertex cluster j(i); dimension-1 points
    to an ordered endpoint pair (j1(i), j2(i)) with theta = 1 at j1.
    Assignments stay fixed during optimization.
    """

    def __init__(self, cloud: PointCloud, stratification: Stratification):
        if stratification.n_points != len(cloud):
            raise ValueError(f"the stratification covers {stratification.n_points} "
                             f"points, the cloud has {len(cloud)}")
        self.cloud = cloud
        self.stratification = stratification
        # vertex clusters have ids 0..k-1, edge cluster e has id k + e.
        # The endpoint arrays are fancy-indexed copies: strided column
        # views of ``ends`` made every fit iteration slower.
        cluster = stratification.cluster_of
        k = self.n_vertices
        self._d0 = np.flatnonzero(cluster < k)
        self._d0v = cluster[self._d0]
        self._d1 = np.flatnonzero(cluster >= k)
        ends = np.array(stratification.incidence, dtype=int).reshape(-1, 2)
        edge = cluster[self._d1] - k
        self._e1, self._e2 = ends[edge, 0], ends[edge, 1]

    @property
    def n_vertices(self) -> int:
        return len(self.stratification.vertex_clusters)


@dataclass(frozen=True)
class FitResult:
    vertex_positions: np.ndarray
    thetas: np.ndarray
    objective_trace: tuple
    iterations: int
    converged: bool
    pinned: tuple
    edges: tuple

    @property
    def objective(self) -> float:
        return self.objective_trace[-1]

    def embedded_graph(self) -> EmbeddedGraph:
        k = len(self.vertex_positions)
        return EmbeddedGraph(AbstractGraph(k, self.edges), self.vertex_positions)

    def as_dict(self) -> dict:
        return {"vertices": [list(map(float, row)) for row in self.vertex_positions],
                "thetas": [float(t) for t in self.thetas],
                "objective": [float(v) for v in self.objective_trace],
                "iterations": self.iterations,
                "converged": self.converged,
                "pinned": list(self.pinned),
                "edges": [list(e) for e in self.edges]}


def _check_shapes(problem: FitProblem, vertex_positions, thetas):
    x = np.asarray(vertex_positions, dtype=float)
    t = np.asarray(thetas, dtype=float)
    pts = problem.cloud.array
    if x.shape != (problem.n_vertices, pts.shape[1]):
        raise ValueError(f"vertex_positions must have shape "
                         f"{(problem.n_vertices, pts.shape[1])}, got {x.shape}")
    if t.shape != (len(pts),):
        raise ValueError(f"thetas must have shape {(len(pts),)}, got {t.shape}")
    if np.any(t < 0.0) or np.any(t > 1.0):
        raise ValueError("thetas must lie in [0, 1]")
    return x, t


def _residuals(problem: FitProblem, x: np.ndarray, t: np.ndarray) -> np.ndarray:
    pts = problem.cloud.array
    r = np.empty_like(pts)
    if len(problem._d0):
        r[problem._d0] = pts[problem._d0] - x[problem._d0v]
    if len(problem._d1):
        th = t[problem._d1][:, None]
        r[problem._d1] = pts[problem._d1] - th * x[problem._e1] - (1.0 - th) * x[problem._e2]
    return r


def objective(problem: FitProblem, vertex_positions, thetas) -> float:
    """Phi = sum of per-point squared residuals, added left to right on every Python."""
    x, t = _check_shapes(problem, vertex_positions, thetas)
    r = _residuals(problem, x, t)
    return float(np.cumsum(np.einsum("ij,ij->i", r, r))[-1])


def initialize(problem: FitProblem):
    """Starting point: cluster centroids, thetas by projection onto them."""
    pts = problem.cloud.array
    x = np.empty((problem.n_vertices, pts.shape[1]))
    for v_id, cluster in enumerate(problem.stratification.vertex_clusters):
        x[v_id] = pts[list(cluster)].mean(axis=0)
    t = np.zeros(len(pts))
    if len(problem._d1):
        t[problem._d1], _ = project_many(pts[problem._d1], x[problem._e1], x[problem._e2])
    return x, t


def _theta_step(problem: FitProblem, x: np.ndarray, t: np.ndarray) -> np.ndarray:
    t = t.copy()
    if len(problem._d1):
        t[problem._d1], _ = project_many(problem.cloud.array[problem._d1],
                                         x[problem._e1], x[problem._e2])
    return t


def _row_sums(k: int, rows: np.ndarray, terms: np.ndarray) -> np.ndarray:
    """``np.add.at`` of ``terms`` into ``rows`` of a k-row array, to the last
    bit: ``np.bincount`` also adds each entry's terms in index order."""
    out = np.zeros((k, terms.shape[1]))
    for c, column in enumerate(terms.T):
        out[:, c] = np.bincount(rows, column, minlength=k)
    return out


def _x_step(problem: FitProblem, t: np.ndarray, x_init: np.ndarray):
    """Exact minimizer over positions at fixed thetas.

    One symmetric k x k system serves every ambient coordinate.  Vertices
    with an all-zero row do not occur in any term, so they are pinned to
    their initial position; their zero rows never couple to the rest.
    """
    pts = problem.cloud.array
    k, v, e1, e2 = problem.n_vertices, problem._d0v, problem._e1, problem._e2
    c1 = t[problem._d1]
    c2 = 1.0 - c1
    # kinds of term in a fixed order, that of the np.add.at oracle in tests
    cells = np.concatenate([v, e1, e2, e1, e2]) * k + np.concatenate([v, e1, e2, e2, e1])
    weights = np.concatenate([np.ones(len(v)), c1 * c1, c2 * c2, c1 * c2, c1 * c2])
    a = np.bincount(cells, weights, minlength=k * k).reshape(k, k)
    b = _row_sums(k, np.concatenate([v, e1, e2]),
                  np.concatenate([pts[problem._d0], c1[:, None] * pts[problem._d1],
                                  c2[:, None] * pts[problem._d1]]))

    free = np.diag(a) > 0.0
    x = x_init.copy()
    if free.any():
        aff = a[np.ix_(free, free)]
        try:
            x[free] = np.linalg.solve(aff, b[free])
        except np.linalg.LinAlgError:
            x[free] = np.linalg.lstsq(aff, b[free], rcond=None)[0]
    pinned = np.nonzero(~free)[0]
    return x, pinned


def _projected_gradient_norm(problem: FitProblem, x: np.ndarray, t: np.ndarray) -> float:
    """Norm of the gradient with box constraints on theta projected out."""
    r = _residuals(problem, x, t)
    th = t[problem._d1]
    rd = r[problem._d1]
    gx = _row_sums(len(x), np.concatenate([problem._d0v, problem._e1, problem._e2]),
                   np.concatenate([-2.0 * r[problem._d0], -2.0 * th[:, None] * rd,
                                   -2.0 * (1.0 - th)[:, None] * rd]))
    seg = x[problem._e1] - x[problem._e2]
    gt = -2.0 * np.einsum("ij,ij->i", rd, seg)
    gt = np.where((th <= 0.0) & (gt > 0.0), 0.0, gt)
    gt = np.where((th >= 1.0) & (gt < 0.0), 0.0, gt)
    return float(np.sqrt(float(np.dot(gt, gt)) + float(np.sum(gx * gx))))


def fit(problem: FitProblem) -> FitResult:
    """Alternate exact theta and position steps until Phi stops decreasing.

    The trace is non-increasing: a sweep whose recomputed objective fails
    to improve (possible only through rounding at the fixed point) is
    rolled back rather than recorded.  Tiny decreases alone do not stop
    the loop; near the fixed point the objective flattens a few sweeps
    before the gradient finishes decaying, so the tolerance stop also
    demands a near-zero projected gradient.  converged reports that test
    at the final iterate.
    """
    x, t = initialize(problem)
    x_init = x.copy()
    phi = objective(problem, x, t)
    trace = [phi]
    pinned_ever = set()
    iterations, grad = 0, None

    for _ in range(_MAX_ITERS):
        iterations += 1
        t_new = _theta_step(problem, x, t)
        x_new, pinned = _x_step(problem, t_new, x_init)
        phi_new = objective(problem, x_new, t_new)
        if phi_new > phi:
            break
        x, t = x_new, t_new
        pinned_ever.update(int(p) for p in pinned)
        trace.append(phi_new)
        decrease, phi = phi - phi_new, phi_new
        grad = None
        if decrease <= _ABS_TOL or decrease <= _REL_TOL * phi:
            grad = _projected_gradient_norm(problem, x, t)
            if grad <= 1e-6 * (1.0 + phi):
                break

    if grad is None:
        grad = _projected_gradient_norm(problem, x, t)
    converged = grad <= 1e-6 * (1.0 + phi)
    edges = tuple(problem.stratification.incidence)
    return FitResult(vertex_positions=x, thetas=t, objective_trace=tuple(trace),
                     iterations=iterations, converged=converged,
                     pinned=tuple(sorted(pinned_ever)), edges=edges)
