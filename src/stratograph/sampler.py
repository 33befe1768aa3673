"""Certified sample generation for embedded graphs, plus the validators
that certify a cloud and check the geometric assumptions the recovery
pipeline relies on.

The sampling scheme places unperturbed sites at every vertex and along
every edge at spacing at most s, then perturbs each site inside a ball of
radius rho.  Coverage of the graph by sites is s/2, so the cloud is an
eps-sample whenever s/2 + rho <= eps; the option invariants enforce that.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.spatial import cKDTree

from .core import EmbeddedGraph, PointCloud
from .geometry import dist_to_embedded_graph, uniform_ball

_MASK64 = (1 << 64) - 1
# validate_epsilon_sample queries every _STRIDE-th point of each edge's
# resolution net first and fills in only where that cannot decide.
_STRIDE = 16
# Relative rounding margin of its bounds, in units of the largest
# coordinate and distance involved: about 1e4 roundings, far above the
# error of the net points and of the distances.
_ROUNDING = 1e-12


@dataclass(frozen=True)
class SampleOptions:
    """Knobs for sample_graph; None means the epsilon-derived default.

    noise_radius: perturbation bound rho, default eps/2, must stay < eps.
    spacing: maximum gap s between neighboring sites on an edge, default
        eps/2; must satisfy s <= 2*(eps - rho) so coverage survives noise.
    """
    noise_radius: float | None = None
    spacing: float | None = None
    seed: int = 0
    include_vertices: bool = True

    def resolve(self, epsilon: float) -> "SampleOptions":
        """Fill defaults from epsilon and check the invariants."""
        rho = 0.5 * epsilon if self.noise_radius is None else float(self.noise_radius)
        s = 0.5 * epsilon if self.spacing is None else float(self.spacing)
        if not (0.0 <= rho < epsilon):
            raise ValueError("noise_radius must be < epsilon")
        if not (0.0 < s <= 2.0 * (epsilon - rho)):
            raise ValueError("spacing must satisfy 0 < s <= 2*(epsilon - noise_radius)")
        return SampleOptions(rho, s, int(self.seed) & _MASK64, self.include_vertices)


def _edge_sites(a: np.ndarray, b: np.ndarray, spacing: float, interior_only: bool):
    """Evenly spaced sites along segment b -> a, gap <= spacing.

    The small relative slack keeps a segment whose length is an exact
    multiple of the spacing from gaining a spurious extra subdivision.
    """
    length = float(np.linalg.norm(a - b))
    if length == 0.0:
        raise ValueError("zero-length edge")
    m = max(1, math.ceil(length / spacing * (1.0 - 1e-12)))
    ks = range(1, m) if interior_only else range(0, m + 1)
    return [(k / m) * a + (1.0 - k / m) * b for k in ks]


def sample_graph(graph: EmbeddedGraph, epsilon: float,
                 options: SampleOptions | None = None) -> PointCloud:
    """Draw a seeded eps-sample of the graph; d_H(X, |G|) <= eps holds by
    construction.

    Reproducible: noise for the vertex block and for each edge comes from
    its own seeded stream, so the result does not depend on traversal
    order.  Isolated vertices always receive a site even when
    include_vertices is off, otherwise they could never be covered.
    """
    if epsilon <= 0.0 or not np.isfinite(epsilon):
        raise ValueError("epsilon must be positive")
    opt = (options or SampleOptions()).resolve(epsilon)
    pos = graph.vertex_positions
    dim = graph.ambient_dim
    degrees = graph.graph.degrees()

    points = []
    vrng = np.random.default_rng([opt.seed, 0])
    for v in range(len(pos)):
        if opt.include_vertices or degrees[v] == 0:
            points.append(pos[v] + uniform_ball(vrng, dim, opt.noise_radius))
        else:
            uniform_ball(vrng, dim, opt.noise_radius)

    for e_idx, (i, j) in enumerate(graph.graph.edges):
        erng = np.random.default_rng([opt.seed, 1, e_idx])
        for site in _edge_sites(pos[i], pos[j], opt.spacing, opt.include_vertices):
            points.append(site + uniform_ball(erng, dim, opt.noise_radius))

    return PointCloud(points, epsilon, ambient_dim=dim)


def _require_positive(name: str, value) -> None:
    if not (np.isfinite(value) and value > 0.0):
        raise ValueError(f"{name} must be finite and positive")


def _net_points(pos, ii, jj, m, edge, k):
    """Points k of the resolution nets of the given edges.

    Edge e = (ii[e], jj[e]) with m[e] = max(1, ceil(length/resolution))
    has the net t*pos[ii[e]] + (1-t)*pos[jj[e]], t = k/m[e], k = 1..m-1;
    k = 0 and k = m give its vertices.
    """
    t = (k / m[edge])[:, None]
    return t * pos[ii[edge]] + (1.0 - t) * pos[jj[edge]]


def validate_epsilon_sample(cloud: PointCloud, graph: EmbeddedGraph,
                            epsilon: float | None = None,
                            resolution: float | None = None):
    """Certify the two-sided eps-sample condition; returns (is_valid, d_H bound).

    The sample-to-graph direction d1 is exact (projection onto every
    segment and vertex).  The coverage direction d2 is bounded from above
    by the largest distance from a resolution-net point of the graph to
    its nearest sample (resolution = eps/100 by default) plus the
    resolution/2 slack, so a True verdict is a certificate while the
    returned distance may overestimate the true d_H by up to
    resolution/2.  Both must be finite and positive.

    Both maxima are found coarse to fine, with the same result, to the
    last bit, as evaluating every net point and every sample:

    * d2: the coarse net (the vertices and, on every edge, every
      ``_STRIDE``-th net point) gives a lower bound L on the maximum.
      The nearest-sample distance f is 1-Lipschitz, so between coarse
      points a and b, H apart, no point exceeds (f(a) + f(b) + H)/2;
      only the intervals where that reaches L are filled in, with the
      net's own arithmetic.
    * d1: every graph point lies within H/2 of the coarse net, so a
      sample's distance g to the coarse net exceeds its exact distance by
      at most H/2 and never falls below it.  Only samples with g at least
      max(g) - H/2 can hold the maximum; the exact projection runs on
      those.

    Every comparison is widened by ``_ROUNDING`` times the largest
    coordinate and distance involved, toward refining more.
    """
    if epsilon is None:
        epsilon = cloud.epsilon
    _require_positive("epsilon", epsilon)
    if resolution is None:
        resolution = epsilon / 100.0
    _require_positive("resolution", resolution)
    pts = cloud.array
    if len(pts) == 0:
        raise ValueError("empty cloud")
    pos = graph.vertex_positions
    if len(pos) == 0:
        raise ValueError("empty graph")
    if pts.shape[1] != graph.ambient_dim:
        raise ValueError("cloud and graph ambient dimensions differ")

    edges = graph.graph.edges
    ii = np.array([i for i, _ in edges], dtype=np.int64)
    jj = np.array([j for _, j in edges], dtype=np.int64)
    lengths = np.array([float(np.linalg.norm(pos[i] - pos[j])) for i, j in edges])
    m = np.maximum(1, np.ceil(lengths / resolution)).astype(np.int64)
    # knots: k = 0, _STRIDE, 2*_STRIDE, ... < m, and m, on every edge
    per_edge = (m - 1) // _STRIDE + 2
    knot_edge = np.repeat(np.arange(len(m)), per_edge)
    step = np.arange(len(knot_edge)) - np.repeat(np.cumsum(per_edge) - per_edge, per_edge)
    knot_k = np.minimum(step * _STRIDE, m[knot_edge])
    knots = _net_points(pos, ii, jj, m, knot_edge, knot_k)
    tree = cKDTree(pts)
    f, _ = tree.query(knots)
    low = max(float(np.max(tree.query(pos)[0])), float(np.max(f, initial=0.0)))

    # the intervals between consecutive knots of an edge, H apart
    a = np.flatnonzero(knot_k < m[knot_edge])
    edge = knot_edge[a]
    ka, kb = knot_k[a], knot_k[a + 1]
    gap = (kb - ka) / m[edge] * lengths[edge]
    h = float(np.max(gap, initial=0.0))

    near, _ = cKDTree(np.vstack([pos, knots])).query(pts)
    top = float(np.max(near))
    scale = max(float(np.max(np.abs(pts))), float(np.max(np.abs(pos))))
    tol = _ROUNDING * (scale + max(low, top) + h)

    fill = np.flatnonzero((0.5 * (f[a] + f[a + 1] + gap) + tol >= low)
                          & (kb - ka > 1))
    counts = kb[fill] - ka[fill] - 1
    start = np.cumsum(counts) - counts
    k = np.repeat(ka[fill] - start + 1, counts) + np.arange(int(counts.sum()))
    gaps, _ = tree.query(_net_points(pos, ii, jj, m, np.repeat(edge[fill], counts), k))
    d2 = max(low, float(np.max(gaps, initial=0.0))) + resolution / 2.0

    maybe = near + tol >= top - 0.5 * h
    d1 = float(np.max(dist_to_embedded_graph(pts[maybe], pos, edges)))

    return (d1 <= epsilon and d2 <= epsilon), max(d1, d2)


@dataclass(frozen=True)
class AssumptionReport:
    """Geometry checks the recovery guarantees depend on.

    Lengths and separations are reported in units of epsilon.  Passing
    requires incident angles >= pi/6, edge lengths >= 30 eps, and vertex
    separation >= 20 eps.
    """
    min_incident_angle: float
    min_edge_length: float
    min_vertex_separation: float
    passed: bool
    violations: tuple = ()
    notes: tuple = ()

    def as_dict(self) -> dict:
        return {"min_incident_angle": self.min_incident_angle,
                "min_edge_length": self.min_edge_length,
                "min_vertex_separation": self.min_vertex_separation,
                "pass": self.passed,
                "violations": list(self.violations),
                "notes": list(self.notes)}


def check_assumptions(graph: EmbeddedGraph, epsilon: float) -> AssumptionReport:
    """Measure the embedding against the operating-range assumptions."""
    if epsilon <= 0.0 or not np.isfinite(epsilon):
        raise ValueError("epsilon must be positive")
    pos = graph.vertex_positions
    adjacency = graph.graph.adjacency_sets()

    min_angle = math.inf
    notes = []
    for v, nbrs in enumerate(adjacency):
        if len(nbrs) < 2:
            notes.append(f"vertex {v} has degree {len(nbrs)}: no incident angle")
            continue
        nbrs = sorted(nbrs)
        for ai in range(len(nbrs)):
            for bi in range(ai + 1, len(nbrs)):
                u = pos[nbrs[ai]] - pos[v]
                w = pos[nbrs[bi]] - pos[v]
                cosang = float(np.dot(u, w) / (np.linalg.norm(u) * np.linalg.norm(w)))
                min_angle = min(min_angle, math.acos(min(1.0, max(-1.0, cosang))))

    lengths = graph.edge_lengths()
    min_len = float(np.min(lengths)) / epsilon if len(lengths) else math.inf

    min_sep = math.inf
    if len(pos) > 1:
        # the tree's closest pair bounds the separation; the pairs within
        # that bound, widened by _ROUNDING, are measured with np.linalg.norm
        tree = cKDTree(pos)
        bound = np.min(tree.query(pos, k=2)[0][:, 1]) * (1.0 + _ROUNDING)
        min_sep = min(float(np.linalg.norm(pos[i] - pos[j])) for i, j in
                      tree.query_pairs(bound, output_type="ndarray").tolist()) / epsilon

    violations = []
    if min_angle < math.pi / 6.0:
        violations.append(f"min incident angle {min_angle:.4f} rad < pi/6")
    if min_len < 30.0:
        violations.append(f"min edge length {min_len:.2f} eps < 30 eps")
    if min_sep < 20.0:
        violations.append(f"min vertex separation {min_sep:.2f} eps < 20 eps")

    return AssumptionReport(min_angle, min_len, min_sep,
                            passed=not violations,
                            violations=tuple(violations), notes=tuple(notes))
