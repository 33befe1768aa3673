"""Certified sample generation for embedded graphs, plus the validators
that certify a cloud and check the geometric assumptions the recovery
pipeline relies on.

The sampling scheme places unperturbed sites at every vertex and along
every edge at spacing at most s, then perturbs each site inside a ball of
radius rho.  Coverage of the graph by sites is s/2, so the cloud is an
eps-sample whenever s/2 + rho <= eps; the option invariants enforce that.

Each site draws ``standard_normal(dim)`` (again while its norm is 0), then
``random()``, from the stream of its vertex block or edge, in site order;
the arithmetic is done per stream, to the last bit of a per-site one.

The certificate takes the graph as one list of segments, a vertex being
one of length 0, and measures every distance with ``project_many``.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import combinations

import numpy as np
from scipy.spatial import cKDTree

from .core import EmbeddedGraph, PointCloud, row_dots
from .geometry import project_many

_MASK64 = (1 << 64) - 1
# sample_graph counts its sites before drawing any and refuses more than
# this: its draws hold about 300 bytes per site, so about 300 MB here.
_MAX_SITES = 1 << 20
# validate_epsilon_sample queries every _STRIDE-th point of each edge's
# resolution net first and fills in only where that cannot decide.
_STRIDE = 16
# Relative rounding margin of its bounds, in units of the largest
# coordinate and distance involved: about 1e4 roundings, far above the
# error of the net points and of the distances.
_ROUNDING = 1e-12
# Net points, knots or samples it takes per tree query, and the nearest
# knots it asks for per sample: on the benchmark's clouds all six are in
# reach for fewer than 1 sample in 2,000.
_BLOCK = 1024
_SLOTS = 6


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

    def resolve(self, epsilon: float) -> "SampleOptions":
        """Fill defaults from epsilon and check the invariants."""
        rho = 0.5 * epsilon if self.noise_radius is None else float(self.noise_radius)
        s = 0.5 * epsilon if self.spacing is None else float(self.spacing)
        if not (0.0 <= rho < epsilon):
            raise ValueError("noise_radius must be < epsilon")
        if not (0.0 < s <= 2.0 * (epsilon - rho)):
            raise ValueError("spacing must satisfy 0 < s <= 2*(epsilon - noise_radius)")
        return SampleOptions(rho, s, int(self.seed) & _MASK64)


def _ball_offsets(rng, count: int, dim: int, radius: float) -> np.ndarray:
    """``count`` draws in a row from the uniform distribution on the closed
    ball of ``radius``, one per row."""
    if radius == 0.0 or count == 0:
        return np.zeros((count, dim))
    state = rng.bit_generator.state
    draws = [(rng.standard_normal(dim), rng.random()) for _ in range(count)]
    directions = np.array([d for d, _ in draws])
    if not row_dots(directions, directions).all():
        # a direction of norm 0 is drawn again before its radius
        rng.bit_generator.state = state
        draws = []
        while len(draws) < count:
            direction = rng.standard_normal(dim)
            if np.linalg.norm(direction) != 0.0:
                draws.append((direction, rng.random()))
        directions = np.array([d for d, _ in draws])
    radii = np.array([radius * u ** (1.0 / dim) for _, u in draws])
    return directions * (radii / np.sqrt(row_dots(directions, directions)))[:, None]


def sample_graph(graph: EmbeddedGraph, epsilon: float,
                 options: SampleOptions | None = None) -> PointCloud:
    """Draw a seeded eps-sample of the graph; d_H(X, |G|) <= eps holds by
    construction.

    Every vertex gets a site, and each edge the sites strictly between its
    ends.  Reproducible: noise for the vertex block and for each edge
    comes from its own seeded stream, so the result does not depend on
    traversal order.  A spacing that asks for more than ``_MAX_SITES``
    sites is a ValueError, raised before anything is drawn.
    """
    if epsilon <= 0.0 or not np.isfinite(epsilon):
        raise ValueError("epsilon must be positive")
    opt = (options or SampleOptions()).resolve(epsilon)
    pos = graph.vertex_positions
    dim = graph.ambient_dim

    lengths = graph.edge_lengths()
    if not lengths.all():
        raise ValueError("zero-length edge")
    # sites along pos[j] -> pos[i], gap <= spacing; the slack keeps a
    # length that is a multiple of it from gaining a spurious subdivision
    pieces = np.maximum(1.0, np.ceil(lengths / opt.spacing * (1.0 - 1e-12)))
    n_sites = len(pos) + float(np.sum(pieces - 1.0))
    if not n_sites <= _MAX_SITES:
        raise ValueError(f"spacing {opt.spacing} asks for {n_sites:.4g} sites, "
                         f"more than the {_MAX_SITES} a cloud may have")

    vrng = np.random.default_rng([opt.seed, 0])
    blocks = [pos + _ball_offsets(vrng, len(pos), dim, opt.noise_radius)]
    for e_idx, (i, j) in enumerate(graph.graph.edges):
        m = int(pieces[e_idx])
        t = np.arange(1, m) / m
        sites = t[:, None] * pos[i] + (1.0 - t)[:, None] * pos[j]
        erng = np.random.default_rng([opt.seed, 1, e_idx])
        blocks.append(sites + _ball_offsets(erng, len(sites), dim, opt.noise_radius))
    return PointCloud(np.concatenate(blocks), epsilon)


def _require_positive(name: str, value) -> None:
    if not (np.isfinite(value) and value > 0.0):
        raise ValueError(f"{name} must be finite and positive")


def _net_points(a, b, m, seg, k):
    """Points t*a[s] + (1-t)*b[s], t = k/m[s], of the segments s = seg:
    for m[s] = max(1, ceil(length/resolution)) and k = 1..m-1 the net of
    segment s; k = 0 and k = m give its ends."""
    t = (k / m[seg])[:, None]
    return t * a[seg] + (1.0 - t) * b[seg]


def _runs(first, items):
    """Run and rank of the items, where run r starts at item first[r]."""
    run = np.searchsorted(first, items, "right") - 1
    return run, items - first[run]


def validate_epsilon_sample(cloud: PointCloud, graph: EmbeddedGraph,
                            epsilon: float | None = None,
                            resolution: float | None = None):
    """Certify the two-sided eps-sample condition; returns (is_valid, d_H bound).

    The sample-to-graph direction d1 is exact (projection onto every
    segment, a vertex being one of length 0).  The coverage direction d2
    is bounded from above by the largest distance from a resolution-net
    point of the graph to its nearest sample (resolution = eps/100 by
    default) plus the resolution/2 slack, so a True verdict is a
    certificate while the returned distance may overestimate the true
    d_H by up to resolution/2.  Both must be finite and positive.  More
    than 2 * ``_MAX_SITES`` + 3 |E| edge pieces of length eps, or 100
    times as many net points, is a ValueError before anything is
    allocated: at spacing up to 2 eps, no graph ``sample_graph`` accepts
    has more.

    Both maxima are found coarse to fine, with the same result, to the
    last bit, as evaluating every net point and every sample.  Tree
    queries take ``_BLOCK`` points at a time.  Beyond the cloud's tree,
    one float per d2 knot and a tree over the d1 knots, it holds one
    block's ``_SLOTS`` nearest knots per sample, or one sample's knots
    in reach, at a time.

    * d2: the knots (every ``_STRIDE``-th net point of every segment,
      and its end) give a lower bound L on the maximum.  The
      nearest-sample distance f is 1-Lipschitz, so between knots a and
      b, H apart, no point exceeds u = (f(a) + f(b) + H)/2; u is kept
      per interval, and only the intervals where it reaches L are filled
      in, with the net's own arithmetic.
    * d1: coarser knots, the midpoints of the equal pieces, at most
      H1 <= eps long, of every segment (a vertex's is the vertex), carry
      their segment.  A sample's distance g to the nearest knot bounds
      its distance from above, and every point of a segment lies within
      H1/2 of one of its knots, so only the segments of knots within
      g + H1/2 can be nearer; only they are measured, with
      ``project_many``.  A sample whose ``_SLOTS`` nearest knots are all
      in reach asks the tree for every knot in reach.

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
    pos = graph.vertex_positions
    if len(pos) == 0:
        raise ValueError("empty graph")
    if pts.shape[1] != graph.ambient_dim:
        raise ValueError("cloud and graph ambient dimensions differ")

    lengths = graph.edge_lengths()
    pieces = np.maximum(1.0, np.ceil(lengths / epsilon))
    net = np.maximum(1.0, np.ceil(lengths / resolution))
    limit = 2 * _MAX_SITES + 3 * len(lengths)
    for name, step, count, most in (("epsilon", epsilon, pieces, limit),
                                    ("resolution", resolution, net, 100 * limit)):
        if not np.sum(count) <= most:
            raise ValueError(f"{name} {step} cuts the graph into {np.sum(count):.4g} "
                             f"pieces, more than the {most} a certificate may take")
    # segments a[s] -> b[s]: every edge, then every vertex v as (v, v) in one piece
    ii, jj = np.array(graph.graph.edges, dtype=np.int64).reshape(-1, 2).T
    a, b = np.concatenate([pos[ii], pos]), np.concatenate([pos[jj], pos])
    lengths = np.append(lengths, np.zeros(len(pos)))
    scale = max(float(np.max(np.abs(pts))), float(np.max(np.abs(pos))))
    tree = cKDTree(pts)
    m = np.append(net, np.ones(len(pos))).astype(np.int64)
    # knots: k = 0, _STRIDE, 2*_STRIDE, ... < m, and m, on every segment; u
    # of the interval from each knot ka < m to the next, kb, H apart
    per_seg = (m - 1) // _STRIDE + 2
    first, total = np.cumsum(per_seg) - per_seg, int(per_seg.sum())
    u, low = np.full(total, -np.inf), 0.0
    for lo in range(0, total, _BLOCK):
        seg, step = _runs(first, np.arange(lo, min(lo + _BLOCK + 1, total)))
        k = np.minimum(step * _STRIDE, m[seg])
        f, _ = tree.query(_net_points(a, b, m, seg, k))
        low = max(low, float(np.max(f)))
        ka, kb, seg = k[:-1], k[1:], seg[:-1]
        bound = 0.5 * (f[:-1] + f[1:] + (kb - ka) / m[seg] * lengths[seg])
        u[lo:lo + len(ka)] = np.where(kb - ka > 1, bound, -np.inf)
    h = float(np.max(np.minimum(_STRIDE, m) / m * lengths))
    seg, ka = _runs(first, np.flatnonzero(u + _ROUNDING * (scale + low + h) >= low))
    del u
    ka = ka * _STRIDE
    counts = np.minimum(ka + _STRIDE, m[seg]) - ka - 1
    first, total = np.cumsum(counts) - counts, int(counts.sum())
    for lo in range(0, total, _BLOCK):
        run, rank = _runs(first, np.arange(lo, min(lo + _BLOCK, total)))
        gaps, _ = tree.query(_net_points(a, b, m, seg[run], ka[run] + 1 + rank))
        low = max(low, float(np.max(gaps)))
    d2 = low + resolution / 2.0
    del tree

    # d1: the midpoints of the m pieces of segment s, each owned by s
    m = np.append(pieces, np.ones(len(pos))).astype(np.int64)
    seg, k = _runs(np.cumsum(m) - m, np.arange(int(m.sum())))
    tree = cKDTree(_net_points(a, b, 2 * m, seg, 2 * k + 1))
    h = float(np.max(lengths / m))
    top = 0.0
    for lo in range(0, len(pts), _BLOCK):
        block = pts[lo:lo + _BLOCK]
        near, knot = tree.query(block, k=_SLOTS)
        reach = near[:, 0] + 0.5 * h + _ROUNDING * (scale + float(np.max(near[:, 0])) + h)
        hit = near <= reach[:, None]
        rows, who = np.nonzero(hit)[0], seg[knot[hit]]
        best = np.full(len(block), np.inf)
        np.minimum.at(best, rows, project_many(block[rows], a[who], b[who])[1])
        for r in np.flatnonzero(hit[:, -1]):
            # every slot in reach: each segment of a knot in reach, once
            who = np.unique(seg[tree.query_ball_point(block[r], reach[r])])
            rows = np.full(len(who), r)
            np.minimum.at(best, rows, project_many(block[rows], a[who], b[who])[1])
        top = max(top, float(np.max(best)))
    d1 = float(np.sqrt(top))
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

    notes = [f"vertex {v} has degree {len(nbrs)}: no incident angle"
             for v, nbrs in enumerate(adjacency) if len(nbrs) < 2]
    # every pair of neighbours (a, b) of every vertex v, a < b
    vab = np.array([(v, a, b) for v, nbrs in enumerate(adjacency)
                    for a, b in combinations(sorted(nbrs), 2)],
                   dtype=np.int64).reshape(-1, 3)
    u, w = pos[vab[:, 1]] - pos[vab[:, 0]], pos[vab[:, 2]] - pos[vab[:, 0]]
    cosines = row_dots(u, w) / (np.sqrt(row_dots(u, u)) * np.sqrt(row_dots(w, w)))
    min_angle = min((math.acos(min(1.0, max(-1.0, c))) for c in cosines.tolist()),
                    default=math.inf)

    lengths = graph.edge_lengths()
    min_len = float(np.min(lengths)) / epsilon if len(lengths) else math.inf

    min_sep = math.inf
    if len(pos) > 1:
        # the tree's closest pair bounds the separation; the pairs within
        # that bound, widened by _ROUNDING, are measured as by np.linalg.norm
        tree = cKDTree(pos)
        bound = np.min(tree.query(pos, k=2)[0][:, 1]) * (1.0 + _ROUNDING)
        diff = np.subtract(*pos[tree.query_pairs(bound, output_type="ndarray").T])
        min_sep = float(np.sqrt(np.min(row_dots(diff, diff)))) / epsilon

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
