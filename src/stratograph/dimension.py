"""Local dimension classification: is a sample near a vertex or an edge?

For a query sample q the classifier inspects the samples within 10*eps
(the operating notion of "local"):

  (a) if that ball is disconnected at threshold 2*eps, another strand of
      the graph passes nearby without being joined locally, so q sits on
      an edge (dimension 1);
  (b) otherwise the samples at distance in [8*eps, 10*eps] from q are
      grouped at threshold 3*eps; any count other than two component
      means a vertex neighborhood (dimension 0);
  (c) with exactly two components, the angle they span at q separates a
      straight edge from a sharp degree-2 corner.

``classify_point`` evaluates (a), (b), (c) in that order on one ball and
is the reference.  The label is 1 exactly when the ball test (a) or the
annulus test (b)-(c) says 1, so the order of the two cannot change it.
``classify_all`` therefore runs the annulus test first and the ball test
only where the annulus gives 0; most samples on an edge never need the
larger ball graph.  It classifies blocks of at most ``_BLOCK_MEMBERS``
ball members, taking pairs from the neighbourhood graph's adjacency:
apart from one index and two flags per pair, its working set is bounded
by one block.

All thresholds live in ``ClassifierParams`` so experiments can probe them;
the defaults are the operating values above.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .core import DimensionLabels, PointCloud
from .geometry import sq_dists
from .neighbors import NeighborhoodGraph, _min_labels

_DEGENERATE = 1e-12

# Ball members per block of ``classify_all``.  The block's working set
# (members and their candidate pairs) is linear in it, whatever the
# density.  At 1536 the traced peak of classifying a dense (spacing eps/5)
# 3D five-vertex cloud is 1.08 MB, against 1.73 MB for the per-ball
# reference, and masks over a block's members stay above 1 KiB: numpy
# keeps freed blocks below that size in a cache per byte size, so masks
# of every smaller length would leave behind up to 3.5 MB.
_BLOCK_MEMBERS = 1536
# Pairs per chunk when testing pair distances, so that no float array
# spans the whole adjacency.
_BLOCK_PAIRS = 4096


@dataclass(frozen=True)
class ClassifierParams:
    local_radius: float
    annulus_inner: float
    annulus_outer: float
    ball_edge_threshold: float
    annulus_edge_threshold: float
    angle_threshold: float = 2.0 * math.acos(0.25)

    def __post_init__(self):
        if min(self.local_radius, self.annulus_inner, self.annulus_outer,
               self.ball_edge_threshold, self.annulus_edge_threshold) <= 0.0:
            raise ValueError("all classifier radii must be positive")
        if not (self.annulus_inner < self.annulus_outer <= self.local_radius):
            raise ValueError("need annulus_inner < annulus_outer <= local_radius")
        if not (0.0 < self.angle_threshold <= math.pi):
            raise ValueError("angle_threshold must lie in (0, pi]")

    @classmethod
    def from_epsilon(cls, epsilon: float, **overrides) -> "ClassifierParams":
        """Operating thresholds for a declared sample bound ``epsilon``."""
        params = cls(local_radius=10.0 * epsilon,
                     annulus_inner=8.0 * epsilon,
                     annulus_outer=10.0 * epsilon,
                     ball_edge_threshold=2.0 * epsilon,
                     annulus_edge_threshold=3.0 * epsilon)
        return replace(params, **overrides) if overrides else params


def _component_labels(points: np.ndarray, threshold: float):
    """(count, labels) of the threshold graph on a small point set.

    Labels are 0..count-1 in order of each component's smallest member.
    Distances are squared pairwise differences so ties at exactly the
    threshold connect, matching the neighborhood-graph predicate.
    """
    m = len(points)
    if m == 0:
        return 0, np.empty(0, dtype=int)
    diff = points[:, None, :] - points[None, :, :]
    sq = np.einsum("ijk,ijk->ij", diff, diff)
    adj = sq <= threshold * threshold
    labels = np.full(m, -1, dtype=int)
    count = 0
    for seed in range(m):
        if labels[seed] >= 0:
            continue
        comp = adj[seed].copy()
        frontier = comp
        while True:
            new = adj[frontier].any(axis=0) & ~comp
            if not new.any():
                break
            comp |= new
            frontier = new
        labels[comp] = count
        count += 1
    return count, labels


def angle_test(q, comp_a: np.ndarray, comp_b: np.ndarray,
               angle_threshold: float) -> int:
    """Angle at q spanned by the two component centroids: 0 if sharp.

    The comparison happens on cosines (monotone equivalent of comparing
    the arccosine of the clamped normalized dot product), so an angle
    exactly at the threshold is classified 1: equality is not "less than".
    A centroid coinciding with q is degenerate and yields 0.
    """
    q = np.asarray(q, dtype=float)
    ca = np.mean(np.atleast_2d(comp_a), axis=0) - q
    cb = np.mean(np.atleast_2d(comp_b), axis=0) - q
    na = float(np.linalg.norm(ca))
    nb = float(np.linalg.norm(cb))
    if na < _DEGENERATE or nb < _DEGENERATE:
        return 0
    cos_angle = min(1.0, max(-1.0, float(np.dot(ca, cb)) / (na * nb)))
    return 0 if cos_angle > math.cos(angle_threshold) else 1


def _classify_ball(q: np.ndarray, ball: np.ndarray,
                   params: ClassifierParams) -> int:
    n_ball, _ = _component_labels(ball, params.ball_edge_threshold)
    if n_ball != 1:
        return 1

    dq = sq_dists(ball, q)
    lo = params.annulus_inner * params.annulus_inner
    hi = params.annulus_outer * params.annulus_outer
    annulus = ball[(dq >= lo) & (dq <= hi)]

    n_ann, labels = _component_labels(annulus, params.annulus_edge_threshold)
    if n_ann != 2:
        return 0
    return angle_test(q, annulus[labels == 0], annulus[labels == 1],
                      params.angle_threshold)


def classify_point(cloud: PointCloud, graph: NeighborhoodGraph, q_index: int,
                   params: ClassifierParams) -> int:
    """Local dimension of one sample; always returns 0 or 1."""
    pts = cloud.array
    ball_idx = graph.balls(pts[[q_index]], params.local_radius)[0]
    return _classify_ball(pts[q_index], pts[ball_idx], params)


def _upper_pairs(pts: np.ndarray, nbrs, params: ClassifierParams):
    """The pairs i < j listed in ``nbrs``, as CSR rows, with their tests.

    Returns ``(indptr, indices, ann_ok, ball_ok)``: row i of ``indices``
    holds i's later neighbours, and ``ann_ok`` / ``ball_ok`` say whether
    each pair lies within the annulus and ball edge thresholds.  Squared
    distances are compared exactly as ``_component_labels`` compares them,
    on differences taken ``_BLOCK_PAIRS`` pairs at a time.
    """
    n = len(pts)
    lens = np.fromiter(map(len, nbrs), dtype=np.int64, count=n)
    cols = np.concatenate(nbrs)
    rows = np.repeat(np.arange(n, dtype=np.int32), lens)
    keep = cols > rows
    rows, cols = rows[keep], cols[keep].astype(np.int32)
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(rows, minlength=n), out=indptr[1:])
    ann_ok = np.empty(len(cols), dtype=bool)
    ball_ok = np.empty(len(cols), dtype=bool)
    ann = params.annulus_edge_threshold * params.annulus_edge_threshold
    ball = params.ball_edge_threshold * params.ball_edge_threshold
    for lo in range(0, len(cols), _BLOCK_PAIRS):
        hi = lo + _BLOCK_PAIRS
        diff = pts[rows[lo:hi]] - pts[cols[lo:hi]]
        sq = np.einsum("ij,ij->i", diff, diff)
        np.less_equal(sq, ann, out=ann_ok[lo:hi])
        np.less_equal(sq, ball, out=ball_ok[lo:hi])
    return indptr, cols, ann_ok, ball_ok


def _classify_block(pts: np.ndarray, queries: np.ndarray, balls: list,
                    pairs, params: ClassifierParams) -> np.ndarray:
    """Labels of ``queries``, whose local balls are ``balls``.

    The members of all balls are laid out one ball after another, each in
    ascending point order, and a member's position in that layout is its
    node.  A pair from ``pairs`` is an edge of every ball holding both of
    its points.  Component roots are the smallest positions, so the two
    annulus components come in the order ``_component_labels`` gives.
    """
    indptr, indices, ann_ok, ball_ok = pairs
    n = len(pts)
    sizes = np.fromiter(map(len, balls), dtype=np.int64, count=len(balls))
    ends = np.cumsum(sizes)
    flat = np.concatenate(balls)
    owner = np.repeat(np.arange(len(balls)), sizes)
    nodes = np.arange(len(flat))
    keys = owner * n + flat  # ascending: balls in order, members sorted

    def edges(sel: np.ndarray, ok: np.ndarray, inside=None):
        """Pairs passing ``ok`` from the nodes ``sel`` to their own ball,
        or only to its nodes that are ``inside``."""
        starts = indptr[flat[sel]]
        counts = indptr[flat[sel] + 1] - starts
        at = np.repeat(starts - (np.cumsum(counts) - counts), counts)
        at += np.arange(len(at))
        src = np.repeat(sel, counts)
        close = ok[at]
        src = src[close]
        want = owner[src] * n + indices[at[close]]
        dst = np.minimum(np.searchsorted(keys, want), len(keys) - 1)
        hit = keys[dst] == want
        if inside is not None:
            hit &= inside[dst]
        return src[hit], dst[hit]

    dq = sq_dists(pts[flat], pts[queries][owner])
    annulus = ((dq >= params.annulus_inner * params.annulus_inner)
               & (dq <= params.annulus_outer * params.annulus_outer))
    lab = _min_labels(len(flat), *edges(np.flatnonzero(annulus), ann_ok, annulus))
    n_ann = np.bincount(owner[annulus & (lab == nodes)], minlength=len(balls))

    out = np.zeros(len(balls), dtype=int)
    for k in np.flatnonzero(n_ann == 2):
        lo = ends[k] - sizes[k]
        members = np.flatnonzero(annulus[lo:ends[k]]) + lo
        first = lab[members] == members[0]
        out[k] = angle_test(pts[queries[k]], pts[flat[members[first]]],
                            pts[flat[members[~first]]], params.angle_threshold)

    ball_test = out == 0
    if ball_test.any():
        lab = _min_labels(len(flat), *edges(np.flatnonzero(ball_test[owner]), ball_ok))
        n_ball = np.bincount(owner[lab == nodes], minlength=len(balls))
        out[ball_test & (n_ball != 1)] = 1
    return out


def classify_all(cloud: PointCloud, graph: NeighborhoodGraph,
                 params: ClassifierParams | None = None) -> DimensionLabels:
    """Classify every sample; equal to ``classify_point`` on each index.

    Samples are classified in blocks of at most ``_BLOCK_MEMBERS`` ball
    members (or one ball, if larger).  In each block the annulus test runs
    first, and the ball test only for samples whose annulus gives 0: the
    label is 1 when either test says 1, so the order cannot change it.
    Components come from the pairs in ``graph.adjacency``, tested with the
    same squared-distance comparison as the per-ball reference, or from
    ``graph.balls`` when a threshold exceeds ``graph.radius``.  Beyond
    the pair list, memory is bounded by one block.
    """
    if params is None:
        params = ClassifierParams.from_epsilon(cloud.epsilon)
    pts = cloud.array
    n = len(pts)
    reach = max(params.annulus_edge_threshold, params.ball_edge_threshold)
    nbrs = (graph.adjacency if reach <= graph.radius
            else graph.balls(pts, reach))
    pairs = _upper_pairs(pts, nbrs, params)
    out = np.empty(n, dtype=int)
    balls, lo, size = [], 0, 1
    while lo < n:
        if len(balls) < size:
            ahead = pts[lo + len(balls):lo + size]
            balls += graph.balls(ahead, params.local_radius)
        # the leading balls that fit the budget (at least one); the rest wait
        members = np.cumsum([len(b) for b in balls])
        take = max(1, int(np.searchsorted(members, _BLOCK_MEMBERS, side="right")))
        queries = np.arange(lo, lo + take)
        out[queries] = _classify_block(pts, queries, balls[:take], pairs, params)
        # nearby samples have similar balls: size the next block by these
        size = max(1, _BLOCK_MEMBERS * take // int(members[take - 1]))
        balls, lo = balls[take:], lo + take
    return DimensionLabels(out)
