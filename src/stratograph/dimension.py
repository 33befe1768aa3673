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

The label is 1 exactly when the ball test (a) or the annulus test
(b)-(c) says 1, so the order of the two cannot change it.  The per-ball
reference in ``tests/test_dimension.py`` evaluates (a), (b), (c) in that
order on one ball; ``classify_all`` gives its label on every sample but
runs the annulus test first and the ball test only where the annulus
gives 0, so most samples on an edge never need the larger ball graph.
It takes the neighbourhood graph alone and reads the points and
epsilon from its cloud.  It takes balls in blocks of at most
``_BLOCK_MEMBERS`` or three quarters of the cloud's points, whichever
is more, from ``neighbors.query_blocks``, and pairs from the graph's CSR
rows: apart from one index and two flags per pair, its working set is
bounded by one block, and so by a fixed share of the CSR the graph holds.

The angle test (c) runs batched over a block: centroids come from one
sum per (ball, component), norms and dots from one pass.  The batch is
the definition and ``angle_test`` is its one-query case.

All thresholds live in ``ClassifierParams`` so experiments can probe them;
the defaults are the operating values above.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .core import DimensionLabels, row_dots
from .geometry import sq_dists
from .neighbors import NeighborhoodGraph, _gather, _min_labels, query_blocks

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
        radii = (self.local_radius, self.annulus_inner, self.annulus_outer,
                 self.ball_edge_threshold, self.annulus_edge_threshold)
        if not all(math.isfinite(r) and r > 0.0 for r in radii):
            raise ValueError("all classifier radii must be finite and positive")
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


def angle_test(q, comp_a: np.ndarray, comp_b: np.ndarray,
               angle_threshold: float) -> int:
    """Angle at q spanned by the two component centroids: 0 if sharp.

    The comparison happens on cosines (monotone equivalent of comparing
    the arccosine of the clamped normalized dot product), so an angle
    exactly at the threshold is classified 1: equality is not "less than".
    A centroid within ``_DEGENERATE`` of q is degenerate and yields 0.
    """
    comp_a = np.atleast_2d(np.asarray(comp_a, dtype=float))
    comp_b = np.atleast_2d(np.asarray(comp_b, dtype=float))
    side = np.repeat([0, 1], [len(comp_a), len(comp_b)])
    q = np.asarray(q, dtype=float)[None]
    return int(_spans(np.concatenate([comp_a, comp_b]), side, q, angle_threshold)[0])


def _spans(coords: np.ndarray, group: np.ndarray, q: np.ndarray,
           angle_threshold: float) -> np.ndarray:
    """``angle_test`` for each row k of ``q``, whose two components are the
    rows of ``coords`` in groups 2k and 2k + 1.

    Each centroid is its group's sum in row order over its size, as
    ``np.mean`` takes it; norms and dots are BLAS dots, as ``np.linalg.norm``
    and ``np.dot`` take them.
    """
    size = np.bincount(group, minlength=2 * len(q))
    sums = np.stack([np.bincount(group, weights=coords[:, c], minlength=len(size))
                     for c in range(coords.shape[1])], axis=1)
    cent = (sums / size[:, None]).reshape(len(q), 2, -1) - q[:, None]
    ca, cb = cent[:, 0], cent[:, 1]
    na, nb = np.sqrt(row_dots(ca, ca)), np.sqrt(row_dots(cb, cb))
    with np.errstate(divide="ignore", invalid="ignore"):
        sharp = row_dots(ca, cb) / (na * nb) > math.cos(angle_threshold)
    return np.where(sharp | (na < _DEGENERATE) | (nb < _DEGENERATE), 0, 1)


def _upper_pairs(pts: np.ndarray, nbrs, params: ClassifierParams):
    """The pairs i < j of the neighbourhood graph ``nbrs``, with their
    tests.

    Returns ``(indptr, indices, ann_ok, ball_ok)``: row i of ``indices``
    holds i's later neighbours, and ``ann_ok`` / ``ball_ok`` say whether
    each pair lies within the annulus and ball edge thresholds, a pair
    exactly at a threshold included.  Squared distances of differences
    are compared, ``_BLOCK_PAIRS`` pairs at a time.
    """
    n = len(pts)
    rows = np.repeat(np.arange(n, dtype=np.int32), np.diff(nbrs.indptr))
    keep = nbrs.indices > rows
    rows, cols = rows[keep], nbrs.indices[keep].astype(np.int32)
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


def _angle_labels(pts: np.ndarray, queries: np.ndarray, flat: np.ndarray,
                  owner: np.ndarray, annulus: np.ndarray, lab: np.ndarray,
                  angle_threshold: float) -> np.ndarray:
    """``angle_test`` for every query whose annulus has two components.

    ``annulus`` marks the annulus nodes of exactly those queries, in
    order, and ``lab`` their component roots.
    """
    nodes = np.flatnonzero(annulus)
    rank = np.cumsum(np.r_[True, owner[nodes[1:]] != owner[nodes[:-1]]]) - 1
    first = nodes[np.searchsorted(rank, np.arange(len(queries)))]
    group = 2 * rank + (lab[nodes] != first[rank])
    return _spans(pts[flat[nodes]], group, pts[queries], angle_threshold)


def _classify_block(pts: np.ndarray, queries: np.ndarray, balls,
                    pairs, params: ClassifierParams) -> np.ndarray:
    """Labels of ``queries``, whose local balls are ``balls = (sizes, flat)``.

    The members of all balls are laid out in ``flat`` one ball after
    another, each in ascending point order, and a member's position in
    that layout is its node.  A pair from ``pairs`` is an edge of every
    ball holding both of its points.  Component roots are the smallest
    positions, so the two annulus components come in the order of their
    smallest members, as in the per-ball reference.
    """
    indptr, indices, ann_ok, ball_ok = pairs
    n = len(pts)
    sizes, flat = balls
    owner = np.repeat(np.arange(len(sizes)), sizes)
    nodes = np.arange(len(flat))
    keys = owner * n + flat  # ascending: balls in order, members sorted

    def edges(sel: np.ndarray, ok: np.ndarray, inside=None):
        """Pairs passing ``ok`` from the nodes ``sel`` to their own ball,
        or only to its nodes that are ``inside``."""
        counts, at = _gather(indptr, flat[sel])
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
    n_ann = np.bincount(owner[annulus & (lab == nodes)], minlength=len(sizes))

    out = np.zeros(len(sizes), dtype=int)
    two = n_ann == 2
    if two.any():
        out[two] = _angle_labels(pts, queries[two], flat, owner, annulus & two[owner],
                                 lab, params.angle_threshold)

    ball_test = out == 0
    if ball_test.any():
        lab = _min_labels(len(flat), *edges(np.flatnonzero(ball_test[owner]), ball_ok))
        n_ball = np.bincount(owner[lab == nodes], minlength=len(sizes))
        out[ball_test & (n_ball != 1)] = 1
    return out


def classify_all(graph: NeighborhoodGraph,
                 params: ClassifierParams | None = None) -> DimensionLabels:
    """Classify every sample of ``graph.cloud`` with the per-ball tests (a),
    (b), (c), in the order and the blocks the module docstring gives.

    Components come from the pairs of the graph's CSR rows, tested with
    the same squared-distance comparison as the per-ball reference, or of
    a graph at that threshold when it exceeds ``graph.radius``.
    """
    if params is None:
        params = ClassifierParams.from_epsilon(graph.cloud.epsilon)
    pts = graph.cloud.array
    n = len(pts)
    reach = max(params.annulus_edge_threshold, params.ball_edge_threshold)
    nbrs = graph if reach <= graph.radius else NeighborhoodGraph(graph.cloud, reach)
    pairs = _upper_pairs(pts, nbrs, params)
    out = np.empty(n, dtype=int)
    # Large clouds take blocks of up to 3/4 as many ball members as points.
    # A block's working set grows with members times degree, so a share of
    # the points, unlike a share of the CSR entries, keeps it a fixed share
    # of the CSR at any density.  3/4 cuts an 8x8 grid-graph cloud (8,912
    # points) from 357 blocks to 75 at a traced peak of 2.3x the CSR's
    # bytes (1.5x at the floor); clouds under 2,048 points keep the floor.
    for queries, sizes, flat in query_blocks(graph, np.arange(n), params.local_radius,
                                             max(_BLOCK_MEMBERS, 3 * n // 4)):
        out[queries] = _classify_block(pts, queries, (sizes, flat), pairs, params)
    return DimensionLabels(out)
