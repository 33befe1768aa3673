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
rows: apart from one index and one flag per pair, its working set is
bounded by one block, and so by a fixed share of the CSR the graph holds.

The angle test (c) runs batched over a block: centroids come from one
sum per (ball, component), norms and dots from one pass.  The batch is
the definition and ``angle_test`` is its one-query case.

Every threshold is a fixed multiple of epsilon (Aanjaneya et al.,
"Metric graph reconstruction from noisy data", SoCG 2011): the local
radius ``_LOCAL``, the annulus ``_ANNULUS_INNER`` to ``_ANNULUS_OUTER``,
the ball's edge threshold ``_BALL_EDGE``, and the angle ``_ANGLE``.  Each
radius is taken as ``c * eps`` and compared squared, as ``r * r``.  The
annulus's edge threshold is the neighbourhood graph's radius, 3 eps, so
its pairs are the graph's CSR rows.
"""
from __future__ import annotations

import math

import numpy as np

from .core import DimensionLabels, row_dots
from .geometry import sq_dists
from .neighbors import NeighborhoodGraph, _gather, _min_labels, query_blocks

# Radii in units of epsilon: the local ball, the annulus inside it, and
# the ball's edge threshold; and the angle below which two annulus
# centroids make a sharp corner.
_LOCAL, _ANNULUS_INNER, _ANNULUS_OUTER = 10.0, 8.0, 10.0
_BALL_EDGE = 2.0
_ANGLE = 2.0 * math.acos(0.25)
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


def angle_test(q, comp_a: np.ndarray, comp_b: np.ndarray,
               angle_threshold: float) -> int:
    """Angle at q spanned by the two component centroids: 0 if sharp.

    The comparison happens on cosines (monotone equivalent of comparing
    the arccosine of the clamped normalized dot product), so an angle
    exactly at the threshold is classified 1: equality is not "less than".
    A centroid within ``_DEGENERATE`` of q is degenerate and yields 0.
    ``angle_threshold`` must lie in (0, pi].
    """
    if not 0.0 < angle_threshold <= math.pi:
        raise ValueError(f"angle_threshold must lie in (0, pi], got {angle_threshold!r}")
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


def _upper_pairs(graph: NeighborhoodGraph):
    """The pairs i < j of ``graph``, with the ball's edge test.

    Returns ``(indptr, indices, ball_ok)``: row i of ``indices`` holds i's
    later neighbours, and ``ball_ok`` says whether each pair lies within
    the ball edge threshold, a pair exactly at it included.  Squared
    distances of differences are compared, ``_BLOCK_PAIRS`` pairs at a
    time.  Every pair lies within the annulus edge threshold, the graph's
    radius.
    """
    pts, n = graph.cloud.array, graph.n_points
    rows = np.repeat(np.arange(n, dtype=np.int32), np.diff(graph.indptr))
    keep = graph.indices > rows
    rows, cols = rows[keep], graph.indices[keep].astype(np.int32)
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(rows, minlength=n), out=indptr[1:])
    ball_ok = np.empty(len(cols), dtype=bool)
    edge = _BALL_EDGE * graph.cloud.epsilon
    for lo in range(0, len(cols), _BLOCK_PAIRS):
        hi = lo + _BLOCK_PAIRS
        diff = pts[rows[lo:hi]] - pts[cols[lo:hi]]
        np.less_equal(np.einsum("ij,ij->i", diff, diff), edge * edge, out=ball_ok[lo:hi])
    return indptr, cols, ball_ok


def _angle_labels(pts: np.ndarray, queries: np.ndarray, flat: np.ndarray,
                  owner: np.ndarray, annulus: np.ndarray, lab: np.ndarray) -> np.ndarray:
    """``angle_test`` for every query whose annulus has two components.

    ``annulus`` marks the annulus nodes of exactly those queries, in
    order, and ``lab`` their component roots.
    """
    nodes = np.flatnonzero(annulus)
    rank = np.cumsum(np.r_[True, owner[nodes[1:]] != owner[nodes[:-1]]]) - 1
    first = nodes[np.searchsorted(rank, np.arange(len(queries)))]
    group = 2 * rank + (lab[nodes] != first[rank])
    return _spans(pts[flat[nodes]], group, pts[queries], _ANGLE)


def _classify_block(graph: NeighborhoodGraph, queries: np.ndarray, balls,
                    pairs) -> np.ndarray:
    """Labels of ``queries``, whose local balls are ``balls = (sizes, flat)``.

    The members of all balls are laid out in ``flat`` one ball after
    another, each in ascending point order, and a member's position in
    that layout is its node.  A pair from ``pairs`` is an edge of every
    ball holding both of its points.  Component roots are the smallest
    positions, so the two annulus components come in the order of their
    smallest members, as in the per-ball reference.
    """
    indptr, indices, ball_ok = pairs
    pts, eps = graph.cloud.array, graph.cloud.epsilon
    n = len(pts)
    sizes, flat = balls
    owner = np.repeat(np.arange(len(sizes)), sizes)
    nodes = np.arange(len(flat))
    keys = owner * n + flat  # ascending: balls in order, members sorted

    def edges(sel: np.ndarray, ok=None, inside=None):
        """Pairs from the nodes ``sel`` to their own ball: those passing
        ``ok``, or those to its nodes that are ``inside``."""
        counts, at = _gather(indptr, flat[sel])
        src = np.repeat(sel, counts)
        if ok is not None:
            close = ok[at]
            src, at = src[close], at[close]
        want = owner[src] * n + indices[at]
        dst = np.minimum(np.searchsorted(keys, want), len(keys) - 1)
        hit = keys[dst] == want
        if inside is not None:
            hit &= inside[dst]
        return src[hit], dst[hit]

    dq = sq_dists(pts[flat], pts[queries][owner])
    inner, outer = _ANNULUS_INNER * eps, _ANNULUS_OUTER * eps
    annulus = (dq >= inner * inner) & (dq <= outer * outer)
    lab = _min_labels(len(flat), *edges(np.flatnonzero(annulus), inside=annulus))
    n_ann = np.bincount(owner[annulus & (lab == nodes)], minlength=len(sizes))

    out = np.zeros(len(sizes), dtype=int)
    two = n_ann == 2
    if two.any():
        out[two] = _angle_labels(pts, queries[two], flat, owner, annulus & two[owner], lab)

    ball_test = out == 0
    if ball_test.any():
        lab = _min_labels(len(flat), *edges(np.flatnonzero(ball_test[owner]), ok=ball_ok))
        n_ball = np.bincount(owner[lab == nodes], minlength=len(sizes))
        out[ball_test & (n_ball != 1)] = 1
    return out


def classify_all(graph: NeighborhoodGraph) -> DimensionLabels:
    """Classify every sample of ``graph.cloud`` with the per-ball tests (a),
    (b), (c), in the order and the blocks the module docstring gives.

    Components come from the pairs of the graph's CSR rows, tested with
    the same squared-distance comparison as the per-ball reference.
    """
    eps = graph.cloud.epsilon
    n = graph.n_points
    pairs = _upper_pairs(graph)
    out = np.empty(n, dtype=int)
    # Large clouds take blocks of up to 3/4 as many ball members as points.
    # A block's working set grows with members times degree, so a share of
    # the points, unlike a share of the CSR entries, keeps it a fixed share
    # of the CSR at any density.  3/4 cuts an 8x8 grid-graph cloud (8,912
    # points) from 357 blocks to 75 at a traced peak of 2.3x the CSR's
    # bytes (1.5x at the floor); clouds under 2,048 points keep the floor.
    for queries, sizes, flat in query_blocks(graph, np.arange(n), _LOCAL * eps,
                                             max(_BLOCK_MEMBERS, 3 * n // 4)):
        out[queries] = _classify_block(graph, queries, (sizes, flat), pairs)
    return DimensionLabels(out)
