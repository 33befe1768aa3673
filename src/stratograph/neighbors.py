"""Threshold graphs on point indices: one radius query, one components routine.

Adjacency is defined by d(p, q) <= r with the comparison done on squared
distances; ties at exactly r are included.  ``NeighborhoodGraph.query``
answers every radius query on the cloud and returns CSR arrays, one
ascending row per query point.  A scipy k-d tree over each block of query
rows, asked against the cloud's tree with a little slack, proposes
candidate pairs with the tree's distances.  A candidate the tree puts
well inside the radius is kept as it is; only the thin shell around the
radius is re-measured with that exact predicate, so the tree's own
distance arithmetic never decides a tie.  The graph stores its own
neighbours in the same CSR form, and ``components`` returns the
connected components of any index subset at any threshold from those
queries, as ascending index arrays ordered by their smallest member.

Blocks of ``query_blocks`` are sized to the graph: each limit is the
larger of a fixed floor and a fixed share of the graph's CSR entries, so
small clouds keep the floors, a large graph runs in fewer and larger
blocks, and a block's working set stays a bounded share of the memory
the graph already holds.
"""
from __future__ import annotations

import math

import numpy as np
from scipy.spatial import cKDTree

from .core import PointCloud

# The tree is asked at radius * _SLACK: far above its rounding error, so
# no point passing the exact predicate is missed.
_SLACK = 1.0 + 1e-9
# Candidates the tree puts within radius * _INNER are kept without the
# exact predicate.  The tree's distance and the root of the einsum differ
# by a few units in the last place (at most 3.1e-16 relative, measured in
# 1-5 D at scales 1e-30 to 1e30 and offsets up to 1e7 times the scale),
# so such a pair passes the predicate too, and only the shell between
# the two bounds is re-measured.  The argument needs r*r and the squares
# near it to be normal floats far from overflow; where r*r is outside
# _SQ_RANGE every candidate is re-measured.
_INNER = 1.0 - 1e-9
_SQ_RANGE = (2.0 ** -960, 2.0 ** 960)
# Query rows per tree call: a call holds the candidate pairs of this many
# rows, never those of the whole query.
_QUERY_ROWS = 256
# Most subset members per block of ``query_blocks``: _BLOCK, or one
# _BLOCK_SHARE-th of the graph's CSR entries if that is more.  512 is
# where component and incidence times stopped falling on 8x8 and 30x30
# grid-graph clouds (swept from 128 to 2048); a 10-eps components pass
# on the 8x8 cloud then peaks at 1.0x the CSR's bytes (1.6x at 128).
# Graphs under 32,768 entries keep the floor.
_BLOCK = 64
_BLOCK_SHARE = 512
# Candidates per block of ``query_blocks``: _BLOCK_CANDIDATES, or one
# _CANDIDATE_SHARE-th of the graph's CSR entries if that is more.  Blocks
# shrink below their member limit when balls are large, so a threshold
# spanning the cloud holds about this many pairs, not the member limit
# times the cloud.  At the floors, blocks stay full up to 256 candidates
# per member; at 10 eps the largest balls of the benchmark clouds hold
# 163 samples.  The share binds above 524,288 entries, where it cut the
# component stages of a 30x30 grid-graph cloud by about 14%.
_BLOCK_CANDIDATES = 1 << 14
_CANDIDATE_SHARE = 32


class NeighborhoodGraph:
    """Graph connecting sample indices whose distance is at most ``radius``.

    Row i of the CSR arrays ``indptr`` / ``indices`` lists the neighbours
    of sample i other than i itself, in ascending order.
    """

    def __init__(self, cloud: PointCloud, radius: float):
        if not (math.isfinite(radius) and radius > 0.0):
            raise ValueError("radius must be finite and positive")
        self.cloud = cloud
        self.radius = float(radius)
        pts = cloud.array
        n = len(pts)
        self.tree = cKDTree(pts)
        indptr, indices = self.query(pts, self.radius)
        # every row holds its own point once: distance 0 <= radius
        rows = np.repeat(np.arange(n, dtype=np.int32), np.diff(indptr))
        self.indices = indices[indices != rows]
        self.indptr = indptr - np.arange(n + 1)

    @property
    def n_points(self) -> int:
        return len(self.indptr) - 1

    def edge_count(self) -> int:
        return len(self.indices) // 2

    def query(self, qs, radius: float):
        """CSR ``(indptr, indices)``: row k lists the cloud points p with
        d(p, qs[k]) <= radius, in ascending order.

        The tree proposes candidates within ``radius * _SLACK``.  Those
        it puts within ``radius * _INNER`` are kept; the others are kept
        if the einsum of ``p - q`` with itself is <= radius * radius, so
        that predicate alone decides every pair near the radius.  Where
        r*r lies outside ``_SQ_RANGE`` every candidate takes the einsum
        test.  A negative radius gives empty rows.  Rows are taken
        ``_QUERY_ROWS`` at a time, each block with one tree call, so only
        one block's candidates are held at once.
        """
        if not math.isfinite(radius):
            raise ValueError("radius must be finite")
        qs = np.asarray(qs, dtype=float)
        if radius < 0.0:
            return np.zeros(len(qs) + 1, dtype=np.int64), np.empty(0, dtype=np.int64)
        pts = self.cloud.array
        n = len(pts)
        sq_radius = radius * radius
        # outside _SQ_RANGE no tree distance is trusted: all are in the shell
        inner = (radius * _INNER if _SQ_RANGE[0] <= sq_radius <= _SQ_RANGE[1]
                 else -1.0)
        counts, parts = [np.empty(0, dtype=np.int64)], [np.empty(0, dtype=np.int64)]
        for lo in range(0, len(qs), _QUERY_ROWS):
            block = qs[lo:lo + _QUERY_ROWS]
            cand = cKDTree(block).sparse_distance_matrix(
                self.tree, radius * _SLACK, output_type="ndarray")
            rows, cols = cand["i"], cand["j"]
            keep = cand["v"] <= inner
            shell = np.flatnonzero(~keep)
            diff = pts[cols[shell]] - block[rows[shell]]
            keep[shell] = np.einsum("ij,ij->i", diff, diff) <= sq_radius
            rows, cols = np.divmod(np.sort(rows[keep] * n + cols[keep]), n)
            counts.append(np.bincount(rows, minlength=len(block)))
            parts.append(cols)
        indptr = np.zeros(len(qs) + 1, dtype=np.int64)
        np.cumsum(np.concatenate(counts), out=indptr[1:])
        return indptr, np.concatenate(parts)

    def __repr__(self) -> str:
        return (f"NeighborhoodGraph(n={self.n_points}, radius={self.radius}, "
                f"edges={self.edge_count()})")


def build_graph(cloud: PointCloud, radius: float) -> NeighborhoodGraph:
    """Connect all pairs of cloud points within ``radius`` of each other."""
    return NeighborhoodGraph(cloud, radius)


def query_blocks(graph: NeighborhoodGraph, rows: np.ndarray, radius: float):
    """``(sel, indptr, indices)`` for consecutive blocks of the point
    indices ``rows``: ``sel`` holds the block's positions in ``rows`` and
    ``(indptr, indices)`` is ``graph.query`` of the points ``rows[sel]``.

    The first block is one row; each next one takes as many rows as fit
    the candidate limit at the candidates per row the last block
    returned, up to the member limit, so only one block's pairs are held
    at once.  Both limits are fixed floors that grow with the graph's
    CSR entries (see ``_BLOCK_SHARE`` and ``_CANDIDATE_SHARE``), so a
    block's working set is a bounded share of the graph already held.
    """
    pts = graph.cloud.array
    most = max(_BLOCK, len(graph.indices) // _BLOCK_SHARE)
    budget = max(_BLOCK_CANDIDATES, len(graph.indices) // _CANDIDATE_SHARE)
    lo, size = 0, 1
    while lo < len(rows):
        sel = np.arange(lo, min(lo + size, len(rows)))
        indptr, indices = graph.query(pts[rows[sel]], radius)
        yield sel, indptr, indices
        lo += len(sel)
        size = min(most, max(1, budget * len(sel) // max(1, len(indices))))


def _min_labels(n_nodes: int, u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Smallest node of each node's component in the graph with edges (u, v).

    Min-label hooking with pointer jumping: each round hooks every root
    onto the smallest root across its edges, then flattens the forest,
    until a round changes nothing.  Rounds compare whole label arrays
    instead of filtering the edges, so that no temporary takes the
    varying length of an edge subset (numpy caches freed blocks under
    1 KiB per byte size, so many such lengths would stay resident).
    """
    lab = np.arange(n_nodes)
    while True:
        before = lab.copy()
        lu, lv = lab[u], lab[v]
        np.minimum.at(lab, np.maximum(lu, lv), np.minimum(lu, lv))
        while True:
            up = lab[lab]
            if np.array_equal(up, lab):
                break
            lab = up
        if np.array_equal(before, lab):
            return lab


def components(graph: NeighborhoodGraph, subset, threshold: float) -> list:
    """Connected components of ``subset`` using only pairs with d <= threshold.

    Each component is an ascending int array of point indices, and the
    components are ordered by their smallest member, so the partition is
    canonical and independent of point order.  Any finite threshold
    works: pairs come from ``query_blocks``, and each block's pairs are
    hooked onto the roots found so far, so only one block's pairs are
    held at once.
    """
    if not math.isfinite(threshold):
        raise ValueError("threshold must be finite")
    n = graph.n_points
    members = np.unique(np.asarray(subset, dtype=int))
    outside = members[(members < 0) | (members >= n)]
    if len(outside):
        raise IndexError(f"subset index {outside[0]} out of range for {n} points")
    if not len(members):
        return []
    position = np.full(n, -1)
    position[members] = np.arange(len(members))
    lab = np.arange(len(members))
    for sel, indptr, indices in query_blocks(graph, members, threshold):
        src = np.repeat(sel, np.diff(indptr))  # members[sel] sit at sel
        dst = position[indices]
        later = dst > src  # each pair once; non-members are -1
        lab = _min_labels(len(members), lab[src[later]], lab[dst[later]])[lab]
    # lab[i] is the position of the smallest member of i's component; a
    # stable sort keeps each component ascending
    order = np.argsort(lab, kind="stable")
    return np.split(members[order], np.flatnonzero(np.diff(lab[order])) + 1)
