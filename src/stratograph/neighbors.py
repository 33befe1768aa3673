"""Threshold graphs on point indices: one radius query, one components routine.

Adjacency is defined by d(p, q) <= r with the comparison done on squared
distances; ties at exactly r are included.  ``NeighborhoodGraph.query``
answers every radius query on the cloud and returns CSR arrays, one
ascending row per query point.  A scipy k-d tree over each block of query
rows, asked against the cloud's tree with a little slack, proposes
candidate pairs, and each is kept only if it passes that exact predicate,
so the tree's own distance arithmetic never decides a tie.  The graph
stores its own neighbours in the same CSR form, and ``components``
returns the connected components of any index subset at any threshold
from those queries, as ascending index arrays ordered by their smallest
member.
"""
from __future__ import annotations

import math

import numpy as np
from scipy.spatial import cKDTree

from .core import PointCloud

# The tree is asked at radius * _SLACK: far above its rounding error, so
# no point passing the exact predicate is missed.
_SLACK = 1.0 + 1e-9
# Query rows per tree call: a call holds the candidate pairs of this many
# rows, never those of the whole query.
_QUERY_ROWS = 256
# Most subset members per block of ``components``.
_BLOCK = 64
# Candidates per block of ``components``: blocks shrink below ``_BLOCK``
# members when balls are large, so a threshold spanning the cloud holds
# about this many pairs, not ``_BLOCK`` times the cloud.  Blocks stay
# full up to 256 candidates per member; at 10 eps the largest balls of
# the benchmark clouds hold 163 samples.
_BLOCK_CANDIDATES = 1 << 14


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

        The tree proposes candidates within ``radius * _SLACK``; each is
        kept if the einsum of ``p - q`` with itself is <= radius * radius.
        A negative radius gives empty rows.  Rows are taken
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
        counts, parts = [np.empty(0, dtype=np.int64)], [np.empty(0, dtype=np.int64)]
        for lo in range(0, len(qs), _QUERY_ROWS):
            block = qs[lo:lo + _QUERY_ROWS]
            cand = cKDTree(block).sparse_distance_matrix(
                self.tree, radius * _SLACK, output_type="ndarray")
            rows, cols = cand["i"], cand["j"]
            diff = pts[cols] - block[rows]
            keep = np.einsum("ij,ij->i", diff, diff) <= radius * radius
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

    The first block is one row; each next one takes as many rows (at most
    ``_BLOCK``) as fit ``_BLOCK_CANDIDATES`` at the candidates per row the
    last block returned, so only one block's pairs are held at once.
    """
    pts = graph.cloud.array
    lo, size = 0, 1
    while lo < len(rows):
        sel = np.arange(lo, min(lo + size, len(rows)))
        indptr, indices = graph.query(pts[rows[sel]], radius)
        yield sel, indptr, indices
        lo += len(sel)
        size = min(_BLOCK, max(1, _BLOCK_CANDIDATES * len(sel) // max(1, len(indices))))


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
