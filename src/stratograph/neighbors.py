"""Threshold graphs on point indices: one radius query, one components routine.

Adjacency is defined by d(p, q) <= r with the comparison done on squared
distances; ties at exactly r are included.  ``NeighborhoodGraph.query``
answers a radius query with one tree call and returns CSR arrays, one
ascending row per query point: a scipy k-d tree over the query points,
asked against the cloud's tree with a little slack, proposes candidate
pairs with the tree's distances.  A candidate the tree puts well inside
the radius is kept as it is; only the thin shell around the radius is
re-measured with that exact predicate, so the tree's own distance
arithmetic never decides a tie.

Every pass over many rows (the graph's own CSR, the classifier's balls,
``components`` and incidence) takes them in blocks from ``query_blocks``,
so it holds one block's pairs at a time.  Row i of the graph's CSR is
the query row of point i at its radius, 3 eps, i itself included, so
passes at that radius read the CSR rows as they are and the tree is
asked only at other radii.  Block limits are sized to the graph: each
is the larger of a fixed floor and a fixed share of the graph's CSR
entries, so a large graph runs in fewer and larger blocks, and a block
stays a bounded share of the memory the graph holds.
``components`` returns ascending index arrays ordered by their smallest
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
# Most subset members per block of ``query_blocks``: _BLOCK, or one
# _BLOCK_SHARE-th of the graph's CSR entries if that is more.  512 is
# where component and incidence times stopped falling on 8x8 and 30x30
# grid-graph clouds (swept from 128 to 2048 while both asked the tree).
# Graphs under 32,768 entries keep the floor.  The cap also bounds each
# fetch of a default-budget walk: without it, on the 8x8 cloud,
# ``cluster_vertices`` peaked at 0.96 MB, not 0.80, and edge clusters and
# incidence ran twice as fast from the CSR but peaked at 0.88 and 0.99 MB,
# not 0.45 and 0.29; a ``cluster_vertices`` fetch on a 3D cloud at spacing
# eps/5 held 39,803 candidates, not 8,982, against 16,384.
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
# The graph's radius in units of epsilon: the classifier's annulus edge
# threshold, and also the edge-cluster and incidence radius.
_GRAPH = 3.0


class NeighborhoodGraph:
    """Graph connecting sample indices whose distance is at most ``radius``,
    3 times the cloud's epsilon; a ValueError if that overflows.

    Row i of the CSR arrays ``indptr`` / ``indices`` is ``query`` of sample
    i at ``radius``: the samples within it, i itself once, ascending.
    """

    def __init__(self, cloud: PointCloud):
        radius = _GRAPH * cloud.epsilon
        if not math.isfinite(radius):
            raise ValueError("graph radius 3 * epsilon must be finite")
        self.cloud = cloud
        self.radius = radius
        self.tree = cKDTree(cloud.array)
        counts, parts = [], []
        for _, cnt, indices in query_blocks(self, np.arange(len(cloud.array)),
                                            self.radius, _BLOCK_CANDIDATES):
            counts.append(cnt)
            parts.append(indices)
        self.indptr = np.concatenate([[0], np.cumsum(np.concatenate(counts))])
        self.indices = np.concatenate(parts)

    @property
    def n_points(self) -> int:
        return len(self.indptr) - 1

    def edge_count(self) -> int:
        return (len(self.indices) - self.n_points) // 2

    def query(self, qs, radius: float):
        """CSR ``(indptr, indices)``: row k lists the cloud points p with
        d(p, qs[k]) <= radius, in ascending order.

        Of the tree's candidates within ``radius * _SLACK``, those it
        puts within ``radius * _INNER`` are kept, and the others only if
        the einsum of ``p - q`` with itself is <= radius * radius (all
        take that test where r*r lies outside ``_SQ_RANGE``).  A negative
        radius gives empty rows.  All rows go to one tree call, whose
        pairs ``query_blocks`` bounds by taking a block of rows per call.
        """
        if not math.isfinite(radius):
            raise ValueError("radius must be finite")
        qs = np.asarray(qs, dtype=float)
        indptr = np.zeros(len(qs) + 1, dtype=np.int64)
        if radius < 0.0:
            return indptr, np.empty(0, dtype=np.int64)
        pts = self.cloud.array
        n = len(pts)
        sq_radius = radius * radius
        # outside _SQ_RANGE no tree distance is trusted: all are in the shell
        inner = (radius * _INNER if _SQ_RANGE[0] <= sq_radius <= _SQ_RANGE[1]
                 else -1.0)
        cand = cKDTree(qs).sparse_distance_matrix(
            self.tree, radius * _SLACK, output_type="ndarray")
        rows, cols = cand["i"], cand["j"]
        keep = cand["v"] <= inner
        shell = np.flatnonzero(~keep)
        diff = pts[cols[shell]] - qs[rows[shell]]
        keep[shell] = np.einsum("ij,ij->i", diff, diff) <= sq_radius
        rows, cols = np.divmod(np.sort(rows[keep] * n + cols[keep]), n)
        np.cumsum(np.bincount(rows, minlength=len(qs)), out=indptr[1:])
        return indptr, cols

    def __repr__(self) -> str:
        return (f"NeighborhoodGraph(n={self.n_points}, radius={self.radius}, "
                f"edges={self.edge_count()})")


def build_graph(cloud: PointCloud) -> NeighborhoodGraph:
    """Connect all pairs of cloud points within 3 epsilon of each other."""
    return NeighborhoodGraph(cloud)


def query_blocks(graph: NeighborhoodGraph, rows: np.ndarray, radius: float,
                 budget: int | None = None):
    """``(sel, counts, indices)`` for consecutive blocks of the point
    indices ``rows``: ``sel`` holds the block's positions in ``rows``, and
    ``graph.query`` of ``rows[sel[k]]`` is the next ``counts[k]`` entries
    of ``indices``.

    A block takes the leading rows whose candidates fit ``budget`` (at
    least one row); rows fetched beyond it wait for the next block, whose
    fetch is sized at the candidates per row of this one.  By default the
    budget and a cap on a block's rows grow with the graph's CSR entries
    (see ``_BLOCK_SHARE`` and ``_CANDIDATE_SHARE``); an explicit budget
    carries no row cap.
    """
    most = len(rows)
    if budget is None:
        most = max(_BLOCK, len(graph.indices) // _BLOCK_SHARE)
        budget = max(_BLOCK_CANDIDATES, len(graph.indices) // _CANDIDATE_SHARE)
    counts, flat = np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
    lo, size = 0, 1
    while lo < len(rows):
        if len(counts) < size:
            got, more = _fetch(graph, rows[lo + len(counts):lo + size], radius)
            counts, flat = np.concatenate([counts, got]), np.concatenate([flat, more])
            del got, more  # the fetch is held in flat alone
        ends = np.cumsum(counts)
        take = max(1, int(np.searchsorted(ends, budget, side="right")))
        used = int(ends[take - 1])
        yield np.arange(lo, lo + take), counts[:take], flat[:used]
        # nearby rows have similar balls: size the next block by these
        size = min(most, max(1, budget * take // max(1, used)))
        counts, flat, lo = counts[take:], flat[used:], lo + take


def _gather(indptr: np.ndarray, rows: np.ndarray):
    """``(counts, at)``: CSR row ``rows[k]`` has ``counts[k]`` entries, and
    ``at`` holds the positions of all of them, row after row."""
    starts = indptr[rows]
    counts = indptr[rows + 1] - starts
    at = np.repeat(starts - np.cumsum(counts) + counts, counts)
    at += np.arange(len(at))
    return counts, at


def _fetch(graph: NeighborhoodGraph, rows: np.ndarray, radius: float):
    """Row counts and flat indices of ``graph.query`` of the points ``rows``:
    at the graph's radius, once ``__init__`` has built them, its CSR rows."""
    if radius != graph.radius or not hasattr(graph, "indices"):
        indptr, flat = graph.query(graph.cloud.array[rows], radius)
        return np.diff(indptr), flat
    counts, at = _gather(graph.indptr, rows)
    return counts, graph.indices[at]


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
    for sel, counts, indices in query_blocks(graph, members, threshold):
        src, dst = np.repeat(sel, counts), position[indices]  # members[sel] at sel
        later = dst > src  # each pair once; non-members are -1
        src, dst = lab[src[later]], lab[dst[later]]  # frees the unfiltered pairs
        lab = _min_labels(len(members), src, dst)[lab]
    # lab[i] is the position of the smallest member of i's component; a
    # stable sort keeps each component ascending
    order = np.argsort(lab, kind="stable")
    return np.split(members[order], np.flatnonzero(np.diff(lab[order])) + 1)
