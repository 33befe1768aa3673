"""Threshold graphs on point indices: one radius query, one components routine.

Adjacency is defined by d(p, q) <= r with the comparison done on squared
distances; ties at exactly r are included.  ``NeighborhoodGraph.balls``
answers every radius query on the cloud: a scipy k-d tree, asked with a
little slack, proposes candidates, and each is kept only if it passes that
exact predicate, so the tree's own distance arithmetic never decides a tie.
``components`` labels the connected components of any index subset at any
threshold from those queries.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np
from scipy.spatial import cKDTree

from .core import PointCloud

# The tree is asked at radius * _SLACK: far above its rounding error, so
# no point passing the exact predicate is missed.
_SLACK = 1.0 + 1e-9
# Queries per tree call, and subset members per block of ``components``:
# bounds the candidate lists and pairs held at once.
_BLOCK = 64


@dataclass(frozen=True)
class ComponentLabeling:
    """Connected-component labels for a queried index subset.

    Each label is the smallest point index of its component, so the
    labeling is canonical and independent of point order.
    """
    labels: dict
    component_count: int

    def groups(self):
        by_label = {}
        for i, lab in self.labels.items():
            by_label.setdefault(lab, []).append(i)
        return [sorted(by_label[lab]) for lab in sorted(by_label)]


class NeighborhoodGraph:
    """Graph connecting sample indices whose distance is at most ``radius``."""

    def __init__(self, cloud: PointCloud, radius: float):
        if radius <= 0.0:
            raise ValueError("radius must be positive")
        self.cloud = cloud
        self.radius = float(radius)
        self.tree = cKDTree(cloud.array)
        balls = self.balls(cloud.array, self.radius)
        self.adjacency = tuple(nb[nb != i] for i, nb in enumerate(balls))

    @property
    def n_points(self) -> int:
        return len(self.adjacency)

    def edge_count(self) -> int:
        return sum(len(a) for a in self.adjacency) // 2

    def balls(self, qs, radius: float) -> list:
        """One sorted index array per row q of ``qs``: the cloud points p
        with d(p, q) <= radius.

        The tree proposes candidates within ``radius * _SLACK``; each is
        kept if the einsum of ``p - q`` with itself is <= radius * radius.
        """
        qs = np.asarray(qs, dtype=float)
        if radius < 0.0:
            return [np.empty(0, dtype=int)] * len(qs)
        pts = self.cloud.array
        out = []
        for lo in range(0, len(qs), _BLOCK):
            block = qs[lo:lo + _BLOCK]
            cand = self.tree.query_ball_point(block, radius * _SLACK,
                                              return_sorted=True)
            sizes = np.fromiter(map(len, cand), dtype=int, count=len(cand))
            flat = np.fromiter(itertools.chain.from_iterable(cand), dtype=int,
                               count=int(sizes.sum()))
            owner = np.repeat(np.arange(len(block)), sizes)
            diff = pts[flat] - block[owner]
            keep = np.einsum("ij,ij->i", diff, diff) <= radius * radius
            counts = np.bincount(owner[keep], minlength=len(block))
            out += np.split(flat[keep], np.cumsum(counts)[:-1])
        return out

    def __repr__(self) -> str:
        return (f"NeighborhoodGraph(n={self.n_points}, radius={self.radius}, "
                f"edges={self.edge_count()})")


def build_graph(cloud: PointCloud, radius: float) -> NeighborhoodGraph:
    """Connect all pairs of cloud points within ``radius`` of each other."""
    return NeighborhoodGraph(cloud, radius)


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


def components(graph: NeighborhoodGraph, subset, threshold: float) -> ComponentLabeling:
    """Connected components of ``subset`` using only pairs with d <= threshold.

    Any threshold works: pairs come from ``graph.balls``, taken ``_BLOCK``
    members at a time, and each block's pairs are hooked onto the roots
    found so far, so only one block's pairs are held at once.
    """
    n = graph.n_points
    members = np.unique(np.asarray(subset, dtype=int))
    outside = members[(members < 0) | (members >= n)]
    if len(outside):
        raise IndexError(f"subset index {outside[0]} out of range for {n} points")
    position = np.full(n, -1)
    position[members] = np.arange(len(members))
    lab = np.arange(len(members))
    pts = graph.cloud.array
    for lo in range(0, len(members), _BLOCK):
        balls = graph.balls(pts[members[lo:lo + _BLOCK]], threshold)
        sizes = np.fromiter(map(len, balls), dtype=int, count=len(balls))
        src = np.repeat(np.arange(lo, lo + len(balls)), sizes)
        dst = position[np.concatenate(balls)]
        later = dst > src  # each pair once; non-members are -1
        lab = _min_labels(len(members), lab[src[later]], lab[dst[later]])[lab]
    roots = members[lab]
    return ComponentLabeling(dict(zip(members.tolist(), roots.tolist())),
                             len(np.unique(roots)))
