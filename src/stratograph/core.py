"""Domain types: point clouds, abstract/embedded graphs, stratifications.

Values are immutable after construction (arrays are frozen), so they can be
shared freely across threads.  ``PointCloud`` construction is deliberately
permissive: malformed inputs are representable so that ``validate_cloud``
can report what is wrong instead of crashing; pipeline operations require a
valid cloud and raise otherwise.  ``Stratification`` holds the sample
partition, as cluster tuples and as one cluster id per point.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from typing import Optional, Sequence

import numpy as np


def _freeze(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


def _equal_rows(arr: np.ndarray):
    """Index pairs of equal rows that neighbour in a stable lexicographic order."""
    order = np.lexsort(arr.T) if arr.shape[1] else np.arange(len(arr))
    same = np.all(arr[order][1:] == arr[order][:-1], axis=1)
    k = np.flatnonzero(same)
    return order[k], order[k + 1]


class PointCloud:
    """A finite set of points in R^n with a declared noise/density bound.

    ``epsilon`` is the bound of the sampling model: every point lies within
    epsilon of the underlying space and every location of the space has a
    sample within epsilon.  It is always supplied by the caller, never
    estimated from the data.
    """

    def __init__(self, points, epsilon: float, ambient_dim: Optional[int] = None):
        pts = [np.asarray(p, dtype=float).reshape(-1) for p in points]
        for p in pts:
            _freeze(p)
        self._points = tuple(pts)
        self.epsilon = float(epsilon)
        if ambient_dim is not None:
            self.ambient_dim = int(ambient_dim)
        elif pts:
            self.ambient_dim = len(pts[0])
        else:
            self.ambient_dim = 0
        self._array: Optional[np.ndarray] = None

    @property
    def points(self):
        return self._points

    def __len__(self) -> int:
        return len(self._points)

    @property
    def array(self) -> np.ndarray:
        """All points as an (n_points, ambient_dim) array; requires a valid cloud."""
        if self._array is None:
            report, arr = _validate(self)
            if not report.valid:
                raise ValueError("invalid point cloud: " + "; ".join(report.findings))
            self._array = _freeze(arr)
        return self._array

    def __eq__(self, other) -> bool:
        if not isinstance(other, PointCloud):
            return NotImplemented
        return (self.epsilon == other.epsilon
                and self.ambient_dim == other.ambient_dim
                and len(self) == len(other)
                and all(a.shape == b.shape and np.array_equal(a, b)
                        for a, b in zip(self._points, other._points)))

    def __repr__(self) -> str:
        return (f"PointCloud(n={len(self)}, ambient_dim={self.ambient_dim}, "
                f"epsilon={self.epsilon})")


@dataclass(frozen=True)
class ValidationReport:
    """Outcome of ``validate_cloud``: fatal findings plus informational warnings.

    ``valid`` is determined by findings alone; warnings (currently only
    duplicate points, which the pipeline permits) never invalidate a cloud.
    """
    findings: tuple
    warnings: tuple = ()

    @property
    def valid(self) -> bool:
        return not self.findings

    def as_dict(self) -> dict:
        return {"valid": self.valid, "findings": list(self.findings),
                "warnings": list(self.warnings)}


def validate_cloud(cloud: PointCloud) -> ValidationReport:
    """Check the PointCloud invariants, reporting every violation found."""
    return _validate(cloud)[0]


def _validate(cloud: PointCloud):
    """``(report, array)``: the report of ``validate_cloud`` and, when every
    point has ``ambient_dim`` coordinates, the points stacked as an
    (n_points, ambient_dim) array, else None.

    The points are concatenated once; lengths and finiteness are checked
    on the whole stack, and findings are listed in index order.
    """
    findings = []
    warnings = []
    if not np.isfinite(cloud.epsilon) or cloud.epsilon <= 0.0:
        findings.append("epsilon must be positive")
    n = len(cloud)
    if n == 0:
        findings.append("point cloud is empty")
        return ValidationReport(tuple(findings)), None
    if cloud.ambient_dim < 1:
        findings.append(f"points need at least one coordinate, "
                        f"ambient_dim is {cloud.ambient_dim}")
    lens = np.fromiter(map(len, cloud.points), dtype=np.int64, count=n)
    flat = np.concatenate(cloud.points)
    nonfinite = np.bincount(np.repeat(np.arange(n), lens)[~np.isfinite(flat)],
                            minlength=n) > 0
    wrong = lens != cloud.ambient_dim
    for i in np.flatnonzero(wrong | nonfinite).tolist():
        if wrong[i]:
            findings.append(f"point {i} has {lens[i]} coordinates, "
                            f"expected {cloud.ambient_dim}")
        else:
            findings.append(f"non-finite coordinate at index {i}")
    arr = None if wrong.any() else flat.reshape(n, cloud.ambient_dim)
    if not findings:
        for a, b in zip(*_equal_rows(arr)):
            warnings.append(f"duplicate point: indices {a} and {b}")
    return ValidationReport(tuple(findings), tuple(warnings)), arr


@dataclass(frozen=True)
class AbstractGraph:
    """Combinatorial graph: a vertex count and unordered edge pairs.

    Self-loops and parallel edges are rejected at construction; the
    incidence step of the reconstruction assumes every edge has two
    distinct bounding vertices, so degenerate inputs fail loudly here.
    """
    vertex_count: int
    edges: tuple

    def __init__(self, vertex_count: int, edges: Sequence = ()):
        object.__setattr__(self, "vertex_count", int(vertex_count))
        norm = []
        seen = set()
        for e in edges:
            i, j = int(e[0]), int(e[1])
            if i == j:
                raise ValueError(f"self-loop ({i}, {j}) is not allowed")
            if not (0 <= i < self.vertex_count and 0 <= j < self.vertex_count):
                raise ValueError(f"edge ({i}, {j}) out of range for "
                                 f"{self.vertex_count} vertices")
            key = (min(i, j), max(i, j))
            if key in seen:
                raise ValueError(f"duplicate edge ({i}, {j})")
            seen.add(key)
            norm.append(key)
        object.__setattr__(self, "edges", tuple(norm))
        if self.vertex_count < 0:
            raise ValueError("vertex_count must be non-negative")

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    def degrees(self) -> np.ndarray:
        deg = np.zeros(self.vertex_count, dtype=int)
        for i, j in self.edges:
            deg[i] += 1
            deg[j] += 1
        return deg

    def adjacency_sets(self):
        adj = [set() for _ in range(self.vertex_count)]
        for i, j in self.edges:
            adj[i].add(j)
            adj[j].add(i)
        return adj


class EmbeddedGraph:
    """An abstract graph realized in R^n by one coordinate vector per vertex."""

    def __init__(self, graph: AbstractGraph, vertex_positions):
        pos = np.array(vertex_positions, dtype=float)
        if pos.ndim == 1:
            pos = pos.reshape(len(pos), 1) if graph.vertex_count != 1 else pos.reshape(1, -1)
        if pos.ndim != 2 or pos.shape[0] != graph.vertex_count:
            raise ValueError("vertex_positions must supply one coordinate "
                             "vector per vertex")
        if not np.all(np.isfinite(pos)):
            raise ValueError("vertex positions must be finite")
        first, second = _equal_rows(pos)
        if len(first):
            # the smallest index with an equal later row, and the next one
            k = np.argmin(first)
            raise ValueError(f"vertices {first[k]} and {second[k]} share a position")
        self.graph = graph
        self.vertex_positions = _freeze(pos)

    @property
    def ambient_dim(self) -> int:
        return self.vertex_positions.shape[1]

    def edge_lengths(self) -> np.ndarray:
        out = np.empty(len(self.graph.edges))
        for k, (i, j) in enumerate(self.graph.edges):
            out[k] = np.linalg.norm(self.vertex_positions[i] - self.vertex_positions[j])
        return out

    def __eq__(self, other) -> bool:
        if not isinstance(other, EmbeddedGraph):
            return NotImplemented
        return (self.graph == other.graph
                and self.vertex_positions.shape == other.vertex_positions.shape
                and np.array_equal(self.vertex_positions, other.vertex_positions))

    def __repr__(self) -> str:
        return (f"EmbeddedGraph(vertices={self.graph.vertex_count}, "
                f"edges={self.graph.edge_count}, ambient_dim={self.ambient_dim})")


class DimensionLabels:
    """Per-point local dimension: 0 near a vertex, 1 near an edge."""

    def __init__(self, labels):
        arr = np.asarray(labels, dtype=int)
        if arr.ndim != 1:
            raise ValueError("labels must be one-dimensional")
        bad = set(np.unique(arr)) - {0, 1}
        if bad:
            raise ValueError(f"labels must be 0 or 1, got {sorted(bad)}")
        self.labels = _freeze(arr)

    def __len__(self) -> int:
        return len(self.labels)

    def __getitem__(self, i) -> int:
        return int(self.labels[i])

    def indices_of(self, dim: int) -> np.ndarray:
        return np.nonzero(self.labels == dim)[0]

    def __eq__(self, other) -> bool:
        if not isinstance(other, DimensionLabels):
            return NotImplemented
        return np.array_equal(self.labels, other.labels)


class Stratification:
    """Partition of the sample indices into vertex and edge clusters.

    ``incidence[k]`` gives the ordered pair (j1, j2) of vertex-cluster
    indices bounding edge cluster k.  Clusters are disjoint, non-empty, and
    jointly cover every point index.  ``cluster_of[i]`` is point i's cluster:
    vertex cluster j has id j, edge cluster k id ``len(vertex_clusters) + k``.
    """

    def __init__(self, vertex_clusters, edge_clusters, incidence, n_points=None):
        self.vertex_clusters = tuple(tuple(sorted(map(int, c))) for c in vertex_clusters)
        self.edge_clusters = tuple(tuple(sorted(map(int, c))) for c in edge_clusters)
        self.incidence = tuple((int(a), int(b)) for a, b in incidence)
        self.cluster_of = _freeze(self._check(n_points))

    def _check(self, n_points) -> np.ndarray:
        """The per-point cluster ids; errors are those of a walk over the
        clusters that stops at the first empty one or repeated point."""
        clusters = self.vertex_clusters + self.edge_clusters
        sizes = np.fromiter(map(len, clusters), dtype=int, count=len(clusters))
        flat = np.fromiter(chain.from_iterable(clusters), dtype=int,
                           count=int(sizes.sum()))
        # a stable sort puts every repeat after its first occurrence
        order = np.argsort(flat, kind="stable")
        repeats = order[1:][flat[order][1:] == flat[order][:-1]]
        first_repeat = repeats.min(initial=len(flat))
        if np.any((np.cumsum(sizes) - sizes)[sizes == 0] <= first_repeat):
            raise ValueError("clusters must be non-empty")
        if first_repeat < len(flat):
            raise ValueError(f"point {flat[first_repeat]} appears in two clusters")
        n = len(flat)
        if n_points is not None and n != n_points:
            raise ValueError(f"clusters cover {n} points, expected {n_points}")
        if n and (flat.min() != 0 or flat.max() != n - 1):
            raise ValueError("clusters must partition the contiguous index range")
        self.n_points = n
        if len(self.incidence) != len(self.edge_clusters):
            raise ValueError("one incidence pair per edge cluster is required")
        kv = len(self.vertex_clusters)
        for k, (a, b) in enumerate(self.incidence):
            if a == b:
                raise ValueError(f"edge cluster {k} has identical endpoints")
            if not (0 <= a < kv and 0 <= b < kv):
                raise ValueError(f"edge cluster {k} incidence {a, b} out of range")
        cluster_of = np.empty(n, dtype=int)
        cluster_of[flat] = np.repeat(np.arange(len(clusters)), sizes)
        return cluster_of

    def labels(self) -> DimensionLabels:
        return DimensionLabels(self.cluster_of >= len(self.vertex_clusters))

    def abstract_graph(self) -> AbstractGraph:
        return AbstractGraph(len(self.vertex_clusters), self.incidence)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Stratification):
            return NotImplemented
        return (self.vertex_clusters == other.vertex_clusters
                and self.edge_clusters == other.edge_clusters
                and self.incidence == other.incidence)

    def __repr__(self) -> str:
        return (f"Stratification(vertex_clusters={len(self.vertex_clusters)}, "
                f"edge_clusters={len(self.edge_clusters)})")
