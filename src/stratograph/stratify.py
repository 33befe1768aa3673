"""Grouping classified samples into vertex clusters, edge clusters, and
their incidence, which together determine the abstract graph.

Vertex clusters are connected components of the dimension-0 samples at a
generous threshold (10*eps by default: vertex neighborhoods are wide but
well separated).  Edge clusters use the tighter 3*eps.  Each edge cluster
must then touch exactly two vertex clusters within the link threshold;
those two become the edge's endpoints.  Clusters are the ascending
index arrays of ``neighbors.components``, and incidence comes from one
pass of ``neighbors.query_blocks`` over all edge-cluster members, so every
threshold is answered by the neighbourhood graph's one radius query, in
blocks of bounded size.  ``Stratification`` then holds the partition.
"""
from __future__ import annotations

import math

import numpy as np

from .core import AbstractGraph, DimensionLabels, PointCloud, Stratification
from .dimension import ClassifierParams, classify_all
from .neighbors import NeighborhoodGraph, build_graph, components, query_blocks


class IncidenceError(ValueError):
    """An edge cluster does not touch exactly two vertex clusters.

    Usually means the geometric assumptions are violated (a tight loop, a
    short edge) or the declared epsilon does not match the data.
    """

    def __init__(self, edge_cluster: int, candidates):
        self.edge_cluster = int(edge_cluster)
        self.candidates = tuple(sorted(int(c) for c in candidates))
        super().__init__(f"edge cluster {self.edge_cluster} touches vertex "
                         f"clusters {list(self.candidates)}, expected exactly 2")


def cluster_vertices(cloud: PointCloud, graph: NeighborhoodGraph,
                     labels: DimensionLabels, threshold: float | None = None) -> list:
    """Components of the dimension-0 samples; one cluster per vertex, as
    ascending index arrays ordered by smallest member.

    The default threshold is 10*eps, far above the 3*eps neighborhood
    graph radius: vertex neighborhoods are wide but well separated.
    """
    if threshold is None:
        threshold = 10.0 * cloud.epsilon
    return components(graph, labels.indices_of(0), threshold)


def cluster_edges(cloud: PointCloud, graph: NeighborhoodGraph,
                  labels: DimensionLabels, threshold: float | None = None) -> list:
    """Components of the dimension-1 samples at threshold 3*eps."""
    if threshold is None:
        threshold = 3.0 * cloud.epsilon
    return components(graph, labels.indices_of(1), threshold)


def assign_incidence(cloud: PointCloud, graph: NeighborhoodGraph,
                     vertex_clusters, edge_clusters,
                     link_threshold: float | None = None) -> list:
    """Match each edge cluster with the two vertex clusters it runs between.

    A vertex cluster is incident when any of its points lies within
    link_threshold (default 3*eps) of any point of the edge cluster.
    Returns one sorted pair of vertex-cluster indices per edge cluster.
    Anything other than exactly two incident clusters raises
    IncidenceError naming the first such edge cluster and the candidates
    found; two edge clusters with the same pair raise ValueError.

    The members of all edge clusters are queried in one pass of
    ``query_blocks``, and each block's hits are reduced to distinct
    (edge cluster, vertex cluster) pairs.
    """
    if link_threshold is None:
        link_threshold = 3.0 * cloud.epsilon
    if not math.isfinite(link_threshold):
        raise ValueError("link_threshold must be finite")
    owner = np.full(len(cloud), -1)
    for v_id, cluster in enumerate(vertex_clusters):
        owner[np.fromiter(cluster, dtype=int)] = v_id
    n_vertex = max(1, len(vertex_clusters))
    members = np.concatenate([np.fromiter(c, dtype=int)
                              for c in edge_clusters] + [np.empty(0, dtype=int)])
    cluster_of = np.repeat(np.arange(len(edge_clusters)),
                           [len(c) for c in edge_clusters])
    hits = [np.empty(0, dtype=int)]
    for sel, indptr, indices in query_blocks(graph, members, link_threshold):
        e_id = np.repeat(cluster_of[sel], np.diff(indptr))
        v_id = owner[indices]
        near = v_id >= 0
        hits.append(np.unique(e_id[near] * n_vertex + v_id[near]))
    e_id, v_id = np.divmod(np.unique(np.concatenate(hits)), n_vertex)
    counts = np.bincount(e_id, minlength=len(edge_clusters))
    bad = np.flatnonzero(counts != 2)
    if len(bad):
        raise IncidenceError(bad[0], v_id[e_id == bad[0]].tolist())
    incidence = [tuple(pair) for pair in v_id.reshape(-1, 2).tolist()]
    # rejects two edge clusters between the same pair of vertex clusters
    AbstractGraph(len(vertex_clusters), incidence)
    return incidence


def reconstruct_structure(cloud: PointCloud, params: ClassifierParams | None = None,
                          vertex_threshold: float | None = None) -> Stratification:
    """Full structure recovery: label dimensions, cluster, wire up incidence."""
    graph = build_graph(cloud, 3.0 * cloud.epsilon)
    labels = classify_all(cloud, graph, params)
    vertex_clusters = cluster_vertices(cloud, graph, labels, vertex_threshold)
    edge_clusters = cluster_edges(cloud, graph, labels)
    incidence = assign_incidence(cloud, graph, vertex_clusters, edge_clusters)
    return Stratification(vertex_clusters, edge_clusters, incidence,
                          n_points=len(cloud))
