"""Grouping classified samples into vertex clusters, edge clusters, and
their incidence, which together determine the abstract graph.

Vertex clusters are connected components of the dimension-0 samples at a
generous threshold (10*eps by default: vertex neighborhoods are wide but
well separated).  Edge clusters use the tighter 3*eps.  Each edge cluster
must then touch exactly two vertex clusters within the link threshold;
those two become the edge's endpoints.  Clusters come from
``neighbors.components`` and incidence from ``NeighborhoodGraph.balls``,
so every threshold is answered by the neighbourhood graph's one k-d tree.
"""
from __future__ import annotations

import numpy as np

from .core import AbstractGraph, DimensionLabels, PointCloud, Stratification
from .dimension import ClassifierParams, classify_all
from .neighbors import NeighborhoodGraph, build_graph, components


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


def _grouped(comp) -> list:
    return [tuple(g) for g in comp.groups()]


def cluster_vertices(cloud: PointCloud, graph: NeighborhoodGraph,
                     labels: DimensionLabels, threshold: float | None = None) -> list:
    """Components of the dimension-0 samples; one cluster per vertex.

    The default threshold is 10*eps, far above the 3*eps neighborhood
    graph radius: vertex neighborhoods are wide but well separated.
    """
    if threshold is None:
        threshold = 10.0 * cloud.epsilon
    return _grouped(components(graph, labels.indices_of(0), threshold))


def cluster_edges(cloud: PointCloud, graph: NeighborhoodGraph,
                  labels: DimensionLabels, threshold: float | None = None) -> list:
    """Components of the dimension-1 samples at threshold 3*eps."""
    if threshold is None:
        threshold = 3.0 * cloud.epsilon
    return _grouped(components(graph, labels.indices_of(1), threshold))


def assign_incidence(cloud: PointCloud, graph: NeighborhoodGraph,
                     vertex_clusters, edge_clusters,
                     link_threshold: float | None = None) -> list:
    """Match each edge cluster with the two vertex clusters it runs between.

    A vertex cluster is incident when any of its points lies within
    link_threshold (default 3*eps) of any point of the edge cluster.
    Returns one sorted pair of vertex-cluster indices per edge cluster.
    Anything other than exactly two incident clusters raises
    IncidenceError naming the edge cluster and the candidates found; two
    edge clusters with the same pair raise ValueError.
    """
    if link_threshold is None:
        link_threshold = 3.0 * cloud.epsilon
    pts = cloud.array
    owner = np.full(len(pts), -1)
    for v_id, cluster in enumerate(vertex_clusters):
        owner[list(cluster)] = v_id

    incidence = []
    for e_id, cluster in enumerate(edge_clusters):
        near = graph.balls(pts[list(cluster)], link_threshold)
        touched = set(owner[np.concatenate(near)].tolist()) if near else set()
        touched.discard(-1)
        if len(touched) != 2:
            raise IncidenceError(e_id, touched)
        incidence.append(tuple(sorted(touched)))
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
