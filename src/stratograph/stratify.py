"""Grouping classified samples into vertex clusters, edge clusters, and
their incidence, which together determine the abstract graph.

``reconstruct_structure`` takes the cloud alone: every radius is a fixed
multiple of its epsilon.  Vertex clusters are connected components of the
dimension-0 samples at a generous 10*eps (vertex neighborhoods are wide
but well separated).  Edge clusters use the neighbourhood graph's
radius, 3*eps, and each must touch exactly two vertex clusters within it;
those two become the edge's endpoints.  Each stage takes the graph alone,
with no threshold of its own, and reads the points from its cloud.
Clusters are the ascending index arrays of ``neighbors.components``, and incidence is one pass of
``neighbors.query_blocks`` over all edge-cluster members, both reading
the graph's CSR rows; only the vertex clusters ask the tree.
"""
from __future__ import annotations

import numpy as np

from .core import AbstractGraph, DimensionLabels, PointCloud, Stratification
from .dimension import classify_all
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


def cluster_vertices(graph: NeighborhoodGraph, labels: DimensionLabels) -> list:
    """Components of the dimension-0 samples at 10*eps; one cluster per
    vertex, as ascending index arrays ordered by smallest member."""
    return components(graph, labels.indices_of(0), 10.0 * graph.cloud.epsilon)


def cluster_edges(graph: NeighborhoodGraph, labels: DimensionLabels) -> list:
    """Components of the dimension-1 samples at the graph's radius."""
    return components(graph, labels.indices_of(1), graph.radius)


def assign_incidence(graph: NeighborhoodGraph, vertex_clusters, edge_clusters) -> list:
    """Match each edge cluster with the two vertex clusters it runs between.

    A vertex cluster is incident when any of its points lies within the
    graph's radius, 3 eps, of any point of the edge cluster.  Returns one
    sorted pair of vertex-cluster indices per edge cluster.  Anything
    other than exactly two incident clusters raises IncidenceError naming
    the first such edge cluster and its candidates; two edge clusters with
    the same pair raise ValueError.

    The members of all edge clusters read their CSR rows in one pass of
    ``query_blocks``, and each block's hits are reduced to distinct
    (edge cluster, vertex cluster) pairs.
    """
    owner = np.full(graph.n_points, -1)
    for v_id, cluster in enumerate(vertex_clusters):
        owner[np.fromiter(cluster, dtype=int)] = v_id
    n_vertex = max(1, len(vertex_clusters))
    members = np.concatenate([np.fromiter(c, dtype=int)
                              for c in edge_clusters] + [np.empty(0, dtype=int)])
    cluster_of = np.repeat(np.arange(len(edge_clusters)), [len(c) for c in edge_clusters])
    hits = [np.empty(0, dtype=int)]
    for sel, counts, indices in query_blocks(graph, members, graph.radius):
        e_id = np.repeat(cluster_of[sel], counts)
        v_id = owner[indices]
        hits.append(np.unique((e_id * n_vertex + v_id)[v_id >= 0]))
    e_id, v_id = np.divmod(np.unique(np.concatenate(hits)), n_vertex)
    counts = np.bincount(e_id, minlength=len(edge_clusters))
    bad = np.flatnonzero(counts != 2)
    if len(bad):
        raise IncidenceError(bad[0], v_id[e_id == bad[0]].tolist())
    incidence = [tuple(pair) for pair in v_id.reshape(-1, 2).tolist()]
    # rejects two edge clusters between the same pair of vertex clusters
    AbstractGraph(len(vertex_clusters), incidence)
    return incidence


def reconstruct_structure(cloud: PointCloud) -> Stratification:
    """Full structure recovery from the cloud and its epsilon alone: the
    graph at 3*eps, the classifier, vertex clusters at 10*eps, then edge
    clusters and incidence at the graph's radius."""
    graph = build_graph(cloud)
    labels = classify_all(graph)
    vertex_clusters = cluster_vertices(graph, labels)
    edge_clusters = cluster_edges(graph, labels)
    incidence = assign_incidence(graph, vertex_clusters, edge_clusters)
    return Stratification(vertex_clusters, edge_clusters, incidence,
                          n_points=len(cloud))
