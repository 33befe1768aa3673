"""Clustering of labeled points and incidence assignment."""
import math

import numpy as np
import pytest

from stratograph import (AbstractGraph, DimensionLabels, IncidenceError, PointCloud,
                         build_graph, classify_all, cluster_edges,
                         cluster_vertices, assign_incidence,
                         reconstruct_structure, sample_graph, SampleOptions,
                         EmbeddedGraph, graph_isomorphic)
from conftest import EPS, EMBED_2D, star_cloud


def test_cluster_vertices_two_blobs():
    # blobs 5.0 apart with eps = 0.1: far beyond the 10-eps threshold
    blob_a = [(0.1 * k, 0.0) for k in range(5)]
    blob_b = [(5.0 + 0.1 * k, 0.0) for k in range(5)]
    cloud = PointCloud(blob_a + blob_b, EPS)
    graph = build_graph(cloud, 3.0 * EPS)
    labels = DimensionLabels([0] * 10)
    clusters = cluster_vertices(cloud, graph, labels)
    assert [sorted(c) for c in clusters] == [[0, 1, 2, 3, 4], [5, 6, 7, 8, 9]]


def test_cluster_vertices_empty_when_no_dim0():
    cloud = PointCloud([(0, 0), (0.1, 0)], EPS)
    graph = build_graph(cloud, 3.0 * EPS)
    assert cluster_vertices(cloud, graph, DimensionLabels([1, 1])) == []


def test_cluster_vertices_star_single_cluster():
    # arms of 20 eps: the arm-end blobs sit within 10 eps of the center
    # blob, so all dim-0 points join one cluster
    cloud = star_cloud(EPS, arms=3, arm_steps=20)
    graph = build_graph(cloud, 3.0 * EPS)
    labels = classify_all(cloud, graph)
    clusters = cluster_vertices(cloud, graph, labels)
    assert len(clusters) == 1
    assert sorted(clusters[0]) == sorted(labels.indices_of(0).tolist())


def test_cluster_vertices_huge_threshold_single_cluster(truth_3d):
    # 1000 eps: every dimension-0 sample joins one cluster, in memory
    # bounded by the cloud, not by the threshold
    cloud = sample_graph(truth_3d, EPS, SampleOptions(seed=1))
    graph = build_graph(cloud, 3.0 * EPS)
    labels = classify_all(cloud, graph)
    clusters = cluster_vertices(cloud, graph, labels, threshold=1000 * EPS)
    assert len(clusters) == 1
    assert list(clusters[0]) == labels.indices_of(0).tolist()


def test_cluster_edges_parallel_segments():
    seg_a = [(0.1 * k, 0.0) for k in range(11)]
    seg_b = [(0.1 * k, 1.0) for k in range(11)]
    cloud = PointCloud(seg_a + seg_b, EPS)
    graph = build_graph(cloud, 3.0 * EPS)
    labels = DimensionLabels([1] * 22)
    clusters = cluster_edges(cloud, graph, labels)
    assert [sorted(c) for c in clusters] == [list(range(11)),
                                             list(range(11, 22))]


def test_cluster_edges_empty_when_no_dim1():
    cloud = PointCloud([(0, 0), (5, 0)], EPS)
    graph = build_graph(cloud, 3.0 * EPS)
    assert cluster_edges(cloud, graph, DimensionLabels([0, 0])) == []


def test_cluster_threshold_is_parameterized():
    pts = [(0.0, 0.0), (0.5, 0.0), (1.0, 0.0)]
    cloud = PointCloud(pts, EPS)
    graph = build_graph(cloud, 3.0 * EPS)
    labels = DimensionLabels([0, 0, 0])
    # default 10 eps = 1.0 merges the chain; 0.4 splits it
    assert len(cluster_vertices(cloud, graph, labels)) == 1
    assert len(cluster_vertices(cloud, graph, labels, threshold=0.4)) == 3


def test_assign_incidence_single_segment():
    seg = [(0.1 * k, 0.0) for k in range(31)]
    cloud = PointCloud(seg, EPS)
    vertex_clusters = [[0], [30]]
    edge_clusters = [list(range(1, 30))]
    graph = build_graph(cloud, 3.0 * EPS)
    incidence = assign_incidence(cloud, graph, vertex_clusters, edge_clusters)
    assert incidence == [(0, 1)]


def test_assign_incidence_tight_loop_raises():
    # a loop whose edge cluster touches only one vertex cluster
    ring = [(math.cos(t) * 0.4, math.sin(t) * 0.4)
            for t in np.linspace(0.0, 2.0 * math.pi, 40, endpoint=False)]
    cloud = PointCloud(ring, EPS)
    vertex_clusters = [[0]]
    edge_clusters = [list(range(1, 40))]
    graph = build_graph(cloud, 3.0 * EPS)
    with pytest.raises(IncidenceError) as info:
        assign_incidence(cloud, graph, vertex_clusters, edge_clusters)
    assert info.value.edge_cluster == 0
    assert info.value.candidates == (0,)
    assert "expected exactly 2" in str(info.value)


def test_assign_incidence_parallel_edge_clusters_rejected():
    # two strands between the same two vertex clusters would be a
    # parallel edge, which the abstract graph does not allow
    strand_a = [(0.1 * k, 0.1) for k in range(1, 30)]
    strand_b = [(0.1 * k, -0.1) for k in range(1, 30)]
    cloud = PointCloud([(0.0, 0.0), (3.0, 0.0)] + strand_a + strand_b, EPS)
    graph = build_graph(cloud, 3.0 * EPS)
    with pytest.raises(ValueError, match="duplicate edge"):
        assign_incidence(cloud, graph, [[0], [1]],
                         [list(range(2, 31)), list(range(31, 60))])


def test_assign_incidence_respects_link_threshold():
    seg = [(0.1 * k, 0.0) for k in range(31)]
    cloud = PointCloud(seg, EPS)
    vertex_clusters = [[0], [30]]
    edge_clusters = [list(range(1, 30))]
    graph = build_graph(cloud, 3.0 * EPS)
    # shrinking the link radius below the sample gap breaks incidence
    with pytest.raises(IncidenceError):
        assign_incidence(cloud, graph, vertex_clusters, edge_clusters,
                         link_threshold=0.05)


def incidence_per_cluster(cloud, graph, vertex_clusters, edge_clusters,
                          link_threshold=None):
    """Reference: one radius query and one set of touched vertex clusters
    per edge cluster, in order; the first cluster that does not touch
    exactly two raises."""
    if link_threshold is None:
        link_threshold = 3.0 * cloud.epsilon
    pts = cloud.array
    owner = np.full(len(pts), -1)
    for v_id, cluster in enumerate(vertex_clusters):
        owner[list(cluster)] = v_id
    incidence = []
    for e_id, cluster in enumerate(edge_clusters):
        _, near = graph.query(pts[list(cluster)], link_threshold)
        touched = set(owner[near].tolist()) - {-1}
        if len(touched) != 2:
            raise IncidenceError(e_id, touched)
        incidence.append(tuple(sorted(touched)))
    AbstractGraph(len(vertex_clusters), incidence)
    return incidence


def outcome(fn, *args, **kwargs):
    try:
        return fn(*args, **kwargs)
    except IncidenceError as err:
        return ("IncidenceError", err.edge_cluster, err.candidates, str(err))
    except ValueError as err:
        return ("ValueError", str(err))


def test_assign_incidence_matches_per_cluster_reference(truth_2d, truth_3d):
    # passing clouds, link thresholds that break incidence (too short:
    # clusters touch fewer than two; too long: more than two); the edge
    # clusters' members span several query blocks, which straddle clusters
    seen = set()
    for truth, opts in ((truth_2d, SampleOptions(seed=4)),
                        (truth_3d, SampleOptions(seed=6)),
                        (truth_2d, SampleOptions(seed=7, spacing=EPS / 5))):
        cloud = sample_graph(truth, EPS, opts)
        graph = build_graph(cloud, 3.0 * EPS)
        labels = classify_all(cloud, graph)
        vc = cluster_vertices(cloud, graph, labels)
        ec = cluster_edges(cloud, graph, labels)
        assert sum(map(len, ec)) > 2 * 64
        for link in (None, 0.02, 0.08, 1.0, 2.0, 8.0):
            got = outcome(assign_incidence, cloud, graph, vc, ec, link)
            assert got == outcome(incidence_per_cluster, cloud, graph, vc, ec, link)
            seen.add(got[0] if isinstance(got, tuple) else "ok")
        # edge clusters in reverse order, and one cluster dropped
        for edges in (ec[::-1], ec[1:]):
            got = outcome(assign_incidence, cloud, graph, vc, edges)
            assert got == outcome(incidence_per_cluster, cloud, graph, vc, edges)
    assert seen == {"ok", "IncidenceError"}


def test_assign_incidence_errors_match_per_cluster_reference():
    seg = [(0.1 * k, 0.0) for k in range(31)]
    strand_a = [(0.1 * k, 0.1) for k in range(1, 30)]
    strand_b = [(0.1 * k, -0.1) for k in range(1, 30)]
    cases = [
        # duplicate edge: both strands run between the same two clusters
        (PointCloud([(0.0, 0.0), (3.0, 0.0)] + strand_a + strand_b, EPS),
         [[0], [1]], [list(range(2, 31)), list(range(31, 60))]),
        # the second cluster fails first: the first is fine
        (PointCloud(seg, EPS), [[0], [15], [22], [30]],
         [list(range(1, 15)), [k for k in range(16, 30) if k != 22]]),
        # an empty edge cluster touches nothing
        (PointCloud(seg, EPS), [[0], [30]], [list(range(1, 30)), []]),
        # no vertex clusters at all
        (PointCloud(seg, EPS), [], [list(range(1, 30))]),
        # no edge clusters
        (PointCloud(seg, EPS), [[0], [30]], []),
        # clusters given as sets: one passing, then the second failing
        (PointCloud(seg, EPS), [{0}, {30}], [set(range(1, 30))]),
        (PointCloud(seg, EPS), [{0}, {15}, {22}, {30}],
         [set(range(1, 15)), {k for k in range(16, 30) if k != 22}]),
    ]
    got = []
    for cloud, vc, ec in cases:
        graph = build_graph(cloud, 3.0 * EPS)
        got.append(outcome(assign_incidence, cloud, graph, vc, ec))
        assert got[-1] == outcome(incidence_per_cluster, cloud, graph, vc, ec)
    assert got[0][0] == "ValueError" and "duplicate edge" in got[0][1]
    assert got[1][:3] == ("IncidenceError", 1, (1, 2, 3))
    assert got[2][:3] == ("IncidenceError", 1, ())
    assert got[3][:3] == ("IncidenceError", 0, ())
    assert got[4] == []
    assert got[5] == [(0, 1)]
    assert got[6] == got[1]


@pytest.mark.parametrize("value", [float("nan"), float("inf")])
def test_non_finite_thresholds_rejected(value):
    seg = [(0.1 * k, 0.0) for k in range(31)]
    cloud = PointCloud(seg, EPS)
    graph = build_graph(cloud, 3.0 * EPS)
    labels = DimensionLabels([0] + [1] * 29 + [0])
    with pytest.raises(ValueError, match="finite"):
        cluster_vertices(cloud, graph, labels, threshold=value)
    with pytest.raises(ValueError, match="finite"):
        cluster_vertices(cloud, graph, DimensionLabels([1] * 31), threshold=value)
    with pytest.raises(ValueError, match="finite"):
        cluster_edges(cloud, graph, labels, threshold=value)
    with pytest.raises(ValueError, match="finite") as info:
        assign_incidence(cloud, graph, [[0], [30]], [list(range(1, 30))],
                         link_threshold=value)
    assert not isinstance(info.value, IncidenceError)


def test_reconstruct_structure_five_vertex_graph(truth_2d, five_vertex_graph):
    cloud = sample_graph(truth_2d, EPS, SampleOptions(seed=5))
    strat = reconstruct_structure(cloud)
    assert len(strat.vertex_clusters) == 5
    assert len(strat.edge_clusters) == 4
    recovered = strat.abstract_graph()
    assert graph_isomorphic(recovered, five_vertex_graph) is not None


def test_recovered_graph_invariant_under_permutation(truth_2d):
    cloud = sample_graph(truth_2d, EPS, SampleOptions(seed=8))
    base = reconstruct_structure(cloud).abstract_graph()
    rng = np.random.default_rng(0)
    perm = rng.permutation(len(cloud))
    shuffled = PointCloud(cloud.array[perm], EPS)
    again = reconstruct_structure(shuffled).abstract_graph()
    assert graph_isomorphic(base, again) is not None


def test_recovered_graph_invariant_under_rigid_motion(truth_2d):
    cloud = sample_graph(truth_2d, EPS, SampleOptions(seed=8))
    base = reconstruct_structure(cloud).abstract_graph()
    ang = 1.1
    rot = np.array([[math.cos(ang), -math.sin(ang)],
                    [math.sin(ang), math.cos(ang)]])
    moved = PointCloud(cloud.array @ rot.T + np.array([-2.0, 4.0]), EPS)
    again = reconstruct_structure(moved).abstract_graph()
    assert graph_isomorphic(base, again) is not None


def test_cluster_counts_match_output_graph(truth_2d):
    cloud = sample_graph(truth_2d, EPS, SampleOptions(seed=2))
    strat = reconstruct_structure(cloud)
    g = strat.abstract_graph()
    assert g.vertex_count == len(strat.vertex_clusters)
    assert g.edge_count == len(strat.edge_clusters)


def test_stratification_partitions_all_points(truth_2d):
    cloud = sample_graph(truth_2d, EPS, SampleOptions(seed=3))
    strat = reconstruct_structure(cloud)
    seen = sorted(i for c in strat.vertex_clusters for i in c)
    seen += sorted(i for c in strat.edge_clusters for i in c)
    assert sorted(seen) == list(range(len(cloud)))
