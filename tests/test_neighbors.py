"""Threshold graphs, radius queries, and component labeling vs oracles."""
import tracemalloc

import numpy as np
import pytest

from stratograph import PointCloud, build_graph, components

# A pair at exactly r = TIE_RADIUS: the einsum predicate sq <= r*r holds,
# but scipy's cKDTree asked at exactly r misses it, so only the query's
# slack keeps the tie.
TIE_PAIR = [[0.6194215518255555, 0.12095190401237166, -0.423157571137579],
            [-0.1742073146382146, 0.6362419419418208, 0.253012924839507]]
TIE_RADIUS = 1.1630034997814065


def brute_adjacency(pts, r):
    """All-pairs oracle for the <= r predicate on squared distances."""
    n = len(pts)
    out = [set() for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            d = pts[i] - pts[j]
            if float(np.dot(d, d)) <= r * r:
                out[i].add(j)
                out[j].add(i)
    return out


def bfs_partition(adjacency, subset, pts, max_edge):
    """Traversal oracle: plain breadth-first search over the subset."""
    member = set(subset)
    limit = max_edge * max_edge
    seen = set()
    parts = []
    for start in sorted(member):
        if start in seen:
            continue
        comp = {start}
        queue = [start]
        while queue:
            i = queue.pop()
            for j in adjacency[i]:
                if j in member and j not in comp:
                    d = pts[i] - pts[j]
                    if float(np.dot(d, d)) <= limit:
                        comp.add(j)
                        queue.append(j)
        seen |= comp
        parts.append(frozenset(comp))
    return set(parts)


def test_build_graph_spec_example():
    cloud = PointCloud([(0, 0), (0.2, 0), (1, 0)], 0.1)
    g = build_graph(cloud, 0.3)
    assert g.adjacency[0].tolist() == [1]
    assert g.adjacency[1].tolist() == [0]
    assert g.adjacency[2].tolist() == []


def test_build_graph_empty_below_min_distance():
    cloud = PointCloud([(0, 0), (1, 0), (0, 1)], 0.1)
    g = build_graph(cloud, 0.5)
    assert all(len(a) == 0 for a in g.adjacency)


def test_build_graph_tie_at_radius_included():
    cloud = PointCloud([(0, 0), (0.3, 0)], 0.1)
    g = build_graph(cloud, 0.3)
    assert g.adjacency[0].tolist() == [1]


def test_build_graph_tie_lost_by_tree_arithmetic_included():
    g = build_graph(PointCloud(TIE_PAIR, 0.1), TIE_RADIUS)
    assert g.adjacency[0].tolist() == [1]


def test_build_graph_duplicates_adjacent():
    cloud = PointCloud([(1, 1), (1, 1)], 0.1)
    g = build_graph(cloud, 0.05)
    assert g.adjacency[0].tolist() == [1]


def test_build_graph_matches_allpairs_oracle():
    rng = np.random.default_rng(7)
    pts = rng.uniform(0, 1, (500, 2))
    cloud = PointCloud(pts, 0.1)
    g = build_graph(cloud, 0.1)
    oracle = brute_adjacency(pts, 0.1)
    for i in range(len(pts)):
        assert set(g.adjacency[i].tolist()) == oracle[i]


def test_build_graph_oracle_3d_2000_points():
    rng = np.random.default_rng(11)
    pts = rng.uniform(0, 1, (2000, 3))
    cloud = PointCloud(pts, 0.1)
    g = build_graph(cloud, 0.15)
    oracle = brute_adjacency(pts, 0.15)
    for i in range(len(pts)):
        assert set(g.adjacency[i].tolist()) == oracle[i]


def test_components_chain_examples():
    cloud = PointCloud([(0, 0), (0.2, 0), (0.4, 0)], 0.1)
    g = build_graph(cloud, 0.2)
    assert components(g, [0, 1, 2], 0.2).component_count == 1
    assert components(g, [0, 1, 2], 0.15).component_count == 3


def test_components_threshold_above_radius_matches_bfs_oracle():
    # thresholds above the graph radius come from radius queries, not from
    # the adjacency lists; subsets span several blocks of members
    rng = np.random.default_rng(19)
    pts = rng.uniform(0, 1, (400, 2))
    g = build_graph(PointCloud(pts, 0.1), 0.03)
    for max_edge in (0.05, 0.09):
        oracle_adj = brute_adjacency(pts, max_edge)
        subset = list(range(0, 400, 2))
        got = components(g, subset, max_edge)
        parts = {frozenset(grp) for grp in got.groups()}
        assert parts == bfs_partition(oracle_adj, subset, pts, max_edge)


def test_components_tie_above_radius_included():
    g = build_graph(PointCloud(TIE_PAIR, 0.1), TIE_RADIUS / 4)
    assert g.adjacency[0].tolist() == []
    assert components(g, [0, 1], TIE_RADIUS).component_count == 1
    below = np.nextafter(TIE_RADIUS, 0.0)
    assert components(g, [0, 1], below).component_count == 2


def test_components_cloud_spanning_threshold_memory_bounded():
    # at a threshold spanning the cloud every ball is the whole cloud;
    # blocks of 64 such balls peak near 8 MB here, blocks sized by their
    # candidates near 2 MB
    rng = np.random.default_rng(23)
    g = build_graph(PointCloud(rng.uniform(0, 1, (1000, 3)), 0.01), 0.03)
    tracemalloc.start()
    try:
        lab = components(g, range(1000), 2.0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert lab.component_count == 1
    assert peak < 4e6


def test_components_subset_index_out_of_range():
    cloud = PointCloud([(0, 0), (0.2, 0)], 0.1)
    g = build_graph(cloud, 0.2)
    with pytest.raises(IndexError):
        components(g, [0, 5], 0.2)


def test_components_matches_bfs_oracle():
    rng = np.random.default_rng(3)
    pts = rng.uniform(0, 1, (300, 2))
    cloud = PointCloud(pts, 0.1)
    g = build_graph(cloud, 0.08)
    oracle_adj = brute_adjacency(pts, 0.08)
    for max_edge in (0.08, 0.05):
        subset = list(range(0, 300, 2))
        got = components(g, subset, max_edge)
        parts = {frozenset(grp) for grp in got.groups()}
        assert parts == bfs_partition(oracle_adj, subset, pts, max_edge)


def test_components_labels_are_canonical_min_index():
    cloud = PointCloud([(0, 0), (0.1, 0), (5, 0), (5.1, 0)], 0.1)
    g = build_graph(cloud, 0.2)
    lab = components(g, [0, 1, 2, 3], 0.2)
    assert lab.labels == {0: 0, 1: 0, 2: 2, 3: 2}
    assert lab.groups() == [[0, 1], [2, 3]]


def test_components_refinement_property():
    # components at r' <= r refine components at r
    rng = np.random.default_rng(5)
    pts = rng.uniform(0, 1, (200, 2))
    cloud = PointCloud(pts, 0.1)
    g = build_graph(cloud, 0.1)
    coarse = components(g, range(200), 0.1)
    fine = components(g, range(200), 0.06)
    for grp in fine.groups():
        coarse_ids = {coarse.labels[i] for i in grp}
        assert len(coarse_ids) == 1


def test_radius_neighbors_zero_radius_duplicates():
    g = build_graph(PointCloud([(0, 0), (0, 0), (1, 0)], 0.1), 0.5)
    assert g.balls([(0, 0)], 0.0)[0].tolist() == [0, 1]


def test_radius_neighbors_empty_when_far():
    g = build_graph(PointCloud([(0.5, 0)], 0.1), 0.3)
    assert g.balls([(0, 0)], 0.4)[0].tolist() == []


def test_radius_neighbors_dimension_mismatch():
    g = build_graph(PointCloud([(0, 0)], 0.1), 0.3)
    with pytest.raises(ValueError):
        g.balls([(0, 0, 0)], 0.5)


def test_radius_neighbors_matches_linear_scan():
    rng = np.random.default_rng(9)
    pts = rng.uniform(0, 1, (1000, 3))
    g = build_graph(PointCloud(pts, 0.1), 0.03)
    qs = rng.uniform(0, 1, (50, 3))
    for radius in (0.07, 0.2):
        for q, got in zip(qs, g.balls(qs, radius)):
            diff = pts - q
            sq = np.einsum("ij,ij->i", diff, diff)
            assert got.tolist() == np.nonzero(sq <= radius * radius)[0].tolist()


def test_query_many_agrees_with_single_queries():
    # 80 queries span more than one block of tree calls
    rng = np.random.default_rng(13)
    pts = rng.uniform(0, 1, (400, 2))
    g = build_graph(PointCloud(pts, 0.1), 0.05)
    qs = rng.uniform(-0.1, 1.1, (80, 2))
    batched = g.balls(qs, 0.12)
    assert len(batched) == len(qs)
    for q, got in zip(qs, batched):
        assert got.tolist() == g.balls([q], 0.12)[0].tolist()


def test_subset_components_with_and_without_index_agree():
    # labels from radius queries equal those of a linear scan over the subset
    rng = np.random.default_rng(21)
    pts = rng.uniform(0, 1, (250, 2))
    subset = list(range(0, 250, 3))
    g = build_graph(PointCloud(pts, 0.1), 0.05)
    scan = [set(np.nonzero(np.einsum("ij,ij->i", pts - p, pts - p)
                           <= 0.15 * 0.15)[0].tolist()) for p in pts]
    want = {i: min(part) for part in bfs_partition(scan, subset, pts, 0.15)
            for i in part}
    assert components(g, subset, 0.15).labels == want


def test_order_independence_of_partition():
    rng = np.random.default_rng(17)
    pts = rng.uniform(0, 1, (150, 2))
    perm = rng.permutation(150)
    g1 = build_graph(PointCloud(pts, 0.1), 0.1)
    g2 = build_graph(PointCloud(pts[perm], 0.1), 0.1)
    # compare partitions as sets of point-coordinate sets
    c1 = components(g1, range(150), 0.1)
    c2 = components(g2, range(150), 0.1)
    as_points_1 = {frozenset(map(tuple, pts[grp].tolist()))
                   for grp in map(list, c1.groups())}
    as_points_2 = {frozenset(map(tuple, pts[perm][grp].tolist()))
                   for grp in map(list, c2.groups())}
    assert as_points_1 == as_points_2
