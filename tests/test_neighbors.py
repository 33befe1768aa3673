"""Threshold graphs, radius queries, and component labeling vs oracles."""
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from stratograph import (AbstractGraph, EmbeddedGraph, PointCloud, SampleOptions,
                         build_graph, classify_all, components, sample_graph)
from stratograph.neighbors import _BLOCK, _QUERY_ROWS, query_blocks

# A pair at exactly r = TIE_RADIUS: the einsum predicate sq <= r*r holds,
# but scipy's cKDTree asked at exactly r misses it, so only the query's
# slack keeps the tie.
TIE_PAIR = [[0.6194215518255555, 0.12095190401237166, -0.423157571137579],
            [-0.1742073146382146, 0.6362419419418208, 0.253012924839507]]
TIE_RADIUS = 1.1630034997814065


def row(g, i):
    """Neighbours of sample i in the graph's CSR rows."""
    return g.indices[g.indptr[i]:g.indptr[i + 1]].tolist()


def balls(g, qs, radius):
    """One list of cloud indices per query row, from the CSR query."""
    indptr, indices = g.query(qs, radius)
    assert np.all(np.diff(indptr) >= 0) and indptr[0] == 0
    assert indptr[-1] == len(indices)
    return [indices[a:b].tolist() for a, b in zip(indptr[:-1], indptr[1:])]


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


def labels_of(comps):
    """Point -> smallest member of its component, after checking that the
    components are ascending int arrays ordered by their smallest member."""
    for c in comps:
        assert c.dtype.kind == "i" and len(c) and np.all(np.diff(c) > 0)
    firsts = [int(c[0]) for c in comps]
    assert firsts == sorted(firsts)
    return {int(i): int(c[0]) for c in comps for i in c}


def partition_of(comps):
    """The components as a set of frozensets, after the checks of ``labels_of``."""
    labels_of(comps)
    return {frozenset(c.tolist()) for c in comps}


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
    assert row(g, 0) == [1]
    assert row(g, 1) == [0]
    assert row(g, 2) == []


def test_build_graph_empty_below_min_distance():
    cloud = PointCloud([(0, 0), (1, 0), (0, 1)], 0.1)
    g = build_graph(cloud, 0.5)
    assert g.indptr.tolist() == [0, 0, 0, 0] and len(g.indices) == 0


def test_build_graph_tie_at_radius_included():
    cloud = PointCloud([(0, 0), (0.3, 0)], 0.1)
    g = build_graph(cloud, 0.3)
    assert row(g, 0) == [1]


def test_build_graph_tie_lost_by_tree_arithmetic_included():
    g = build_graph(PointCloud(TIE_PAIR, 0.1), TIE_RADIUS)
    assert row(g, 0) == [1]


def test_build_graph_duplicates_adjacent():
    cloud = PointCloud([(1, 1), (1, 1)], 0.1)
    g = build_graph(cloud, 0.05)
    assert row(g, 0) == [1]


def test_build_graph_matches_allpairs_oracle():
    rng = np.random.default_rng(7)
    pts = rng.uniform(0, 1, (500, 2))
    cloud = PointCloud(pts, 0.1)
    g = build_graph(cloud, 0.1)
    oracle = brute_adjacency(pts, 0.1)
    for i in range(len(pts)):
        assert row(g, i) == sorted(oracle[i])


def test_build_graph_oracle_3d_2000_points():
    rng = np.random.default_rng(11)
    pts = rng.uniform(0, 1, (2000, 3))
    cloud = PointCloud(pts, 0.1)
    g = build_graph(cloud, 0.15)
    oracle = brute_adjacency(pts, 0.15)
    for i in range(len(pts)):
        assert row(g, i) == sorted(oracle[i])


def test_components_chain_examples():
    cloud = PointCloud([(0, 0), (0.2, 0), (0.4, 0)], 0.1)
    g = build_graph(cloud, 0.2)
    assert len(components(g, [0, 1, 2], 0.2)) == 1
    assert len(components(g, [0, 1, 2], 0.15)) == 3


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
        assert partition_of(got) == bfs_partition(oracle_adj, subset, pts, max_edge)


def test_components_tie_above_radius_included():
    g = build_graph(PointCloud(TIE_PAIR, 0.1), TIE_RADIUS / 4)
    assert row(g, 0) == []
    assert len(components(g, [0, 1], TIE_RADIUS)) == 1
    below = np.nextafter(TIE_RADIUS, 0.0)
    assert len(components(g, [0, 1], below)) == 2


def test_components_cloud_spanning_threshold_memory_bounded():
    # at a threshold spanning the cloud every ball is the whole cloud;
    # blocks of 64 such balls peak near 8 MB here, blocks sized by their
    # candidates near 2 MB
    rng = np.random.default_rng(23)
    g = build_graph(PointCloud(rng.uniform(0, 1, (1000, 3)), 0.01), 0.03)
    tracemalloc.start()
    try:
        comps = components(g, range(1000), 2.0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(comps) == 1
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
        assert partition_of(got) == bfs_partition(oracle_adj, subset, pts, max_edge)


def test_components_labels_are_canonical_min_index():
    cloud = PointCloud([(0, 0), (0.1, 0), (5, 0), (5.1, 0)], 0.1)
    g = build_graph(cloud, 0.2)
    comps = components(g, [3, 1, 2, 0, 2], 0.2)
    assert labels_of(comps) == {0: 0, 1: 0, 2: 2, 3: 2}
    assert [c.tolist() for c in comps] == [[0, 1], [2, 3]]
    assert components(g, [], 0.2) == []


def test_components_refinement_property():
    # components at r' <= r refine components at r
    rng = np.random.default_rng(5)
    pts = rng.uniform(0, 1, (200, 2))
    cloud = PointCloud(pts, 0.1)
    g = build_graph(cloud, 0.1)
    coarse = labels_of(components(g, range(200), 0.1))
    fine = components(g, range(200), 0.06)
    labels_of(fine)
    for grp in fine:
        coarse_ids = {coarse[i] for i in grp.tolist()}
        assert len(coarse_ids) == 1


def test_radius_neighbors_zero_radius_duplicates():
    g = build_graph(PointCloud([(0, 0), (0, 0), (1, 0)], 0.1), 0.5)
    assert balls(g, [(0, 0)], 0.0)[0] == [0, 1]


def test_radius_neighbors_empty_when_far():
    g = build_graph(PointCloud([(0.5, 0)], 0.1), 0.3)
    assert balls(g, [(0, 0)], 0.4)[0] == []


def test_radius_neighbors_dimension_mismatch():
    g = build_graph(PointCloud([(0, 0)], 0.1), 0.3)
    with pytest.raises(ValueError):
        g.query([(0, 0, 0)], 0.5)


def test_radius_neighbors_matches_linear_scan():
    rng = np.random.default_rng(9)
    pts = rng.uniform(0, 1, (1000, 3))
    g = build_graph(PointCloud(pts, 0.1), 0.03)
    qs = rng.uniform(0, 1, (50, 3))
    for radius in (0.07, 0.2):
        for q, got in zip(qs, balls(g, qs, radius)):
            diff = pts - q
            sq = np.einsum("ij,ij->i", diff, diff)
            assert got == np.nonzero(sq <= radius * radius)[0].tolist()


def test_query_many_agrees_with_single_queries():
    # the queries span more than two blocks of tree calls
    rng = np.random.default_rng(13)
    pts = rng.uniform(0, 1, (400, 2))
    g = build_graph(PointCloud(pts, 0.1), 0.05)
    qs = rng.uniform(-0.1, 1.1, (2 * _QUERY_ROWS + 37, 2))
    batched = balls(g, qs, 0.12)
    assert len(batched) == len(qs)
    for q, got in zip(qs, batched):
        assert got == balls(g, [q], 0.12)[0]


@pytest.mark.parametrize("dim,n,seed", [(2, 600, 31), (3, 900, 37)])
def test_query_csr_matches_allpairs_oracle(dim, n, seed):
    # the query over the whole cloud spans several blocks of rows; each
    # row holds the point itself and its oracle neighbours, ascending
    rng = np.random.default_rng(seed)
    pts = rng.uniform(0, 1, (n, dim))
    for radius in (0.02, 0.07, 0.15):
        g = build_graph(PointCloud(pts, 0.1), radius)
        oracle = brute_adjacency(pts, radius)
        assert balls(g, pts, radius) == [sorted(oracle[i] | {i}) for i in range(n)]
        assert [row(g, i) for i in range(n)] == [sorted(nb) for nb in oracle]
        assert g.edge_count() == sum(map(len, oracle)) // 2


def test_query_csr_tie_pair():
    g = build_graph(PointCloud(TIE_PAIR, 0.1), TIE_RADIUS)
    assert g.indptr.tolist() == [0, 1, 2] and g.indices.tolist() == [1, 0]
    assert balls(g, TIE_PAIR, TIE_RADIUS) == [[0, 1], [0, 1]]
    assert balls(g, TIE_PAIR, np.nextafter(TIE_RADIUS, 0.0)) == [[0], [1]]


def test_query_empty_and_negative_radius():
    g = build_graph(PointCloud([(0, 0), (0.1, 0)], 0.1), 0.3)
    assert balls(g, np.empty((0, 2)), 0.3) == []
    assert balls(g, [(0, 0), (5, 5)], -1.0) == [[], []]


@pytest.mark.parametrize("radius", [float("nan"), float("inf"), -float("inf")])
def test_query_rejects_non_finite_radius(radius):
    g = build_graph(PointCloud([(0, 0), (0.1, 0)], 0.1), 0.3)
    with pytest.raises(ValueError, match="finite"):
        g.query([(0, 0)], radius)


@pytest.mark.parametrize("radius", [float("nan"), float("inf"), 0.0, -0.3])
def test_build_graph_rejects_bad_radius(radius):
    with pytest.raises(ValueError, match="finite and positive"):
        build_graph(PointCloud([(0, 0), (0.1, 0)], 0.1), radius)


@pytest.mark.parametrize("threshold", [float("nan"), float("inf")])
def test_components_rejects_non_finite_threshold(threshold):
    g = build_graph(PointCloud([(0, 0), (0.1, 0)], 0.1), 0.3)
    with pytest.raises(ValueError, match="finite"):
        components(g, [0, 1], threshold)
    with pytest.raises(ValueError, match="finite"):
        components(g, [], threshold)


def test_build_graph_memory_bounded_by_query_blocks():
    # about 80 neighbours per point: a single tree call over all rows
    # holds every candidate pair with its coordinate differences, and
    # peaks above six times the CSR it returns; blocks of rows, with the
    # self column dropped afterwards, stay under three times it
    rng = np.random.default_rng(29)
    cloud = PointCloud(rng.uniform(0, 1, (4000, 3)), 0.01)
    cloud.array
    tracemalloc.start()
    try:
        g = build_graph(cloud, 0.18)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert g.edge_count() > 150_000
    assert peak < 3 * (g.indptr.nbytes + g.indices.nbytes)


def test_graph_sized_blocks_memory_bounded_by_csr():
    # an 8x8 grid graph with 4-unit edges at eps 0.1 (8,912 samples, about
    # 106k CSR entries) gets blocks sized to the graph: about 4x fewer
    # classifier blocks and 3x fewer component blocks than at the fixed
    # floors.  They peak near 2.3x (classify) and 1.2x (components) the
    # CSR, against 1.5x and 0.8x at the floors; a single uncapped block
    # peaks near 89x and 25x
    side, eps = 8, 0.1
    edges = ([(v, v + side) for v in range(side * (side - 1))]
             + [(v, v + 1) for v in range(side * side) if v % side != side - 1])
    positions = [(4.0 * (v // side), 4.0 * (v % side)) for v in range(side * side)]
    truth = EmbeddedGraph(AbstractGraph(side * side, edges), positions)
    cloud = sample_graph(truth, eps, SampleOptions(seed=17))
    g = build_graph(cloud, 3.0 * eps)
    assert len(cloud) > 8000
    csr = g.indptr.nbytes + g.indices.nbytes
    for name, call in (("classify_all", lambda: classify_all(cloud, g)),
                       ("components", lambda: components(g, range(len(cloud)),
                                                         10.0 * eps))):
        tracemalloc.start()
        try:
            call()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 3 * csr, name


def test_query_blocks_cover_rows_once_in_order():
    rng = np.random.default_rng(41)
    pts = rng.uniform(0, 1, (500, 2))
    g = build_graph(PointCloud(pts, 0.1), 0.05)
    rows = rng.permutation(500)[:300]
    walked = []
    for sel, indptr, indices in query_blocks(g, rows, 0.1):
        assert 1 <= len(sel) <= _BLOCK
        want_ptr, want_idx = g.query(pts[rows[sel]], 0.1)
        assert indptr.tolist() == want_ptr.tolist()
        assert indices.tolist() == want_idx.tolist()
        walked += sel.tolist()
    assert walked == list(range(300))


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
    assert labels_of(components(g, subset, 0.15)) == want


def test_order_independence_of_partition():
    rng = np.random.default_rng(17)
    pts = rng.uniform(0, 1, (150, 2))
    perm = rng.permutation(150)
    g1 = build_graph(PointCloud(pts, 0.1), 0.1)
    g2 = build_graph(PointCloud(pts[perm], 0.1), 0.1)
    # compare partitions as sets of point-coordinate sets
    c1 = components(g1, range(150), 0.1)
    c2 = components(g2, range(150), 0.1)
    as_points_1 = {frozenset(map(tuple, pts[grp].tolist())) for grp in c1}
    as_points_2 = {frozenset(map(tuple, pts[perm][grp].tolist())) for grp in c2}
    assert as_points_1 == as_points_2


def einsum_rows(pts, qs, radius):
    """All-pairs oracle: for each query, the points with einsum <= r*r."""
    out = []
    for q in qs:
        diff = pts - q
        out.append(np.flatnonzero(np.einsum("ij,ij->i", diff, diff)
                                  <= radius * radius).tolist())
    return out


def assert_matches_oracle(pts, radius):
    g = build_graph(PointCloud(pts, 0.1), radius)
    want = einsum_rows(pts, pts, radius)
    assert balls(g, pts, radius) == want
    assert [row(g, i) for i in range(len(pts))] == [
        [j for j in w if j != i] for i, w in enumerate(want)]


# grid coordinates make many exactly tied distances, free ones the rest
_COORD = st.one_of(st.integers(-4, 4).map(float),
                   st.floats(-4.0, 4.0, allow_nan=False))


@st.composite
def clouds_and_tie_radius(draw):
    """A 1-3 D cloud at scale 1e-30 to 1e30, translated by up to 1e7 times
    the scale, and a radius equal to one of its pair distances."""
    dim = draw(st.integers(1, 3))
    rows = draw(st.lists(st.lists(_COORD, min_size=dim, max_size=dim),
                         min_size=2, max_size=24))
    scale = 10.0 ** draw(st.integers(-30, 30))
    shift = [draw(st.floats(-1e7, 1e7, allow_nan=False)) for _ in range(dim)]
    pts = (np.array(rows) + np.array(shift)) * scale
    i = draw(st.integers(0, len(pts) - 1))
    j = draw(st.integers(0, len(pts) - 1))
    diff = pts[i] - pts[j]
    return pts, math.sqrt(float(np.einsum("i,i->", diff, diff)))


@settings(derandomize=True, max_examples=150, deadline=None)
@given(clouds_and_tie_radius())
def test_query_and_graph_match_oracle_at_pair_distances(case):
    # the tree's distances decide pairs well inside the radius; every pair
    # near it, an exact tie included, must still follow the einsum
    pts, radius = case
    for r in (radius, float(np.nextafter(radius, 0.0))):
        if r > 0.0:
            assert_matches_oracle(pts, r)


@pytest.mark.parametrize("scale", [1e-170, 1e-160, 1e145, 1e150])
def test_query_matches_oracle_where_squares_leave_normal_range(scale):
    # r*r underflows or nears overflow here, so every candidate is
    # measured with the einsum
    rng = np.random.default_rng(43)
    pts = np.round(rng.uniform(-4, 4, (60, 2)) * 4) / 4 * scale
    for k in (1, 7, 19):
        diff = pts[0] - pts[k]
        radius = math.sqrt(float(np.dot(diff, diff)))
        for r in (radius, float(np.nextafter(radius, 0.0))):
            if r > 0.0:
                assert_matches_oracle(pts, r)
