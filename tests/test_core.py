"""Domain types: clouds, graphs, labels, stratifications, validation."""
import numpy as np
import pytest

from stratograph import (AbstractGraph, DimensionLabels, EmbeddedGraph,
                         PointCloud, Stratification)
from stratograph import core


def test_cloud_basic_accessors():
    cloud = PointCloud([(0, 0), (1, 0), (0, 1)], 0.1)
    assert len(cloud) == 3
    assert cloud.ambient_dim == 2
    assert cloud.epsilon == 0.1
    assert cloud.array.shape == (3, 2)


def test_cloud_array_is_readonly():
    cloud = PointCloud([(0, 0), (1, 0)], 0.1)
    with pytest.raises(ValueError):
        cloud.array[0, 0] = 5.0


def test_cloud_copies_its_input_array():
    # the cloud keeps its own copy: later writes to the caller's array
    # reach neither array nor equality
    source = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    cloud = PointCloud(source, 0.1)
    twin = PointCloud(source.copy(), 0.1)
    for k, value in ((1, 5.0), (2, 7.0)):
        source[k, 0] = value
        assert cloud.array.tolist() == [[0, 0], [1, 0], [0, 1]]
        assert cloud == twin
    assert PointCloud((p for p in source), 0.1).array.tolist() == source.tolist()


def test_validate_cloud_accepts_wellformed():
    cloud = PointCloud([(0, 0), (1, 0), (0, 1)], 0.1)
    assert cloud.array.tolist() == [[0, 0], [1, 0], [0, 1]]


def test_validate_cloud_nonfinite_coordinate():
    with pytest.raises(ValueError) as exc:
        PointCloud([(float("nan"), 0), (1, 0)], 0.1)
    assert str(exc.value) == "invalid point cloud: non-finite coordinate at index 0"


def test_validate_cloud_nonpositive_epsilon():
    with pytest.raises(ValueError) as exc:
        PointCloud([(0, 0)], 0.0)
    assert str(exc.value) == "invalid point cloud: epsilon must be positive"


def test_cloud_with_duplicate_points_builds():
    # duplicates are permitted by the neighborhood-graph contract
    cloud = PointCloud([(0, 0), (0, 0)], 0.1)
    assert cloud.array.tolist() == [[0, 0], [0, 0]]


def test_cloud_array_skips_the_duplicate_scan(monkeypatch):
    # duplicates never invalidate a cloud, so building one never pays for
    # the sort that would find them
    calls = []
    equal_rows = core._equal_rows
    monkeypatch.setattr(core, "_equal_rows", lambda arr: calls.append(1) or equal_rows(arr))
    cloud = PointCloud([(0, 0), (1, 0), (0, 0)], 0.1)
    assert cloud.array.shape == (3, 2)
    assert calls == []


def validate_per_point(points, epsilon):
    """Reference: every point checked on its own, in index order.  Returns
    the findings and, when there are none, the points as one array."""
    rows = [np.asarray(p, dtype=float).reshape(-1) for p in points]
    findings = []
    if not np.isfinite(epsilon) or epsilon <= 0.0:
        findings.append("epsilon must be positive")
    if not rows:
        findings.append("point cloud is empty")
        return findings, None
    dim = len(rows[0])
    if dim < 1:
        findings.append(f"points need at least one coordinate, ambient_dim is {dim}")
    for i, p in enumerate(rows):
        if len(p) != dim:
            findings.append(f"point {i} has {len(p)} coordinates, expected {dim}")
        elif not np.all(np.isfinite(p)):
            findings.append(f"non-finite coordinate at index {i}")
    return findings, (None if findings else np.array(rows))


NAN, INF = float("nan"), float("inf")
MIXED = [(0, 0), (1,), (2, 0, 0), (NAN, 1), (1, -INF), (0, 0), (3, 3),
         (NAN, INF, 0), (), (1, 1)]


CASES = {
    "mixed": (MIXED, 0.1),
    "mixed-nan-epsilon": (MIXED, NAN),
    "duplicates": ([(0, 0), (1, 1), (0, 0), (1, 1), (0, 0)], 0.1),
    "negative-epsilon": ([(0, 0), (1, 1), (0, 0)], -1.0),
    "infinite-epsilon": ([(0, 0)], INF),
    "one-3d-point": ([(2.0, 1.0, 0.5)], 0.1),
    "empty": ([], 0.1),
    "empty-zero-epsilon": ([], 0.0),
    # exhausted or not, an empty generator yields nothing to either side
    "empty-generator": ((p for p in ()), 0.1),
    "two-without-coordinates": ([(), ()], 0.1),
    "one-without-coordinates": ([()], 0.1),
    "none-then-one-coordinate": ([(), (1.0,)], 0.1),
    "random-ints": (np.random.default_rng(0).integers(0, 4, (300, 2)), 0.1),
    # one point per entry of a flat list, one per first index of a block
    "flat-list": ([1.5, NAN, 2.5], 0.1),
    "3d-block": (np.arange(8.0).reshape(2, 2, 2), 0.1),
}


@pytest.mark.parametrize("points,epsilon", CASES.values(), ids=CASES)
def test_validate_cloud_matches_per_point_reference(points, epsilon):
    findings, want = validate_per_point(points, epsilon)
    if findings:
        with pytest.raises(ValueError) as exc:
            PointCloud(points, epsilon)
        assert str(exc.value) == "invalid point cloud: " + "; ".join(findings)
    else:
        cloud = PointCloud(points, epsilon)
        assert cloud.array.shape == want.shape
        assert np.array_equal(cloud.array, want)


def test_validate_cloud_mixed_rows_in_index_order():
    with pytest.raises(ValueError) as exc:
        PointCloud(MIXED, 0.1)
    assert str(exc.value) == "invalid point cloud: " + "; ".join((
        "point 1 has 1 coordinates, expected 2",
        "point 2 has 3 coordinates, expected 2",
        "non-finite coordinate at index 3",
        "non-finite coordinate at index 4",
        "point 7 has 3 coordinates, expected 2",
        "point 8 has 0 coordinates, expected 2",
    ))


def test_abstract_graph_normalizes_and_validates():
    g = AbstractGraph(3, [(2, 1), (0, 1)])
    # pairs are stored sorted; the edge sequence keeps input order
    assert g.edges == ((1, 2), (0, 1))
    assert g.edge_count == 2
    assert g.degrees().tolist() == [1, 2, 1]
    with pytest.raises(ValueError):
        AbstractGraph(3, [(1, 1)])
    with pytest.raises(ValueError):
        AbstractGraph(3, [(0, 3)])
    with pytest.raises(ValueError):
        AbstractGraph(3, [(0, 1), (1, 0)])


def test_embedded_graph_shape_checks():
    g = AbstractGraph(2, [(0, 1)])
    emb = EmbeddedGraph(g, [(0, 0), (3, 4)])
    assert emb.ambient_dim == 2
    assert emb.edge_lengths() == (5.0,)
    with pytest.raises(ValueError):
        EmbeddedGraph(g, [(0, 0)])


def test_edge_lengths_match_per_edge_norm_bitwise():
    rng = np.random.default_rng(41)
    for _ in range(100):
        k, dim = int(rng.integers(1, 12)), int(rng.integers(1, 5))
        pos = rng.normal(0.0, 10.0 ** rng.integers(-6, 7), (k, dim))
        pairs = [(i, j) for i in range(k) for j in range(i + 1, k) if rng.random() < 0.4]
        emb = EmbeddedGraph(AbstractGraph(k, pairs), pos)
        want = [np.linalg.norm(pos[i] - pos[j]) for i, j in emb.graph.edges]
        got = emb.edge_lengths()
        assert got.shape == (len(pairs),)
        assert got.view(np.uint64).tolist() == np.array(want).view(np.uint64).tolist()


def test_dimension_labels_validate_values():
    labels = DimensionLabels([0, 1, 1, 0])
    assert labels.indices_of(0).tolist() == [0, 3]
    assert labels.indices_of(1).tolist() == [1, 2]
    with pytest.raises(ValueError):
        DimensionLabels([0, 2])


def test_stratification_partition_enforced():
    # 4 points: clusters must cover 0..3 disjointly
    s = Stratification(vertex_clusters=[[0], [3]], edge_clusters=[[1, 2]],
                       incidence=[(0, 1)], n_points=4)
    assert s.labels().labels.tolist() == [0, 1, 1, 0]
    assert s.abstract_graph().edges == ((0, 1),)
    with pytest.raises(ValueError):
        Stratification([[0], [3]], [[1]], [(0, 1)], n_points=4)
    with pytest.raises(ValueError):
        Stratification([[0], [0]], [[1, 2]], [(0, 1)], n_points=3)


def test_stratification_incidence_pairs_validated():
    with pytest.raises(ValueError):
        # incidence pair referencing a missing vertex cluster
        Stratification([[0], [3]], [[1, 2]], [(0, 2)], n_points=4)
    with pytest.raises(ValueError):
        # self-pair
        Stratification([[0], [3]], [[1, 2]], [(0, 0)], n_points=4)


def check_per_point(vertex_clusters, edge_clusters, incidence, n_points=None):
    """Reference of ``Stratification``'s validation: the per-point walk it
    replaced.  Returns the point count and the per-point cluster ids."""
    vertex_clusters = tuple(tuple(sorted(int(i) for i in c)) for c in vertex_clusters)
    edge_clusters = tuple(tuple(sorted(int(i) for i in c)) for c in edge_clusters)
    incidence = tuple((int(a), int(b)) for a, b in incidence)
    seen = set()
    for c in vertex_clusters + edge_clusters:
        if not c:
            raise ValueError("clusters must be non-empty")
        for i in c:
            if i in seen:
                raise ValueError(f"point {i} appears in two clusters")
            seen.add(i)
    n = len(seen)
    if n_points is not None and n != n_points:
        raise ValueError(f"clusters cover {n} points, expected {n_points}")
    if seen and (min(seen) != 0 or max(seen) != n - 1):
        raise ValueError("clusters must partition the contiguous index range")
    if len(incidence) != len(edge_clusters):
        raise ValueError("one incidence pair per edge cluster is required")
    kv = len(vertex_clusters)
    for k, (a, b) in enumerate(incidence):
        if a == b:
            raise ValueError(f"edge cluster {k} has identical endpoints")
        if not (0 <= a < kv and 0 <= b < kv):
            raise ValueError(f"edge cluster {k} incidence {a, b} out of range")
    cluster_of = {}
    for j, c in enumerate(vertex_clusters + edge_clusters):
        for i in c:
            cluster_of[i] = j
    return n, [cluster_of[i] for i in range(n)]


def verdict(check, *args):
    try:
        return check(*args)
    except ValueError as exc:
        return str(exc)


def array_check(vertex_clusters, edge_clusters, incidence, n_points=None):
    s = Stratification(vertex_clusters, edge_clusters, incidence, n_points)
    assert not s.cluster_of.flags.writeable
    return s.n_points, s.cluster_of.tolist()


@pytest.mark.parametrize("vc, ec, inc, n", [
    ([[0], [3]], [[1, 2]], [(0, 1)], 4),  # valid
    ([[0, 4], [3]], [[1, 2]], [(0, 1)], 5),  # valid, clusters interleave
    ([], [], [], None),  # nothing at all
    ([[0], [0]], [[1, 2]], [(0, 1)], 3),  # duplicate across clusters
    ([[0], [3]], [[1, 2, 2]], [(0, 1)], 4),  # duplicate within one cluster
    ([[0], [4]], [[1, 2]], [(0, 1)], None),  # gap
    ([[0], [3]], [[1]], [(0, 1)], 4),  # n_points mismatch
    ([[-1], [1]], [[0]], [(0, 1)], None),  # negative index
    ([[0], []], [[1]], [(0, 1)], None),  # empty cluster
    ([{0}, {3}], [{2, 1}], [(0, 1)], 4),  # sets
    ([{0}, {3, 1}], [{2, 1}], [(0, 1)], 4),  # sets with a duplicate
    ([[0], []], [[1, 0]], [(0, 1)], None),  # empty before the duplicate
    ([[0, 1], [1]], [[]], [(0, 1)], None),  # duplicate before the empty
    ([[5, 6], [5, 3]], [[3, 6]], [(0, 1)], None),  # first repeat in walk order
    ([[0], [2]], [[1]], [(0, 0)], None),  # identical endpoints
    ([[0], [2]], [[1]], [(0, 2)], None),  # incidence out of range
    ([[0], [2]], [[1]], [], None),  # incidence missing
])
def test_stratification_check_matches_per_point_reference(vc, ec, inc, n):
    assert verdict(array_check, vc, ec, inc, n) == verdict(check_per_point, vc, ec, inc, n)


def test_stratification_check_matches_reference_on_random_partitions():
    rng = np.random.default_rng(29)
    outcomes = set()
    for _ in range(400):
        n = int(rng.integers(0, 12))
        clusters = [rng.integers(-1, n + 1, size=int(rng.integers(0, 4)))
                    for _ in range(int(rng.integers(1, 6)))]
        if rng.random() < 0.5:  # a valid partition of 0..n-1 instead
            cuts = np.sort(rng.choice(np.arange(1, n), size=min(n - 1, 3), replace=False)) \
                if n > 1 else []
            clusters = np.split(rng.permutation(n), cuts)
        kv = int(rng.integers(0, len(clusters) + 1))
        vc, ec = clusters[:kv], clusters[kv:]
        inc = [(0, 1)] * len(ec)
        n_points = n if rng.random() < 0.5 else None
        got = verdict(array_check, vc, ec, inc, n_points)
        assert got == verdict(check_per_point, vc, ec, inc, n_points)
        outcomes.add(got if isinstance(got, str) else "ok")
    assert "ok" in outcomes and len(outcomes) >= 5


def test_stratification_labels_read_cluster_ids():
    s = Stratification([{3, 0}, [5]], [(4, 1), [2]], [(0, 1), (1, 0)], n_points=6)
    assert s.vertex_clusters == ((0, 3), (5,))
    assert s.edge_clusters == ((1, 4), (2,))
    assert s.cluster_of.tolist() == [0, 2, 3, 0, 2, 1]
    assert s.labels().labels.tolist() == [0, 1, 1, 0, 1, 0]


def shared_position_per_pair(pos):
    """Reference of EmbeddedGraph's shared-position check: the pair loop."""
    for i in range(len(pos)):
        for j in range(i + 1, len(pos)):
            if np.array_equal(pos[i], pos[j]):
                return f"vertices {i} and {j} share a position"
    return None


def test_shared_position_matches_pair_loop():
    rng = np.random.default_rng(31)
    found = 0
    for _ in range(300):
        k = int(rng.integers(1, 9))
        dim = int(rng.integers(1, 4))
        pos = rng.integers(0, 3, (k, dim)).astype(float)
        pos[rng.random(pos.shape) < 0.2] *= -0.0  # -0.0 equals 0.0
        want = shared_position_per_pair(pos)
        try:
            EmbeddedGraph(AbstractGraph(k), pos)
            got = None
        except ValueError as exc:
            got = str(exc)
        assert got == want
        found += want is not None
    assert 50 < found < 300
    with pytest.raises(ValueError, match="vertices 0 and 1 share a position"):
        EmbeddedGraph(AbstractGraph(2), np.zeros((2, 0)))
