"""Domain types: clouds, graphs, labels, stratifications, validation."""
import numpy as np
import pytest

from stratograph import (AbstractGraph, DimensionLabels, EmbeddedGraph,
                         PointCloud, Stratification, ValidationReport,
                         validate_cloud)


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


def test_validate_cloud_accepts_wellformed():
    report = validate_cloud(PointCloud([(0, 0), (1, 0), (0, 1)], 0.1))
    assert report.valid
    assert report.findings == ()


def test_validate_cloud_nonfinite_coordinate():
    report = validate_cloud(PointCloud([(float("nan"), 0), (1, 0)], 0.1))
    assert not report.valid
    assert "non-finite coordinate at index 0" in report.findings


def test_validate_cloud_nonpositive_epsilon():
    report = validate_cloud(PointCloud([(0, 0)], 0.0))
    assert not report.valid
    assert "epsilon must be positive" in report.findings


def test_validate_cloud_duplicates_are_warnings_not_findings():
    # duplicates are permitted by the neighborhood-graph contract
    cloud = PointCloud([(0, 0), (0, 0)], 0.1)
    report = validate_cloud(cloud)
    assert report.valid
    assert any("duplicate" in w for w in report.warnings)


def validate_per_point(cloud):
    """Reference: every point checked on its own, in index order."""
    findings = []
    warnings = []
    if not np.isfinite(cloud.epsilon) or cloud.epsilon <= 0.0:
        findings.append("epsilon must be positive")
    if len(cloud) == 0:
        findings.append("point cloud is empty")
    elif cloud.ambient_dim < 1:
        findings.append(f"points need at least one coordinate, "
                        f"ambient_dim is {cloud.ambient_dim}")
    for i, p in enumerate(cloud.points):
        if len(p) != cloud.ambient_dim:
            findings.append(
                f"point {i} has {len(p)} coordinates, expected {cloud.ambient_dim}")
        elif not np.all(np.isfinite(p)):
            findings.append(f"non-finite coordinate at index {i}")
    if not findings and len(cloud) > 1:
        arr = np.array(cloud.points)
        order = np.lexsort(arr.T)
        same = np.all(arr[order][1:] == arr[order][:-1], axis=1)
        for k in np.nonzero(same)[0]:
            warnings.append(
                f"duplicate point: indices {order[k]} and {order[k + 1]}")
    return ValidationReport(tuple(findings), tuple(warnings))


NAN, INF = float("nan"), float("inf")
MIXED = [(0, 0), (1,), (2, 0, 0), (NAN, 1), (1, -INF), (0, 0), (3, 3),
         (NAN, INF, 0), (), (1, 1)]


@pytest.mark.parametrize("points,epsilon,ambient_dim", [
    (MIXED, 0.1, None),
    (MIXED, 0.1, 3),
    (MIXED, NAN, None),
    ([(0, 0), (1, 1), (0, 0), (1, 1), (0, 0)], 0.1, None),
    ([(0, 0), (1, 1), (0, 0)], -1.0, None),
    ([(2.0, 1.0, 0.5)], 0.1, None),
    ([], 0.1, None),
    ([], 0.0, 2),
    ([(), ()], 0.1, None),
    ([()], 0.1, None),
    ([(), (1.0,)], 0.1, None),
    (np.random.default_rng(0).integers(0, 4, (300, 2)), 0.1, None),
])
def test_validate_cloud_matches_per_point_reference(points, epsilon, ambient_dim):
    cloud = PointCloud(points, epsilon, ambient_dim)
    report = validate_cloud(cloud)
    assert report == validate_per_point(cloud)
    if report.valid:
        want = np.array(cloud.points, dtype=float).reshape(len(cloud), cloud.ambient_dim)
        assert cloud.array.shape == want.shape
        assert np.array_equal(cloud.array, want)
    else:
        with pytest.raises(ValueError, match=report.findings[0]):
            cloud.array


def test_validate_cloud_mixed_rows_in_index_order():
    report = validate_cloud(PointCloud(MIXED, 0.1))
    assert report.findings == (
        "point 1 has 1 coordinates, expected 2",
        "point 2 has 3 coordinates, expected 2",
        "non-finite coordinate at index 3",
        "non-finite coordinate at index 4",
        "point 7 has 3 coordinates, expected 2",
        "point 8 has 0 coordinates, expected 2",
    )
    assert report.warnings == ()


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
