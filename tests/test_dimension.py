"""Local dimension classifier: deterministic configurations and guarantees."""
import math

import numpy as np
import pytest

import stratograph.dimension
from stratograph import (AbstractGraph, ClassifierParams, EmbeddedGraph,
                         PointCloud, SampleOptions, angle_test, build_graph,
                         classify_all, classify_point, sample_graph)
from stratograph.dimension import _component_labels
from stratograph.geometry import sq_dists
from conftest import (EMBED_2D, EMBED_3D, EPS, FIVE_VERTEX_EDGES, corner_cloud,
                      line_cloud, star_cloud)


def classify_cloud(cloud, params=None):
    graph = build_graph(cloud, 3.0 * cloud.epsilon)
    return classify_all(cloud, graph, params).labels


def test_params_defaults_and_validation():
    p = ClassifierParams.from_epsilon(0.1)
    assert p.local_radius == pytest.approx(1.0)
    assert p.annulus_inner == pytest.approx(0.8)
    assert p.annulus_outer == pytest.approx(1.0)
    assert p.ball_edge_threshold == pytest.approx(0.2)
    assert p.annulus_edge_threshold == pytest.approx(0.3)
    assert p.angle_threshold == pytest.approx(2.0 * math.acos(0.25))
    # the annulus is carved out of the local ball, so it cannot extend past it
    with pytest.raises(ValueError):
        ClassifierParams.from_epsilon(0.1, annulus_inner=1.1)
    with pytest.raises(ValueError):
        ClassifierParams.from_epsilon(0.1, angle_threshold=0.0)
    with pytest.raises(ValueError):
        ClassifierParams.from_epsilon(0.1, local_radius=-1.0)


RADII = ("local_radius", "annulus_inner", "annulus_outer",
         "ball_edge_threshold", "annulus_edge_threshold")


@pytest.mark.parametrize("value", [float("nan"), float("inf"), 0.0, -0.2])
@pytest.mark.parametrize("name", RADII)
def test_params_reject_non_finite_or_non_positive_radii(name, value):
    with pytest.raises(ValueError):
        ClassifierParams.from_epsilon(0.1, **{name: value})


def test_annulus_width_matches_operating_values():
    p = ClassifierParams.from_epsilon(0.25)
    assert p.annulus_outer - p.annulus_inner == pytest.approx(2.0 * 0.25)
    assert p.annulus_outer == p.local_radius


def test_line_center_is_dimension_one():
    # points (0.1k, 0), k = -12..12: annulus at the center splits into the
    # two arcs |k| in {8, 9, 10} with centroids (+-0.9, 0), angle pi
    cloud = line_cloud(EPS, -12, 12)
    graph = build_graph(cloud, 3.0 * EPS)
    params = ClassifierParams.from_epsilon(EPS)
    center = 12  # index of (0, 0)
    assert np.allclose(cloud.array[center], 0.0)
    assert classify_point(cloud, graph, center, params) == 1


def test_star_origin_is_dimension_zero():
    cloud = star_cloud(EPS, arms=3, arm_steps=20)
    graph = build_graph(cloud, 3.0 * EPS)
    params = ClassifierParams.from_epsilon(EPS)
    assert classify_point(cloud, graph, 0, params) == 0


def _star_with_stray(center, stray, eps=EPS, arms=3, arm_steps=20):
    """Star of ``arms`` rays from ``center`` plus one stray point at least
    5 eps from every ray: in 2D the rays start along x and the stray must
    lie along y; in 3D they lie in the plane perpendicular to the stray."""
    center = np.asarray(center, dtype=float)
    d = np.asarray(stray, dtype=float) - center
    # orthonormal rows; in 3D perpendicular to d
    basis = np.eye(2) if len(d) == 2 else np.linalg.svd(d[None, :])[2][1:]
    pts = [center]
    for a in range(arms):
        ang = 2.0 * math.pi * a / arms
        u = math.cos(ang) * basis[0] + math.sin(ang) * basis[1]
        pts += [center + k * eps * u for k in range(1, arm_steps + 1)]
    return pts + [np.asarray(stray, dtype=float)]


@pytest.mark.parametrize("center, stray, local_radius", [
    ((0.0, 0.0), (0.0, 1.0), None),  # exactly 10 eps, default radius
    # a pair whose tie scipy's cKDTree misses when asked at exactly r
    ([0.6194215518255555, 0.12095190401237166, -0.423157571137579],
     [-0.1742073146382146, 0.6362419419418208, 0.253012924839507],
     1.1630034997814065),
], ids=["2d-10eps", "3d-tree-tie"])
def test_local_ball_tie_included(center, stray, local_radius):
    # a stray point in the local ball disconnects it, so the star's centre
    # reads 1 with the stray exactly on the ball's boundary and 0 beyond it
    overrides = {} if local_radius is None else {"local_radius": local_radius}
    params = ClassifierParams.from_epsilon(EPS, **overrides)
    beyond = np.asarray(center) + (np.asarray(stray) - center) * (1.0 + 1e-9)
    for point, want in ((stray, 1), (beyond, 0)):
        cloud = PointCloud(_star_with_stray(center, point), EPS)
        graph = build_graph(cloud, 3.0 * EPS)
        assert classify_point(cloud, graph, 0, params) == want
        assert classify_all(cloud, graph, params).labels[0] == want


def test_right_angle_corner_is_dimension_zero():
    cloud = corner_cloud(EPS, angle=math.pi / 2, arm_steps=20)
    graph = build_graph(cloud, 3.0 * EPS)
    params = ClassifierParams.from_epsilon(EPS)
    assert classify_point(cloud, graph, 0, params) == 0


def test_angle_test_spec_vectors():
    thr = 2.0 * math.acos(0.25)
    assert angle_test((0, 0), [(0.9, 0)], [(-0.9, 0)], thr) == 1
    assert angle_test((0, 0), [(0.9, 0)], [(0, 0.9)], thr) == 0


def test_angle_test_exact_threshold_is_one():
    # equality is not "less than": angle exactly at the threshold stays 1
    thr = 2.0 * math.acos(0.25)
    a = (1.0, 0.0)
    b = (math.cos(thr), math.sin(thr))
    assert angle_test((0.0, 0.0), [a], [b], thr) == 1
    just_inside = (math.cos(thr - 1e-9), math.sin(thr - 1e-9))
    assert angle_test((0.0, 0.0), [a], [just_inside], thr) == 0


def test_angle_test_centroid_of_multiple_points():
    thr = 2.0 * math.acos(0.25)
    comp_a = [(0.8, 0.1), (1.0, -0.1)]  # centroid (0.9, 0)
    comp_b = [(-0.8, 0.1), (-1.0, -0.1)]
    assert angle_test((0, 0), comp_a, comp_b, thr) == 1


def test_angle_test_degenerate_centroid_returns_zero():
    thr = 2.0 * math.acos(0.25)
    assert angle_test((0, 0), [(0, 0)], [(0.9, 0)], thr) == 0


def test_classify_all_line_interior():
    # every point whose full 10-eps ball lies inside the sampled range is 1
    labels = classify_cloud(line_cloud(EPS, -12, 12))
    for k in range(-2, 3):
        assert labels[k + 12] == 1


def test_classify_all_single_point_cloud():
    labels = classify_cloud(PointCloud([(0.0, 0.0)], EPS))
    assert labels.tolist() == [0]


def five_vertex_cloud(embedding, spacing=None, seed=0):
    truth = EmbeddedGraph(AbstractGraph(5, FIVE_VERTEX_EDGES), embedding)
    options = SampleOptions(spacing=spacing, seed=seed).resolve(EPS)
    return sample_graph(truth, EPS, options)


def parallel_strands(gap=5.0 * EPS, half_steps=60):
    """Two straight strands ``gap`` apart, sampled at spacing eps/2."""
    xs = [k * EPS / 2 for k in range(-half_steps, half_steps + 1)]
    return PointCloud([(x, y) for x in xs for y in (0.0, gap)], EPS)


def assert_matches_classify_point(cloud, params):
    graph = build_graph(cloud, 3.0 * cloud.epsilon)
    batched = classify_all(cloud, graph, params).labels
    single = [classify_point(cloud, graph, i, params) for i in range(len(cloud))]
    assert batched.tolist() == single


def shuffled(cloud, seed=0):
    perm = np.random.default_rng(seed).permutation(len(cloud))
    return PointCloud(cloud.array[perm], cloud.epsilon)


def test_classify_all_matches_classify_point():
    params = ClassifierParams.from_epsilon(EPS)
    for cloud in (star_cloud(EPS, arms=3, arm_steps=15),
                  five_vertex_cloud(EMBED_2D, spacing=EPS / 5),
                  five_vertex_cloud(EMBED_3D, spacing=EPS / 5),
                  parallel_strands(),
                  # samples in random order: blocks follow the tree, not indices
                  shuffled(five_vertex_cloud(EMBED_3D)),
                  # samples 5 eps apart: the neighbourhood graph has no edges
                  PointCloud([(5.0 * EPS * k, 0.0) for k in range(6)], EPS)):
        assert_matches_classify_point(cloud, params)


def count_angle_fallbacks(monkeypatch, cloud, params):
    """Calls of ``angle_test`` while ``classify_all`` labels ``cloud``,
    and the labels, checked against ``classify_point``."""
    graph = build_graph(cloud, 3.0 * cloud.epsilon)
    calls = []

    def counted(*args):
        calls.append(args)
        return angle_test(*args)

    with monkeypatch.context() as m:
        m.setattr(stratograph.dimension, "angle_test", counted)
        batched = classify_all(cloud, graph, params).labels
    single = [classify_point(cloud, graph, i, params) for i in range(len(cloud))]
    assert batched.tolist() == single
    return len(calls), batched


def test_batched_angle_test_decides_ordinary_clouds(monkeypatch):
    params = ClassifierParams.from_epsilon(EPS)
    for cloud in (five_vertex_cloud(EMBED_2D), five_vertex_cloud(EMBED_3D, seed=1)):
        calls, _ = count_angle_fallbacks(monkeypatch, cloud, params)
        assert calls == 0


def test_angle_fallback_at_threshold_angle(monkeypatch):
    # the corner's annulus centroids span the threshold angle itself, up
    # to rounding, so only angle_test may decide the corner sample
    params = ClassifierParams.from_epsilon(EPS)
    cloud = corner_cloud(EPS, angle=params.angle_threshold, arm_steps=30,
                         spacing=EPS / 2)
    calls, _ = count_angle_fallbacks(monkeypatch, cloud, params)
    assert calls >= 1


def test_angle_fallback_degenerate_centroid(monkeypatch):
    # a full ring of the annulus, centred 5e-13 off q and so degenerate,
    # and a small arc beyond it on the other side: the two centroids span
    # an angle of pi, which only the degenerate rule turns into 0.  The
    # wide ball threshold joins q to the ring, so that rule decides q.
    eps = 0.01
    params = ClassifierParams.from_epsilon(eps, annulus_edge_threshold=eps,
                                           ball_edge_threshold=9.0 * eps)
    ring = [(8.5 * eps * math.cos(a) - 5e-13, 8.5 * eps * math.sin(a))
            for a in np.linspace(0.0, 2.0 * math.pi, 64, endpoint=False)]
    arc = [(9.9 * eps * math.cos(a), 9.9 * eps * math.sin(a))
           for a in (-0.01, 0.0, 0.01)]
    cloud = PointCloud([(0.0, 0.0)] + ring + arc, eps)
    calls, labels = count_angle_fallbacks(monkeypatch, cloud, params)
    assert calls >= 1
    assert labels[0] == 0


def test_parallel_strands_decided_by_ball_test():
    # the oracle input above only probes branch (a) if the ball test alone
    # decides: a disconnected ball whose annulus has four components
    cloud = parallel_strands()
    params = ClassifierParams.from_epsilon(EPS)
    pts = cloud.array
    mid = int(np.argmin(sq_dists(pts, (0.0, 0.0))))
    ball = pts[sq_dists(pts, pts[mid]) <= params.local_radius ** 2]
    n_ball, _ = _component_labels(ball, params.ball_edge_threshold)
    dq = sq_dists(ball, pts[mid])
    annulus = ball[(dq >= params.annulus_inner ** 2)
                   & (dq <= params.annulus_outer ** 2)]
    n_ann, _ = _component_labels(annulus, params.annulus_edge_threshold)
    assert (n_ball, n_ann) == (2, 4)
    assert classify_cloud(cloud)[mid] == 1


def test_classify_all_thresholds_above_graph_radius():
    # thresholds beyond the 3-eps graph radius: pairs the adjacency lacks
    # must still connect components
    params = ClassifierParams.from_epsilon(EPS, annulus_edge_threshold=4.0 * EPS,
                                           ball_edge_threshold=3.5 * EPS)
    for cloud in (star_cloud(EPS, arms=3, arm_steps=30), parallel_strands(),
                  five_vertex_cloud(EMBED_2D)):
        graph = build_graph(cloud, 3.0 * EPS)
        assert min(params.annulus_edge_threshold,
                   params.ball_edge_threshold) > graph.radius
        assert_matches_classify_point(cloud, params)


def test_far_from_vertices_labeled_one():
    # guarantee: samples >= 15 eps from every vertex are labeled 1
    for cloud in (line_cloud(EPS, 0, 40),
                  star_cloud(EPS, arms=3, arm_steps=40),
                  corner_cloud(EPS, angle=math.pi / 2, arm_steps=40)):
        labels = classify_cloud(cloud)
        pts = cloud.array
        # vertices of these constructions: origin and each arm endpoint
        verts = [pts[0]]
        dists = np.linalg.norm(pts, axis=1)
        arm_end = dists.max()
        verts.extend(p for p in pts if np.linalg.norm(p) >= arm_end - 1e-9)
        verts = np.array(verts)
        for i, p in enumerate(pts):
            if np.linalg.norm(verts - p, axis=1).min() >= 15.0 * EPS:
                assert labels[i] == 1, f"point {i} at {p}"


def test_near_degree3_vertex_labeled_zero():
    # guarantee: samples within 2 eps of a degree->=3 vertex are labeled 0
    cloud = star_cloud(EPS, arms=3, arm_steps=40)
    labels = classify_cloud(cloud)
    pts = cloud.array
    near = np.linalg.norm(pts, axis=1) < 2.0 * EPS
    assert near.sum() >= 4  # origin plus one point per arm
    assert all(labels[i] == 0 for i in np.nonzero(near)[0])


def test_sharp_corner_neighborhood_dimension_zero():
    # degree-2 vertex with angle <= pi/2: corner sample labeled 0
    for angle in (math.pi / 3, math.pi / 2):
        cloud = corner_cloud(EPS, angle=angle, arm_steps=40)
        labels = classify_cloud(cloud)
        assert labels[0] == 0


def test_rigid_motion_invariance():
    cloud = star_cloud(EPS, arms=3, arm_steps=15)
    base = classify_cloud(cloud)
    ang = 0.7
    rot = np.array([[math.cos(ang), -math.sin(ang)],
                    [math.sin(ang), math.cos(ang)]])
    moved = PointCloud(cloud.array @ rot.T + np.array([3.0, -1.0]), EPS)
    assert classify_cloud(moved).tolist() == base.tolist()


def test_scale_covariance():
    cloud = corner_cloud(EPS, angle=math.pi / 2, arm_steps=15)
    base = classify_cloud(cloud)
    scaled = PointCloud(cloud.array * 7.5, EPS * 7.5)
    assert classify_cloud(scaled).tolist() == base.tolist()


def test_determinism():
    cloud = star_cloud(EPS, arms=4, arm_steps=12)
    assert classify_cloud(cloud).tolist() == classify_cloud(cloud).tolist()
