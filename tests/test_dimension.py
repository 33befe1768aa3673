"""Local dimension classifier: deterministic configurations and guarantees."""
import math
from typing import NamedTuple

import numpy as np
import pytest

from stratograph import (AbstractGraph, EmbeddedGraph, NeighborhoodGraph,
                         PointCloud, SampleOptions, angle_test, build_graph,
                         classify_all, sample_graph)
from stratograph.geometry import sq_dists
from conftest import (EMBED_2D, EMBED_3D, EPS, FIVE_VERTEX_EDGES, corner_cloud,
                      line_cloud, star_cloud)


# The per-ball reference classifier: tests (a), (b), (c) of
# ``stratograph.dimension`` in that order on one ball.  ``classify_all``
# must give its label on every sample.
class ReferenceParams(NamedTuple):
    """The reference's thresholds, each a fixed multiple of epsilon."""
    local_radius: float
    annulus_inner: float
    annulus_outer: float
    ball_edge_threshold: float
    annulus_edge_threshold: float
    angle_threshold: float


def reference_params(eps: float) -> ReferenceParams:
    return ReferenceParams(10.0 * eps, 8.0 * eps, 10.0 * eps, 2.0 * eps, 3.0 * eps,
                           2.0 * math.acos(0.25))


def angle_test_reference(q, comp_a, comp_b, angle_threshold: float) -> int:
    """Test (c) with one-point arithmetic: ``np.mean`` centroids,
    ``np.linalg.norm`` norms and a clamped cosine.  Exactly at the
    threshold gives 1; a centroid within 1e-12 of q gives 0."""
    q = np.asarray(q, dtype=float)
    ca = np.mean(np.atleast_2d(comp_a), axis=0) - q
    cb = np.mean(np.atleast_2d(comp_b), axis=0) - q
    na = float(np.linalg.norm(ca))
    nb = float(np.linalg.norm(cb))
    if na < 1e-12 or nb < 1e-12:
        return 0
    cos_angle = min(1.0, max(-1.0, float(np.dot(ca, cb)) / (na * nb)))
    return 0 if cos_angle > math.cos(angle_threshold) else 1


def _component_labels(points: np.ndarray, threshold: float):
    """(count, labels) of the threshold graph on a small point set.

    Labels are 0..count-1 in order of each component's smallest member.
    Distances are squared pairwise differences so ties at exactly the
    threshold connect, matching the neighborhood-graph predicate.
    """
    m = len(points)
    if m == 0:
        return 0, np.empty(0, dtype=int)
    diff = points[:, None, :] - points[None, :, :]
    sq = np.einsum("ijk,ijk->ij", diff, diff)
    adj = sq <= threshold * threshold
    labels = np.full(m, -1, dtype=int)
    count = 0
    for seed in range(m):
        if labels[seed] >= 0:
            continue
        comp = adj[seed].copy()
        frontier = comp
        while True:
            new = adj[frontier].any(axis=0) & ~comp
            if not new.any():
                break
            comp |= new
            frontier = new
        labels[comp] = count
        count += 1
    return count, labels


def _classify_ball(q: np.ndarray, ball: np.ndarray,
                   params: ReferenceParams) -> int:
    n_ball, _ = _component_labels(ball, params.ball_edge_threshold)
    if n_ball != 1:
        return 1

    dq = sq_dists(ball, q)
    lo = params.annulus_inner * params.annulus_inner
    hi = params.annulus_outer * params.annulus_outer
    annulus = ball[(dq >= lo) & (dq <= hi)]

    n_ann, labels = _component_labels(annulus, params.annulus_edge_threshold)
    if n_ann != 2:
        return 0
    return angle_test_reference(q, annulus[labels == 0], annulus[labels == 1],
                                params.angle_threshold)


def classify_point(cloud: PointCloud, graph: NeighborhoodGraph, q_index: int,
                   params: ReferenceParams) -> int:
    """Local dimension of one sample; always returns 0 or 1."""
    pts = cloud.array
    _, ball_idx = graph.query(pts[[q_index]], params.local_radius)
    return _classify_ball(pts[q_index], pts[ball_idx], params)


def classify_cloud(cloud):
    graph = build_graph(cloud)
    return classify_all(graph).labels


def test_line_center_is_dimension_one():
    # points (0.1k, 0), k = -12..12: annulus at the center splits into the
    # two arcs |k| in {8, 9, 10} with centroids (+-0.9, 0), angle pi
    cloud = line_cloud(EPS, -12, 12)
    graph = build_graph(cloud)
    params = reference_params(EPS)
    center = 12  # index of (0, 0)
    assert np.allclose(cloud.array[center], 0.0)
    assert classify_point(cloud, graph, center, params) == 1


def test_star_origin_is_dimension_zero():
    cloud = star_cloud(EPS, arms=3, arm_steps=20)
    graph = build_graph(cloud)
    params = reference_params(EPS)
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


@pytest.mark.parametrize("center, stray, eps", [
    ((0.0, 0.0), (0.0, 1.0), EPS),  # exactly 10 eps
    # a pair whose tie scipy's cKDTree misses when asked at exactly r, at
    # an eps whose 10 * eps is exactly their distance, 1.1630034997814065
    ([0.6194215518255555, 0.12095190401237166, -0.423157571137579],
     [-0.1742073146382146, 0.6362419419418208, 0.253012924839507],
     0.11630034997814065),
], ids=["2d-10eps", "3d-tree-tie"])
def test_local_ball_tie_included(center, stray, eps):
    # a stray point in the local ball disconnects it, so the star's centre
    # reads 1 with the stray exactly on the ball's boundary and 0 beyond it
    params = reference_params(eps)
    beyond = np.asarray(center) + (np.asarray(stray) - center) * (1.0 + 1e-9)
    for point, want in ((stray, 1), (beyond, 0)):
        cloud = PointCloud(_star_with_stray(center, point, eps), eps)
        graph = build_graph(cloud)
        assert classify_point(cloud, graph, 0, params) == want
        assert classify_all(graph).labels[0] == want


def test_right_angle_corner_is_dimension_zero():
    cloud = corner_cloud(EPS, angle=math.pi / 2, arm_steps=20)
    graph = build_graph(cloud)
    params = reference_params(EPS)
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
    # pi, the largest threshold, keeps a straight angle at 1
    assert angle_test((0.0, 0.0), [a], [(-1.0, 0.0)], math.pi) == 1


@pytest.mark.parametrize("threshold", [float("nan"), 0.0, -1.0, 4.0, float("inf")])
def test_angle_test_rejects_threshold_outside_zero_pi(threshold):
    with pytest.raises(ValueError, match="angle_threshold"):
        angle_test((0, 0), [(1, 0)], [(0, 1)], threshold)


def test_angle_test_centroid_of_multiple_points():
    thr = 2.0 * math.acos(0.25)
    comp_a = [(0.8, 0.1), (1.0, -0.1)]  # centroid (0.9, 0)
    comp_b = [(-0.8, 0.1), (-1.0, -0.1)]
    assert angle_test((0, 0), comp_a, comp_b, thr) == 1


def test_angle_test_degenerate_centroid_returns_zero():
    thr = 2.0 * math.acos(0.25)
    assert angle_test((0, 0), [(0, 0)], [(0.9, 0)], thr) == 0


def near_threshold_triples(count, seed=0):
    """(q, comp_a, comp_b, threshold) in 1-4 D whose centroids span the
    threshold angle up to about 1e-16 rad; every fourth has a centroid
    5e-13 to 2e-12 from q."""
    rng = np.random.default_rng(seed)
    thr = 2.0 * math.acos(0.25)
    for k in range(count):
        dim = 1 + k % 4
        q = rng.normal(0.0, 3.0, dim)
        if dim == 1:
            dirs = (np.ones(1), -np.ones(1))
        else:
            u, w = np.linalg.qr(rng.normal(size=(dim, 2)))[0].T
            angle = thr + rng.normal(0.0, 1e-16) * (k % 3)
            dirs = (u, math.cos(angle) * u + math.sin(angle) * w)
        radii = rng.uniform(0.5, 2.0, 2)
        if k % 4 == 3:
            radii[k % 2] = rng.uniform(5e-13, 2e-12)
        spread = 1e-13 if k % 4 == 3 else 1e-3 * (k % 2)
        comps = [q + r * d + rng.normal(0.0, spread, (int(rng.integers(1, 30)), dim))
                 for r, d in zip(radii, dirs)]
        yield q, comps[0], comps[1], thr


def test_angle_test_matches_reference_exactly():
    thr = 2.0 * math.acos(0.25)
    spec = [((0, 0), [(0.9, 0)], [(-0.9, 0)], thr),
            ((0, 0), [(0.9, 0)], [(0, 0.9)], thr),
            ((0.0, 0.0), [(1.0, 0.0)], [(math.cos(thr), math.sin(thr))], thr),
            ((0, 0), [(0.8, 0.1), (1.0, -0.1)], [(-0.8, 0.1), (-1.0, -0.1)], thr),
            ((0, 0), [(0, 0)], [(0.9, 0)], thr)]
    degenerate = [((0.0, 0.0), [(off, 0.0)], [(-0.9, 0.0)], thr)
                  for off in np.linspace(5e-13, 2e-12, 16)]
    cases = spec + degenerate + list(near_threshold_triples(2400))
    got = [angle_test(*case) for case in cases]
    assert got == [angle_test_reference(*case) for case in cases]
    # the triples reach both sides of the threshold and the degenerate rule
    assert 0 < sum(got) < len(got)


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


def assert_matches_classify_point(cloud):
    params = reference_params(cloud.epsilon)
    graph = build_graph(cloud)
    batched = classify_all(graph).labels
    single = [classify_point(cloud, graph, i, params) for i in range(len(cloud))]
    assert batched.tolist() == single
    return batched


def shuffled(cloud, seed=0):
    perm = np.random.default_rng(seed).permutation(len(cloud))
    return PointCloud(cloud.array[perm], cloud.epsilon)


def test_classify_all_matches_classify_point():
    for cloud in (star_cloud(EPS, arms=3, arm_steps=15),
                  five_vertex_cloud(EMBED_2D, spacing=EPS / 5),
                  five_vertex_cloud(EMBED_3D, spacing=EPS / 5),
                  parallel_strands(),
                  # samples in random order: blocks follow the tree, not indices
                  shuffled(five_vertex_cloud(EMBED_3D)),
                  # samples 5 eps apart: the neighbourhood graph has no edges
                  PointCloud([(5.0 * EPS * k, 0.0) for k in range(6)], EPS)):
        assert_matches_classify_point(cloud)


# The three tests below keep the names they had when ``classify_all`` fell
# back to a per-sample ``angle_test`` near the threshold.  The batched
# kernel now decides every sample; each test checks it against the
# per-ball oracle, whose ``angle_test_reference`` keeps the one-point
# arithmetic, on the cloud that used to exercise the fallback.
def test_batched_angle_test_decides_ordinary_clouds():
    for cloud in (five_vertex_cloud(EMBED_2D), five_vertex_cloud(EMBED_3D, seed=1)):
        labels = assert_matches_classify_point(cloud)
        # both strata are present, so test (c) decided some samples
        assert 0 < labels.sum() < len(labels)


def test_angle_fallback_at_threshold_angle():
    # the corner's annulus centroids span the threshold angle itself, up
    # to rounding
    cloud = corner_cloud(EPS, angle=reference_params(EPS).angle_threshold,
                         arm_steps=30, spacing=EPS / 2)
    assert_matches_classify_point(cloud)


def test_angle_fallback_degenerate_centroid(monkeypatch):
    # a full ring of the annulus in the plane z = -5e-13, centred that far
    # below q and so degenerate, and a spoke up the z axis whose tip is the
    # annulus's other component: the two centroids span an angle of pi,
    # which only the degenerate rule turns into 0.  Spokes in the ring's
    # plane join q to the ring at 2 eps, so that rule decides q.
    eps = 0.01
    ring = [(8.5 * eps * math.cos(a), 8.5 * eps * math.sin(a), -5e-13)
            for a in np.linspace(0.0, 2.0 * math.pi, 64, endpoint=False)]
    steps = 1.5 * eps * np.arange(1, 7)
    spokes = [(x * s, y * s, 0.0) for x, y in ((1, 0), (0, 1), (-1, 0), (0, -1))
              for s in steps[:5]]
    up = [(0.0, 0.0, s) for s in steps]
    cloud = PointCloud([(0.0, 0.0, 0.0)] + ring + spokes + up, eps)
    assert assert_matches_classify_point(cloud)[0] == 0
    monkeypatch.setattr("stratograph.dimension._DEGENERATE", 0.0)
    assert classify_cloud(cloud)[0] == 1


def test_parallel_strands_decided_by_ball_test():
    # the oracle input above only probes branch (a) if the ball test alone
    # decides: a disconnected ball whose annulus has four components
    cloud = parallel_strands()
    params = reference_params(EPS)
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
