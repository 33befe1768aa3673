"""Certified sample generation and geometric assumption checking."""
import math

import numpy as np
import pytest
from scipy.spatial import cKDTree

from stratograph import (AbstractGraph, EmbeddedGraph, FitProblem, PointCloud,
                         SampleOptions, check_assumptions, fit,
                         reconstruct_structure, sample_graph,
                         validate_epsilon_sample)
from stratograph.geometry import dist_to_embedded_graph
from conftest import EPS, EMBED_2D, EMBED_3D, FIVE_VERTEX_EDGES


def segment_graph(length=1.0):
    g = AbstractGraph(2, [(0, 1)])
    return EmbeddedGraph(g, [(0.0, 0.0), (length, 0.0)])


def full_net_certificate(cloud, graph, epsilon=None, resolution=None):
    """Reference for validate_epsilon_sample: the exact distance of every
    sample, and the nearest-sample distance of every point of every
    edge's resolution net."""
    if epsilon is None:
        epsilon = cloud.epsilon
    if resolution is None:
        resolution = epsilon / 100.0
    pts = cloud.array
    pos = graph.vertex_positions
    d1 = float(np.max(dist_to_embedded_graph(pts, pos, graph.graph.edges)))
    net = [pos]
    for (i, j) in graph.graph.edges:
        length = float(np.linalg.norm(pos[i] - pos[j]))
        m = max(1, math.ceil(length / resolution))
        t = np.arange(1, m)[:, None] / m
        net.append(t * pos[i] + (1.0 - t) * pos[j])
    gaps, _ = cKDTree(pts).query(np.vstack(net))
    d2 = float(np.max(gaps)) + resolution / 2.0
    return (d1 <= epsilon and d2 <= epsilon), max(d1, d2)


def lattice_graph(side=3, step=4.0):
    """``side`` x ``side`` grid graph with unit cells ``step`` wide."""
    index = {(r, c): r * side + c for r in range(side) for c in range(side)}
    edges = [(index[r, c], index[r, c + 1]) for r in range(side) for c in range(side - 1)]
    edges += [(index[r, c], index[r + 1, c]) for r in range(side - 1) for c in range(side)]
    return EmbeddedGraph(AbstractGraph(side * side, edges),
                         [(step * c, step * r) for r in range(side) for c in range(side)])


def test_options_defaults_resolve_to_half_epsilon():
    opts = SampleOptions().resolve(0.2)
    assert opts.noise_radius == pytest.approx(0.1)
    assert opts.spacing == pytest.approx(0.1)
    assert opts.include_vertices


def test_options_validation_messages():
    with pytest.raises(ValueError, match="noise_radius must be < epsilon"):
        SampleOptions(noise_radius=0.1).resolve(0.1)
    with pytest.raises(ValueError, match="spacing"):
        # s > 2*(eps - rho) breaks the coverage budget
        SampleOptions(noise_radius=0.05, spacing=0.11).resolve(0.1)
    with pytest.raises(ValueError):
        SampleOptions(noise_radius=-0.01).resolve(0.1)
    with pytest.raises(ValueError):
        SampleOptions(spacing=0.0).resolve(0.1)


def test_segment_noiseless_site_layout():
    # segment of length 1, s = 0.05: 21 collinear points at spacing 0.05
    cloud = sample_graph(segment_graph(1.0), 0.1,
                         SampleOptions(noise_radius=0.0, spacing=0.05))
    assert len(cloud) == 21
    xs = np.sort(cloud.array[:, 0])
    assert np.allclose(np.diff(xs), 0.05)
    assert np.allclose(cloud.array[:, 1], 0.0)
    ok, bound = validate_epsilon_sample(cloud, segment_graph(1.0))
    assert ok
    # coverage radius is s/2 = 0.025; the certificate may add net slack
    assert bound <= 0.05


def test_segment_noisy_stays_within_noise_radius():
    truth = segment_graph(1.0)
    cloud = sample_graph(truth, 0.1,
                         SampleOptions(noise_radius=0.05, spacing=0.05, seed=4))
    dists = dist_to_embedded_graph(cloud.array, truth.vertex_positions,
                                   truth.graph.edges)
    assert dists.max() <= 0.05 + 1e-12
    ok, bound = validate_epsilon_sample(cloud, truth)
    assert ok and bound <= 0.075 + 1e-9  # s/2 + rho


def test_same_seed_reproduces_cloud():
    truth = segment_graph(1.0)
    opts = SampleOptions(seed=123)
    a = sample_graph(truth, 0.1, opts)
    b = sample_graph(truth, 0.1, opts)
    assert np.array_equal(a.array, b.array)
    c = sample_graph(truth, 0.1, SampleOptions(seed=124))
    assert not np.array_equal(a.array, c.array)


def test_include_vertices_false_keeps_isolated_vertices():
    g = AbstractGraph(3, [(0, 1)])
    emb = EmbeddedGraph(g, [(0, 0), (4, 0), (0, 5)])
    without = sample_graph(emb, 0.1, SampleOptions(seed=0,
                                                   include_vertices=False))
    # isolated vertex 2 must still be covered or the eps-sample fails;
    # edge endpoints are covered by endpoint sites from the edge stream
    near_isolated = np.linalg.norm(without.array - np.array([0.0, 5.0]),
                                   axis=1)
    assert near_isolated.min() <= 0.05 + 1e-12
    assert validate_epsilon_sample(without, emb)[0]


def test_degenerate_embedding_rejected():
    # coincident vertex positions cannot form a valid embedding at all
    g = AbstractGraph(2, [(0, 1)])
    with pytest.raises(ValueError, match="share a position"):
        EmbeddedGraph(g, [(1, 1), (1, 1)])


def test_noiseless_samples_lie_on_graph():
    g = AbstractGraph(5, FIVE_VERTEX_EDGES)
    truth = EmbeddedGraph(g, EMBED_2D)
    cloud = sample_graph(truth, EPS, SampleOptions(noise_radius=0.0, seed=9))
    dists = dist_to_embedded_graph(cloud.array, truth.vertex_positions,
                                   truth.graph.edges)
    assert dists.max() <= 1e-15


def test_validator_rejects_undercoverage():
    truth = segment_graph(2.0)
    cloud = sample_graph(segment_graph(0.5), 0.1, SampleOptions(seed=1))
    ok, bound = validate_epsilon_sample(cloud, truth)
    assert not ok
    assert bound > 0.1


def test_validator_direction_one_is_exact():
    # a single far-off sample dominates direction 1 exactly
    truth = segment_graph(1.0)
    cloud = sample_graph(truth, 0.1, SampleOptions(noise_radius=0.0))
    pts = np.vstack([cloud.array, [(0.5, 0.7)]])
    from stratograph import PointCloud
    bad = PointCloud(pts, 0.1)
    ok, bound = validate_epsilon_sample(bad, truth)
    assert not ok
    assert bound == pytest.approx(0.7)


def test_certification_over_100_seeds(truth_2d):
    for seed in range(100):
        cloud = sample_graph(truth_2d, EPS, SampleOptions(seed=seed))
        ok, bound = validate_epsilon_sample(cloud, truth_2d)
        assert ok, f"seed {seed}: bound {bound}"


def test_check_assumptions_unit_square():
    g = AbstractGraph(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
    emb = EmbeddedGraph(g, [(0, 0), (1, 0), (1, 1), (0, 1)])
    report = check_assumptions(emb, 0.01)
    assert report.passed
    assert report.min_incident_angle == pytest.approx(math.pi / 2)
    assert report.min_edge_length == pytest.approx(100.0)  # in eps units


def test_check_assumptions_sharp_angle_fails():
    ang = math.radians(10.0)
    g = AbstractGraph(3, [(0, 1), (0, 2)])
    emb = EmbeddedGraph(g, [(0, 0), (1, 0),
                            (math.cos(ang), math.sin(ang))])
    report = check_assumptions(emb, 0.001)
    assert not report.passed
    assert any("angle" in v for v in report.violations)


def test_check_assumptions_short_edge_fails():
    report = check_assumptions(segment_graph(1.0), 0.1)  # 10 eps < 30 eps
    assert not report.passed
    assert any("edge" in v for v in report.violations)


def test_check_assumptions_close_vertices_fail():
    g = AbstractGraph(3, [(0, 1)])
    emb = EmbeddedGraph(g, [(0, 0), (4, 0), (0.5, 0.5)])
    report = check_assumptions(emb, 0.1)  # separation 0.707 < 20 eps = 2
    assert not report.passed
    assert any("separation" in v for v in report.violations)


def separation_per_pair(pos, epsilon):
    """Reference of check_assumptions' vertex separation: the pair loop."""
    min_sep = math.inf
    for i in range(len(pos)):
        for j in range(i + 1, len(pos)):
            min_sep = min(min_sep, float(np.linalg.norm(pos[i] - pos[j])))
    return min_sep / epsilon if len(pos) > 1 else math.inf


def test_vertex_separation_matches_pair_loop_bitwise():
    rng = np.random.default_rng(37)
    lattice = np.stack(np.meshgrid(np.arange(6), np.arange(6)), -1).reshape(-1, 2)
    cases = [np.zeros((1, 2)), lattice * 0.7, lattice * 0.7 + 1e7,
             np.array([[0.0], [1e-300], [1.0]])]
    for _ in range(60):
        k, dim = int(rng.integers(2, 40)), int(rng.integers(1, 4))
        scale = 10.0 ** rng.integers(-8, 9)
        cases.append(rng.normal(0.0, scale, (k, dim)) + rng.normal(0.0, 1e3 * scale, dim))
    for pos in cases:
        emb = EmbeddedGraph(AbstractGraph(len(pos)), pos)
        got = check_assumptions(emb, 0.1).min_vertex_separation
        assert got == separation_per_pair(emb.vertex_positions, 0.1)


def test_check_assumptions_acceptance_embeddings_pass(truth_2d, truth_3d):
    for truth in (truth_2d, truth_3d):
        report = check_assumptions(truth, EPS)
        assert report.passed
        assert report.min_incident_angle >= math.pi / 6
        assert report.min_edge_length >= 30.0
        assert report.min_vertex_separation >= 20.0


def test_check_assumptions_degree_zero_noted():
    g = AbstractGraph(2, [])
    emb = EmbeddedGraph(g, [(0, 0), (5, 0)])
    report = check_assumptions(emb, 0.1)
    assert report.passed  # vacuous angle and edge minima
    assert math.isinf(report.min_incident_angle)
    assert any("degree" in n for n in report.notes)


def test_report_as_dict_uses_pass_key():
    report = check_assumptions(segment_graph(4.0), 0.1)
    d = report.as_dict()
    assert d["pass"] is True
    assert set(d) >= {"min_incident_angle", "min_edge_length",
                      "min_vertex_separation", "pass", "violations"}


@pytest.mark.parametrize("name, value", [
    ("resolution", -1.0), ("resolution", 0.0), ("resolution", math.inf),
    ("resolution", math.nan), ("epsilon", 0.0), ("epsilon", -0.1),
    ("epsilon", math.inf), ("epsilon", math.nan)])
def test_validator_rejects_bad_epsilon_and_resolution(name, value):
    cloud = PointCloud([(0.0, 0.0), (1.0, 0.0)], 0.1)
    with pytest.raises(ValueError, match=f"{name} must be finite and positive"):
        validate_epsilon_sample(cloud, segment_graph(1.0), **{name: value})


def _certificate_cases():
    five = [EmbeddedGraph(AbstractGraph(5, FIVE_VERTEX_EDGES), emb)
            for emb in (EMBED_2D, EMBED_3D)]
    for seed in range(4):
        for truth in five:
            yield truth, sample_graph(truth, EPS, SampleOptions(seed=seed))
            yield truth, sample_graph(truth, EPS, SampleOptions(seed=seed,
                                                                spacing=EPS / 5))
    lattice = lattice_graph()
    yield lattice, sample_graph(lattice, EPS, SampleOptions(seed=5))
    truth = five[0]
    cloud = sample_graph(truth, EPS, SampleOptions(seed=6))
    # an outlier fails the sample-to-graph direction
    yield truth, PointCloud(np.vstack([cloud.array, [(1.0, 3.0)]]), EPS)
    # a gap in the middle of the pendant edge fails coverage
    keep = np.abs(cloud.array[:, 0] + 2.0) > 0.3
    yield truth, PointCloud(cloud.array[keep], EPS)
    # the isolated vertex alone left uncovered
    keep = np.linalg.norm(cloud.array - EMBED_2D[4], axis=1) > 0.2
    yield truth, PointCloud(cloud.array[keep], EPS)
    # the fitted graph the CLI pipeline certifies its cloud against
    fitted = fit(FitProblem(cloud, reconstruct_structure(cloud))).embedded_graph()
    yield fitted, cloud
    # far from the origin, where rounding of coordinates is largest
    yield (EmbeddedGraph(truth.graph, EMBED_2D + 1e7),
           PointCloud(cloud.array + 1e7, EPS))
    # when the coarse net of the segment is its two ends (resolution eps),
    # (0.5, 0.3) is farthest from it, yet (-0.32, 0) from the segment
    yield segment_graph(1.0), PointCloud([(k / 100.0, 0.0) for k in range(101)]
                                         + [(0.5, 0.3), (-0.32, 0.0)], EPS)
    # no edges at all
    single = EmbeddedGraph(AbstractGraph(1, []), [(2.0, -1.0)])
    yield single, PointCloud([(2.0, -1.0)], EPS)
    yield single, PointCloud([(2.05, -1.0), (1.9, -1.2)], EPS)


def test_validator_matches_full_net_reference():
    verdicts = set()
    for truth, cloud in _certificate_cases():
        for resolution in (None, EPS / 7, EPS, 3.0):
            want = full_net_certificate(cloud, truth, resolution=resolution)
            got = validate_epsilon_sample(cloud, truth, resolution=resolution)
            assert got == want
            assert type(got[1]) is float
            verdicts.add(want[0])
    assert verdicts == {True, False}
