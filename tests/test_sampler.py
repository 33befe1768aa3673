"""Certified sample generation and geometric assumption checking."""
import math
from itertools import combinations

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from scipy.spatial import cKDTree

from stratograph import (AbstractGraph, EmbeddedGraph, FitProblem, PointCloud,
                         SampleOptions, check_assumptions, fit,
                         reconstruct_structure, sample_graph,
                         validate_epsilon_sample)
from stratograph import sampler
from stratograph.geometry import dist_to_embedded_graph
from conftest import EPS, EMBED_2D, EMBED_3D, FIVE_VERTEX_EDGES, traced_peak


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


def uniform_ball(rng, dim, radius):
    """One draw from the uniform distribution on the closed ball of ``radius``."""
    if radius == 0.0:
        return np.zeros(dim)
    direction = rng.standard_normal(dim)
    norm = np.linalg.norm(direction)
    while norm == 0.0:
        direction = rng.standard_normal(dim)
        norm = np.linalg.norm(direction)
    r = radius * rng.random() ** (1.0 / dim)
    return direction * (r / norm)


def sample_per_site(graph, epsilon, options=None):
    """Reference for sample_graph's coordinates: every site built and
    perturbed on its own, with one uniform_ball call."""
    opt = (options or SampleOptions()).resolve(epsilon)
    pos = graph.vertex_positions
    dim = graph.ambient_dim
    points = []
    vrng = np.random.default_rng([opt.seed, 0])
    for v in range(len(pos)):
        points.append(pos[v] + uniform_ball(vrng, dim, opt.noise_radius))
    for e_idx, (i, j) in enumerate(graph.graph.edges):
        erng = np.random.default_rng([opt.seed, 1, e_idx])
        a, b = pos[i], pos[j]
        length = float(np.linalg.norm(a - b))
        m = max(1, math.ceil(length / opt.spacing * (1.0 - 1e-12)))
        for k in range(1, m):
            site = (k / m) * a + (1.0 - k / m) * b
            points.append(site + uniform_ball(erng, dim, opt.noise_radius))
    return np.array(points).reshape(len(points), dim)


def path_graph(positions):
    return EmbeddedGraph(AbstractGraph(len(positions), [(k, k + 1) for k in
                                                        range(len(positions) - 1)]),
                         positions)


def _sampler_cases():
    five_2d = EmbeddedGraph(AbstractGraph(5, FIVE_VERTEX_EDGES), EMBED_2D)
    five_3d = EmbeddedGraph(AbstractGraph(5, FIVE_VERTEX_EDGES), EMBED_3D)
    # vertex 3 is isolated: it has a site and no edge
    isolated = EmbeddedGraph(AbstractGraph(4, [(0, 1), (1, 2)]),
                             [(0.0, 0.0), (4.0, 0.0), (4.0, 3.0), (-5.0, 1.0)])
    return [
        (five_2d, SampleOptions()),
        (five_3d, SampleOptions()),
        (lattice_graph(), SampleOptions()),
        (path_graph([(0.0,), (3.0,), (7.3,)]), SampleOptions()),
        (path_graph(np.random.default_rng(2).normal(0.0, 3.0, (4, 4))), SampleOptions()),
        (isolated, SampleOptions()),
        (five_2d, SampleOptions(noise_radius=0.0)),
        (five_3d, SampleOptions(noise_radius=0.09, spacing=0.017)),
    ]


def assert_same_bits(cloud, want):
    got = cloud.array
    assert got.shape == want.shape
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


@pytest.mark.parametrize("case", range(len(_sampler_cases())))
def test_sample_graph_matches_per_site_reference_bitwise(case):
    truth, options = _sampler_cases()[case]
    for seed in range(20):
        opts = SampleOptions(options.noise_radius, options.spacing, seed)
        assert_same_bits(sample_graph(truth, EPS, opts),
                         sample_per_site(truth, EPS, opts))


class ZeroFirstNormal:
    """``np.random.default_rng(seed)``, except that its first standard_normal
    draw is replaced by zeros; its state covers both."""

    def __init__(self, make, seed):
        self.rng = make(seed)
        self.zeros_left = 1
        self.bit_generator = self

    @property
    def state(self):
        return self.zeros_left, self.rng.bit_generator.state

    @state.setter
    def state(self, value):
        self.zeros_left, self.rng.bit_generator.state = value

    def standard_normal(self, size):
        draw = self.rng.standard_normal(size)
        if self.zeros_left:
            self.zeros_left -= 1
            return np.zeros(size)
        return draw

    def random(self):
        return self.rng.random()


def test_sample_graph_redraws_zero_direction_like_reference(monkeypatch):
    # every stream's first direction has norm 0 and is drawn again
    truth = EmbeddedGraph(AbstractGraph(5, FIVE_VERTEX_EDGES), EMBED_2D)
    plain = sample_graph(truth, EPS, SampleOptions(seed=3))
    make = np.random.default_rng
    monkeypatch.setattr(np.random, "default_rng",
                        lambda seed: ZeroFirstNormal(make, seed))
    cloud = sample_graph(truth, EPS, SampleOptions(seed=3))
    assert_same_bits(cloud, sample_per_site(truth, EPS, SampleOptions(seed=3)))
    assert len(cloud) == len(plain) and cloud != plain


def test_sampled_cloud_retains_only_its_coordinates():
    # the cloud keeps one flat float array; one array per point would
    # retain about 15 times its coordinate bytes
    truth = lattice_graph(8)
    sample_graph(truth, EPS)
    cloud, retained, _ = traced_peak(lambda: sample_graph(truth, EPS,
                                                          SampleOptions(seed=1)))
    assert len(cloud) > 8000
    assert retained <= 1.5 * len(cloud) * cloud.ambient_dim * 8


def test_options_defaults_resolve_to_half_epsilon():
    opts = SampleOptions().resolve(0.2)
    assert opts.noise_radius == pytest.approx(0.1)
    assert opts.spacing == pytest.approx(0.1)


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


def assumptions_per_pair(graph, epsilon):
    """Reference of check_assumptions: loops over the neighbour pairs of
    every vertex, over the edges and over the vertex pairs."""
    pos = graph.vertex_positions
    min_angle = math.inf
    notes = []
    for v, nbrs in enumerate(graph.graph.adjacency_sets()):
        if len(nbrs) < 2:
            notes.append(f"vertex {v} has degree {len(nbrs)}: no incident angle")
            continue
        nbrs = sorted(nbrs)
        for ai in range(len(nbrs)):
            for bi in range(ai + 1, len(nbrs)):
                u = pos[nbrs[ai]] - pos[v]
                w = pos[nbrs[bi]] - pos[v]
                cosang = float(np.dot(u, w) / (np.linalg.norm(u) * np.linalg.norm(w)))
                min_angle = min(min_angle, math.acos(min(1.0, max(-1.0, cosang))))
    lengths = [float(np.linalg.norm(pos[i] - pos[j])) for i, j in graph.graph.edges]
    min_len = min(lengths) / epsilon if lengths else math.inf
    min_sep = separation_per_pair(pos, epsilon)
    violations = []
    if min_angle < math.pi / 6.0:
        violations.append(f"min incident angle {min_angle:.4f} rad < pi/6")
    if min_len < 30.0:
        violations.append(f"min edge length {min_len:.2f} eps < 30 eps")
    if min_sep < 20.0:
        violations.append(f"min vertex separation {min_sep:.2f} eps < 20 eps")
    return (min_angle, min_len, min_sep, not violations, tuple(violations), tuple(notes))


def _assumption_graphs():
    yield EmbeddedGraph(AbstractGraph(5, FIVE_VERTEX_EDGES), EMBED_2D)
    yield EmbeddedGraph(AbstractGraph(5, FIVE_VERTEX_EDGES), EMBED_3D)
    yield lattice_graph(6, 0.7)
    rng = np.random.default_rng(43)
    angles = np.sort(rng.uniform(0.0, 2.0 * math.pi, 9))
    yield EmbeddedGraph(AbstractGraph(10, [(0, k) for k in range(1, 10)]),
                        [(0.0, 0.0)] + [(math.cos(a), math.sin(a)) for a in angles])
    # collinear: straight angles, and a hub whose two neighbours lie on
    # one side of it, where rounding can push the cosine past 1
    yield path_graph([(0.1 * k, 0.3 * k) for k in range(7)])
    yield EmbeddedGraph(AbstractGraph(3, [(0, 1), (0, 2)]),
                        [(0.1, 0.3), (0.2, 0.6), (0.7, 2.1)])
    for _ in range(60):
        k, dim = int(rng.integers(2, 10)), int(rng.integers(1, 5))
        pos = rng.normal(0.0, 10.0 ** rng.integers(-4, 5), (k, dim))
        pairs = [(i, j) for i in range(k) for j in range(i + 1, k) if rng.random() < 0.5]
        yield EmbeddedGraph(AbstractGraph(k, pairs), pos)


def test_check_assumptions_matches_per_pair_reference_bitwise():
    for graph in _assumption_graphs():
        r = check_assumptions(graph, 0.01)
        got = (r.min_incident_angle, r.min_edge_length, r.min_vertex_separation,
               r.passed, r.violations, r.notes)
        assert got == assumptions_per_pair(graph, 0.01)
        assert np.array(got[:3]).view(np.uint64).tolist() == \
            np.array(assumptions_per_pair(graph, 0.01)[:3]).view(np.uint64).tolist()


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
    ("epsilon", 0.0), ("epsilon", -0.1), ("epsilon", math.inf), ("epsilon", math.nan)])
def test_validator_rejects_bad_epsilon_and_resolution(name, value):
    # the resolution is epsilon / sampler._NET_PER_EPSILON, so a bad
    # epsilon is the only way to a bad resolution
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


def net_resolutions(monkeypatch, cloud, nets_per_epsilon):
    """Set ``sampler._NET_PER_EPSILON`` to each of ``nets_per_epsilon`` in
    turn, yielding the resolution the validator then uses on ``cloud``."""
    for per_epsilon in nets_per_epsilon:
        monkeypatch.setattr(sampler, "_NET_PER_EPSILON", per_epsilon)
        yield cloud.epsilon / per_epsilon


def test_validator_matches_full_net_reference(monkeypatch):
    verdicts = set()
    for truth, cloud in _certificate_cases():
        # resolutions eps/100, eps/7, eps and 3
        for resolution in net_resolutions(monkeypatch, cloud, (100.0, 7.0, 1.0, EPS / 3.0)):
            want = full_net_certificate(cloud, truth, resolution=resolution)
            got = validate_epsilon_sample(cloud, truth)
            assert got == want
            assert type(got[1]) is float
            verdicts.add(want[0])
    assert verdicts == {True, False}


def _candidate_cases():
    """Clouds whose largest sample distance tests the per-sample candidate
    edges of the d1 pass, which keep the edges and vertices with a knot
    within g + H1/2 of the sample (H1 is eps here: 4/0.1 rounds to 40)."""
    grid = lattice_graph(4)
    yield grid, sample_graph(grid, EPS, SampleOptions(seed=8))
    yield grid, PointCloud(np.vstack([sample_graph(grid, EPS, SampleOptions(seed=9)).array,
                                      [(2.0, 2.0), (12.3, 8.04), (-0.2, 4.1)]]), EPS)
    # two parallel edges 0.11 apart; the second starts at x = 1.95, so one
    # of its knots sits about 0.06 from (2, 0.05), nearer than the knots
    # of the first edge, 0.05 below it, which lie 0.05 to either side
    parallel = EmbeddedGraph(AbstractGraph(4, [(0, 1), (2, 3)]),
                             [(0.0, 0.0), (4.0, 0.0), (1.95, 0.11), (4.0, 0.11)])
    on_edges = sample_graph(parallel, EPS, SampleOptions(noise_radius=0.0)).array
    for extra in [(2.0, 0.05)], [(2.0, 0.055)], [(2.0, 0.05), (3.0, 0.055)]:
        # (2, 0.055) lies exactly as far from both edges
        yield parallel, PointCloud(np.vstack([on_edges, extra]), EPS)
    # a sample nearest the isolated vertex of the five-vertex graph
    five = EmbeddedGraph(AbstractGraph(5, FIVE_VERTEX_EDGES), EMBED_2D)
    cloud = sample_graph(five, EPS, SampleOptions(seed=10))
    yield five, PointCloud(np.vstack([cloud.array, [(0.3, 6.2)]]), EPS)
    # eight spokes: a sample at the hub has more knots in reach than slots
    spokes = [(4.0 * math.cos(a), 4.0 * math.sin(a))
              for a in np.arange(8) * math.pi / 4.0]
    star = EmbeddedGraph(AbstractGraph(9, [(0, v) for v in range(1, 9)]),
                         [(0.0, 0.0)] + spokes)
    cloud = sample_graph(star, EPS, SampleOptions(seed=11))
    yield star, PointCloud(np.vstack([cloud.array, [(0.0, 0.0), (0.03, 0.04)]]), EPS)
    # seven isolated vertices 0.045 from (2, 0.04) fill every slot, while
    # the edge below it, 0.04 away, has its nearest knots 0.064 away
    crowd = [(2.0 + 0.045 * math.cos(a), 0.04 + 0.045 * math.sin(a))
             for a in np.arange(1, 8) * math.pi / 8.0]
    crowded = EmbeddedGraph(AbstractGraph(9, [(0, 1)]), [(0.0, 0.0), (4.0, 0.0)] + crowd)
    on_edge = sample_graph(segment_graph(4.0), EPS, SampleOptions(noise_radius=0.0))
    yield crowded, PointCloud(np.vstack([on_edge.array, crowd, [(2.0, 0.04)]]), EPS)
    # edges shorter than H1: one piece each, its midpoint the only knot
    short = EmbeddedGraph(AbstractGraph(4, [(0, 1), (1, 2), (1, 3)]),
                          [(0.0, 0.0), (0.05, 0.0), (0.05, 0.04), (0.09, 0.01)])
    yield short, PointCloud([(0.0, 0.0), (0.02, 0.01), (0.06, 0.03), (0.3, 0.2),
                             (0.07, -0.01), (0.05, 0.1)], EPS)


def test_validator_candidate_edges_match_full_net_reference(monkeypatch):
    verdicts = set()
    for truth, cloud in _candidate_cases():
        for resolution in net_resolutions(monkeypatch, cloud, (100.0, 7.0, EPS / 3.0)):
            want = full_net_certificate(cloud, truth, resolution=resolution)
            got = validate_epsilon_sample(cloud, truth)
            assert got == want
            verdicts.add(want[0])
    assert verdicts == {True, False}


_COORD = st.one_of(st.integers(-4, 4).map(float), st.floats(-4.0, 4.0, allow_nan=False))


@st.composite
def sampled_graphs(draw):
    """A cloud sampled from a graph of 1-6 vertices in 1-3 D with random
    edges, plus up to 4 samples anywhere near it, at scale 1e-6 to 1e6
    and translated by up to 1e3 times the scale."""
    dim = draw(st.integers(1, 3))
    point = st.tuples(*[_COORD] * dim)
    n = draw(st.integers(1, 6))
    rows = draw(st.lists(point, min_size=n, max_size=n, unique=True))
    edges = [e for e in combinations(range(len(rows)), 2) if draw(st.booleans())]
    extra = draw(st.lists(point, max_size=4))
    scale = 10.0 ** draw(st.integers(-6, 6))
    shift = np.array([draw(st.floats(-1e3, 1e3, allow_nan=False)) for _ in range(dim)])
    pos = (np.array(rows) + shift) * scale
    # the shift can round near vertices together, and a tiny edge's
    # squared length to 0
    assume(len(np.unique(pos, axis=0)) == len(pos))
    truth = EmbeddedGraph(AbstractGraph(len(rows), edges), pos)
    assume(truth.edge_lengths().all())
    eps = 0.25 * scale
    cloud = sample_graph(truth, eps, SampleOptions(seed=draw(st.integers(0, 2 ** 32))))
    off = (np.array(extra).reshape(-1, dim) + shift) * scale
    return truth, PointCloud(np.vstack([cloud.array, off]), eps)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(sampled_graphs())
def test_validator_matches_full_net_reference_at_any_scale(case):
    truth, cloud = case
    with pytest.MonkeyPatch.context() as monkeypatch:
        for resolution in net_resolutions(monkeypatch, cloud, (100.0, 7.0)):
            assert (validate_epsilon_sample(cloud, truth)
                    == full_net_certificate(cloud, truth, resolution=resolution))


def test_validator_memory_bounded_by_the_cloud():
    # beyond the cloud's tree and one float per coarse coverage knot, the
    # certificate holds one block of knots or samples at a time: about 5x
    # the cloud's coordinate bytes here, where holding every knot and a
    # tree over them all took about 25x
    truth = lattice_graph(8)
    cloud = sample_graph(truth, EPS, SampleOptions(seed=17))
    validate_epsilon_sample(cloud, truth)
    (ok, _), _, peak = traced_peak(lambda: validate_epsilon_sample(cloud, truth))
    assert ok and len(cloud) > 8000
    assert peak <= 8 * len(cloud) * cloud.ambient_dim * 8


def test_validator_memory_bounded_when_every_knot_is_in_reach():
    # 400 samples at the centre of a 100-gon of radius 5, cut into 0.08-long
    # pieces: every one of its 500 d1 knots is in reach of each, so one
    # block that gathered them all at once took about 27 MB
    ring = [(5.0 * math.cos(a), 5.0 * math.sin(a)) for a in np.arange(100) * math.pi / 50.0]
    polygon = EmbeddedGraph(AbstractGraph(100, [(v, (v + 1) % 100) for v in range(100)]), ring)
    centre = np.random.default_rng(0).uniform(-0.01, 0.01, (400, 2))
    cloud = PointCloud(np.vstack([sample_graph(polygon, EPS, SampleOptions(seed=12)).array,
                                  centre]), EPS)
    got, _, peak = traced_peak(lambda: validate_epsilon_sample(cloud, polygon))
    assert got == full_net_certificate(cloud, polygon) and not got[0]
    assert peak <= 2 * 2**20


def test_sample_graph_counts_sites_before_drawing(monkeypatch):
    # a 4-long segment at spacing eps/2 has 80 pieces and 81 sites, its
    # ends drawn as vertices
    options = SampleOptions(seed=1)
    sites = len(sample_graph(segment_graph(4.0), EPS, options))
    assert sites == 81
    monkeypatch.setattr(sampler, "_MAX_SITES", sites)
    assert len(sample_graph(segment_graph(4.0), EPS, options)) == sites
    monkeypatch.setattr(sampler, "_MAX_SITES", sites - 1)
    with pytest.raises(ValueError, match=f"asks for {sites} sites"):
        sample_graph(segment_graph(4.0), EPS, options)


@pytest.mark.parametrize("length,resolution,pieces", [
    (5.1, None, "epsilon 0.125 cuts the graph into 41 pieces, more than the 39"),
    (4.0039, 2.0 ** -10, "resolution 0.0009765625 cuts the graph into 4100 pieces, "
                         "more than the 3900")])
def test_validator_counts_pieces_before_allocating(monkeypatch, length, resolution,
                                                   pieces):
    # with _MAX_SITES = 19 a certificate takes up to 2 * 19 + 3 = 41 pieces
    # of length eps and 100 times as many net points: 5.1 / 0.125 gives 41
    # pieces, 4.0039 * 2**10 gives 4,100 net points; at 18 both are refused
    eps, segment = 0.125, segment_graph(length)
    cloud = sample_graph(segment, eps, SampleOptions(noise_radius=0.0, spacing=2 * eps))
    if resolution is not None:
        monkeypatch.setattr(sampler, "_NET_PER_EPSILON", eps / resolution)
    monkeypatch.setattr(sampler, "_MAX_SITES", 19)
    assert validate_epsilon_sample(cloud, segment, eps)[0]
    monkeypatch.setattr(sampler, "_MAX_SITES", 18)
    with pytest.raises(ValueError, match=pieces):
        validate_epsilon_sample(cloud, segment, eps)
