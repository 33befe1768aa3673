"""Embedding fit: objective, projections, descent, and the bias report."""
import importlib
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from stratograph import (AbstractGraph, EmbeddedGraph, FitProblem, PointCloud,
                         SampleOptions, Stratification, estimate_bias, fit,
                         initialize, objective, project_to_segment,
                         reconstruct_structure, sample_graph, vertex_error)
from stratograph.fit import _projected_gradient_norm, _residuals, _theta_step, _x_step
from conftest import EPS, EMBED_2D, EMBED_3D, FIVE_VERTEX_EDGES

# the module, which the package's ``fit`` function shadows
fit_module = importlib.import_module("stratograph.fit")


def segment_problem(noise_radius=0.0, seed=0, length=4.0):
    """Correctly stratified sample of one segment: a zero-residual problem
    when noise_radius is 0."""
    g = AbstractGraph(2, [(0, 1)])
    truth = EmbeddedGraph(g, [(0.0, 0.0), (length, 0.0)])
    cloud = sample_graph(truth, EPS, SampleOptions(noise_radius=noise_radius,
                                                   seed=seed))
    # sites: vertex 0, vertex 1, then interior points of the edge
    n = len(cloud)
    strat = Stratification(vertex_clusters=[[0], [1]],
                           edge_clusters=[list(range(2, n))],
                           incidence=[(0, 1)], n_points=n)
    return truth, cloud, FitProblem(cloud, strat)


def naive_objective(problem, x, t):
    """Per-point recomputation of the summed squared distances."""
    pts = problem.cloud.array
    strat = problem.stratification
    vertex_of = {i: j for j, c in enumerate(strat.vertex_clusters) for i in c}
    ends_of = {i: strat.incidence[k] for k, c in enumerate(strat.edge_clusters)
               for i in c}
    total = 0.0
    for i in range(len(pts)):
        j = vertex_of.get(i)
        if j is not None:
            total += float(np.sum((pts[i] - x[j]) ** 2))
        else:
            j1, j2 = ends_of[i]
            s = t[i] * x[j1] + (1.0 - t[i]) * x[j2]
            total += float(np.sum((pts[i] - s) ** 2))
    return total


def test_objective_zero_at_exact_vertices():
    pts = [(0.0, 0.0), (1.0, 2.0)]
    cloud = PointCloud(pts, EPS)
    strat = Stratification([[0], [1]], [], [], n_points=2)
    problem = FitProblem(cloud, strat)
    x = np.array([[0.0, 0.0], [1.0, 2.0]])
    assert objective(problem, x, np.zeros(2)) == 0.0


def test_objective_single_edge_point():
    # p = (0.5, 1) against segment (0,0)-(1,0) at theta 0.5: squared 1.0
    pts = [(0.0, 0.0), (1.0, 0.0), (0.5, 1.0)]
    cloud = PointCloud(pts, EPS)
    strat = Stratification([[0], [1]], [[2]], [(0, 1)], n_points=3)
    problem = FitProblem(cloud, strat)
    x = np.array([[0.0, 0.0], [1.0, 0.0]])
    t = np.array([0.0, 0.0, 0.5])
    assert objective(problem, x, t) == pytest.approx(1.0)


def test_objective_matches_naive_oracle():
    rng = np.random.default_rng(2)
    truth, cloud, problem = segment_problem(noise_radius=0.05, seed=3)
    x = rng.normal(0, 1, (2, 2))
    t = rng.uniform(0, 1, len(cloud))
    t[:2] = 0.0
    assert objective(problem, x, t) == pytest.approx(
        naive_objective(problem, x, t), rel=1e-12)


def test_objective_adds_left_to_right():
    # 1 + 2**-53 rounds to 1, so a left-to-right sum of these residual
    # squares stays at 1.0, while a compensated sum (the builtin sum of
    # floats from CPython 3.12 on) gives 1 + 2**-51
    h = 2.0 ** -27
    pts = [(1.0, 0.0), (h, h), (h, -h), (-h, h), (-h, -h)]
    problem = FitProblem(PointCloud(pts, EPS), Stratification([range(5)], [], [], n_points=5))
    acc = 0.0
    for px, py in pts:
        acc += px * px + py * py
    assert acc == 1.0 and math.fsum(px * px + py * py for px, py in pts) == 1.0 + 2.0 ** -51
    assert objective(problem, np.zeros((1, 2)), np.zeros(5)) == acc


def test_objective_rejects_out_of_range_theta():
    _, cloud, problem = segment_problem()
    x = np.zeros((2, 2))
    t = np.zeros(len(cloud))
    t[5] = 1.5
    with pytest.raises(ValueError):
        objective(problem, x, t)


def test_project_to_segment_spec_vectors():
    theta, sq, degenerate = project_to_segment((0.5, 1.0), (0.0, 0.0),
                                               (1.0, 0.0))
    assert theta == pytest.approx(0.5) and sq == pytest.approx(1.0)
    assert not degenerate
    # beyond the a-end: clamped to theta = 1, S(1) = a
    theta, sq, _ = project_to_segment((-1.0, 0.0), (0.0, 0.0), (1.0, 0.0))
    assert theta == 1.0 and sq == pytest.approx(1.0)


def test_project_to_segment_degenerate_flag():
    theta, sq, degenerate = project_to_segment((3.0, 4.0), (1.0, 1.0),
                                               (1.0, 1.0))
    assert degenerate
    assert theta == 0.0
    assert sq == pytest.approx(13.0)
    # a segment whose squared length underflows to 0 is degenerate too
    theta, sq, degenerate = project_to_segment((3.0, 4.0), (1e-170, 0.0),
                                               (0.0, 0.0))
    assert degenerate and theta == 0.0 and sq == 25.0


def test_project_to_segment_grid_oracle():
    rng = np.random.default_rng(14)
    grid = np.linspace(0.0, 1.0, 1001)
    for _ in range(50):
        p, a, b = rng.normal(0, 1, (3, 3))
        theta, sq, _ = project_to_segment(p, a, b)
        vals = [float(np.sum((p - (g * a + (1 - g) * b)) ** 2)) for g in grid]
        assert sq <= min(vals) + 1e-6
        assert abs(theta - grid[int(np.argmin(vals))]) <= 1e-3 + 1e-9


def test_initialize_centroids_and_projections():
    pts = [(0.0, 0.0), (0.2, 0.0), (5.0, 1.0)]
    cloud = PointCloud(pts, EPS)
    strat = Stratification([[0, 1], [2]], [], [], n_points=3)
    x, t = initialize(FitProblem(cloud, strat))
    assert np.allclose(x[0], (0.1, 0.0))
    assert np.allclose(x[1], (5.0, 1.0))
    assert np.array_equal(t, np.zeros(3))


def test_fit_noiseless_segment_reaches_zero_residual():
    truth, cloud, problem = segment_problem(noise_radius=0.0)
    res = fit(problem)
    assert res.converged
    assert res.objective <= 1e-16
    err = np.linalg.norm(res.vertex_positions - truth.vertex_positions,
                         axis=1).max()
    assert err <= 1e-8
    assert np.all(res.thetas >= 0.0) and np.all(res.thetas <= 1.0)


def test_fit_at_fixed_point_stops_immediately():
    truth, cloud, problem = segment_problem(noise_radius=0.0)
    res = fit(problem)
    assert res.converged and res.iterations <= 2
    assert len(set(res.objective_trace)) == 1


def test_fit_trace_non_increasing_noisy(truth_2d):
    for seed in (0, 1, 2):
        cloud = sample_graph(truth_2d, EPS, SampleOptions(seed=seed))
        strat = reconstruct_structure(cloud)
        res = fit(FitProblem(cloud, strat))
        trace = np.array(res.objective_trace)
        assert np.all(np.diff(trace) <= 0.0)
        assert res.objective <= trace[0]
        assert np.all(res.thetas >= 0.0) and np.all(res.thetas <= 1.0)
        assert res.converged


def test_theta_step_local_optimality():
    truth, cloud, problem = segment_problem(noise_radius=0.05, seed=6)
    x, t = initialize(problem)
    t = _theta_step(problem, x, t)
    base = objective(problem, x, t)
    rng = np.random.default_rng(0)
    for i in problem._d1[rng.integers(0, len(problem._d1), 20)]:
        for delta in (-0.01, 0.01):
            t2 = t.copy()
            t2[i] = min(1.0, max(0.0, t2[i] + delta))
            assert objective(problem, x, t2) >= base - 1e-12


def test_x_step_gradient_vanishes():
    truth, cloud, problem = segment_problem(noise_radius=0.05, seed=7)
    x, t = initialize(problem)
    t = _theta_step(problem, x, t)
    x = _x_step(problem, t)
    base = objective(problem, x, t)
    h = 1e-6
    grad = np.zeros_like(x)
    for j in range(x.shape[0]):
        for d in range(x.shape[1]):
            xp = x.copy()
            xp[j, d] += h
            xm = x.copy()
            xm[j, d] -= h
            grad[j, d] = (objective(problem, xp, t)
                          - objective(problem, xm, t)) / (2 * h)
    assert np.linalg.norm(grad) <= 1e-4 * (1.0 + base)


def test_fit_rigid_equivariance():
    truth, cloud, problem = segment_problem(noise_radius=0.05, seed=11)
    res = fit(problem)
    ang = 0.9
    rot = np.array([[math.cos(ang), -math.sin(ang)],
                    [math.sin(ang), math.cos(ang)]])
    shift = np.array([2.0, -3.0])
    moved = PointCloud(cloud.array @ rot.T + shift, EPS)
    res2 = fit(FitProblem(moved, problem.stratification))
    expect = res.vertex_positions @ rot.T + shift
    assert np.linalg.norm(res2.vertex_positions - expect, axis=1).max() <= 1e-8


def test_fit_moves_every_vertex_cluster_to_its_data():
    # a vertex cluster cannot be empty, so even an isolated vertex far from
    # the rest has a sample, and the fit puts it there
    pts = [(0.0, 0.0), (4.0, 0.0), (10.0, 10.0)]
    cloud = PointCloud(pts, EPS)
    strat = Stratification([[0], [1], [2]], [], [], n_points=3)
    problem = FitProblem(cloud, strat)
    res = fit(problem)
    assert np.allclose(res.vertex_positions[2], (10.0, 10.0))


def normal_equations_add_at(problem, t):
    """Reference assembly of ``_x_step``'s system a x = b: one
    ``np.add.at`` call per kind of term."""
    pts = problem.cloud.array
    k = problem.n_vertices
    a = np.zeros((k, k))
    b = np.zeros((k, pts.shape[1]))
    if len(problem._d0):
        np.add.at(a, (problem._d0v, problem._d0v), 1.0)
        np.add.at(b, problem._d0v, pts[problem._d0])
    if len(problem._d1):
        c1 = t[problem._d1]
        c2 = 1.0 - c1
        np.add.at(a, (problem._e1, problem._e1), c1 * c1)
        np.add.at(a, (problem._e2, problem._e2), c2 * c2)
        lo = np.minimum(problem._e1, problem._e2)
        hi = np.maximum(problem._e1, problem._e2)
        np.add.at(a, (lo, hi), c1 * c2)
        np.add.at(a, (hi, lo), c1 * c2)
        np.add.at(b, problem._e1, c1[:, None] * pts[problem._d1])
        np.add.at(b, problem._e2, c2[:, None] * pts[problem._d1])
    return a, b


def x_step_add_at(problem, t):
    """Reference for ``_x_step``."""
    return np.linalg.solve(*normal_equations_add_at(problem, t))


def gradient_norm_add_at(problem, x, t):
    """Reference for ``_projected_gradient_norm`` with ``np.add.at``."""
    r = _residuals(problem, x, t)
    gx = np.zeros_like(x)
    if len(problem._d0):
        np.add.at(gx, problem._d0v, -2.0 * r[problem._d0])
    total = 0.0
    if len(problem._d1):
        th = t[problem._d1]
        rd = r[problem._d1]
        np.add.at(gx, problem._e1, -2.0 * th[:, None] * rd)
        np.add.at(gx, problem._e2, -2.0 * (1.0 - th)[:, None] * rd)
        seg = x[problem._e1] - x[problem._e2]
        gt = -2.0 * np.einsum("ij,ij->i", rd, seg)
        gt = np.where((th <= 0.0) & (gt > 0.0), 0.0, gt)
        gt = np.where((th >= 1.0) & (gt < 0.0), 0.0, gt)
        total += float(np.dot(gt, gt))
    total += float(np.sum(gx * gx))
    return float(np.sqrt(total))


def same_bits(a, b):
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and np.array_equal(a.view(np.uint64), b.view(np.uint64))


def _assembly_problems():
    for seed, embed in ((1, EMBED_2D), (2, EMBED_3D)):
        truth = EmbeddedGraph(AbstractGraph(5, FIVE_VERTEX_EDGES), embed)
        cloud = sample_graph(truth, EPS, SampleOptions(seed=seed))
        yield FitProblem(cloud, reconstruct_structure(cloud))
    yield segment_problem(noise_radius=0.05, seed=3)[2]
    # two edge clusters join vertices 0 and 1, one in each order
    yield FitProblem(PointCloud([(0.0, 0.0), (4.0, 0.0), (1.0, 0.3), (3.0, -0.2), (2.0, 0.4)],
                                EPS),
                     Stratification([[0], [1]], [[2, 4], [3]], [(0, 1), (1, 0)]))
    # points only on edges, and only at vertices
    yield FitProblem(PointCloud([(0.0, 0.0), (1.0, 0.2), (3.0, -0.1), (4.0, 0.0)], EPS),
                     Stratification([[0], [3]], [[1, 2]], [(1, 0)]))
    yield FitProblem(PointCloud([(0.0, 0.0), (4.0, 1.0)], EPS),
                     Stratification([[0], [1]], [], []))


def test_bincount_assembly_matches_add_at_bitwise():
    for problem in _assembly_problems():
        x, t = initialize(problem)
        for _ in range(3):
            t = _theta_step(problem, x, t)
            x = _x_step(problem, t)
            assert same_bits(x, x_step_add_at(problem, t))
            assert same_bits(_projected_gradient_norm(problem, x, t),
                             gradient_norm_add_at(problem, x, t))


@st.composite
def stratified_problems(draw):
    """A FitProblem on a random valid stratification of a random cloud in
    1-3 D, with 1-6 vertex clusters and 0-6 edge clusters of 1-5 points
    each and random incidence, plus random thetas (0 and 1 among them)."""
    dim = draw(st.integers(1, 3))
    k = draw(st.integers(1, 6))
    n_edges = draw(st.integers(0, 6 if k > 1 else 0))
    sizes = draw(st.lists(st.integers(1, 5), min_size=k + n_edges,
                          max_size=k + n_edges))
    order = draw(st.permutations(range(sum(sizes))))
    ends = np.cumsum(sizes)
    clusters = [order[end - size:end] for size, end in zip(sizes, ends)]
    incidence = []
    for _ in range(n_edges):
        j1, j2 = draw(st.integers(0, k - 1)), draw(st.integers(0, k - 2))
        incidence.append((j1, j2 + (j2 >= j1)))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    cloud = PointCloud(rng.normal(scale=4.0, size=(sum(sizes), dim)), EPS)
    problem = FitProblem(cloud, Stratification(clusters[:k], clusters[k:], incidence))
    t = np.zeros(len(cloud))
    t[problem._d1] = draw(st.lists(st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0),
                                   min_size=len(problem._d1), max_size=len(problem._d1)))
    return problem, t


@settings(derandomize=True, max_examples=200, deadline=None)
@given(stratified_problems())
def test_position_system_is_positive_definite(case):
    # every vertex cluster has a sample, so a >= I: the solve needs no
    # fallback for a singular system and no vertex is left out of it
    problem, t = case
    a, b = normal_equations_add_at(problem, t)
    assert np.array_equal(a, a.T)
    assert np.linalg.eigvalsh(a)[0] >= 1.0 - 1e-9
    assert same_bits(_x_step(problem, t), np.linalg.solve(a, b))


def test_fit_matches_add_at_assembly_bitwise(monkeypatch, truth_2d, truth_3d):
    problems = [FitProblem(cloud, reconstruct_structure(cloud))
                for truth in (truth_2d, truth_3d) for seed in (4, 5)
                for cloud in [sample_graph(truth, EPS, SampleOptions(seed=seed))]]
    got = [fit(p) for p in problems]
    monkeypatch.setattr(fit_module, "_x_step", x_step_add_at)
    monkeypatch.setattr(fit_module, "_projected_gradient_norm", gradient_norm_add_at)
    for mine, problem in zip(got, problems):
        want = fit(problem)
        assert same_bits(mine.vertex_positions, want.vertex_positions)
        assert same_bits(mine.thetas, want.thetas)
        assert same_bits(mine.objective_trace, want.objective_trace)
        assert (mine.iterations, mine.converged) == (want.iterations, want.converged)


def test_fit_measures_the_gradient_once_per_iterate(monkeypatch, truth_2d, truth_3d):
    # the stop test's norm at the final iterate is the one converged reports
    seen = []

    def counted(problem, x, t):
        seen.append((x.tobytes(), t.tobytes()))
        return _projected_gradient_norm(problem, x, t)

    monkeypatch.setattr(fit_module, "_projected_gradient_norm", counted)
    for truth in (truth_2d, truth_3d):
        seen.clear()
        cloud = sample_graph(truth, EPS, SampleOptions(seed=3))
        res = fit(FitProblem(cloud, reconstruct_structure(cloud)))
        assert res.converged and seen
        assert len(set(seen)) == len(seen)
        assert seen[-1] == (res.vertex_positions.tobytes(), res.thetas.tobytes())


def test_fit_result_as_dict_schema():
    truth, cloud, problem = segment_problem(noise_radius=0.03, seed=1)
    res = fit(problem)
    d = res.as_dict()
    assert set(d) == {"vertices", "thetas", "objective", "iterations",
                      "converged", "edges"}
    assert d["objective"] == list(res.objective_trace)
    assert len(d["thetas"]) == len(cloud)


def test_estimate_bias_isolated_vertices_unbiased():
    # no edges: every cluster is a singleton at the vertex site, so the
    # fit puts each vertex on its sample, within the noise radius eps/2
    g = AbstractGraph(3, [])
    truth = EmbeddedGraph(g, [(0.0, 0.0), (4.0, 0.0), (0.0, 4.0)])
    report = estimate_bias(truth, EPS, trials=5, seed=0)
    assert report.trials == 5 and report.failures == 0
    for displacement in report.per_trial:
        assert np.linalg.norm(displacement, axis=1).max() <= EPS / 2


def test_estimate_bias_prefix_reproducibility(truth_2d):
    short = estimate_bias(truth_2d, EPS, trials=3, seed=42)
    long = estimate_bias(truth_2d, EPS, trials=6, seed=42)
    for a, b in zip(short.per_trial, long.per_trial[:3]):
        assert a is not None and b is not None
        assert np.array_equal(a, b)


def test_estimate_bias_requires_valid_graph():
    g = AbstractGraph(2, [(0, 1)])
    short_edge = EmbeddedGraph(g, [(0.0, 0.0), (1.0, 0.0)])  # 10 eps only
    with pytest.raises(ValueError, match="assumptions"):
        estimate_bias(short_edge, EPS, trials=2)
    with pytest.raises(ValueError):
        estimate_bias(short_edge, EPS, trials=0)


def test_estimate_bias_report_shape(truth_2d):
    report = estimate_bias(truth_2d, EPS, trials=4, seed=7)
    assert report.mean_displacement.shape == (5, 2)
    assert report.covariance.shape == (5, 2, 2)
    assert len(report.per_trial) == 4
    d = report.as_dict()
    assert d["trials"] == 4
    assert len(d["mean_displacement"]) == 5
