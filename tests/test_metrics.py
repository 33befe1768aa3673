"""Hausdorff distance, isomorphism search, and vertex error."""
import itertools

import numpy as np
import pytest

from stratograph import (AbstractGraph, EmbeddedGraph, UnsupportedGraphSize,
                         graph_isomorphic, hausdorff, vertex_error)
from stratograph.metrics import iter_isomorphisms
from conftest import FIVE_VERTEX_EDGES, EMBED_2D, traced_peak


def brute_hausdorff(a, b):
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    d = np.sqrt(((a[:, None, :] - b[None, :, :]) ** 2).sum(axis=2))
    return max(d.min(axis=1).max(), d.min(axis=0).max())


def brute_isomorphism(g, h):
    """All-permutations reference for graphs up to a handful of vertices."""
    if g.vertex_count != h.vertex_count:
        return None
    eg = set(g.edges)
    eh = set(h.edges)
    for perm in itertools.permutations(range(g.vertex_count)):
        if {tuple(sorted((perm[a], perm[b]))) for a, b in eg} == eh:
            return dict(enumerate(perm))
    return None


def test_hausdorff_identity_and_spec_pair():
    pts = [(0.0, 0.0), (1.0, 2.0)]
    assert hausdorff(pts, pts) == 0.0
    assert hausdorff([(0.0, 0.0)], [(3.0, 4.0)]) == pytest.approx(5.0)


def test_hausdorff_asymmetric_coverage():
    a = [(0.0,), (1.0,)]
    b = [(0.0,), (2.0,)]
    assert hausdorff(a, b) == pytest.approx(1.0)


def test_hausdorff_symmetry_and_triangle():
    rng = np.random.default_rng(3)
    for _ in range(20):
        a, b, c = (rng.normal(0, 1, (rng.integers(1, 8), 3))
                   for _ in range(3))
        dab = hausdorff(a, b)
        assert dab == pytest.approx(hausdorff(b, a))
        assert dab <= hausdorff(a, c) + hausdorff(c, b) + 1e-12


def test_hausdorff_matches_brute_oracle_across_scales():
    rng = np.random.default_rng(11)
    for dim in (1, 2, 3):
        for scale in (1e-5, 1.0, 1e5):
            a = rng.normal(0, scale, (rng.integers(1, 60), dim))
            b = rng.normal(0, scale, (rng.integers(1, 60), dim)) + rng.normal(0, scale, dim)
            assert hausdorff(a, b) == brute_hausdorff(a, b)


def test_hausdorff_memory_linear_in_the_sets():
    # the full 3,000 x 3,000 distance matrix alone would be 72 MB
    rng = np.random.default_rng(13)
    a, b = rng.uniform(0, 1, (3000, 3)), rng.uniform(0, 1, (3000, 3))
    _, _, peak = traced_peak(lambda: hausdorff(a, b))
    assert peak < 1e6


def test_hausdorff_rejects_empty_and_mismatch():
    with pytest.raises(ValueError):
        hausdorff([], [(0.0, 0.0)])
    with pytest.raises(ValueError):
        hausdorff([(0.0, 0.0)], [(0.0, 0.0, 0.0)])


def test_isomorphic_identity_and_relabel(five_vertex_graph):
    g = five_vertex_graph
    mapping = graph_isomorphic(g, g)
    assert mapping is not None
    perm = (2, 0, 4, 1, 3)
    h = AbstractGraph(5, [(perm[a], perm[b]) for a, b in g.edges])
    mapping = graph_isomorphic(g, h)
    assert mapping is not None
    # mapping sends g-vertices onto h-vertices preserving edges
    assert {tuple(sorted((mapping[a], mapping[b]))) for a, b in g.edges} \
        == set(h.edges)


def test_isomorphic_path_vs_triangle():
    path = AbstractGraph(3, [(0, 1), (1, 2)])
    tri = AbstractGraph(3, [(0, 1), (1, 2), (0, 2)])
    assert graph_isomorphic(path, tri) is None
    assert graph_isomorphic(tri, path) is None


def test_isomorphic_size_mismatch():
    assert graph_isomorphic(AbstractGraph(2, []), AbstractGraph(3, [])) is None


def test_isomorphic_matches_brute_force_small():
    rng = np.random.default_rng(8)
    for trial in range(60):
        n = int(rng.integers(1, 6))
        pairs = list(itertools.combinations(range(n), 2))
        ge = [p for p in pairs if rng.random() < 0.4]
        he = [p for p in pairs if rng.random() < 0.4]
        g = AbstractGraph(n, ge)
        h = AbstractGraph(n, he)
        got = graph_isomorphic(g, h)
        want = brute_isomorphism(g, h)
        assert (got is None) == (want is None)
        if got is not None:
            assert {tuple(sorted((got[a], got[b]))) for a, b in g.edges} \
                == set(h.edges)


def test_isomorphic_respects_degree_refinement():
    # same degree sequence, different structure: two triangles vs 6-cycle
    two_tri = AbstractGraph(6, [(0, 1), (1, 2), (0, 2),
                                (3, 4), (4, 5), (3, 5)])
    hexagon = AbstractGraph(6, [(i, (i + 1) % 6) for i in range(6)])
    assert graph_isomorphic(two_tri, hexagon) is None


def test_isomorphic_size_cap():
    big = AbstractGraph(13, [])
    with pytest.raises(UnsupportedGraphSize):
        graph_isomorphic(big, big)


def test_iter_isomorphisms_counts_symmetries():
    square = AbstractGraph(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
    maps = list(iter_isomorphisms(square, square))
    assert len(maps) == 8  # dihedral group of the 4-cycle


def test_vertex_error_identity(truth_2d):
    worst, mean, mapping = vertex_error(truth_2d, truth_2d)
    assert worst == 0.0 and mean == 0.0
    assert mapping == {i: i for i in range(5)}


def test_vertex_error_translation(truth_2d):
    g = truth_2d.graph
    shifted = EmbeddedGraph(g, truth_2d.vertex_positions
                            + np.array([0.18, -0.24]))
    worst, mean, _ = vertex_error(truth_2d, shifted)
    assert worst == pytest.approx(0.3)
    assert mean == pytest.approx(0.3)


def test_vertex_error_minimizes_over_symmetries():
    # square with one perturbed corner: the best automorphism aligns the
    # perturbed corner with itself, so error is the single displacement
    g = AbstractGraph(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
    base = np.array([(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)])
    a = EmbeddedGraph(g, base)
    moved = base.copy()
    moved[2] += (0.05, 0.0)
    b = EmbeddedGraph(g, moved)
    worst, mean, _ = vertex_error(a, b)
    assert worst == pytest.approx(0.05)
    assert mean == pytest.approx(0.05 / 4)


def test_vertex_error_relabel_invariance(truth_2d):
    g = truth_2d.graph
    perm = (3, 1, 4, 0, 2)
    h = AbstractGraph(5, [(perm[a], perm[b]) for a, b in g.edges])
    pos = np.empty_like(truth_2d.vertex_positions)
    pos[list(perm)] = truth_2d.vertex_positions
    relabeled = EmbeddedGraph(h, pos)
    worst, mean, _ = vertex_error(truth_2d, relabeled)
    assert worst <= 1e-12 and mean <= 1e-12


def test_vertex_error_requires_isomorphic():
    path = EmbeddedGraph(AbstractGraph(2, [(0, 1)]),
                         [(0.0, 0.0), (1.0, 0.0)])
    pair = EmbeddedGraph(AbstractGraph(2, []), [(0.0, 0.0), (1.0, 0.0)])
    with pytest.raises(ValueError, match="isomorphic"):
        vertex_error(path, pair)


def test_vertex_error_dimension_mismatch(truth_2d, truth_3d):
    with pytest.raises(ValueError):
        vertex_error(truth_2d, truth_3d)
