"""Shared fixtures: frozen acceptance embeddings and deterministic clouds.

The five-vertex test graph is a triangle (1-2-3) with a pendant edge (0-1)
and an isolated vertex (4).  The embeddings keep the triangle equilateral
and the pendant on the outward bisector at the hub, which maximizes the
minimum incident angle available to this topology (60 degrees); both pass
check_assumptions at eps = 0.1 with wide margins.
"""
import math
import tracemalloc

import numpy as np
import pytest

from stratograph import AbstractGraph, EmbeddedGraph, PointCloud, build_graph

EPS = 0.1
_S3 = 2.0 * math.sqrt(3.0)

FIVE_VERTEX_EDGES = ((0, 1), (1, 2), (2, 3), (3, 1))

EMBED_2D = np.array([[-4.0, 0.0],
                     [0.0, 0.0],
                     [_S3, 2.0],
                     [_S3, -2.0],
                     [0.0, 6.0]])

EMBED_3D = np.array([[-4.0, 0.0, 0.0],
                     [0.0, 0.0, 0.0],
                     [_S3, math.sqrt(3.0), 1.0],
                     [_S3, -math.sqrt(3.0), -1.0],
                     [0.0, 4.0, 4.0]])


@pytest.fixture
def five_vertex_graph():
    return AbstractGraph(5, FIVE_VERTEX_EDGES)


@pytest.fixture
def truth_2d(five_vertex_graph):
    return EmbeddedGraph(five_vertex_graph, EMBED_2D)


@pytest.fixture
def truth_3d(five_vertex_graph):
    return EmbeddedGraph(five_vertex_graph, EMBED_3D)


def line_cloud(eps=EPS, k_lo=-12, k_hi=12):
    """Collinear samples (k*eps, 0) for k in [k_lo, k_hi]."""
    pts = [(eps * k, 0.0) for k in range(k_lo, k_hi + 1)]
    return PointCloud(pts, eps)


def star_cloud(eps=EPS, arms=3, arm_steps=20, spacing=None):
    """Samples on `arms` rays from the origin at equal angles.

    Each ray carries points at the given spacing (default eps) out to
    arm_steps * spacing; the origin appears exactly once.
    """
    if spacing is None:
        spacing = eps
    pts = [(0.0, 0.0)]
    for a in range(arms):
        ang = 2.0 * math.pi * a / arms
        u = (math.cos(ang), math.sin(ang))
        for k in range(1, arm_steps + 1):
            pts.append((k * spacing * u[0], k * spacing * u[1]))
    return PointCloud(pts, eps)


def corner_cloud(eps=EPS, angle=math.pi / 2, arm_steps=20, spacing=None):
    """Two rays from the origin separated by `angle`, sampled per ray."""
    if spacing is None:
        spacing = eps
    pts = [(0.0, 0.0)]
    for u in ((1.0, 0.0), (math.cos(angle), math.sin(angle))):
        for k in range(1, arm_steps + 1):
            pts.append((k * spacing * u[0], k * spacing * u[1]))
    return PointCloud(pts, eps)


def epsilon_for(radius):
    """The epsilon whose graph radius, ``3.0 * epsilon``, is ``radius`` to the
    bit, or None where no float's triple rounds to it."""
    eps = radius / 3.0
    for cand in (eps, np.nextafter(eps, 0.0), np.nextafter(eps, math.inf)):
        if 3.0 * float(cand) == radius:
            return float(cand)
    return None


def graph_at(points, radius):
    """The neighbourhood graph of ``points`` at exactly ``radius``: that of
    their cloud at the epsilon ``epsilon_for`` gives."""
    eps = epsilon_for(radius)
    assert eps is not None, f"no epsilon triples to {radius!r}"
    graph = build_graph(PointCloud(points, eps))
    assert graph.radius == radius
    return graph


def traced_peak(fn):
    """``(fn(), current, peak)``: the bytes tracemalloc traces as still held
    when ``fn`` returns, and the most it traced at once during the call."""
    tracemalloc.start()
    try:
        result = fn()
        current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, current, peak


# one verdict line per acceptance criterion, echoed after the test table
ACCEPTANCE_LINES = []


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)
