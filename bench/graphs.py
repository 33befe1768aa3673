"""Ground-truth embedded graphs the workloads sample.

The five-vertex graph is the acceptance benchmark of the test suite: a
triangle (1-2-3) with a pendant edge (0-1) and an isolated vertex (4),
embedded in 2D and 3D.  The coordinates are copied here so the benchmark
does not depend on the test tree.  All graphs pass check_assumptions at
eps = 0.1: edges of at least 30 eps, vertices at least 20 eps apart.
"""
from __future__ import annotations

import math

import numpy as np

from stratograph import AbstractGraph, EmbeddedGraph

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


def five_vertex(embedding: np.ndarray) -> EmbeddedGraph:
    return EmbeddedGraph(AbstractGraph(5, FIVE_VERTEX_EDGES), embedding)


def lattice(side: int, spacing: float) -> EmbeddedGraph:
    """side x side grid graph in the plane; vertex i*side + j sits at (i, j)*spacing."""
    positions = [(i * spacing, j * spacing) for i in range(side) for j in range(side)]
    edges = []
    for i in range(side):
        for j in range(side):
            v = i * side + j
            if i + 1 < side:
                edges.append((v, v + side))
            if j + 1 < side:
                edges.append((v, v + 1))
    return EmbeddedGraph(AbstractGraph(side * side, edges), positions)


def warm_up_path() -> EmbeddedGraph:
    """A small bent path (161 samples at eps = 0.1) that runs every stage."""
    return EmbeddedGraph(AbstractGraph(3, [(0, 1), (1, 2)]),
                         [(0.0, 0.0), (4.0, 0.0), (4.0, 4.0)])
