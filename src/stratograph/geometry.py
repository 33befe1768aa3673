"""Low-level Euclidean helpers shared by the sampler and the fitting code.

All distance predicates in this package compare *squared* distances, so the
same floating-point comparison is used everywhere a threshold appears.
"""
from __future__ import annotations

import numpy as np


def sq_dists(points: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Squared Euclidean distances from each row of ``points`` to ``q``."""
    diff = points - q
    return np.einsum("...i,...i->...", diff, diff)


def project_to_segment(p, a, b):
    """``project_many`` for one point and one segment.

    Returns ``(theta, squared_distance, degenerate)`` where ``degenerate``
    is True iff the segment's squared length is 0 (then theta = 0 and the
    distance is to ``b``).
    """
    p, a, b = (np.asarray(v, dtype=float)[None] for v in (p, a, b))
    theta, sq = project_many(p, a, b)
    return float(theta[0]), float(sq[0]), bool(sq_dists(a, b)[0] == 0.0)


def project_many(p: np.ndarray, a: np.ndarray, b: np.ndarray):
    """Closest points of the segments [b, a] to p, row by row, in
    barycentric form.

    Each segment is parametrized as S(theta) = theta*a + (1-theta)*b with
    theta in [0, 1], so theta = 1 lands on ``a``.  ``p``, ``a``, ``b`` are
    (m, n) arrays; returns (theta, sqdist) arrays of length m.  Degenerate
    rows, whose segment has squared length 0, get theta = 0.
    """
    seg = a - b
    denom = np.einsum("ij,ij->i", seg, seg)
    safe = np.where(denom > 0.0, denom, 1.0)
    theta = np.einsum("ij,ij->i", p - b, seg) / safe
    theta = np.clip(theta, 0.0, 1.0)
    theta[denom == 0.0] = 0.0
    r = p - (theta[:, None] * a + (1.0 - theta)[:, None] * b)
    return theta, np.einsum("ij,ij->i", r, r)


def dist_to_embedded_graph(points: np.ndarray, vertex_positions: np.ndarray,
                           edges) -> np.ndarray:
    """Exact Euclidean distance from each point to the embedded graph.

    The graph is the union of all vertex positions and all closed edge
    segments, so isolated vertices are covered as well.
    """
    points = np.atleast_2d(np.asarray(points, dtype=float))
    best = np.full(len(points), np.inf)
    for v in vertex_positions:
        best = np.minimum(best, sq_dists(points, v))
    for (i, j) in edges:
        a = vertex_positions[i]
        b = vertex_positions[j]
        m = len(points)
        _, sq = project_many(points, np.broadcast_to(a, (m, len(a))),
                             np.broadcast_to(b, (m, len(b))))
        best = np.minimum(best, sq)
    return np.sqrt(best)

