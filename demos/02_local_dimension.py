"""Classify local dimension along a bent path.

Every sample gets a label: 1 where the neighborhood looks like a line
segment, 0 where it looks like a graph vertex.  The demo walks a right
angle corner and prints the label each sample receives as a function of
its distance to the corner, making the vertex-like zone visible.  Far
from the corner the annulus around a sample meets the path in two arcs;
near it the two arcs fuse or sit at a sharp angle.
"""
import math

import numpy as np

from stratograph import PointCloud, build_graph, classify_all

EPS = 0.1


def corner_points(angle, arm_steps):
    pts = [(0.0, 0.0)]
    for u in ((1.0, 0.0), (math.cos(angle), math.sin(angle))):
        for k in range(1, arm_steps + 1):
            pts.append((k * EPS * u[0], k * EPS * u[1]))
    return np.array(pts)


def main():
    for degrees in (180.0, 90.0, 45.0):
        pts = corner_points(math.radians(degrees), arm_steps=25)
        cloud = PointCloud(pts, EPS)
        labels = classify_all(build_graph(cloud)).labels

        dist = np.linalg.norm(pts, axis=1)
        order = np.argsort(dist)
        print(f"\ncorner angle {degrees:.0f} degrees "
              f"(straight line when 180):")
        strip = "".join(str(int(labels[i])) for i in order)
        print(f"  labels, sorted by distance to the corner: {strip}")
        zone = dist[[i for i in order if labels[i] == 0 and dist[i] < 15 * EPS]]
        ends = sum(1 for i in order if labels[i] == 0 and dist[i] >= 15 * EPS)
        if zone.size:
            print(f"  corner zone: {zone.size} vertex-like samples out to "
                  f"{zone.max() / EPS:.1f} eps")
        else:
            print("  no vertex-like samples near the corner: straight "
                  "at this scale")
        print(f"  arm ends: {ends} vertex-like samples (one-sided "
              "neighborhoods, independent of the corner)")


if __name__ == "__main__":
    main()
