"""Reconstruction of linearly embedded graphs from noisy point samples.

Given a cloud of points lying within epsilon of an unknown graph embedded
in R^n (straight edges), the pipeline recovers both the abstract graph and
vertex coordinates, degree-1 vertices a few epsilon inward (``estimate_bias``
measures this drift):

    >>> from stratograph import (AbstractGraph, EmbeddedGraph, SampleOptions,
    ...                          sample_graph, reconstruct_structure,
    ...                          FitProblem, fit, vertex_error)
    >>> truth = EmbeddedGraph(AbstractGraph(2, [(0, 1)]), [[0, 0], [4, 0]])
    >>> cloud = sample_graph(truth, 0.1, SampleOptions(seed=7))
    >>> strat = reconstruct_structure(cloud)
    >>> strat.abstract_graph().edges
    ((0, 1),)
    >>> result = fit(FitProblem(cloud, strat))
    >>> max_error, mean_error, _ = vertex_error(result.embedded_graph(), truth)
    >>> max_error <= 5 * cloud.epsilon
    True

The stages are importable separately: dimension classification
(classify_all), clustering and incidence (stratify module), least-squares
coordinate recovery (fit module), plus a certified sampler, validators,
and evaluation metrics.  The ``stratograph`` command line exposes the same
stages on files.
"""

from .core import (AbstractGraph, DimensionLabels, EmbeddedGraph, PointCloud,
                   Stratification, ValidationReport, validate_cloud)
from .dimension import ClassifierParams, angle_test, classify_all
from .fit import FitProblem, FitResult, fit, initialize, objective
from .geometry import dist_to_embedded_graph, project_to_segment
from .io import (FormatError, read_cloud, read_embedded_graph, read_fit_result,
                 read_stratification, write_cloud, write_embedded_graph,
                 write_fit_result, write_report, write_stratification)
from .metrics import (BiasReport, UnsupportedGraphSize, estimate_bias,
                      graph_isomorphic, hausdorff, iter_isomorphisms,
                      vertex_error)
from .neighbors import NeighborhoodGraph, build_graph, components
from .sampler import (AssumptionReport, SampleOptions, check_assumptions,
                      sample_graph, validate_epsilon_sample)
from .stratify import (IncidenceError, assign_incidence, cluster_edges,
                       cluster_vertices, reconstruct_structure)

__version__ = "0.1.0"

__all__ = [
    "AbstractGraph", "AssumptionReport", "BiasReport", "ClassifierParams",
    "DimensionLabels", "EmbeddedGraph", "FitProblem", "FitResult",
    "FormatError", "IncidenceError", "NeighborhoodGraph", "PointCloud",
    "SampleOptions", "Stratification", "UnsupportedGraphSize",
    "ValidationReport", "angle_test", "assign_incidence", "build_graph",
    "check_assumptions", "classify_all", "cluster_edges",
    "cluster_vertices", "components", "dist_to_embedded_graph",
    "estimate_bias", "fit", "graph_isomorphic", "hausdorff", "initialize",
    "iter_isomorphisms", "objective", "project_to_segment", "read_cloud",
    "read_embedded_graph", "read_fit_result", "read_stratification",
    "reconstruct_structure", "sample_graph", "validate_cloud",
    "validate_epsilon_sample", "vertex_error", "write_cloud",
    "write_embedded_graph", "write_fit_result", "write_report",
    "write_stratification",
]
