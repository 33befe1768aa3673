"""Module layering: each module imports only the modules below it."""
import argparse
import ast
import importlib
import inspect
import sys
from pathlib import Path

import stratograph

SOURCES = Path(stratograph.__file__).resolve().parent

LIBRARY = {"cli", "core", "dimension", "fit", "geometry", "io", "metrics",
           "neighbors", "sampler", "stratify"}

# Relative imports each module may make.  The fit knows nothing of how
# the stratification was found; metrics sits above the whole pipeline
# (estimate_bias runs it), and the CLI above everything.
ALLOWED = {
    "core": set(),
    "geometry": set(),
    "neighbors": {"core"},
    "sampler": {"core", "geometry"},
    "dimension": {"core", "geometry", "neighbors"},
    "stratify": {"core", "dimension", "neighbors"},
    "fit": {"core", "geometry"},
    "io": {"core", "fit"},
    "metrics": {"core", "fit", "sampler", "stratify"},
    "cli": {"fit", "io", "metrics", "sampler", "stratify"},
    "__init__": LIBRARY - {"cli"},
}


# Modules outside the standard library that each module may import;
# every module may import numpy.  Every import adds to the benchmark's
# setup_s and peak_rss_mb, and those gate every change: importing
# scipy.sparse.csgraph, for one, was measured at +2.3 MB of RSS and
# 13-25 ms.  Widen this only with such a measurement.
THIRD_PARTY = {
    "neighbors": {"scipy.spatial"},
    "sampler": {"scipy.spatial"},
    # its k-d tree, in place of scipy.spatial.distance: either import loads
    # the same 532 modules
    "metrics": {"scipy.spatial"},
}


def relative_imports(path: Path) -> set:
    found = set()
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.ImportFrom) and node.level > 0:
            if node.module is None:
                found.update(alias.name for alias in node.names)
            else:
                found.add(node.module.split(".")[0])
    return found


def test_every_module_has_a_layer():
    assert {p.stem for p in SOURCES.glob("*.py")} == set(ALLOWED)


def test_relative_imports_follow_the_layers():
    for path in sorted(SOURCES.glob("*.py")):
        extra = relative_imports(path) - ALLOWED[path.stem]
        assert not extra, f"{path.name} imports {sorted(extra)}"



def absolute_imports(path: Path) -> set:
    found = set()
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            found.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            found.add(node.module)
    return found


def test_third_party_imports_are_allowlisted():
    for path in sorted(SOURCES.glob("*.py")):
        allowed = {"numpy"} | THIRD_PARTY.get(path.stem, set())
        extra = {name for name in absolute_imports(path) - allowed
                 if name.split(".")[0] not in sys.stdlib_module_names}
        assert not extra, f"{path.name} imports {sorted(extra)}"


def test_no_builtin_sum():
    # the builtin sum of floats adds left to right up to CPython 3.11 and
    # with compensation from 3.12 on, so one seed would give different
    # bits under two Pythons this package supports; np.cumsum(...)[-1]
    # adds left to right everywhere
    for path in sorted(SOURCES.glob("*.py")):
        calls = [node.lineno for node in ast.walk(ast.parse(path.read_text(), str(path)))
                 if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                 and node.func.id == "sum"]
        assert not calls, (f"{path.name} calls the builtin sum on lines {calls}, whose "
                           f"float result depends on the Python version")


def test_stages_take_the_graph_alone():
    # a graph carries its cloud, so a function that took both could be
    # handed a cloud other than the graph's and would not notice
    for name in ("neighbors", "dimension", "stratify"):
        module = importlib.import_module(f"stratograph.{name}")
        for attr, fn in vars(module).items():
            if (attr.startswith("_") or not inspect.isfunction(fn)
                    or fn.__module__ != module.__name__):
                continue
            params = inspect.signature(fn).parameters
            assert not {"cloud", "graph"} <= set(params), (
                f"{name}.{attr} takes both a cloud and a graph")


def test_one_cloud_and_its_epsilon_in():
    # every radius of the pipeline is a fixed multiple of the cloud's
    # epsilon, so neither the library entry nor its command takes another
    from stratograph.cli import _build_parser
    from stratograph.stratify import reconstruct_structure

    assert list(inspect.signature(reconstruct_structure).parameters) == ["cloud"]
    commands = next(a for a in _build_parser()._actions
                    if isinstance(a, argparse._SubParsersAction)).choices
    options = [a.option_strings[0] for a in commands["reconstruct"]._actions]
    assert options == ["-h", "--cloud", "--epsilon", "--out"]


def test_classifier_at_fixed_multiples_of_epsilon():
    # every classifier and vertex-cluster threshold is a fixed multiple of
    # epsilon, so no stage takes one and no parameter object is left
    from stratograph.dimension import classify_all
    from stratograph.stratify import cluster_vertices

    assert list(inspect.signature(classify_all).parameters) == ["graph"]
    assert list(inspect.signature(cluster_vertices).parameters) == ["graph", "labels"]
    assert not hasattr(stratograph, "ClassifierParams")
    assert "dataclasses" not in absolute_imports(SOURCES / "dimension.py")


def test_a_cloud_is_valid_when_it_exists():
    # a PointCloud checks its points and epsilon when it is built, so no
    # second validation path, dimension override or ragged view is left
    from stratograph import PointCloud

    assert list(inspect.signature(PointCloud).parameters) == ["points", "epsilon"]
    assert not hasattr(stratograph, "validate_cloud")
    assert not hasattr(stratograph, "ValidationReport")
    assert not hasattr(PointCloud, "points")


def test_no_setting_only_tests_set():
    # the graph's radius is 3 epsilon, a cloud file's format follows its
    # suffix, every vertex gets a site, the certificate's net is eps/100
    # and the bias report samples at the defaults, so none of them is an
    # argument; and every vertex cluster has a sample, so the fit's
    # position system is positive definite and no vertex is pinned
    from dataclasses import fields

    from stratograph import (FitResult, NeighborhoodGraph, SampleOptions, build_graph,
                             estimate_bias, read_cloud, validate_epsilon_sample,
                             write_cloud)

    assert list(inspect.signature(build_graph).parameters) == ["cloud"]
    assert list(inspect.signature(NeighborhoodGraph).parameters) == ["cloud"]
    assert [f.name for f in fields(SampleOptions)] == ["noise_radius", "spacing", "seed"]
    assert list(inspect.signature(read_cloud).parameters) == ["path", "epsilon"]
    assert list(inspect.signature(write_cloud).parameters) == ["cloud", "path"]
    assert [f.name for f in fields(FitResult)] == [
        "vertex_positions", "thetas", "objective_trace", "iterations", "converged", "edges"]
    assert "lstsq" not in (SOURCES / "fit.py").read_text()
    assert list(inspect.signature(validate_epsilon_sample).parameters) == [
        "cloud", "graph", "epsilon"]
    assert list(inspect.signature(estimate_bias).parameters) == [
        "true_graph", "epsilon", "trials", "seed"]
