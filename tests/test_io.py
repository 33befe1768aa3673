"""Serialization round-trips and format errors."""
import json
import re

import numpy as np
import pytest

from stratograph import (AbstractGraph, EmbeddedGraph, FitProblem, FormatError,
                         PointCloud, SampleOptions, Stratification, fit,
                         read_cloud, read_embedded_graph, read_fit_result,
                         read_stratification, reconstruct_structure,
                         sample_graph, write_cloud, write_embedded_graph,
                         write_fit_result, write_report, write_stratification)
from stratograph.io import read_fitted
from conftest import EPS


@pytest.fixture
def cloud():
    rng = np.random.default_rng(0)
    return PointCloud(rng.normal(0.0, 1.3, (40, 3)), EPS)


def test_cloud_json_roundtrip_exact(tmp_path, cloud):
    path = str(tmp_path / "cloud.json")
    write_cloud(cloud, path)
    back = read_cloud(path)
    assert back.epsilon == cloud.epsilon
    assert np.array_equal(back.array, cloud.array)


def test_cloud_csv_roundtrip_exact(tmp_path, cloud):
    path = str(tmp_path / "cloud.csv")
    write_cloud(cloud, path)
    assert (tmp_path / "cloud.csv.meta.json").exists()
    back = read_cloud(path)
    assert back.epsilon == cloud.epsilon
    assert np.array_equal(back.array, cloud.array)


def test_cloud_csv_explicit_epsilon_wins(tmp_path, cloud):
    path = str(tmp_path / "cloud.csv")
    write_cloud(cloud, path)
    back = read_cloud(path, epsilon=0.25)
    assert back.epsilon == 0.25


def test_cloud_csv_minimal_two_points(tmp_path):
    path = tmp_path / "two.csv"
    path.write_text("0,0\n1,0\n")
    back = read_cloud(str(path), epsilon=0.1)
    assert np.array_equal(back.array, [[0.0, 0.0], [1.0, 0.0]])
    assert back.epsilon == 0.1


def test_cloud_csv_ragged_row_names_line(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("0,0\n1\n")
    with pytest.raises(FormatError, match="row 2"):
        read_cloud(str(path), epsilon=0.1)


def test_cloud_csv_non_numeric_names_line(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("0,0\n1,oops\n")
    with pytest.raises(FormatError, match="row 2"):
        read_cloud(str(path), epsilon=0.1)


@pytest.mark.parametrize("field, value", [
    ("-1.5e+3", -1500.0),
    (" +.5 ", 0.5),
    ("1.", 1.0),
    ("5e-324", 5e-324),
    ("1e-400", 0.0),
    ("-0.0", -0.0),
    # the spellings repr gives non-finite floats read as such (nan as
    # None), and the cloud built from them refuses them
    ("nan", None),
    ("inf", float("inf")),
    ("-inf", -float("inf")),
    # anything else float() would take is no CSV number
    ("1_0", FormatError),
    ("\u0661", FormatError),
    ("0x10", FormatError),
    ("Infinity", FormatError),
    ("NaN", FormatError),
    ("+inf", FormatError),
    ("1 0", FormatError),
    ("", FormatError),
    ("1e", FormatError),
    # finite literals beyond a float's range
    ("1e400", FormatError),
    ("-1e400", FormatError),
    pytest.param("9" * 401, FormatError, id="401-digits"),
])
def test_cloud_csv_fields_are_decimal_numbers(tmp_path, field, value):
    path = tmp_path / "c.csv"
    path.write_text(f"0,0\n1,{field}\n", encoding="utf-8")
    if value is FormatError:
        with pytest.raises(FormatError, match=f"^{re.escape(str(path))}: row 2: "):
            read_cloud(str(path), epsilon=0.1)
        return
    if value is None or np.isinf(value):
        with pytest.raises(ValueError) as exc:
            read_cloud(str(path), epsilon=0.1)
        assert not isinstance(exc.value, FormatError)
        assert str(exc.value) == "invalid point cloud: non-finite coordinate at index 1"
        return
    got = read_cloud(str(path), epsilon=0.1).array[1, 1]
    assert got == value and np.signbit(got) == np.signbit(value)


def test_cloud_csv_without_epsilon_rejected(tmp_path):
    path = tmp_path / "naked.csv"
    path.write_text("0,0\n1,0\n")
    with pytest.raises(FormatError, match="epsilon"):
        read_cloud(str(path))


def test_cloud_json_missing_keys(tmp_path):
    path = tmp_path / "c.json"
    path.write_text(json.dumps({"points": [[0.0, 0.0]]}))
    with pytest.raises(FormatError, match="epsilon"):
        read_cloud(str(path))


def test_invalid_json_is_format_error(tmp_path):
    path = tmp_path / "c.json"
    path.write_text("{not json")
    with pytest.raises(FormatError):
        read_cloud(str(path))


def test_embedded_graph_roundtrip(tmp_path, truth_2d):
    path = str(tmp_path / "graph.json")
    write_embedded_graph(truth_2d, path)
    back = read_embedded_graph(path)
    assert back.graph.edges == truth_2d.graph.edges
    assert np.array_equal(back.vertex_positions, truth_2d.vertex_positions)


def test_embedded_graph_bad_edge_is_format_error(tmp_path):
    path = tmp_path / "graph.json"
    path.write_text(json.dumps({"vertices": [[0.0, 0.0], [1.0, 0.0]],
                                "edges": [[0, 5]]}))
    with pytest.raises(FormatError):
        read_embedded_graph(str(path))


def test_stratification_roundtrip(tmp_path, truth_2d):
    cloud = sample_graph(truth_2d, EPS, SampleOptions(seed=3))
    strat = reconstruct_structure(cloud)
    path = str(tmp_path / "strat.json")
    write_stratification(strat, path)
    back = read_stratification(path)
    assert back.vertex_clusters == strat.vertex_clusters
    assert back.edge_clusters == strat.edge_clusters
    assert back.incidence == strat.incidence


def test_stratification_label_consistency_enforced(tmp_path):
    strat = Stratification([[0], [2]], [[1]], [(0, 1)], n_points=3)
    path = tmp_path / "strat.json"
    write_stratification(strat, str(path))
    data = json.loads(path.read_text())
    data["labels"][0] = 1 - data["labels"][0]
    path.write_text(json.dumps(data))
    with pytest.raises(FormatError, match="labels"):
        read_stratification(str(path))


FIT = {"vertices": [[0.0, 0.0], [4.0, 0.0]], "thetas": [0.5], "objective": [1.0],
       "iterations": 3, "converged": False, "pinned": [0], "edges": [[0, 1]]}
STRAT = {"labels": [0, 1, 0], "vertex_clusters": [[0], [2]],
         "edge_clusters": [[1]], "incidence": [[0, 1]]}
GRAPH = {"vertices": [[0.0, 0.0], [4.0, 0.0]], "edges": [[0, 1]]}
CLOUD = {"epsilon": 0.1, "points": [[0.0, 0.0], [1.0, 0.0]]}
READERS = {"fit": (read_fit_result, FIT), "strat": (read_stratification, STRAT),
           "graph": (read_embedded_graph, GRAPH), "cloud": (read_cloud, CLOUD)}


@pytest.mark.parametrize("kind, key, value", [
    ("fit", "converged", "false"),
    ("fit", "converged", 1.5),
    ("fit", "converged", 0),
    ("fit", "converged", None),
    ("fit", "iterations", 3.7),
    ("fit", "iterations", 3.0),
    ("fit", "iterations", True),
    ("fit", "iterations", "3"),
    ("fit", "pinned", [0.0]),
    ("fit", "pinned", [False]),
    ("fit", "edges", [[0, 1.0]]),
    ("fit", "edges", [["0", 1]]),
    ("strat", "vertex_clusters", [[0.9], [1.2]]),
    ("strat", "vertex_clusters", [[0], [True]]),
    ("strat", "edge_clusters", [["1"]]),
    ("strat", "incidence", [[0, 1.0]]),
    ("strat", "incidence", [[False, 1]]),
    ("strat", "labels", [0, 1.0, 0]),
    ("strat", "labels", [False, True, False]),
    ("graph", "edges", [[0.0, 1]]),
    ("graph", "edges", [[0, True]]),
    ("graph", "edges", [[0, 1, 7]]),
    ("graph", "edges", [[0]]),
    ("cloud", "epsilon", "0.1"),
    ("cloud", "epsilon", True),
    pytest.param("cloud", "epsilon", 10 ** 400, id="cloud-epsilon-10**400"),
    ("fit", "thetas", ["0.5"]),
    ("fit", "thetas", [True]),
    ("fit", "objective", [10 ** 400]),
])
def test_wrongly_typed_values_are_format_errors(tmp_path, kind, key, value):
    # indices and counts must be JSON integers, flags JSON booleans, and
    # reals JSON numbers that fit a float; nothing is coerced
    read, good = READERS[kind]
    path = tmp_path / f"{kind}.json"
    path.write_text(json.dumps(good))
    read(str(path))
    path.write_text(json.dumps({**good, key: value}))
    with pytest.raises(FormatError, match=f"^{re.escape(str(path))}: '{key}'"):
        read(str(path))


def test_fit_result_roundtrip(tmp_path, truth_2d):
    cloud = sample_graph(truth_2d, EPS, SampleOptions(seed=4))
    strat = reconstruct_structure(cloud)
    res = fit(FitProblem(cloud, strat))
    path = str(tmp_path / "fit.json")
    write_fit_result(res, path)
    back = read_fit_result(path)
    assert np.array_equal(back.vertex_positions, res.vertex_positions)
    assert np.array_equal(back.thetas, res.thetas)
    assert back.objective_trace == res.objective_trace
    assert back.iterations == res.iterations
    assert back.converged == res.converged
    assert back.edges == res.edges


def test_json_output_is_deterministic(tmp_path, cloud):
    a = str(tmp_path / "a.json")
    b = str(tmp_path / "b.json")
    write_cloud(cloud, a)
    write_cloud(cloud, b)
    with open(a, "rb") as fa, open(b, "rb") as fb:
        assert fa.read() == fb.read()
    with open(a) as fa:
        assert fa.read().endswith("\n")


def test_write_report(tmp_path):
    path = str(tmp_path / "report.json")
    write_report({"isomorphic": True, "max_vertex_error": 0.01}, path)
    with open(path) as fh:
        data = json.loads(fh.read())
    assert data == {"isomorphic": True, "max_vertex_error": 0.01}


def test_read_fitted_parses_the_file_once(tmp_path, truth_2d, monkeypatch):
    # read_fitted decides between the two formats on the parsed object
    # and builds from it, so each file is parsed exactly once
    graph_path = str(tmp_path / "graph.json")
    write_embedded_graph(truth_2d, graph_path)
    cloud = sample_graph(truth_2d, EPS, SampleOptions(seed=4))
    res = fit(FitProblem(cloud, reconstruct_structure(cloud)))
    fit_path = str(tmp_path / "fit.json")
    write_fit_result(res, fit_path)
    parsed = []
    load = json.load
    monkeypatch.setattr(json, "load", lambda fh: parsed.append(fh.name) or load(fh))
    from_graph = read_fitted(graph_path)
    from_fit = read_fitted(fit_path)
    assert parsed == [graph_path, fit_path]
    assert from_graph.graph.edges == truth_2d.graph.edges
    assert np.array_equal(from_graph.vertex_positions, truth_2d.vertex_positions)
    assert from_fit.graph.edges == res.embedded_graph().graph.edges
    assert np.array_equal(from_fit.vertex_positions, res.vertex_positions)
