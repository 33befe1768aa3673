"""Command-line behavior: outputs, exit codes, and reproducibility."""
import gc
import json
import os
import subprocess
import sys

import numpy as np
import pytest

import stratograph
from stratograph import (SampleOptions, sample_graph, write_cloud,
                         write_embedded_graph)
from stratograph import cli
from stratograph.cli import main
from conftest import EPS


@pytest.fixture
def graph_file(tmp_path, truth_2d):
    path = str(tmp_path / "truth.json")
    write_embedded_graph(truth_2d, path)
    return path


@pytest.fixture
def segment_file(tmp_path):
    path = str(tmp_path / "segment.json")
    path_obj = tmp_path / "segment.json"
    path_obj.write_text(json.dumps(
        {"vertices": [[0.0, 0.0], [4.0, 0.0]], "edges": [[0, 1]]}))
    return path


def run(args):
    return main([str(a) for a in args])


def test_generate_prints_certificate(tmp_path, graph_file, capsys):
    out = tmp_path / "cloud.json"
    code = run(["generate", "--graph", graph_file, "--epsilon", EPS,
                "--seed", 1, "--out", out])
    captured = capsys.readouterr()
    assert code == 0
    assert out.exists()
    assert "d_H ≤ 0.1: ok" in captured.out


def test_generate_invalid_noise_exits_1(tmp_path, graph_file, capsys):
    code = run(["generate", "--graph", graph_file, "--epsilon", EPS,
                "--noise", EPS, "--out", tmp_path / "c.json"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err.startswith("error:")
    assert "noise_radius must be < epsilon" in captured.err


def test_generate_missing_graph_exits_2(tmp_path, capsys):
    code = run(["generate", "--graph", tmp_path / "absent.json",
                "--epsilon", EPS, "--out", tmp_path / "c.json"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith("error:")


def test_reconstruct_five_vertex_counts(tmp_path, graph_file, capsys):
    cloud = tmp_path / "cloud.json"
    run(["generate", "--graph", graph_file, "--epsilon", EPS,
         "--seed", 1, "--out", cloud])
    code = run(["reconstruct", "--cloud", cloud, "--epsilon", EPS,
                "--out", tmp_path / "strat.json"])
    captured = capsys.readouterr()
    assert code == 0
    assert "5 vertices, 4 edges" in captured.out


def test_reconstruct_segment_counts(tmp_path, segment_file, capsys):
    cloud = tmp_path / "cloud.json"
    run(["generate", "--graph", segment_file, "--epsilon", EPS,
         "--seed", 0, "--out", cloud])
    code = run(["reconstruct", "--cloud", cloud, "--epsilon", EPS,
                "--out", tmp_path / "strat.json"])
    captured = capsys.readouterr()
    assert code == 0
    assert "2 vertices, 1 edge" in captured.out
    assert "1 edges" not in captured.out


def test_reconstruct_huge_vertex_threshold_exits_3(tmp_path, truth_3d, capsys):
    # 100 = 1000 eps merges every vertex into one cluster: incidence fails
    graph = tmp_path / "truth3d.json"
    write_embedded_graph(truth_3d, str(graph))
    cloud = tmp_path / "cloud.json"
    assert run(["generate", "--graph", graph, "--epsilon", EPS,
                "--seed", 1, "--out", cloud]) == 0
    capsys.readouterr()
    out = tmp_path / "strat.json"
    code = run(["reconstruct", "--cloud", cloud, "--epsilon", EPS,
                "--vertex-threshold", 100, "--out", out])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.err.startswith("error:")
    assert len(captured.err.strip().splitlines()) == 1
    assert not out.exists()


def test_reconstruct_bad_geometry_never_crashes(tmp_path, truth_2d, capsys):
    # two segments meeting at 10 degrees: assumptions violated, contract is
    # exit 3 or a wrong-but-clean result
    ang = np.deg2rad(10.0)
    pts = [(-np.cos(ang) * t, np.sin(ang) * t) for t in np.arange(0, 3, EPS)]
    pts += [(t, 0.0) for t in np.arange(0, 3, EPS)]
    path = tmp_path / "sharp.csv"
    path.write_text("".join(f"{x},{y}\n" for x, y in pts))
    code = run(["reconstruct", "--cloud", path, "--epsilon", EPS,
                "--out", tmp_path / "strat.json"])
    capsys.readouterr()
    assert code in (0, 3)


def test_fit_stage_and_report(tmp_path, graph_file, capsys):
    cloud = tmp_path / "cloud.json"
    strat = tmp_path / "strat.json"
    fitted = tmp_path / "fit.json"
    report = tmp_path / "eval.json"
    run(["generate", "--graph", graph_file, "--epsilon", EPS, "--seed", 2,
         "--out", cloud])
    run(["reconstruct", "--cloud", cloud, "--epsilon", EPS, "--out", strat])
    code = run(["fit", "--cloud", cloud, "--stratification", strat,
                "--out", fitted])
    assert code == 0
    code = run(["evaluate", "--fitted", fitted, "--truth", graph_file,
                "--cloud", cloud, "--out", report])
    captured = capsys.readouterr()
    assert code == 0
    data = json.loads(report.read_text())
    assert data["isomorphic"] is True
    assert data["max_vertex_error"] <= 5 * EPS
    assert data["hausdorff_sample_to_model"] is not None
    assert "isomorphic true" in captured.out


def test_evaluate_non_isomorphic_is_not_an_error(tmp_path, graph_file,
                                                 segment_file, capsys):
    report = tmp_path / "eval.json"
    code = run(["evaluate", "--fitted", segment_file, "--truth", graph_file,
                "--out", report])
    captured = capsys.readouterr()
    assert code == 0
    data = json.loads(report.read_text())
    assert data["isomorphic"] is False
    assert data["max_vertex_error"] is None
    assert "isomorphic false" in captured.out


def test_fit_mismatched_stratification_exits_1(tmp_path, graph_file,
                                               segment_file, capsys):
    cloud_a = tmp_path / "a.json"
    cloud_b = tmp_path / "b.json"
    strat_b = tmp_path / "sb.json"
    run(["generate", "--graph", graph_file, "--epsilon", EPS, "--seed", 1,
         "--out", cloud_a])
    run(["generate", "--graph", segment_file, "--epsilon", EPS, "--seed", 1,
         "--out", cloud_b])
    run(["reconstruct", "--cloud", cloud_b, "--epsilon", EPS, "--out", strat_b])
    code = run(["fit", "--cloud", cloud_a, "--stratification", strat_b,
                "--out", tmp_path / "f.json"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err.startswith("error:")


def test_emit_plot_row_counts(tmp_path, graph_file, capsys):
    cloud = tmp_path / "cloud.json"
    strat = tmp_path / "strat.json"
    fitted = tmp_path / "fit.json"
    plot = tmp_path / "plot.csv"
    run(["generate", "--graph", graph_file, "--epsilon", EPS, "--seed", 3,
         "--out", cloud])
    run(["reconstruct", "--cloud", cloud, "--epsilon", EPS, "--out", strat])
    run(["fit", "--cloud", cloud, "--stratification", strat, "--out", fitted])
    code = run(["emit-plot", "--cloud", cloud, "--stratification", strat,
                "--fitted", fitted, "--out", plot])
    capsys.readouterr()
    assert code == 0
    lines = plot.read_text().strip().split("\n")
    n_samples = len(json.loads(cloud.read_text())["points"])
    assert lines[0].startswith("kind,cluster,dim,")
    sample_rows = [l for l in lines[1:] if l.startswith("sample,")]
    vertex_rows = [l for l in lines[1:] if l.startswith("vertex,")]
    assert len(sample_rows) == n_samples
    assert len(vertex_rows) == 5
    assert len(lines) == 1 + n_samples + 5


@pytest.mark.parametrize("clusters", [[[0], [1]], [[0], [1, 2, 3]]],
                         ids=["fewer", "more"])
def test_emit_plot_stratification_not_covering_cloud_exits_1(tmp_path, capsys,
                                                             clusters):
    cloud = tmp_path / "cloud.json"
    cloud.write_text(json.dumps({"epsilon": EPS,
                                 "points": [[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]]}))
    strat = tmp_path / "strat.json"
    labels = [0] * sum(map(len, clusters))
    strat.write_text(json.dumps({"labels": labels, "vertex_clusters": clusters,
                                 "edge_clusters": [], "incidence": []}))
    plot = tmp_path / "plot.csv"
    code = run(["emit-plot", "--cloud", cloud, "--stratification", strat,
                "--out", plot])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err == (f"error: stratification does not match the cloud: "
                            f"the stratification covers {len(labels)} points, "
                            f"the cloud has 3\n")
    assert not plot.exists()


GOOD_CLOUD = {"epsilon": EPS, "points": [[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]]}
GOOD_FIT = {"vertices": [[0.0, 0.0], [4.0, 0.0]], "thetas": [0.5],
            "objective": [1.0], "iterations": 1, "converged": True,
            "pinned": [], "edges": [[0, 1]]}
GOOD_STRAT = {"labels": [0, 1, 0], "vertex_clusters": [[0], [2]],
              "edge_clusters": [[1]], "incidence": [[0, 1]]}


@pytest.mark.parametrize("name, content, position", [
    ("cloud.json", {**GOOD_CLOUD, "points": [1, 2]}, "'points[0]'"),
    ("cloud.json", {**GOOD_CLOUD, "points": 5}, "'points'"),
    ("cloud.json", {**GOOD_CLOUD, "points": [[0.0, 0.0], ["a", 1]]}, "'points[1]'"),
    ("cloud.json", {**GOOD_CLOUD, "epsilon": "abc"}, "'epsilon'"),
    ("cloud.json", {**GOOD_CLOUD, "epsilon": None}, "'epsilon'"),
    ("cloud.json", [1, 2], "expected a JSON object"),
    ("cloud.csv.meta.json", {"epsilon": "abc"}, "'epsilon'"),
    ("graph.json", {"vertices": 5, "edges": []}, "'vertices'"),
    ("graph.json", {"vertices": [[0.0, 0.0], [1.0, None]], "edges": []},
     "'vertices[1]'"),
    ("fit.json", {**GOOD_FIT, "thetas": 5}, "'thetas'"),
    ("fit.json", {**GOOD_FIT, "objective": ["x"]}, "'objective'"),
    ("fit.json", {**GOOD_FIT, "iterations": "many"}, "'iterations'"),
    ("fit.json", {**GOOD_FIT, "edges": [[0]]}, "'edges'"),
    ("fit.json", {**GOOD_FIT, "pinned": None}, "'pinned'"),
    ("fit.json", 5, "expected a JSON object"),
    ("strat.json", {**GOOD_STRAT, "labels": 5}, "'labels'"),
], ids=lambda v: v if isinstance(v, str) else None)
def test_malformed_json_values_exit_2(tmp_path, capsys, segment_file, name,
                                     content, position):
    files = {"cloud.json": GOOD_CLOUD, "fit.json": GOOD_FIT,
             "strat.json": GOOD_STRAT, name: content}
    for file, data in files.items():
        (tmp_path / file).write_text(json.dumps(data))
    (tmp_path / "cloud.csv").write_text("0,0\n1,0\n")
    graph = tmp_path / "graph.json" if name == "graph.json" else segment_file
    command = {
        "cloud.json": ["emit-plot", "--cloud", tmp_path / "cloud.json",
                       "--stratification", tmp_path / "strat.json"],
        "cloud.csv.meta.json": ["emit-plot", "--cloud", tmp_path / "cloud.csv",
                                "--stratification", tmp_path / "strat.json"],
        "graph.json": ["generate", "--graph", graph, "--epsilon", EPS],
        "fit.json": ["evaluate", "--fitted", tmp_path / "fit.json",
                     "--truth", segment_file],
        "strat.json": ["fit", "--cloud", tmp_path / "cloud.json",
                       "--stratification", tmp_path / "strat.json"],
    }[name]
    code = run(command + ["--out", tmp_path / "out.json"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith(f"error: {tmp_path / name}: {position}")
    assert len(captured.err.splitlines()) == 1
    assert not (tmp_path / "out.json").exists()


GOOD_GRAPH = {"vertices": [[0.0, 0.0], [4.0, 0.0]], "edges": [[0, 1]]}


@pytest.mark.parametrize("command", ["evaluate", "emit-plot"])
@pytest.mark.parametrize("content, problem", [
    (GOOD_FIT, None),
    (GOOD_GRAPH, None),
    ({k: v for k, v in GOOD_FIT.items() if k != "converged"},
     "missing key 'converged'"),
    ({"vertices": GOOD_GRAPH["vertices"]}, "missing key 'edges'"),
    ({**GOOD_FIT, "thetas": 5}, "'thetas'"),
    ("{", "invalid JSON"),
], ids=["fit", "graph", "fit-missing-key", "graph-missing-key", "fit-bad-value",
        "not-json"])
def test_fitted_reads_fit_or_graph_file(tmp_path, capsys, segment_file, command,
                                        content, problem):
    fitted = tmp_path / "fitted.json"
    fitted.write_text(content if isinstance(content, str) else json.dumps(content))
    (tmp_path / "cloud.json").write_text(json.dumps(GOOD_CLOUD))
    (tmp_path / "strat.json").write_text(json.dumps(GOOD_STRAT))
    out = tmp_path / "out"
    args = {"evaluate": ["--truth", segment_file],
            "emit-plot": ["--cloud", tmp_path / "cloud.json",
                          "--stratification", tmp_path / "strat.json"]}[command]
    code = run([command, "--fitted", fitted, *args, "--out", out])
    captured = capsys.readouterr()
    if problem is None:
        assert code == 0 and captured.err == ""
        if command == "emit-plot":
            vertex_rows = [l for l in out.read_text().splitlines()
                           if l.startswith("vertex,")]
            assert len(vertex_rows) == 2
        else:
            assert json.loads(out.read_text())["isomorphic"] is True
    else:
        assert code == 2
        assert captured.err.startswith(f"error: {fitted}: {problem}")
        assert len(captured.err.splitlines()) == 1
        assert not out.exists()


def test_emit_plot_requires_some_labeling(tmp_path, graph_file, capsys):
    cloud = tmp_path / "cloud.json"
    run(["generate", "--graph", graph_file, "--epsilon", EPS, "--out", cloud])
    code = run(["emit-plot", "--cloud", cloud, "--out", tmp_path / "p.csv"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err.startswith("error:")


def test_pipeline_manifest_and_determinism(tmp_path, graph_file, capsys):
    out_a = tmp_path / "run_a"
    out_b = tmp_path / "run_b"
    for out in (out_a, out_b):
        code = run(["pipeline", "--graph", graph_file, "--epsilon", EPS,
                    "--seed", 1, "--out-dir", out])
        assert code == 0
    capsys.readouterr()
    manifest = json.loads((out_a / "manifest.json").read_text())
    names = [a["name"] for a in manifest["artifacts"]]
    assert names == ["cloud.json", "stratification.json", "fit.json",
                     "evaluation.json", "plot.csv"]
    assert manifest["seed"] == 1 and manifest["epsilon"] == EPS
    evaluation = json.loads((out_a / "evaluation.json").read_text())
    assert evaluation["isomorphic"] is True
    for name in names + ["manifest.json"]:
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes()


def test_pipeline_prints_the_stage_lines(tmp_path, graph_file, capsys):
    out = tmp_path / "run"
    assert run(["pipeline", "--graph", graph_file, "--epsilon", EPS,
                "--seed", 1, "--out-dir", out]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split(":")[0].split(" (")[0] for line in lines] == [
        f"wrote {out / name}" for name in
        ("cloud.json", "stratification.json", "fit.json", "evaluation.json",
         "plot.csv", "manifest.json")]
    assert lines[0].endswith("d_H ≤ 0.1: ok")
    assert "isomorphic true, max vertex error " in lines[3]


def test_uncertified_sample_stops_generate_and_pipeline(tmp_path, segment_file,
                                                        capsys):
    # noiseless sites 2 eps apart leave each midpoint exactly eps from the
    # cloud, and the certificate's estimate lies above eps
    options = ["--epsilon", EPS, "--noise", 0, "--spacing", 0.2]
    cloud = tmp_path / "cloud.json"
    assert run(["generate", "--graph", segment_file, *options,
                "--out", cloud]) == 3
    generated = capsys.readouterr()
    out = tmp_path / "run"
    assert run(["pipeline", "--graph", segment_file, *options,
                "--out-dir", out]) == 3
    piped = capsys.readouterr()
    assert generated.err.startswith(
        "error: generated sample failed certification (d_H estimate ")
    assert len(generated.err.splitlines()) == 1
    assert piped.err == generated.err
    assert piped.out == generated.out == ""
    assert sorted(os.listdir(out)) == ["cloud.json"]
    assert (out / "cloud.json").read_bytes() == cloud.read_bytes()


def test_failed_reconstruction_same_error_in_reconstruct_and_pipeline(tmp_path,
                                                                      capsys):
    # a 20-eps segment: too short for two vertex clusters
    graph = tmp_path / "short.json"
    graph.write_text(json.dumps({"vertices": [[0.0, 0.0], [2.0, 0.0]],
                                 "edges": [[0, 1]]}))
    cloud = tmp_path / "cloud.json"
    assert run(["generate", "--graph", graph, "--epsilon", EPS, "--seed", 1,
                "--out", cloud]) == 0
    capsys.readouterr()
    assert run(["reconstruct", "--cloud", cloud, "--epsilon", EPS,
                "--out", tmp_path / "strat.json"]) == 3
    reconstructed = capsys.readouterr()
    out = tmp_path / "run"
    assert run(["pipeline", "--graph", graph, "--epsilon", EPS, "--seed", 1,
                "--out-dir", out]) == 3
    piped = capsys.readouterr()
    assert reconstructed.err.startswith("error: reconstruction failed: ")
    assert len(reconstructed.err.splitlines()) == 1
    assert piped.err == reconstructed.err
    assert sorted(os.listdir(out)) == ["cloud.json"]


@pytest.mark.parametrize("points", [[[], []], [[]]], ids=["two", "one"])
def test_zero_coordinate_cloud_exits_1(tmp_path, capsys, points):
    cloud = tmp_path / "cloud.json"
    cloud.write_text(json.dumps({"epsilon": EPS, "points": points}))
    out = tmp_path / "strat.json"
    code = run(["reconstruct", "--cloud", cloud, "--epsilon", EPS, "--out", out])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err.startswith(
        "error: invalid point cloud: points need at least one coordinate")
    assert len(captured.err.splitlines()) == 1
    assert not out.exists()


def test_console_script_entry_point(tmp_path, graph_file):
    out = tmp_path / "cloud.json"
    # the child imports stratograph from wherever this process found it
    src = os.path.dirname(os.path.dirname(os.path.abspath(stratograph.__file__)))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "stratograph.cli", "generate", "--graph",
         graph_file, "--epsilon", str(EPS), "--seed", "1", "--out", str(out)],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path})
    assert proc.returncode == 0
    assert out.exists()


def test_unknown_subcommand_exits_1(capsys):
    assert run(["frobnicate"]) == 1
    capsys.readouterr()


def test_repeated_main_leaves_less_garbage_than_one_parser(tmp_path,
                                                          segment_file, capsys):
    # a parser is a reference cycle that only the cyclic collector frees;
    # building one per call made the peak RSS of a process that calls main
    # in a loop grow with the number of calls
    argv = ["generate", "--graph", segment_file, "--epsilon", EPS,
            "--seed", 1, "--out", tmp_path / "cloud.json"]
    assert run(argv) == 0
    gc.collect()
    gc.disable()
    try:
        cli._build_parser.__wrapped__()
        one_parser = gc.collect()
        for _ in range(5):
            assert run(argv) == 0
        five_calls = gc.collect()
    finally:
        gc.enable()
    capsys.readouterr()
    assert five_calls < one_parser


BAD_SCALES = ["0", "-1", "nan", "inf"]


@pytest.mark.parametrize("value", BAD_SCALES)
def test_reconstruct_bad_vertex_threshold_exits_1(tmp_path, graph_file, capsys,
                                                 value):
    cloud = tmp_path / "cloud.json"
    assert run(["generate", "--graph", graph_file, "--epsilon", EPS,
                "--seed", 1, "--out", cloud]) == 0
    out = tmp_path / "strat.json"
    code = run(["reconstruct", "--cloud", cloud, "--epsilon", EPS,
                "--vertex-threshold", value, "--out", out])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err.startswith("error: --vertex-threshold must be a finite")
    assert not out.exists()


@pytest.mark.parametrize("value", BAD_SCALES)
@pytest.mark.parametrize("command", [
    ["generate", "--graph", "g.json", "--out", "c.json"],
    ["reconstruct", "--cloud", "c.json", "--out", "s.json"],
    ["fit", "--cloud", "c.json", "--stratification", "s.json", "--out", "f.json"],
    ["evaluate", "--fitted", "f.json", "--truth", "g.json", "--cloud", "c.json",
     "--out", "r.json"],
    ["pipeline", "--graph", "g.json", "--out-dir", "run"],
    ["emit-plot", "--cloud", "c.json", "--stratification", "s.json",
     "--out", "p.csv"],
], ids=lambda command: command[0])
def test_bad_epsilon_exits_1_before_any_stage(tmp_path, capsys, command, value):
    # no input file exists, so any stage that ran would exit 2
    args = [str(tmp_path / a) if a.endswith((".json", ".csv")) or a == "run"
            else a for a in command]
    code = run(args + ["--epsilon", value])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err.startswith("error: --epsilon must be a finite number > 0")
    assert list(tmp_path.iterdir()) == []
