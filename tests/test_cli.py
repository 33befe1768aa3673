"""Command-line behavior: outputs, exit codes, and reproducibility."""
import json
import os
import subprocess
import sys

import numpy as np
import pytest

import stratograph
from stratograph import (SampleOptions, sample_graph, write_cloud,
                         write_embedded_graph)
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
