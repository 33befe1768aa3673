"""Reading and writing the file formats used by the pipeline.

Formats:
  point cloud CSV, for a path ending in ".csv" (any case): one point per
      line, comma-separated coordinates, no header; epsilon travels
      out-of-band (keyword argument or a JSON sidecar "<path>.meta.json"
      written alongside).
  point cloud JSON, for any other path: {"epsilon": e, "points": [[...], ...]}
  embedded graph JSON: {"vertices": [[...], ...], "edges": [[i, j], ...]}
  stratification JSON: {"labels": [...], "vertex_clusters": [[...]],
      "edge_clusters": [[...]], "incidence": [[j1, j2], ...]}
  fit result JSON: {"vertices": ..., "thetas": ..., "objective": ...,
      "iterations": ..., "converged": ..., "edges": ...}

JSON writes are deterministic (sorted keys, repr-precision floats), so
identical values produce identical bytes and round-trip exactly.  Reads
take indices, counts and flags only as JSON integers and booleans, and
reals (coordinates, epsilon, thetas, objective) only as JSON numbers, not
strings or booleans; an integer too large for a float is a format error.
Reads skip keys they do not use, such as the "pinned" of older fit files.
A CSV field must be an ASCII decimal literal that fits a float (spaces
around it allowed), or ``nan``, ``inf`` or ``-inf`` as ``repr`` writes
them; those read as such, and the ``PointCloud`` built from them then
refuses them with its own ValueError, not a FormatError.
"""
from __future__ import annotations

import json
import os
import re

import numpy as np

from .core import AbstractGraph, EmbeddedGraph, PointCloud, Stratification
from .fit import FitResult


class FormatError(ValueError):
    """Malformed input file; the message names the file and position."""


def _ensure_parent(path: str):
    parent = os.path.dirname(os.path.abspath(path))
    os.makedirs(parent, exist_ok=True)


def _dump_json(obj, path: str):
    _ensure_parent(path)
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _load_json(path: str, *keys) -> dict:
    """The JSON object in ``path``, which must hold every key in ``keys``."""
    with open(path) as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise FormatError(f"{path}: invalid JSON ({exc})") from exc
    if not isinstance(data, dict):
        raise FormatError(f"{path}: expected a JSON object, got {type(data).__name__}")
    _require(data, path, *keys)
    return data


def _require(data: dict, path: str, *keys):
    """A FormatError naming the first of ``keys`` missing from ``data``."""
    for key in keys:
        if key not in data:
            raise FormatError(f"{path}: missing key {key!r}")


def _convert(path: str, key: str, value, convert):
    """``convert(value)``, or a FormatError naming the file and the key."""
    try:
        return convert(value)
    except (TypeError, ValueError, OverflowError) as exc:
        raise FormatError(f"{path}: {key!r}: {exc}") from exc


def _listed(value) -> list:
    """``value`` itself if it is a JSON array; a string or number is no list."""
    if not isinstance(value, list):
        raise TypeError(f"expected a list, got {type(value).__name__}")
    return value


def _strict(kind):
    """A converter passing only JSON values of exactly ``kind``: a bool is no int."""
    def check(value):
        if type(value) is not kind:
            raise TypeError(f"expected {kind.__name__}, got {value!r}")
        return value
    return check


_index, _flag = _strict(int), _strict(bool)


def _real(value) -> float:
    """A JSON number as a float; a bool is no number, nor is a string."""
    if type(value) not in (int, float):
        raise TypeError(f"expected a number, got {value!r}")
    return float(value)


_DECIMAL = re.compile(r"[+-]?(?:[0-9]+\.?[0-9]*|\.[0-9]+)(?:[eE][+-]?[0-9]+)?|-?inf|nan")


def _csv_real(field: str) -> float:
    """A CSV field that fully matches ``_DECIMAL``, as a float; only the
    spellings ``inf`` and ``-inf`` may read as infinite."""
    field = field.strip()
    if not _DECIMAL.fullmatch(field):
        raise ValueError(f"not a decimal number: {field!r}")
    value = float(field)
    if np.isinf(value) and not field.endswith("inf"):
        raise ValueError(f"{field!r} overflows a float")
    return value


def _numbers(path: str, key: str, value, kind=_real) -> list:
    """``kind`` of each entry of the JSON array ``value``."""
    return _convert(path, key, value, lambda v: [kind(x) for x in _listed(v)])


def _index_lists(path: str, key: str, value) -> list:
    """The JSON array ``value`` of arrays of integers, such as index pairs."""
    return _convert(path, key, value,
                    lambda v: [[_index(x) for x in _listed(row)] for row in _listed(v)])


def _index_pairs(path: str, key: str, value) -> list:
    """The JSON array ``value`` of pairs of integers; a longer row is no pair."""
    return _convert(path, key, value,
                    lambda v: [(_index(a), _index(b)) for a, b in _listed(v)])


def _sidecar(path: str) -> str:
    return path + ".meta.json"


def _is_csv(path: str) -> bool:
    return path.lower().endswith(".csv")


def read_cloud(path: str, epsilon: float | None = None) -> PointCloud:
    """Load a point cloud: CSV when the path ends in ``.csv``, else JSON.

    For CSV, epsilon comes from the keyword or from the sidecar written by
    write_cloud; an explicit keyword always wins, also over JSON content.
    """
    if not _is_csv(path):
        data = _load_json(path, "epsilon", "points")
        points = _parse_points(data["points"], path, "points")
        if epsilon is None:
            epsilon = _convert(path, "epsilon", data["epsilon"], _real)
        return PointCloud(points, float(epsilon))

    if epsilon is None and os.path.exists(_sidecar(path)):
        meta = _load_json(_sidecar(path))
        epsilon = meta.get("epsilon")
        if epsilon is not None:
            epsilon = _convert(_sidecar(path), "epsilon", epsilon, _real)
    if epsilon is None:
        raise FormatError(f"{path}: CSV clouds need epsilon via keyword, "
                          f"flag, or sidecar {_sidecar(path)!r}")
    points = []
    width = None
    with open(path) as fh:
        for row, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            fields = line.split(",")
            if width is None:
                width = len(fields)
            elif len(fields) != width:
                raise FormatError(f"{path}: row {row} has {len(fields)} "
                                  f"fields, expected {width}")
            try:
                points.append([_csv_real(f) for f in fields])
            except ValueError as exc:
                raise FormatError(f"{path}: row {row}: {exc}") from exc
    return PointCloud(points, float(epsilon))


def _parse_points(raw, path: str, key: str) -> list:
    """The list of coordinate lists under ``key``, all of one length."""
    points = []
    width = None
    for row, entry in enumerate(_convert(path, key, raw, _listed)):
        coords = _numbers(path, f"{key}[{row}]", entry)
        if width is None:
            width = len(coords)
        elif len(coords) != width:
            raise FormatError(f"{path}: point {row} has {len(coords)} "
                              f"coordinates, expected {width}")
        points.append(coords)
    return points


def write_cloud(cloud: PointCloud, path: str):
    """Write a cloud, as CSV when the path ends in ``.csv``, else as JSON;
    CSV additionally gets an epsilon sidecar."""
    pts = cloud.array
    if not _is_csv(path):
        _dump_json({"epsilon": cloud.epsilon,
                    "points": [[float(c) for c in p] for p in pts]}, path)
        return
    _ensure_parent(path)
    with open(path, "w") as fh:
        for p in pts:
            fh.write(",".join(repr(float(c)) for c in p) + "\n")
    _dump_json({"epsilon": cloud.epsilon}, _sidecar(path))


def read_embedded_graph(path: str) -> EmbeddedGraph:
    return _embedded_graph(_load_json(path), path)


def _embedded_graph(data: dict, path: str) -> EmbeddedGraph:
    _require(data, path, "vertices", "edges")
    return _model(path, _parse_points(data["vertices"], path, "vertices"),
                  _index_pairs(path, "edges", data["edges"]))


def _model(path: str, positions, edges) -> EmbeddedGraph:
    """The graph with these vertex positions and edges, or a FormatError
    naming ``path``."""
    try:
        return EmbeddedGraph(AbstractGraph(len(positions), edges), positions)
    except (ValueError, TypeError, IndexError) as exc:
        raise FormatError(f"{path}: {exc}") from exc


def write_embedded_graph(graph: EmbeddedGraph, path: str):
    _dump_json({"vertices": [[float(c) for c in p] for p in graph.vertex_positions],
                "edges": [list(e) for e in graph.graph.edges]}, path)


def read_stratification(path: str) -> Stratification:
    data = _load_json(path, "labels", "vertex_clusters", "edge_clusters", "incidence")
    parts = [_index_lists(path, key, data[key])
             for key in ("vertex_clusters", "edge_clusters", "incidence")]
    try:
        strat = Stratification(*parts)
    except (ValueError, TypeError, OverflowError) as exc:
        raise FormatError(f"{path}: {exc}") from exc
    if _numbers(path, "labels", data["labels"], _index) != strat.labels().labels.tolist():
        raise FormatError(f"{path}: labels disagree with the clusters")
    return strat


def write_stratification(strat: Stratification, path: str):
    _dump_json({"labels": [int(v) for v in strat.labels().labels],
                "vertex_clusters": [list(c) for c in strat.vertex_clusters],
                "edge_clusters": [list(c) for c in strat.edge_clusters],
                "incidence": [list(p) for p in strat.incidence]}, path)


def read_fit_result(path: str) -> FitResult:
    return _fit_result(_load_json(path), path)


def _fit_result(data: dict, path: str) -> FitResult:
    _require(data, path, "vertices", "thetas", "objective", "iterations",
             "converged", "edges")
    return FitResult(
        vertex_positions=np.array(_parse_points(data["vertices"], path, "vertices"),
                                  dtype=float),
        thetas=np.array(_numbers(path, "thetas", data["thetas"])),
        objective_trace=tuple(_numbers(path, "objective", data["objective"])),
        iterations=_convert(path, "iterations", data["iterations"], _index),
        converged=_convert(path, "converged", data["converged"], _flag),
        edges=tuple(_index_pairs(path, "edges", data["edges"])))


def read_fitted(path: str) -> EmbeddedGraph:
    """A fitted model file: FitResult JSON or plain embedded-graph JSON."""
    data = _load_json(path)
    if "thetas" in data:
        result = _fit_result(data, path)
        return _model(path, result.vertex_positions, result.edges)
    return _embedded_graph(data, path)


def write_fit_result(result: FitResult, path: str):
    _dump_json(result.as_dict(), path)


def write_report(report: dict, path: str):
    """Generic JSON report writer used for evaluations and manifests."""
    _dump_json(report, path)
