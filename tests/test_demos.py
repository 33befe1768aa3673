"""Every script under demos/ and the package docstring example run to
completion without a warning."""
import doctest
import runpy
import warnings
from pathlib import Path

import pytest

import stratograph

DEMOS = sorted((Path(__file__).resolve().parent.parent / "demos").glob("*.py"))


def test_demos_found():
    assert len(DEMOS) >= 6


@pytest.mark.parametrize("path", DEMOS, ids=[p.stem for p in DEMOS])
def test_demo_runs(path, capsys, monkeypatch):
    monkeypatch.setattr("sys.argv", [str(path)])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        runpy.run_path(str(path), run_name="__main__")
    out = capsys.readouterr().out
    assert out.strip()


def test_package_docstring_example():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        failed, attempted = doctest.testmod(stratograph)
    assert attempted > 0 and failed == 0
