"""Module layering: each module imports only the modules below it."""
import ast
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

