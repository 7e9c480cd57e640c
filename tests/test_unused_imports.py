"""Every name a program module imports is read in that module.

The package's `__init__` re-exports the names in its `__all__`, and a line
marked `# noqa: F401` keeps the names on it that the benchmark's trace
(`perfbench/spans.py`) patches in that module; both are exempt. A marked
name the trace does not patch is not. A name is read when it appears
anywhere in the module's code, its annotations included.
"""

from __future__ import annotations

import ast
from collections.abc import Collection
from functools import cache
from pathlib import Path

import pytest

from conftest import load_spans

SRC = Path(__file__).resolve().parent.parent / "src" / "leleec"


@cache
def traced_names() -> dict[str, frozenset[str]]:
    """Module name -> the attributes the benchmark's tracer patches in it."""
    tracer = load_spans().Tracer()
    tracer.install()
    try:
        saved = list(tracer._saved)
    finally:
        tracer.uninstall()
    names: dict[str, set[str]] = {}
    for module, attr, _ in saved:
        names.setdefault(module.__name__, set()).add(attr)
    return {module: frozenset(attrs) for module, attrs in names.items()}


def unused_imports(source: str, traced: Collection[str] = ()) -> list[str]:
    """The imported names that the module never reads, in source order.

    A name on a `# noqa: F401` line is exempt only when it is in `traced`.
    """
    tree = ast.parse(source)
    lines = source.splitlines()
    exempt: set[str] = set()
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            exempt.update(ast.literal_eval(node.value))
    imported: list[str] = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            marked = "# noqa: F401" in lines[node.end_lineno - 1]
            for alias in node.names:
                name = alias.asname or alias.name.partition(".")[0]
                if not (marked and name in traced):
                    imported.append(name)
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [name for name in imported if name not in read and name not in exempt]


def test_the_check_finds_an_unused_import():
    source = (
        "from __future__ import annotations\n"
        "import os.path\n"
        "from .geometry import (\n"
        "    Rect,\n"
        "    near_pairs,\n"
        ")\n"
        "from .endcut import build_endcut_graph  # noqa: F401\n"
        "def f(r: Rect) -> int:\n"
        "    return os.sep\n"
    )
    assert unused_imports(source, {"build_endcut_graph"}) == ["near_pairs"]
    # a stray mark, on a name the trace does not patch, exempts nothing
    assert unused_imports(source) == ["near_pairs", "build_endcut_graph"]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_every_import_is_read(path):
    traced = traced_names().get(f"leleec.{path.stem}", frozenset())
    assert unused_imports(path.read_text(encoding="utf-8"), traced) == []
