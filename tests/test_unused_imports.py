"""Every name a program module imports is read in that module.

The package's `__init__` re-exports the names in its `__all__`, and a line
marked `# noqa: F401` keeps a name that the benchmark's trace patches in
that module; both are exempt. A name is read when it appears anywhere in
the module's code, its annotations included.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "leleec"


def unused_imports(source: str) -> list[str]:
    """The imported names that the module never reads, in source order."""
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
            if "# noqa: F401" in lines[node.end_lineno - 1]:
                continue
            for alias in node.names:
                imported.append(alias.asname or alias.name.partition(".")[0])
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
    assert unused_imports(source) == ["near_pairs"]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_every_import_is_read(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []
