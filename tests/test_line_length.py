"""No line of the program is longer than 110 characters."""

from __future__ import annotations

from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "leleec"
LIMIT = 110


def test_program_lines_fit_the_limit():
    long = [
        f"{path.name}:{number}: {len(line)}"
        for path in sorted(SRC.glob("*.py"))
        for number, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1)
        if len(line) > LIMIT
    ]
    assert long == []
