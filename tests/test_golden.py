"""The CLI reproduces recorded output files byte for byte.

`tests/golden/` holds, for `gen clique4_array 2`, `gen comb 3` and the
stitch ring of `conftest`, the layout file, the decompose result, its
`--svg` and `--lp-dump` files, and for the motif array also the
`baseline-lelele` result. It also holds the same decompose outputs of
`random_wires_150.layout.json`, the layout that the benchmark's
`random_wires(150, 2000, 0)` generates: 92 outcomes, 56 of them one vertex
and 5 searched, cost 2.1 with one stitch. A change that alters any of these
formats or results re-records the files and says so.

Re-recorded when the solver stopped branching on pair cost bits (it
settles them from the colours): only the `nodes_explored` lines of
`stitch_ring.result.json` (139 -> 69) and `random_wires_150.result.json`
(189 -> 119 in all, per piece 9 -> 5, 83 -> 35, 41 -> 35, 25 -> 13)
changed; every other file stayed byte-identical.

Re-recorded again when a cut-free piece's search gained the triangle
suffix bound and the descent incumbent: again only `nodes_explored`
changed, in `stitch_ring.result.json` (69 -> 19) and
`random_wires_150.result.json` (119 -> 93 in all, per piece 35 -> 13 and
13 -> 9).
"""

from __future__ import annotations

from pathlib import Path

import pytest

from leleec.cli import run_cli
from leleec.layout_io import emit_layout, parse_layout

from conftest import stitch_ring

GOLDEN = Path(__file__).resolve().parent / "golden"
CASES = {
    "clique4_array_2": ["gen", "clique4_array", "2"],
    "comb_3": ["gen", "comb", "3"],
    # written by emit_layout: the conftest fixture, and the recorded layout read back
    "stitch_ring": stitch_ring,
    "random_wires_150": lambda: parse_layout(GOLDEN / "random_wires_150.layout.json"),
}


def _same(path: Path, name: str) -> None:
    assert path.read_bytes() == (GOLDEN / name).read_bytes(), name


@pytest.mark.parametrize("name", sorted(CASES))
def test_decompose_outputs_match_the_recorded_files(name, tmp_path):
    layout = tmp_path / f"{name}.layout.json"
    if callable(CASES[name]):
        emit_layout(*CASES[name](), layout)
    else:
        assert run_cli([*CASES[name], "--out", str(layout)]) == 0
    _same(layout, layout.name)
    out = {ext: tmp_path / f"{name}.{ext}" for ext in ("result.json", "svg", "lp")}
    argv = ["decompose", str(layout), "--out", str(out["result.json"])]
    assert run_cli(argv + ["--svg", str(out["svg"]), "--lp-dump", str(out["lp"])]) == 0
    for path in out.values():
        _same(path, path.name)
    assert run_cli(["verify", str(layout), str(out["result.json"])]) == 0


def test_baseline_output_matches_the_recorded_file(tmp_path):
    layout, out = GOLDEN / "clique4_array_2.layout.json", tmp_path / "base.json"
    assert run_cli(["baseline-lelele", str(layout), "--out", str(out)]) == 0
    _same(out, "clique4_array_2.baseline.json")
    assert run_cli(["verify", str(layout), str(out)]) == 0
