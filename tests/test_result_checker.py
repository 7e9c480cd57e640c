"""The one result checker, through both entry points.

Each test decomposes a fixture, breaks one rule of the result, and asserts
that `validate_result` (decompose's check) raises and that `verify_result`
(the file check) reports the same rule.
"""

from __future__ import annotations

import json
from fractions import Fraction

import pytest

from leleec.decomposer import (
    DecompositionError,
    build_graphs,
    decompose_graphs,
    merged_trim_rects,
    validate_result,
)
from leleec.endcut import EndCutGraph
from leleec.ilp_model import DecompResult
from leleec.layout_graph import Config
from leleec.layout_io import dump_json, result_to_obj, verify_result
from leleec.synth import gen_synthetic

from conftest import clique4_motif, gamma_quad, stitch_ring


def _decomposed(feats, cfg):
    lg, eg = build_graphs(feats, cfg)
    return lg, eg, decompose_graphs(lg, eg, cfg)


def _file_obj(res, lg, eg, cfg) -> dict:
    """The result as `verify` reads it back from a file."""
    return json.loads(dump_json(result_to_obj(res, lg, eg, cfg)), parse_float=Fraction)


def _both_report(feats, cfg, tamper, expected: str) -> None:
    """Tamper with a fresh result; both checkers must name `expected`.

    The trim rects and cost are recomputed, so only the tampered rule is
    broken in the file.
    """
    lg, eg, res = _decomposed(feats, cfg)
    tamper(res)
    res.trim_rects = merged_trim_rects(res.selected_cuts, eg)
    res.cost = res.recompute_cost()
    with pytest.raises(DecompositionError) as err:
        validate_result(res, lg, eg)
    assert expected in str(err.value)
    problems = verify_result(feats, cfg, _file_obj(res, lg, eg, cfg))
    assert any(expected in p for p in problems), problems


def test_untampered_results_pass_both():
    for feats, cfg in (clique4_motif(), stitch_ring(), gamma_quad()):
        lg, eg, res = _decomposed(feats, cfg)
        validate_result(res, lg, eg)
        assert verify_result(feats, cfg, _file_obj(res, lg, eg, cfg)) == []


def test_selected_cuts_on_a_solid_edge():
    # clique4 selects cuts 2, 4 and 5; cut 3 shares a solid edge with cut 2
    def tamper(res):
        assert 3 not in res.selected_cuts
        res.selected_cuts = res.selected_cuts | {3}

    _both_report(*clique4_motif(), tamper, "exclusion (1c): selected cuts 2 and 3")


def test_selected_cut_across_masks():
    # every clique4 vertex is on one mask and cut 2 joins vertices 0 and 3
    def tamper(res):
        assert 2 in res.selected_cuts
        res.colors[3] ^= 1

    _both_report(*clique4_motif(), tamper, "cut colors (1d/1e): cut 2 endpoints 0,3 differ in mask")


def test_selected_cut_without_annotation():
    # every candidate a layout yields is annotated, so an unannotated id is
    # one beyond the candidates; a file cannot describe its geometry
    feats, cfg = clique4_motif()
    lg, eg, res = _decomposed(feats, cfg)
    unknown = len(eg.nodes)
    with pytest.raises(DecompositionError, match=f"candidate {unknown} is not annotated"):
        cuts = res.selected_cuts | {unknown}
        tampered = DecompResult(
            res.colors, cuts, res.trim_rects, res.conflicts, res.stitches, res.cost, res.alpha, res.stats
        )
        validate_result(tampered, lg, eg)
    obj = _file_obj(res, lg, eg, cfg)
    obj["selected_cuts"].append({"id": unknown, "features": [0, 1], "rect": [0, 0, 1, 1]})
    assert f"selected_cuts: unknown candidate id {unknown}" in verify_result(feats, cfg, obj)


def test_uncharged_same_mask_conflict():
    # without stitches the odd ring charges exactly one conflict
    feats, cfg = stitch_ring()
    cfg = cfg.replace(enable_stitch=False)

    def tamper(res):
        assert res.conflicts == [(0, 1)]
        res.conflicts = []

    _both_report(feats, cfg, tamper, "accounting: conflict edge (0, 1) is monochromatic but not charged")


def test_charged_conflict_across_masks():
    def tamper(res):
        assert res.conflicts == [] and res.colors[0] != res.colors[1]
        res.conflicts = [(0, 1)]

    _both_report(*stitch_ring(), tamper, "conflicts: (0, 1) endpoints are on different masks")


def test_charged_edge_that_is_not_a_conflict_edge():
    def tamper(res):
        res.conflicts = [(0, 2)]
        res.colors[2] = res.colors[0]

    _both_report(*stitch_ring(), tamper, "conflicts: (0, 2) is not a conflict edge")


@pytest.mark.parametrize("fixture", [clique4_motif, gamma_quad])
def test_dash_forgiven_result_passes_both(fixture):
    feats, cfg = fixture()
    lg, eg, res = _decomposed(feats, cfg)
    # some same-mask conflict edge is neither charged nor cut itself
    forgiven = [
        e
        for e, cand in lg.conflict_edges.items()
        if res.colors[e[0]] == res.colors[e[1]]
        and e not in res.conflicts
        and cand not in res.selected_cuts
    ]
    assert forgiven
    validate_result(res, lg, eg)
    assert verify_result(feats, cfg, _file_obj(res, lg, eg, cfg)) == []
    # it is the dash merge that forgives them
    no_dash = EndCutGraph(nodes=eg.nodes, solid_edges=eg.solid_edges, dash_edges=set())
    with pytest.raises(DecompositionError, match="accounting"):
        validate_result(res, lg, no_dash)


def _tampered_files(feats, cfg, lg, eg, res):
    """(name, file object) of the result as written and with one fault each."""
    obj = _file_obj(res, lg, eg, cfg)
    yield "as written", obj
    entry = {c["id"]: c for c in obj["selected_cuts"]}

    def entry_of(cid):
        node = eg.nodes[cid]
        return {"id": cid, "features": list(node.features()), "rect": list(node.cut_rect)}

    solid = sorted((p, q) for p, q in eg.solid_edges if (p in entry) != (q in entry))
    for p, q in solid[:2]:
        extra = entry_of(q if p in entry else p)
        yield "two cuts on a solid edge", {**obj, "selected_cuts": [*obj["selected_cuts"], extra]}
    dashed = sorted((p, q) for p, q in eg.dash_edges if p in entry and q in entry)
    for p, q in dashed[:2]:
        cuts = [c for c in obj["selected_cuts"] if c["id"] != q]
        yield "a dropped dash partner", {**obj, "selected_cuts": cuts}
    unknown = {"id": len(eg.nodes), "features": [0, 1], "rect": [0, 0, 1, 1]}
    yield "an unknown id", {**obj, "selected_cuts": [*obj["selected_cuts"], unknown]}
    first = obj["selected_cuts"][0]
    yield "a duplicated id", {**obj, "selected_cuts": [*obj["selected_cuts"], first]}


def test_verify_reports_what_a_full_graph_verify_reports(monkeypatch):
    """verify classifies only the listed cuts' pairs; a verify that builds
    the whole end-cut graph must report the same problems in the same order."""
    import leleec.layout_io

    layouts = [clique4_motif(), gamma_quad()]
    layouts += [gen_synthetic("clique4_array", n, n, Config.from_rules(10, 10)) for n in (2, 5)]
    names = set()
    for feats, cfg in layouts:
        lg, eg, res = _decomposed(feats, cfg)
        for name, obj in _tampered_files(feats, cfg, lg, eg, res):
            got = verify_result(feats, cfg, obj)
            with monkeypatch.context() as m:
                m.setattr(leleec.layout_io, "build_graphs", lambda f, c, ids: build_graphs(f, c))
                full = verify_result(feats, cfg, obj)
            assert got == full, name
            assert (got == []) == (name == "as written"), (name, got)
            names.add(name)
    assert len(names) == 5, names
