"""The benchmark's trace patches program names; each one must still exist.

`perfbench/spans.py` wraps layer entry points by (module, attribute), and
`Tracer.install` fails on a missing attribute. This loads that file as it
is and checks every patch point, so a refactor that drops or renames one
fails here, not only in the benchmark's own tests. A traced decompose then
checks the counters that read the patched calls' arguments.
"""

from __future__ import annotations

from leleec.cli import run_cli
from leleec.decomposer import build_graphs, split_bridges, split_components
from leleec.ilp_model import build_model_from_problem
from leleec.layout_graph import Config
from leleec.layout_io import emit_layout
from leleec.synth import gen_synthetic

from conftest import load_spans, model_shape


def test_every_patch_point_resolves():
    spans = load_spans()
    missing = [
        f"{module.__name__}.{attr}"
        for module, attr, _, _ in spans.SPAN_POINTS
        if not callable(getattr(module, attr, None))
    ]
    assert missing == []


def test_install_then_uninstall_restores_originals():
    spans = load_spans()
    points = [(module, attr) for module, attr, _, _ in spans.SPAN_POINTS]
    points.append((spans.leleec.endcut, "rect_overlaps_polygon"))
    before = [getattr(module, attr) for module, attr in points]
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert all(getattr(m, a) is not f for (m, a), f in zip(points, before))
    finally:
        tracer.uninstall()
    assert all(getattr(m, a) is f for (m, a), f in zip(points, before))


def test_traced_decompose_counts_the_pieces_and_models(tmp_path):
    """The counters read the patched calls' arguments and results; a changed
    argument shape must fail here, not only skew the benchmark's counts."""
    feats, cfg = gen_synthetic("clique4_array", 3, 0, Config.from_rules(10, 10))
    layout = tmp_path / "motif.json"
    emit_layout(feats, cfg, layout)
    spans = load_spans()
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert run_cli(["decompose", str(layout), "--out", str(tmp_path / "res.json")]) == 0
    finally:
        tracer.uninstall()

    # a piece whose model equals an earlier one's but for names is a repeat:
    # it reuses that outcome and makes neither patched call
    lg, eg = build_graphs(feats, cfg)
    pieces = [
        (piece, comp_eg)
        for comp, comp_eg in split_components(lg, eg)[1]
        for piece in split_bridges(comp, comp_eg)[0]
    ]
    distinct = {}
    for piece, comp_eg in pieces:
        model = build_model_from_problem(piece, comp_eg, alpha=cfg.alpha)
        distinct.setdefault(model_shape(model), (piece, model))
    assert len(pieces) == 3 and len(distinct) == 1
    assert tracer.counts["decomposer.pieces"] == len(distinct)
    assert tracer.counts["decomposer.largest_piece"] == max(
        len(p.vertex_reps) for p, _ in distinct.values()
    )
    assert tracer.counts["ilp_model.vars"] == sum(m.num_vars for _, m in distinct.values())
