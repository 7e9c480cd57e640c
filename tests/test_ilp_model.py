from __future__ import annotations

import itertools
import random
from fractions import Fraction

import pytest

from leleec.decomposer import build_graphs
from leleec.endcut import EDGE_EDGE, EndCutCandidate, EndCutGraph
from leleec.geometry import Polygon, Rect
from leleec.ilp_model import (
    InconsistentAnnotation,
    InfeasibleAssignment,
    ProblemGraph,
    build_lelele_baseline,
    build_model_from_problem,
    decode_assignment,
    graph_order,
)
from leleec.layout_graph import Config, LayoutGraph, Segment
from leleec.solver import brute_force, row_tables, solve

from conftest import (
    clique4_motif,
    gamma_quad,
    one_mask_assignment,
    preselect_ring,
    random_config,
    random_layout,
    stitch_ring,
    var,
    via_block,
)


def _graph(vertex_features, conflict_edges, stitch_edges=(), annotations=None):
    """Synthetic layout graph; shapes are placeholders spread on a line."""
    vertices = [
        Segment(id=i, feature=f, shape=Polygon.of((200 * i, 0, 200 * i + 10, 40)))
        for i, f in enumerate(vertex_features)
    ]
    ann = dict.fromkeys(conflict_edges)
    if annotations:
        ann.update(annotations)
    return LayoutGraph(
        vertices=vertices,
        conflict_edges={tuple(sorted(e)): ann[e] for e in conflict_edges},
        stitch_edges={tuple(sorted(e)) for e in stitch_edges},
    )


def _cand(cid, fa, fb, rect=(0, 0, 10, 10)):
    return EndCutCandidate(id=cid, feature_a=fa, feature_b=fb, cut_rect=Rect(*rect), kind=EDGE_EDGE)


def _empty_eg(cands=()):
    return EndCutGraph(nodes=list(cands), solid_edges=set(), dash_edges=set())


def _decode_checked(model, assignment):
    """The decoded assignment, after the row check of `solve` and the cost
    recount of the decomposer's merge."""
    model.check_assignment(assignment)
    d = decode_assignment(model, assignment)
    assert model.objective_value(assignment) == len(d.conflicts) + model.alpha * len(d.stitches)
    return d


def test_single_edge_no_candidate():
    lg = _graph([0, 1], [(0, 1)])
    model = build_model_from_problem(ProblemGraph.from_layout(lg, _empty_eg()), _empty_eg())
    assert sorted(v.kind for v in model.variables) == ["color", "color", "conflict"]
    assert len(model.constraints) == 2
    assignment, stats = solve(model)
    assert stats.best_cost == 0  # opposite colors
    d = _decode_checked(model, assignment)
    assert d.colors[0] != d.colors[1]


def _fig6_triangle(corrected=True, pin_equal=False):
    """Triangle with cuts on all edges; the one on (0,1) excludes the others,
    while the (0,2)/(1,2) pair is dash-mergeable."""
    cands = [_cand(0, 0, 1), _cand(1, 0, 2, (20, 0, 30, 10)), _cand(2, 1, 2, (40, 0, 50, 10))]
    eg = EndCutGraph(
        nodes=cands,
        solid_edges={(0, 1), (0, 2)},
        dash_edges={(1, 2)},
    )
    lg = _graph(
        [0, 1, 2],
        [(0, 1), (0, 2), (1, 2)],
        annotations={(0, 1): 0, (0, 2): 1, (1, 2): 2},
    )
    model = build_model_from_problem(ProblemGraph.from_layout(lg, eg), eg, corrected=corrected)
    if pin_equal:
        # surrounding-layout pressure: all three features share one mask
        x0 = var(model, "color", (0,))
        x1 = var(model, "color", (1,))
        x2 = var(model, "color", (2,))
        for a, b in ((x0, x1), (x1, x2)):
            model.add_constraint(f"pin_{a}_{b}_lo", [(a, 1), (b, -1)], 0)
            model.add_constraint(f"pin_{a}_{b}_hi", [(b, 1), (a, -1)], 0)
    return model, lg, eg


def test_fig6_corrected_merge_is_free():
    model, lg, eg = _fig6_triangle(corrected=True, pin_equal=True)
    assignment, stats = solve(model)
    assert stats.best_cost == 0
    assert _decode_checked(model, assignment).selected == {1, 2}
    gamma = [v for v in model.variables if v.kind == "merge"]
    assert len(gamma) == 1
    assert assignment[var(model, "merge", gamma[0].key)] == 1


def test_fig6_uncorrected_charges_spurious_conflict():
    model, _, _ = _fig6_triangle(corrected=False, pin_equal=True)
    _, stats = solve(model)
    assert stats.best_cost == 1
    assert not any(v.kind == "merge" for v in model.variables)


def test_fig6_brute_force_confirms_both_models():
    m_cor, _, _ = _fig6_triangle(corrected=True, pin_equal=True)
    m_unc, _, _ = _fig6_triangle(corrected=False, pin_equal=True)
    assert brute_force(m_cor)[1] == 0
    assert brute_force(m_unc)[1] == 1


def test_fig6_unpinned_both_formulations_reach_zero():
    # without context pressure a pairwise merge is always available, so the
    # flaw does not show on an isolated triangle
    for corrected in (True, False):
        model, _, _ = _fig6_triangle(corrected=corrected, pin_equal=False)
        _, stats = solve(model)
        assert stats.best_cost == 0


def test_gamma_quad_geometric_contrast():
    feats, cfg = gamma_quad()
    lg, eg = build_graphs(feats, cfg)
    pg = ProblemGraph.from_layout(lg, eg)
    _, s_cor = solve(build_model_from_problem(pg, eg, corrected=True))
    _, s_unc = solve(build_model_from_problem(pg, eg, corrected=False))
    assert s_cor.best_cost == 0
    assert s_unc.best_cost == 1


def test_gamma_equals_product_in_every_feasible_assignment():
    model, _, _ = _fig6_triangle(corrected=True)
    g = var(model, "merge", next(v.key for v in model.variables if v.kind == "merge"))
    p = var(model, "endcut", (1,))
    q = var(model, "endcut", (2,))
    n = model.num_vars
    for code in range(1 << n):
        assignment = [(code >> k) & 1 for k in range(n)]
        try:
            model.check_assignment(assignment)
        except InfeasibleAssignment:
            continue
        assert assignment[g] == assignment[p] * assignment[q]


def test_color_flip_symmetry():
    feats, cfg = clique4_motif()
    lg, eg = build_graphs(feats, cfg)
    model = build_model_from_problem(ProblemGraph.from_layout(lg, eg), eg)
    assignment, stats = solve(model)
    flipped = list(assignment)
    for vid, var in enumerate(model.variables):
        if var.kind == "color":
            flipped[vid] ^= 1
    model.check_assignment(flipped)  # must stay feasible
    assert model.objective_value(flipped) == stats.best_cost


def test_pair_costs_are_the_rigid_conflict_and_stitch_edges():
    feats, cfg = via_block(3, 4)  # cut-free, no stitch candidates: every edge is rigid
    lg, eg = build_graphs(feats, cfg)
    model = build_model_from_problem(ProblemGraph.from_layout(lg, eg), eg)
    assert len(model.pair_costs) == len(lg.conflict_edges) > 0
    for xu, xv, cvar, when_equal in model.pair_costs:
        u, v = model.variables[cvar].key
        assert (model.variables[xu].key, model.variables[xv].key) == ((u,), (v,))
        assert model.variables[cvar].kind == "conflict" and when_equal
    # (1, 3) and (2, 3) carry cuts and (1, 2) a merge term, so they are not rigid
    lg, eg = build_graphs(*gamma_quad())
    model = build_model_from_problem(ProblemGraph.from_layout(lg, eg), eg)
    assert [model.variables[c].key for _, _, c, _ in model.pair_costs] == [(0, 1), (0, 2), (0, 3)]
    assert var(model, "merge", (1, 2, 3, 0, 1)) is not None
    # stitch edges are charged when the colours differ
    lg, eg = build_graphs(*stitch_ring())
    model = build_model_from_problem(ProblemGraph.from_layout(lg, eg), eg)
    stitch_pairs = [(model.variables[c].key, eq) for _, _, c, eq in model.pair_costs if not eq]
    assert stitch_pairs == [(e, False) for e in sorted(lg.stitch_edges)] and stitch_pairs
    assert build_lelele_baseline(ProblemGraph.from_layout(lg, eg)).pair_costs == []


def _pair_contract_problems(model) -> list[str]:
    """How the model's pairs break the contract of `IlpModel.pair_costs`.

    Each pair's cost bit is its own, costs >= 0 and is in exactly two rows,
    which hold only the pair's three bits; for each value of the two colour
    bits, the smallest value of the cost bit those rows allow is 1 exactly
    when the colours are equal (a conflict) or differ (a stitch).
    """
    problems = []
    cost_bits = [c for _, _, c, _ in model.pair_costs]
    if len(set(cost_bits)) != len(cost_bits):
        problems.append("a cost bit in two pairs")
    for xu, xv, c, when_equal in model.pair_costs:
        rows = [con for con in model.constraints if any(vid == c for vid, _ in con.terms)]
        if len(rows) != 2 or any({vid for vid, _ in con.terms} - {xu, xv, c} for con in rows):
            problems.append(f"{model.variables[c].name}: rows {[con.label for con in rows]}")
            continue
        if model.objective.get(c, 0) < 0:
            problems.append(f"{model.variables[c].name}: negative cost")
        for a, b in itertools.product((0, 1), repeat=2):
            allowed = [
                z
                for z in (0, 1)
                if all(
                    sum(k * {xu: a, xv: b, c: z}[vid] for vid, k in con.terms) <= con.rhs
                    for con in rows
                )
            ]
            if allowed[:1] != [int((a == b) == when_equal)]:
                problems.append(f"{model.variables[c].name}: colours {a}{b} allow {allowed}")
    return problems


def _contract_layouts():
    """The conftest fixtures and 120 seeded random layouts, about two in five with stitching."""
    layouts = [clique4_motif(), gamma_quad(), stitch_ring(), preselect_ring(), via_block(3, 4), via_block(4, 4)]
    for seed in range(120):
        rng = random.Random(12000 + seed)
        feats = random_layout(rng, rng.randrange(2, 14), box=220)
        layouts.append((feats, random_config(rng)))
    return layouts


def test_every_built_model_keeps_the_pair_contract():
    pairs = stitches = 0
    for k, (feats, cfg) in enumerate(_contract_layouts()):
        lg, eg = build_graphs(feats, cfg)
        pg = ProblemGraph.from_layout(lg, eg)
        for corrected in (True, False):
            model = build_model_from_problem(pg, eg, corrected=corrected, alpha=cfg.alpha)
            assert _pair_contract_problems(model) == [], (k, corrected)
            # the solver reads the same rows off the contract
            assert len(row_tables(model).pair_rows) == 2 * len(model.pair_costs)
            # the pairs are every conflict and stitch bit whose rows hold
            # only the bit and two colours: no cut and no merge term
            rows_of: dict[int, list] = {}
            for con in model.constraints:
                for vid, _ in con.terms:
                    rows_of.setdefault(vid, []).append(con)
            rigid = {
                vid
                for vid, v in enumerate(model.variables)
                if v.kind in ("conflict", "stitch") and all(len(con.terms) == 3 for con in rows_of[vid])
            }
            assert {c for _, _, c, _ in model.pair_costs} == rigid, (k, corrected)
            pairs += len(model.pair_costs)
            stitches += sum(not eq for *_, eq in model.pair_costs)
    assert pairs >= 1000 and stitches >= 60, (pairs, stitches)


def test_stitch_terms_come_from_the_piece():
    # one stitch bit, two st_ rows and one pair cost per stitch edge of the
    # piece, with no switch; a piece without stitch edges has none and alpha 0
    lg, eg = build_graphs(*stitch_ring())
    stitches = sorted(lg.stitch_edges)
    pg = ProblemGraph.from_layout(lg, eg)
    model = build_model_from_problem(pg, eg)
    assert [v.key for v in model.variables if v.kind == "stitch"] == stitches
    assert [c.label for c in model.constraints if c.label.startswith("st_")] == [
        f"st_{side}_{u}_{v}" for u, v in stitches for side in ("lo", "hi")
    ]
    assert [model.variables[c].key for _, _, c, equal in model.pair_costs if not equal] == stitches
    assert model.alpha == Fraction(1, 10) and stitches
    pg.stitch_edges = set()
    bare = build_model_from_problem(pg, eg)
    assert not any(v.kind == "stitch" for v in bare.variables)
    assert not any(c.label.startswith("st_") for c in bare.constraints)
    assert all(equal for *_, equal in bare.pair_costs) and bare.alpha == 0


def test_graph_order_is_breadth_first_from_the_highest_degree():
    # degrees 0:1 1:3 2:1 3:2 4:1 5:0 6:1 7:1; a second search starts at 6,
    # the lone vertex 5 comes last
    edges = [(0, 1), (1, 2), (1, 3), (3, 4), (6, 7)]
    assert graph_order(range(8), edges) == [1, 3, 0, 2, 4, 6, 7, 5]
    assert graph_order([], []) == []


def test_colour_order_follows_the_pair_cost_edges():
    # gamma_quad: only (0, 1), (0, 2), (0, 3) are rigid, so vertex 0 leads
    lg, eg = build_graphs(*gamma_quad())
    model = build_model_from_problem(ProblemGraph.from_layout(lg, eg), eg)
    assert [model.variables[x].key for x in model.colour_order] == [(0,), (1,), (2,), (3,)]
    # stitch_ring with stitches: the colour bits in graph order over its
    # conflict and stitch edges; the baseline keeps kind-then-id order
    lg, eg = build_graphs(*stitch_ring())
    pg = ProblemGraph.from_layout(lg, eg)
    model = build_model_from_problem(pg, eg)
    coupled = [*lg.conflict_edges, *lg.stitch_edges]
    expected = [var(model, "color", (v,)) for v in graph_order(pg.vertex_reps, coupled)]
    assert model.colour_order == expected and expected != sorted(expected)
    assert model.search_order()[: len(expected)] == expected
    baseline = build_lelele_baseline(pg)
    assert baseline.colour_order == []
    assert baseline.search_order() == sorted(
        range(baseline.num_vars), key=lambda v: (baseline.variables[v].kind != "color", v)
    )


def test_inconsistent_annotation_rejected():
    lg = _graph([0, 1], [(0, 1)], annotations={(0, 1): 5})
    with pytest.raises(InconsistentAnnotation):
        build_model_from_problem(ProblemGraph.from_layout(lg, _empty_eg()), _empty_eg())


# ---- stitch models


def test_stitch_forced_zero_on_equal_colors():
    lg = _graph([0, 0], [], stitch_edges=[(0, 1)])
    model = build_model_from_problem(
        ProblemGraph.from_layout(lg, _empty_eg()), _empty_eg(), alpha=Fraction(1, 10)
    )
    assignment, stats = solve(model)
    assert stats.best_cost == 0
    s = var(model, "stitch", (0, 1))
    assert assignment[s] == 0


def test_synthetic_triangle_with_stitch_costs_alpha():
    # features a, b, c; c is split into two segments joined by a stitch edge;
    # a touches only the left segment and b only the right one
    lg = _graph(
        [0, 1, 2, 2],
        [(0, 1), (0, 2), (1, 3)],
        stitch_edges=[(2, 3)],
    )
    model = build_model_from_problem(
        ProblemGraph.from_layout(lg, _empty_eg()), _empty_eg(), alpha=Fraction(1, 10)
    )
    _, stats = solve(model)
    assert stats.best_cost == Fraction(1, 10)
    unstitched = _graph([0, 1, 2], [(0, 1), (0, 2), (1, 2)])
    _, s2 = solve(
        build_model_from_problem(ProblemGraph.from_layout(unstitched, _empty_eg()), _empty_eg())
    )
    assert s2.best_cost == 1


def test_with_stitch_never_beats_no_stitch_bound():
    rng = random.Random(5)
    from conftest import random_layout

    for seed in range(10):
        feats = random_layout(random.Random(seed), 6)
        if not feats:
            continue
        cfg_s = Config.from_rules(10, 10, w_th=10, enable_stitch=True)
        cfg_n = Config.from_rules(10, 10, w_th=10, enable_stitch=False)
        lg_s, eg_s = build_graphs(feats, cfg_s)
        lg_n, eg_n = build_graphs(feats, cfg_n)
        _, st_s = solve(
            build_model_from_problem(
                ProblemGraph.from_layout(lg_s, eg_s), eg_s, alpha=Fraction(1, 10)
            )
        )
        _, st_n = solve(build_model_from_problem(ProblemGraph.from_layout(lg_n, eg_n), eg_n))
        assert st_s.best_cost <= st_n.best_cost


# ---- three-mask baseline


def _k(n):
    return _graph(list(range(n)), list(itertools.combinations(range(n), 2)))


def _baseline(lg):
    return build_lelele_baseline(ProblemGraph.from_layout(lg, _empty_eg()))


def _min_conflicts_three_colors(n, edges):
    best = None
    for coloring in itertools.product(range(3), repeat=n):
        bad = sum(1 for u, v in edges if coloring[u] == coloring[v])
        best = bad if best is None else min(best, bad)
    return best


def test_baseline_four_clique_has_one_conflict():
    model = _baseline(_k(4))
    assignment, stats = solve(model)
    assert stats.best_cost == 1
    colors = decode_assignment(model, assignment).colors
    assert set(colors.values()) <= {0, 1, 2}


def test_baseline_triangle_is_free():
    _, stats = solve(_baseline(_k(3)))
    assert stats.best_cost == 0


def test_baseline_k5_matches_enumeration():
    edges = list(itertools.combinations(range(5), 2))
    assert _min_conflicts_three_colors(5, edges) == 2
    _, stats = solve(_baseline(_k(5)))
    assert stats.best_cost == 2


def test_baseline_one_mask_assignment_is_feasible():
    # a zero time limit stops the search after its first leaf, the one-mask assignment
    model = _baseline(_k(4))
    assignment, stats = solve(model, 0.0)
    assert assignment == one_mask_assignment(model)
    model.check_assignment(assignment)
    assert set(decode_assignment(model, assignment).colors.values()) == {0}
    assert stats.best_cost == model.objective_value(assignment) == 6
    assert not stats.proven_optimal


def test_baseline_random_graphs_match_enumeration():
    for seed in range(10):
        rng = random.Random(seed)
        n = rng.randrange(3, 7)
        edges = [e for e in itertools.combinations(range(n), 2) if rng.random() < 0.6]
        model = _baseline(_graph(list(range(n)), edges))
        _, stats = solve(model)
        assert stats.best_cost == _min_conflicts_three_colors(n, edges)


# ---- decoding


def test_decode_motif():
    feats, cfg = clique4_motif()
    lg, eg = build_graphs(feats, cfg)
    model = build_model_from_problem(ProblemGraph.from_layout(lg, eg), eg)
    assignment, _ = solve(model)
    d = _decode_checked(model, assignment)
    assert model.objective_value(assignment) == 0 and d.conflicts == []
    assert len(d.selected) >= 2


def test_decode_empty():
    lg = LayoutGraph(vertices=[], conflict_edges={}, stitch_edges={})
    model = build_model_from_problem(ProblemGraph.from_layout(lg, _empty_eg()), _empty_eg())
    d = _decode_checked(model, [])
    assert model.objective_value([]) == 0 and d.colors == {}


def test_check_assignment_rejects_cut_across_colors():
    lg = _graph([0, 1], [(0, 1)], annotations={(0, 1): 0})
    eg = _empty_eg([_cand(0, 0, 1)])
    model = build_model_from_problem(ProblemGraph.from_layout(lg, eg), eg)
    x0 = var(model, "color", (0,))
    x1 = var(model, "color", (1,))
    ec = var(model, "endcut", (0,))
    bad = [0] * model.num_vars
    bad[x1] = 1
    bad[ec] = 1  # cut applied across different colors violates the cut rows
    with pytest.raises(InfeasibleAssignment):
        model.check_assignment(bad)


def test_lp_dump_deterministic_and_well_formed():
    feats, cfg = clique4_motif()
    lg, eg = build_graphs(feats, cfg)
    model = build_model_from_problem(ProblemGraph.from_layout(lg, eg), eg, alpha=Fraction(1, 10))
    text1 = model.lp_dump()
    model2 = build_model_from_problem(ProblemGraph.from_layout(lg, eg), eg, alpha=Fraction(1, 10))
    assert text1 == model2.lp_dump()
    assert text1.startswith("Minimize\n")
    assert "Subject To" in text1 and "Binary" in text1 and text1.endswith("End\n")


def test_merged_trim_rects_union_of_dash_pairs():
    from leleec.decomposer import merged_trim_rects

    cands = [_cand(0, 0, 1, (0, 0, 10, 10)), _cand(1, 1, 2, (10, 0, 20, 10)), _cand(2, 3, 4, (50, 0, 60, 10))]
    eg = EndCutGraph(nodes=cands, solid_edges=set(), dash_edges={(0, 1)})
    rects = merged_trim_rects({0, 1, 2}, eg)
    assert [tuple(r) for r in rects] == [(0, 0, 20, 10), (50, 0, 60, 10)]
