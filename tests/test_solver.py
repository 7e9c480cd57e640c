from __future__ import annotations

import gc
import hashlib
import importlib.util
import itertools
import json
import random
import time
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import pytest

import leleec.decomposer as decomposer_module
import leleec.solver as solver_module
from leleec.decomposer import build_graphs, decompose, lelele_baseline, solve_monolithic
from leleec.endcut import EndCutGraph
from leleec.ilp_model import (
    Constraint,
    IlpModel,
    ProblemGraph,
    build_lelele_baseline,
    build_model_from_problem,
    decode_assignment,
)
from leleec.layout_graph import Config
from leleec.solver import (
    BRUTE_FORCE_CAP,
    Infeasible,
    SolverError,
    TooLarge,
    brute_force,
    descent_incumbent,
    pair_links,
    row_tables,
    solve,
    triangle_suffix,
)
from leleec.synth import KINDS, gen_synthetic

from conftest import (
    clique4_motif,
    one_mask_assignment,
    random_config,
    random_layout,
    stitch_ring,
    var,
    via_block,
)


def test_empty_model_all_zeros():
    model = IlpModel()
    for i in range(4):
        model.add_var(f"x_{i}", "color", (i,))
    assignment, stats = solve(model)
    assert assignment == [0, 0, 0, 0]
    assert stats.best_cost == 0 and stats.proven_optimal


def test_motif_leleec_zero_lelele_one():
    feats, cfg = clique4_motif()
    lg, eg = build_graphs(feats, cfg)
    model = build_model_from_problem(ProblemGraph.from_layout(lg, eg), eg)
    _, stats = solve(model)
    assert stats.best_cost == 0
    _, base_stats = solve(build_lelele_baseline(ProblemGraph.from_layout(lg, eg)))
    assert base_stats.best_cost == 1


def test_four_clique_with_unconstrained_cuts_costs_zero():
    # synthetic K4 where every edge has a candidate and no exclusions exist
    import itertools

    from leleec.endcut import EDGE_EDGE, EndCutCandidate, EndCutGraph
    from leleec.geometry import Polygon, Rect
    from leleec.layout_graph import LayoutGraph, Segment

    edges = list(itertools.combinations(range(4), 2))
    vertices = [
        Segment(id=i, feature=i, shape=Polygon.of((200 * i, 0, 200 * i + 10, 40)))
        for i in range(4)
    ]
    cands = [
        EndCutCandidate(k, u, v, Rect(50 * k, 100, 50 * k + 10, 110), EDGE_EDGE)
        for k, (u, v) in enumerate(edges)
    ]
    lg = LayoutGraph(
        vertices=vertices,
        conflict_edges={e: k for k, e in enumerate(edges)},
        stitch_edges={},
    )
    eg = EndCutGraph(nodes=cands, solid_edges=set(), dash_edges=set())
    model = build_model_from_problem(ProblemGraph.from_layout(lg, eg), eg)
    assert model.num_vars <= 24
    _, stats = solve(model)
    _, expected = brute_force(model)
    assert stats.best_cost == expected == 0


def _random_model(seed: int):
    rng = random.Random(seed)
    feats = random_layout(rng, rng.randrange(2, 6))
    if len(feats) < 2:
        return None
    cfg = random_config(rng)
    lg, eg = build_graphs(feats, cfg)
    return build_model_from_problem(ProblemGraph.from_layout(lg, eg), eg, alpha=cfg.alpha)


def test_solve_matches_brute_force_on_random_models():
    # not only the cost: solve returns the oracle's tie-break, the smallest
    # optimum in search order, also where the colour order is not by id
    checked = reordered = 0
    seed = 0
    while checked < 150:
        model = _random_model(seed)
        seed += 1
        if model is None or not (0 < model.num_vars <= BRUTE_FORCE_CAP):
            continue
        assignment, stats = solve(model)
        expected_assignment, expected = brute_force(model)
        assert stats.best_cost == expected, f"seed {seed - 1}"
        assert assignment == expected_assignment, f"seed {seed - 1}"
        checked += 1
        reordered += model.colour_order != sorted(model.colour_order)
    assert reordered >= 50, reordered


def test_solve_tie_break_on_via_blocks():
    """The smallest optimum in search order on dense cut-free blocks.

    The 2x3 block (21 variables) is checked against brute_force. The 3x4
    block has 69, beyond its cap, but no cut, merge or stitch variable, so
    its optimum is fixed by the 12 colour bits: enumerate those instead.
    """
    lg, eg = build_graphs(*via_block(2, 3))
    model = build_model_from_problem(ProblemGraph.from_layout(lg, eg), eg)
    assert model.num_vars <= BRUTE_FORCE_CAP
    assert solve(model)[0] == brute_force(model)[0]

    lg, eg = build_graphs(*via_block(3, 4))
    model = build_model_from_problem(ProblemGraph.from_layout(lg, eg), eg)
    assert {v.kind for v in model.variables} == {"color", "conflict"}
    colour_bits = model.colour_order
    assert colour_bits != sorted(colour_bits)
    conflicts = [
        (vid, var(model, "color", v.key[:1]), var(model, "color", v.key[1:]))
        for vid, v in enumerate(model.variables)
        if v.kind == "conflict"
    ]
    best = None
    for code in range(1 << len(colour_bits)):  # first colour in order = most significant
        assignment = [0] * model.num_vars
        for pos, vid in enumerate(colour_bits):
            assignment[vid] = (code >> (len(colour_bits) - 1 - pos)) & 1
        for vid, xu, xv in conflicts:
            assignment[vid] = int(assignment[xu] == assignment[xv])
        cost = sum(assignment[vid] for vid, _, _ in conflicts)
        if best is None or cost < best[0]:
            best = (cost, assignment)
    found, stats = solve(model)
    assert (stats.best_cost, found) == best


def _solve_both_halves(model: IlpModel):
    """(with symmetry break, without) solves of one model."""
    assert model.flip_symmetric
    with_flag = solve(model)
    model.flip_symmetric = False
    without = solve(model)
    model.flip_symmetric = True
    return with_flag, without


def test_flip_symmetry_keeps_assignment_and_cost():
    lg, eg = build_graphs(*clique4_motif())
    models = [build_model_from_problem(ProblemGraph.from_layout(lg, eg), eg)]
    seed = 0
    while len(models) < 151:
        model = _random_model(seed)
        seed += 1
        if model is not None and 0 < model.num_vars <= BRUTE_FORCE_CAP:
            models.append(model)
    saved = 0
    for k, model in enumerate(models):
        (a_on, s_on), (a_off, s_off) = _solve_both_halves(model)
        assert a_on == a_off and s_on.best_cost == s_off.best_cost, f"model {k}"
        assert s_on.nodes_explored <= s_off.nodes_explored, f"model {k}"
        saved += s_off.nodes_explored - s_on.nodes_explored
    assert saved > 0


def test_lelele_baseline_is_not_flip_symmetric():
    # its three-colour rows (xa + xb <= 1) do not survive complementing the bits
    lg, eg = build_graphs(*clique4_motif())
    assert not build_lelele_baseline(ProblemGraph.from_layout(lg, eg)).flip_symmetric


def _without_bound(model: IlpModel, solve_fn):
    """solve_fn(model) with the colour-space bound off: no pair costs."""
    saved = model.pair_costs
    model.pair_costs = []
    try:
        return solve_fn(model)
    finally:
        model.pair_costs = saved


def _kind_then_id(model: IlpModel, solve_fn):
    """solve_fn(model) with colours branched in ascending id: no colour order."""
    saved = model.colour_order
    model.colour_order = []
    try:
        return solve_fn(model)
    finally:
        model.colour_order = saved


def test_via_block_work_count(watchdog):
    # every search here takes well under a second; one that stops pruning
    # fails at the cap instead of running on
    watchdog(10)
    feats, cfg = via_block(4, 4)
    lg, eg = build_graphs(feats, cfg)
    model = build_model_from_problem(ProblemGraph.from_layout(lg, eg), eg, alpha=cfg.alpha)
    (a_on, s_on), (a_off, s_off) = _kind_then_id(
        model, lambda m: _without_bound(m, _solve_both_halves)
    )
    assert a_on == a_off and s_on.best_cost == s_off.best_cost == 34
    # the node count of the unflagged search before rows were gated: the
    # gating skips only rows that cannot force, so it must not move
    assert s_off.nodes_explored == 41236
    assert s_on.nodes_explored <= 0.6 * s_off.nodes_explored
    # the same searches with the colour-space bound, and with the conflict
    # bits settled from their colours instead of branched on; every row left
    # is a pair row, so the triangle suffix and the descent incumbent bound
    # them too
    (b_on, t_on), (b_off, t_off) = _kind_then_id(model, _solve_both_halves)
    assert b_on == b_off == a_on and t_on.best_cost == t_off.best_cost == 34
    assert t_off.nodes_explored == 1842
    assert t_on.nodes_explored == 959
    # graph-order branching, without and with the bound
    (c_on, u_on), (c_off, u_off) = _without_bound(model, _solve_both_halves)
    assert c_on == c_off and u_on.best_cost == u_off.best_cost == 34
    assert (u_off.nodes_explored, u_on.nodes_explored) == (33160, 17353)
    (d_on, v_on), (d_off, v_off) = _solve_both_halves(model)
    assert d_on == d_off == c_on and v_on.best_cost == v_off.best_cost == 34
    assert (v_off.nodes_explored, v_on.nodes_explored) == (1086, 549)


def _bound_models() -> list[IlpModel]:
    """The clique4 motif, via blocks 3x4 and 4x4, and 150 seeded random models."""
    models = []
    for feats, cfg in (clique4_motif(), via_block(3, 4), via_block(4, 4)):
        lg, eg = build_graphs(feats, cfg)
        models.append(build_model_from_problem(ProblemGraph.from_layout(lg, eg), eg, alpha=cfg.alpha))
    seed = 0
    while len(models) < 153:
        model = _random_model(seed)
        seed += 1
        if model is not None and 0 < model.num_vars <= BRUTE_FORCE_CAP:
            models.append(model)
    return models


def test_colour_space_bound_keeps_assignment_and_cost(watchdog):
    """With pair costs the solver bounds with them and settles their cost
    bits from the colours; cleared, it searches those bits like any other.
    Both give one assignment and cost, and the via blocks, where every
    conflict is a pair, take strictly fewer nodes with them. The searches
    take well under a second together, so the test is capped at 10 s."""
    watchdog(10)
    pruned = with_pairs = stitched = 0
    for k, model in enumerate(_bound_models()):
        a_on, s_on = solve(model)
        a_off, s_off = _without_bound(model, solve)
        assert a_on == a_off and s_on.best_cost == s_off.best_cost, f"model {k}"
        assert s_on.nodes_explored <= s_off.nodes_explored, f"model {k}"
        if k in (1, 2):  # via blocks 3x4 and 4x4
            assert s_on.nodes_explored < s_off.nodes_explored, f"model {k}"
        with_pairs += bool(model.pair_costs)
        stitched += any(not when_equal for *_, when_equal in model.pair_costs)
        pruned += s_on.nodes_explored < s_off.nodes_explored
    assert with_pairs >= 80 and stitched >= 30 and pruned >= 20, (with_pairs, stitched, pruned)


def _pair_only_parts(model: IlpModel):
    """(order, links, costs, denom) as `solve` reads them, for a model whose
    every row is a pair row; None for any other."""
    if row_tables(model).rows:
        return None
    costs, denom = solver_module._scaled_objective(model)
    cost_bits = {cvar for _, _, cvar, _ in model.pair_costs}
    order = [vid for vid in model.search_order() if vid not in cost_bits]
    return order, pair_links(model.pair_costs, costs), costs, denom


def _suffix_optima(order: list[int], links) -> list[int]:
    """opt[p]: the least that the pairs with both bits in order[p:] charge,
    over every colouring of those bits, by enumeration."""
    import numpy as np

    opt = [0] * (len(order) + 1)
    for p in range(len(order)):
        tail = order[p:]
        pos = {vid: k for k, vid in enumerate(tail)}
        codes = np.arange(1 << len(tail), dtype=np.int64)
        bits = (codes[:, None] >> np.arange(len(tail))[None, :]) & 1
        charged = np.zeros(len(codes), dtype=np.int64)
        for v in tail:
            for w, cost, flip in links[v]:
                if w in pos and pos[v] < pos[w]:
                    charged += cost * (bits[:, pos[v]] == bits[:, pos[w]] ^ flip)
        opt[p] = int(charged.min())
    return opt


def _pair_only_models(monkeypatch) -> list:
    models = [m for m in _program_models(monkeypatch) + _bound_models() if _pair_only_parts(m)]
    assert len(models) >= 90, len(models)
    return models


def test_triangle_suffix_is_below_each_suffix_optimum(monkeypatch, watchdog):
    """The triangle bound of position p never exceeds what the pairs among
    order[p:] must charge, over every pair-only model of `_program_models`
    and `_bound_models`; and it is not always 0."""
    watchdog(60)
    packed = 0
    for k, model in enumerate(_pair_only_models(monkeypatch)):
        order, links, _, _ = _pair_only_parts(model)
        suffix = triangle_suffix(order, links)
        assert len(suffix) == len(order) + 1 and suffix[-1] == 0, f"model {k}"
        assert all(a >= b for a, b in zip(suffix, suffix[1:])), f"model {k}"
        opt = _suffix_optima(order, links)
        assert all(s <= o for s, o in zip(suffix, opt)), (k, suffix, opt)
        packed += suffix[0] > 0
    assert packed >= 30, packed


def test_descent_incumbent_is_a_feasible_leaf_at_or_above_the_optimum(monkeypatch, watchdog):
    """The descent leaf, with each pair cost bit settled from its colours,
    keeps every row, costs exactly the U it reports, and U is at least the
    optimum that `solve` proves; on some models it is that optimum."""
    watchdog(60)
    tight = 0
    for k, model in enumerate(_pair_only_models(monkeypatch)):
        order, links, costs, denom = _pair_only_parts(model)
        value, upper = descent_incumbent(order, links, costs)
        assert all(value[vid] in (0, 1) for vid in order), f"model {k}"
        for xu, xv, cvar, when_equal in model.pair_costs:
            value[cvar] = int((value[xu] == value[xv]) == when_equal)
        model.check_assignment(value)
        assert model.objective_value(value) == Fraction(upper, denom), f"model {k}"
        _, stats = solve(model)
        assert stats.proven_optimal and Fraction(upper, denom) >= stats.best_cost, f"model {k}"
        tight += Fraction(upper, denom) == stats.best_cost
    assert tight >= 80, tight


def _rigid_pair_model(when_equal: bool = True) -> IlpModel:
    """Two colour bits and one cost bit in the pair's two rows, as the model builder writes them."""
    model = IlpModel(flip_symmetric=True)
    xu = model.add_var("x_0", "color", (0,))
    xv = model.add_var("x_1", "color", (1,))
    if when_equal:
        c = model.add_var("c_0_1", "conflict", (0, 1))
        model.add_constraint("same_0_1", [(xu, 1), (xv, 1), (c, -1)], 1)
        model.add_constraint("diff_0_1", [(xu, -1), (xv, -1), (c, -1)], -1)
    else:
        c = model.add_var("s_0_1", "stitch", (0, 1))
        model.add_constraint("st_lo_0_1", [(xu, 1), (xv, -1), (c, -1)], 0)
        model.add_constraint("st_hi_0_1", [(xv, 1), (xu, -1), (c, -1)], 0)
    model.objective[c] = Fraction(1)
    model.pair_costs.append((xu, xv, c, when_equal))
    return model


def _extra_row(model: IlpModel) -> None:
    model.add_constraint("pin", [(2, 1)], 0)


def _foreign_bit(model: IlpModel) -> None:
    model.add_var("x_2", "color", (2,))
    con = model.constraints[0]
    model.constraints[0] = Constraint(con.label, (*con.terms, (3, 1)), con.rhs + 1)


def _wrong_sense(model: IlpModel) -> None:
    *bits, when_equal = model.pair_costs[0]
    model.pair_costs[0] = (*bits, not when_equal)


def _shared_cost_bit(model: IlpModel) -> None:
    model.pair_costs.append(model.pair_costs[0])


def _negative_cost(model: IlpModel) -> None:
    model.objective[2] = Fraction(-1)


@pytest.mark.parametrize("when_equal", (True, False))
@pytest.mark.parametrize(
    "breach", (_extra_row, _foreign_bit, _wrong_sense, _shared_cost_bit, _negative_cost)
)
def test_a_model_that_breaks_the_pair_contract_is_refused(breach, when_equal):
    model = _rigid_pair_model(when_equal)
    assignment, stats = solve(model)
    assert assignment[2] == int((assignment[0] == assignment[1]) == when_equal)
    assert stats.best_cost == 0 and row_tables(model).pair_rows == {0, 1}
    breach(model)
    with pytest.raises(SolverError, match="pair"):
        solve(model)


def _reordered_rows(model: IlpModel) -> None:
    """The pair's two rows in the other order, each with its terms reversed."""
    model.constraints[:] = [Constraint(con.label, con.terms[::-1], con.rhs) for con in model.constraints[::-1]]


@pytest.mark.parametrize("when_equal", (True, False))
def test_a_pair_whose_rows_list_their_terms_in_another_order_is_accepted(when_equal):
    # the pair contract is on the rows' terms and bounds, not on their order
    model = _rigid_pair_model(when_equal)
    expected = solve(model)
    _reordered_rows(model)
    assert [con.terms[0][0] for con in model.constraints] == [2, 2]
    assert solve(model) == expected and row_tables(model).pair_rows == {0, 1}


def two_pass_row_tables(model):
    """row_tables as two scans: every row's terms for the pair cost bits, then
    the tables over the rows that hold none."""
    cost_bits = {cvar for _, _, cvar, _ in model.pair_costs}
    skipped = {r for r, con in enumerate(model.constraints) if any(v in cost_bits for v, _ in con.terms)}
    rows = [con for r, con in enumerate(model.constraints) if r not in skipped]
    drops = [[[] for _ in range(model.num_vars)] for _ in (0, 1)]
    slack = []
    for r, con in enumerate(rows):
        for vid, coeff in con.terms:
            drops[coeff > 0][vid].append((r, abs(coeff)))
        slack.append(con.rhs - sum(min(coeff, 0) for _, coeff in con.terms))
    max_coeff = [max((abs(c) for _, c in con.terms), default=0) for con in rows]
    return rows, slack, max_coeff, drops, skipped


def test_row_tables_match_a_two_pass_reference():
    pairs = 0
    for seed in range(60):
        model = _random_model(seed)
        if model is None:
            continue
        assert tuple(row_tables(model)) == two_pass_row_tables(model), seed
        pairs += len(model.pair_costs)
    for feats, cfg in (via_block(3, 4), via_block(4, 4)):
        lg, eg = build_graphs(feats, cfg)
        block = build_model_from_problem(ProblemGraph.from_layout(lg, eg), eg, alpha=cfg.alpha)
        assert tuple(row_tables(block)) == two_pass_row_tables(block)
        pairs += len(block.pair_costs)
    assert pairs > 0


def test_a_time_limited_solve_writes_pair_bits_from_the_colours(monkeypatch):
    """The clock is a call counter, so the search stops at the same node on
    every run: after its first incumbent and before the 4x4 block's proof
    (693 nodes under a deadline, which leaves out the descent incumbent). The deadline is tick 0 + 200. The first dive, one node
    on each of the 16 colour bits (every other bit is a pair cost bit),
    reads no clock; then each node reads one tick, and the read of tick 201
    stops the search: 16 + 200 nodes. Each pair cost bit of that incumbent
    is its colours' indicator."""
    lg, eg = build_graphs(*via_block(4, 4))
    model = build_model_from_problem(ProblemGraph.from_layout(lg, eg), eg)
    assert model.num_vars - len(model.pair_costs) == 16
    ticks = itertools.count()
    monkeypatch.setattr(solver_module, "time", SimpleNamespace(monotonic=lambda: next(ticks)))
    assignment, stats = solve(model, time_limit=200)
    assert not stats.proven_optimal and stats.nodes_explored == 16 + 200
    assert stats.best_cost == model.objective_value(assignment) >= 34
    model.check_assignment(assignment)
    for xu, xv, cvar, when_equal in model.pair_costs:
        assert assignment[cvar] == int((assignment[xu] == assignment[xv]) == when_equal)


def test_solve_leaves_no_garbage():
    # dfs refers to itself; solve must break that cycle on return
    lg, eg = build_graphs(*via_block(3, 4))
    model = build_model_from_problem(ProblemGraph.from_layout(lg, eg), eg)
    gc.collect()
    gc.disable()
    try:
        solve(model)
        assert gc.collect() == 0
        for feats, cfg in (via_block(4, 4), clique4_motif(), stitch_ring()):
            decompose(feats, cfg)
            assert gc.collect() == 0
    finally:
        gc.enable()


def test_solution_satisfies_every_row():
    for seed in (3, 17, 40):
        model = _random_model(seed)
        if model is None:
            continue
        assignment, _ = solve(model)
        model.check_assignment(assignment)  # raises on violation


def test_determinism_byte_identical():
    feats, cfg = clique4_motif()
    lg, eg = build_graphs(feats, cfg)
    runs = []
    for _ in range(2):
        model = build_model_from_problem(ProblemGraph.from_layout(lg, eg), eg)
        assignment, stats = solve(model)
        runs.append((tuple(assignment), stats.nodes_explored, stats.best_cost))
    assert runs[0] == runs[1]


def test_monotonicity_adding_constraint_never_helps():
    rng = random.Random(9)
    for seed in range(20):
        model = _random_model(seed)
        if model is None or model.num_vars == 0:
            continue
        _, before = solve(model)
        v = rng.randrange(model.num_vars)
        model.add_constraint("pin_extra", [(v, 1)], 0)  # forbid v = 1
        pinned_pairs = [p for p in model.pair_costs if p[2] == v]
        if pinned_pairs:
            # a third row on a pair's cost bit breaks the pair contract:
            # solve refuses the model until the pair is no longer declared
            with pytest.raises(SolverError, match="pair contract"):
                solve(model)
            model.pair_costs.remove(pinned_pairs[0])
        try:
            _, after = solve(model)
        except Infeasible:
            continue
        assert after.best_cost >= before.best_cost


def test_brute_force_cap():
    model = IlpModel()
    for i in range(BRUTE_FORCE_CAP + 1):
        model.add_var(f"x_{i}", "color", (i,))
    with pytest.raises(TooLarge):
        brute_force(model)


def test_infeasible_detected():
    model = IlpModel()
    v = model.add_var("x_0", "color", (0,))
    model.add_constraint("ge1", [(v, -1)], -1)  # v >= 1
    model.add_constraint("le0", [(v, 1)], 0)  # v <= 0
    with pytest.raises(Infeasible):
        solve(model)
    with pytest.raises(Infeasible):
        brute_force(model)


def test_brute_force_tie_break_smallest_code():
    model = IlpModel()
    a = model.add_var("x_0", "color", (0,))
    b = model.add_var("x_1", "color", (1,))
    model.add_constraint("one_of", [(a, -1), (b, -1)], -1)  # a + b >= 1
    assignment, cost = brute_force(model)
    assert cost == 0
    # candidates 01, 10, 11 all cost 0; smallest code in search order is 01
    assert assignment == [0, 1]


def test_a_zero_time_limit_returns_the_first_leaf():
    # a model with enough variables that a zero budget cannot finish: the
    # search stops at the first clock read after its first leaf
    feats, cfg = clique4_motif()
    lg, eg = build_graphs(feats, cfg)
    model = build_model_from_problem(ProblemGraph.from_layout(lg, eg), eg)
    assignment, stats = solve(model, time_limit=0.0)
    assert assignment == one_mask_assignment(model)
    assert not stats.proven_optimal and stats.best_cost == model.objective_value(assignment) > 0
    assert solve(model)[1].best_cost == 0


# a cut-free piece's model reads no end-cut graph
_NO_CUTS = EndCutGraph(nodes=[], solid_edges=frozenset(), dash_edges=frozenset())


def _program_layouts() -> list:
    """Seeded random layouts and one of each `gen` kind, with their configs."""
    layouts = [gen_synthetic(kind, 3, 1, Config.from_rules(10, 10)) for kind in KINDS]
    for seed in range(40):
        rng = random.Random(seed)
        feats = random_layout(rng, rng.randrange(2, 12), box=220)
        if feats:
            layouts.append((feats, random_config(rng)))
    return layouts


def _program_models(monkeypatch) -> list:
    """Every model `decompose`, `lelele_baseline` and `solve_monolithic` hand
    to `solve` on `_program_layouts`, and for each cut-free piece that
    `decompose` searches in colour space the model `build_model_from_problem`
    builds for it, in the order of the searches. Each search takes well
    under a second, so one given no limit gets 5 s: a solver that stops
    pruning then fails the caller's test instead of running on, and a
    working one records the same models."""
    layouts = _program_layouts()
    models = []
    real_solve = decomposer_module.solve
    real_search_colours = decomposer_module._search_colours

    def recording_solve(model, time_limit=None):
        models.append(model)
        return real_solve(model, 5.0 if time_limit is None else time_limit)

    def recording_search_colours(piece, vrank, alpha, deadline):
        models.append(build_model_from_problem(piece, _NO_CUTS, alpha=alpha))
        if deadline is None:
            deadline = time.monotonic() + 5.0
        return real_search_colours(piece, vrank, alpha, deadline)

    monkeypatch.setattr(decomposer_module, "solve", recording_solve)
    monkeypatch.setattr(decomposer_module, "_search_colours", recording_search_colours)
    for feats, cfg in layouts:
        decompose(feats, cfg)
        lelele_baseline(build_graphs(feats, cfg.replace(enable_stitch=False))[0])
        solve_monolithic(feats, cfg, time_limit=0.0)
    monkeypatch.undo()
    return models


WORKLOADS = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"


def _smoke_workload_layouts() -> list:
    """Smoke-size via_clusters and random_wires layouts, from the benchmark's generators."""
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    return [workloads.via_clusters(1, i) for i in range(10)] + [
        workloads.random_wires(60, 1350, i) for i in range(20)
    ]


def test_colour_space_search_matches_the_model_it_replaces(monkeypatch, watchdog):
    """Each cut-free piece that `decompose` searches in colour space, on
    `_program_layouts` and smoke-size via_clusters and random_wires layouts,
    under each config, with stitching off and at alpha 0, gets the decoded
    assignment, nodes, cost and proof that `solve` and `decode_assignment`
    give for the model `build_model_from_problem` builds for it; and with a
    deadline already past it gets theirs too: the first leaf, every colour
    0 and every conflict charged, not proven. The searches take about a
    second together, so the test is capped at 60 s."""
    watchdog(60)
    pieces = []
    real_search_colours = decomposer_module._search_colours

    def recording_search_colours(piece, vrank, alpha, deadline):
        pieces.append((piece, vrank, alpha))
        return real_search_colours(piece, vrank, alpha, deadline)

    monkeypatch.setattr(decomposer_module, "_search_colours", recording_search_colours)
    for feats, cfg in _program_layouts() + _smoke_workload_layouts():
        for variant in (cfg, cfg.replace(enable_stitch=False), cfg.replace(alpha=Fraction(0))):
            decompose(feats, variant)
    monkeypatch.undo()
    stitched = {alpha for piece, _, alpha in pieces if piece.stitch_edges}
    assert len(pieces) >= 100 and Fraction(0) in stitched and len(stitched) > 1, (len(pieces), stitched)
    for k, (piece, vrank, alpha) in enumerate(pieces):
        model = build_model_from_problem(piece, _NO_CUTS, alpha=alpha)
        for time_limit in (None, 0.0):
            deadline = None if time_limit is None else time.monotonic() - 1.0
            ranked, stats = real_search_colours(piece, vrank, alpha, deadline)
            decoded = decomposer_module._relabel(ranked, list(vrank), [])
            assignment, want = solve(model, time_limit)
            assert decoded == decode_assignment(model, assignment), (k, time_limit)
            assert stats == want, (k, time_limit)
        assert set(decoded.colors.values()) == {0} and not stats.proven_optimal, k
        assert decoded.conflicts == sorted(piece.conflict_edges) and decoded.stitches == [], k


def test_every_program_model_reaches_the_one_mask_leaf_in_one_dive(monkeypatch):
    """The time-limit rule of `solve` (the deadline is read only once a leaf
    exists) keeps to the limit because the first dive of every model the
    program builds reaches a leaf with no backtrack: at most one node per
    bit it branches on, the pair cost bits being settled, not branched."""
    models = _program_models(monkeypatch)
    kinds = {"leleec" if m.flip_symmetric else "baseline" for m in models}
    assert kinds == {"leleec", "baseline"} and len(models) > 100
    for model in models:
        assignment, stats = solve(model, 0.0)
        assert assignment == one_mask_assignment(model)
        assert not stats.proven_optimal
        assert stats.nodes_explored <= model.num_vars - len(model.pair_costs)
        assert stats.best_cost == model.objective_value(assignment)


NODE_COUNTS = Path(__file__).resolve().parent / "golden" / "solver_node_counts.json"


def test_every_search_keeps_its_recorded_node_count(monkeypatch, watchdog):
    """Each model of `_program_models` and then `_bound_models` keeps the
    nodes_explored, best_cost, proven_optimal and assignment (a sha256
    prefix of its bytes) recorded in `solver_node_counts.json`, one line per
    model. A search shortcut must not move any of them: a bound restored
    wrongly on backtrack prunes differently, and the node counts show it
    even where the optimum holds. Each search runs with no deadline, as the
    CLI runs it, so a cut-free piece starts from its descent incumbent.
    Every recorded search is proven optimal and the test takes about a
    second, so it is capped at 20 s: a solver that stops pruning fails
    here instead of running on."""
    watchdog(20)
    models = _program_models(monkeypatch) + _bound_models()
    recorded = json.loads(NODE_COUNTS.read_text())
    assert len(models) == len(recorded)
    for k, (model, want) in enumerate(zip(models, recorded)):
        assignment, stats = solve(model)
        digest = hashlib.sha256(bytes(assignment)).hexdigest()[:16]
        assert [stats.nodes_explored, str(stats.best_cost), stats.proven_optimal, digest] == want, f"model {k}"


def _backtracking_model(infeasible: bool) -> IlpModel:
    """Three bits whose first dive backtracks: x0 = 0 forces x1 = x2 = 1,
    which x1 + x2 <= 1 forbids. The infeasible variant forbids x0 = 1 the
    same way, over x3 and x4."""
    model = IlpModel()
    x = [model.add_var(f"x_{i}", "color", (i,)) for i in range(5 if infeasible else 3)]
    model.add_constraint("x0_or_x1", [(x[0], -1), (x[1], -1)], -1)
    model.add_constraint("x0_or_x2", [(x[0], -1), (x[2], -1)], -1)
    model.add_constraint("not_both", [(x[1], 1), (x[2], 1)], 1)
    if infeasible:
        model.add_constraint("x0_le_x3", [(x[0], 1), (x[3], -1)], 0)
        model.add_constraint("x0_le_x4", [(x[0], 1), (x[4], -1)], 0)
        model.add_constraint("not_both_3_4", [(x[3], 1), (x[4], 1)], 1)
    for v in x:
        model.objective[v] = Fraction(1)
    return model


def test_the_deadline_is_read_only_after_the_first_leaf(monkeypatch):
    """Every clock read after the one that sets the deadline is past it, so
    each read the search makes stops it; it still runs on until its first
    leaf, or until it proves the model infeasible."""
    reads = []
    fake_time = SimpleNamespace(monotonic=lambda: reads.append(None) or (0.0 if len(reads) == 1 else 1e9))
    monkeypatch.setattr(solver_module, "time", fake_time)
    model = _backtracking_model(infeasible=False)
    assignment, stats = solve(model, time_limit=0.0)
    # node 1, x0 = 0, fails; node 2, x0 = 1; nodes 3-4, x1 = x2 = 0: the leaf
    assert assignment == [1, 0, 0] and stats.nodes_explored == 4
    assert not stats.proven_optimal and len(reads) == 2
    assert solve(model)[0] == [1, 0, 0]
    reads.clear()
    with pytest.raises(Infeasible):
        solve(_backtracking_model(infeasible=True), time_limit=0.0)
    assert len(reads) == 1


def test_search_order_is_kind_then_id():
    model = IlpModel()
    c = model.add_var("c", "conflict", (0, 1))
    x = model.add_var("x", "color", (0,))
    e = model.add_var("ec", "endcut", (0,))
    g = model.add_var("g", "merge", (0, 1, 2, 0, 1))
    s = model.add_var("s", "stitch", (2, 3))
    assert model.search_order() == [x, e, g, c, s]
