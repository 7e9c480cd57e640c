from __future__ import annotations

import itertools
import random
from fractions import Fraction

from leleec import decomposer
from leleec.decomposer import (
    build_graphs,
    closed_form,
    decompose,
    lelele_baseline,
    solve_monolithic,
    split_bridges,
    split_components,
    validate_result,
)
from leleec.endcut import EndCutGraph, build_endcut_graph, generate_candidates
from leleec.geometry import Polygon, Rect, rect_distance
from leleec.ilp_model import (
    Decoded,
    ProblemGraph,
    build_lelele_baseline,
    build_model_from_problem,
    decode_assignment,
    graph_order,
)
from leleec.layout_graph import (
    Config,
    Feature,
    annotate_end_cuts,
    build_conflict_edges,
    feature_index,
    generate_stitch_candidates,
)
from leleec.solver import solve
from leleec.synth import KINDS, gen_synthetic

from conftest import (
    clique4_motif,
    gamma_quad,
    make_features,
    model_shape,
    preselect_ring,
    random_config,
    random_layout,
    stitch_ring,
    via_block,
)

CFG_NS = Config.from_rules(10, 10, enable_stitch=False)


def test_two_distant_features_two_subproblems():
    feats = make_features([(0, 0, 10, 40)], [(200, 0, 210, 40)])
    lg, eg = build_graphs(feats, CFG_NS)
    # two vertices that no edge touches: no component, two lone vertices
    assert split_components(lg, eg) == ([0, 1], [])
    assert decompose(feats, CFG_NS).stats["per_sub"] == [
        {"vertices": 1, "nodes_explored": 0, "cost": "0", "proven_optimal": True}
    ] * 2


def test_endcut_coupling_prevents_component_split():
    # two conflict-free-of-each-other wire pairs whose cuts still conflict
    # under a wide dis_c: the exclusion row ties the components together
    cfg = Config.from_rules(10, 10, w_th=10, dis_c=200, enable_stitch=False)
    feats = make_features(
        [(0, 0, 10, 100)],
        [(20, 0, 30, 100)],
        [(120, 0, 130, 100)],
        [(140, 0, 150, 100)],
    )
    lg, eg = build_graphs(feats, cfg)
    assert sorted(lg.conflict_edges) == [(0, 1), (2, 3)]
    assert eg.solid_edges == {(0, 1)}  # cuts 110 apart, within dis_c = 200
    lone, subs = split_components(lg, eg)
    assert lone == [] and len(subs) == 1


def test_unrelated_cut_components_do_split():
    cfg = Config.from_rules(10, 10, w_th=10, enable_stitch=False)
    feats = make_features(
        [(0, 0, 10, 100)],
        [(20, 0, 30, 100)],
        [(200, 0, 210, 100)],
        [(220, 0, 230, 100)],
    )
    lg, eg = build_graphs(feats, cfg)
    assert eg.solid_edges == set() and eg.dash_edges == set()
    lone, subs = split_components(lg, eg)
    assert lone == [] and len(subs) == 2


def test_path_splits_into_clean_bridges():
    feats = make_features([(0, 0, 10, 40)], [(30, 0, 40, 40)], [(60, 0, 70, 40)])
    lg, eg = build_graphs(feats, CFG_NS)
    ([], [(comp, comp_eg)]) = split_components(lg, eg)
    pieces, bridges = split_bridges(comp, comp_eg)
    assert len(pieces) == 3 and len(bridges) == 2
    # decompose settles the cost-0 path whole, before any bridge split
    res = decompose(feats, CFG_NS)
    assert res.cost == 0
    assert res.colors[0] != res.colors[1] and res.colors[1] != res.colors[2]


def test_cycle_has_no_bridges():
    # triangle of stubs: no bridges, one piece
    feats = make_features([(0, 0, 10, 40)], [(30, 0, 40, 40)], [(14, 60, 26, 70)])
    lg, eg = build_graphs(feats, CFG_NS)
    lone, subs = split_components(lg, eg)
    assert lone == [] and len(subs) == 1
    pieces, bridges = split_bridges(subs[0][0], eg)
    assert bridges == [] and len(pieces) == 1


def test_bridge_with_candidate_is_not_cut():
    cfg = Config.from_rules(10, 10, w_th=10, enable_stitch=False)
    feats = make_features([(0, 0, 10, 60)], [(30, 0, 40, 60)])
    lg, eg = build_graphs(feats, cfg)
    _, subs = split_components(lg, eg)
    pieces, bridges = split_bridges(subs[0][0], eg)
    assert bridges == [] and len(pieces) == 1


def test_bridge_handling_never_silently_ignores_conflicts():
    for seed in range(30):
        rng = random.Random(7000 + seed)
        feats = random_layout(rng, rng.randrange(3, 10), box=260)
        if not feats:
            continue
        cfg = random_config(rng)
        res = decompose(feats, cfg)  # validate_result inside raises on a miss
        lg, eg = build_graphs(feats, cfg)
        validate_result(res, lg, eg)


def test_sliced_endcut_graph_builds_the_full_graph_models():
    layouts = [gen_synthetic("clique4_array", 6, 3, Config.from_rules(10, 10))]
    for seed in range(40):
        rng = random.Random(4000 + seed)
        feats = random_layout(rng, rng.randrange(4, 24), box=300)
        cfg = Config.from_rules(
            10, 10, w_th=rng.choice([10, 12]), dis_c=rng.choice([50, 120]),
            merge_gap=rng.choice([10, 40]), enable_stitch=rng.random() < 0.5,
        )
        layouts.append((feats, cfg))
    sliced_away = cut_bridges = 0
    for feats, cfg in layouts:
        lg, eg = build_graphs(feats, cfg)
        lone, pairs = split_components(lg, eg)
        comps = [comp for comp, _ in pairs]
        slices = [comp_eg for _, comp_eg in pairs]
        assert len(slices) == len(comps)
        assert set().union(*(s.solid_edges for s in slices)) == eg.solid_edges
        assert set().union(*(s.dash_edges for s in slices)) == eg.dash_edges
        in_comps = [v for comp in comps for v in comp.vertex_reps]
        assert sorted([*lone, *in_comps]) == [s.id for s in lg.vertices]
        assert sorted(e for comp in comps for e in comp.conflict_edges) == sorted(lg.conflict_edges)
        for comp, comp_eg in zip(comps, slices):
            assert comp_eg.nodes is eg.nodes
            sliced_away += len(eg.solid_edges) - len(comp_eg.solid_edges)
            pieces, bridges = split_bridges(comp, comp_eg)
            assert (pieces, bridges) == split_bridges(comp, eg)
            # the pieces partition the component's vertices, and each of its
            # conflict edges is in exactly one piece or is a cut bridge
            assert sorted(v for p in pieces for v in p.vertex_reps) == sorted(comp.vertex_reps)
            placed = [e for p in pieces for e in p.conflict_edges] + bridges
            assert sorted(placed) == sorted(comp.conflict_edges)
            cut_bridges += len(bridges)
            for piece in pieces:
                m_slice = build_model_from_problem(piece, comp_eg, alpha=cfg.alpha)
                m_full = build_model_from_problem(piece, eg, alpha=cfg.alpha)
                assert m_slice.variables == m_full.variables
                assert m_slice.constraints == m_full.constraints
                assert m_slice.objective == m_full.objective
    assert sliced_away > 0 and cut_bridges > 0


def _reachable(start, edges):
    """Every vertex joined to start by a path over the edge list (a multigraph)."""
    adj = {}
    for u, v in edges:
        adj.setdefault(u, []).append(v)
        adj.setdefault(v, []).append(u)
    seen, todo = {start}, [start]
    while todo:
        for w in adj.get(todo.pop(), []):
            if w not in seen:
                seen.add(w)
                todo.append(w)
    return seen


def _reference_parts(vertices, conflict_edges, stitch_edges, coupling):
    """Vertex set -> (conflict edges, stitch edges) of each part of the union multigraph."""
    edges = [*conflict_edges, *stitch_edges, *coupling]
    parts, placed = {}, set()
    for v in sorted(vertices):
        if v not in placed:
            part = frozenset(_reachable(v, edges) & set(vertices))
            placed |= part
            parts[part] = (
                {e: c for e, c in conflict_edges.items() if e[0] in part},
                {e for e in stitch_edges if e[0] in part},
            )
    return parts


def _by_vertices(parts):
    return {frozenset(p.vertex_reps): (p.conflict_edges, p.stitch_edges) for p in parts}


def test_split_matches_a_brute_force_reference():
    """Components and clean bridges against a search over the union multigraph.

    A coupling edge joins the conflict edges of two candidates that share a
    solid or dash edge; the reference joins their second ends, the split
    their first ends. A clean bridge is a candidate-free conflict edge whose
    removal leaves its ends unconnected.
    """
    seen = dict.fromkeys(("stitch", "coupling", "dash", "free", "bridges", "pieces"), 0)
    for seed in range(60):
        rng = random.Random(9000 + seed)
        feats = random_layout(rng, rng.randrange(4, 20), box=260)
        cfg = random_config(rng)
        for stitch, with_free in itertools.product((True, False), repeat=2):
            lg, eg = build_graphs(feats, cfg.replace(enable_stitch=stitch))
            anchor = {c: e for e, c in lg.conflict_edges.items() if c is not None}
            # the split couples over solid edges only; the reference over dash edges too
            coupled = [e for e in eg.solid_edges | eg.dash_edges if e[0] in anchor and e[1] in anchor]
            coupling = [(anchor[p][1], anchor[q][1]) for p, q in coupled]
            vertices = [s.id for s in lg.vertices]
            free = _free_edges(lg, eg) if with_free else {}
            lone, got = split_components(lg, eg, frozenset(free))
            # a lone vertex is a part with no edge
            assert lone == sorted(lone) and all(len(c.vertex_reps) > 1 for c, _ in got)
            lone_parts = {frozenset({v}): ({}, set()) for v in lone}
            assert {**_by_vertices(c for c, _ in got), **lone_parts} == _reference_parts(
                vertices,
                {e: c for e, c in lg.conflict_edges.items() if e not in free},
                lg.stitch_edges,
                coupling,
            )
            for comp, comp_eg in got:
                own = {c for c in comp.conflict_edges.values() if c is not None}
                assert comp_eg.solid_edges == {e for e in eg.solid_edges if own & set(e)}
                assert comp_eg.dash_edges == {e for e in eg.dash_edges if own & set(e)}
                comp_coupling = [(anchor[p][1], anchor[q][1]) for p, q in coupled if p in own]
                union = [*comp.conflict_edges, *comp.stitch_edges, *comp_coupling]
                bridges = sorted(
                    e
                    for i, (e, cand) in enumerate(comp.conflict_edges.items())
                    if cand is None and e[1] not in _reachable(e[0], union[:i] + union[i + 1 :])
                )
                pieces, got_bridges = split_bridges(comp, comp_eg)
                assert got_bridges == bridges
                kept = {e: c for e, c in comp.conflict_edges.items() if e not in bridges}
                assert _by_vertices(pieces) == _reference_parts(
                    comp.vertex_reps, kept, comp.stitch_edges, comp_coupling
                )
                seen["bridges"] += len(bridges)
                seen["pieces"] += len(pieces)
            seen["stitch"] += len(lg.stitch_edges)
            seen["coupling"] += len(coupling)
            seen["dash"] += len(eg.dash_edges)
            seen["free"] += len(free)
    assert all(seen.values()), seen


# ---- single-candidate layouts


def test_isolated_pair_contracts_to_zero_cost():
    """A lone candidate-annotated pair costs nothing: its one cut is selected."""
    cfg = Config.from_rules(10, 10, w_th=10, enable_stitch=False)
    feats = make_features([(0, 0, 10, 60)], [(30, 0, 40, 60)])
    res = decompose(feats, cfg)
    assert res.cost == 0 and res.selected_cuts == {0}


def test_preselect_counterexample_ring():
    """The even 8-ring whose only candidate sits on one ring edge costs 0.

    Contracting that edge, as the removed pre-selection did, turned the ring
    odd and cost one conflict.
    """
    feats, cfg = preselect_ring()
    lg, eg = build_graphs(feats, cfg)
    ring_edges = sorted(lg.conflict_edges)
    assert len(ring_edges) == 8 and len(eg.nodes) == 1
    assert eg.solid_edges == set()

    res = decompose(feats, cfg)
    assert res.cost == 0


# ---- whole pipeline


def test_motif_decomposes_conflict_free(motif):
    feats, cfg = motif
    res = decompose(feats, cfg)
    assert res.cost == 0 and len(res.selected_cuts) >= 2


def test_empty_layout():
    res = decompose([], CFG_NS)
    assert res.cost == 0 and res.colors == {} and res.trim_rects == []


def test_speedups_preserve_optimality_on_random_layouts():
    for seed in range(60):
        rng = random.Random(seed)
        feats = random_layout(rng, rng.randrange(2, 10), box=220)
        if not feats:
            continue
        cfg = random_config(rng)
        fast = decompose(feats, cfg)
        mono, _ = solve_monolithic(feats, cfg)
        assert fast.cost == mono.cost, f"seed {seed}"


def test_monolithic_solve_is_one_merged_outcome():
    """The oracle's one solve goes through the merge: its stats hold one
    `per_sub` entry for the whole layout, and its cost is the model's."""
    feats, cfg = clique4_motif()
    mono, model = solve_monolithic(feats, cfg)
    (entry,) = mono.stats["per_sub"]
    assert mono.stats["sub_problems"] == 1 and mono.stats["proven_optimal"]
    assert entry == {
        "vertices": len(mono.colors),
        "nodes_explored": mono.stats["nodes_explored"],
        "cost": "0",
        "proven_optimal": True,
    }
    assert mono.cost == 0 and model.num_vars > len(mono.colors)


def _free_edges(lg, eg):
    """Conflict edge -> candidate, for each annotated candidate on no solid or dash edge."""
    cut_edges = [*eg.solid_edges, *eg.dash_edges]
    return {
        e: c
        for e, c in lg.conflict_edges.items()
        if c is not None and not any(c in pair for pair in cut_edges)
    }


def _same_mask_cuts(res, free):
    return {c for (u, v), c in free.items() if res.colors[u] == res.colors[v]}


def test_zero_time_limit_gives_valid_one_mask_pieces():
    # every searched piece stops after its first leaf: one mask with every
    # conflict charged, found in one dive, which its nodes count; closed-form
    # components and pieces stay exact; free cuts lie outside every piece, so
    # each one is selected when its ends share a mask; decompose validates
    # the merged result
    proven = free_selected = dives = 0
    for seed in range(30):
        rng = random.Random(seed)
        feats = random_layout(rng, rng.randrange(2, 10), box=220)
        if not feats:
            continue
        cfg = random_config(rng)
        res = decompose(feats, cfg, time_limit=0.0)
        lg, eg = build_graphs(feats, cfg)
        free = _free_edges(lg, eg)
        searched = [
            (piece, comp_eg)
            for comp, comp_eg in split_components(lg, eg, frozenset(free))[1]
            if closed_form(comp, cfg.alpha) is None
            for piece in split_bridges(comp, comp_eg)[0]
            if closed_form(piece, cfg.alpha) is None
        ]
        assert res.stats["proven_optimal"] is not bool(searched), f"seed {seed}"
        assert res.selected_cuts == _same_mask_cuts(res, free) and res.stitches == []
        assert res.cost == len(res.conflicts)
        dive = 0
        for piece, comp_eg in searched:
            assert len({res.colors[v] for v in piece.vertex_reps}) == 1, f"seed {seed}"
            model = build_model_from_problem(piece, comp_eg, alpha=cfg.alpha)
            dive += solve(model, 0.0)[1].nodes_explored
        assert res.stats["nodes_explored"] == dive, f"seed {seed}"
        proven += not searched
        free_selected += len(res.selected_cuts)
        dives += dive
    assert 0 < proven < 30 and free_selected > 0 and dives > 0


def test_a_time_limited_monolithic_solve_returns_its_first_leaf():
    """The oracle path keeps the one rule too: its one model's first leaf is
    found before the deadline is read, as each piece's is in decompose."""
    feats, cfg = via_block(4, 4)
    mono, _ = solve_monolithic(feats, cfg, time_limit=0)
    lg, eg = build_graphs(feats, cfg)
    validate_result(mono, lg, eg)
    assert mono.stats["proven_optimal"] is False
    fast = decompose(feats, cfg, time_limit=0)
    assert mono.colors == fast.colors and mono.cost == fast.cost > 0


def test_free_cuts_match_the_monolithic_solve():
    """Free-cut edges stay out of the split, yet decompose costs what one
    whole-layout model costs, and selects exactly the free cuts whose ends
    share a mask."""
    holding = free_edges = 0
    for seed in range(60):
        rng = random.Random(seed)
        feats = random_layout(rng, rng.randrange(2, 10), box=220)
        if not feats:
            continue
        cfg = random_config(rng)
        for stitch in (True, False):
            c = cfg.replace(enable_stitch=stitch)
            fast = decompose(feats, c)
            mono, _ = solve_monolithic(feats, c)
            assert fast.cost == mono.cost, f"seed {seed}"
            lg, eg = build_graphs(feats, c)
            free = _free_edges(lg, eg)
            assert fast.selected_cuts & set(free.values()) == _same_mask_cuts(fast, free), f"seed {seed}"
            if stitch:
                holding += bool(free)
                free_edges += len(free)
    assert (holding, free_edges) == (25, 32)


def _closed_form_against_solver(piece, eg, alpha):
    """"accepted" or "rejected" once checked against the solver, else None.

    A piece the closed form settles must get the solver's own answer at
    cost 0; a cut-free piece it leaves to the solver while alpha > 0 must
    cost more than 0 there.
    """
    fast = closed_form(piece, alpha)
    cut_free = all(cand is None for cand in piece.conflict_edges.values())
    if fast is None and not (cut_free and alpha > 0):
        return None
    model = build_model_from_problem(piece, eg, alpha=alpha)
    assignment, stats = solve(model)
    if fast is None:
        assert stats.best_cost > 0, piece
        return "rejected"
    assert decode_assignment(model, assignment) == fast, piece
    assert stats.best_cost == 0 and stats.proven_optimal, piece
    return "accepted"


def test_closed_form_on_order_sensitive_pieces():
    empty = EndCutGraph(nodes=[], solid_edges=set(), dash_edges=set())
    # a 2x3 ladder: the first vertex in colour order is 1 (degree 3), not 0
    ladder = ProblemGraph(
        set(range(6)), dict.fromkeys([(0, 1), (1, 2), (3, 4), (4, 5), (0, 3), (1, 4), (2, 5)]), set()
    )
    assert _closed_form_against_solver(ladder, empty, Fraction(1, 10)) == "accepted"
    assert closed_form(ladder, Fraction(1, 10)).colors[0] == 1
    # colour order 1, 2, 0, 3: parity gives 3 its neighbour 2's colour 1,
    # but at alpha = 0 the solver takes 3 = 0 and a free stitch
    tail = ProblemGraph({0, 1, 2, 3}, {(0, 1): None, (1, 2): None}, {(2, 3)})
    assert _closed_form_against_solver(tail, empty, Fraction(1, 10)) == "accepted"
    assert closed_form(tail, Fraction(0)) is None
    model = build_model_from_problem(tail, empty, alpha=Fraction(0))
    assert decode_assignment(model, solve(model)[0]).stitches == [(2, 3)]


def _closed_form_layouts():
    """The 60 seeded random layouts and the gen kinds (n <= 3, seeds 0-2),
    each with its own settings and at alpha 0."""
    layouts = []
    for seed in range(60):
        rng = random.Random(seed)
        feats = random_layout(rng, rng.randrange(2, 10), box=220)
        if feats:
            cfg = random_config(rng)
            layouts += [(feats, cfg), (feats, cfg.replace(alpha=Fraction(0)))]
    for kind in KINDS:
        for n in (1, 2, 3):
            for seed in (0, 1, 2):
                feats, cfg = gen_synthetic(kind, n, seed, Config.from_rules(10, 10))
                layouts += [(feats, cfg), (feats, cfg.replace(alpha=Fraction(0)))]
    return layouts


def _every_component(lg, eg, cut=frozenset()):
    """`split_components` with each lone vertex as a one-vertex component,
    in root order: the settled colour 0 of a lone vertex is checked too."""
    lone, comps = split_components(lg, eg, cut)
    empty = EndCutGraph(nodes=eg.nodes, solid_edges=frozenset(), dash_edges=frozenset())
    comps += [(ProblemGraph(vertex_reps={v}), empty) for v in lone]
    return sorted(comps, key=lambda pair: min(pair[0].vertex_reps))


def test_closed_form_pieces_match_the_solver():
    outcomes = []
    for feats, cfg in _closed_form_layouts():
        lg, eg = build_graphs(feats, cfg)
        for comp, comp_eg in _every_component(lg, eg):
            for piece in split_bridges(comp, comp_eg)[0]:
                outcomes.append(
                    _closed_form_against_solver(piece, comp_eg, cfg.alpha)
                )
    accepted, rejected = outcomes.count("accepted"), outcomes.count("rejected")
    assert accepted > 300 and rejected > 10, (accepted, rejected)


def test_closed_form_components_match_the_solver():
    # decompose settles these components whole, with no bridge split
    settled = bridged = 0
    for feats, cfg in _closed_form_layouts():
        lg, eg = build_graphs(feats, cfg)
        for comp, comp_eg in _every_component(lg, eg, frozenset(_free_edges(lg, eg))):
            if closed_form(comp, cfg.alpha) is not None:
                assert _closed_form_against_solver(comp, comp_eg, cfg.alpha) == "accepted"
                settled += 1
                bridged += bool(split_bridges(comp, comp_eg)[1])
    assert settled > 300 and bridged > 50, (settled, bridged)


def _closed_form_by_graph_order(piece, alpha):
    """`closed_form` as first defined: colours given in `graph_order` over the
    same edges, each part's first vertex 0 and every other vertex its colour
    from an earlier neighbour; None on an odd cycle."""
    if any(cand is not None for cand in piece.conflict_edges.values()):
        return None
    if piece.stitch_edges and not alpha > 0:
        return None
    adj = {v: [] for v in piece.vertex_reps}
    for edges, parity in ((piece.conflict_edges, 1), (piece.stitch_edges, 0)):
        for u, v in edges:
            adj[u].append((v, parity))
            adj[v].append((u, parity))
    colors = {}
    for u in graph_order(piece.vertex_reps, [*piece.conflict_edges, *piece.stitch_edges]):
        color = colors.setdefault(u, 0)
        for w, parity in adj[u]:
            if colors.setdefault(w, color ^ parity) != color ^ parity:
                return None
    return Decoded(colors=colors, selected=set(), conflicts=[], stitches=[])


def _random_cut_free_piece(rng):
    """One to three parts on scattered ids: a lone vertex, a stitch-only
    chain, or random conflict and stitch edges over a path; one conflict
    edge in ten pieces carries a candidate."""
    ids = rng.sample(range(60), 14)
    conflict, stitch, parts = {}, set(), []
    for _ in range(rng.randint(1, 3)):
        kind = rng.choice(["lone", "stitch", "mixed", "mixed"])
        size = 1 if kind == "lone" else rng.randint(2, 6 if kind == "stitch" else 9)
        part, ids = ids[:size], ids[size:]
        if not part:
            break
        parts.append(part)
        pairs = [(min(a, b), max(a, b)) for a, b in zip(part, part[1:])]  # a path joins the part
        if kind == "mixed":
            more = list(itertools.combinations(sorted(part), 2))
            pairs += rng.sample(more, min(len(more), rng.randint(0, len(part))))
        for e in pairs:
            if kind == "stitch" or (rng.random() < 0.25 and e not in conflict):
                stitch.add(e)
            else:
                conflict[e] = None
        stitch -= set(conflict)
    if conflict and rng.random() < 0.1:
        conflict[rng.choice(sorted(conflict))] = 0
    return ProblemGraph({v for part in parts for v in part}, conflict, stitch), parts


def test_closed_form_matches_its_graph_order_definition():
    seen = dict.fromkeys(("accepted", "odd", "parts", "lone", "stitch_only", "tie", "root_not_min"), 0)
    for seed in range(1000):
        rng = random.Random(seed)
        piece, parts = _random_cut_free_piece(rng)
        for alpha in (Fraction(0), Fraction(1, 10)):
            got = closed_form(piece, alpha)
            assert got == _closed_form_by_graph_order(piece, alpha), (seed, alpha, piece)
            if got is None:
                cut_free = all(c is None for c in piece.conflict_edges.values())
                seen["odd"] += cut_free and (alpha > 0 or not piece.stitch_edges)
                continue
            seen["accepted"] += 1
            seen["parts"] += len(parts) > 1
            seen["lone"] += len(parts) > 1 and any(len(part) == 1 for part in parts)
            seen["stitch_only"] += any(
                len(part) > 1 and not any(e[0] in part for e in piece.conflict_edges) for part in parts
            )
            for part in parts:
                degree = {v: 0 for v in part}
                for u, v in [*piece.conflict_edges, *piece.stitch_edges]:
                    if u in degree:
                        degree[u] += 1
                        degree[v] += 1
                top = max(degree.values())
                seen["tie"] += sum(d == top for d in degree.values()) > 1
                seen["root_not_min"] += got.colors[min(part)] == 1
    assert all(count > 40 for count in seen.values()), sorted(seen.items())


def _memo_layouts():
    """The 60 seeded random layouts and the gen kinds (n <= 3, seeds 0-2), each
    with its own settings, without stitches and at alpha 0."""
    layouts = []
    for seed in range(60):
        rng = random.Random(seed)
        feats = random_layout(rng, rng.randrange(2, 10), box=220)
        if feats:
            layouts.append((feats, random_config(rng)))
    for kind in KINDS:
        for n in (1, 2, 3):
            for seed in (0, 1, 2):
                layouts.append(gen_synthetic(kind, n, seed, Config.from_rules(10, 10)))
    return [
        (feats, c)
        for feats, cfg in layouts
        for c in (cfg, cfg.replace(enable_stitch=False), cfg.replace(alpha=Fraction(0)))
    ]


def _piece_model(piece, eg, cfg):
    return build_model_from_problem(piece, eg, alpha=cfg.alpha)


def test_equal_piece_keys_give_equal_models():
    shapes, pieces = {}, 0
    for feats, cfg in _memo_layouts():
        lg, eg = build_graphs(feats, cfg)
        for comp, comp_eg in split_components(lg, eg)[1]:
            for piece in split_bridges(comp, comp_eg)[0]:
                if closed_form(piece, cfg.alpha) is not None:
                    continue
                key = (cfg.enable_stitch, cfg.alpha, decomposer._rank_space(piece, comp_eg)[0])
                shape = model_shape(_piece_model(piece, comp_eg, cfg))
                assert shapes.setdefault(key, shape) == shape, piece
                pieces += 1
    assert pieces - len(shapes) > 100, (pieces, len(shapes))


def test_piece_keys_tell_cut_edges_apart():
    # one clique4 motif, then the same piece with one dash edge, one solid
    # edge or one candidate fewer: each changes the model, so the key
    feats, cfg = clique4_motif()
    lg, eg = build_graphs(feats, cfg)
    ([], [(piece, comp_eg)]) = split_components(lg, eg)
    nodes, solid, dash = comp_eg.nodes, comp_eg.solid_edges, comp_eg.dash_edges
    no_dash = EndCutGraph(nodes, solid, dash - {min(dash)})
    no_solid = EndCutGraph(nodes, solid - {min(solid)}, dash)
    uncut_edges = {**piece.conflict_edges, min(piece.conflict_edges): None}
    uncut = ProblemGraph(piece.vertex_reps, uncut_edges, piece.stitch_edges)
    variants = [(piece, comp_eg), (piece, no_dash), (piece, no_solid), (uncut, comp_eg)]
    keys = {decomposer._rank_space(p, e)[0] for p, e in variants}
    models = {model_shape(_piece_model(p, e, cfg)) for p, e in variants}
    assert len(keys) == len(models) == len(variants)


def _masked(res):
    per_sub = [{**entry, "nodes_explored": 0} for entry in res.stats["per_sub"]]
    return (
        res.colors,
        res.selected_cuts,
        [tuple(r) for r in res.trim_rects],
        res.conflicts,
        res.stitches,
        res.cost,
        {**res.stats, "nodes_explored": 0, "per_sub": per_sub},
    )


def test_reused_pieces_match_their_own_solves(monkeypatch):
    layouts = _memo_layouts()
    with_memo = [decompose(feats, cfg) for feats, cfg in layouts]
    rank_space = decomposer._rank_space
    # a fresh key per piece: no piece is ever a repeat
    monkeypatch.setattr(
        decomposer, "_rank_space", lambda piece, eg: (object(), *rank_space(piece, eg)[1:])
    )
    without = [decompose(feats, cfg) for feats, cfg in layouts]
    assert [_masked(r) for r in with_memo] == [_masked(r) for r in without]
    reused = sum(
        a["nodes_explored"] == 0 < b["nodes_explored"]
        for ra, rb in zip(with_memo, without)
        for a, b in zip(ra.stats["per_sub"], rb.stats["per_sub"])
    )
    assert reused > 50, reused


def _stage_by_stage(features, cfg):
    """build_graphs' stages called one by one, each with a fresh feature index."""
    g0 = build_conflict_edges(features, cfg, feature_index(features, cfg))
    pairs = sorted(g0.conflict_edges)
    candidates = generate_candidates(features, pairs, cfg, feature_index(features, cfg))
    g = generate_stitch_candidates(features, g0, cfg) if cfg.enable_stitch else g0
    g = annotate_end_cuts(g, candidates)
    return g, build_endcut_graph(candidates, features, cfg, feature_index(features, cfg))


def _wires(rng, n, window, cfg):
    """Up to n straight wires 10-12 wide and 40-240 long at >= s_min spacing."""
    rects = []
    for _ in range(20 * n):
        if len(rects) == n:
            break
        width, length = rng.randint(10, 12), rng.randint(40, 240)
        dx, dy = (length, width) if rng.random() < 0.5 else (width, length)
        x, y = rng.randrange(window - dx), rng.randrange(window - dy)
        r = Rect(x, y, x + dx, y + dy)
        if all(rect_distance(r, o) >= cfg.s_min**2 for o in rects):
            rects.append(r)
    return [Feature(i, Polygon.of(r)) for i, r in enumerate(rects)]


def test_shared_index_front_end_matches_stage_by_stage():
    layouts = []
    for seed in range(6):
        cfg = Config.from_rules(10, 10, enable_stitch=seed % 3 != 2)
        layouts.append((_wires(random.Random(seed), 120, 1900, cfg), cfg))
        feats, motif_cfg = gen_synthetic("clique4_array", 8 + seed, seed, Config.from_rules(10, 10))
        layouts.append((feats, motif_cfg.replace(enable_stitch=seed % 2 == 0)))
    seen = dict.fromkeys(("cut_edges", "stitch", "solid", "dash"), 0)
    for feats, cfg in layouts:
        lg, eg = build_graphs(feats, cfg)
        ref_lg, ref_eg = _stage_by_stage(feats, cfg)
        assert lg.vertices == ref_lg.vertices
        assert list(lg.conflict_edges.items()) == list(ref_lg.conflict_edges.items())
        assert lg.stitch_edges == ref_lg.stitch_edges
        assert (eg.nodes, eg.solid_edges, eg.dash_edges) == (ref_eg.nodes, ref_eg.solid_edges, ref_eg.dash_edges)
        seen["cut_edges"] += sum(c is not None for c in lg.conflict_edges.values())
        seen["stitch"] += len(lg.stitch_edges)
        seen["solid"] += len(eg.solid_edges)
        seen["dash"] += len(eg.dash_edges)
    assert all(seen.values()), seen


def test_pipeline_determinism():
    feats, cfg = stitch_ring()
    a = decompose(feats, cfg)
    b = decompose(feats, cfg)
    assert a.colors == b.colors
    assert a.selected_cuts == b.selected_cuts
    assert a.conflicts == b.conflicts and a.stitches == b.stitches
    assert a.cost == b.cost
    assert [tuple(r) for r in a.trim_rects] == [tuple(r) for r in b.trim_rects]


def test_stitch_ring_costs():
    feats, cfg = stitch_ring()
    res = decompose(feats, cfg)
    assert res.cost == Fraction(1, 10)
    assert len(res.stitches) == 1 and res.conflicts == []
    cfg_ns = Config.from_rules(10, 10, enable_stitch=False)
    res_ns = decompose(feats, cfg_ns)
    assert res_ns.cost == 1


def test_gamma_quad_through_pipeline():
    feats, cfg = gamma_quad()
    res = decompose(feats, cfg)
    assert res.cost == 0
    assert res.selected_cuts == {0, 1}
    assert [tuple(r) for r in res.trim_rects] == [(10, 8, 28, 100)]


def _baseline_matches_whole_model(feats, cfg, where):
    """The per-component baseline against one three-mask model of the whole layout."""
    lg = build_conflict_edges(feats, cfg, feature_index(feats, cfg))
    whole = build_lelele_baseline(
        ProblemGraph.from_layout(lg, EndCutGraph(nodes=[], solid_edges=set(), dash_edges=set()))
    )
    assignment, stats = solve(whole)
    ref = decode_assignment(whole, assignment)
    res = lelele_baseline(lg)
    assert res.stats["proven_optimal"] and stats.proven_optimal, where
    assert res.colors == ref.colors, where
    assert res.conflicts == ref.conflicts, where
    assert res.cost == stats.best_cost == len(res.conflicts), where
    return res


def test_baseline_per_component_equals_whole_model_on_gen_layouts():
    # no tie breaks differently: the whole model's first optimum in search
    # order is the product of each component's first optimum
    split = 0
    for kind in KINDS:
        for n in (1, 2, 3):
            for seed in (0, 1, 2):
                feats, cfg = gen_synthetic(kind, n, seed, Config.from_rules(10, 10))
                res = _baseline_matches_whole_model(feats, cfg, (kind, n, seed))
                split += res.stats["sub_problems"] > 1
    assert split > 0


def test_baseline_per_component_equals_whole_model_on_random_layouts():
    for seed in range(60):
        rng = random.Random(seed)
        feats = random_layout(rng, rng.randrange(2, 10), box=220)
        if feats:
            _baseline_matches_whole_model(feats, random_config(rng), f"seed {seed}")
