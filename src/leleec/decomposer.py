"""Pipeline orchestration and optimality-preserving problem decomposition.

Speedups, in order: independent components of the union graph (conflict,
stitch and end-cut coupling edges), optional end-cut pre-selection (vertex
contraction of zero-exclusion candidates), and clean-bridge splitting. A
clean bridge is a conflict edge that is a bridge of the union multigraph and
carries no candidate; after solving both sides, the smaller side's colors
are flipped when the bridge endpoints collide (color-flip symmetry keeps
each side's cost).

Pre-selection contracts color variables only; every original conflict edge
keeps its own conflict/cut variables, so charged costs always refer to real
edges. Contraction can still cost optimality by flipping conflict-cycle
parity, which is why it defaults off.

The work per layout stays linear in its edges: conflict and stitch edges
are bucketed by component, and by piece after a bridge split, in one pass
each. Every component gets its own slice of the end-cut graph
(`component_endcut_graphs`): the same nodes, but only its own solid and
dash edges, which is exact because coupling edges joined the components.
Pre-selection, the bridge search and the piece models read the slice;
the trim-rect merge and `validate_result` read the full graph.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from fractions import Fraction

from .endcut import EndCutGraph, generate_candidates, build_endcut_graph
from .ilp_model import (
    DecompResult,
    IlpModel,
    ProblemGraph,
    build_model_from_problem,
    extract_result,
    merged_trim_rects,
)
from .layout_graph import (
    Config,
    EdgeKey,
    Feature,
    LayoutGraph,
    annotate_end_cuts,
    build_conflict_edges,
    generate_stitch_candidates,
)
from .solver import SolveStats, solve


class DecompositionError(ValueError):
    pass


@dataclass
class SubProblem:
    """One independent component, possibly contracted by pre-selection.

    rep maps every original vertex to its color-variable representative;
    conflict/stitch edges keep their original keys.
    """

    vertex_ids: list[int]
    rep: dict[int, int]
    conflict_edges: dict[EdgeKey, tuple[int, ...]]
    stitch_edges: set[EdgeKey]
    preselected: tuple[int, ...] = ()


class _UnionFind:
    def __init__(self, items):
        self.parent = {i: i for i in items}

    def find(self, i):
        p = self.parent
        while p[i] != i:
            p[i] = p[p[i]]
            i = p[i]
        return i

    def union(self, a, b):
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            # keep the smaller id as representative for determinism
            if rb < ra:
                ra, rb = rb, ra
            self.parent[rb] = ra


def _candidate_anchor(lg: LayoutGraph) -> dict[int, EdgeKey]:
    """candidate id -> the conflict edge it annotates."""
    anchors: dict[int, EdgeKey] = {}
    for edge in sorted(lg.conflict_edges):
        cand = lg.conflict_edges[edge]
        if cand is not None:
            anchors[cand] = edge
    return anchors


def split_components(lg: LayoutGraph, eg: EndCutGraph) -> list[SubProblem]:
    """Connected components of CE ∪ SE plus end-cut coupling links."""
    uf = _UnionFind([s.id for s in lg.vertices])
    for u, v in lg.conflict_edges:
        uf.union(u, v)
    for u, v in lg.stitch_edges:
        uf.union(u, v)
    anchors = _candidate_anchor(lg)
    for p, q in sorted(eg.solid_edges | eg.dash_edges):
        if p in anchors and q in anchors:
            uf.union(anchors[p][0], anchors[q][0])

    members: dict[int, list[int]] = {}
    for s in lg.vertices:
        members.setdefault(uf.find(s.id), []).append(s.id)
    edges_of: dict[int, dict[EdgeKey, tuple[int, ...]]] = {root: {} for root in members}
    for e in sorted(lg.conflict_edges):
        cand = lg.conflict_edges[e]
        edges_of[uf.find(e[0])][e] = () if cand is None else (cand,)
    stitches_of: dict[int, set[EdgeKey]] = {root: set() for root in members}
    for e in lg.stitch_edges:
        stitches_of[uf.find(e[0])].add(e)

    return [
        SubProblem(
            vertex_ids=members[root],
            rep={v: v for v in members[root]},
            conflict_edges=edges_of[root],
            stitch_edges=stitches_of[root],
            preselected=(),
        )
        for root in sorted(members)
    ]


def component_endcut_graphs(
    lg: LayoutGraph, eg: EndCutGraph, subs: list[SubProblem]
) -> list[EndCutGraph]:
    """Each component's slice of the end-cut graph, aligned with `subs`.

    A slice shares `nodes` with eg and holds the solid and dash edges whose
    candidates are annotated in that component. Coupling edges joined the
    components, so an edge between two annotated candidates never spans two
    of them; an edge with one unannotated candidate goes with the other one.
    Every model, bridge search and pre-selection over a piece of a
    component reads the same edges from its slice as from eg.
    """
    comp_of = {v: k for k, sub in enumerate(subs) for v in sub.vertex_ids}
    anchors = _candidate_anchor(lg)
    slices = [EndCutGraph(nodes=eg.nodes, solid_edges=set(), dash_edges=set()) for _ in subs]
    for p, q in eg.solid_edges:
        anchor = anchors.get(p) or anchors.get(q)
        if anchor is not None:
            slices[comp_of[anchor[0]]].solid_edges.add((p, q))
    for p, q in eg.dash_edges:
        anchor = anchors.get(p) or anchors.get(q)
        if anchor is not None:
            slices[comp_of[anchor[0]]].dash_edges.add((p, q))
    return slices


def preselect_endcuts(sub: SubProblem, eg: EndCutGraph) -> SubProblem:
    """Contract the endpoints of every candidate with zero solid exclusions.

    The candidate itself stays in the model (its selection becomes free and
    is forced by the now-internal conflict edge), so reported cuts and costs
    come from the solve itself.
    """
    solid_touch: set[int] = set()
    for p, q in eg.solid_edges:
        solid_touch.add(p)
        solid_touch.add(q)

    uf = _UnionFind(sub.vertex_ids)
    chosen = []
    for edge in sorted(sub.conflict_edges):
        for cand in sub.conflict_edges[edge]:
            if cand not in solid_touch:
                uf.union(edge[0], edge[1])
                chosen.append(cand)
    if not chosen:
        return sub
    rep = {v: uf.find(sub.rep[v]) for v in sub.vertex_ids}
    return SubProblem(
        vertex_ids=sub.vertex_ids,
        rep=rep,
        conflict_edges=sub.conflict_edges,
        stitch_edges=sub.stitch_edges,
        preselected=tuple(sorted(chosen)),
    )


def _rep_edge(sub: SubProblem, e: EdgeKey) -> EdgeKey | None:
    a, b = sub.rep[e[0]], sub.rep[e[1]]
    if a == b:
        return None
    return (a, b) if a < b else (b, a)


def find_bridges(vertices: list[int], edges: list[tuple[int, int]]) -> list[int]:
    """Indices of bridge edges in a multigraph (iterative lowpoint search)."""
    adj: dict[int, list[tuple[int, int]]] = {v: [] for v in vertices}
    for idx, (u, v) in enumerate(edges):
        adj[u].append((v, idx))
        adj[v].append((u, idx))
    disc: dict[int, int] = {}
    low: dict[int, int] = {}
    bridges: list[int] = []
    counter = 0
    for start in vertices:
        if start in disc:
            continue
        stack: list[tuple[int, int, int]] = [(start, -1, 0)]
        disc[start] = low[start] = counter
        counter += 1
        while stack:
            v, parent_edge, i = stack.pop()
            if i < len(adj[v]):
                stack.append((v, parent_edge, i + 1))
                w, eidx = adj[v][i]
                if eidx == parent_edge:
                    continue
                if w not in disc:
                    disc[w] = low[w] = counter
                    counter += 1
                    stack.append((w, eidx, 0))
                else:
                    low[v] = min(low[v], disc[w])
            elif parent_edge != -1:
                u = edges[parent_edge][0] if edges[parent_edge][1] == v else edges[parent_edge][1]
                low[u] = min(low[u], low[v])
                if low[v] > disc[u]:
                    bridges.append(parent_edge)
    return sorted(bridges)


def split_bridges(sub: SubProblem, eg: EndCutGraph) -> tuple[list[SubProblem], list[EdgeKey]]:
    """Cut clean bridges; returns (pieces, cut bridge edges in original keys).

    The bridge search runs on the representative-level union multigraph of
    conflict, stitch and end-cut coupling edges, so a conflict edge that is
    paralleled by a stitch path or an end-cut relation is never cut.
    """
    reps = sorted(set(sub.rep.values()))
    edge_list: list[tuple[int, int]] = []
    origin: list[EdgeKey | None] = []  # original CE key, None for SE/coupling edges
    for e in sorted(sub.conflict_edges):
        re = _rep_edge(sub, e)
        if re is not None:
            edge_list.append(re)
            origin.append(e)
    for e in sorted(sub.stitch_edges):
        re = _rep_edge(sub, e)
        if re is not None:
            edge_list.append(re)
            origin.append(None)

    cand_anchor: dict[int, EdgeKey] = {}
    for e in sorted(sub.conflict_edges):
        for cand in sub.conflict_edges[e]:
            cand_anchor[cand] = e
    for p, q in sorted(eg.solid_edges | eg.dash_edges):
        if p in cand_anchor and q in cand_anchor:
            ra = _rep_edge(sub, cand_anchor[p])
            rb = _rep_edge(sub, cand_anchor[q])
            a = sub.rep[cand_anchor[p][0]] if ra is None else ra[0]
            b = sub.rep[cand_anchor[q][0]] if rb is None else rb[0]
            if a != b:
                edge_list.append((a, b) if a < b else (b, a))
                origin.append(None)

    clean: list[tuple[int, EdgeKey]] = []
    for idx in find_bridges(reps, edge_list):
        orig = origin[idx]
        if orig is not None and not sub.conflict_edges[orig]:
            clean.append((idx, orig))
    if not clean:
        return [sub], []

    cut_idx = {idx for idx, _ in clean}
    uf = _UnionFind(reps)
    for idx, (u, v) in enumerate(edge_list):
        if idx not in cut_idx:
            uf.union(u, v)
    group_of = {v: uf.find(sub.rep[v]) for v in sub.vertex_ids}
    groups: dict[int, list[int]] = {}
    for v in sorted(sub.vertex_ids):
        groups.setdefault(group_of[v], []).append(v)
    # a conflict edge that is not a cut bridge, and every stitch edge, joins
    # vertices of one group
    bridge_keys = {orig for _, orig in clean}
    edges_of: dict[int, dict[EdgeKey, tuple[int, ...]]] = {root: {} for root in groups}
    for e in sorted(sub.conflict_edges):
        if e not in bridge_keys:
            edges_of[group_of[e[0]]][e] = sub.conflict_edges[e]
    stitches_of: dict[int, set[EdgeKey]] = {root: set() for root in groups}
    for e in sub.stitch_edges:
        stitches_of[group_of[e[0]]].add(e)

    pieces = [
        SubProblem(
            vertex_ids=groups[root],
            rep={v: sub.rep[v] for v in groups[root]},
            conflict_edges=edges_of[root],
            stitch_edges=stitches_of[root],
            preselected=sub.preselected,
        )
        for root in sorted(groups)
    ]
    return pieces, sorted(orig for _, orig in clean)


def _problem_graph(sub: SubProblem) -> ProblemGraph:
    return ProblemGraph(
        vertex_reps=dict(sorted(sub.rep.items())),
        conflict_edges=dict(sorted(sub.conflict_edges.items())),
        stitch_edges=set(sub.stitch_edges),
    )


@dataclass
class PieceOutcome:
    sub: SubProblem
    colors: dict[int, int]  # original vertex -> 0/1
    selected: set[int]
    conflicts: list[EdgeKey]
    stitches: list[EdgeKey]
    cost: Fraction
    stats: SolveStats


def _solve_piece(
    sub: SubProblem, eg: EndCutGraph, cfg: Config, time_limit: float | None
) -> PieceOutcome:
    model = build_model_from_problem(
        _problem_graph(sub),
        eg,
        corrected=True,
        with_stitch=cfg.enable_stitch,
        alpha=cfg.alpha,
    )
    assignment, stats = solve(model, time_limit)
    rep_color: dict[int, int] = {}
    selected: set[int] = set()
    conflicts: list[EdgeKey] = []
    stitches: list[EdgeKey] = []
    for vid, var in enumerate(model.variables):
        val = assignment[vid]
        if var.kind == "color":
            rep_color[var.key[0]] = val
        elif var.kind == "endcut" and val:
            selected.add(var.key[0])
        elif var.kind == "conflict" and val:
            conflicts.append(var.key)
        elif var.kind == "stitch" and val:
            stitches.append(var.key)
    colors = {v: rep_color[sub.rep[v]] for v in sub.vertex_ids}
    return PieceOutcome(
        sub=sub,
        colors=colors,
        selected=selected,
        conflicts=sorted(conflicts),
        stitches=sorted(stitches),
        cost=stats.best_cost,
        stats=stats,
    )


def _merge_bridges(pieces: list[PieceOutcome], bridges: list[EdgeKey]) -> None:
    """Flip piece groups so every cut bridge ends up bichromatic."""
    piece_of: dict[int, int] = {}
    for idx, piece in enumerate(pieces):
        for v in piece.sub.vertex_ids:
            piece_of[v] = idx
    uf = _UnionFind(range(len(pieces)))
    group_vertices: dict[int, list[int]] = {
        i: list(p.sub.vertex_ids) for i, p in enumerate(pieces)
    }
    colors: dict[int, int] = {}
    for p in pieces:
        colors.update(p.colors)

    for u, v in bridges:
        gu, gv = uf.find(piece_of[u]), uf.find(piece_of[v])
        if gu == gv:
            raise DecompositionError(f"bridge {(u, v)} does not separate pieces")
        if colors[u] == colors[v]:
            # flip the smaller side; on a tie, the side containing v
            flip = gu if len(group_vertices[gu]) < len(group_vertices[gv]) else gv
            for w in group_vertices[flip]:
                colors[w] ^= 1
        uf.union(gu, gv)
        merged = group_vertices.pop(gu) + group_vertices.pop(gv)
        group_vertices[uf.find(gu)] = merged

    for p in pieces:
        for v in p.sub.vertex_ids:
            p.colors[v] = colors[v]


def build_graphs(features: list[Feature], cfg: Config):
    """Shared pipeline front end: annotated layout graph + end-cut graph."""
    g0 = build_conflict_edges(features, cfg)
    candidates = generate_candidates(features, sorted(g0.conflict_edges), cfg)
    g = generate_stitch_candidates(features, g0, cfg) if cfg.enable_stitch else g0
    g = annotate_end_cuts(g, candidates)
    eg = build_endcut_graph(candidates, features, cfg)
    return g, eg


def decompose_graphs(
    g: LayoutGraph, eg: EndCutGraph, cfg: Config, time_limit: float | None = None
) -> DecompResult:
    """Decomposition core over already-built graphs; validated before return."""
    start = time.monotonic()
    outcomes: list[PieceOutcome] = []
    sub_count = 0
    comps = split_components(g, eg)
    for comp, comp_eg in zip(comps, component_endcut_graphs(g, eg, comps)):
        if cfg.enable_preselect:
            comp = preselect_endcuts(comp, comp_eg)
        if cfg.enable_bridges:
            pieces, bridges = split_bridges(comp, comp_eg)
        else:
            pieces, bridges = [comp], []
        solved = []
        for piece in pieces:
            remaining = None
            if time_limit is not None:
                remaining = max(0.0, time_limit - (time.monotonic() - start))
            solved.append(_solve_piece(piece, comp_eg, cfg, remaining))
        _merge_bridges(solved, bridges)
        outcomes.extend(solved)
        sub_count += len(pieces)

    colors: dict[int, int] = {}
    selected: set[int] = set()
    conflicts: list[EdgeKey] = []
    stitches: list[EdgeKey] = []
    cost = Fraction(0)
    nodes = 0
    proven = True
    per_sub = []
    for o in outcomes:
        colors.update(o.colors)
        selected |= o.selected
        conflicts.extend(o.conflicts)
        stitches.extend(o.stitches)
        cost += o.cost
        nodes += o.stats.nodes_explored
        proven = proven and o.stats.proven_optimal
        per_sub.append(
            {
                "vertices": len(o.sub.vertex_ids),
                "nodes_explored": o.stats.nodes_explored,
                "cost": str(o.cost),
                "proven_optimal": o.stats.proven_optimal,
            }
        )

    alpha = cfg.alpha if cfg.enable_stitch else Fraction(0)
    result = DecompResult(
        colors={v: colors[v] for v in sorted(colors)},
        selected_cuts=selected,
        trim_rects=merged_trim_rects(selected, eg),
        conflicts=sorted(conflicts),
        stitches=sorted(stitches),
        cost=cost,
        alpha=alpha,
        stats={
            "sub_problems": sub_count,
            "nodes_explored": nodes,
            "proven_optimal": proven,
            "per_sub": per_sub,
        },
    )
    if result.recompute_cost() != result.cost:
        raise DecompositionError(
            f"merged cost {result.cost} != recomputed {result.recompute_cost()}"
        )
    validate_result(result, g, eg)
    return result


def decompose(
    features: list[Feature], cfg: Config, time_limit: float | None = None
) -> DecompResult:
    """Full pipeline: graphs, candidates, decomposition speedups, exact solves."""
    g, eg = build_graphs(features, cfg)
    return decompose_graphs(g, eg, cfg, time_limit)


def validate_result(result: DecompResult, lg: LayoutGraph, eg: EndCutGraph) -> None:
    """First-principles validity: exclusions, cut colors, conflict accounting."""
    sel = sorted(result.selected_cuts)
    for p, q in eg.solid_edges:
        if p in result.selected_cuts and q in result.selected_cuts:
            raise DecompositionError(f"selected cuts {p} and {q} are mutually exclusive")
    anchors = _candidate_anchor(lg)
    for cid in sel:
        if cid not in anchors:
            raise DecompositionError(f"selected cut {cid} is not annotated on any edge")
        u, v = anchors[cid]
        if result.colors[u] != result.colors[v]:
            raise DecompositionError(f"selected cut {cid} spans different colors")
    charged = set(result.conflicts)
    by_vertex: dict[int, dict[int, int]] = {}
    for cid in sel:
        u, v = anchors[cid]
        by_vertex.setdefault(u, {})[v] = cid
        by_vertex.setdefault(v, {})[u] = cid
    for u, v in sorted(lg.conflict_edges):
        if result.colors[u] != result.colors[v]:
            continue
        if (u, v) in charged:
            continue
        cand = lg.conflict_edges[(u, v)]
        if cand is not None and cand in result.selected_cuts:
            continue
        forgiven = False
        for w, p in sorted(by_vertex.get(u, {}).items()):
            q = by_vertex.get(v, {}).get(w)
            if q is None or w in (u, v):
                continue
            pair = (p, q) if p < q else (q, p)
            if pair in eg.dash_edges:
                forgiven = True
                break
        if not forgiven:
            raise DecompositionError(f"conflict edge {(u, v)} is monochromatic but unaccounted")


def solve_monolithic(
    features: list[Feature], cfg: Config, time_limit: float | None = None
) -> tuple[DecompResult, IlpModel]:
    """Single whole-layout model with no decomposition speedups (oracle path)."""
    g, eg = build_graphs(features, cfg)
    model = build_model_from_problem(
        ProblemGraph.from_layout(g, eg),
        eg,
        corrected=True,
        with_stitch=cfg.enable_stitch,
        alpha=cfg.alpha,
    )
    assignment, stats = solve(model, time_limit)
    result = extract_result(model, assignment, g, eg)
    result.stats = {
        "sub_problems": 1,
        "nodes_explored": stats.nodes_explored,
        "proven_optimal": stats.proven_optimal,
    }
    validate_result(result, g, eg)
    return result, model
