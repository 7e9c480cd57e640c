"""Pipeline orchestration and optimality-preserving problem decomposition.

There is one exact path: independent components of the union graph
(conflict, stitch and end-cut coupling edges), then clean-bridge splitting,
then one model per piece. A clean bridge is a conflict edge that is a bridge
of the union multigraph and carries no candidate; after solving both sides,
the smaller side's colors are flipped when the bridge endpoints collide
(color-flip symmetry keeps each side's cost).

Components and pieces are `ilp_model.ProblemGraph`s, the type the model
builder reads. The work per layout stays linear in its edges: conflict and
stitch edges are bucketed by component, and by piece after a bridge split,
in one pass each. `split_components` hands every component its own slice
of the end-cut graph in the same pass: the same nodes, but only its own
solid and dash edges, which is exact because coupling edges joined the
components. The bridge search and the piece models read the slice; the
trim-rect merge and the result checker read the full graph.

`result_problems` is the one result checker: `validate_result` raises on
its findings, and `layout_io.verify_result` reports them for a file.

Under a time limit a piece keeps the solver's incumbent. A piece whose
search ends before its first leaf takes the one-mask assignment instead
(no cut, merge or stitch, every conflict charged), which every model
admits, so a time-limited result is still valid, with proven_optimal false.
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
    decode_assignment,
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
from .solver import SolveStats, TimeLimit, one_mask_incumbent, solve


class DecompositionError(ValueError):
    pass


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


def split_components(
    lg: LayoutGraph, eg: EndCutGraph
) -> list[tuple[ProblemGraph, EndCutGraph]]:
    """Connected components of CE ∪ SE plus end-cut coupling links.

    Each component comes with its slice of the end-cut graph: the slice
    shares `nodes` with eg and holds the solid and dash edges whose
    candidates are annotated in that component. Coupling edges joined the
    components, so an edge between two annotated candidates never spans two
    of them; an edge with one unannotated candidate goes with the other one.
    Every model and bridge search over a piece of a component reads the
    same edges from its slice as from eg.
    """
    uf = _UnionFind([s.id for s in lg.vertices])
    for u, v in lg.conflict_edges:
        uf.union(u, v)
    for u, v in lg.stitch_edges:
        uf.union(u, v)
    anchors = _candidate_anchor(lg)
    for p, q in eg.solid_edges | eg.dash_edges:
        if p in anchors and q in anchors:
            uf.union(anchors[p][0], anchors[q][0])

    comps: dict[int, ProblemGraph] = {}
    slices: dict[int, EndCutGraph] = {}
    for s in lg.vertices:
        root = uf.find(s.id)
        if root not in comps:
            comps[root] = ProblemGraph()
            slices[root] = EndCutGraph(nodes=eg.nodes, solid_edges=set(), dash_edges=set())
        comps[root].vertex_reps.add(s.id)
    for e, cand in lg.conflict_edges.items():
        comps[uf.find(e[0])].conflict_edges[e] = cand
    for e in lg.stitch_edges:
        comps[uf.find(e[0])].stitch_edges.add(e)
    for p, q in eg.solid_edges:
        anchor = anchors.get(p) or anchors.get(q)
        if anchor is not None:
            slices[uf.find(anchor[0])].solid_edges.add((p, q))
    for p, q in eg.dash_edges:
        anchor = anchors.get(p) or anchors.get(q)
        if anchor is not None:
            slices[uf.find(anchor[0])].dash_edges.add((p, q))
    return [(comps[root], slices[root]) for root in sorted(comps)]


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


def split_bridges(
    pg: ProblemGraph, eg: EndCutGraph
) -> tuple[list[ProblemGraph], list[EdgeKey]]:
    """Cut clean bridges; returns (pieces, cut bridge edges).

    The bridge search runs on the union multigraph of conflict, stitch and
    end-cut coupling edges, so a conflict edge that is paralleled by a stitch
    path or an end-cut relation is never cut.
    """
    conflict_keys = sorted(pg.conflict_edges)
    edge_list: list[EdgeKey] = conflict_keys + sorted(pg.stitch_edges)
    cand_anchor: dict[int, EdgeKey] = {}
    for e, cand in pg.conflict_edges.items():
        if cand is not None:
            cand_anchor[cand] = e
    for p, q in sorted(eg.solid_edges | eg.dash_edges):
        if p in cand_anchor and q in cand_anchor:
            a, b = cand_anchor[p][0], cand_anchor[q][0]
            if a != b:
                edge_list.append((a, b) if a < b else (b, a))

    # edge_list starts with the conflict edges, so an index below their count
    # is a conflict edge; a clean one carries no candidate
    clean = [
        idx
        for idx in find_bridges(sorted(pg.vertex_reps), edge_list)
        if idx < len(conflict_keys) and pg.conflict_edges[conflict_keys[idx]] is None
    ]
    if not clean:
        return [pg], []

    cut_idx = set(clean)
    uf = _UnionFind(pg.vertex_reps)
    for idx, (u, v) in enumerate(edge_list):
        if idx not in cut_idx:
            uf.union(u, v)
    # a conflict edge that is not a cut bridge, and every stitch edge, joins
    # vertices of one group
    groups: dict[int, ProblemGraph] = {}
    for v in sorted(pg.vertex_reps):
        root = uf.find(v)
        if root not in groups:
            groups[root] = ProblemGraph()
        groups[root].vertex_reps.add(v)
    bridge_keys = [conflict_keys[idx] for idx in clean]
    cut = set(bridge_keys)
    for e, cand in pg.conflict_edges.items():
        if e not in cut:
            groups[uf.find(e[0])].conflict_edges[e] = cand
    for e in pg.stitch_edges:
        groups[uf.find(e[0])].stitch_edges.add(e)
    return [groups[root] for root in sorted(groups)], bridge_keys


@dataclass
class PieceOutcome:
    piece: ProblemGraph
    colors: dict[int, int]  # original vertex -> 0/1
    selected: set[int]
    conflicts: list[EdgeKey]
    stitches: list[EdgeKey]
    cost: Fraction
    stats: SolveStats


def _solve_piece(
    piece: ProblemGraph, eg: EndCutGraph, cfg: Config, time_limit: float | None
) -> PieceOutcome:
    model = build_model_from_problem(
        piece,
        eg,
        corrected=True,
        with_stitch=cfg.enable_stitch,
        alpha=cfg.alpha,
    )
    try:
        assignment, stats = solve(model, time_limit)
    except TimeLimit as exc:
        assignment, stats = one_mask_incumbent(model, exc)
    d = decode_assignment(model, assignment)
    return PieceOutcome(
        piece=piece,
        colors=d.colors,
        selected=d.selected,
        conflicts=d.conflicts,
        stitches=d.stitches,
        cost=stats.best_cost,
        stats=stats,
    )


def _merge_bridges(pieces: list[PieceOutcome], bridges: list[EdgeKey]) -> None:
    """Flip piece groups so every cut bridge ends up bichromatic."""
    piece_of: dict[int, int] = {}
    for idx, p in enumerate(pieces):
        for v in p.piece.vertex_reps:
            piece_of[v] = idx
    uf = _UnionFind(range(len(pieces)))
    group_vertices: dict[int, list[int]] = {
        i: list(p.piece.vertex_reps) for i, p in enumerate(pieces)
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
        for v in p.piece.vertex_reps:
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
    for comp, comp_eg in split_components(g, eg):
        pieces, bridges = split_bridges(comp, comp_eg)
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
                "vertices": len(o.piece.vertex_reps),
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


def result_problems(
    lg: LayoutGraph,
    eg: EndCutGraph,
    colors: dict[int, int],
    selected: set[int],
    conflicts: list[EdgeKey],
) -> list[str]:
    """Every broken result rule, in a fixed order; [] for a legal result.

    No two selected cuts share a solid edge (1c); each selected cut is
    annotated on a conflict edge whose ends share a mask (1d/1e); each
    charged conflict is a same-mask conflict edge; and every same-mask
    conflict edge is charged, cut, or forgiven by dash-merged cuts that
    join both its ends to a common neighbour.
    """
    problems = [
        f"exclusion (1c): selected cuts {p} and {q} are within dis_c"
        for p, q in sorted(e for e in eg.solid_edges if e[0] in selected and e[1] in selected)
    ]
    anchors = _candidate_anchor(lg)
    by_vertex: dict[int, dict[int, int]] = {}
    for cid in sorted(selected):
        if cid not in anchors:
            problems.append(f"selected_cuts: candidate {cid} is not annotated on any conflict edge")
            continue
        u, v = anchors[cid]
        if colors[u] != colors[v]:
            problems.append(f"cut colors (1d/1e): cut {cid} endpoints {u},{v} differ in mask")
        by_vertex.setdefault(u, {})[v] = cid
        by_vertex.setdefault(v, {})[u] = cid

    charged: set[EdgeKey] = set()
    for edge in conflicts:
        if edge not in lg.conflict_edges:
            problems.append(f"conflicts: {edge} is not a conflict edge")
            continue
        if colors[edge[0]] != colors[edge[1]]:
            problems.append(f"conflicts: {edge} endpoints are on different masks")
        charged.add(edge)

    for u, v in sorted(lg.conflict_edges):
        if colors[u] != colors[v] or (u, v) in charged:
            continue
        cand = lg.conflict_edges[(u, v)]
        if cand is not None and cand in selected:
            continue
        cuts_at_v = by_vertex.get(v, {})
        forgiven = any(
            (min(p, q), max(p, q)) in eg.dash_edges
            for w, p in by_vertex.get(u, {}).items()
            if w not in (u, v) and (q := cuts_at_v.get(w)) is not None
        )
        if not forgiven:
            problems.append(f"accounting: conflict edge {(u, v)} is monochromatic but not charged")
    return problems


def validate_result(result: DecompResult, lg: LayoutGraph, eg: EndCutGraph) -> None:
    """Raise DecompositionError when `result_problems` finds any violation."""
    problems = result_problems(lg, eg, result.colors, result.selected_cuts, result.conflicts)
    if problems:
        raise DecompositionError("; ".join(problems))


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
