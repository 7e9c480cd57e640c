"""Pipeline orchestration and optimality-preserving problem decomposition.

There is one exact path. First, free cuts leave the graph: a free cut is an
annotated candidate with no solid and no dash edge, and its conflict edge
never costs anything, since in every optimum its cut is selected exactly
when both ends share a mask. Then come independent components of the union
graph (conflict and stitch edges, and solid-edge coupling between
candidates). A component with no cut candidate that two masks colour at
cost 0 needs no model: `closed_form` gives the assignment the solver would
return, by one parity walk per part, even under a time limit. Such a
component is settled as it leaves the split: one outcome with no search
stats, whose `per_sub` entry says 0 nodes, cost 0 and proven, and whose
cost the merge does not add. A vertex that no edge of the union graph
touches is settled in the same place without even a graph: colour 0 and
the same `per_sub` entry. Every other component is split at clean
bridges into pieces, and each piece is settled the same way or searched.
Only a piece with a cut candidate gets a model, which `solve` searches. A
cut-free piece has only colour and pair cost bits, so `solver.colour_search`
searches it in colour space with no model (`_search_colours`): its colour
order and pairs come from `ilp_model.colour_pairs` in rank space, and its
conflicts and stitches are read off the colours. Its assignment, nodes and
cost are those `solve` and `decode_assignment` give for its model. A clean bridge is a conflict edge that is a bridge of the union
multigraph and carries no candidate; after solving both sides, the smaller
side's colors are flipped when the bridge endpoints collide (color-flip
symmetry keeps each side's cost).
Last, the merge selects each free cut whose ends share a mask, and the
result is checked against the full graphs.

Components and pieces are `ilp_model.ProblemGraph`s, the type the model
builder reads. The work per layout stays linear in its edges: conflict and
stitch edges are bucketed by component, and by piece after a bridge split,
in one pass each. `split_components` hands each component that owns a
solid or dash edge its own slice of the end-cut graph in the same pass, and
every other component one shared empty slice: the same nodes, but only its
own solid and dash edges, which is exact because coupling edges joined the
components (a dash edge joins two candidates on one feature, whose conflict
edges that feature's segments already join). The bridge search and the
piece models read the slice; the trim-rect merge (`merged_trim_rects`,
on the same union-find as the component split) and the result checker read
the full graph.

A searched piece that repeats an earlier piece of the same call is not
solved again. Relabelling each vertex id to its rank among the piece's
vertices, and each candidate id to its rank among the piece's candidates,
keeps every order the model builders and `graph_order` read, so two pieces
that are equal in rank space get one model but for variable names, and one
assignment and node count from `solve`. A per-call memo keyed by the
relabelled piece keeps each proven-optimal outcome in rank space; a repeat
maps it back to its own ids with 0 nodes and `proven_optimal` true, so
`nodes_explored` and `per_sub` count only the search that ran. The memo
never outlives the call: each CLI call does the same work.

`result_problems` is the one result checker: `validate_result` raises on
its findings, and `layout_io.verify_result` reports them for a file.
`_merge_outcomes` recounts the cost and runs `validate_result` once on
every result: decompose, the baseline, and the oracle `solve_monolithic`,
which wraps its one whole-layout solve as a single outcome.

`lelele_baseline` runs the three-mask baseline through the same component
split (with an empty end-cut graph), per-piece solve with its memo, one
model per piece, and merge, without the bridge split, whose recombination is a two-mask color
flip.

Under a time limit each searched piece keeps its search's best leaf; the
first is found before the deadline is read. That first leaf is the
one-mask assignment (no cut of its own, no merge or stitch, every conflict
charged; see `solver`), so a piece that got no time of its own still has
a valid outcome, with proven_optimal false. A repeat of a proven piece
still takes the proven outcome. Free cuts lie outside every piece, so each
one is still selected when its ends share a mask.
"""

from __future__ import annotations

import time
from bisect import bisect_left
from collections.abc import Collection, Sequence
from fractions import Fraction

from .endcut import EndCutGraph, generate_candidates, build_endcut_graph
from .geometry import Rect, rect_union_bbox
from .ilp_model import (
    DecompResult,
    Decoded,
    IlpModel,
    ProblemGraph,
    build_lelele_baseline,
    build_model_from_problem,
    colour_pairs,
    decode_assignment,
    frac_str,
)
from .layout_graph import (
    Config,
    EdgeKey,
    Feature,
    LayoutGraph,
    annotate_end_cuts,
    build_conflict_edges,
    feature_index,
    generate_stitch_candidates,
)
from .record import Record
from .solver import SolveStats, colour_links, colour_search, solve


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


def _candidate_anchor(g: LayoutGraph | ProblemGraph) -> dict[int, EdgeKey]:
    """candidate id -> the conflict edge it annotates (each annotates one edge)."""
    return {cand: e for e, cand in g.conflict_edges.items() if cand is not None}


def _coupling_edges(anchors: dict[int, EdgeKey], eg: EndCutGraph) -> list[EdgeKey]:
    """One vertex pair per solid edge between two anchored candidates: the
    first ends of the conflict edges they annotate.

    A dash edge needs none. Its two candidates share a feature, so their
    conflict edges meet at that feature's segments, which stitch edges join;
    both edges carry a candidate, so neither is a free or a clean-bridge cut.
    """
    return [
        (anchors[p][0], anchors[q][0])
        for p, q in eg.solid_edges
        if p in anchors and q in anchors
    ]


def _free_cuts(g: LayoutGraph, eg: EndCutGraph) -> dict[EdgeKey, int]:
    """Conflict edge -> candidate, for each annotated candidate with no solid
    and no dash edge.

    Such an edge never costs anything: with its ends on one mask its cut is
    selected, which no solid edge forbids, and no merge involves it. So it
    constrains no optimum and stays out of every component.
    """
    partnered = {c for e in eg.solid_edges | eg.dash_edges for c in e}
    return {e: c for e, c in g.conflict_edges.items() if c is not None and c not in partnered}


def _group(
    vertices: list[int],
    g: LayoutGraph | ProblemGraph,
    coupling: list[EdgeKey],
    cut: frozenset[EdgeKey],
) -> tuple[_UnionFind, dict[int, ProblemGraph]]:
    """The parts of g's conflict, stitch and coupling edges less the cut conflict edges.

    Each part is keyed by its root, its smallest vertex, and holds its
    vertices and its conflict edges (but the cut ones) and stitch edges.
    """
    uf = _UnionFind(vertices)
    for u, v in g.conflict_edges:
        if (u, v) not in cut:
            uf.union(u, v)
    for u, v in [*g.stitch_edges, *coupling]:
        uf.union(u, v)
    parts: dict[int, ProblemGraph] = {}
    for v in vertices:
        root = uf.find(v)
        if root not in parts:
            parts[root] = ProblemGraph()
        parts[root].vertex_reps.add(v)
    for e, cand in g.conflict_edges.items():
        if e not in cut:
            parts[uf.find(e[0])].conflict_edges[e] = cand
    for e in g.stitch_edges:
        parts[uf.find(e[0])].stitch_edges.add(e)
    return uf, parts


def split_components(
    lg: LayoutGraph, eg: EndCutGraph, cut: frozenset[EdgeKey] = frozenset()
) -> tuple[list[int], list[tuple[ProblemGraph, EndCutGraph]]]:
    """Connected components of CE ∪ SE plus end-cut coupling links, less the
    `cut` conflict edges, which no component holds: (lone vertices,
    components in root order).

    A vertex that none of those edges touches is a one-vertex component
    that needs no graph: it is returned apart, in the ascending list of lone
    vertices, and never enters the union-find. Each other component is a
    `ProblemGraph` and comes with its slice of the end-cut graph: the slice
    shares `nodes` with eg and holds the solid and dash edges whose
    candidates are annotated in that component. Solid coupling edges, and
    for a dash edge the feature both candidates share, joined the
    components, so an edge between two annotated candidates never spans two
    of them; an edge with one unannotated candidate goes with the other one.
    Every model and bridge search over a piece of a component reads the
    same edges from its slice as from eg. A component that owns no solid or
    dash edge gets one shared, empty and frozen slice.
    """
    anchors = _candidate_anchor(lg)
    coupling = _coupling_edges(anchors, eg)
    touched = {v for e in lg.conflict_edges if e not in cut for v in e}
    touched.update(v for e in (*lg.stitch_edges, *coupling) for v in e)
    lone = sorted(s.id for s in lg.vertices if s.id not in touched)
    uf, comps = _group(sorted(touched), lg, coupling, cut)
    empty = EndCutGraph(nodes=eg.nodes, solid_edges=frozenset(), dash_edges=frozenset())
    slices: dict[int, EndCutGraph] = {}
    for edges, dash in ((eg.solid_edges, False), (eg.dash_edges, True)):
        for p, q in edges:
            anchor = anchors.get(p) or anchors.get(q)
            if anchor is not None:
                root = uf.find(anchor[0])
                own = slices.get(root)
                if own is None:
                    own = slices[root] = EndCutGraph(nodes=eg.nodes, solid_edges=set(), dash_edges=set())
                (own.dash_edges if dash else own.solid_edges).add((p, q))
    return lone, [(comps[root], slices.get(root, empty)) for root in sorted(comps)]


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
    vertices = sorted(pg.vertex_reps)
    conflict_keys = sorted(pg.conflict_edges)
    coupling = _coupling_edges(_candidate_anchor(pg), eg)
    # the edge list starts with the conflict edges, so an index below their
    # count is a conflict edge; a clean one carries no candidate
    clean = [
        conflict_keys[idx]
        for idx in find_bridges(vertices, [*conflict_keys, *pg.stitch_edges, *coupling])
        if idx < len(conflict_keys) and pg.conflict_edges[conflict_keys[idx]] is None
    ]
    if not clean:
        return [pg], []
    _, pieces = _group(vertices, pg, coupling, frozenset(clean))
    return [pieces[root] for root in sorted(pieces)], clean


class PieceOutcome(Record):
    """A piece's assignment and its search; stats None is a piece settled by
    `closed_form` (0 nodes, cost 0, proven optimal)."""

    __slots__ = ("piece", "decoded", "stats")

    def __init__(self, piece: ProblemGraph, decoded: Decoded, stats: SolveStats | None = None) -> None:
        self.piece = piece
        self.decoded = decoded
        self.stats = stats


def closed_form(piece: ProblemGraph, alpha: Fraction) -> Decoded | None:
    """What `solve` returns for a cut-free piece that two masks colour at cost 0, else None.

    Without a cut candidate, and with alpha > 0 or no stitch edge, the cost-0
    assignments are exactly the colourings in which conflict ends differ and
    stitch ends are equal, with no bit but the colours set. Each connected
    part has two of them, one the other flipped, or none on an odd cycle.
    `solve` returns the one that gives colour 0 to the part's first vertex in
    the model's colour order (`graph_order` over the same edges): its
    highest-degree vertex, the smallest id on a tie. One parity walk per
    part colours it from any vertex and finds that root, and the part is
    flipped when the root came out 1. A one-vertex piece has no edge and
    gets colour 0 at once.
    """
    if len(piece.vertex_reps) == 1:  # no edge, so no cut and no stitch
        return Decoded(dict.fromkeys(piece.vertex_reps, 0), selected=set(), conflicts=[], stitches=[])
    if any(cand is not None for cand in piece.conflict_edges.values()):
        return None
    if piece.stitch_edges and not alpha > 0:
        return None
    # (neighbour, colour difference): 1 across a conflict edge, 0 across a stitch
    adj: dict[int, list[tuple[int, int]]] = {v: [] for v in piece.vertex_reps}
    for edges, parity in ((piece.conflict_edges, 1), (piece.stitch_edges, 0)):
        for u, v in edges:
            adj[u].append((v, parity))
            adj[v].append((u, parity))
    colors: dict[int, int] = {}
    for start in adj:
        if start in colors:
            continue
        colors[start] = 0
        part = [start]
        for u in part:  # the list grows as the walk reaches new vertices
            color = colors[u]
            for w, parity in adj[u]:
                if w not in colors:
                    colors[w] = color ^ parity
                    part.append(w)
                elif colors[w] != color ^ parity:
                    return None
        if colors[min(part, key=lambda u: (-len(adj[u]), u))]:
            for u in part:
                colors[u] ^= 1
    return Decoded(colors=colors, selected=set(), conflicts=[], stitches=[])


# a searched piece relabelled by rank: its vertex count, its conflict edges
# with their candidate ranks, its stitch edges, and the solid and dash edges
# between its own candidates
PieceKey = tuple[int, tuple, tuple, tuple, tuple]
# proven-optimal outcomes of one call's searched pieces, in rank space, and their costs
PieceMemo = dict[PieceKey, tuple[Decoded, Fraction]]


def _rank_space(
    piece: ProblemGraph, eg: EndCutGraph
) -> tuple[PieceKey, dict[int, int], dict[int, int]]:
    """(memo key, vertex id -> rank, candidate id -> rank) of a piece, ids ascending.

    Each vertex id becomes its rank in the piece's sorted ids, and each
    candidate id its rank among the piece's own candidates. Both maps keep
    order, and the model builders read ids only in sorted order, so two
    pieces with equal keys get the same model but for variable names.
    """
    vrank = {v: i for i, v in enumerate(sorted(piece.vertex_reps))}
    cids = {c for c in piece.conflict_edges.values() if c is not None}
    crank = {c: i for i, c in enumerate(sorted(cids))}

    def own(edges: set[EdgeKey]) -> tuple:
        return tuple(sorted((crank[p], crank[q]) for p, q in edges if p in crank and q in crank))

    key = (
        len(vrank),
        tuple(
            sorted(
                (vrank[u], vrank[v], None if c is None else crank[c])
                for (u, v), c in piece.conflict_edges.items()
            )
        ),
        tuple(sorted((vrank[u], vrank[v]) for u, v in piece.stitch_edges)),
        own(eg.solid_edges),
        own(eg.dash_edges),
    )
    return key, vrank, crank


def _relabel(d: Decoded, vmap, cmap) -> Decoded:
    """A new `Decoded` with vertex ids through vmap and candidate ids through cmap."""
    return Decoded(
        colors={vmap[v]: c for v, c in d.colors.items()},
        selected={cmap[c] for c in d.selected},
        conflicts=[(vmap[u], vmap[v]) for u, v in d.conflicts],
        stitches=[(vmap[u], vmap[v]) for u, v in d.stitches],
    )


def _search_colours(
    piece: ProblemGraph, vrank: dict[int, int], alpha: Fraction, deadline: float | None
) -> tuple[Decoded, SolveStats]:
    """A cut-free piece's outcome in rank space (vrank maps each vertex id
    to its rank), searched in colour space.

    A piece with no cut candidate has only colour bits and pair cost bits,
    so its model's rows are all pair rows. The search of such a model runs
    on the piece's colour order and pairs from `colour_pairs`, which are
    its model's, with the flip symmetry at the root and no cost of its own
    on any bit. Its conflicts are the monochromatic conflict edges and its
    stitches the bichromatic stitch edges, both sorted: the bits that
    `solve` writes from the colours, decoded.
    """
    n = len(vrank)
    conflicts = sorted((vrank[u], vrank[v]) for u, v in piece.conflict_edges)
    stitches = sorted((vrank[u], vrank[v]) for u, v in piece.stitch_edges)
    order, pairs, denom = colour_pairs(range(n), conflicts, stitches, alpha)
    value, cost, nodes, proven = colour_search(order, colour_links(n, pairs), [0] * n, True, deadline)
    decoded = Decoded(
        colors=dict(enumerate(value)),
        selected=set(),
        conflicts=[(u, v) for u, v in conflicts if value[u] == value[v]],
        stitches=[(u, v) for u, v in stitches if value[u] != value[v]],
    )
    return decoded, SolveStats(nodes, Fraction(cost, denom), proven)


def _solve_piece(
    piece: ProblemGraph,
    eg: EndCutGraph,
    alpha: Fraction | None,
    memo: PieceMemo,
    deadline: float | None,
) -> PieceOutcome:
    """Solve a piece of a leleec decomposition at stitch weight alpha, or of
    the three-mask baseline when alpha is None, by the deadline; or reuse a
    repeat's outcome.

    A piece whose key is in memo takes the stored outcome, mapped back to its
    own ids, with no model and no search (0 nodes, proven optimal). A leleec
    piece with no cut candidate is searched in colour space, with no model;
    every other piece gets one model and `solve`. A piece solved to a proven
    optimum is stored; a time-limited outcome is not. Each searched piece
    keeps its search's best leaf; the first is found before the deadline is
    read, so a piece left no time still gets one.
    """
    key, vrank, crank = _rank_space(piece, eg)
    if key in memo:
        decoded, cost = memo[key]
        stats = SolveStats(0, cost, True)
    elif alpha is not None and not crank:
        decoded, stats = _search_colours(piece, vrank, alpha, deadline)
        if stats.proven_optimal:
            memo[key] = decoded, stats.best_cost
    else:
        if alpha is None:
            model = build_lelele_baseline(piece)
        else:
            model = build_model_from_problem(piece, eg, alpha=alpha)
        remaining = None if deadline is None else max(0.0, deadline - time.monotonic())
        assignment, stats = solve(model, remaining)
        decoded = decode_assignment(model, assignment)
        if stats.proven_optimal:
            memo[key] = _relabel(decoded, vrank, crank), stats.best_cost
        return PieceOutcome(piece, decoded, stats)
    # a rank map's keys, in order, are the ids by rank
    return PieceOutcome(piece, _relabel(decoded, list(vrank), list(crank)), stats)


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
        colors.update(p.decoded.colors)

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
        # the larger list takes in the smaller, so a chain of bridges copies each id O(log k) times
        small, large = sorted((group_vertices.pop(gu), group_vertices.pop(gv)), key=len)
        large.extend(small)
        group_vertices[uf.find(gu)] = large

    for p in pieces:
        for v in p.piece.vertex_reps:
            p.decoded.colors[v] = colors[v]


def build_graphs(features: list[Feature], cfg: Config, classify: Collection[int] | None = None):
    """Shared pipeline front end: annotated layout graph + end-cut graph.

    One feature index serves every stage. Its one near-pair walk, in the
    conflict build, raises OverlappingInput for touching or overlapping
    features. Every candidate is generated and is a node of the end-cut
    graph, but only the pairs of the candidate ids in `classify` are
    classified; None, as `decompose` passes, classifies every pair. A
    pair's class depends on its own two cuts alone (see `endcut`), so an
    edge between two ids in `classify` is the same either way.
    """
    index = feature_index(features, cfg)
    g0 = build_conflict_edges(features, cfg, index)
    candidates = generate_candidates(features, sorted(g0.conflict_edges), cfg, index)
    g = generate_stitch_candidates(features, g0, cfg) if cfg.enable_stitch else g0
    g = annotate_end_cuts(g, candidates)
    eg = build_endcut_graph(candidates, features, cfg, index, classify)
    return g, eg


def decompose_graphs(
    g: LayoutGraph, eg: EndCutGraph, cfg: Config, time_limit: float | None = None
) -> DecompResult:
    """Decomposition core over already-built graphs; validated before return."""
    deadline = None if time_limit is None else time.monotonic() + time_limit
    memo: PieceMemo = {}
    outcomes: list[PieceOutcome | int] = []
    free = _free_cuts(g, eg)
    lone, comps = split_components(g, eg, frozenset(free))
    done = 0  # lone vertices placed so far
    for comp, comp_eg in comps:
        # the lone vertices before this component's root keep their root order
        upto = bisect_left(lone, min(comp.vertex_reps), done)
        outcomes.extend(lone[done:upto])
        done = upto
        whole = closed_form(comp, cfg.alpha)
        if whole is not None:
            outcomes.append(PieceOutcome(comp, whole))
            continue
        pieces, bridges = split_bridges(comp, comp_eg)
        solved = []
        for piece in pieces:
            # with no bridge cut, the one piece is the component the closed form refused
            settled = closed_form(piece, cfg.alpha) if bridges else None
            if settled is not None:
                solved.append(PieceOutcome(piece, settled))
            else:
                solved.append(_solve_piece(piece, comp_eg, cfg.alpha, memo, deadline))
        _merge_bridges(solved, bridges)
        outcomes.extend(solved)
    outcomes.extend(lone[done:])
    return _merge_outcomes(outcomes, g, eg, cfg.alpha, free)


def lelele_baseline(lg: LayoutGraph, time_limit: float | None = None) -> DecompResult:
    """Three-mask coloring (colors 0/1/2) of a conflict graph, one model per component.

    No bridge split: its recombination flips one side between two masks.
    """
    deadline = None if time_limit is None else time.monotonic() + time_limit
    eg = EndCutGraph(nodes=[], solid_edges=set(), dash_edges=set())
    memo: PieceMemo = {}
    lone, comps = split_components(lg, eg)
    # a lone vertex is solved too, as its own one-vertex component
    pieces = [comp for comp, _ in comps] + [ProblemGraph(vertex_reps={v}) for v in lone]
    pieces.sort(key=lambda comp: min(comp.vertex_reps))
    outcomes = [_solve_piece(comp, eg, None, memo, deadline) for comp in pieces]
    return _merge_outcomes(outcomes, lg, eg, Fraction(0), {})


def merged_trim_rects(selected: set[int], eg: EndCutGraph) -> list[Rect]:
    """Trim-mask rectangles: dash-connected selected cuts emit one union rect."""
    uf = _UnionFind(selected)
    for p, q in eg.dash_edges:
        if p in selected and q in selected:
            uf.union(p, q)
    groups: dict[int, Rect] = {}
    for i in selected:
        root, rect = uf.find(i), eg.nodes[i].cut_rect
        groups[root] = rect_union_bbox(groups[root], rect) if root in groups else rect
    return sorted(groups.values())


# the per_sub entry of a settled piece, after its vertex count
_SETTLED_ENTRY = {"nodes_explored": 0, "cost": "0", "proven_optimal": True}


def _merge_outcomes(
    outcomes: Sequence[PieceOutcome | int],
    g: LayoutGraph,
    eg: EndCutGraph,
    alpha: Fraction,
    free: dict[EdgeKey, int],
) -> DecompResult:
    """One result from the pieces' outcomes and the free cuts, which lie
    outside every piece: each is selected when its ends share a mask, at no
    cost. An int outcome is a lone vertex, settled at colour 0. It and a
    settled outcome add only their colours and their `per_sub` entry, and
    only non-zero costs are added. The result's cost and rules are checked
    against the full graphs.
    """
    colors: dict[int, int] = {}
    selected: set[int] = set()
    conflicts: list[EdgeKey] = []
    stitches: list[EdgeKey] = []
    cost = Fraction(0)
    nodes = 0
    proven = True
    per_sub = []
    for o in outcomes:
        if isinstance(o, int):
            colors[o] = 0
            per_sub.append({"vertices": 1, **_SETTLED_ENTRY})
            continue
        colors.update(o.decoded.colors)
        stats = o.stats
        if stats is None:  # nothing to select, charge or count
            per_sub.append({"vertices": len(o.piece.vertex_reps), **_SETTLED_ENTRY})
            continue
        selected |= o.decoded.selected
        conflicts.extend(o.decoded.conflicts)
        stitches.extend(o.decoded.stitches)
        if stats.best_cost:
            cost += stats.best_cost
        nodes += stats.nodes_explored
        proven = proven and stats.proven_optimal
        per_sub.append(
            {
                "vertices": len(o.piece.vertex_reps),
                "nodes_explored": stats.nodes_explored,
                "cost": frac_str(stats.best_cost),
                "proven_optimal": stats.proven_optimal,
            }
        )
    selected |= {c for (u, v), c in free.items() if colors[u] == colors[v]}

    result = DecompResult(
        colors={v: colors[v] for v in sorted(colors)},
        selected_cuts=selected,
        trim_rects=merged_trim_rects(selected, eg),
        conflicts=sorted(conflicts),
        stitches=sorted(stitches),
        cost=cost,
        alpha=alpha,
        stats={
            "sub_problems": len(outcomes),
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
    """Single whole-layout model with no decomposition speedups (oracle path).

    Its one outcome goes through the merge, like every piece of `decompose`,
    so the result is checked the same way and its stats hold one `per_sub` entry.
    """
    g, eg = build_graphs(features, cfg)
    whole = ProblemGraph.from_layout(g, eg)
    model = build_model_from_problem(whole, eg, alpha=cfg.alpha)
    assignment, stats = solve(model, time_limit)
    outcome = PieceOutcome(whole, decode_assignment(model, assignment), stats)
    return _merge_outcomes([outcome], g, eg, cfg.alpha, {}), model
