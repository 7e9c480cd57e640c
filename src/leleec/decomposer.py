"""Pipeline orchestration and optimality-preserving problem decomposition.

There is one exact path. First, free cuts leave the graph: a free cut is an
annotated candidate with no solid and no dash edge, and its conflict edge
never costs anything, since in every optimum its cut is selected exactly
when both ends share a mask. Then `split_components` walks the union graph
(conflict and stitch edges, and solid-edge coupling between candidates)
once, over flat per-vertex adjacency, into independent components in root
order. A component with no cut candidate that two masks colour at cost 0
needs no model and no graph: the walk writes the colours `solve` would give
it (`closed_form`'s rule) into one list indexed by vertex id, even under a
time limit, and the merge gets only its vertex count, whose `per_sub` entry
says 0 nodes, cost 0 and proven; a vertex that no edge touches settles at
colour 0. Every other component is a `ProblemGraph` with its own slice of
the end-cut graph, which the bridge search and piece models read, and is
split at clean bridges into pieces, each settled by `closed_form` or
searched. Only a piece with a cut candidate gets a model, which `solve`
searches. A cut-free piece has only colour and pair cost bits, so
`solver.colour_search` searches it in colour space with no model
(`_search_colours`): its colour order and pairs come from
`ilp_model.colour_pairs` in rank space, and its conflicts and stitches are
read off the colours, as `solve` and `decode_assignment` give them for its
model. A clean bridge is a conflict edge that is a bridge of the union
multigraph and carries no candidate; after solving both sides, the smaller
side's colors are flipped when the bridge endpoints collide (color-flip
symmetry keeps each side's cost). Last, the merge selects each free cut
whose ends share a mask, and the result is checked against the full graphs.

A refused component or a searched piece that repeats an earlier one of the
same call is not searched again. Relabelling each vertex id to its rank among
its vertices, and each candidate id to its rank among its candidates, keeps
every order that the split, `closed_form`, the model builders and
`_merge_bridges` read: each reads ids only in sorted order, or gives an
answer that no order changes. One per-call memo keeps the rank-space outcome
and cost of each graph searched to a proven optimum; each refused component
is keyed once, before its bridge split. A bridged component is never stored:
a repeat splits again and its searched pieces hit the memo. A hit maps the
stored outcome back to its own ids, with 0 nodes and proven, so
`nodes_explored` and `per_sub` count only the search that ran. Each CLI call
does the same work.

`result_problems` is the one result checker: `validate_result` raises on
its findings, and `layout_io.verify_result` reports them for a file. The
merge recounts the cost and validates every result: decompose, the
baseline (each component of the same walk, which settles nothing at alpha
None, solved with one model and the memo, and no bridge split, whose
recombination is a two-mask color flip), and the oracle `solve_monolithic`.

Under a time limit each searched piece keeps its search's best leaf, the
first found before the deadline is read: the one-mask assignment (every
conflict charged; see `solver`), with proven_optimal false. A repeat of a
proven piece still takes the proven outcome, and each free cut is still
selected when its ends share a mask.
"""

from __future__ import annotations

import time
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
) -> dict[int, ProblemGraph]:
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
    return parts


def split_components(
    lg: LayoutGraph, eg: EndCutGraph, cut: Collection[EdgeKey], alpha: Fraction | None
) -> tuple[list[int], list[int | tuple[ProblemGraph, EndCutGraph]]]:
    """The components of CE ∪ SE plus end-cut coupling links, less the `cut`
    conflict edges, by one `_walk` from each unreached vertex id (0 to n - 1)
    in ascending order: (a colour per vertex id, entries in root order).

    A component settles when the walk colours it with conflict ends apart
    and stitch ends together and it holds no cut candidate, no solid
    coupling edge and, at alpha 0, no stitch edge: its entry is its vertex
    count, and its colours are `closed_form`'s. At alpha None, the baseline,
    nothing settles. A refused component's colours mean nothing; its entry
    is a `ProblemGraph` with its end-cut slice: the same `nodes` and the
    solid and dash edges with a candidate annotated in it, or one shared,
    empty, frozen slice if it has none. Coupling edges, and for a dash edge
    the feature both candidates share, joined the components, so no such
    edge spans two of them.
    """
    n = len(lg.vertices)
    anchors = _candidate_anchor(lg)
    # (neighbour, colour difference): 1 across a conflict edge, 0 across a stitch
    adj: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    refusing = set()  # one end of each edge that refuses its component
    for e, cand in lg.conflict_edges.items():
        if e not in cut:
            u, v = e
            adj[u].append((v, 1))
            adj[v].append((u, 1))
            if cand is not None:
                refusing.add(u)
    if alpha == 0:
        refusing.update(u for u, _ in lg.stitch_edges)
    # a coupling edge joins two annotated conflict edges, which refuse already
    for u, v in (*lg.stitch_edges, *_coupling_edges(anchors, eg)):
        adj[u].append((v, 0))
        adj[v].append((u, 0))
    colours = [-1] * n
    owner = [-1] * n  # the entry index of each vertex of a refused component
    entries: list = []
    for start in range(n):
        if colours[start] < 0:
            part, odd = _walk(start, adj, colours)
            if alpha is not None and not odd and refusing.isdisjoint(part):
                entries.append(len(part))
                continue
            for u in part:
                owner[u] = len(entries)
            entries.append(ProblemGraph(set(part)))
    for e, cand in lg.conflict_edges.items():
        i = owner[e[0]]
        if i >= 0 and e not in cut:
            entries[i].conflict_edges[e] = cand
    for e in lg.stitch_edges:
        i = owner[e[0]]
        if i >= 0:
            entries[i].stitch_edges.add(e)
    at = {cand: owner[e[0]] for cand, e in anchors.items()}  # candidate -> its entry
    empty = EndCutGraph(nodes=eg.nodes, solid_edges=frozenset(), dash_edges=frozenset())
    slices = [empty] * len(entries)
    for edges, dash in ((eg.solid_edges, False), (eg.dash_edges, True)):
        for e in edges:
            i = at.get(e[0], at.get(e[1]))
            if i is not None:
                if slices[i] is empty:
                    slices[i] = EndCutGraph(nodes=eg.nodes, solid_edges=set(), dash_edges=set())
                (slices[i].dash_edges if dash else slices[i].solid_edges).add(e)
    return colours, [e if type(e) is int else (e, own) for e, own in zip(entries, slices)]


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
    pieces = _group(vertices, pg, coupling, frozenset(clean))
    return [pieces[root] for root in sorted(pieces)], clean


class PieceOutcome(Record):
    """A piece's assignment, whose colours name its vertices, and its search;
    stats None is a piece that `closed_form` settled (0 nodes, cost 0)."""

    __slots__ = ("decoded", "stats")

    def __init__(self, decoded: Decoded, stats: SolveStats | None = None) -> None:
        self.decoded = decoded
        self.stats = stats


def _walk(start: int, adj, colours) -> tuple[list[int], bool]:
    """Colour the part of `start` into colours (-1 marks an unreached vertex)
    by each (neighbour, colour difference) of adj: (its vertices, whether an
    odd cycle broke a difference). Unless one did, the part is flipped to
    give its highest-degree vertex, the smallest id on a tie, colour 0."""
    colours[start] = 0
    part = [start]
    odd = False
    for u in part:  # the list grows as the walk reaches new vertices
        colour = colours[u]
        for w, parity in adj[u]:
            if colours[w] < 0:
                colours[w] = colour ^ parity
                part.append(w)
            elif colours[w] != colour ^ parity:
                odd = True
    if not odd and len(part) > 1 and colours[min(part, key=lambda u: (-len(adj[u]), u))]:
        for u in part:
            colours[u] ^= 1
    return part, odd


def closed_form(piece: ProblemGraph, alpha: Fraction) -> Decoded | None:
    """What `solve` returns for a cut-free piece that two masks colour at cost 0, else None.

    Without a cut candidate, and with alpha > 0 or no stitch edge, the cost-0
    assignments are exactly the colourings in which conflict ends differ and
    stitch ends are equal, with no bit but the colours set. Each connected
    part has two of them, one the other flipped, or none on an odd cycle.
    `solve` returns the one that gives colour 0 to the part's first vertex in
    the model's colour order (`graph_order` over the same edges): its
    highest-degree vertex, the smallest id on a tie. One `_walk` per part
    colours it and flips it to that rule.
    """
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
    colors = dict.fromkeys(adj, -1)
    for start in adj:
        if colors[start] < 0 and _walk(start, adj, colors)[1]:
            return None
    return Decoded(colors=colors, selected=set(), conflicts=[], stitches=[])


# a refused component or piece relabelled by rank: its vertex count, its
# conflict edges with their candidate ranks, its stitch edges, and the solid
# and dash edges between its own candidates
PieceKey = tuple[int, tuple, tuple, tuple, tuple]


def _rank_space(
    piece: ProblemGraph, eg: EndCutGraph
) -> tuple[PieceKey, dict[int, int], dict[int, int]]:
    """(memo key, vertex id -> rank, candidate id -> rank) of a refused
    component or piece, ids ascending.

    Each vertex id becomes its rank in the graph's sorted ids, and each
    candidate id its rank among the graph's own candidates. Both maps keep
    order, and the model builders read ids only in sorted order, so two
    graphs with equal keys get the same model but for variable names.
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


def _solve(
    graph: ProblemGraph,
    eg: EndCutGraph,
    alpha: Fraction | None,
    memo: dict[PieceKey, tuple[Decoded, Fraction]],
    deadline: float | None,
    split: bool,
) -> list[PieceOutcome]:
    """The outcomes of a refused component, or of a piece when split is
    false, by the deadline: one per piece, after the bridge flips. alpha
    None is the three-mask baseline.

    The graph is keyed once, by `_rank_space`. A hit maps the stored outcome
    to the graph's own ids, with 0 nodes and proven. Otherwise, with split,
    clean bridges cut it into pieces, each settled by `closed_form` or
    solved here without split, and `_merge_bridges` flips them. A graph with
    no bridge cut is searched, and stored in rank space when proven optimal.

    A hit is exact. A stored graph of a splitting call has no clean bridge,
    and equal keys mean equal graphs in rank space, so a hit is a graph that
    the split leaves whole and whose search gives the stored outcome. A
    repeated bridged component, never stored, splits again: its searched
    pieces hit the memo at 0 nodes, and its flips follow from rank order.
    """
    key, vrank, crank = _rank_space(graph, eg)
    if key in memo:
        ranked, cost = memo[key]
        # a rank map's keys, in order, are the ids by rank
        return [PieceOutcome(_relabel(ranked, list(vrank), list(crank)), SolveStats(0, cost, True))]
    if split:
        pieces, bridges = split_bridges(graph, eg)
        if bridges:
            solved = []
            for piece in pieces:
                settled = closed_form(piece, alpha)
                if settled is None:
                    solved += _solve(piece, eg, alpha, memo, deadline, False)
                else:
                    solved.append(PieceOutcome(settled))
            _merge_bridges(solved, bridges)
            return solved
    if alpha is not None and not crank:
        ranked, stats = _search_colours(graph, vrank, alpha, deadline)
        decoded = _relabel(ranked, list(vrank), list(crank))
    else:
        if alpha is None:
            model = build_lelele_baseline(graph)
        else:
            model = build_model_from_problem(graph, eg, alpha=alpha)
        remaining = None if deadline is None else max(0.0, deadline - time.monotonic())
        assignment, stats = solve(model, remaining)
        decoded = decode_assignment(model, assignment)
        ranked = _relabel(decoded, vrank, crank) if stats.proven_optimal else None
    if stats.proven_optimal:
        memo[key] = ranked, stats.best_cost
    return [PieceOutcome(decoded, stats)]


def _merge_bridges(pieces: list[PieceOutcome], bridges: list[EdgeKey]) -> None:
    """Flip piece groups so every cut bridge ends up bichromatic."""
    piece_of: dict[int, int] = {}
    for idx, p in enumerate(pieces):
        for v in p.decoded.colors:
            piece_of[v] = idx
    uf = _UnionFind(range(len(pieces)))
    group_vertices: dict[int, list[int]] = {i: list(p.decoded.colors) for i, p in enumerate(pieces)}
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
        for v in p.decoded.colors:
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
    memo: dict[PieceKey, tuple[Decoded, Fraction]] = {}
    outcomes: list[PieceOutcome | int] = []
    free = _free_cuts(g, eg)
    colours, comps = split_components(g, eg, free, cfg.alpha)
    for entry in comps:
        if type(entry) is int:
            outcomes.append(entry)
        else:
            outcomes += _solve(*entry, cfg.alpha, memo, deadline, True)
    return _merge_outcomes(outcomes, colours, g, eg, cfg.alpha, free)


def lelele_baseline(lg: LayoutGraph, time_limit: float | None = None) -> DecompResult:
    """Three-mask coloring (colors 0/1/2) of a conflict graph, one model per component.

    No bridge split: its recombination flips one side between two masks.
    """
    deadline = None if time_limit is None else time.monotonic() + time_limit
    eg = EndCutGraph(nodes=[], solid_edges=set(), dash_edges=set())
    memo: dict[PieceKey, tuple[Decoded, Fraction]] = {}
    # at alpha None every component, a lone vertex too, is refused and solved
    colours, comps = split_components(lg, eg, (), None)
    outcomes = [o for entry in comps for o in _solve(*entry, None, memo, deadline, False)]
    return _merge_outcomes(outcomes, colours, lg, eg, Fraction(0), {})


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
    colours: list[int],
    g: LayoutGraph,
    eg: EndCutGraph,
    alpha: Fraction,
    free: dict[EdgeKey, int],
) -> DecompResult:
    """One result from the pieces' outcomes and the free cuts, which lie
    outside every piece: each is selected when its ends share a mask, at no
    cost. Each outcome's colours replace their entries in `colours`, one per
    vertex id. An int outcome is a settled component's vertex count, its
    colours there already; it and a settled outcome add only a `per_sub`
    entry, and only non-zero costs are added. The result's cost and rules
    are checked against the full graphs.
    """
    colors = dict(enumerate(colours))
    selected: set[int] = set()
    conflicts: list[EdgeKey] = []
    stitches: list[EdgeKey] = []
    cost = Fraction(0)
    nodes = 0
    proven = True
    per_sub = []
    for o in outcomes:
        if type(o) is int:
            per_sub.append({"vertices": o, **_SETTLED_ENTRY})
            continue
        colors.update(o.decoded.colors)
        stats = o.stats
        if stats is None:  # nothing to select, charge or count
            per_sub.append({"vertices": len(o.decoded.colors), **_SETTLED_ENTRY})
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
                "vertices": len(o.decoded.colors),
                "nodes_explored": stats.nodes_explored,
                "cost": frac_str(stats.best_cost),
                "proven_optimal": stats.proven_optimal,
            }
        )
    selected |= {c for (u, v), c in free.items() if colors[u] == colors[v]}

    result = DecompResult(
        colors=colors,
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
    outcome = PieceOutcome(decode_assignment(model, assignment), stats)
    return _merge_outcomes([outcome], [0] * len(g.vertices), g, eg, cfg.alpha, {}), model
