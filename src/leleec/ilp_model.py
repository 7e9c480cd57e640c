"""0-1 ILP models for two-mask-plus-trim decomposition.

Variables per model: one color bit per vertex, one conflict bit per conflict
edge, one selection bit per end-cut candidate, one merge bit per
dash-connected candidate pair flanking a conflict edge, one stitch bit per
stitch edge. Every constraint row is kept as integer-coefficient `sum <= rhs`.
Stitch bits and rows exist exactly when the piece has stitch edges: the
layout graph holds none when stitching is off, so the model needs no switch.

The conflict rows carry the merge bits so that two dash-mergeable cuts around
a common neighbor forgive the conflict between their outer features; without
those terms the model charges a spurious conflict in exactly that pattern.
A deliberately uncorrected variant is kept for demonstrating the difference.

`build_model_from_problem` also records `IlpModel.pair_costs`, the rigid
conflict edges (no cut and no merge term in their rows) and the stitch
edges, and `IlpModel.colour_order`, the colour bits in `graph_order` over
those same edges, which `search_order` branches on first. Neither is in
`lp_dump`. Both come from `colour_pairs`, the one helper that orders a
piece's colours and lists its pairs (conflicts first, then stitches, each
sorted, with their costs scaled as the solver scales the objective); the
decomposer reads it too, to search a cut-free piece in colour space with
no model, so that search sees exactly its model's order and pairs. The
pairs keep a contract: each pair's cost bit appears in exactly two rows,
its pair's, and those rows hold only the pair's two colour bits and its
cost bit, and force the cost bit to 1 exactly when the colours are equal
(a conflict) or differ (a stitch). The solver relies on it: it settles
every pair cost bit from its colours instead of branching on it, bounds
with the pairs, and raises `SolverError` on a model that breaks the
contract (`solver.row_tables` checks it, in the one row scan that builds
the search tables). The check reads each row's coefficients by bit, so
the contract does not depend on the order in which a row lists its terms.

`build_lelele_baseline` is the three-mask coloring model of the paper's
comparison over the same `ProblemGraph`: two color bits per vertex and a
conflict bit per edge; it records no pair costs and no colour order, so it
branches in kind-then-id order. `decode_assignment` reads
either kind of model. A `DecompResult` holds the merged trim rects of its
selected cuts, which `decomposer.merged_trim_rects` builds.

`Var` and `Constraint` are named tuples, built for every bit and row;
`IlpModel`, `ProblemGraph`, `DecompResult` and `Decoded` are mutable
`record` classes, equal by class and field and not hashable.
"""

from __future__ import annotations

from collections.abc import Iterable
from fractions import Fraction
from typing import NamedTuple

from .endcut import EndCutGraph
from .geometry import Rect
from .layout_graph import EdgeKey, LayoutGraph
from .record import Record

KIND_RANK = {"color": 0, "endcut": 1, "merge": 2, "aux": 2, "conflict": 3, "stitch": 4}
_ONE = Fraction(1)  # every conflict's cost; one shared value, as Fractions are immutable


class ModelError(ValueError):
    pass


class InconsistentAnnotation(ModelError):
    """A graph annotation references a candidate missing from the end-cut graph."""


class InfeasibleAssignment(ModelError):
    """An assignment violates a constraint row."""


class Var(NamedTuple):
    """A 0-1 variable: its LP name, its family (a `KIND_RANK` key) and its layout key."""

    name: str
    kind: str
    key: tuple


class Constraint(NamedTuple):
    """sum(coeff * var) <= rhs with integer coefficients."""

    label: str
    terms: tuple[tuple[int, int], ...]
    rhs: int


class IlpModel(Record):
    """Variables, objective and rows of a 0-1 model, filled by `add_var` and
    `add_constraint`; every list and dict starts empty."""

    __slots__ = (
        "variables", "objective", "constraints", "alpha", "flip_symmetric", "pair_costs", "colour_order"
    )

    def __init__(self, alpha: Fraction = Fraction(0), flip_symmetric: bool = False) -> None:
        self.variables: list[Var] = []
        self.objective: dict[int, Fraction] = {}
        self.constraints: list[Constraint] = []
        self.alpha = alpha
        # complementing every colour bit maps feasible assignments to feasible
        # ones of equal cost; the solver then searches one half (see solver)
        self.flip_symmetric = flip_symmetric
        # (colour u, colour v, cost var, charged_when_equal): each cost var is
        # its own pair's, costs >= 0 and is in exactly two rows, which hold only
        # the pair's three bits and force it to 1 exactly when the two colours
        # are equal (or differ); the solver settles it from the colours, bounds
        # with the pairs and refuses a model that breaks this contract, in
        # whatever order a row lists the three terms
        self.pair_costs: list[tuple[int, int, int, bool]] = []
        # every colour var in branching order; empty keeps ascending id
        self.colour_order: list[int] = []

    def add_var(self, name: str, kind: str, key: tuple) -> int:
        self.variables.append(Var(name, kind, key))
        return len(self.variables) - 1

    def add_constraint(self, label: str, terms: Iterable[tuple[int, int]], rhs: int) -> None:
        """Append the row sum(coeff * var) <= rhs, its terms as given."""
        self.constraints.append(Constraint(label, tuple(terms), rhs))

    @property
    def num_vars(self) -> int:
        return len(self.variables)

    def search_order(self) -> list[int]:
        """Branching order: colors, then end-cuts, merges, conflicts, stitches.

        Colors come in `colour_order` when it is set; every other family,
        and colors without it, in ascending id.
        """
        order = sorted(range(self.num_vars), key=lambda v: (KIND_RANK[self.variables[v].kind], v))
        return self.colour_order + order[len(self.colour_order) :]

    def objective_value(self, assignment: list[int]) -> Fraction:
        return sum(
            (coeff for vid, coeff in self.objective.items() if assignment[vid]),
            Fraction(0),
        )

    def check_assignment(self, assignment: list[int]) -> None:
        if len(assignment) != self.num_vars or any(v not in (0, 1) for v in assignment):
            raise InfeasibleAssignment("assignment is not a full 0/1 vector")
        for con in self.constraints:
            total = sum(coeff * assignment[vid] for vid, coeff in con.terms)
            if total > con.rhs:
                raise InfeasibleAssignment(f"constraint {con.label} violated ({total} > {con.rhs})")

    def lp_dump(self) -> str:
        """Deterministic LP-format text of the model."""
        lines = ["Minimize"]
        terms = []
        for vid in sorted(self.objective):
            coeff = self.objective[vid]
            if coeff == 0:
                continue
            terms.append(f"{frac_str(coeff)} {self.variables[vid].name}")
        lines.append(" obj: " + (" + ".join(terms) if terms else "0"))
        lines.append("Subject To")
        for con in self.constraints:
            parts = []
            for vid, coeff in con.terms:
                name = self.variables[vid].name
                if not parts:
                    parts.append(f"{coeff} {name}" if coeff != 1 else name)
                elif coeff >= 0:
                    parts.append(f"+ {coeff} {name}" if coeff != 1 else f"+ {name}")
                else:
                    parts.append(f"- {-coeff} {name}" if coeff != -1 else f"- {name}")
            lines.append(f" {con.label}: " + " ".join(parts) + f" <= {con.rhs}")
        lines.append("Binary")
        for v in self.variables:
            lines.append(f" {v.name}")
        lines.append("End")
        return "\n".join(lines) + "\n"


def frac_str(x: Fraction) -> str:
    """Exact decimal string when the denominator is 10-smooth, else 'num/den'."""
    if x.denominator == 1:
        return str(x.numerator)
    d, e2, e5 = x.denominator, 0, 0
    while d % 2 == 0:
        d //= 2
        e2 += 1
    while d % 5 == 0:
        d //= 5
        e5 += 1
    if d != 1:
        return f"{x.numerator}/{x.denominator}"
    digits = max(e2, e5)
    scaled = x.numerator * 10**digits // x.denominator
    s = str(abs(scaled)).rjust(digits + 1, "0")
    sign = "-" if scaled < 0 else ""
    return f"{sign}{s[:-digits]}.{s[-digits:]}"


class ProblemGraph(Record):
    """The layout problem, or one independent piece of it, as a model sees it.

    vertex_reps is the set of the piece's vertex ids, one color variable
    each (the name is kept because perfbench/spans.py reads its length).
    Conflict edges map to the candidate id annotated on them, or to None.
    A field left out starts empty.
    """

    __slots__ = ("vertex_reps", "conflict_edges", "stitch_edges")

    def __init__(
        self,
        vertex_reps: set[int] | None = None,
        conflict_edges: dict[EdgeKey, int | None] | None = None,
        stitch_edges: set[EdgeKey] | None = None,
    ) -> None:
        self.vertex_reps = set() if vertex_reps is None else vertex_reps
        self.conflict_edges = {} if conflict_edges is None else conflict_edges
        self.stitch_edges = set() if stitch_edges is None else stitch_edges

    @staticmethod
    def from_layout(lg: LayoutGraph, eg: EndCutGraph) -> "ProblemGraph":
        for e in sorted(lg.conflict_edges):
            cand = lg.conflict_edges[e]
            if cand is not None and (cand >= len(eg.nodes) or eg.nodes[cand].id != cand):
                raise InconsistentAnnotation(f"edge {e} references unknown candidate {cand}")
        return ProblemGraph(
            vertex_reps={s.id for s in lg.vertices},
            conflict_edges=dict(lg.conflict_edges),
            stitch_edges=set(lg.stitch_edges),
        )


def graph_order(vertices: Iterable[int], edges: Iterable[EdgeKey]) -> list[int]:
    """The vertices breadth-first over the edges, most constrained first.

    Each search starts at the unvisited vertex of highest degree and takes
    neighbours by (degree desc, id); a lone vertex comes last.
    """
    adj: dict[int, list[int]] = {v: [] for v in vertices}
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)

    def rank(v: int) -> tuple[int, int]:
        return -len(adj[v]), v

    order: list[int] = []
    seen: set[int] = set()
    for root in sorted(adj, key=rank):
        if root in seen:
            continue
        seen.add(root)
        head = len(order)
        order.append(root)
        while head < len(order):
            for w in sorted(adj[order[head]], key=rank):
                if w not in seen:
                    seen.add(w)
                    order.append(w)
            head += 1
    return order


def colour_pairs(
    vertices: Iterable[int], conflicts: list[EdgeKey], stitches: list[EdgeKey], alpha: Fraction
) -> tuple[list[int], list[tuple[int, int, int, int]], int]:
    """A piece's colour order and its pairs, scaled as the solver scales a
    model's objective: (order, pairs, denom).

    conflicts are the piece's rigid conflict edges (no cut and no merge term
    in their rows) and stitches its stitch edges, each sorted. order is
    `graph_order` over both. pairs lists (u, v, cost, flip): each conflict
    at cost denom and flip 0, charged when u and v are equal, then each
    stitch at cost alpha * denom and flip 1, charged when they differ.
    denom is alpha's denominator when the piece has a stitch edge and 1
    otherwise: the common denominator of the model's objective.
    """
    denom = alpha.denominator if stitches else 1
    pairs = [(u, v, denom, 0) for u, v in conflicts]
    pairs += [(u, v, alpha.numerator, 1) for u, v in stitches]
    return graph_order(vertices, [*conflicts, *stitches]), pairs, denom


def build_model_from_problem(
    pg: ProblemGraph,
    eg: EndCutGraph,
    *,
    corrected: bool = True,
    alpha: Fraction = Fraction(1, 10),
) -> IlpModel:
    """The leleec model of a piece; each of its stitch edges gets a bit charged alpha."""
    m = IlpModel(alpha=alpha if pg.stitch_edges else Fraction(0), flip_symmetric=True)
    x = {v: m.add_var(f"x_{v}", "color", (v,)) for v in sorted(pg.vertex_reps)}
    edge_list = sorted(pg.conflict_edges)
    ec: dict[int, int] = {}
    for e in edge_list:
        cid = pg.conflict_edges[e]
        if cid is not None:
            ec[cid] = m.add_var(f"ec_{cid}", "endcut", (cid,))

    # a conflict between u and v is forgiven only when cuts to one common
    # neighbor w merge u, w and v into a single printed shape;
    # (merge bit, p, q) per conflict edge that has any. A merge needs two
    # cuts, so a piece with none skips the search
    gammas: dict[EdgeKey, list[tuple[int, int, int]]] = {}
    if corrected and ec:
        adjacency: dict[int, set[int]] = {v: set() for v in pg.vertex_reps}
        for u, v in edge_list:
            adjacency[u].add(v)
            adjacency[v].add(u)
        for u, v in edge_list:
            for w in sorted(adjacency[u] & adjacency[v]):
                eu = (u, w) if u < w else (w, u)
                ev = (v, w) if v < w else (w, v)
                p, q = pg.conflict_edges[eu], pg.conflict_edges[ev]
                if p is None or q is None:
                    continue
                if ((p, q) if p < q else (q, p)) in eg.dash_edges:
                    g = m.add_var(f"g_{u}_{v}_w{w}_{p}_{q}", "merge", (u, v, w, p, q))
                    gammas.setdefault((u, v), []).append((g, p, q))

    conflict = {e: m.add_var(f"c_{e[0]}_{e[1]}", "conflict", e) for e in edge_list}
    stitch = {e: m.add_var(f"s_{e[0]}_{e[1]}", "stitch", e) for e in sorted(pg.stitch_edges)}

    rigid: list[EdgeKey] = []
    for u, v in edge_list:
        xu, xv, c = x[u], x[v], conflict[(u, v)]
        cid = pg.conflict_edges[(u, v)]
        relax = () if cid is None else ((ec[cid], -1),)
        if (u, v) in gammas:
            relax += tuple((g, -1) for g, _, _ in gammas[(u, v)])
        m.add_constraint(f"same_{u}_{v}", ((xu, 1), (xv, 1), (c, -1), *relax), 1)
        m.add_constraint(f"diff_{u}_{v}", ((xu, -1), (xv, -1), (c, -1), *relax), -1)
        if not relax:
            rigid.append((u, v))
        if cid is not None:
            m.add_constraint(f"cut_lo_{cid}", [(ec[cid], 1), (xu, 1), (xv, -1)], 1)
            m.add_constraint(f"cut_hi_{cid}", [(ec[cid], 1), (xv, 1), (xu, -1)], 1)

    for merges in gammas.values():
        for g, p, q in merges:
            name = m.variables[g].name
            m.add_constraint(f"{name}_le_p", [(g, 1), (ec[p], -1)], 0)
            m.add_constraint(f"{name}_le_q", [(g, 1), (ec[q], -1)], 0)
            m.add_constraint(f"{name}_ge", [(ec[p], 1), (ec[q], 1), (g, -1)], 1)

    for p, q in sorted(eg.solid_edges):
        if p in ec and q in ec:
            m.add_constraint(f"excl_{p}_{q}", [(ec[p], 1), (ec[q], 1)], 1)

    m.objective.update(dict.fromkeys(conflict.values(), _ONE))
    for (u, v), s in stitch.items():
        m.add_constraint(f"st_lo_{u}_{v}", ((x[u], 1), (x[v], -1), (s, -1)), 0)
        m.add_constraint(f"st_hi_{u}_{v}", ((x[v], 1), (x[u], -1), (s, -1)), 0)
        m.objective[s] = alpha
    # colour_order is a field of its own: a caller that clears pair_costs
    # to turn the bound off keeps the order
    order, pairs, _ = colour_pairs(pg.vertex_reps, rigid, list(stitch), alpha)
    for u, v, _, flip in pairs:
        m.pair_costs.append((x[u], x[v], stitch[(u, v)] if flip else conflict[(u, v)], not flip))
    m.colour_order = [x[v] for v in order]
    return m


def build_lelele_baseline(pg: ProblemGraph) -> IlpModel:
    """Plain three-mask coloring ILP, conflicts only; vertex v has bits (v, 0), (v, 1)."""
    m = IlpModel()
    vertices = sorted(pg.vertex_reps)
    bits = {
        v: (m.add_var(f"xa_{v}", "color", (v, 0)), m.add_var(f"xb_{v}", "color", (v, 1)))
        for v in vertices
    }
    edge_list = sorted(pg.conflict_edges)
    equal = {
        e: tuple(m.add_var(f"eq{bit}_{e[0]}_{e[1]}", "aux", (*e, bit)) for bit in (0, 1))
        for e in edge_list
    }
    conflict = {e: m.add_var(f"c_{e[0]}_{e[1]}", "conflict", e) for e in edge_list}
    for v in vertices:
        m.add_constraint(f"threecolor_{v}", [(bits[v][0], 1), (bits[v][1], 1)], 1)
    for u, v in edge_list:
        for bit in (0, 1):
            xu, xv, eq = bits[u][bit], bits[v][bit], equal[(u, v)][bit]
            m.add_constraint(f"eq{bit}_same_{u}_{v}", [(xu, 1), (xv, 1), (eq, -1)], 1)
            m.add_constraint(f"eq{bit}_diff_{u}_{v}", [(xu, -1), (xv, -1), (eq, -1)], -1)
        eq0, eq1 = equal[(u, v)]
        c = conflict[(u, v)]
        m.add_constraint(f"both_eq_{u}_{v}", [(eq0, 1), (eq1, 1), (c, -1)], 1)
        m.objective[c] = Fraction(1)
    return m


class DecompResult(Record):
    """Mask assignment plus selected trim cuts, charged conflicts and stitches."""

    __slots__ = ("colors", "selected_cuts", "trim_rects", "conflicts", "stitches", "cost", "alpha", "stats")

    def __init__(
        self,
        colors: dict[int, int],
        selected_cuts: set[int],
        trim_rects: list[Rect],
        conflicts: list[EdgeKey],
        stitches: list[EdgeKey],
        cost: Fraction,
        alpha: Fraction,
        stats: dict | None = None,
    ) -> None:
        self.colors = colors
        self.selected_cuts = selected_cuts
        self.trim_rects = trim_rects
        self.conflicts = conflicts
        self.stitches = stitches
        self.cost = cost
        self.alpha = alpha
        self.stats = stats

    def recompute_cost(self) -> Fraction:
        return Fraction(len(self.conflicts)) + self.alpha * len(self.stitches)


class Decoded(Record):
    """The layout meaning of a leleec or three-mask baseline model assignment."""

    __slots__ = ("colors", "selected", "conflicts", "stitches")

    def __init__(
        self,
        colors: dict[int, int],  # vertex -> 0/1 (0/1/2 in the baseline)
        selected: set[int],  # selected end-cut candidate ids
        conflicts: list[EdgeKey],  # charged conflict edges, sorted
        stitches: list[EdgeKey],  # active stitch edges, sorted
    ) -> None:
        self.colors = colors
        self.selected = selected
        self.conflicts = conflicts
        self.stitches = stitches


def decode_assignment(model: IlpModel, assignment: list[int]) -> Decoded:
    """Read colors, selected cuts, charged conflicts and stitches off an assignment."""
    d = Decoded(colors={}, selected=set(), conflicts=[], stitches=[])
    for vid, var in enumerate(model.variables):
        val = assignment[vid]
        if var.kind == "color":
            # a leleec bit is keyed (v,); a baseline bit (v, b) weighs 2**b
            v, *bit = var.key
            d.colors[v] = d.colors.get(v, 0) + (val << bit[0] if bit else val)
        elif var.kind == "endcut" and val:
            d.selected.add(var.key[0])
        elif var.kind == "conflict" and val:
            d.conflicts.append(var.key)
        elif var.kind == "stitch" and val:
            d.stitches.append(var.key)
    d.conflicts.sort()
    d.stitches.sort()
    return d
