"""0-1 ILP models for two-mask-plus-trim decomposition.

Variables per model: one color bit per vertex, one conflict bit per conflict
edge, one selection bit per end-cut candidate, one merge bit per
dash-connected candidate pair flanking a conflict edge, one stitch bit per
stitch edge. Every constraint row is kept as integer-coefficient `sum <= rhs`.

The conflict rows carry the merge bits so that two dash-mergeable cuts around
a common neighbor forgive the conflict between their outer features; without
those terms the model charges a spurious conflict in exactly that pattern.
A deliberately uncorrected variant is kept for demonstrating the difference.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .endcut import EndCutGraph
from .geometry import Rect, rect_union_bbox
from .layout_graph import EdgeKey, LayoutGraph

KIND_RANK = {"color": 0, "endcut": 1, "merge": 2, "aux": 2, "conflict": 3, "stitch": 4}


class ModelError(ValueError):
    pass


class InconsistentAnnotation(ModelError):
    """A graph annotation references a candidate missing from the end-cut graph."""


class InfeasibleAssignment(ModelError):
    """An assignment violates a constraint row."""


class CostMismatch(ModelError):
    """Recomputed cost disagrees with the model objective value."""


@dataclass(frozen=True)
class Var:
    name: str
    kind: str
    key: tuple


@dataclass(frozen=True)
class Constraint:
    """sum(coeff * var) <= rhs with integer coefficients."""

    label: str
    terms: tuple[tuple[int, int], ...]
    rhs: int


@dataclass
class IlpModel:
    variables: list[Var] = field(default_factory=list)
    objective: dict[int, Fraction] = field(default_factory=dict)
    constraints: list[Constraint] = field(default_factory=list)
    alpha: Fraction = Fraction(0)
    # complementing every colour bit maps feasible assignments to feasible
    # ones of equal cost; the solver then searches one half (see solver)
    flip_symmetric: bool = False
    _index: dict[tuple[str, tuple], int] = field(default_factory=dict)

    def add_var(self, name: str, kind: str, key: tuple) -> int:
        vid = len(self.variables)
        self.variables.append(Var(name=name, kind=kind, key=key))
        self._index[(kind, key)] = vid
        return vid

    def var(self, kind: str, key: tuple) -> int | None:
        return self._index.get((kind, key))

    def add_constraint(self, label: str, terms: list[tuple[int, int]], rhs: int) -> None:
        merged: dict[int, int] = {}
        for vid, coeff in terms:
            merged[vid] = merged.get(vid, 0) + coeff
        flat = tuple((vid, coeff) for vid, coeff in merged.items() if coeff != 0)
        self.constraints.append(Constraint(label=label, terms=flat, rhs=rhs))

    @property
    def num_vars(self) -> int:
        return len(self.variables)

    def search_order(self) -> list[int]:
        """Branching order: colors, then end-cuts, merges, conflicts, stitches."""
        return sorted(range(self.num_vars), key=lambda v: (KIND_RANK[self.variables[v].kind], v))

    def one_mask_assignment(self) -> list[int]:
        """Everything on one mask, no cut, merge or stitch, every conflict charged.

        Feasible in every leleec model: each same/diff row is met by its
        conflict bit, and every other row holds with all its bits at 0. In
        the three-mask baseline every `aux` (equal-bit) bit is 1 as well,
        which meets its diff rows, and the charged conflict meets `both_eq`.
        """
        return [1 if v.kind in ("conflict", "aux") else 0 for v in self.variables]

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


@dataclass
class ProblemGraph:
    """The layout problem, or one independent piece of it, as a model sees it.

    vertex_reps is the set of the piece's vertex ids, one color variable
    each (the name is kept because perfbench/spans.py reads its length).
    Conflict edges map to the candidate id annotated on them, or to None.
    """

    vertex_reps: set[int] = field(default_factory=set)
    conflict_edges: dict[EdgeKey, int | None] = field(default_factory=dict)
    stitch_edges: set[EdgeKey] = field(default_factory=set)

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


def build_model_from_problem(
    pg: ProblemGraph,
    eg: EndCutGraph,
    *,
    corrected: bool = True,
    with_stitch: bool = False,
    alpha: Fraction = Fraction(1, 10),
) -> IlpModel:
    m = IlpModel(alpha=alpha if with_stitch else Fraction(0), flip_symmetric=True)
    dash = eg.dash_edges

    for v in sorted(pg.vertex_reps):
        m.add_var(f"x_{v}", "color", (v,))

    edge_list = sorted(pg.conflict_edges)
    for u, v in edge_list:
        cid = pg.conflict_edges[(u, v)]
        if cid is not None:
            m.add_var(f"ec_{cid}", "endcut", (cid,))

    # a conflict between u and v is forgiven only when cuts to one common
    # neighbor w merge u, w and v into a single printed shape
    adjacency: dict[int, set[int]] = {v: set() for v in pg.vertex_reps}
    for u, v in edge_list:
        adjacency[u].add(v)
        adjacency[v].add(u)

    gammas: dict[EdgeKey, list[int]] = {e: [] for e in edge_list}
    if corrected:
        for u, v in edge_list:
            for w in sorted(adjacency[u] & adjacency[v]):
                eu = (u, w) if u < w else (w, u)
                ev = (v, w) if v < w else (w, v)
                p, q = pg.conflict_edges[eu], pg.conflict_edges[ev]
                if p is None or q is None:
                    continue
                pair = (p, q) if p < q else (q, p)
                if pair in dash:
                    g = m.add_var(f"g_{u}_{v}_w{w}_{p}_{q}", "merge", (u, v, w, p, q))
                    gammas[(u, v)].append(g)

    for u, v in edge_list:
        m.add_var(f"c_{u}_{v}", "conflict", (u, v))
    if with_stitch:
        for u, v in sorted(pg.stitch_edges):
            m.add_var(f"s_{u}_{v}", "stitch", (u, v))

    for u, v in edge_list:
        xu = m.var("color", (u,))
        xv = m.var("color", (v,))
        c = m.var("conflict", (u, v))
        assert xu is not None and xv is not None and c is not None
        cid = pg.conflict_edges[(u, v)]
        e = None if cid is None else m.var("endcut", (cid,))
        relax = ([] if e is None else [(e, -1)]) + [(g, -1) for g in gammas[(u, v)]]
        m.add_constraint(f"same_{u}_{v}", [(xu, 1), (xv, 1), (c, -1)] + relax, 1)
        m.add_constraint(f"diff_{u}_{v}", [(xu, -1), (xv, -1), (c, -1)] + relax, -1)
        if e is not None:
            m.add_constraint(f"cut_lo_{cid}", [(e, 1), (xu, 1), (xv, -1)], 1)
            m.add_constraint(f"cut_hi_{cid}", [(e, 1), (xv, 1), (xu, -1)], 1)

    if corrected:
        for u, v in edge_list:
            for g in gammas[(u, v)]:
                _, _, w, p, q = m.variables[g].key
                ep = m.var("endcut", (p,))
                eq = m.var("endcut", (q,))
                assert ep is not None and eq is not None
                name = m.variables[g].name
                m.add_constraint(f"{name}_le_p", [(g, 1), (ep, -1)], 0)
                m.add_constraint(f"{name}_le_q", [(g, 1), (eq, -1)], 0)
                m.add_constraint(f"{name}_ge", [(ep, 1), (eq, 1), (g, -1)], 1)

    for p, q in sorted(eg.solid_edges):
        ep = m.var("endcut", (p,))
        eq = m.var("endcut", (q,))
        if ep is not None and eq is not None:
            m.add_constraint(f"excl_{p}_{q}", [(ep, 1), (eq, 1)], 1)

    for u, v in edge_list:
        c = m.var("conflict", (u, v))
        assert c is not None
        m.objective[c] = Fraction(1)
    if with_stitch:
        for u, v in sorted(pg.stitch_edges):
            xu = m.var("color", (u,))
            xv = m.var("color", (v,))
            s = m.var("stitch", (u, v))
            assert xu is not None and xv is not None and s is not None
            m.add_constraint(f"st_lo_{u}_{v}", [(xu, 1), (xv, -1), (s, -1)], 0)
            m.add_constraint(f"st_hi_{u}_{v}", [(xv, 1), (xu, -1), (s, -1)], 0)
            m.objective[s] = alpha
    return m


def build_model_no_stitch(
    lg: LayoutGraph, eg: EndCutGraph, *, corrected: bool = True
) -> IlpModel:
    """Conflict-minimization model over an unstitched layout graph."""
    return build_model_from_problem(ProblemGraph.from_layout(lg, eg), eg, corrected=corrected)


def build_model_with_stitch(
    lg: LayoutGraph, eg: EndCutGraph, alpha: Fraction = Fraction(1, 10)
) -> IlpModel:
    """Conflict + alpha * stitch minimization over a stitched layout graph."""
    return build_model_from_problem(
        ProblemGraph.from_layout(lg, eg), eg, with_stitch=True, alpha=alpha
    )


def build_lelele_baseline(lg: LayoutGraph) -> IlpModel:
    """Plain three-mask coloring ILP (two bits per vertex), conflicts only."""
    m = IlpModel()
    for s in lg.vertices:
        m.add_var(f"xa_{s.id}", "color", (s.id, 0))
        m.add_var(f"xb_{s.id}", "color", (s.id, 1))
    edge_list = sorted(lg.conflict_edges)
    for u, v in edge_list:
        m.add_var(f"eq0_{u}_{v}", "aux", (u, v, 0))
        m.add_var(f"eq1_{u}_{v}", "aux", (u, v, 1))
    for u, v in edge_list:
        m.add_var(f"c_{u}_{v}", "conflict", (u, v))
    for s in lg.vertices:
        xa = m.var("color", (s.id, 0))
        xb = m.var("color", (s.id, 1))
        assert xa is not None and xb is not None
        m.add_constraint(f"threecolor_{s.id}", [(xa, 1), (xb, 1)], 1)
    for u, v in edge_list:
        c = m.var("conflict", (u, v))
        assert c is not None
        for bit in (0, 1):
            xu = m.var("color", (u, bit))
            xv = m.var("color", (v, bit))
            eq = m.var("aux", (u, v, bit))
            assert xu is not None and xv is not None and eq is not None
            m.add_constraint(f"eq{bit}_same_{u}_{v}", [(xu, 1), (xv, 1), (eq, -1)], 1)
            m.add_constraint(f"eq{bit}_diff_{u}_{v}", [(xu, -1), (xv, -1), (eq, -1)], -1)
        eq0 = m.var("aux", (u, v, 0))
        eq1 = m.var("aux", (u, v, 1))
        assert eq0 is not None and eq1 is not None
        m.add_constraint(f"both_eq_{u}_{v}", [(eq0, 1), (eq1, 1), (c, -1)], 1)
        m.objective[c] = Fraction(1)
    return m


def baseline_colors(model: IlpModel, assignment: list[int]) -> dict[int, int]:
    """Vertex -> color in {0,1,2} from a baseline model assignment."""
    colors: dict[int, int] = {}
    for vid, var in enumerate(model.variables):
        if var.kind == "color":
            vertex, bit = var.key
            colors.setdefault(vertex, 0)
            if assignment[vid]:
                colors[vertex] += 1 if bit == 0 else 2
    return colors


@dataclass
class DecompResult:
    """Mask assignment plus selected trim cuts, charged conflicts and stitches."""

    colors: dict[int, int]
    selected_cuts: set[int]
    trim_rects: list[Rect]
    conflicts: list[EdgeKey]
    stitches: list[EdgeKey]
    cost: Fraction
    alpha: Fraction
    stats: dict | None = None

    def recompute_cost(self) -> Fraction:
        return Fraction(len(self.conflicts)) + self.alpha * len(self.stitches)


def merged_trim_rects(selected: set[int], eg: EndCutGraph) -> list[Rect]:
    """Trim-mask rectangles: dash-connected selected cuts emit one union rect."""
    ids = sorted(selected)
    parent = {i: i for i in ids}

    def find(i: int) -> int:
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for p, q in sorted(eg.dash_edges):
        if p in parent and q in parent:
            parent[find(p)] = find(q)
    groups: dict[int, Rect] = {}
    for i in ids:
        root = find(i)
        rect = eg.nodes[i].cut_rect
        groups[root] = rect if root not in groups else rect_union_bbox(groups[root], rect)
    return sorted(groups.values(), key=lambda r: r.as_tuple())


@dataclass
class Decoded:
    """The layout meaning of a leleec model assignment."""

    colors: dict[int, int]  # vertex -> 0/1
    selected: set[int]  # selected end-cut candidate ids
    conflicts: list[EdgeKey]  # charged conflict edges, sorted
    stitches: list[EdgeKey]  # active stitch edges, sorted


def decode_assignment(model: IlpModel, assignment: list[int]) -> Decoded:
    """Read colors, selected cuts, charged conflicts and stitches off an assignment."""
    d = Decoded(colors={}, selected=set(), conflicts=[], stitches=[])
    for vid, var in enumerate(model.variables):
        val = assignment[vid]
        if var.kind == "color":
            d.colors[var.key[0]] = val
        elif var.kind == "endcut" and val:
            d.selected.add(var.key[0])
        elif var.kind == "conflict" and val:
            d.conflicts.append(var.key)
        elif var.kind == "stitch" and val:
            d.stitches.append(var.key)
    d.conflicts.sort()
    d.stitches.sort()
    return d


def extract_result(
    model: IlpModel, assignment: list[int], lg: LayoutGraph, eg: EndCutGraph
) -> DecompResult:
    """Validated result from a full-graph model assignment.

    Raises InfeasibleAssignment on any violated row and CostMismatch when the
    recomputed conflict/stitch cost disagrees with the objective value.
    """
    model.check_assignment(assignment)
    d = decode_assignment(model, assignment)
    result = DecompResult(
        colors=d.colors,
        selected_cuts=d.selected,
        trim_rects=merged_trim_rects(d.selected, eg),
        conflicts=d.conflicts,
        stitches=d.stitches,
        cost=model.objective_value(assignment),
        alpha=model.alpha,
    )
    if result.recompute_cost() != result.cost:
        raise CostMismatch(f"recomputed {result.recompute_cost()} != objective {result.cost}")
    return result
