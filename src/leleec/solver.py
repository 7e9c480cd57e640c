"""Exact 0-1 ILP solving: deterministic branch-and-bound and a brute-force oracle.

The search is depth-first over the model's `search_order`, less the cost
bits of its `pair_costs` (see the third shortcut), trying 0 before 1:
colors, end-cuts, merges, conflicts, stitches. Colors come in the
model's `colour_order` (breadth-first over its rigid conflict and stitch
edges, the highest degree first, so the most constrained bits are fixed
early), every other family in ascending id. The returned assignment is the
smallest optimum read in that order, the one `brute_force` picks. Unit
propagation over the <=-rows forces implied assignments, e.g. a conflict
bit whose row is otherwise violated. A branch is descended only while its
lower bound is below the incumbent's cost. Identical models yield
byte-identical assignments and node counts.

The lower bound is the committed cost, the objective mass of variables
fixed to 1 (all objective coefficients are non-negative), plus a
colour-space bound over the model's `pair_costs`. Each pair is two colour
bits and a cost bit that the pair's two rows force to 1 exactly when the
colour bits are equal (a rigid conflict edge) or differ (a stitch edge);
the solver never branches on the cost bit (see the third shortcut). A
pair whose two colour bits are fixed is closed: its cost, when charged, is
in a running closed sum. For an open colour bit v, forced[v][b] is the
cost that v's pairs with a fixed partner charge if v takes b, and the
bound adds the closed sum and the sum of min(forced[v]) over the open
bits. It is sound because its terms are disjoint: the closed sum counts
the pairs with both bits fixed, forced the pairs with exactly one, and the
committed cost no pair at all. A pruned subtree holds no leaf strictly
better than the incumbent, so the sequence of incumbents, and the returned
assignment, are those of the committed-cost bound alone; only node counts
drop. A model with no pair costs, such as the three-mask baseline, has
bound 0 throughout.

A model whose every row is a pair row, as every cut-free piece's is, gets
two more terms, computed once before the search (`triangle_suffix` and
`descent_incumbent`). With no other row nothing propagates, so below the
node that fixes order[pos] the open bits are exactly order[pos + 1:].

- From below, suffix[pos + 1]: a greedy packing of edge-disjoint rigid
  conflict triangles among those open bits. A triangle charges at least
  its cheapest edge however it is coloured, and its pairs have both bits
  open, so neither forced nor the closed sum counts them. These
  triangles are the shortest odd-cycle inequalities of the cut polytope
  (Barahona, Grötschel, Jünger & Reinelt, Operations Research 1988).
- From above, an incumbent cost U: a greedy colouring in the search order,
  improved by one-flip descent. The search starts with its threshold at
  U + 1, so it prunes every branch that cannot reach a leaf of cost at
  most U; the optimum is at most U, so the first optimal leaf in search
  order is still found, and no leaf is taken that the plain search would
  not take. The descent leaf itself is never returned.

Both only prune subtrees that hold no new incumbent, so the returned
assignment is the one the plain search returns; only node counts drop. The
incumbent is used only when `solve` reads no deadline: under a time limit
the first leaf must come from the unpruned first dive, so a zero limit
still returns the one-mask leaf, and a search the deadline stops holds a
leaf of the same sequence of incumbents.

Five exact shortcuts keep the work down without changing any returned
assignment, incumbent or node count:

- Colour-flip symmetry. In a model with `flip_symmetric` set, complementing
  every colour bit maps a feasible assignment to a feasible one of the same
  cost (colour bits appear only as xu+xv, -xu-xv or +-(xu-xv), and those
  rows come in pairs that swap). When the root branching variable is a
  colour bit, only its 0-half is searched: the 1-half mirrors it, and since
  the 0-half is searched first and a later incumbent must be strictly
  better, the 1-half could never replace the incumbent.
- Slack-gated propagation. A row can force an unfixed variable only when
  its slack is below that variable's |coefficient|. Each row's largest
  |coefficient| is computed once, and propagation skips every row whose
  slack is at least that. It also skips the rows whose slack the new
  assignment left unchanged, which had nothing to force before it. So only
  rows that can force are scanned, and the forced assignments, node
  counts and results are those of a scan over every touched row.
- Pair cost bits settled from the colours. By the model's contract (see
  `ilp_model`) a pair's cost bit is in its pair's two rows and in no
  other, and its cost is >= 0. Once both colour bits are fixed, the
  smallest value those rows allow is the bit's optimum, and it is the value
  the 0-first search over it would return. So the cost bits and their rows
  leave the search: the closed sum charges each pair as its second colour
  bit is fixed, and at a leaf each cost bit is written from its colours.
  Every colour node sees the same committed cost plus bound as a search
  that branches on the cost bits, so the incumbents and the returned
  assignment are unchanged; only the nodes on cost bits go away. `solve`
  raises SolverError on a model that breaks the contract.
- Snapshot undo. Each branch saves the bound and the closed sum before it
  assigns, and restores both once `undo` has taken back every assignment
  made since. With none of them left, the saved values are exactly what
  reversing each update would give, so the prune test reads the same
  numbers; `undo` only puts back slacks, values and the forced entries of
  the partners that are open.
- Rows only where they can force. A branch propagates only when its bit
  has a row whose slack its value lowers. With none, no slack moved, and
  a row that could force nothing before the assignment still cannot, so
  propagation would return at once with nothing forced. Every row of a
  cut-free piece is a pair row, so its colour bits never propagate.

A time limit has one rule: each search keeps its best leaf, and the first
is found before the deadline is read (see `solve` for why every model the
program builds finds it in one dive).
"""

from __future__ import annotations

import sys
import time
from fractions import Fraction
from math import lcm
from typing import NamedTuple

from .ilp_model import Constraint, IlpModel
from .record import Record


class SolverError(Exception):
    pass


class Infeasible(SolverError):
    """The constraint system admits no 0/1 assignment."""


class TooLarge(SolverError):
    """Model exceeds the brute-force variable cap."""


BRUTE_FORCE_CAP = 24


class SolveStats(Record):
    """A search's node count and best cost, and whether it proved that cost optimal."""

    __slots__ = ("nodes_explored", "best_cost", "proven_optimal")

    def __init__(self, nodes_explored: int, best_cost: Fraction, proven_optimal: bool) -> None:
        self.nodes_explored = nodes_explored
        self.best_cost = best_cost
        self.proven_optimal = proven_optimal


def _scaled_objective(model: IlpModel) -> tuple[list[int], int]:
    """Objective as integers: (per-variable costs, common denominator)."""
    denom = 1
    for coeff in model.objective.values():
        denom = lcm(denom, coeff.denominator)
    costs = [0] * model.num_vars
    for vid, coeff in model.objective.items():
        costs[vid] = coeff.numerator * (denom // coeff.denominator)
    return costs, denom


# (coefficient of colour u, of colour v, of the cost bit, rhs) of a pair's
# two rows, by charged_when_equal: the cost bit is then at least 1 exactly
# when the colours are equal (a conflict) or differ (a stitch)
_PAIR_ROW_FORMS = {
    True: {(1, 1, -1, 1), (-1, -1, -1, -1)},
    False: {(1, -1, -1, 0), (-1, 1, -1, 0)},
}


class RowTables(NamedTuple):
    """The rows the search reads, with their tables, and the pair rows it skips.

    rows[r] is a row of the model that holds no pair cost bit; slack[r] is
    its rhs less the sum of its terms' minimum contributions (violated iff
    < 0), and max_coeff[r] its largest |coefficient|, so a row with slack
    at least that forces nothing. drops[val][vid] lists (r, slack drop) for
    each row whose slack falls when vid := val, i.e. whose contribution
    moves up from min(0, coeff). pair_rows holds the model indices of the
    rows of its pair costs, which the search settles from the colours.
    """

    rows: list[Constraint]
    slack: list[int]
    max_coeff: list[int]
    drops: list[list[list[tuple[int, int]]]]
    pair_rows: set[int]


def row_tables(model: IlpModel) -> RowTables:
    """One scan over the model's rows: the search tables, and the pair rows.

    Raises SolverError unless the pairs keep the contract of
    `IlpModel.pair_costs`: each pair's cost bit is its own, costs >= 0 and
    appears in exactly two rows, which hold only the pair's three bits and
    are xu + xv - c <= 1 and -xu - xv - c <= -1 for a conflict, or
    xu - xv - c <= 0 and xv - xu - c <= 0 for a stitch.
    """
    pair_of = {cvar: k for k, (_, _, cvar, _) in enumerate(model.pair_costs)}
    if len(pair_of) != len(model.pair_costs):
        raise SolverError("two pair costs share a cost bit")
    found: list[list[int]] = [[] for _ in model.pair_costs]
    rows: list[Constraint] = []
    slack: list[int] = []
    max_coeff: list[int] = []
    drops: list[list[list[tuple[int, int]]]] = [[[] for _ in range(model.num_vars)] for _ in (0, 1)]
    for ridx, con in enumerate(model.constraints):
        terms = con.terms
        if pair_of:
            on_pair = [pair_of[vid] for vid, _ in terms if vid in pair_of]
            if on_pair:
                for k in on_pair:
                    found[k].append(ridx)
                continue
        r = len(rows)
        rows.append(con)
        s, top = con.rhs, 0
        for vid, coeff in terms:
            if coeff < 0:
                s -= coeff
                drops[0][vid].append((r, -coeff))
                if -coeff > top:
                    top = -coeff
            else:
                drops[1][vid].append((r, coeff))
                if coeff > top:
                    top = coeff
        slack.append(s)
        max_coeff.append(top)
    for (xu, xv, cvar, when_equal), ridxs in zip(model.pair_costs, found):
        forms = set()
        for ridx in ridxs:
            con = model.constraints[ridx]
            coeff = dict(con.terms)
            if len(coeff) == 3:
                forms.add((coeff.get(xu), coeff.get(xv), coeff[cvar], con.rhs))
        if len(ridxs) != 2 or forms != _PAIR_ROW_FORMS[when_equal] or model.objective.get(cvar, 0) < 0:
            raise SolverError(f"pair cost {model.variables[cvar].name} breaks the pair contract")
    return RowTables(rows, slack, max_coeff, drops, {ridx for ridxs in found for ridx in ridxs})


def pair_links(
    pair_costs: list[tuple[int, int, int, bool]], costs: list[int]
) -> list[list[tuple[int, int, int]]]:
    """links[v]: (partner, cost, flip) for each pair at bit v with a positive
    scaled cost, which charges cost when v takes the partner's value xor flip."""
    links: list[list[tuple[int, int, int]]] = [[] for _ in costs]
    for xu, xv, cvar, when_equal in pair_costs:
        if costs[cvar]:
            flip = 0 if when_equal else 1
            links[xu].append((xv, costs[cvar], flip))
            links[xv].append((xu, costs[cvar], flip))
    return links


def triangle_suffix(order: list[int], links: list[list[tuple[int, int, int]]]) -> list[int]:
    """suffix[p]: a lower bound on what the pairs with both bits in order[p:] charge.

    A greedy packing of edge-disjoint rigid-conflict triangles: however its
    three bits are coloured, one of a triangle's edges joins equal colours,
    so the triangle charges at least its cheapest edge. It is built from the
    end: order[p] joins, then each triangle through it on unused edges is
    packed, so suffix[p] - suffix[p + 1] counts the triangles whose first
    bit is order[p].
    """
    suffix = [0] * (len(order) + 1)
    # free[v][w]: cost of the unused rigid edges between joined bits v and w
    free: dict[int, dict[int, int]] = {}
    for p in range(len(order) - 1, -1, -1):
        v = order[p]
        mine: dict[int, int] = {}
        for w, cost, flip in links[v]:
            if not flip and w in free:
                mine[w] = mine.get(w, 0) + cost
        packed = 0
        nbrs = list(mine)
        for i, a in enumerate(nbrs):
            if a not in mine:
                continue
            for b in nbrs[i + 1 :]:
                if b in mine and b in free[a]:
                    packed += min(mine.pop(a), mine.pop(b), free[a].pop(b))
                    del free[b][a]
                    break
        free[v] = mine
        for w, cost in mine.items():
            free[w][v] = cost
        suffix[p] = suffix[p + 1] + packed
    return suffix


def descent_incumbent(
    order: list[int], links: list[list[tuple[int, int, int]]], costs: list[int]
) -> tuple[list[int], int]:
    """A leaf of a search with no rows, and its scaled cost: a greedy colouring
    improved by one-flip descent.

    Each bit in order takes the value that charges less against the bits
    already set, 0 on a tie; then a bit whose flip lowers the cost is flipped,
    pass after pass, until none does. Values off order (the pair cost bits)
    stay -1.
    """
    value = [-1] * len(links)

    def charges(v: int) -> list[int]:
        """What v := 0 and v := 1 cost, its own cost and its pairs with a set partner."""
        c = [0, costs[v]]
        for w, cost, flip in links[v]:
            if value[w] != -1:
                c[value[w] ^ flip] += cost
        return c

    total = 0
    for v in order:
        c = charges(v)
        value[v] = 1 if c[1] < c[0] else 0
        total += c[value[v]]
    improved = True
    while improved:
        improved = False
        for v in order:
            c = charges(v)
            if c[value[v] ^ 1] < c[value[v]]:
                total -= c[value[v]] - c[value[v] ^ 1]
                value[v] ^= 1
                improved = True
    return value, total


def solve(model: IlpModel, time_limit: float | None = None) -> tuple[list[int], SolveStats]:
    """Minimal-objective feasible assignment, deterministically.

    An infeasible model raises Infeasible, and one that breaks the pair
    contract (see `row_tables`) SolverError. Under a time limit the search
    keeps its best leaf, and the first is found before the deadline is
    read; a search the deadline stops returns its best leaf with
    proven_optimal=False. So a time-limited solve never stops
    empty-handed, and any model may run past the limit until its first
    leaf, or until it is proved infeasible.

    The rule keeps to the limit because every model the program builds
    reaches a leaf in its first dive, with no backtrack. That dive tries 0
    on every bit it branches on, and no row forces a colour, cut or merge
    bit to 1 while the others are at 0:

    - In a leleec model only the diff row, -xu - xv - c - cuts - merges
      <= -1, could, and it also holds its conflict bit c: while c is open,
      the row forces nothing but c. A conflict bit has only negative
      coefficients, so propagation forces it only to 1, and the search
      branches on it after every colour, cut and merge bit. The cut and
      merge rows force a bit to 1 only once another of their bits is 1.
    - In the three-mask baseline only the eq_diff row, -xu - xv - eq <=
      -1, could, and it also holds its equal bit, which stays open until
      the row forces it to 1: only its both_eq row, eq0 + eq1 - c <= 1,
      could force it to 0, and only once c is 0.

    So the dive's leaf has every colour, cut and merge bit at 0, every
    conflict bit at 1 (the baseline's equal bits too) and every stitch bit
    settled to 0: the one-mask assignment, with every conflict charged.
    The triangle suffix leaves that dive whole, as nothing is pruned before
    the first leaf exists. Only a search with no deadline starts from the
    descent incumbent's threshold, and its first dive may then prune.
    """
    deadline = time.monotonic() + time_limit if time_limit is not None else None
    n = model.num_vars
    costs, denom = _scaled_objective(model)
    # pair cost bits are settled from their colours, outside the search and the rows
    rows, slack, max_coeff, drops, _ = row_tables(model)
    cost_bits = {cvar for _, _, cvar, _ in model.pair_costs}
    order = [vid for vid in model.search_order() if vid not in cost_bits]
    depth = len(order)

    value = [-1] * n
    trail: list[int] = []

    # the colour-space bound (see the module docstring): forced[v] changes
    # only while v is open, and then counts exactly the pairs whose partner
    # is fixed; closed counts the charged pairs whose two bits are fixed
    links = pair_links(model.pair_costs, costs)
    forced = [[0, 0] for _ in range(n)]
    bound = 0
    closed = 0

    def assign(vid: int, val: int) -> bool:
        """Fix vid := val, update slacks and the bound; False when a row becomes violated."""
        nonlocal bound, closed
        value[vid] = val
        trail.append(vid)
        ok = True
        for ridx, delta in drops[val][vid]:
            slack[ridx] -= delta
            if slack[ridx] < 0:
                ok = False
        pairs = links[vid]
        if pairs:
            # min() written out: these loops run on every colour-bit assignment
            f = forced[vid]
            bound -= f[0] if f[0] < f[1] else f[1]
            for wid, cost, flip in pairs:
                if value[wid] == -1:
                    f = forced[wid]
                    old = f[0] if f[0] < f[1] else f[1]
                    f[val ^ flip] += cost
                    bound += (f[0] if f[0] < f[1] else f[1]) - old
                elif val == value[wid] ^ flip:
                    closed += cost
        return ok

    def undo(mark: int) -> None:
        """Take back every assignment after mark: slacks, values and the
        partners' forced entries. The caller restores bound and closed from
        its snapshot, which is exact because nothing assigned after mark is
        left."""
        while len(trail) > mark:
            vid = trail.pop()
            val = value[vid]
            for ridx, delta in drops[val][vid]:
                slack[ridx] += delta
            value[vid] = -1
            # a partner open now was open when vid was fixed: every bit
            # fixed since is already taken back
            for wid, cost, flip in links[vid]:
                if value[wid] == -1:
                    forced[wid][val ^ flip] -= cost

    def force_in_row(ridx: int, pending: list[int]) -> tuple[bool, int]:
        """Force unfixed variables whose wrong value would violate row ridx.

        Forcing sets a variable to its minimum contribution, so the row's
        own slack stays put and one pass forces all it can.
        """
        added = 0
        for wid, coeff in rows[ridx].terms:
            if value[wid] != -1:
                continue
            if coeff > 0 and coeff > slack[ridx]:
                if not assign(wid, 0):
                    return False, added
                pending.append(wid)
            elif coeff < 0 and -coeff > slack[ridx]:
                if not assign(wid, 1):
                    return False, added
                added += costs[wid]
                pending.append(wid)
        return True, added

    def propagate(seed: list[int]) -> tuple[bool, int]:
        """Exhaust forced assignments reachable from the seed variables.

        Every row was left with nothing to force when its slack last fell,
        so only the rows whose slack the popped variable lowered, and only
        those with slack below their largest |coefficient|, are scanned.
        """
        added = 0
        pending = list(seed)
        while pending:
            vid = pending.pop()
            for ridx, _ in drops[value[vid]][vid]:
                if slack[ridx] >= max_coeff[ridx]:
                    continue
                ok, add = force_in_row(ridx, pending)
                added += add
                if not ok:
                    return False, added
        return True, added

    def initial_sweep() -> tuple[bool, int]:
        added = 0
        pending: list[int] = []
        for ridx in range(len(rows)):
            if slack[ridx] >= max_coeff[ridx]:
                continue
            ok, add = force_in_row(ridx, pending)
            added += add
            if not ok:
                return False, added
        ok, add = propagate(pending)
        return ok, added + add

    best_cost: int | None = None
    best_assignment: list[int] | None = None
    nodes = 0
    timed_out = False

    feasible, root_cost = initial_sweep()
    if not feasible:
        raise Infeasible("constraints admit no assignment")

    def first_unfixed(pos: int) -> int:
        while pos < depth and value[order[pos]] != -1:
            pos += 1
        return pos

    # propagation forces only values that every feasible assignment shares,
    # so the assignments left at the root are still closed under the flip
    root = first_unfixed(0)
    root_branches = (0, 1)
    if model.flip_symmetric and root < depth and model.variables[order[root]].kind == "color":
        root_branches = (0,)

    # with no row but the pair rows, nothing propagates, so the bits open
    # below position pos are exactly order[pos:]: bound them with suffix,
    # and with no deadline to keep, start the search just above a descent
    # leaf's cost (see the module docstring)
    suffix = [0] * (depth + 1)
    if not rows:
        suffix = triangle_suffix(order, links)
        if deadline is None:
            best_cost = descent_incumbent(order, links, costs)[1] + 1

    def dfs(pos: int, committed: int) -> None:
        nonlocal best_cost, best_assignment, nodes, timed_out, bound, closed
        if timed_out:
            return
        pos = first_unfixed(pos)
        if pos >= depth:
            # pruning guarantees strict improvement here
            best_cost = committed + closed
            best_assignment = list(value)
            for xu, xv, cvar, when_equal in model.pair_costs:
                best_assignment[cvar] = int((value[xu] == value[xv]) == when_equal)
            return
        vid = order[pos]
        for branch in root_branches if pos == root else (0, 1):
            # the first leaf comes before the clock (see the docstring)
            if deadline is not None and best_assignment is not None and time.monotonic() > deadline:
                timed_out = True
                return
            nodes += 1
            mark = len(trail)
            saved_bound, saved_closed = bound, closed
            ok = assign(vid, branch)
            add = costs[vid] if branch else 0
            # a bit with no row to lower can force nothing
            if ok and drops[branch][vid]:
                ok, forced_cost = propagate([vid])
                add += forced_cost
            if ok and (best_cost is None or committed + add + closed + bound + suffix[pos + 1] < best_cost):
                dfs(pos + 1, committed + add)
            undo(mark)
            bound, closed = saved_bound, saved_closed
            if timed_out:
                return

    old_limit = sys.getrecursionlimit()
    sys.setrecursionlimit(max(old_limit, 2 * n + 200))
    try:
        dfs(0, root_cost)
    finally:
        sys.setrecursionlimit(old_limit)
        del dfs  # dfs refers to itself; free the search state now, not at the next GC

    if best_assignment is None:
        raise Infeasible("constraints admit no assignment")
    stats = SolveStats(
        nodes_explored=nodes,
        best_cost=Fraction(best_cost, denom),
        proven_optimal=not timed_out,
    )
    model.check_assignment(best_assignment)
    return best_assignment, stats


def brute_force(model: IlpModel) -> tuple[list[int], Fraction]:
    """Exhaustive enumeration oracle for models with <= 24 variables.

    Ties break to the smallest assignment read as a binary integer in the
    model's search order (first variable = most significant bit).

    Rows and costs are enumerated in float64, which is exact: every
    coefficient, bound and partial sum is a small integer, far below 2**53.
    The winning assignment is checked again in integer arithmetic.
    """
    import numpy as np  # only the oracle needs numpy; the CLI path never loads it

    n = model.num_vars
    if n > BRUTE_FORCE_CAP:
        raise TooLarge(f"{n} variables exceeds brute-force cap {BRUTE_FORCE_CAP}")
    order = model.search_order()
    costs, denom = _scaled_objective(model)
    cost_vec = np.array([costs[vid] for vid in order], dtype=np.float64)

    n_rows = len(model.constraints)
    a_mat = np.zeros((n_rows, n), dtype=np.float64)
    rhs = np.zeros(n_rows, dtype=np.float64)
    pos_of = {vid: pos for pos, vid in enumerate(order)}
    for ridx, con in enumerate(model.constraints):
        rhs[ridx] = con.rhs
        for vid, coeff in con.terms:
            a_mat[ridx, pos_of[vid]] += coeff

    shifts = np.arange(n - 1, -1, -1, dtype=np.uint64)  # first search var = MSB
    best_cost: int | None = None
    best_code: int | None = None
    total = 1 << n
    chunk = min(total, 1 << 16)
    for base in range(0, total, chunk):
        codes = np.arange(base, min(base + chunk, total), dtype=np.uint64)
        bits = ((codes[:, None] >> shifts[None, :]) & 1).astype(np.float64)
        if n_rows:
            feasible = np.all(bits @ a_mat.T <= rhs[None, :], axis=1)
        else:
            feasible = np.ones(len(codes), dtype=bool)
        if not feasible.any():
            continue
        chunk_costs = np.where(feasible, bits @ cost_vec, np.inf)
        idx = int(np.argmin(chunk_costs))
        c = int(chunk_costs[idx])
        if best_cost is None or c < best_cost:
            best_cost = c
            best_code = base + idx
    if best_cost is None or best_code is None:
        raise Infeasible("constraints admit no assignment")
    assignment = [0] * n
    for pos, vid in enumerate(order):
        assignment[vid] = (best_code >> (n - 1 - pos)) & 1
    for con in model.constraints:
        if sum(coeff * assignment[vid] for vid, coeff in con.terms) > con.rhs:
            raise SolverError(f"brute force: winning assignment violates {con.label}")
    if sum(costs[vid] for vid in range(n) if assignment[vid]) != best_cost:
        raise SolverError("brute force: winning cost differs in integer arithmetic")
    return assignment, Fraction(best_cost, denom)
