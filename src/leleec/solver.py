"""Exact 0-1 ILP solving: deterministic branch-and-bound and a brute-force oracle.

The search is depth-first over a fixed variable order (colors, end-cuts,
merges, conflicts, stitches; ascending id within each family), trying 0
before 1. The lower bound is the objective mass of variables already fixed
to 1 (valid because all objective coefficients are non-negative); unit
propagation over the <=-rows forces implied assignments, e.g. a conflict bit
whose row is otherwise violated. Identical models yield byte-identical
assignments and node counts.
"""

from __future__ import annotations

import sys
import time
from dataclasses import dataclass
from fractions import Fraction
from math import lcm

from .ilp_model import IlpModel


class SolverError(Exception):
    pass


class Infeasible(SolverError):
    """The constraint system admits no 0/1 assignment."""


class TimeLimit(SolverError):
    """Time budget exhausted before any feasible assignment was found."""


class TooLarge(SolverError):
    """Model exceeds the brute-force variable cap."""


BRUTE_FORCE_CAP = 24


@dataclass
class SolveStats:
    nodes_explored: int
    best_cost: Fraction
    proven_optimal: bool
    elapsed: float


def _scaled_objective(model: IlpModel) -> tuple[list[int], int]:
    """Objective as integers: (per-variable costs, common denominator)."""
    denom = 1
    for coeff in model.objective.values():
        denom = lcm(denom, coeff.denominator)
    costs = [0] * model.num_vars
    for vid, coeff in model.objective.items():
        costs[vid] = int(coeff * denom)
    return costs, denom


def solve(model: IlpModel, time_limit: float | None = None) -> tuple[list[int], SolveStats]:
    """Minimal-objective feasible assignment, deterministically.

    On time limit the incumbent is returned with proven_optimal=False;
    TimeLimit is raised only when no incumbent exists yet.
    """
    start = time.monotonic()
    deadline = start + time_limit if time_limit is not None else None
    n = model.num_vars
    costs, denom = _scaled_objective(model)
    order = model.search_order()

    rows = model.constraints
    # slack[r] = rhs - sum over terms of the minimum contribution; violated iff < 0
    slack: list[int] = []
    touching: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    for ridx, con in enumerate(rows):
        s = con.rhs
        for vid, coeff in con.terms:
            if coeff < 0:
                s -= coeff
            touching[vid].append((ridx, coeff))
        slack.append(s)

    value = [-1] * n
    trail: list[int] = []

    def assign(vid: int, val: int) -> bool:
        """Fix vid := val and update slacks; False when a row becomes violated."""
        value[vid] = val
        trail.append(vid)
        ok = True
        for ridx, coeff in touching[vid]:
            # contribution moves from min(0, coeff) to coeff * val
            delta = coeff * val - (coeff if coeff < 0 else 0)
            slack[ridx] -= delta
            if slack[ridx] < 0:
                ok = False
        return ok

    def undo(mark: int) -> None:
        while len(trail) > mark:
            vid = trail.pop()
            val = value[vid]
            value[vid] = -1
            for ridx, coeff in touching[vid]:
                delta = coeff * val - (coeff if coeff < 0 else 0)
                slack[ridx] += delta

    def force_in_row(ridx: int, pending: list[int]) -> tuple[bool, int]:
        """Force unfixed variables whose wrong value would violate row ridx."""
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
        """Exhaust forced assignments reachable from the seed variables."""
        added = 0
        pending = list(seed)
        while pending:
            vid = pending.pop()
            for ridx, _ in touching[vid]:
                ok, add = force_in_row(ridx, pending)
                added += add
                if not ok:
                    return False, added
        return True, added

    def initial_sweep() -> tuple[bool, int]:
        added = 0
        pending: list[int] = []
        for ridx in range(len(rows)):
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
        while pos < n and value[order[pos]] != -1:
            pos += 1
        return pos

    def dfs(pos: int, committed: int) -> None:
        nonlocal best_cost, best_assignment, nodes, timed_out
        if timed_out:
            return
        pos = first_unfixed(pos)
        if pos >= n:
            # pruning guarantees strict improvement here
            best_cost = committed
            best_assignment = list(value)
            return
        vid = order[pos]
        for branch in (0, 1):
            if deadline is not None and time.monotonic() > deadline:
                timed_out = True
                return
            nodes += 1
            mark = len(trail)
            ok = assign(vid, branch)
            add = costs[vid] if branch else 0
            if ok:
                ok, forced_cost = propagate([vid])
                add += forced_cost
            if ok and (best_cost is None or committed + add < best_cost):
                dfs(pos + 1, committed + add)
            undo(mark)
            if timed_out:
                return

    old_limit = sys.getrecursionlimit()
    sys.setrecursionlimit(max(old_limit, 2 * n + 200))
    try:
        dfs(0, root_cost)
    finally:
        sys.setrecursionlimit(old_limit)

    if best_assignment is None:
        if timed_out:
            raise TimeLimit("time limit reached before any feasible assignment")
        raise Infeasible("constraints admit no assignment")
    stats = SolveStats(
        nodes_explored=nodes,
        best_cost=Fraction(best_cost, denom),
        proven_optimal=not timed_out,
        elapsed=time.monotonic() - start,
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
