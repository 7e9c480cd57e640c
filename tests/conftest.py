"""Shared instance builders for the test suite."""

from __future__ import annotations

import importlib.util
import random
import signal
from pathlib import Path

import pytest

from leleec.geometry import Polygon, polygon_distance
from leleec.ilp_model import IlpModel
from leleec.layout_graph import Config, Feature


PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load_perfbench(name: str):
    """A benchmark module, loaded from its file as it is."""
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def load_spans():
    """The benchmark's trace module."""
    return _load_perfbench("spans")


def smoke_workload_layouts(seeds=range(3)) -> list[tuple[list[Feature], Config]]:
    """Each benchmark workload's layouts at its smoke size (`perfbench/run.py`)."""
    wl = _load_perfbench("workloads")
    return [
        layout
        for i in seeds
        for layout in (wl.motif_array(4, i), wl.via_clusters(1, i), wl.random_wires(60, 1350, i))
    ]


def make_features(*rect_lists) -> list[Feature]:
    return [Feature(i, Polygon.of(*rects)) for i, rects in enumerate(rect_lists)]


def clique4_motif() -> tuple[list[Feature], Config]:
    """Four minimum-width wires, pairwise in conflict; trim cuts can fix what
    three-mask coloring cannot."""
    cfg = Config.from_rules(10, 10, w_th=10)
    feats = make_features(
        [(0, 0, 10, 40)],
        [(20, 0, 30, 40)],
        [(0, 50, 10, 90)],
        [(20, 50, 30, 90)],
    )
    return feats, cfg


def gamma_quad() -> tuple[list[Feature], Config]:
    """Rail + two tall wires + one wire between them.

    The rail forces the tall wires onto one mask; the only conflict-free
    decomposition merges all three upper wires through two dash-mergeable
    cuts, which the uncorrected conflict rows cannot see.
    """
    cfg = Config.from_rules(10, 10, w_th=12, enable_stitch=False)
    feats = make_features(
        [(0, -20, 38, -10)],
        [(0, 0, 10, 100)],
        [(28, 0, 38, 100)],
        [(14, 8, 24, 108)],
    )
    return feats, cfg


def stitch_ring() -> tuple[list[Feature], Config]:
    """Five-wire odd conflict ring with no end-cut candidates.

    The two long wires acquire stitch candidates; one active stitch turns the
    odd ring even, so the optimum drops from one conflict to one stitch.
    """
    cfg = Config.from_rules(10, 10)
    feats = make_features(
        [(0, 30, 10, 70)],
        [(0, 90, 10, 130)],
        [(0, 150, 300, 160)],
        [(290, 30, 300, 130)],
        [(0, 0, 300, 10)],
    )
    return feats, cfg


def preselect_ring() -> tuple[list[Feature], Config]:
    """Even 8-ring whose only candidate sits on one ring edge.

    Contracting that edge turns the ring odd, so the end-cut pre-selection
    that leleec once had (it contracted such edges) cost one conflict here
    that the exact solve avoids.
    """
    cfg = Config.from_rules(10, 10, enable_stitch=False)
    feats = make_features(
        [(0, 0, 10, 100)],
        [(55, 0, 65, 100)],
        [(-10, 120, 0, 160)],
        [(65, -60, 75, -20)],
        [(-61, 60, -51, 100)],
        [(-61, -10, -51, 30)],
        [(-55, -90, -15, -50)],
        [(15, -90, 55, -80)],
    )
    return feats, cfg


def via_block(rows: int = 4, cols: int = 4) -> tuple[list[Feature], Config]:
    """w_min vias at minimum pitch: a dense, cut-free, non-bipartite piece
    that only the branch-and-bound settles."""
    cfg = Config.from_rules(10, 10)
    feats = [
        Feature(cols * r + c, Polygon.of((20 * c, 20 * r, 20 * c + 10, 20 * r + 10)))
        for r in range(rows)
        for c in range(cols)
    ]
    return feats, cfg


def random_layout(rng: random.Random, n: int, box: int = 150) -> list[Feature]:
    """Up to n non-touching rectangular wires placed by rejection sampling."""
    shapes: list[Polygon] = []
    tries = 0
    max_tries = max(300, 20 * n)
    while len(shapes) < n and tries < max_tries:
        tries += 1
        w = rng.choice([8, 10, 12])
        length = rng.randrange(10, 90)
        x = rng.randrange(0, box)
        y = rng.randrange(0, box)
        rect = (x, y, x + w, y + length) if rng.random() < 0.5 else (x, y, x + length, y + w)
        p = Polygon.of(rect)
        if all(polygon_distance(p, s) > 0 for s in shapes):
            shapes.append(p)
    return [Feature(i, p) for i, p in enumerate(shapes)]


def _shape_rects(rng: random.Random, unit: int) -> list[tuple[int, int, int, int]]:
    """One bar, L, T, U or staircase of abutting rects, at the origin, in
    one of its eight orientations; arms are 1-3 units wide."""

    def length() -> int:
        return unit * rng.randint(2, 12)

    w = unit * rng.randint(1, 3)
    bar = length() + 2 * w
    kind = rng.choice(["bar", "L", "T", "U", "stairs"])
    if kind == "bar":
        rects = [(0, 0, bar, w)]
    elif kind == "L":
        rects = [(0, 0, bar, w), (0, w, w, w + length())]
    elif kind == "T":
        m = rng.randint(0, bar - w)
        rects = [(0, 0, bar, w), (m, w, m + w, w + length())]
    elif kind == "U":
        bar += w
        rects = [(0, 0, bar, w), (0, w, w, w + length()), (bar - w, w, bar, w + length())]
    else:
        step = unit * rng.randint(1, 4)
        run = step + length()
        rects = [(k * step, k * w, k * step + run, (k + 1) * w) for k in range(rng.randint(2, 4))]
    sx, sy, swap = rng.choice([1, -1]), rng.choice([1, -1]), rng.random() < 0.5
    out = []
    for x_lo, y_lo, x_hi, y_hi in rects:
        xs, ys = sorted((sx * x_lo, sx * x_hi)), sorted((sy * y_lo, sy * y_hi))
        if swap:
            xs, ys = ys, xs
        out.append((xs[0], ys[0], xs[1], ys[1]))
    return out


def random_shapes(rng: random.Random, n: int, unit: int, box: int) -> list[Feature]:
    """Up to n non-touching multi-rect features (see `_shape_rects`) placed
    by rejection sampling in a box-by-box window."""
    shapes: list[Polygon] = []
    for _ in range(max(300, 20 * n)):
        if len(shapes) == n:
            break
        x, y = rng.randrange(box), rng.randrange(box)
        p = Polygon.of(*[(a + x, b + y, c + x, d + y) for a, b, c, d in _shape_rects(rng, unit)])
        if all(polygon_distance(p, s) > 0 for s in shapes):
            shapes.append(p)
    return [Feature(i, p) for i, p in enumerate(shapes)]


def random_config(rng: random.Random) -> Config:
    return Config.from_rules(
        10,
        10,
        w_th=rng.choice([10, 12, 50]),
        enable_stitch=rng.random() < 0.4,
    )


def var(model: IlpModel, kind: str, key: tuple) -> int | None:
    """The id of the model's variable of this kind and key, or None."""
    return next((i for i, v in enumerate(model.variables) if (v.kind, v.key) == (kind, key)), None)


def one_mask_assignment(model: IlpModel) -> list[int]:
    """Everything on one mask, no cut, merge or stitch, every conflict charged.

    Feasible in every leleec model: each same/diff row is met by its
    conflict bit, and every other row holds with all its bits at 0. In the
    three-mask baseline every `aux` (equal-bit) bit is 1 as well, which
    meets its diff rows, and the charged conflict meets `both_eq`. A solve
    with a zero time limit returns it: it is the first leaf of the search.
    """
    return [1 if v.kind in ("conflict", "aux") else 0 for v in model.variables]


def model_shape(model: IlpModel) -> tuple:
    """Everything of a model the solver reads, without its variable names and keys:
    two models with equal shapes get the same assignment and node count."""
    return (
        tuple(v.kind for v in model.variables),
        tuple((c.terms, c.rhs) for c in model.constraints),
        tuple(sorted(model.objective.items())),
        model.alpha,
        model.flip_symmetric,
        tuple(model.pair_costs),
        tuple(model.colour_order),
    )


@pytest.fixture
def motif():
    return clique4_motif()


@pytest.fixture
def watchdog():
    """watchdog(seconds) caps the rest of the test: past that, SIGALRM raises
    TimeoutError in it, so a search that stops pruning fails the test instead
    of hanging it. The alarm and the old handler are put back at teardown."""

    def expire(signum, frame):
        raise TimeoutError("the test ran past its watchdog cap")

    old = signal.signal(signal.SIGALRM, expire)
    try:
        yield lambda seconds: signal.setitimer(signal.ITIMER_REAL, seconds)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, old)
