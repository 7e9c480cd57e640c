"""The program's records against the dataclasses they replaced.

Each record below was a `dataclasses.dataclass`; the copies here are those
dataclasses, field for field, and the records must keep their equality,
hash or unhashability and repr on seeded instances. The named tuples
(`Var`, `Constraint`, `EndCutCandidate`) differ in one way only: a named
tuple is a tuple, so it also equals its own field tuple.
"""

from __future__ import annotations

import copy
import dataclasses
import random
from dataclasses import dataclass, field
from fractions import Fraction

import pytest

from leleec.decomposer import PieceOutcome
from leleec.endcut import CORNER_CORNER, EDGE_EDGE, EndCutCandidate, EndCutGraph
from leleec.geometry import Polygon, Rect
from leleec.ilp_model import Constraint, DecompResult, Decoded, IlpModel, ProblemGraph, Var
from leleec.layout_graph import Config, Feature, LayoutError, LayoutGraph, Segment
from leleec.solver import SolveStats


@dataclass(frozen=True)
class DataConfig:
    w_min: int
    s_min: int
    dis_m: int
    dis_c: int
    w_th: int
    alpha: Fraction
    merge_gap: int
    enable_stitch: bool

    def __post_init__(self) -> None:
        for name in ("w_min", "s_min", "dis_m", "dis_c", "w_th", "merge_gap"):
            v = getattr(self, name)
            if not isinstance(v, int) or v <= 0:
                raise LayoutError(f"config {name} must be a positive integer, got {v!r}")
        if self.alpha < 0:
            raise LayoutError(f"config alpha must be non-negative, got {self.alpha}")


@dataclass(slots=True, unsafe_hash=True)
class DataFeature:
    id: int
    shape: Polygon


@dataclass(slots=True, unsafe_hash=True)
class DataSegment:
    id: int
    feature: int
    shape: Polygon


@dataclass
class DataLayoutGraph:
    vertices: list
    conflict_edges: dict
    stitch_edges: dict


@dataclass(frozen=True)
class DataVar:
    name: str
    kind: str
    key: tuple


@dataclass(frozen=True)
class DataConstraint:
    label: str
    terms: tuple
    rhs: int


@dataclass
class DataIlpModel:
    variables: list = field(default_factory=list)
    objective: dict = field(default_factory=dict)
    constraints: list = field(default_factory=list)
    alpha: Fraction = Fraction(0)
    flip_symmetric: bool = False
    pair_costs: list = field(default_factory=list)
    colour_order: list = field(default_factory=list)


@dataclass
class DataProblemGraph:
    vertex_reps: set = field(default_factory=set)
    conflict_edges: dict = field(default_factory=dict)
    stitch_edges: set = field(default_factory=set)


@dataclass
class DataDecompResult:
    colors: dict
    selected_cuts: set
    trim_rects: list
    conflicts: list
    stitches: list
    cost: Fraction
    alpha: Fraction
    stats: dict | None = None


@dataclass
class DataDecoded:
    colors: dict
    selected: set
    conflicts: list
    stitches: list


@dataclass(frozen=True)
class DataEndCutCandidate:
    id: int
    feature_a: int
    feature_b: int
    cut_rect: Rect
    kind: str


@dataclass
class DataEndCutGraph:
    nodes: list
    solid_edges: set
    dash_edges: set


@dataclass
class DataSolveStats:
    nodes_explored: int
    best_cost: Fraction
    proven_optimal: bool


@dataclass
class DataPieceOutcome:
    decoded: object
    stats: object = None


P, Q = Polygon.of((0, 0, 10, 40)), Polygon.of((0, 0, 10, 40), (10, 0, 40, 10))
CUT = EndCutCandidate(0, 0, 1, Rect(10, 0, 20, 10), EDGE_EDGE)

# record -> (its dataclass, a few values per field, in field order)
DOMAINS = {
    Config: (
        DataConfig,
        {
            "w_min": [10, 20],
            "s_min": [10],
            "dis_m": [50, 70],
            "dis_c": [50],
            "w_th": [10, 50],
            "alpha": [Fraction(1, 10), Fraction(0)],
            "merge_gap": [10],
            "enable_stitch": [True, False],
        },
    ),
    Feature: (DataFeature, {"id": [0, 1], "shape": [P, Q]}),
    Segment: (DataSegment, {"id": [0, 1], "feature": [0, 1], "shape": [P, Q]}),
    LayoutGraph: (
        DataLayoutGraph,
        {
            "vertices": [[], [Segment(0, 0, P)], [Segment(0, 0, Q)]],
            "conflict_edges": [{}, {(0, 1): None}, {(0, 1): 0}],
            "stitch_edges": [{}, {(0, 1): (0, 5)}],
        },
    ),
    Var: (DataVar, {"name": ["x_0", "x_1"], "kind": ["color", "conflict"], "key": [(0,), (0, 1)]}),
    Constraint: (
        DataConstraint,
        {"label": ["same_0_1", "diff_0_1"], "terms": [((0, 1), (1, 1)), ((0, -1),)], "rhs": [1, -1]},
    ),
    IlpModel: (
        DataIlpModel,
        {
            "variables": [[], [Var("x_0", "color", (0,))]],
            "objective": [{}, {0: Fraction(1)}],
            "constraints": [[], [Constraint("r", ((0, 1),), 1)]],
            "alpha": [Fraction(0), Fraction(1, 10)],
            "flip_symmetric": [False, True],
            "pair_costs": [[], [(0, 1, 2, True)]],
            "colour_order": [[], [0]],
        },
    ),
    ProblemGraph: (
        DataProblemGraph,
        {
            "vertex_reps": [set(), {0}, {0, 1}],
            "conflict_edges": [{}, {(0, 1): None}],
            "stitch_edges": [set(), {(0, 1)}],
        },
    ),
    DecompResult: (
        DataDecompResult,
        {
            "colors": [{}, {0: 1}],
            "selected_cuts": [set(), {0}],
            "trim_rects": [[], [Rect(0, 0, 1, 1)]],
            "conflicts": [[], [(0, 1)]],
            "stitches": [[], [(0, 1)]],
            "cost": [Fraction(0), Fraction(1)],
            "alpha": [Fraction(1, 10)],
            "stats": [None, {"proven_optimal": True}],
        },
    ),
    Decoded: (
        DataDecoded,
        {"colors": [{}, {0: 1}], "selected": [set(), {0}], "conflicts": [[], [(0, 1)]], "stitches": [[], [(0, 1)]]},
    ),
    EndCutCandidate: (
        DataEndCutCandidate,
        {
            "id": [0, 1],
            "feature_a": [0],
            "feature_b": [1, 2],
            "cut_rect": [Rect(10, 0, 20, 10), Rect(10, 0, 20, 20)],
            "kind": [EDGE_EDGE, CORNER_CORNER],
        },
    ),
    EndCutGraph: (
        DataEndCutGraph,
        {"nodes": [[], [CUT]], "solid_edges": [set(), {(0, 1)}], "dash_edges": [set(), {(0, 1)}]},
    ),
    SolveStats: (
        DataSolveStats,
        {"nodes_explored": [0, 5], "best_cost": [Fraction(0), Fraction(1, 10)], "proven_optimal": [True, False]},
    ),
    PieceOutcome: (
        DataPieceOutcome,
        {
            "decoded": [
                Decoded({0: 0}, set(), [], []),
                Decoded({0: 1}, set(), [], []),
                Decoded({0: 0, 1: 1}, set(), [], []),
            ],
            "stats": [None, SolveStats(0, Fraction(0), True)],
        },
    ),
}
NAMED_TUPLES = (Var, Constraint, EndCutCandidate)
HASHED = (Config, Feature, Segment, *NAMED_TUPLES)


def build(cls, values):
    """The record of these field values; an `IlpModel` is made empty, as its
    builders make it, and then given the values."""
    if not issubclass(cls, IlpModel):
        return cls(**values)
    model = cls(values["alpha"], values["flip_symmetric"])
    for name in ("variables", "objective", "constraints", "pair_costs", "colour_order"):
        setattr(model, name, values[name])
    return model


def seeded_values(rng, domain):
    """Field values drawn from the domain, each a fresh deep copy."""
    return {name: copy.deepcopy(rng.choice(options)) for name, options in domain.items()}


@pytest.mark.parametrize("cls", list(DOMAINS), ids=lambda c: c.__name__)
def test_records_keep_the_equality_hash_and_repr_of_their_dataclasses(cls):
    data_cls, domain = DOMAINS[cls]
    rng = random.Random(cls.__name__)
    equal_pairs = 0
    for _ in range(60):
        # b is a deep copy of a, with one field drawn again half the time
        a = seeded_values(rng, domain)
        b = copy.deepcopy(a)
        if rng.random() < 0.5:
            name = rng.choice(list(domain))
            b[name] = copy.deepcopy(rng.choice(domain[name]))
        got_a, got_b, ref_a, ref_b = build(cls, a), build(cls, b), data_cls(**a), data_cls(**b)
        assert (got_a == got_b) == (ref_a == ref_b) and (got_a != got_b) == (ref_a != ref_b)
        equal_pairs += ref_a == ref_b
        assert repr(got_a) == repr(ref_a).replace(data_cls.__name__, cls.__name__)
        # never equal to the dataclass, whose fields are the same
        assert got_a != ref_a and not got_a == ref_a
        if cls in HASHED:
            assert hash(got_a) == hash(ref_a) == hash(tuple(a.values()))
        else:
            for obj in (got_a, ref_a):
                with pytest.raises(TypeError, match="unhashable"):
                    hash(obj)
        if cls in NAMED_TUPLES:  # the one difference: a tuple equals its field tuple
            assert got_a == tuple(a.values()) and ref_a != tuple(a.values())
        else:
            assert got_a != tuple(a.values()) and not hasattr(got_a, "__dict__")
    assert 0 < equal_pairs < 60


@pytest.mark.parametrize("cls", [c for c in DOMAINS if c not in NAMED_TUPLES], ids=lambda c: c.__name__)
def test_equality_checks_the_class_before_the_fields(cls):
    # a subclass with the very same fields is another class, for the
    # dataclass as for the record
    data_cls, domain = DOMAINS[cls]
    values = seeded_values(random.Random(cls.__name__), domain)
    sub, data_sub = type("Sub", (cls,), {}), type("Sub", (data_cls,), {})
    assert build(cls, values) != build(sub, values) and data_cls(**values) != data_sub(**values)
    assert build(sub, values) == build(sub, values)


def test_config_replace_is_dataclasses_replace():
    rng = random.Random(5)
    rules = ("w_min", "s_min", "dis_m", "dis_c", "w_th", "merge_gap")
    for _ in range(200):
        start = seeded_values(rng, DOMAINS[Config][1])
        changes = {name: rng.choice([0, -5, 30, "30", None]) for name in rng.sample(rules, rng.randrange(3))}
        if rng.random() < 0.3:
            changes["alpha"] = rng.choice([Fraction(-1, 2), Fraction(1, 4)])
        try:
            expected = dataclasses.replace(DataConfig(**start), **changes)
        except LayoutError as exc:
            with pytest.raises(LayoutError) as err:
                Config(**start).replace(**changes)
            assert str(err.value) == str(exc)
        else:
            got = Config(**start).replace(**changes)
            assert got == Config(**dataclasses.asdict(expected)) and hash(got) == hash(expected)
