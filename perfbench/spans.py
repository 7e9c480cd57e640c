"""Span tracing of the program's layers, installed from outside the program.

The tracer replaces each layer entry point with a timing wrapper in the
namespace of the module that calls it (e.g. `leleec.decomposer.solve`, not
`leleec.solver.solve`), so the spans sit exactly at the boundaries the
callers see. Spans stay in memory and are written out when the run ends.
Counters are read from the wrapped calls' arguments and results.
"""

from __future__ import annotations

import json
from time import perf_counter

import leleec.cli
import leleec.decomposer
import leleec.endcut
import leleec.layout_io


def _count_conflict(t: "Tracer", args, out) -> None:
    t.counts["layout_graph.conflict_edges"] += len(out.conflict_edges)


def _count_stitch(t: "Tracer", args, out) -> None:
    t.counts["layout_graph.segments"] += len(out.vertices)
    t.counts["layout_graph.stitch_edges"] += len(out.stitch_edges)


def _count_candidates(t: "Tracer", args, out) -> None:
    t.counts["endcut.candidates"] += len(out)


def _count_endcut_graph(t: "Tracer", args, out) -> None:
    c = len(args[0])
    t.counts["endcut.pairs_examined"] += c * (c - 1) // 2
    t.counts["endcut.solid_edges"] += len(out.solid_edges)
    t.counts["endcut.dash_edges"] += len(out.dash_edges)


def _count_model(t: "Tracer", args, out) -> None:
    t.counts["ilp_model.vars"] += out.num_vars
    t.counts["ilp_model.rows"] += len(out.constraints)
    t.counts["ilp_model.merge_vars"] += sum(v.kind == "merge" for v in out.variables)
    t.raise_max("decomposer.largest_piece", len(args[0].vertex_reps))


def _count_solve(t: "Tracer", args, out) -> None:
    nodes = out[1].nodes_explored
    t.counts["decomposer.pieces"] += 1
    t.counts["solver.nodes"] += nodes
    t.raise_max("solver.slowest_piece_nodes", nodes)


# (module, attribute, span name, counter); the span name is the layer metric stem
SPAN_POINTS = (
    (leleec.cli, "parse_layout", "layout_io.parse", None),
    (leleec.cli, "parse_result", "layout_io.parse", None),
    (leleec.cli, "build_graphs", "decomposer.self", None),
    (leleec.cli, "decompose_graphs", "decomposer.self", None),
    (leleec.cli, "validate_result", "decomposer.validate", None),
    (leleec.cli, "result_to_obj", "layout_io.emit", None),
    (leleec.cli, "dump_json", "layout_io.emit", None),
    (leleec.cli, "verify_result", "layout_io.verify", None),
    (leleec.layout_io, "build_conflict_edges", "layout_graph.conflict", _count_conflict),
    (leleec.layout_io, "build_graphs", "decomposer.self", None),
    (leleec.decomposer, "build_conflict_edges", "layout_graph.conflict", _count_conflict),
    (leleec.decomposer, "generate_candidates", "endcut.candidates", _count_candidates),
    (leleec.decomposer, "generate_stitch_candidates", "layout_graph.stitch", _count_stitch),
    (leleec.decomposer, "annotate_end_cuts", "layout_graph.annotate", None),
    (leleec.decomposer, "build_endcut_graph", "endcut.graph", _count_endcut_graph),
    (leleec.decomposer, "split_components", "decomposer.split", None),
    (leleec.decomposer, "split_bridges", "decomposer.split", None),
    (leleec.decomposer, "build_model_from_problem", "ilp_model.build", _count_model),
    (leleec.decomposer, "solve", "solver.solve", _count_solve),
    (leleec.decomposer, "validate_result", "decomposer.validate", None),
)
OP_SPAN = "cli.self"
LAYERS = sorted({name for _, _, name, _ in SPAN_POINTS} | {OP_SPAN})
COUNTS = (
    "decomposer.largest_piece",
    "decomposer.pieces",
    "endcut.candidates",
    "endcut.dash_edges",
    "endcut.pairs_examined",
    "endcut.solid_edges",
    "ilp_model.merge_vars",
    "ilp_model.rows",
    "ilp_model.vars",
    "layout_graph.conflict_edges",
    "layout_graph.segments",
    "layout_graph.stitch_edges",
    "solver.nodes",
    "solver.slowest_piece_nodes",
)


class Tracer:
    """Records spans [id, name, start, end, parent, op] and per-layer counts."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: dict[str, int] = {}
        self._overlap_tests = [0]  # a list cell: the cheapest counter a hot wrapper can bump
        self.op: int | None = None
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []
        self.reset_counts()

    def reset_counts(self) -> None:
        self.counts = dict.fromkeys(COUNTS, 0)
        self._overlap_tests[0] = 0

    def snapshot(self) -> dict[str, int]:
        """Every count, including calls from endcut into geometry.rect_overlaps_polygon."""
        return {**self.counts, "endcut.overlap_tests": self._overlap_tests[0]}

    def raise_max(self, name: str, value: int) -> None:
        self.counts[name] = max(self.counts[name], value)

    def call(self, name: str, fn, *args, **kwargs):
        """Run fn inside a span named `name`."""
        sid = len(self.spans)
        record = [sid, name, 0.0, 0.0, self._stack[-1] if self._stack else None, self.op]
        self.spans.append(record)
        self._stack.append(sid)
        record[2] = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            record[3] = perf_counter()
            self._stack.pop()

    def call_op(self, op: int, fn, *args):
        """Run one CLI call as op `op`; its span's self time is the CLI's own."""
        self.op = op
        return self.call(OP_SPAN, fn, *args)

    def _wrap(self, name: str, fn, counter):
        def traced(*args, **kwargs):
            out = self.call(name, fn, *args, **kwargs)
            if counter is not None:
                counter(self, args, out)
            return out

        return traced

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        for module, attr, name, counter in SPAN_POINTS:
            self._patch(module, attr, self._wrap(name, getattr(module, attr), counter))
        overlaps, calls = leleec.endcut.rect_overlaps_polygon, self._overlap_tests

        def counted_overlaps(rect, polygon):
            calls[0] += 1
            return overlaps(rect, polygon)

        self._patch(leleec.endcut, "rect_overlaps_polygon", counted_overlaps)

    def _patch(self, module, attr: str, replacement) -> None:
        self._saved.append((module, attr, getattr(module, attr)))
        setattr(module, attr, replacement)

    def uninstall(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def self_times(self, ops: dict[int, float]) -> dict[str, float]:
        """Per-layer self time summed over the spans of the given ops.

        `ops` maps each op id to the factor its times are scaled by. Self
        time is a span's duration minus the durations of its children;
        calls are single-threaded, so children never overlap.
        """
        child = [0.0] * len(self.spans)
        for _, _, start, end, parent, _ in self.spans:
            if parent is not None:
                child[parent] += end - start
        totals = dict.fromkeys(LAYERS, 0.0)
        for sid, name, start, end, _, op in self.spans:
            if op in ops:
                totals[name] += (end - start - child[sid]) * ops[op]
        return totals

    def durations(self, name: str, ops: dict[int, float]) -> list[float]:
        """Scaled durations of the spans named `name` in the given ops."""
        return [(end - start) * ops[op] for _, n, start, end, _, op in self.spans if n == name and op in ops]

    def dump(self, path, ops: list[dict]) -> None:
        fields = ["id", "name", "start", "end", "parent", "op"]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": fields, "ops": ops, "spans": self.spans}, fh)
