"""Decomposition benchmark: one workload per process, every op through the CLI.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--smoke]

Run it from the root of a checkout; it imports the program from `src/`.
An op does what a user does: `decompose LAYOUT --out RESULT`, then
`verify LAYOUT RESULT`, both in-process through `leleec.cli.run_cli` with
file input and output. Op k of a run decomposes the layout that the
workload's generator makes from input index seed + k.

--trace 0 measures end-to-end metrics with tracing off; --trace 1 measures
per-layer metrics over a fixed set of layouts, alternating untraced and
traced passes (see NOTES.md). Every reported time is scaled to a reference
core speed (see pace.py); the raw wall-time medians are printed beside them.
The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}. --smoke shrinks every layout
so a run takes seconds; it is meant for the benchmark's own tests.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple

import pace

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
REFERENCE = HERE / "reference.json"
SETUP_REPEATS = 10


@dataclass(frozen=True)
class Workload:
    size: tuple[int, ...]  # generator arguments before the input index
    smoke_size: tuple[int, ...]
    traced_layouts: int  # layouts per pass of a traced run


WORKLOADS = {
    "motif_array": Workload(size=(128,), smoke_size=(4,), traced_layouts=3),
    "via_clusters": Workload(size=(4,), smoke_size=(1,), traced_layouts=2),
    "random_wires": Workload(size=(1000, 5500), smoke_size=(60, 1350), traced_layouts=8),
}

END_TO_END_UNITS = {
    "features_per_s": "1/s",
    "decompose_s_p50": "s",
    "verify_s_p50": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny layouts, for tests")
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def import_program():
    """Import leleec from this checkout's src/, never from elsewhere."""
    if not (SRC / "leleec" / "__init__.py").is_file():
        raise SystemExit(f"error: no program sources at {SRC / 'leleec'}; run from a full checkout")
    sys.path.insert(0, str(SRC))
    import leleec.cli

    if Path(leleec.cli.__file__).resolve().parent != (SRC / "leleec").resolve():
        raise SystemExit(f"error: imported leleec from {leleec.cli.__file__}, not {SRC}")
    return leleec.cli


def load_reference(name: str, size: tuple[int, ...]) -> list[str]:
    """Reference costs by input index, recorded with make_reference.py."""
    entry = json.loads(REFERENCE.read_text(encoding="utf-8"))[name]
    if tuple(entry["size"]) != size:
        raise SystemExit(f"error: {REFERENCE.name} holds {name} size {entry['size']}, not {list(size)}")
    return entry["costs"]


def measure_setup() -> tuple[float, float]:
    """Median time to import leleec.cli in a fresh interpreter: (scaled, raw).

    Each child brackets its import with pace slices of its own, since it may
    run on another core than this process. One import before the timed ones
    warms the bytecode cache.
    """
    code = (
        "import sys, time; sys.path[:0] = sys.argv[1:3]; import pace; before = pace.slice_s(); "
        "t = time.perf_counter(); import leleec.cli; d = time.perf_counter() - t; "
        "print(d, pace.scale(before, pace.slice_s()))"
    )
    raw, scaled = [], []
    for k in range(SETUP_REPEATS + 1):
        done = subprocess.run(
            [sys.executable, "-I", "-c", code, str(SRC), str(HERE)],
            capture_output=True, text=True, timeout=120, check=True,
        )
        if k:
            d, factor = map(float, done.stdout.split())
            raw.append(d)
            scaled.append(d * factor)
    return statistics.median(scaled), statistics.median(raw)


class OpTimes(NamedTuple):
    decompose_s: float  # wall time
    verify_s: float
    decompose_scale: float  # pace factor to reference seconds
    verify_scale: float
    digest: str  # sha256 of the result file; "" when the op failed


class Ops:
    """Writes layouts and runs decompose + verify ops on them, checking every output."""

    def __init__(self, cli, gen, size: tuple[int, ...], work: Path, reference: list[str]):
        from leleec.layout_io import emit_layout

        self.cli = cli
        self.gen = gen
        self.size = size
        self.work = work
        self.reference = reference
        self.emit_layout = emit_layout
        self.attempted = 0
        self.failed = 0
        self.tracer = None  # set while a traced pass runs
        self.op_log: list[dict] = []  # one entry per traced CLI call
        self.last_slice: float | None = None  # the pace slice after the previous op

    def write_layout(self, index: int, path: Path) -> int:
        features, cfg = self.gen(*self.size, index)
        self.emit_layout(features, cfg, path)
        return len(features)

    def _call(self, argv: list[str], kind: str, index: int) -> tuple[int, str]:
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            try:
                if self.tracer is None:
                    rc = self.cli.run_cli(argv)
                else:
                    op = len(self.op_log)
                    self.op_log.append({"id": op, "kind": kind, "index": index, "scale": 1.0})
                    rc = self.tracer.call_op(op, self.cli.run_cli, argv)
            except Exception:  # an op that crashes is a failed op; the run goes on
                rc = -1
                err.write(traceback.format_exc())
        return rc, err.getvalue()

    def run(self, index: int, layout: Path, result: Path) -> OpTimes:
        """Decompose and verify one layout, each CLI call between two pace slices."""
        before = pace.slice_s() if self.last_slice is None else self.last_slice
        t0 = time.perf_counter()
        rc, err = self._call(["decompose", str(layout), "--out", str(result)], "decompose", index)
        t1 = time.perf_counter()
        between = pace.slice_s()
        t2 = time.perf_counter()
        rc_v, err_v = self._call(["verify", str(layout), str(result)], "verify", index)
        t3 = time.perf_counter()
        after = self.last_slice = pace.slice_s()
        d_scale, v_scale = pace.scale(before, between), pace.scale(between, after)
        if self.tracer is not None:
            self.op_log[-2]["scale"], self.op_log[-1]["scale"] = d_scale, v_scale
        self.attempted += 1
        problem, digest = self._check(index, result, rc, err, rc_v, err_v)
        if problem:
            self.failed += 1
            print(f"op failed: input {index}: {problem}", file=sys.stderr)
        return OpTimes(t1 - t0, t3 - t2, d_scale, v_scale, digest)

    def _check(self, index, result, rc, err, rc_v, err_v) -> tuple[str | None, str]:
        if rc != 0:
            return f"decompose exit {rc}: {err.strip()}", ""
        if rc_v != 0 or err_v.strip() != "ok":
            return f"verify exit {rc_v}: {err_v.strip()}", ""
        data = result.read_bytes()
        obj = json.loads(data)
        if obj["stats"].get("proven_optimal") is not True:
            return "result is not proven optimal", ""
        if index < len(self.reference) and obj["cost"] != self.reference[index]:
            return f"cost {obj['cost']} != reference {self.reference[index]}", ""
        return None, hashlib.sha256(data).hexdigest()


def percentile(values: list[float], p: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(p / 100 * len(ordered)) - 1)]


def untraced_run(ops: Ops, seed: int, seconds: float, setup: tuple[float, float]) -> tuple[dict, list[str]]:
    layout, result = ops.work / "layout.json", ops.work / "result.json"
    times: list[OpTimes] = []
    features = 0
    start = time.perf_counter()
    while time.perf_counter() - start < seconds:
        index = seed + len(times)
        features += ops.write_layout(index, layout)
        times.append(ops.run(index, layout, result))
    n = len(times)
    decompose_s = [t.decompose_s * t.decompose_scale for t in times]
    verify_s = [t.verify_s * t.verify_scale for t in times]
    raw_decompose_s = [t.decompose_s for t in times]
    raw_verify_s = [t.verify_s for t in times]
    metrics = {
        "features_per_s": features / sum(decompose_s),
        "decompose_s_p50": statistics.median(decompose_s),
        "verify_s_p50": statistics.median(verify_s),
        "setup_s": setup[0],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    notes = [
        f"layouts = {n}, features = {features}, wall time in ops = {sum(raw_decompose_s) + sum(raw_verify_s):.3f} s",
        f"raw wall time: features_per_s = {features / sum(raw_decompose_s):.6g} 1/s, "
        f"decompose_s_p50 = {statistics.median(raw_decompose_s):.6g} s, "
        f"verify_s_p50 = {statistics.median(raw_verify_s):.6g} s, setup_s = {setup[1]:.6g} s",
        f"median pace factor = {statistics.median(t.decompose_scale for t in times):.4f}",
        f"decompose_s_p50 n = {n}, verify_s_p50 n = {n}",
    ]
    if n >= 20:
        p = math.floor(100 * (1 - 10 / n))
        notes.append(f"decompose_s_p{p} = {percentile(decompose_s, p):.6f} s (n={n})")
        notes.append(f"verify_s_p{p} = {percentile(verify_s, p):.6f} s (n={n})")
    return {k: (v, END_TO_END_UNITS[k]) for k, v in metrics.items()}, notes


def traced_run(ops: Ops, name: str, seed: int, seconds: float, layouts: int) -> tuple[dict, list[str], bool]:
    from spans import LAYERS, OP_SPAN, Tracer

    tracer = Tracer()
    paths = []
    for k in range(layouts):
        paths.append((seed + k, ops.work / f"layout{k}.json", ops.work / f"result{k}.json"))
        ops.write_layout(seed + k, paths[-1][1])

    untraced_totals: list[float] = []
    passes: list[dict] = []  # traced passes
    digests: dict[int, set[str]] = {}
    start = time.perf_counter()
    schedule = ["untraced", "traced", "traced"]
    while schedule or time.perf_counter() - start < seconds:
        kind = schedule.pop(0) if schedule else ("untraced" if len(passes) > len(untraced_totals) else "traced")
        first_op = len(ops.op_log)
        if kind == "traced":
            tracer.reset_counts()
            tracer.install()
            ops.tracer = tracer
        total = 0.0
        try:
            for index, layout, result in paths:
                t = ops.run(index, layout, result)
                total += t.decompose_s * t.decompose_scale + t.verify_s * t.verify_scale
                digests.setdefault(index, set()).add(t.digest)
        finally:
            ops.tracer = None
            tracer.uninstall()
        if kind == "untraced":
            untraced_totals.append(total)
            continue
        logged = ops.op_log[first_op:]
        all_ops = {o["id"]: o["scale"] for o in logged}
        dec_ops = {o["id"]: o["scale"] for o in logged if o["kind"] == "decompose"}
        self_all = tracer.self_times(all_ops)
        self_dec = tracer.self_times(dec_ops)
        dec_s = sum(tracer.durations(OP_SPAN, dec_ops))
        ver_s = sum(tracer.durations(OP_SPAN, all_ops)) - dec_s
        times = {f"{layer}_s": self_all[layer] for layer in LAYERS}
        times.update(
            {
                "cli.decompose_op_s": dec_s,
                "cli.verify_op_s": ver_s,
                "endcut.decompose_share": (self_dec["endcut.candidates"] + self_dec["endcut.graph"]) / dec_s,
                "solver.decompose_share": self_dec["solver.solve"] / dec_s,
                "solver.slowest_piece_s": max(tracer.durations("solver.solve", all_ops), default=0.0),
                "solver.nodes_per_s": tracer.counts["solver.nodes"] / max(self_all["solver.solve"], 1e-9),
                "total": total,
            }
        )
        passes.append({"times": times, "counts": tracer.snapshot()})

    tracer.dump(OUT / f"trace-{name}-seed{seed}.json", ops.op_log)

    counts = passes[0]["counts"]
    steady = all(p["counts"] == counts for p in passes)
    deterministic = all(len(d) == 1 for d in digests.values())
    metrics: dict[str, tuple[float, str]] = {}
    for key in passes[0]["times"]:
        if key == "total":
            continue
        unit = "ratio" if key.endswith("_share") else "1/s" if key.endswith("_per_s") else "s"
        metrics[key] = (statistics.median(p["times"][key] for p in passes), unit)
    traced_median = statistics.median(p["times"]["total"] for p in passes)
    untraced_median = statistics.median(untraced_totals)
    metrics["tracing_overhead"] = (traced_median - untraced_median, "s")
    for key in sorted(counts):
        metrics[key] = (counts[key], "count")
    pairs = counts["endcut.pairs_examined"]
    useful = counts["endcut.solid_edges"] + counts["endcut.dash_edges"]
    metrics["endcut.pair_yield"] = (useful / pairs if pairs else 0.0, "ratio")
    notes = [
        f"layouts per pass = {layouts}, traced passes = {len(passes)}, untraced passes = {len(untraced_totals)}",
        f"pass time untraced median = {untraced_median:.4f} s, traced median = {traced_median:.4f} s "
        f"(overhead {traced_median / untraced_median - 1:+.1%})",
        f"per-layer counts identical across traced passes: {steady}",
        f"result files identical across passes: {deterministic}",
    ]
    return metrics, notes, steady and deterministic


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    cli = import_program()
    import workloads

    spec = WORKLOADS[args.workload]
    size = spec.smoke_size if args.smoke else spec.size
    reference = [] if args.smoke else load_reference(args.workload, size)
    setup = (0.0, 0.0) if args.trace else measure_setup()

    OUT.mkdir(exist_ok=True)
    work = OUT / f"work-{args.workload}-{args.seed}-{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir()
    try:
        ops = Ops(cli, getattr(workloads, args.workload), size, work, reference)
        # warm-up op on a smoke-size layout: lazy imports and caches fill untimed
        warm = Ops(cli, ops.gen, spec.smoke_size, work, [])
        warm.write_layout(args.seed, work / "warm.json")
        warm.run(args.seed, work / "warm.json", work / "warm-result.json")
        if args.trace:
            metrics, notes, consistent = traced_run(
                ops, args.workload, args.seed, args.seconds, 1 if args.smoke else spec.traced_layouts
            )
        else:
            metrics, notes = untraced_run(ops, args.seed, args.seconds, setup)
            consistent = True
    finally:
        shutil.rmtree(work, ignore_errors=True)

    attempted = ops.attempted + warm.attempted
    failed = ops.failed + warm.failed
    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}{', smoke' if args.smoke else ''}")
    for line in notes:
        print(line)
    for key, (value, unit) in metrics.items():
        print(f"{key} = {value:.6g} {unit}")
    print(f"failed_ops = {failed}/{attempted} = {failed / attempted:.6g} ratio")
    report = {
        "correct": failed == 0 and consistent,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
