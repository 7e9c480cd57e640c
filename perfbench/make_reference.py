"""Record the reference cost of every workload layout, by input index.

    python3 perfbench/make_reference.py [--count N]

Run from the root of a checkout. Op k of a benchmark run with seed s
decomposes input index s + k, so the costs recorded here gate every run
whose seed plus op number stays below N. Each layout is decomposed and
verified through the CLI exactly as in a run; a layout that fails any check
aborts the recording.
"""

from __future__ import annotations

import argparse
import json
import shutil

import run


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--count", type=int, default=100)
    args = parser.parse_args()
    cli = run.import_program()
    import workloads

    run.OUT.mkdir(exist_ok=True)
    work = run.OUT / "work-reference"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir()
    reference = {}
    try:
        for name, spec in run.WORKLOADS.items():
            ops = run.Ops(cli, getattr(workloads, name), spec.size, work, [])
            layout, result = work / "layout.json", work / "result.json"
            costs = []
            for index in range(args.count):
                ops.write_layout(index, layout)
                ops.run(index, layout, result)
                if ops.failed:
                    raise SystemExit(f"error: {name} input {index} failed; no reference written")
                costs.append(json.loads(result.read_text(encoding="utf-8"))["cost"])
            reference[name] = {"size": list(spec.size), "costs": costs}
            print(f"{name}: {len(costs)} costs", flush=True)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    run.REFERENCE.write_text(json.dumps(reference, indent=1) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()
