"""Write a ``BENCH_<n>.json`` from benchmark records of a parent and a changed tree.

Every ``perfbench/run.py`` invocation appends one record per workload to
``.perfbench/records.jsonl`` in the checkout it ran from.  Measure the parent
in one checkout and the change in another, alternating, then run from the
repository root:

    python3 tools/bench_json.py --parent PARENT/.perfbench/records.jsonl \\
        --change .perfbench/records.jsonl --out BENCH_7.json

The files accumulate, so give it only the records of the runs to compare
(``tail -n +K`` cuts off older ones).  For each workload and each side it
writes the median and quartiles, across the untraced records, of every
end-to-end metric listed in ``BENCHMARK.json``.  Each record's metric is
already the median over the runs of its invocation.  When both sides have
the same number of records, the i-th of each form a pair, and the file
counts the pairs in which the change is better.  Traced records, when
present, add the median of each per-layer metric.  The machine block is the
newest change record's.  Standard library only.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def read_records(path: Path) -> list[dict]:
    with open(path) as handle:
        return [json.loads(line) for line in handle if line.strip()]


def summary(values: list[float]) -> dict:
    """Median and quartiles (inclusive method; one value is its own quartiles)."""
    if len(values) == 1:
        q1 = q3 = values[0]
    else:
        q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "n": len(values)}


def side(records: list[dict], workload: str, metrics: list[str]) -> dict:
    """The summaries of one side's records of one workload."""
    ours = [r for r in records if r["workload"] == workload]
    untraced = [r for r in ours if "metrics" in r]
    traced = [t for r in ours for t in r.get("traced") or ()]
    out = {
        "seeds": sorted({r["seed"] for r in untraced}),
        "runs": sum(len(r["wall_s_samples"]) for r in untraced),
        "failed": sum(r["failed"] for r in untraced),
        "end_to_end": {m: summary([r["metrics"][m] for r in untraced]) for m in metrics},
        "samples": {m: [r["metrics"][m] for r in untraced] for m in metrics},
    }
    if traced:
        out["per_layer_median"] = {
            name: statistics.median(t[name] for t in traced) for name in traced[-1]
        }
    return out


def build(parent: list[dict], change: list[dict]) -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    report = {"machine": change[-1]["machine"] if change else None, "workloads": {}}
    for workload in [w["name"] for w in spec["workloads"]]:
        sides = {}
        for name, records in (("parent", parent), ("change", change)):
            if any(r["workload"] == workload and "metrics" in r for r in records):
                sides[name] = side(records, workload, list(better))
        if len(sides) < 2:
            continue
        entry = {name: {k: v for k, v in s.items() if k != "samples"} for name, s in sides.items()}
        before, after = sides["parent"]["samples"], sides["change"]["samples"]
        if len(before["wall_ref"]) == len(after["wall_ref"]):
            entry["change_better_in_pairs"] = {
                m: sum((a < b) if better[m] == "lower" else (a > b)
                       for b, a in zip(before[m], after[m]))
                for m in better
            }
            entry["pairs"] = len(before["wall_ref"])
        report["workloads"][workload] = entry
    return report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--parent", type=Path, required=True, help="the parent's records.jsonl")
    parser.add_argument("--change", type=Path, required=True, help="the change's records.jsonl")
    parser.add_argument("--out", type=Path, required=True, help="the BENCH_<n>.json to write")
    args = parser.parse_args(argv)
    report = build(read_records(args.parent), read_records(args.change))
    if not report["workloads"]:
        print("no workload has untraced records on both sides", file=sys.stderr)
        return 1
    args.out.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
