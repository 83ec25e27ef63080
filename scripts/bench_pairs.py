#!/usr/bin/env python3
"""Turns perfbench records from paired runs into one BENCH_<pr>.json.

    scripts/bench_pairs.py PARENT_DIR CHANGE_DIR BENCH_<pr>.json

Each directory holds perfbench results records (`perfbench/results/*.json`,
copied out after each run), one side of the pairs each. A record in
PARENT_DIR and the record of the same file name in CHANGE_DIR form one
pair: run them one after the other, flipping which side goes first from
pair to pair, and name each copy after its workload, seed, trace flag
and pair number. Records without a partner are listed, not used.

Gated records (`trace` 0) are grouped by workload and seed. For every
end-to-end metric that BENCHMARK.json names, the output gives each
side's runs, median and quartiles, the pairs the change won and lost,
the median ratio, and a verdict:

- `gain`: the change won at least nine tenths of the pairs (ties count
  for neither side) and the medians differ, in the better direction, by
  more than the parent's interquartile range;
- `regressed`: the change's median is worse than the parent's by more
  than the metric's bound;
- `unresolved`: either side's interquartile range exceeds the bound
  times its median, unless every change run beats every parent run;
- `within bound` otherwise.

Traced records (`trace` 1) give the per-layer metrics, side by side.
Seeds, commits, source fingerprints, CPU counts and the failed and
mismatched request counts are copied from the records.
"""

import argparse
import json
import re
import statistics
import sys
from pathlib import Path


def load(directory):
    records = {}
    for path in sorted(Path(directory).glob("*.json")):
        with open(path) as f:
            records[path.name] = json.load(f)
    return records


def quartiles(xs):
    xs = sorted(xs)
    if len(xs) == 1:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q1, q2, q3


def summary(xs):
    q1, median, q3 = quartiles(xs)
    return {"runs": xs, "median": median, "q1": q1, "q3": q3}


def better(metric, a, b):
    """Whether value `a` is better than value `b` for this metric."""
    return a > b if metric["better"] == "higher" else a < b


def verdict(metric, parent, change, won):
    p, c = parent["median"], change["median"]
    pairs = len(parent["runs"])
    spread = parent["q3"] - parent["q1"]
    if won >= 0.9 * pairs and better(metric, c, p) and abs(c - p) > spread:
        return "gain"
    worse_by = (p - c) / p if metric["better"] == "higher" else (c - p) / p
    if worse_by > metric["bound"]:
        return "regressed"
    wide = any(
        side["q3"] - side["q1"] > metric["bound"] * side["median"] for side in (parent, change)
    )
    beats_all = all(better(metric, x, y) for x in change["runs"] for y in parent["runs"])
    if wide and not beats_all:
        return "unresolved"
    return "within bound"


def provenance(records):
    hosts = [r["host"] for r in records]
    return {
        "commits": sorted({h["commit"] or "none" for h in hosts}),
        "source_fingerprints": sorted({h["source_fingerprint"] for h in hosts}),
        "cpus": sorted({h["available_parallelism"] for h in hosts}),
        "failed": sum(r["failed"] for r in records),
        "mismatches": sum(r["mismatches"] for r in records),
        "attempted": sum(r["attempted"] for r in records),
    }


def gated(bench, pairs):
    groups = {}
    for name, (p, c) in sorted(pairs.items()):
        if p["trace"] == 0:
            groups.setdefault((p["workload"], p["seed"]), []).append((name, p, c))
    out = []
    for (workload, seed), members in sorted(groups.items()):
        entry = {
            "workload": workload,
            "seed": seed,
            "seconds": members[0][1]["seconds"],
            "pairs": [name for name, _, _ in members],
            "parent": provenance([p for _, p, _ in members]),
            "change": provenance([c for _, _, c in members]),
            "end_to_end": {},
        }
        for metric in bench["end_to_end"]:
            name = metric["name"]
            ps = [p["metrics"][name]["value"] for _, p, _ in members]
            cs = [c["metrics"][name]["value"] for _, _, c in members]
            won = sum(better(metric, c, p) for p, c in zip(ps, cs))
            lost = sum(better(metric, p, c) for p, c in zip(ps, cs))
            parent, change = summary(ps), summary(cs)
            entry["end_to_end"][name] = {
                "unit": metric["unit"],
                "better": metric["better"],
                "bound": metric["bound"],
                "parent": parent,
                "change": change,
                "change_over_parent": change["median"] / parent["median"],
                "pairs_won": won,
                "pairs_lost": lost,
                "verdict": verdict(metric, parent, change, won),
            }
        out.append(entry)
    return out


def traced(bench, pairs):
    out = []
    for name, (p, c) in sorted(pairs.items()):
        if p["trace"] != 1:
            continue
        metrics = {}
        for metric in bench["per_layer"]:
            key = metric["name"]
            if key in p["metrics"] and key in c["metrics"]:
                metrics[key] = {
                    "unit": metric["unit"],
                    "parent": p["metrics"][key]["value"],
                    "change": c["metrics"][key]["value"],
                }
        out.append(
            {
                "workload": p["workload"],
                "seed": p["seed"],
                "pair": name,
                "parent": provenance([p]),
                "change": provenance([c]),
                "per_layer": metrics,
            }
        )
    return out


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent_dir")
    ap.add_argument("change_dir")
    ap.add_argument("out")
    args = ap.parse_args()
    root = Path(__file__).resolve().parent.parent
    with open(root / "BENCHMARK.json") as f:
        bench = json.load(f)
    parent, change = load(args.parent_dir), load(args.change_dir)
    pairs = {n: (parent[n], change[n]) for n in parent if n in change}
    unpaired = sorted(set(parent) ^ set(change))
    if not pairs:
        sys.exit("no record has a partner of the same name in the other directory")
    result = {
        "gated": gated(bench, pairs),
        "traced": traced(bench, pairs),
        "unpaired": unpaired,
    }
    text = json.dumps(result, indent=2)
    # One line per list of numbers or names, not one line per item.
    text = re.sub(
        r"\[\s+([^\[\]{}]*?)\s+\]",
        lambda m: "[" + ", ".join(x.strip() for x in m.group(1).split(",")) + "]",
        text,
    )
    with open(args.out, "w") as f:
        f.write(text + "\n")


if __name__ == "__main__":
    main()
