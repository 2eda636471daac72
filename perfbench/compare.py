"""Compare two result sets of the benchmark, such as a parent and a change.

    python3 perfbench/compare.py BASE.jsonl CHANGE.jsonl

Each file holds the JSON lines that `run.py --record FILE` appends. For each
workload and end-to-end metric it prints both medians and quartiles, the
pairs the change won (runs paired by seed) and a verdict under the bounds in
BENCHMARK.json:

- better: the change wins at least 9/10 of the pairs and the medians differ
  by more than the base's own quartile spread;
- worse: the change's median is worse than the base's by more than the bound;
- unresolved: otherwise, when either side's quartile spread exceeds the bound
  and not every change run beats every base run;
- unchanged: otherwise.

Then it prints, per workload, the per-layer metrics of the first traced run
of each side and their difference.
"""

import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def load(path):
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(base, change, bound, lower_is_better):
    """better / worse / unchanged / unresolved, and pairs won."""
    sign = 1 if lower_is_better else -1
    seeds = sorted(set(base) & set(change))
    won = sum(sign * (change[s] - base[s]) < 0 for s in seeds)
    lost = sum(sign * (change[s] - base[s]) > 0 for s in seeds)
    bq1, bmed, bq3 = quartiles(list(base.values()))
    cq1, cmed, cq3 = quartiles(list(change.values()))
    if bmed == 0:
        return "unresolved", won, lost, len(seeds)
    rel = sign * (cmed - bmed) / abs(bmed)
    spread = max((bq3 - bq1) / abs(bmed), (cq3 - cq1) / abs(cmed or bmed))
    all_better = all(sign * (c - b) < 0 for c in change.values()
                     for b in base.values())
    if seeds and won >= 0.9 * len(seeds) and abs(cmed - bmed) > bq3 - bq1:
        return "better", won, lost, len(seeds)
    if rel > bound:
        return "worse", won, lost, len(seeds)
    if spread > bound and not all_better:
        return "unresolved", won, lost, len(seeds)
    return "unchanged", won, lost, len(seeds)


def main(argv):
    if len(argv) != 2:
        sys.exit(__doc__)
    base, change = load(argv[0]), load(argv[1])
    with open(os.path.join(HERE, "..", "BENCHMARK.json"),
              encoding="utf-8") as fh:
        bench = json.load(fh)
    workloads = [w["name"] for w in bench["workloads"]]
    print("%-12s %-14s %27s %27s %9s %s" % (
        "workload", "metric", "base q1/med/q3", "change q1/med/q3",
        "won/lost", "verdict"))
    for w in workloads:
        for m in bench["end_to_end"]:
            name = m["name"]

            def series(records):
                return {r["seed"]: r["result"]["metrics"][name]["value"]
                        for r in records if r["workload"] == w
                        and not r["trace"]
                        and name in r["result"]["metrics"]}

            b, c = series(base), series(change)
            if not b or not c:
                continue
            v, won, lost, pairs = verdict(b, c, m["bound"],
                                          m["better"] == "lower")
            print("%-12s %-14s %27s %27s %4d/%-4d %s (pairs %d)" % (
                w, name, "%.4g/%.4g/%.4g" % quartiles(list(b.values())),
                "%.4g/%.4g/%.4g" % quartiles(list(c.values())), won, lost, v,
                pairs))
    for w in workloads:
        traced = []
        for records in (base, change):
            first = [r for r in records if r["workload"] == w and r["trace"]]
            traced.append(first[0]["result"]["metrics"] if first else None)
        if None in traced:
            continue
        print("\nper-layer, %s: base, change, change - base" % w)
        for name in sorted(set(traced[0]) | set(traced[1])):
            a = traced[0].get(name, {}).get("value", 0)
            b = traced[1].get(name, {}).get("value", 0)
            print("  %-44s %14.6g %14.6g %+14.6g" % (name, a, b, b - a))


if __name__ == "__main__":
    main(sys.argv[1:])
