#!/usr/bin/env python3
"""Paired parent/change comparison of e2ebench runs.

    python3 e2ebench/compare.py --parent PARENT_CHECKOUT --change CHANGE_CHECKOUT \
        --workload warm_eval --workload cold_compile --pairs 10 --out pairs.json
    python3 e2ebench/compare.py --report pairs.json

Runs `python3 e2ebench/run.py` in both checkouts as alternating pairs (pair
i uses seed first_seed + i; even pairs run the parent first, odd pairs the
change first), with identical settings, and keeps every run's full result.
Then, per workload and metric, it reports each side's median and quartiles,
the fraction of pairs the change won (ties count for neither), and a verdict:

  improved     the change won >= 9/10 of the pairs and the medians differ by
               more than the parent's own quartile spread
  regressed    the change's median is worse than the parent's by more than
               the metric's bound (a parent median of 0 counts any worse
               change median as a regression)
  unresolved   a side's spread (quartile distance / median) is wider than the
               bound, unless every change run beat every parent run
  no regression  otherwise

Failed operations come first: a workload on which the change's runs failed
more operations in total than the parent's is reported as regressed, and
none of its metrics can come out improved.

Bounds and directions come from BENCHMARK.json; metrics the benchmark prints
but does not gate use the largest bound (0.25) and a direction from their
unit. Counts that a workload does not produce are skipped.
"""

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import tempfile

DEFAULT_BOUND = 0.25


def run_once(checkout, workload, seed, seconds, trace):
    """One run: every metric's value plus the attempted/failed op counts."""
    with tempfile.TemporaryDirectory() as tmp:
        result_file = os.path.join(tmp, "result.json")
        cmd = [sys.executable, "e2ebench/run.py", "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds),
               "--trace", str(trace), "--result-file", result_file]
        proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
        if proc.returncode != 0:
            sys.exit(f"{checkout}: {' '.join(cmd)} failed ({proc.returncode}):\n"
                     f"{proc.stderr[-3000:]}")
        with open(result_file) as f:
            full = json.load(f)
    return {"metrics": {k: v["value"] for k, v in full["metrics"].items()},
            "attempted": full["attempted"], "failed": full["failed"]}


def collect(args):
    with open(os.path.join(args.change, "BENCHMARK.json")) as f:
        spec = json.load(f)
    pairs = []
    for workload in args.workload:
        for i in range(args.pairs):
            seed = args.first_seed + i
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            pair = {"workload": workload, "seed": seed, "first": order[0]}
            for side in order:
                checkout = args.parent if side == "parent" else args.change
                pair[side] = run_once(checkout, workload, seed, spec["run_seconds"],
                                      args.trace)
                print(f"{workload} seed {seed} {side}: done", file=sys.stderr)
            pairs.append(pair)
    gated = spec["per_layer"] if args.trace else spec["end_to_end"]
    return {"spec": gated, "pairs": pairs}


def direction(name, spec):
    for m in spec:
        if m["name"] == name:
            return m["better"], m.get("bound", DEFAULT_BOUND)
    higher = name.endswith(("_qps", "_per_s"))
    return ("higher" if higher else "lower"), DEFAULT_BOUND


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def verdict(parent, change, better, bound):
    p1, pm, p3 = quartiles(parent)
    c1, cm, c3 = quartiles(change)
    sign = 1 if better == "higher" else -1
    wins = sum(1 for p, c in zip(parent, change) if sign * (c - p) > 0)
    win_fraction = wins / len(parent)
    spread = max((p3 - p1) / abs(pm) if pm else 0,
                 (c3 - c1) / abs(cm) if cm else 0)
    if pm:
        worse_by = sign * (pm - cm) / abs(pm)
    else:
        worse_by = math.inf if sign * (pm - cm) > 0 else 0.0
    all_better = (min(change) > max(parent) if better == "higher"
                  else max(change) < min(parent))
    if win_fraction >= 0.9 and abs(cm - pm) > (p3 - p1):
        label = "improved"
    elif worse_by > bound:
        label = "regressed"
    elif spread > bound and not all_better:
        label = "unresolved"
    else:
        label = "no regression"
    return (p1, pm, p3), (c1, cm, c3), win_fraction, spread, label


def report(data):
    spec = data["spec"]
    by_workload = {}
    for pair in data["pairs"]:
        by_workload.setdefault(pair["workload"], []).append(pair)
    for workload, pairs in by_workload.items():
        print(f"\n{workload}: {len(pairs)} pairs")
        ops = {side: (sum(p[side]["failed"] for p in pairs),
                      sum(p[side]["attempted"] for p in pairs))
               for side in ("parent", "change")}
        more_failures = ops["change"][0] > ops["parent"][0]
        for side, (failed, attempted) in ops.items():
            print(f"  {side} failed {failed} of {attempted} operations")
        if more_failures:
            print("  regressed: the change failed more operations than the "
                  "parent; no metric of this workload counts as improved")
        print(f"  {'metric':34s} {'parent q1/med/q3':>32s} "
              f"{'change q1/med/q3':>32s} {'wins':>5s} {'spread':>7s} verdict")
        names = [n for n in pairs[0]["parent"]["metrics"] if all(
            n in p["parent"]["metrics"] and n in p["change"]["metrics"]
            for p in pairs)]
        for name in names:
            parent = [p["parent"]["metrics"][name] for p in pairs]
            change = [p["change"]["metrics"][name] for p in pairs]
            if all(v == 0 for v in parent + change):
                continue
            better, bound = direction(name, spec)
            pq, cq, wins, spread, label = verdict(parent, change, better, bound)
            if more_failures and label == "improved":
                label = "void (more failures)"
            print(f"  {name:34s} {pq[0]:10.4g} {pq[1]:10.4g} {pq[2]:10.4g} "
                  f"{cq[0]:10.4g} {cq[1]:10.4g} {cq[2]:10.4g} {wins:5.2f} "
                  f"{spread:7.3f} {label} (bound {bound})")


def main():
    parser = argparse.ArgumentParser(
        description="paired parent/change comparison of e2ebench runs")
    parser.add_argument("--parent", help="parent checkout root")
    parser.add_argument("--change", help="change checkout root")
    parser.add_argument("--workload", action="append")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=101)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="write the collected pairs here")
    parser.add_argument("--report", help="print the report of a pairs file")
    args = parser.parse_args()
    if args.report:
        with open(args.report) as f:
            data = json.load(f)
    else:
        if not (args.parent and args.change and args.workload):
            parser.error("--parent, --change and --workload are required")
        data = collect(args)
        if args.out:
            with open(args.out, "w") as f:
                json.dump(data, f, indent=1)
    report(data)


if __name__ == "__main__":
    main()
