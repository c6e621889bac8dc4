"""Repeat the benchmark over several seeds and summarise the spread.

Run from the repository root:

    python3 perfbench/collect.py --seeds 1-10 --out perfbench/results/NAME.json
    python3 perfbench/collect.py --seeds 1-5 --workload walks-scan

Every run lasts ``run_seconds`` of BENCHMARK.json. For each workload: one
untraced run per seed, then ``TRACED_RUNS`` traced runs with the first
seed. For every end-to-end metric it prints the median over the runs, the
quartiles (``statistics.quantiles(values, n=4)``) and the spread
(q3 - q1) / median next to a third of the metric's bound, and it checks
that the traced runs agree exactly on every counter. Exits 1 when a
run is incorrect or counters disagree.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from run import counters_disagree, git_commit, run_workload, spec  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

TRACED_RUNS = 2


def seed_list(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def summarise(values, bound):
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med,
            "bound": bound, "values": values}


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--seeds", type=seed_list, default=seed_list("1-10"), help="e.g. 1-10")
    ap.add_argument("--workload", action="append", choices=sorted(WORKLOADS))
    ap.add_argument("--out", default=None, help="write the summary here as JSON")
    args = ap.parse_args()
    bench = spec()
    seconds = bench["run_seconds"]
    ok = True
    summary = {"seeds": args.seeds, "seconds": seconds, "git_commit": git_commit(),
               "workloads": {}}
    for name in args.workload or [w["name"] for w in bench["workloads"]]:
        runs = [run_workload(name, seed, seconds, 0) for seed in args.seeds]
        traced = [run_workload(name, args.seeds[0], seconds, 1)
                  for _ in range(TRACED_RUNS)]
        ok &= all(r["correct"] for r in runs + traced)
        entry = {"correct": all(r["correct"] for r in runs + traced),
                 "attempted": sum(r["attempted"] for r in runs + traced),
                 "failed": sum(r["failed"] for r in runs + traced),
                 "env": runs[0]["env"], "end_to_end": {}}
        print(f"# {name}: {len(runs)} runs of {seconds:g} s, seeds {args.seeds[0]}..{args.seeds[-1]}")
        for m in bench["end_to_end"]:
            s = summarise([r["end_to_end"][m["name"]] for r in runs], m["bound"])
            entry["end_to_end"][m["name"]] = s
            verdict = "steady" if s["spread"] < m["bound"] / 3 else "NOT steady"
            print(f"{m['name']:14s} median {s['median']:12.6g} {m['unit']:4s} "
                  f"q1 {s['q1']:.6g} q3 {s['q3']:.6g} spread {s['spread']:.4f} "
                  f"(bound/3 {m['bound'] / 3:.4f}) {verdict}")
        disagree = counters_disagree([t["per_layer"] for t in traced])
        ok &= not disagree
        entry["per_layer"] = traced[0]["per_layer"]
        entry["counters_agree"] = not disagree
        print(f"counters of {len(traced)} traced runs "
              + ("agree" if not disagree else f"DISAGREE: {disagree}"))
        wall = traced[0]["per_layer"]["trace.wall_s"]
        for key, value in traced[0]["per_layer"].items():
            if key.endswith("_s") and not key.startswith("trace.") and value:
                print(f"  {key:26s} {value:10.4f} s  {value / wall:6.1%} of traced wall")
        summary["workloads"][name] = entry
    if args.out:
        Path(args.out).parent.mkdir(parents=True, exist_ok=True)
        Path(args.out).write_text(json.dumps(summary, indent=1) + "\n", encoding="utf-8")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
