#!/usr/bin/env python3
"""Run the benchmark in two checkouts as alternating pairs and compare them.

For each seed, runs

    python3 weylbench/run.py --workload W --seed S --trace 0

once in PARENT_DIR and once in CHANGE_DIR, one process at a time; pair i
runs the parent first when i is even and the change first when it is odd.
Each run's metrics come from the last JSON line it prints.  For every
end-to-end metric named in CHANGE_DIR/BENCHMARK.json it prints both sides'
median and quartiles, how many pairs the change won (ties count for
neither), and whether the change's median is better than the parent's by
more than the parent's interquartile range.  The raw runs go to a JSON file.

Usage: python scripts/bench_pairs.py PARENT_DIR CHANGE_DIR --workload W --seeds 301-310
"""

import argparse
import json
import os
import statistics
import subprocess
import sys


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_once(checkout, workload, seed):
    cmd = [sys.executable, "weylbench/run.py", "--workload", workload, "--seed", str(seed),
           "--trace", "0"]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    lines = [ln for ln in proc.stdout.splitlines() if ln.startswith("{")]
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{checkout}: {' '.join(cmd)} exited {proc.returncode}\n{proc.stderr}")
    return json.loads(lines[-1])


def quartiles(values):
    return statistics.quantiles(values, n=4, method="inclusive")


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("parent_dir")
    p.add_argument("change_dir")
    p.add_argument("--workload", required=True)
    p.add_argument("--seeds", required=True, help="e.g. 301-310 or 301,305-307")
    p.add_argument("--out", help="raw runs as JSON (default bench_pairs_<workload>.json)")
    args = p.parse_args(argv)

    with open(os.path.join(args.change_dir, "BENCHMARK.json")) as f:
        metrics = json.load(f)["end_to_end"]
    sides = {"parent": args.parent_dir, "change": args.change_dir}
    runs = []
    for i, seed in enumerate(parse_seeds(args.seeds)):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        pair = {"seed": seed, "first": order[0]}
        for side in order:
            pair[side] = run_once(sides[side], args.workload, seed)
        runs.append(pair)
        print(f"seed {seed} ({order[0]} first): " + ", ".join(
            f"{side} session_s {pair[side]['metrics']['session_s']['value']:.3f} "
            f"failed {pair[side]['failed']}/{pair[side]['attempted']}"
            for side in ("parent", "change")), flush=True)

    print(f"\n{args.workload}, {len(runs)} pairs; median [q1, q3]")
    for m in metrics:
        name, sign = m["name"], (1.0 if m["better"] == "lower" else -1.0)
        par = [r["parent"]["metrics"][name]["value"] for r in runs]
        chg = [r["change"]["metrics"][name]["value"] for r in runs]
        wins = sum(sign * (c - pv) < 0 for pv, c in zip(par, chg))
        pq, cq = quartiles(par), quartiles(chg)
        gain = sign * (cq[1] - pq[1]) < 0 and abs(cq[1] - pq[1]) > pq[2] - pq[0]
        print(f"  {name:16s} {m['unit']:>3s}  parent {pq[1]:10.4g} [{pq[0]:.4g}, {pq[2]:.4g}]"
              f"  change {cq[1]:10.4g} [{cq[0]:.4g}, {cq[2]:.4g}]"
              f"  change wins {wins}/{len(runs)}  beyond parent IQR: {'yes' if gain else 'no'}")
    failed = {side: [r[side]["failed"] for r in runs] for side in sides}
    print(f"  failed per run: parent {failed['parent']}, change {failed['change']}")

    out = args.out or f"bench_pairs_{args.workload}.json"
    with open(out, "w") as f:
        json.dump({"workload": args.workload, "pairs": runs}, f, indent=1)
    print(f"raw runs: {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
