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

With `--bench FILE` it also runs each side once with `--trace 1` at the
first seed and writes into FILE, under the workload's name, that summary
(per-metric medians, quartiles and wins of both sides), both sides' traced
per-layer counts and the failures per run, next to the machine's platform,
CPU count, Python version and median calibration-kernel round.  Entries for
other workloads already in FILE are kept, so one FILE can collect several
workloads, each from its own invocation.

Usage: python scripts/bench_pairs.py PARENT_DIR CHANGE_DIR --workload W --seeds 301-310
       [--bench BENCH_<n>.json]
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_once(checkout, workload, seed, trace=0):
    cmd = [sys.executable, "weylbench/run.py", "--workload", workload, "--seed", str(seed),
           "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    lines = [ln for ln in proc.stdout.splitlines() if ln.startswith("{")]
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{checkout}: {' '.join(cmd)} exited {proc.returncode}\n{proc.stderr}")
    return json.loads(lines[-1])


def quartiles(values):
    return statistics.quantiles(values, n=4, method="inclusive")


def summarize(metrics, runs):
    """Per end-to-end metric: both sides' [q1, median, q3], the change's wins
    and whether its median beats the parent's by more than the parent's IQR."""
    out = {}
    for m in metrics:
        name, sign = m["name"], (1.0 if m["better"] == "lower" else -1.0)
        par = [r["parent"]["metrics"][name]["value"] for r in runs]
        chg = [r["change"]["metrics"][name]["value"] for r in runs]
        pq, cq = quartiles(par), quartiles(chg)
        out[name] = {
            "unit": m["unit"],
            "better": m["better"],
            "parent": {"median": pq[1], "q1": pq[0], "q3": pq[2]},
            "change": {"median": cq[1], "q1": cq[0], "q3": cq[2]},
            "change_wins": sum(sign * (c - pv) < 0 for pv, c in zip(par, chg)),
            "beyond_parent_iqr": sign * (cq[1] - pq[1]) < 0 and abs(cq[1] - pq[1]) > pq[2] - pq[0],
        }
    return out


def machine_info(checkout):
    """Where the pairs ran: platform, CPU count, Python version and the median
    time of the benchmark's calibration kernel (weylbench/calibrate.py)."""
    sys.path.insert(0, os.path.join(checkout, "weylbench"))
    import calibrate

    rounds = []
    for _ in range(25):
        t0 = time.perf_counter()
        calibrate.kernel()
        rounds.append(time.perf_counter() - t0)
    return {
        "platform": platform.platform(),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "kernel_round_s": statistics.median(rounds),
        "ref_round_s": calibrate.REF_ROUND_S,
    }


def traced_counts(checkout, workload, seed):
    """The deterministic per-layer metrics (counts and ratios) of one traced run."""
    metrics = run_once(checkout, workload, seed, trace=1)["metrics"]
    return {k: v["value"] for k, v in metrics.items() if v["unit"] in ("count", "ratio")}


def write_bench(path, sides, workload, seeds, summary, failed):
    bench = {}
    if os.path.exists(path):
        with open(path) as f:
            bench = json.load(f)
    bench["machine"] = machine_info(sides["change"])
    bench.setdefault("workloads", {})[workload] = {
        "seeds": seeds,
        "pairs": len(seeds),
        "end_to_end": summary,
        "failed_per_run": failed,
        "traced_counts": {"seed": seeds[0], **{
            side: traced_counts(checkout, workload, seeds[0]) for side, checkout in sides.items()}},
    }
    with open(path, "w") as f:
        json.dump(bench, f, indent=1, sort_keys=True)
        f.write("\n")


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("parent_dir")
    p.add_argument("change_dir")
    p.add_argument("--workload", required=True)
    p.add_argument("--seeds", required=True, help="e.g. 301-310 or 301,305-307")
    p.add_argument("--out", help="raw runs as JSON (default bench_pairs_<workload>.json)")
    p.add_argument("--bench", help="JSON file to add this workload's summary, traced counts "
                                   "and the machine info to (e.g. BENCH_<n>.json)")
    args = p.parse_args(argv)
    seeds = parse_seeds(args.seeds)
    if len(seeds) < 2:
        p.error("--seeds needs at least two seeds: the quartiles take two runs a side")

    with open(os.path.join(args.change_dir, "BENCHMARK.json")) as f:
        metrics = json.load(f)["end_to_end"]
    sides = {"parent": args.parent_dir, "change": args.change_dir}
    runs = []
    for i, seed in enumerate(seeds):
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
    summary = summarize(metrics, runs)
    for name, m in summary.items():
        pq, cq = m["parent"], m["change"]
        print(f"  {name:16s} {m['unit']:>3s}"
              f"  parent {pq['median']:10.4g} [{pq['q1']:.4g}, {pq['q3']:.4g}]"
              f"  change {cq['median']:10.4g} [{cq['q1']:.4g}, {cq['q3']:.4g}]"
              f"  change wins {m['change_wins']}/{len(runs)}"
              f"  beyond parent IQR: {'yes' if m['beyond_parent_iqr'] else 'no'}")
    failed = {side: [r[side]["failed"] for r in runs] for side in sides}
    print(f"  failed per run: parent {failed['parent']}, change {failed['change']}")
    if args.bench:
        write_bench(args.bench, sides, args.workload, seeds, summary, failed)
        print(f"bench summary and traced counts: {args.bench}")

    out = args.out or f"bench_pairs_{args.workload}.json"
    with open(out, "w") as f:
        json.dump({"workload": args.workload, "pairs": runs}, f, indent=1)
    print(f"raw runs: {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
