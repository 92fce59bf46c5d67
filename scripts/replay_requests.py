#!/usr/bin/env python3
"""Replay a benchmark workload's requests and keep every answer, for byte-identity diffs.

Builds the request list of WORKLOAD for SEED (weylbench/workloads.py, read
only), runs each request in this process through `weyl.cli.main` and writes,
per request i, into OUTDIR:

  o<i>.<fmt>   the report the request wrote (absent when it wrote none)
  r<i>.txt     the exit code and the stderr text

The requests run with OUTDIR as the working directory and relative paths
(problems/p<i>.json, o<i>.<fmt>), so that no text depends on where OUTDIR
is.  Run it in each of two checkouts and compare with `diff -r`, or number
by number with scripts/compare_reports.py.

Usage: python scripts/replay_requests.py WORKLOAD SEED OUTDIR
"""

import argparse
import contextlib
import io
import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("workload")
    p.add_argument("seed", type=int)
    p.add_argument("outdir")
    args = p.parse_args(argv)

    sys.path.insert(0, os.path.join(ROOT, "src"))
    sys.path.insert(1, os.path.join(ROOT, "weylbench"))
    import weyl.cli
    import workloads

    reqs = workloads.WORKLOADS[args.workload](args.seed)
    os.makedirs(os.path.join(args.outdir, "problems"), exist_ok=True)
    os.chdir(args.outdir)
    failed = 0
    for i, req in enumerate(reqs):
        prob = f"problems/p{i:04d}.json"
        with open(prob, "w") as f:
            json.dump(req.problem, f)
        out = f"o{i:04d}.{req.fmt}"
        argv = [req.cmd, "--problem", prob, "--out", out, *req.flags]
        if req.fmt != "json":
            argv += ["--format", req.fmt]
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            try:
                rc = weyl.cli.main(argv)
            except SystemExit as e:
                rc = e.code
        failed += rc != 0
        with open(f"r{i:04d}.txt", "w") as f:
            f.write(f"exit {rc}\n{err.getvalue()}")
    print(f"{args.workload} seed {args.seed}: {len(reqs)} requests, {failed} nonzero exits")
    return 0


if __name__ == "__main__":
    sys.exit(main())
