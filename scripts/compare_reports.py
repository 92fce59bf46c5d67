#!/usr/bin/env python3
"""Compare two output directories of scripts/replay_requests.py, number by number.

For every request i it reads o<i>.<fmt> (the report) and r<i>.txt (exit code
and stderr) from both directories and prints one line: whether the texts are
byte-identical, and otherwise the largest relative deviation
|a - b| / max(|a|, |b|) over the numbers in them, with everything between
the numbers required to match exactly.

A request fails when
  * its model has no varying piece of q (no `expression` potential and no
    `sampled_table` segment with unequal end values) and its texts differ
    at all, or
  * the text around the numbers differs, or a number deviates by more than
    --max-rel (default 1e-9).

The exit code is 1 when any request fails, else 0.

Usage: python scripts/compare_reports.py A B [--max-rel 1e-9]
"""

import argparse
import glob
import json
import os
import re
import sys

# a decimal number standing alone: not part of a word such as a hex digest
NUMBER = re.compile(r"(?<![\w.])-?\d+(?:\.\d+)?(?:[eE][-+]?\d+)?(?![\w.])")


def has_varying_q(node):
    """True when a model (a JSON problem's "model") holds a potential that is not piecewise constant."""
    if isinstance(node, dict):
        kind = node.get("kind")
        if kind == "expression":
            return True
        if kind == "sampled_table":
            values = node.get("values", [])
            if any(a != b for a, b in zip(values, values[1:])):
                return True
        return any(has_varying_q(v) for v in node.values())
    if isinstance(node, list):
        return any(has_varying_q(v) for v in node)
    return False


def max_rel_deviation(text_a, text_b):
    """Largest relative deviation over the numbers of two texts, or None when the rest differs."""
    if NUMBER.split(text_a) != NUMBER.split(text_b):
        return None
    worst = 0.0
    for sa, sb in zip(NUMBER.findall(text_a), NUMBER.findall(text_b)):
        if sa != sb:
            a, b = float(sa), float(sb)
            worst = max(worst, abs(a - b) / max(abs(a), abs(b)))
    return worst


def read(path):
    if not os.path.exists(path):
        return None
    with open(path) as f:
        return f.read()


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("a")
    p.add_argument("b")
    p.add_argument("--max-rel", type=float, default=1e-9)
    args = p.parse_args(argv)

    failed = 0
    worst_varying = 0.0
    runs = sorted(os.path.basename(f)[1:-4] for f in glob.glob(os.path.join(args.a, "r*.txt")))
    for i in runs:
        with open(os.path.join(args.a, "problems", f"p{i}.json")) as f:
            varying = has_varying_q(json.load(f).get("model"))
        reports = [os.path.basename(f) for f in glob.glob(os.path.join(args.a, f"o{i}.*"))]
        worst, same = 0.0, True
        for name in [f"r{i}.txt", *reports]:
            ta, tb = read(os.path.join(args.a, name)), read(os.path.join(args.b, name))
            if ta == tb:
                continue
            same = False
            dev = None if ta is None or tb is None else max_rel_deviation(ta, tb)
            worst = None if dev is None or worst is None else max(worst, dev)
        if same:
            status = "identical"
        elif worst is None:
            status = "FAIL: differs beyond its numbers"
        elif not varying:
            status = f"FAIL: differs (max rel {worst:.3g}) on a model with q piecewise constant"
        elif worst > args.max_rel:
            status = f"FAIL: max rel {worst:.3g} > {args.max_rel:g}"
        else:
            status = f"max rel {worst:.3g}"
        if varying and worst is not None:
            worst_varying = max(worst_varying, worst)
        failed += status.startswith("FAIL")
        print(f"{i} {'varying q' if varying else 'constant q'}: {status}")
    print(f"{len(runs)} requests, {failed} failed; largest deviation on varying q {worst_varying:.3g}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
