#!/usr/bin/env python3
"""Check that this checkout writes the same bytes as another one.

In this checkout and in PARENT_CHECKOUT, each with its own src/, it runs

    python scripts/replay_requests.py W S OUT    (W: ode_grid, closed_form_grid, boundary_sweep)
    weyl verify --suite all --seed S --out FILE

at seeds 7 and 101, one process at a time, and keeps every report, every
r<i>.txt (a request's exit code and stderr) and each command's exit code and
output.  It then compares the two sides file by file, prints the name of
every file that differs or is on one side only, and exits 1 if there is
any, else 0.  The outputs go to a temporary directory, removed at the end.

Usage: python scripts/identity_check.py PARENT_CHECKOUT
"""

import filecmp
import os
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("ode_grid", "closed_form_grid", "boundary_sweep")
SEEDS = (7, 101)


def run_side(checkout, out):
    """Every command's outputs for checkout, written under out."""
    env = dict(os.environ, PYTHONPATH=os.path.join(checkout, "src"))
    commands = {}
    for seed in SEEDS:
        for workload in WORKLOADS:
            name = f"{workload}-{seed}"
            commands[name] = [os.path.join(checkout, "scripts", "replay_requests.py"), workload,
                              str(seed), os.path.join(out, name)]
        commands[f"verify-{seed}"] = ["-m", "weyl.cli", "verify", "--suite", "all", "--seed", str(seed),
                                      "--out", os.path.join(out, f"verify-{seed}.json")]
    os.makedirs(out)
    for name, args in commands.items():
        proc = subprocess.run([sys.executable, *args], cwd=checkout, env=env, capture_output=True, text=True)
        with open(os.path.join(out, f"{name}.exit"), "w") as f:
            f.write(f"exit {proc.returncode}\n{proc.stdout}{proc.stderr}")


def differing(a, b):
    """The files under a or b, relative to them, that differ or are on one side only."""
    def files(root):
        return {os.path.relpath(os.path.join(d, name), root) for d, _, names in os.walk(root) for name in names}

    left, right = files(a), files(b)
    return sorted(path for path in left | right if path not in left & right
                  or not filecmp.cmp(os.path.join(a, path), os.path.join(b, path), shallow=False))


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 1 or argv[0].startswith("-"):
        print(__doc__.strip().splitlines()[-1], file=sys.stderr)
        return 2
    parent = os.path.abspath(argv[0])
    with tempfile.TemporaryDirectory() as tmp:
        for side, checkout in (("change", ROOT), ("parent", parent)):
            run_side(checkout, os.path.join(tmp, side))
        found = differing(os.path.join(tmp, "change"), os.path.join(tmp, "parent"))
    for path in found:
        print(f"differs: {path}")
    runs = len(SEEDS) * (len(WORKLOADS) + 1)
    print(f"{len(found)} differing files over {runs} runs a side" if found
          else f"identical: {runs} runs a side")
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main())
