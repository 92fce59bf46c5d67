"""Self-test of the benchmark: a short run of every workload, then negative
controls that feed the checks corrupted reports and expect each to be
flagged.  Exit code 0 when everything behaves, 1 otherwise.
"""

from __future__ import annotations

import copy
import os
import shutil

import checks
import workloads

SHORT_EVERY = 9  # keep every 9th request of each list, plus the first of each command


def _short(reqs):
    keep = set(range(0, len(reqs), SHORT_EVERY))
    seen = set()
    for i, r in enumerate(reqs):
        key = (r.cmd, "rect" in r.info)
        if key not in seen:
            seen.add(key)
            keep.add(i)
    return sorted(keep)


def _corruptions(req, report):
    """(label, corrupted report) pairs for one request's correct report."""
    out = []
    if req.cmd in ("eval", "charfn"):
        bad = copy.deepcopy(report)
        for mat in bad["mats"]:
            row = mat[0]
            if abs(row[0].imag) > 1e-6:
                row[0] = row[0].conjugate()
                out.append((f"{req.cmd}: one {'M' if req.cmd == 'eval' else 'W'} entry conjugated", bad))
                break
    elif req.cmd == "spectrum" and "window" in req.info and report["eigenvalues"]:
        bad = copy.deepcopy(report)
        bad["eigenvalues"][0]["location"] += 1e-3
        out.append(("spectrum: one eigenvalue shifted by 1e-3", bad))
    elif req.cmd == "spectrum" and "rect" in req.info:
        bad = dict(report, count=report["count"] + 1)
        out.append(("spectrum --rect: count off by one", bad))
    elif req.cmd == "negcount":
        bad = dict(report, kappa_M=report["kappa_M"] + 1)
        out.append(("negcount: kappa_M off by one", bad))
    elif req.cmd == "krein":
        bad = copy.deepcopy(report)
        entry = bad["B"][0][0]  # a real number or an [re, im] pair
        bad["B"][0][0] = [entry[0] + 1e-3, entry[1]] if isinstance(entry, list) else entry + 1e-3
        out.append(("krein: M(0) entry shifted by 1e-3", bad))
    return out


def main(runner) -> int:
    ok = True
    for name in sorted(workloads.WORKLOADS):
        result = runner.run(name, seed=1, seconds=5, trace=False, keep_requests=_short)
        good = result["correct"] and result["attempted"] > 0
        print(f"[{'pass' if good else 'FAIL'}] short {name}: {result['attempted']} requests, "
              f"{result['failed']} failed")
        ok &= good

    # negative controls: real reports of the program, then corrupted copies
    import weyl.cli

    workdir = os.path.join(runner.WORK, f"selftest-{os.getpid()}")
    flagged_all = True
    try:
        for name, make in sorted(workloads.WORKLOADS.items()):
            reqs = make(1)
            picks = [reqs[i] for i in _short(reqs)]
            calls = runner.write_inputs(picks, workdir)
            for req, (argv, out) in zip(picks, calls):
                if weyl.cli.main(argv) != 0:
                    continue
                with open(out) as f:
                    report = checks.parse_report(req, f.read())
                if checks.check(req, report) is not None:
                    continue  # the kept failing request: nothing to corrupt
                for label, bad in _corruptions(req, report):
                    flagged = checks.check(req, bad) is not None
                    flagged_all &= flagged
                    print(f"[{'pass' if flagged else 'FAIL'}] negative control "
                          f"({name}, {req.problem['model']['kind']}): {label}")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    ok &= flagged_all
    print("selftest", "passed" if ok else "FAILED")
    return 0 if ok else 1
