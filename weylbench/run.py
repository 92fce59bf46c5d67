#!/usr/bin/env python3
"""Benchmark of the `weyl` CLI request paths.

Run from the root of a source checkout:

    python3 weylbench/run.py --workload ode_grid --seed 1 --seconds 20 --trace 0
    python3 weylbench/run.py --seed 1          # every workload, as a table
    python3 weylbench/run.py --selftest

One run is one fresh Python process acting as a single closed-loop client:
it writes the workload's problem files from the seed, times interpreter
start-up plus `import weyl` in fresh child processes (setup_s), then calls
`weyl.cli.main(argv)` in-process for each request of the workload's fixed
list, with every flag not naming an input at its default.  Outputs are
checked after the timed session against `reference`, which never imports
`weyl`.  Every timing is scaled to a fixed reference speed of the host by a
kernel timed between and inside requests (see `calibrate`).  The last line
of standard output is one JSON object with
`correct`, `attempted`, `failed` and `metrics`: the end-to-end metrics with
`--trace 0`, the per-layer metrics of a traced session with `--trace 1`.

The request list is fixed per seed, not sized by `--seconds`: the same work
and the same cache-hit pattern in every run.  Each list takes 17-26 s on a
2-core x86-64 VM; `--seconds` is accepted so the command line matches the
benchmark contract, and a run that overruns it by more than a factor of six
says so on standard error.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".weylbench_work")
sys.path.insert(0, HERE)

import calibrate  # noqa: E402
import checks  # noqa: E402
import workloads  # noqa: E402

SETUP_LAUNCHES = 9


def pin_to_one_cpu():
    """Keep this process (and the set-up probes it spawns) on one CPU.

    The CLI's default thread pool still runs os.cpu_count() threads, but
    their GIL handoffs stay on one core.  Spread over two vCPUs of a shared
    VM, each handoff waits for the other vCPU to be scheduled, and wall time
    then tracks the host's load: in ten runs per workload wall time exceeded
    CPU time by up to 35 % and its run-to-run spread doubled.
    """
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def measure_setup(launches=SETUP_LAUNCHES):
    """Median time from spawning an interpreter to `import weyl.cli` done.

    Each launch is scaled to reference speed by the kernel rounds timed just
    before and after it (see `calibrate`).
    """
    probe = ("import time, sys; sys.path.insert(0, sys.argv[1]); import weyl.cli; "
             "print(repr(time.monotonic()))")
    env = dict(os.environ)
    env.pop("PYTHONPATH", None)
    speed = calibrate.Speedometer()
    speed.sample()
    times = []
    for _ in range(launches):
        t0 = time.monotonic()
        out = subprocess.run([sys.executable, "-c", probe, SRC], env=env, capture_output=True,
                             text=True, timeout=120, check=True)
        times.append(float(out.stdout.strip()) - t0)
        speed.sample()
    return statistics.median(t * speed.wall_scale(i) for i, t in enumerate(times))


def write_inputs(reqs, workdir):
    """Problem files and argv for each request; returns [(argv, out_path)]."""
    os.makedirs(workdir, exist_ok=True)
    calls = []
    for i, req in enumerate(reqs):
        prob = os.path.join(workdir, f"p{i:04d}.json")
        with open(prob, "w") as f:
            json.dump(req.problem, f)
        out = os.path.join(workdir, f"o{i:04d}.{req.fmt}")
        argv = [req.cmd, "--problem", prob, "--out", out, *req.flags]
        if req.fmt != "json":
            argv += ["--format", req.fmt]
        calls.append((argv, out))
    return calls


def run_session(calls, tracer=None):
    """Run every request, timing kernel rounds between and inside requests.

    Returns (latencies, cpu_times, outcomes, speed, cli_self_s): wall and CPU
    time per request with the rounds taken inside it left out, the failure of
    each (None when it returned 0), and the `calibrate.Speedometer`.  A traced
    session takes gap rounds only, so that no round lands in a layer's span.
    """
    import weyl.cli

    from spans import union_length

    latencies = []
    cpu_times = []
    outcomes = []
    cli_self = 0.0
    sink = io.StringIO()
    speed = calibrate.Speedometer(None if tracer is not None else calibrate.TICK_S)
    speed.sample()
    for argv, _out in calls:
        speed.begin()
        c0 = time.process_time()
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stderr(sink):
                rc = weyl.cli.main(argv)
            err = None if rc == 0 else f"exit code {rc}: {sink.getvalue().strip()[-200:]}"
        except (Exception, SystemExit) as e:  # a crash is a failed request, not a dead run
            err = f"{type(e).__name__}: {e}"
        finally:
            spent_wall, spent_cpu = speed.end()
        t1 = time.perf_counter()
        cpu_times.append(time.process_time() - c0 - spent_cpu)
        latencies.append(t1 - t0 - spent_wall)
        outcomes.append(err)
        sink.seek(0)
        sink.truncate()
        if tracer is not None:
            cli_self += (t1 - t0) - union_length(tracer.take_root_intervals())
        speed.sample()
    return latencies, cpu_times, outcomes, speed, cli_self


def check_outputs(reqs, calls, outcomes):
    """Failure reasons per request (None when the output is right)."""
    reasons = []
    for req, (_argv, out), err in zip(reqs, calls, outcomes):
        if err is None:
            with open(out) as f:
                text = f.read()
            try:
                report = checks.parse_report(req, text)
            except (ValueError, KeyError, IndexError) as e:
                err = f"unparseable report: {e}"
            else:
                err = checks.check(req, report)
        reasons.append(err)
    return reasons


def percentile(values, q):
    """Nearest-rank percentile."""
    s = sorted(values)
    k = max(0, min(len(s) - 1, int(-(-q * len(s) // 100)) - 1))
    return s[k]


def run(workload, seed, seconds, trace, keep_requests=None):
    reqs = workloads.WORKLOADS[workload](seed)
    if keep_requests is not None:
        reqs = [reqs[i] for i in keep_requests(reqs)]
    workdir = os.path.join(WORK, f"{workload}-{seed}-{os.getpid()}")
    calls = write_inputs(reqs, workdir)
    try:
        setup_s = measure_setup() if not trace else None
        sys.path.insert(0, SRC)
        import weyl.cli  # noqa: F401  (import outside the timed session)

        tracer = None
        if trace:
            import spans as tr

            tracer = tr.Tracer()
            tr.install(tracer)
            cache_before = tr.cache_totals()
        latencies, cpu_times, outcomes, speed, cli_self = run_session(calls, tracer)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if tracer is not None:
            tracer.uninstall()
        reasons = check_outputs(reqs, calls, outcomes)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failed = [(i, r) for i, r in enumerate(reasons) if r is not None]
    for i, r in failed:
        print(f"failed request {i} ({reqs[i].cmd} {reqs[i].problem['model']['kind']}): {r}",
              file=sys.stderr)
    wall = sum(latencies)
    if wall > 6 * seconds:
        print(f"note: session took {wall:.1f} s against --seconds {seconds}", file=sys.stderr)
    # every timing below is scaled to reference speed, request by request
    ref_latencies = [t * speed.wall_scale(i) for i, t in enumerate(latencies)]
    ref_cpu = sum(t * speed.cpu_scale(i) for i, t in enumerate(cpu_times))

    if trace:
        table = tr.per_layer_metrics(tracer, sum(latencies), cli_self, cache_before)
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in table.items()}
    else:
        metrics = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "session_s": {"value": sum(ref_latencies), "unit": "s"},
            "session_cpu_s": {"value": ref_cpu, "unit": "s"},
            "latency_p50_ms": {"value": 1e3 * statistics.median(ref_latencies), "unit": "ms"},
            "latency_p90_ms": {"value": 1e3 * percentile(ref_latencies, 90), "unit": "ms"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }
    result = {
        "correct": all(_expected_failure(reqs[i]) for i, _ in failed),
        "attempted": len(reqs),
        "failed": len(failed),
        "metrics": metrics,
    }
    raw = {"session_wall_s": wall, "session_cpu_s": sum(cpu_times),
           "median_round_s": speed.median_round_s(), "ref_round_s": calibrate.REF_ROUND_S,
           "round_wall_s": speed.wall, "round_cpu_s": speed.cpu,
           "inside_rounds": speed.inside}
    _save(workload, seed, trace, result, raw, reasons, latencies, reqs)
    return result


def _expected_failure(req):
    """The one request kept although the program answers it wrongly today."""
    model = req.problem["model"]
    return (req.cmd == "negcount" and model.get("potential") == workloads.RESONANT_WELL
            and req.problem.get("boundary") == workloads.RESONANT_B)


def _save(workload, seed, trace, result, raw, reasons, latencies, reqs):
    """Keep the result, the raw session and kernel-round times and the raw
    per-request latencies under .weylbench_work/results."""
    d = os.path.join(WORK, "results")
    os.makedirs(d, exist_ok=True)
    per_request = [
        {"cmd": r.cmd, "kind": r.problem["model"]["kind"], "latency_s": t, "failure": f}
        for r, t, f in zip(reqs, latencies, reasons)
    ]
    path = os.path.join(d, f"{workload}-seed{seed}-trace{int(trace)}-{os.getpid()}.json")
    with open(path, "w") as f:
        json.dump({"result": result, "raw": raw, "requests": per_request}, f, indent=1)


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=20)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--selftest", action="store_true",
                   help="short run of every workload plus negative controls of the checks")
    args = p.parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "weyl")):
        print(f"error: no weyl package under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    pin_to_one_cpu()
    if args.selftest:
        import selftest

        return selftest.main(sys.modules[__name__])
    if args.workload is None:
        return run_all(args)
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


def run_all(args):
    """Every workload, each in its own fresh process, as a readable table."""
    ok = True
    for name in workloads.WORKLOADS:
        argv = [sys.executable, os.path.abspath(__file__), "--workload", name, "--seed",
                str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(argv, capture_output=True, text=True, timeout=900)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"{name}: run failed with exit code {proc.returncode}")
            ok = False
            continue
        result = json.loads(lines[-1])
        ok &= result["correct"]
        print(f"{name}: attempted {result['attempted']}, failed {result['failed']}, "
              f"correct {result['correct']}")
        for metric, v in result["metrics"].items():
            print(f"  {metric:48s} {v['value']:14.6g} {v['unit']}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
