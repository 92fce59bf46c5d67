"""The benchmark's tracer (weylbench/spans.py) still wraps the functions it names.

`weylbench/run.py --trace 1` patches them by name, so a rename in the package
would break it; this runs the same installation here.
"""

import json
import os

from weyl import extensions, models, verify
from weyl.cli import main
from weyl.linalg import Matrix
from weyl.slsolve import PotentialSpec

SPANS = os.path.join(os.path.dirname(__file__), os.pardir, "weylbench", "spans.py")


def _load_spans() -> dict:
    namespace = {"__name__": "weylbench_spans"}
    with open(SPANS) as f:
        exec(compile(f.read(), SPANS, "exec"), namespace)
    return namespace


def test_tracer_counts_evaluate_per_kind():
    spans = _load_spans()
    tracer = spans["Tracer"]()
    catalog = list(verify.catalog().values())
    try:
        spans["install"](tracer)
        for model in catalog:
            models.evaluate(model, 0.5 + 1j)
    finally:
        tracer.uninstall()
    _stats, counters = tracer.stats()
    assert {m.kind for m in catalog} == {c.kind for c in models.WeylModel.__subclasses__()} - {"_callable"}
    for model in catalog:
        assert model.kind in spans["MODEL_KINDS"]
        assert counters[f"models.evaluate.{model.kind}.calls"] >= 1
    assert models.evaluate.__name__ == "evaluate" and not hasattr(models.evaluate, "__wrapped__")


def test_tracer_counts_the_oracle():
    spans = _load_spans()
    tracer = spans["Tracer"]()
    model = models.half_line(PotentialSpec.square_well(-2.0, 1.0))
    try:
        spans["install"](tracer)
        kappa = extensions.negative_count(extensions.ExtensionSpec(model, Matrix.scalar(-0.8)))
    finally:
        tracer.uninstall()
    assert kappa == (1, 1)
    stats, counters = tracer.stats()
    assert stats["oracle.discretize"].calls >= 1
    assert stats["oracle.eigen_count_below"].calls >= 1
    assert counters["oracle.sturm_rows"] >= stats["oracle.eigen_count_below"].calls * 3999


def test_tracer_counts_potential_evaluations():
    # every kind evaluates q through PotentialSpec.value, the method the tracer
    # wraps; potentials no other test builds, so that no cached mesh or solution
    # stands in for the evaluations
    spans = _load_spans()
    tracer = spans["Tracer"]()
    half_line = models.half_line(PotentialSpec.expression("-1.375*exp(-x/0.625)"))
    interval = models.finite_interval(PotentialSpec.table([0.0, 0.625, 1.375], [-1.125, 0.375, 0.25]), 1.875)
    calls = []
    try:
        spans["install"](tracer)
        for model in (half_line, interval):
            models.evaluate(model, 0.5 + 1.3j)
            stats, _counters = tracer.stats()
            calls.append(stats["slsolve.potential_value"].calls if "slsolve.potential_value" in stats else 0)
    finally:
        tracer.uninstall()
    assert calls[0] >= 1 and calls[1] > calls[0]


def _run_grid_requests(tmp_path, requests, grid="0.5:0.5:1,1:1:1"):
    """Run each (cmd, problem) on grid, by default the one point 0.5+1i, under the tracer."""
    spans = _load_spans()
    tracer = spans["Tracer"]()
    try:
        spans["install"](tracer)
        for i, (cmd, data) in enumerate(requests):
            prob = tmp_path / f"p{i}.json"
            prob.write_text(json.dumps(data))
            out = tmp_path / f"o{i}.json"
            assert main([cmd, "--problem", str(prob), f"--grid={grid}", "--out", str(out)]) == 0
    finally:
        tracer.uninstall()
    return tracer.stats()


def _identity(n):
    return [[float(i == j) for j in range(n)] for i in range(n)]


def test_tracer_counts_the_grid_request_path(tmp_path):
    # a 3-channel strip has n = 6, beyond kernels.MAX_N: its grid points take the Matrix path
    model = {"kind": "strip", "a_diag": [2, 3, 5], "width": 3.0}
    transform = {"U": [row[::-1] for row in _identity(6)], "X11": _identity(6),
                 "X12": [[1.0 if i == j else 0.5 if abs(i - j) == 1 else 0.0 for j in range(6)] for i in range(6)],
                 "X21": [[0.0] * 6 for _ in range(6)], "X22": _identity(6)}
    full = [[[0.3, 0.5 + 0.1 * i] if i == j else 0.1 * (abs(i - j) == 1) for j in range(6)] for i in range(6)]
    rank1 = [[[0.3, 0.8] if i == j == 5 else 0.2 * (i == j) + 0.1 * (abs(i - j) == 1) for j in range(6)]
             for i in range(6)]
    # a transformed eval, then W with Im B of full rank and of rank 1
    stats, _counters = _run_grid_requests(tmp_path, [
        ("eval", {"model": model, "transform": transform}),
        ("charfn", {"model": model, "boundary": full}),
        ("charfn", {"model": model, "boundary": rank1, "transform": transform}),
    ])
    for name in ("triplets.transform_weyl", "charfun._char_full", "charfun.char_function_colligation",
                 "linalg.solve", "linalg.matmul"):
        assert stats[name].calls >= 1, name
    assert stats["charfun._char_full"].calls == 1
    assert stats["charfun.char_function_colligation"].calls == 1


def test_tracer_counts_the_kernel_grid_request_path(tmp_path):
    # for n <= kernels.MAX_N the points take a generated kernel, which the tracer does not
    # see; it still counts M(z) per point and the per-request work on B
    model = {"kind": "operator_potential_halfline", "a_diag": [2, 5]}
    transform = {"U": [[0, 1], [1, 0]], "X11": [[1, 0], [0, 1]], "X12": [[1, 0.5], [0.5, -1]],
                 "X21": [[0, 0], [0, 0]], "X22": [[1, 0], [0, 1]]}
    stats, counters = _run_grid_requests(tmp_path, [
        ("eval", {"model": model, "transform": transform}),
        ("charfn", {"model": model, "boundary": [[[0.3, 0.5], 0.1], [0.1, [0.5, 0.8]]]}),
        ("charfn", {"model": model, "boundary": [[0.3, 0.1], [0.1, [0.5, 0.8]]], "transform": transform}),
    ])
    assert stats["models.evaluate"].calls == 3
    assert counters["models.evaluate.operator_potential_halfline.calls"] == 3
    assert stats["charfun.factor_colligation"].calls == 2
    assert stats["triplets.transform_boundary_operator"].calls == 1
    assert "triplets.transform_weyl" not in stats and "charfun._char_full" not in stats


def test_tracer_counts_one_evaluation_per_conjugate_pair(tmp_path):
    # the grid 0.5 -+ 1i is one conjugate pair: a corner evaluates M once and mirrors
    # it, a sector, whose power is not bit-symmetric, evaluates both points
    for kind, calls in (("corner", 1), ("sector", 2)):
        stats, counters = _run_grid_requests(tmp_path, [("eval", {"model": {"kind": kind, "beta": 0.75}})],
                                             grid="0.5:0.5:1,-1:1:2")
        assert stats["models.evaluate"].calls == calls, kind
        assert counters[f"models.evaluate.{kind}.calls"] == calls, kind


def test_tracer_counts_the_propagations_of_the_eigenvalue_count(tmp_path):
    # the Sturm count of a spectrum window propagates through integrate_ivp,
    # so the tracer sees that work
    spans = _load_spans()
    tracer = spans["Tracer"]()
    prob = tmp_path / "interval.json"
    prob.write_text(json.dumps({
        "model": {"kind": "finite_interval", "b": 2,
                  "potential": {"kind": "expression", "source": "3*cos(2*x) - 1"}},
        "boundary": [[0, 0], [0, 0]],
    }))
    try:
        spans["install"](tracer)
        assert main(["spectrum", "--problem", str(prob), "--out", str(tmp_path / "s.json"),
                     "--window=-5:20"]) == 0
    finally:
        tracer.uninstall()
    stats, _counters = tracer.stats()
    assert "slsolve.integrate_ivp" in stats and stats["slsolve.integrate_ivp"].calls >= 1
