"""The benchmark's tracer (weylbench/spans.py) still wraps the functions it names.

`weylbench/run.py --trace 1` patches them by name, so a rename in the package
would break it; this runs the same installation here.
"""

import os

from weyl import models, verify

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
