"""Per-layer tracing of the `weyl` package from outside.

`install()` replaces selected public functions with timing wrappers at every
binding site: the defining module, every `weyl.*` module that imported the
name directly (e.g. `extensions.evaluate` is `models.evaluate`), and class
attributes for methods.  The program's own files are not touched.

Spans are kept on a per-thread stack, because `eval` and `charfn` map grid
points over a thread pool.  A span's self time is its wall duration minus the
time its child spans on the same thread cover.  Counters live in per-thread
tables that are summed when read, so the wrappers take no lock.
"""

from __future__ import annotations

import importlib
import pkgutil
import threading
import time

_perf = time.perf_counter


class _Stat:
    __slots__ = ("calls", "total", "self")

    def __init__(self):
        self.calls = 0
        self.total = 0.0
        self.self = 0.0


class Tracer:
    def __init__(self):
        self._local = threading.local()
        self._tables = []  # one {name: _Stat} per thread, plus counters
        self._lock = threading.Lock()
        self._restore = []

    # -- per-thread state -------------------------------------------------

    def _state(self):
        st = getattr(self._local, "st", None)
        if st is None:
            st = self._local.st = ([], {}, {}, [])  # stack, stats, counters, root intervals
            with self._lock:
                self._tables.append(st)
        return st

    def count(self, name, n=1):
        counters = self._state()[2]
        counters[name] = counters.get(name, 0) + n

    def span(self, name, fn, on_return=None, arg_hook=None):
        """Wrap fn in a span named `name`."""
        tracer = self

        def wrapper(*args, **kwargs):
            stack, stats, _, roots = tracer._state()
            if arg_hook is not None:
                args, kwargs = arg_hook(args, kwargs)
            frame = [0.0]
            stack.append(frame)
            t0 = _perf()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = _perf()
                dt = t1 - t0
                stack.pop()
                s = stats.get(name)
                if s is None:
                    s = stats[name] = _Stat()
                s.calls += 1
                s.total += dt
                s.self += dt - frame[0]
                if stack:
                    stack[-1][0] += dt
                else:
                    roots.append((t0, t1))
            if on_return is not None:
                on_return(args, out)
            return out

        wrapper.__wrapped__ = fn
        return wrapper

    # -- installation -----------------------------------------------------

    def patch(self, module, attr, wrapper_factory):
        """Replace module.attr (a function, or 'Class.method') at every binding site."""
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(module, cls_name)
            original = cls.__dict__[meth]
            setattr(cls, meth, wrapper_factory(original))
            self._restore.append((cls, meth, original))
            return
        original = getattr(module, attr)
        wrapped = wrapper_factory(original)
        for mod in _weyl_modules():
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapped)
                    self._restore.append((mod, key, original))

    def uninstall(self):
        for owner, key, original in reversed(self._restore):
            setattr(owner, key, original)
        self._restore.clear()

    # -- reading ----------------------------------------------------------

    def stats(self):
        merged = {}
        counters = {}
        for _stack, stats, cnt, _roots in list(self._tables):
            for name, s in stats.items():
                m = merged.setdefault(name, _Stat())
                m.calls += s.calls
                m.total += s.total
                m.self += s.self
            for name, v in cnt.items():
                counters[name] = counters.get(name, 0) + v
        return merged, counters

    def take_root_intervals(self):
        """Root-span intervals recorded on every thread since the last call."""
        out = []
        for st in list(self._tables):
            roots = st[3]
            out.extend(roots)
            del roots[: len(roots)]
        return out


def union_length(intervals):
    total = 0.0
    end = None
    start = None
    for a, b in sorted(intervals):
        if end is None or a > end:
            if end is not None:
                total += end - start
            start, end = a, b
        else:
            end = max(end, b)
    if end is not None:
        total += end - start
    return total


def _weyl_modules():
    import weyl

    mods = [weyl]
    for info in pkgutil.iter_modules(weyl.__path__):
        mods.append(importlib.import_module(f"weyl.{info.name}"))
    return mods


# Layers and the functions whose spans they own.  Names are
# "<layer>.<function>"; the functions are wrapped where they are defined and
# wherever they were imported by name.
SPANS = {
    "slsolve": ("integrate_ivp", "halfline_m", "halfline_m_exact_tail", "finite_interval_M"),
    "models": ("evaluate", "m_at_zero"),
    "specfun": ("bessel_j", "gamma"),
    "linalg": ("det", "solve", "inverse", "hermitian_eigh", "singular_values"),
    "triplets": ("transform_weyl", "transform_boundary_operator"),
    "charfun": ("factor_colligation", "_char_full", "char_function_colligation"),
    "extensions": ("point_spectrum_real", "model_pole_locations", "count_complex_eigenvalues",
                   "negative_count", "scan_sign_changes"),
    "oracle": ("discretize", "eigen_count_below", "lowest_eigenvalues"),
    "problems": ("parse_problem",),
}


def install(tracer: Tracer):
    from weyl import linalg, slsolve

    for layer, names in SPANS.items():
        module = importlib.import_module(f"weyl.{layer}")
        for name in names:
            tracer.patch(module, name, _factory(tracer, layer, name))
    tracer.patch(linalg, "Matrix.__matmul__", lambda fn: tracer.span("linalg.matmul", fn))
    tracer.patch(slsolve, "PotentialSpec.value",
                 lambda fn: tracer.span("slsolve.potential_value", fn))


def _factory(tracer, layer, name):
    full = f"{layer}.{name}"
    if full == "models.evaluate":
        def by_kind(args, kwargs):
            tracer.count(f"models.evaluate.{args[0].kind}.calls")
            return args, kwargs
        return lambda fn: tracer.span(full, fn, arg_hook=by_kind)
    if full == "extensions.scan_sign_changes":
        def count_evals(args, kwargs):
            f = args[0]

            def counted(x):
                tracer.count("extensions.scan_evals")
                return f(x)
            return (counted,) + tuple(args[1:]), kwargs
        return lambda fn: tracer.span(full, fn, arg_hook=count_evals)
    if full == "extensions.count_complex_eigenvalues":
        def samples(args, rep):
            tracer.count("extensions.contour_samples", rep.samples)
        return lambda fn: tracer.span(full, fn, on_return=samples)
    if full == "oracle.eigen_count_below":
        def rows(args, kwargs):
            tracer.count("oracle.sturm_rows", args[0].size)
            return args, kwargs
        return lambda fn: tracer.span(full, fn, arg_hook=rows)
    return lambda fn: tracer.span(full, fn)


def cache_totals():
    """(hits, misses) summed over the lru_caches `slsolve` holds, if any."""
    from weyl import slsolve

    hits = misses = 0
    for value in vars(slsolve).values():
        info = getattr(value, "cache_info", None)
        if callable(info):
            ci = info()
            hits += ci.hits
            misses += ci.misses
    return hits, misses


def per_layer_metrics(tracer: Tracer, request_total_s: float, cli_self_s: float,
                      cache_before):
    """The per-layer metric table of BENCHMARK.json, from one traced session."""
    stats, counters = tracer.stats()

    def calls(name):
        return stats[name].calls if name in stats else 0

    def self_s(name):
        return stats[name].self if name in stats else 0.0

    def total_s(name):
        return stats[name].total if name in stats else 0.0

    hits, misses = cache_totals()
    hits -= cache_before[0]
    misses -= cache_before[1]
    out = {
        "slsolve.integrate_ivp.calls": (calls("slsolve.integrate_ivp"), "count"),
        "slsolve.integrate_ivp.self_s": (self_s("slsolve.integrate_ivp"), "s"),
        "slsolve.potential_evals": (calls("slsolve.potential_value"), "count"),
        "slsolve.potential_value.self_s": (self_s("slsolve.potential_value"), "s"),
        "slsolve.halfline_m.calls": (calls("slsolve.halfline_m"), "count"),
        "slsolve.halfline_m_exact_tail.calls": (calls("slsolve.halfline_m_exact_tail"), "count"),
        "slsolve.finite_interval_M.calls": (calls("slsolve.finite_interval_M"), "count"),
        "slsolve.cache_hits": (hits, "count"),
        "slsolve.cache_misses": (misses, "count"),
        "slsolve.cache_hit_ratio": (hits / (hits + misses) if hits + misses else 0.0, "ratio"),
        "models.evaluate.calls": (calls("models.evaluate"), "count"),
    }
    for kind in MODEL_KINDS:
        key = f"models.evaluate.{kind}.calls"
        out[key] = (counters.get(key, 0), "count")
    out.update({
        "models.evaluate.self_s": (self_s("models.evaluate"), "s"),
        "models.m_at_zero.calls": (calls("models.m_at_zero"), "count"),
        "models.m_at_zero.total_s": (total_s("models.m_at_zero"), "s"),
    })
    for name in ("specfun.bessel_j", "specfun.gamma", "linalg.det", "linalg.solve",
                 "linalg.inverse", "linalg.hermitian_eigh", "linalg.singular_values",
                 "linalg.matmul", "triplets.transform_weyl"):
        out[f"{name}.calls"] = (calls(name), "count")
        out[f"{name}.self_s"] = (self_s(name), "s")
    out.update({
        "triplets.transform_boundary_operator.calls":
            (calls("triplets.transform_boundary_operator"), "count"),
        "charfun.factor_colligation.calls": (calls("charfun.factor_colligation"), "count"),
        "charfun.factor_colligation.self_s": (self_s("charfun.factor_colligation"), "s"),
        "charfun.w_evals": (calls("charfun._char_full") + calls("charfun.char_function_colligation"),
                            "count"),
        "extensions.point_spectrum_real.calls": (calls("extensions.point_spectrum_real"), "count"),
        "extensions.point_spectrum_real.total_s": (total_s("extensions.point_spectrum_real"), "s"),
        "extensions.model_pole_locations.total_s":
            (total_s("extensions.model_pole_locations"), "s"),
        "extensions.scan_evals": (counters.get("extensions.scan_evals", 0), "count"),
        "extensions.count_complex_eigenvalues.calls":
            (calls("extensions.count_complex_eigenvalues"), "count"),
        "extensions.contour_samples": (counters.get("extensions.contour_samples", 0), "count"),
        "extensions.negative_count.total_s": (total_s("extensions.negative_count"), "s"),
        "oracle.discretize.calls": (calls("oracle.discretize"), "count"),
        "oracle.discretize.self_s": (self_s("oracle.discretize"), "s"),
        "oracle.eigen_count_below.calls": (calls("oracle.eigen_count_below"), "count"),
        "oracle.eigen_count_below.self_s": (self_s("oracle.eigen_count_below"), "s"),
        "oracle.sturm_rows": (counters.get("oracle.sturm_rows", 0), "count"),
        "oracle.lowest_eigenvalues.calls": (calls("oracle.lowest_eigenvalues"), "count"),
        "problems.parse_problem.self_s": (self_s("problems.parse_problem"), "s"),
        "cli.request.total_s": (request_total_s, "s"),
        "cli.self_s": (cli_self_s, "s"),
    })
    return out


MODEL_KINDS = ("half_line", "finite_interval", "operator_potential_halfline", "strip",
               "corner", "sector", "multi_corner", "radial_schrodinger")
