"""Spans around the public calls of ``poisson_chaos``, recorded from outside.

The package is treated as a black box: :func:`install` replaces public
functions and methods with thin wrappers in every ``poisson_chaos``
module namespace that bound them (``suites/common.py`` imports
``sample_poisson_counts`` directly, for example), so no file under
``src/`` changes.  Each wrapper records one span: layer, function,
start, end, parent span, thread and a work count.  Spans stay in memory
and are written out once the run ends.

Monte Carlo batches run in ``mc_estimate``'s thread pool, so the batch
callable handed to ``mc_estimate`` is wrapped too: each batch span
records its worker thread and takes as parent the ``mc_estimate`` span
that submitted it, and library spans opened inside the batch nest under
it through a per-thread span stack.
"""

from __future__ import annotations

import functools
import gzip
import itertools
import json
import sys
import threading
from collections import defaultdict
from time import perf_counter

# (module, attribute, layer, work) for plain functions; ``work`` maps
# (args, result) to the work count recorded on the span.
_ROWS = lambda args, result: int(result.shape[0])  # noqa: E731
_CELLS = lambda args, result: int(result.size)  # noqa: E731
_NONE = lambda args, result: 0  # noqa: E731

FUNCTIONS = [
    ("rng", "stream_uniforms", "rng", _CELLS),
    ("patterns", "poisson_counts_with_uniforms", "poisson", _CELLS),
    ("patterns", "sample_poisson_counts", "poisson", _CELLS),
    ("patterns", "thin_counts_with_uniforms", "thin", _CELLS),
    ("patterns", "thin_counts", "thin", _CELLS),
    ("patterns", "factorial_counts", "factorial", _ROWS),
    ("functionals", "difference_counts", "diff", _ROWS),
    ("functionals", "iterated_difference_counts", "diff", _ROWS),
    ("malliavin", "ou_generator_counts", "malliavin", _NONE),
    ("malliavin", "skorohod_counts", "malliavin", _NONE),
    ("malliavin", "ou_semigroup_mc", "malliavin", _NONE),
    ("malliavin", "ou_inverse_quadrature", "malliavin", _NONE),
    ("malliavin", "semigroup_closed_form", "malliavin", _NONE),
    ("wiener_ito", "wiener_ito", "wi_scalar", _NONE),
    ("wiener_ito", "chaos_reconstruct", "wi_scalar", _NONE),
    ("wiener_ito", "chaos_finite_sum", "wi_scalar", _NONE),
    ("wiener_ito", "product_formula_rhs", "wi_scalar", _NONE),
    ("wiener_ito", "wiener_ito_counts", "wi_counts", _ROWS),
    ("wiener_ito", "chaos_reconstruct_counts", "wi_counts", _ROWS),
    ("space", "contraction", "space", _NONE),
    ("space", "symmetrize", "space", _NONE),
    ("space", "tensor", "space", _NONE),
    ("space", "tensor_power", "space", _NONE),
    ("space", "integrate", "space", _NONE),
    ("space", "inner_product", "space", _NONE),
    ("config", "load_config", "config", _NONE),
    ("report", "render_csv", "render", lambda args, result: len(result.encode())),
    ("report", "render_jsonl", "render", lambda args, result: len(result.encode())),
]


class Span:
    __slots__ = ("id", "parent", "thread", "layer", "fn", "start", "end", "work")

    def __init__(self, span_id, parent, thread, layer, fn, start):
        self.id = span_id
        self.parent = parent
        self.thread = thread
        self.layer = layer
        self.fn = fn
        self.start = start
        self.end = start
        self.work = 0

    def as_list(self) -> list:
        return [self.id, self.parent, self.thread, self.layer, self.fn,
                self.start, self.end, self.work]


class Tracer:
    """In-memory span recorder with one open-span stack per thread."""

    def __init__(self):
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, layer: str, fn: str, parent: int | None = None) -> Span:
        stack = self._stack()
        if parent is None:
            parent = stack[-1].id if stack else 0
        span = Span(next(self._ids), parent, threading.get_ident(), layer, fn,
                    perf_counter())
        stack.append(span)
        return span

    def end(self, span: Span, work: int = 0) -> None:
        span.end = perf_counter()
        span.work = work
        self._stack().pop()
        self.spans.append(span)

    def write(self, path) -> None:
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write(json.dumps(["id", "parent", "thread", "layer", "fn",
                                 "start", "end", "work"]) + "\n")
            for span in self.spans:
                fh.write(json.dumps(span.as_list()) + "\n")


# ---------------------------------------------------------------------------
# installing the wrappers


def _rebind(original, replacement) -> None:
    """Point every ``poisson_chaos`` module name bound to ``original`` at
    ``replacement``."""
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "poisson_chaos"
                                  or name.startswith("poisson_chaos.")):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)


def _wrap(tracer: Tracer, fn, layer: str, work):
    name = fn.__qualname__

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        span = tracer.begin(layer, name)
        count = 0
        try:
            result = fn(*args, **kwargs)
            count = work(args, result)
            return result
        finally:
            tracer.end(span, count)

    return traced


def _wrap_mc_estimate(tracer: Tracer, fn):
    @functools.wraps(fn)
    def traced(plan, batch_values):
        span = tracer.begin("mc", "mc_estimate")
        owner = getattr(batch_values, "__module__", "") or ""
        layer = "suite_batch" if owner.startswith("poisson_chaos.suites") else "batch"

        def traced_batch(streams, start):
            batch = tracer.begin(layer, getattr(batch_values, "__qualname__", "batch"),
                                 parent=span.id)
            try:
                return batch_values(streams, start)
            finally:
                tracer.end(batch, int(len(streams)))

        try:
            return fn(plan, traced_batch)
        finally:
            tracer.end(span, int(plan.replicates))

    return traced


def _wrap_generator(tracer: Tracer, fn, layer: str):
    """One span per item drawn, so only time inside the generator counts."""

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        inner = fn(*args, **kwargs)

        def drive():
            while True:
                span = tracer.begin(layer, fn.__qualname__)
                try:
                    item = next(inner)
                except StopIteration:
                    tracer.end(span, 0)
                    return
                except BaseException:
                    tracer.end(span, 0)
                    raise
                tracer.end(span, 1)
                yield item

        return drive()

    return traced


def _wrap_run_suite(tracer: Tracer, fn):
    @functools.wraps(fn)
    def traced(name, config):
        span = tracer.begin("suite", str(name))
        try:
            return fn(name, config)
        finally:
            tracer.end(span)

    return traced


def _wrap_enumeration_get(tracer: Tracer, fn):
    """``PoissonEnumeration.get``: a result not seen before was built."""
    seen: set[int] = set()

    @functools.wraps(fn)
    def traced(cls, space, budget):
        span = tracer.begin("enum", "PoissonEnumeration.get")
        states = 0
        try:
            found = fn(cls, space, budget)
            if id(found) not in seen:
                seen.add(id(found))
                span.fn = "PoissonEnumeration.get:build"
                states = int(len(found.counts))
            return found
        finally:
            tracer.end(span, states)

    return traced


def _subclasses(cls) -> list[type]:
    out = [cls]
    for sub in cls.__subclasses__():
        out.extend(_subclasses(sub))
    return out


def install(tracer: Tracer) -> None:
    """Wrap every traced public call in every module that bound it."""
    import importlib

    importlib.import_module("poisson_chaos.cli")  # loads every package module
    pc = importlib.import_module("poisson_chaos")
    estimation = importlib.import_module("poisson_chaos.estimation")
    suites = importlib.import_module("poisson_chaos.suites")
    wiener_ito = importlib.import_module("poisson_chaos.wiener_ito")

    for module_name, attr, layer, work in FUNCTIONS:
        module = importlib.import_module(f"poisson_chaos.{module_name}")
        original = getattr(module, attr)
        _rebind(original, _wrap(tracer, original, layer, work))

    _rebind(estimation.mc_estimate, _wrap_mc_estimate(tracer, estimation.mc_estimate))
    _rebind(wiener_ito.patterns_up_to,
            _wrap_generator(tracer, wiener_ito.patterns_up_to, "scan"))
    _rebind(suites.run_suite, _wrap_run_suite(tracer, suites.run_suite))

    enum_cls = estimation.PoissonEnumeration
    enum_cls.get = classmethod(_wrap_enumeration_get(tracer, enum_cls.__dict__["get"].__func__))
    budget_cls = estimation.OracleBudget
    budget_cls.for_space = staticmethod(
        _wrap(tracer, budget_cls.__dict__["for_space"].__func__, "budget", _NONE))

    for cls in _subclasses(pc.Functional):
        method = cls.__dict__.get("evaluate_counts")
        if method is not None:
            cls.evaluate_counts = _wrap(tracer, method, "eval",
                                        lambda args, result: int(len(result)))


# ---------------------------------------------------------------------------
# per-layer metrics


def _covered(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of [lo, hi] covered by the union of the intervals."""
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted(intervals):
        a, b = max(a, lo), min(b, hi)
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def _rate(count: float, seconds: float) -> float:
    return count / seconds if seconds > 0 else 0.0


def layer_metrics(spans: list[Span], workers: int, suite_names: list[str]) -> dict:
    """Per-layer counts and times from one traced run's spans.

    Work counts come from outermost spans of a layer (a span whose
    parent is in another layer), so nested calls inside one layer are
    not counted twice; self time is a span's duration minus the part of
    it that its child spans cover, summed over every span of a layer.
    """
    by_id = {s.id: s for s in spans}
    children: dict[int, list[Span]] = defaultdict(list)
    for s in spans:
        children[s.parent].append(s)

    def self_time(s: Span) -> float:
        kids = children.get(s.id, ())
        return (s.end - s.start) - _covered([(k.start, k.end) for k in kids],
                                            s.start, s.end)

    def parent_layer(s: Span) -> str | None:
        p = by_id.get(s.parent)
        return p.layer if p is not None else None

    layers: dict[str, list[Span]] = defaultdict(list)
    for s in spans:
        layers[s.layer].append(s)

    def outer(layer: str) -> list[Span]:
        return [s for s in layers.get(layer, ()) if parent_layer(s) != layer]

    def work(layer: str) -> int:
        return sum(s.work for s in outer(layer))

    def span_s(layer: str) -> float:
        return sum(s.end - s.start for s in outer(layer))

    def self_s(*names: str) -> float:
        return sum(self_time(s) for name in names for s in layers.get(name, ()))

    m: dict[str, float] = {}
    m["rng.uniforms"] = work("rng")
    m["rng.busy_s"] = span_s("rng")
    m["rng.uniforms_per_s"] = _rate(m["rng.uniforms"], m["rng.busy_s"])

    m["patterns.poisson_draws"] = work("poisson")
    m["patterns.poisson_self_s"] = self_s("poisson")
    m["patterns.poisson_draws_per_s"] = _rate(m["patterns.poisson_draws"],
                                              m["patterns.poisson_self_s"])
    m["patterns.thin_draws"] = work("thin")
    m["patterns.thin_self_s"] = self_s("thin")
    m["patterns.factorial_rows"] = work("factorial")
    m["patterns.factorial_s"] = span_s("factorial")

    m["functionals.eval_rows"] = work("eval")
    m["functionals.eval_s"] = span_s("eval")
    m["functionals.diff_rows"] = work("diff")
    m["functionals.diff_self_s"] = self_s("diff")
    evals_in_diff = sum(s.work for s in outer("eval") if parent_layer(s) == "diff")
    m["functionals.evals_per_diff_row"] = (evals_in_diff / m["functionals.diff_rows"]
                                           if m["functionals.diff_rows"] else 0.0)

    m["malliavin.calls"] = len(outer("malliavin"))
    m["malliavin.self_s"] = self_s("malliavin")

    m["wiener_ito.scalar_calls"] = len(outer("wi_scalar"))
    m["wiener_ito.scalar_self_s"] = self_s("wi_scalar")
    m["wiener_ito.count_rows"] = work("wi_counts")
    m["wiener_ito.count_self_s"] = self_s("wi_counts")
    m["wiener_ito.patterns_scanned"] = work("scan")
    m["wiener_ito.patterns_per_s"] = _rate(m["wiener_ito.patterns_scanned"],
                                           span_s("scan"))

    m["space.kernel_ops"] = len(outer("space"))
    m["space.self_s"] = self_s("space")

    mc_spans = outer("mc")
    batches = layers.get("batch", []) + layers.get("suite_batch", [])
    mc_s = span_s("mc")
    m["estimation.mc_replicates"] = work("mc")
    m["estimation.mc_batches"] = len(batches)
    m["estimation.mc_s"] = mc_s
    m["estimation.mc_replicates_per_s"] = _rate(m["estimation.mc_replicates"], mc_s)
    m["estimation.mc_wait_s"] = sum(b.start - by_id[b.parent].start for b in batches
                                    if b.parent in by_id)
    m["estimation.mc_reduce_s"] = sum(self_time(s) for s in mc_spans)
    busy = sum(b.end - b.start for b in batches)
    m["estimation.mc_worker_util"] = busy / (mc_s * workers) if mc_s > 0 else 0.0

    gets = layers.get("enum", [])
    builds = [s for s in gets if s.fn.endswith(":build")]
    m["estimation.enum_states"] = sum(s.work for s in builds)
    m["estimation.enum_build_s"] = sum(s.end - s.start for s in builds)
    m["estimation.enum_states_per_s"] = _rate(m["estimation.enum_states"],
                                              m["estimation.enum_build_s"])
    m["estimation.enum_cache_hit_ratio"] = ((len(gets) - len(builds)) / len(gets)
                                            if gets else 0.0)
    m["estimation.budget_s"] = span_s("budget")

    suite_time = defaultdict(float)
    for s in layers.get("suite", []):
        suite_time[s.fn] += s.end - s.start
    for name in suite_names:
        m[f"suites.{name}_s"] = suite_time.get(name, 0.0)
    m["suites.self_s"] = self_s("suite", "suite_batch")

    m["config.load_s"] = span_s("config")
    m["report.render_s"] = span_s("render")
    m["report.bytes"] = work("render")
    m["trace.spans"] = len(spans)
    return m
