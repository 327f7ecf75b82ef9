"""Spans recorded around the public functions of quartercast's modules.

The traced run replaces each public function of a measured module, at
every module attribute that refers to it, with a wrapper that records a
span: name, start, end, parent span and run id.  Callers that look a
function up by name (``features.auto_select``, ``quartercast.backtest``) or
import it lazily (``from .arima import auto_select`` inside a function)
therefore all reach the wrapper.  Nothing inside the program changes, and
``Tracer.uninstall`` puts every original back.

Spans stay in memory until the run ends.  A span's self time is its
duration minus the part of it that its child spans cover.
"""

from __future__ import annotations

import importlib
import inspect
import json
import math
import os
import pkgutil
import threading
import time
from dataclasses import dataclass, field

# The measured modules.  synth runs only in set-up; fiscal, series and
# metrics are small helpers called inside these; cli adds only its import.
LAYERS = ("pipeline", "features", "arima", "ets", "stl", "_optim", "forest", "io")


@dataclass(slots=True)
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    run: str
    error: str | None = None
    attrs: dict = field(default_factory=dict)


class Recorder:
    """In-memory span list with the stack of open spans.

    Only calls made on the thread that created the recorder are recorded.
    A call made on another thread (the forest's tree-building pool) has no
    open span to name as its parent there, so it runs untraced and its time
    stays inside the span of the call that started the thread.
    """

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._thread = threading.get_ident()

    def call(self, name, fn, args, kwargs, hook=None):
        """Run ``fn`` inside a span; ``hook(index, span, result)`` runs after it ends."""
        if threading.get_ident() != self._thread:
            return fn(*args, **kwargs)
        stack = self._stack
        span = Span(name, 0.0, 0.0, stack[-1] if stack else None, self.run_id)
        index = len(self.spans)
        self.spans.append(span)
        stack.append(index)
        span.start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        except BaseException as exc:
            span.error = type(exc).__name__
            raise
        finally:
            span.end = time.perf_counter()
            stack.pop()
        if hook is not None:
            hook(index, span, result)
        return result

    def rollup(self, name: str, parent: int, total_s: float, calls: int) -> None:
        """One span standing for many short calls made inside ``parent``.

        Its duration is their total time and it starts where its parent
        starts, so it covers exactly that much of the parent.
        """
        start = self.spans[parent].start
        self.spans.append(Span(name, start, start + total_s, parent, self.run_id, attrs={"calls": calls}))


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the union of its children's intervals."""
    children: list[list[int]] = [[] for _ in spans]
    for i, span in enumerate(spans):
        if span.parent is not None:
            children[span.parent].append(i)
    out = []
    for span, kids in zip(spans, children):
        intervals = sorted(
            (max(spans[k].start, span.start), min(spans[k].end, span.end)) for k in kids
        )
        covered = 0.0
        reach = span.start
        for lo, hi in intervals:
            if hi > reach:
                covered += hi - max(lo, reach)
                reach = hi
        out.append((span.end - span.start) - covered)
    return out


def write_spans(spans: list[Span], path) -> None:
    """One JSON object per line: index, name, start, end, parent, run, error, attrs."""
    with open(path, "w", encoding="utf-8") as fh:
        for index, s in enumerate(spans):
            fh.write(json.dumps({
                "index": index, "name": s.name, "start": s.start, "end": s.end,
                "parent": s.parent, "run": s.run, "error": s.error, "attrs": s.attrs,
            }) + "\n")


def _modules():
    import quartercast

    mods = [quartercast]
    for info in pkgutil.iter_modules(quartercast.__path__):
        mods.append(importlib.import_module(f"quartercast.{info.name}"))
    return mods


class Tracer:
    """Installs span-recording wrappers into quartercast and removes them."""

    def __init__(self, recorder: Recorder):
        self.recorder = recorder
        self._patched: list[tuple[object, str, object]] = []

    def install(self) -> None:
        mods = _modules()
        by_name = {m.__name__: m for m in mods}
        for layer in LAYERS:
            module = by_name[f"quartercast.{layer}"]
            for attr, obj in list(vars(module).items()):
                if attr.startswith("_") or not inspect.isfunction(obj):
                    continue
                if obj.__module__ != module.__name__:
                    continue
                for holder in mods:
                    for name, value in list(vars(holder).items()):
                        if value is obj:
                            self._set(holder, name, self._wrap(layer, attr, obj, holder))
        cache = by_name["quartercast.features"].ForecastCache
        self._set(cache, "get", self._wrap_method("features.cache.get", cache.get, _cache_get_hook))
        self._set(cache, "put", self._wrap_method("features.cache.put", cache.put, None))

    def uninstall(self) -> None:
        for holder, name, original in reversed(self._patched):
            setattr(holder, name, original)
        self._patched.clear()

    def _set(self, holder, name, wrapper) -> None:
        self._patched.append((holder, name, getattr(holder, name)))
        setattr(holder, name, wrapper)

    def _wrap_method(self, span_name, original, hook):
        recorder = self.recorder

        def wrapper(self_, *args, **kwargs):
            return recorder.call(span_name, original, (self_, *args), kwargs, hook)

        return wrapper

    def _wrap(self, layer, attr, original, holder):
        recorder = self.recorder
        if attr == "nelder_mead":
            caller = holder.__name__.rsplit(".", 1)[-1]
            return _wrap_nelder_mead(recorder, caller, original)
        span_name = f"{layer}.{attr}"
        hook = _HOOKS.get(span_name)
        signature = inspect.signature(original) if hook is not None else None

        def wrapper(*args, **kwargs):
            if hook is None:
                return recorder.call(span_name, original, args, kwargs)
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            return recorder.call(
                span_name, original, args, kwargs,
                lambda index, span, result: hook(span, bound.arguments, result),
            )

        wrapper.__wrapped__ = original
        return wrapper


def _wrap_nelder_mead(recorder, caller, original):
    """Span per optimizer call; objective evaluations roll up under the caller's layer.

    The objective is a closure of the calling module (``arima.fit_arima`` or
    ``ets.fit_ets``), so its time belongs to that layer, not to ``_optim``.
    """
    signature = inspect.signature(original)
    span_name = f"_optim.nelder_mead.{caller}"
    objective_name = f"{caller}.objective"

    def wrapper(f, *args, **kwargs):
        calls = 0
        total = 0.0

        def timed(x):
            nonlocal calls, total
            t0 = time.perf_counter()
            try:
                return f(x)
            finally:
                total += time.perf_counter() - t0
                calls += 1

        bound = signature.bind(timed, *args, **kwargs)
        bound.apply_defaults()

        def hook(index, span, result):
            span.attrs["iterations"] = result[2]
            span.attrs["cap_hit"] = result[2] >= bound.arguments["maxiter"]
            recorder.rollup(objective_name, index, total, calls)

        return recorder.call(span_name, original, (timed, *args), kwargs, hook)

    wrapper.__wrapped__ = original
    return wrapper


def _cache_get_hook(index, span, result):
    span.attrs["hit"] = result is not None


def _train_forest_hook(span, arguments, result):
    from quartercast.forest import resolve_threads

    resolve = getattr(resolve_threads, "__wrapped__", resolve_threads)
    span.attrs["trees"] = arguments["params"].n_trees
    span.attrs["workers"] = resolve(arguments["n_threads"])


def _to_json_hook(span, arguments, result):
    span.attrs["bytes"] = len(result.encode("utf-8"))


def _write_report_hook(span, arguments, result):
    span.attrs["bytes"] = os.path.getsize(arguments["path"])


_HOOKS = {
    "forest.train_forest": _train_forest_hook,
    "forest.forest_to_json": _to_json_hook,
    "io.write_report": _write_report_hook,
}


@dataclass
class NameStats:
    calls: int = 0
    failed: int = 0
    total_s: float = 0.0
    self_s: float = 0.0
    durations: list = field(default_factory=list)
    attrs: dict = field(default_factory=dict)


def summarize(spans: list[Span]) -> dict[str, NameStats]:
    """Per span name: calls, failures, total and self time, durations, summed attrs."""
    stats: dict[str, NameStats] = {}
    for span, own in zip(spans, self_times(spans)):
        s = stats.setdefault(span.name, NameStats())
        s.calls += span.attrs.get("calls", 1)
        s.failed += span.error is not None
        s.total_s += span.end - span.start
        s.self_s += own
        s.durations.append(span.end - span.start)
        for key, value in span.attrs.items():
            if key != "calls":
                s.attrs[key] = s.attrs.get(key, 0) + value
    return stats


def _percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile; 0 for no samples."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def layer_metrics(spans: list[Span], traced_wall_s: float, untraced_wall_s: float) -> dict:
    """The per-layer metrics of one traced job, as name -> (value, unit)."""
    stats = summarize(spans)
    empty = NameStats()

    def st(name):
        return stats.get(name, empty)

    get = st("features.cache.get")
    train = st("forest.train_forest")
    predict = st("forest.predict_forest")
    out = {}
    for name in ("arima.auto_select", "ets.auto_select_ets", "stl.stlf_forecast",
                 "pipeline.model1_forecast", "features.extend_indicators",
                 "forest.train_forest", "forest.predict_forest"):
        out[f"{name}.calls"] = (st(name).calls, "count")
    for name in ("arima.fit_arima", "ets.fit_ets"):
        out[f"{name}.calls"] = (st(name).calls, "count")
        out[f"{name}.failed"] = (st(name).failed, "count")
    for name in ("arima.objective", "ets.objective"):
        out[f"{name}.calls"] = (st(name).calls, "count")
        out[f"{name}.s"] = (st(name).total_s, "s")
    for name in ("arima.auto_select", "arima.fit_arima", "arima.forecast_arima",
                 "ets.auto_select_ets", "ets.fit_ets", "stl.stlf_forecast",
                 "features.build_training_matrix", "features.extend_indicators",
                 "forest.train_forest", "forest.predict_forest", "pipeline.model1_forecast",
                 "pipeline.backtest", "pipeline.final_origin_forecasts"):
        out[f"{name}.self_s"] = (st(name).self_s, "s")
    for caller in ("arima", "ets"):
        nm = st(f"_optim.nelder_mead.{caller}")
        out[f"_optim.nelder_mead.{caller}.calls"] = (nm.calls, "count")
        out[f"_optim.nelder_mead.{caller}.iters"] = (nm.attrs.get("iterations", 0), "count")
        out[f"_optim.nelder_mead.{caller}.cap_hits"] = (nm.attrs.get("cap_hit", 0), "count")
        out[f"_optim.nelder_mead.{caller}.self_s"] = (nm.self_s, "s")
    hits = get.attrs.get("hit", 0)
    out["features.cache.requests"] = (get.calls, "count")
    out["features.cache.hits"] = (hits, "count")
    out["features.cache.hit_ratio"] = (hits / get.calls if get.calls else 0.0, "ratio")
    out["features.windows_fit"] = (st("features.cache.put").calls, "count")
    build_row = st("features.build_row")
    out["features.rows_built"] = (build_row.calls - build_row.failed, "count")
    out["forest.trees_built"] = (train.attrs.get("trees", 0), "count")
    out["forest.workers"] = (
        train.attrs.get("workers", 0) // train.calls if train.calls else 0, "count"
    )
    out["forest.predict_forest.p50_us"] = (_percentile(predict.durations, 0.5) * 1e6, "us")
    out["forest.predict_forest.p90_us"] = (_percentile(predict.durations, 0.9) * 1e6, "us")
    out["forest.to_json.s"] = (st("forest.forest_to_json").total_s, "s")
    out["forest.to_json.bytes"] = (st("forest.forest_to_json").attrs.get("bytes", 0), "bytes")
    out["forest.from_json.s"] = (st("forest.forest_from_json").total_s, "s")
    out["pipeline.compare_reports.s"] = (st("pipeline.compare_reports").total_s, "s")
    for name in ("load_revenue_csv", "load_indicator_csv", "write_report", "read_report"):
        out[f"io.{name}.s"] = (st(f"io.{name}").total_s, "s")
    out["io.write_report.bytes"] = (st("io.write_report").attrs.get("bytes", 0), "bytes")
    for layer in LAYERS:
        own = sum(s.self_s for name, s in stats.items() if name.split(".", 1)[0] == layer)
        out[f"layer.{layer}.self_s"] = (own, "s")
    out["trace.wall_s"] = (traced_wall_s, "s")
    out["trace.overhead_s"] = (traced_wall_s - untraced_wall_s, "s")
    out["trace.spans"] = (len(spans), "count")
    out["env.nproc"] = (os.cpu_count() or 1, "count")
    return out
