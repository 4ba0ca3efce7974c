"""In-memory spans around public `repro` calls, installed from outside.

`install()` wraps a fixed list of class methods (and the few module-level
entry points that callers look up at call time) so that every call
records a span: name, start, end, parent span id, thread and a small
dict of attributes.  Spans stay in memory; `dump()` writes them as JSON
when the process ends.  Nothing here edits the program: the wrappers
are installed by the benchmark process, or by `launcher.py` in a child
process, before the measured work starts.

`layer_table()` turns a list of spans into per-layer totals: each
span's self time is its duration minus the time its direct children
cover.
"""

from __future__ import annotations

import functools
import itertools
import json
import threading
import time

_SPANS: list = []
_IDS = itertools.count(1)
_LOCAL = threading.local()
_INSTALLED = False
#: While False the wrappers call straight through (the untraced rounds
#: of a traced run).
_ENABLED = True


def _stack() -> list:
    stack = getattr(_LOCAL, "stack", None)
    if stack is None:
        stack = _LOCAL.stack = []
    return stack


def _wrap(owner, attr: str, name: str, annotate=None) -> None:
    original = getattr(owner, attr)

    @functools.wraps(original)
    def wrapper(*args, **kwargs):
        if not _ENABLED:
            return original(*args, **kwargs)
        span = open_span(name)
        try:
            result = original(*args, **kwargs)
            if annotate is not None:
                annotate(span["attrs"], args, kwargs, result)
            return result
        except BaseException as exc:
            span["attrs"]["error"] = type(exc).__name__
            raise
        finally:
            close_span(span)

    setattr(owner, attr, wrapper)


def _context_run(attrs, args, kwargs, result) -> None:
    ctx = args[0]
    attrs.update(engine=ctx.engine_used or "", cache_hit=ctx.cache_hit,
                 cycles=0 if ctx.cache_hit else int(result.cycles))


def _scheduler_run(attrs, args, kwargs, result) -> None:
    attrs.update(replay=kwargs.get("replay") is not None,
                 capture=kwargs.get("capture") is not None)


def _hit(attrs, args, kwargs, result) -> None:
    attrs["hit"] = result is not None


def install() -> None:
    """Wrap the public layer boundaries of `repro` (idempotent)."""
    global _INSTALLED
    if _INSTALLED:
        return
    _INSTALLED = True
    import repro.analysis
    import repro.analysis.memdep
    from repro import (
        ArtifactStore,
        BuildPipeline,
        ParallelSweep,
        RunCache,
        RunResult,
        SimContext,
        StandaloneAccelerator,
        all_workload_names,
        get_workload,
    )
    from repro.engine.scheduler import GraphScheduler
    from repro.serve.journal import JobJournal
    from repro.sim.simobject import System

    _wrap(BuildPipeline, "parse", "frontend.parse")
    _wrap(BuildPipeline, "lower", "frontend.lower")
    _wrap(BuildPipeline, "optimize", "passes.optimize")
    _wrap(BuildPipeline, "elaborate", "core.elaborate")
    _wrap(BuildPipeline, "graph", "engine.compile")
    _wrap(StandaloneAccelerator, "__init__", "core.elaborate")
    _wrap(GraphScheduler, "run", "engine.graph.run", _scheduler_run)
    _wrap(System, "run", "sim.dynamic.run")
    _wrap(RunCache, "get", "exec.run_cache.get", _hit)
    _wrap(RunCache, "put", "exec.run_cache.put")
    _wrap(ArtifactStore, "get", "build.store.get", _hit)
    _wrap(ArtifactStore, "put", "build.store.put")
    _wrap(SimContext, "run", "exec.context", _context_run)
    _wrap(ParallelSweep, "run", "exec.sweep")
    _wrap(RunResult, "to_dict", "result.serialize")
    _wrap(JobJournal, "append", "serve.journal.append")
    # Analysis entry points are module functions; `repro.serve` imports
    # them inside the job body, so patching the module attribute is seen.
    _wrap(repro.analysis, "lint_function", "analysis.lint")
    _wrap(repro.analysis, "lint_module", "analysis.lint")
    _wrap(repro.analysis.memdep, "memdep_diagnostics", "analysis.lint")
    # `Workload.make_data` is a per-instance field, not a method.
    for name in all_workload_names():
        workload = get_workload(name)
        _wrap(workload, "make_data", "workloads.make_data")
        _wrap(workload, "stage", "workloads.stage")
        _wrap(workload, "verify", "workloads.verify")


def set_enabled(flag: bool) -> None:
    global _ENABLED
    _ENABLED = flag


def spans() -> list:
    return list(_SPANS)


def dump(path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(_SPANS, fh)


def record(name: str, start: float, end: float) -> None:
    """A span timed by the caller (the launcher's ``import``)."""
    _SPANS.append({"id": next(_IDS), "name": name, "parent": None,
                   "thread": threading.get_ident(), "start": start,
                   "end": end, "attrs": {}})


def open_span(name: str) -> dict:
    stack = _stack()
    span = {"id": next(_IDS), "name": name,
            "parent": stack[-1]["id"] if stack else None,
            "thread": threading.get_ident(),
            "start": time.perf_counter(), "attrs": {}}
    stack.append(span)
    return span


def close_span(span: dict) -> None:
    stack = _stack()
    if stack and stack[-1] is span:
        stack.pop()
    else:
        stack.remove(span)
    span["end"] = time.perf_counter()
    _SPANS.append(span)


def layer_table(span_list: list) -> dict:
    """Per-span-name totals: calls, inclusive and self seconds, plus
    the attribute sums the per-layer metrics need."""
    child_time: dict = {}
    for span in span_list:
        if span["parent"] is not None:
            key = (span.get("proc"), span["parent"])
            child_time[key] = child_time.get(key, 0.0) + span["end"] - span["start"]
    table: dict = {}
    for span in span_list:
        dur = span["end"] - span["start"]
        own = dur - child_time.get((span.get("proc"), span["id"]), 0.0)
        attrs = span["attrs"]
        name = span["name"]
        if name == "engine.graph.run" and attrs.get("replay"):
            name = "engine.retime.replay"
        row = table.setdefault(name, {"calls": 0, "total_s": 0.0,
                                      "self_s": 0.0, "ok_self_s": 0.0,
                                      "hits": 0,
                                      "captures": 0, "cycles": {}})
        row["calls"] += 1
        row["total_s"] += dur
        row["self_s"] += own
        row["ok_self_s"] += 0.0 if "error" in attrs else own
        row["hits"] += 1 if attrs.get("hit") else 0
        row["captures"] += 1 if attrs.get("capture") else 0
        if name == "exec.context" and "cycles" in attrs:
            engine = attrs["engine"]
            row["cycles"][engine] = row["cycles"].get(engine, 0) + attrs["cycles"]
    return table
