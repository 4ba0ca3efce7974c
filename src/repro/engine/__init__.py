"""Graph-compiled execution backend (the `repro.engine` package).

Splits the simulator into a frontend (`compile_graph`: lower an
elaborated design into a flat `SimGraph`) and a backend
(`GraphScheduler`: execute it with batched per-cycle updates instead of
per-instruction event-queue traffic), producing byte-identical stats to
the dynamic `RuntimeEngine` — see DESIGN.md, "Graph-compiled engine".

`DEFAULT_ENGINE` is the one place the default backend is named: every
entry point (CLI, `SimContext`, `ParallelSweep`, `StandaloneAccelerator`,
the job server) defaults to it.  `resolve_engine` implements the
documented fallback rules: requests for the graph engine degrade to the
dynamic engine, with a reported reason, whenever a feature the graph
backend does not model is active (cache-backed memory, fault
injection, livelock watchdogs, event budgets, pipeline traces).

Importing this package is cheap: the graph, retime and scheduler names
are re-exported lazily, so reading `ENGINES`/`DEFAULT_ENGINE` (argparse
choices, constructor defaults) never loads the scheduler.
"""

from __future__ import annotations

import importlib
from typing import Optional

ENGINES = ("dynamic", "graph", "retime")

#: The backend every entry point runs unless told otherwise.  The graph
#: engine is byte-identical to the dynamic one and falls back to it on
#: its own (see `resolve_engine`), so it is the safe fast default;
#: ``engine="dynamic"`` opts out.
DEFAULT_ENGINE = "graph"


def resolve_engine(requested: str, acc, max_events: Optional[int] = None,
                   watchdog=None,
                   schedule_trace=None) -> tuple[str, Optional[str]]:
    """Pick the engine that will actually run.

    ``acc`` is a `StandaloneAccelerator`.  Returns ``(engine, reason)``
    where ``reason`` explains a fallback (None when the request is
    honoured).  The checks mirror what the graph backend models;
    anything else must take the dynamic path so behaviour (and error
    reporting) is unchanged.  A watchdog without a livelock budget is
    only a wall-clock deadline, which the graph scheduler enforces
    itself; any other watchdog needs the event queue.

    ``retime`` shares every graph-engine prerequisite (it *is* the
    graph scheduler, consuming captured content), plus one of its own:
    a `ScheduleTrace` must be in hand.  Without one the request
    degrades to a plain graph run — which the caller can capture from,
    so the next memory configuration retimes.
    """
    if requested not in ENGINES:
        raise ValueError(
            f"unknown engine '{requested}'; valid: {', '.join(ENGINES)}"
        )
    if requested == "dynamic":
        return "dynamic", None
    if acc.memory not in ("spm", "ideal"):
        return "dynamic", f"memory='{acc.memory}' is not graph-modelled"
    if (watchdog is not None
            and getattr(watchdog, "livelock_cycles", 0) is not None):
        return "dynamic", "livelock watchdog attached"
    if max_events is not None:
        return "dynamic", "max_events budget requires the event queue"
    if any(getattr(obj, "_finj", None) is not None
           for obj in acc.system.objects.values()):
        return "dynamic", "fault injection active"
    if any(getattr(obj, "_san", None) is not None
           for obj in acc.system.objects.values()):
        return "dynamic", "access sanitizer attached"
    if acc.unit.engine.pipeline_trace is not None:
        return "dynamic", "pipeline trace attached"
    if acc.unit.comm.memctrl.strict_ranges:
        return "dynamic", "strictly-ordered memory regions"
    if requested == "retime":
        if schedule_trace is None:
            return "graph", "no schedule trace captured for this datapath"
        return "retime", None
    return "graph", None


#: Lazily re-exported name -> defining submodule.
_LAZY = {
    "GRAPH_FORMAT_VERSION": "graph",
    "GraphLoweringError": "graph",
    "SimGraph": "graph",
    "compile_graph": "graph",
    "graph_key": "graph",
    "TRACE_COUNTERS": "retime",
    "RetimeError": "retime",
    "ScheduleTrace": "retime",
    "TraceCapture": "retime",
    "trace_cache_key": "retime",
    "GraphScheduler": "scheduler",
}


def __getattr__(name: str):
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value


__all__ = ["DEFAULT_ENGINE", "ENGINES", "resolve_engine", *sorted(_LAZY)]
