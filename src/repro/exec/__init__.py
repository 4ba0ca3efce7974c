"""Unified execution layer: simulation lifecycle, caching, parallel sweeps.

The one place that knows how to take a kernel + configuration to a
`RunResult`: `SimContext` (build → stage → run → collect), `Simulation`
(event-loop execution over a built `System`), `RunCache`
(content-addressed results), and `ParallelSweep` (process-parallel DSE
grids).  `repro.dse`, `repro.system`, the CLI, and the benchmarks all
launch simulations through this layer.
"""

import importlib

#: Public name -> defining module, each imported on first access
#: (PEP 562): a single run never loads the sweep machinery.
_EXPORTS = {
    "RunCache": "repro.exec.cache",
    "run_cache_key": "repro.exec.cache",
    "split_cache_key": "repro.exec.cache",
    "DATAPATH_PARAMS": "repro.exec.params",
    "MEMORY_PARAMS": "repro.exec.params",
    "EXECUTION_PARAMS": "repro.exec.params",
    "classify_param": "repro.exec.params",
    "split_acc_kwargs": "repro.exec.params",
    "SimContext": "repro.exec.context",
    "Simulation": "repro.exec.context",
    "SweepCheckpoint": "repro.exec.checkpoint",
    "FailureRecord": "repro.exec.failures",
    "SweepPointError": "repro.exec.failures",
    "ParallelSweep": "repro.exec.parallel",
    "SweepPoint": "repro.exec.parallel",
    "grid_points": "repro.exec.parallel",
    "RunResult": "repro.system.soc",
}

__all__ = list(_EXPORTS)


def __getattr__(name: str):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(module), name)
    globals()[name] = value
    return value


def __dir__() -> list:
    return sorted(set(globals()) | set(__all__))
