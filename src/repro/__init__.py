"""repro: a Python reproduction of gem5-SALAM (MICRO 2020).

LLVM-based pre-RTL modeling and simulation of custom hardware
accelerators: compile a C kernel to SSA IR, statically elaborate it
into a datapath (CDFG + functional units + registers), then execute it
cycle by cycle inside an event-driven full-system simulation with
scratchpads, caches, DMAs, stream buffers, and a host driver agent.

Quick start::

    from repro import StandaloneAccelerator
    import numpy as np

    SRC = '''
    void vecadd(double a[64], double b[64], double c[64]) {
      for (int i = 0; i < 64; i++) { c[i] = a[i] + b[i]; }
    }
    '''
    acc = StandaloneAccelerator(SRC, "vecadd", memory="spm", spm_bytes=1 << 14)
    a, b = np.arange(64.0), np.ones(64)
    pa, pb, pc = acc.alloc_array(a), acc.alloc_array(b), acc.alloc(512)
    result = acc.run([pa, pb, pc])
    print(result.cycles, result.power.total_mw)

See DESIGN.md for the system inventory and EXPERIMENTS.md for the
paper-experiment index.
"""

import importlib

__version__ = "1.1.0"

#: Public name -> defining module.  Each is imported on first access
#: (PEP 562), so ``import repro`` stays cheap: no numpy, no scheduler,
#: no server until a caller touches a name that needs them.
_EXPORTS = {
    "AnalysisReport": "repro.analysis",
    "Diagnostic": "repro.analysis",
    "PassDivergenceError": "repro.analysis",
    "Severity": "repro.analysis",
    "dependence_report": "repro.analysis",
    "lint_module": "repro.analysis",
    "lint_system": "repro.analysis",
    "Artifact": "repro.build",
    "ArtifactStore": "repro.build",
    "BuildPipeline": "repro.build",
    "ElaboratedDesign": "repro.build",
    "PipelineSpec": "repro.build",
    "build_design": "repro.build",
    "build_module": "repro.build",
    "DeviceConfig": "repro.core.config",
    "ComputeUnit": "repro.core.compute_unit",
    "AcceleratorCluster": "repro.core.cluster",
    "compile_c": "repro.frontend",
    "default_profile": "repro.hw.default_profile",
    "StandaloneAccelerator": "repro.system.soc",
    "RunResult": "repro.system.soc",
    "SimContext": "repro.exec",
    "Simulation": "repro.exec",
    "ParallelSweep": "repro.exec",
    "RunCache": "repro.exec",
    "FailureRecord": "repro.exec",
    "SweepPointError": "repro.exec",
    "FaultPlan": "repro.faults",
    "SimWatchdog": "repro.faults",
    "SimulationHang": "repro.faults",
    "SoC": "repro.system.soc",
    "build_soc": "repro.system.soc",
    "JobServer": "repro.serve",
    "ServeClient": "repro.serve",
    "start_server_thread": "repro.serve",
    "TraceConfig": "repro.trace",
    "TraceHub": "repro.trace",
    "get_workload": "repro.workloads",
    "all_workload_names": "repro.workloads",
}

__all__ = [*_EXPORTS, "__version__"]


def __getattr__(name: str):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(module), name)
    globals()[name] = value
    return value


def __dir__() -> list:
    return sorted(set(globals()) | set(__all__))
