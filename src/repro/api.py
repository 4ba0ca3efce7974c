"""The job spec: one description of a compile, run, sweep or analyze job.

A job spec is the plain JSON-able dict that ``repro serve`` accepts on
the wire (``{"workload": "gemm_dse", "ports": 4, "unroll": 2}``).  The
CLI builds the same dict from its arguments (`spec_from_args`), and
both sides turn it into work through this module, so ``repro run`` and
a served run of the same parameters share one run-cache key by
construction:

* `DEFAULTS` — every spec field's default, written once.  A spec leaves
  out what it does not set, and whoever reads it falls back here.
* `context_kwargs` / `run_key` — a run (or sweep point) spec's
  `StandaloneAccelerator` kwargs and its run-cache key.
* `sweep_grid` — a sweep spec's port grid and per-point kwargs.
* `build`, `lint_kernel`, `analyze`, `analyze_scenario` — the compile
  and static-analysis bodies behind ``repro compile``/``elaborate``/
  ``analyze`` and the server's compile and analyze jobs.

Importing this module is cheap: everything heavier than the engine
name table is imported where it is used.
"""

from __future__ import annotations

from pathlib import Path
from typing import Callable, Optional

from repro.engine import DEFAULT_ENGINE

#: The memory systems a run spec may name.
MEMORY_KINDS = ("spm", "cache", "ideal")

#: Spec field -> default.  ``sweep_ports`` is the default ``ports`` grid
#: of a sweep spec (a run spec's ``ports`` is one number).
DEFAULTS = {
    "seed": 7,
    "ports": 2,
    "sweep_ports": [1, 2, 4, 8],
    "unroll": 1,
    "memory": "spm",
    "spm_bytes": 1 << 16,
    "clock_mhz": 100.0,
    "engine": DEFAULT_ENGINE,
    "verify": True,
}


class SpecError(ValueError):
    """A job spec that cannot be executed (a client error)."""


# ----------------------------------------------------------------------
# CLI arguments -> spec
# ----------------------------------------------------------------------
def read_source(path: str) -> str:
    source_path = Path(path)
    if not source_path.exists():
        raise SystemExit(f"no such file: {path}")
    return source_path.read_text()


def parse_fu_limits(entries: Optional[list]) -> dict[str, int]:
    """``--fu-limit CLASS=N`` entries as a ``{class: limit}`` dict."""
    limits: dict[str, int] = {}
    for entry in entries or []:
        name, __, count = entry.partition("=")
        if not count.isdigit():
            raise SystemExit(f"bad --fu-limit '{entry}' (expected CLASS=N)")
        limits[name] = int(count)
    return limits


def is_scenario(name: str) -> bool:
    """Whether ``name`` names a scenario `analyze_scenario` can lint."""
    from repro.system.cnn_scenarios import SCENARIOS

    return name.startswith("gen:") or name in SCENARIOS


def spec_from_args(args, kind: str, target: str) -> dict:
    """One ``kind`` job spec for ``target`` from parsed ``repro`` arguments.

    ``repro run``, ``sweep`` and ``analyze`` build their work from it and
    ``repro submit`` sends it to the server as is.  The target becomes a
    ``scenario`` (analyze only), a ``workload`` or a kernel file's
    ``source``; an unknown name stays a ``workload`` and fails where the
    spec is read.  Arguments that are unset (None) stay out of the spec.
    """
    from repro.workloads import all_workload_names

    spec: dict = {}
    if target in all_workload_names():
        spec["workload"] = target
    elif kind == "analyze" and is_scenario(target):
        spec["scenario"] = target
    elif not Path(target).exists():
        spec["workload"] = target
    else:
        spec["source"] = read_source(target)
        spec["func"] = getattr(args, "func", None) or Path(target).stem
    for field, dest in (("seed", "seed"), ("unroll", "unroll"),
                        ("backoff_s", "backoff_s"),
                        ("timeout_s", "job_timeout")):
        if getattr(args, dest, None) is not None:
            spec[field] = getattr(args, dest)
    for field in ("passes", "retries"):  # empty or zero means "off"
        if getattr(args, field, None):
            spec[field] = getattr(args, field)
    if kind in ("run", "sweep"):
        for field in ("memory", "engine", "clock_mhz"):
            if getattr(args, field, None) is not None:
                spec[field] = getattr(args, field)
        ports = getattr(args, "ports", None)
        if ports is not None:
            # ``submit run`` runs the first of its ``--ports`` values.
            spec["ports"] = (ports[0] if kind == "run"
                             and isinstance(ports, list) else ports)
        fu_limits = parse_fu_limits(getattr(args, "fu_limit", None))
        if fu_limits:
            spec["fu_limits"] = fu_limits
    return spec


# ----------------------------------------------------------------------
# Spec -> run configuration
# ----------------------------------------------------------------------
def spec_workload(spec: dict):
    from repro.workloads import get_workload

    name = spec.get("workload")
    if not name:
        raise SpecError("spec needs a 'workload' name")
    return get_workload(name)


def spec_seed(spec: dict) -> int:
    return int(spec.get("seed", DEFAULTS["seed"]))


def context_kwargs(spec: dict) -> dict:
    """`StandaloneAccelerator` kwargs of a run spec (or one sweep point)."""
    from repro.core.config import DeviceConfig

    ports = int(spec.get("ports", DEFAULTS["ports"]))
    memory = spec.get("memory", DEFAULTS["memory"])
    if memory not in MEMORY_KINDS:
        raise SpecError(f"bad memory '{memory}' ({'|'.join(MEMORY_KINDS)})")
    config = DeviceConfig(
        clock_freq_hz=float(spec.get("clock_mhz", DEFAULTS["clock_mhz"])) * 1e6,
        read_ports=ports,
        write_ports=max(1, ports // 2),
        fu_limits={str(k): int(v)
                   for k, v in (spec.get("fu_limits") or {}).items()},
    )
    kwargs = dict(config=config, memory=memory,
                  unroll_factor=int(spec.get("unroll", DEFAULTS["unroll"])))
    if memory in ("spm", "ideal"):
        spm_bytes = spec.get("spm_bytes", DEFAULTS["spm_bytes"])
        kwargs.update(spm_bytes=int(spm_bytes), spm_read_ports=ports)
    return kwargs


def run_key(spec: dict) -> str:
    """The run-cache key of a run spec (its job dedup key is ``run:<key>``)."""
    from repro.exec.cache import run_cache_key

    workload = spec_workload(spec)
    return run_cache_key(workload.source, workload.func_name,
                         seed=spec_seed(spec), **context_kwargs(spec))


def sweep_grid(spec: dict) -> tuple[dict, Callable[[dict], dict]]:
    """``(param_grid, configure)`` of a sweep spec: its port grid, and
    each point's `context_kwargs` (the spec with the point's ports)."""
    ports = [int(p) for p in spec.get("ports", DEFAULTS["sweep_ports"])]
    return {"ports": ports}, lambda params: context_kwargs(dict(spec, **params))


# ----------------------------------------------------------------------
# Compile and analyze bodies
# ----------------------------------------------------------------------
def _kernel(spec: dict) -> tuple:
    """``(source, module name, workload or None)`` of a spec's kernel."""
    if spec.get("source"):
        return spec["source"], spec.get("func", "module"), None
    workload = spec_workload(spec)
    return workload.source, workload.func_name, workload


def build(spec: dict, store=None, **build_kwargs):
    """Compile a spec's kernel to an opt-IR `Artifact`.

    ``build_kwargs`` are the CLI-only `build_module` knobs (``optimize``,
    ``opt_level``, ``verify_each``).
    """
    from repro.build import build_module

    source, name, _ = _kernel(spec)
    unroll = int(spec.get("unroll", DEFAULTS["unroll"]))
    return build_module(source, name, pipeline=spec.get("passes"),
                        unroll_factor=unroll, store=store, **build_kwargs)


def lint_kernel(label: str, module, func: Optional[str] = None,
                spm_bytes: Optional[int] = None):
    """IR lints and the memory-dependence report of one compiled module,
    plus a footprint check against an ``spm_bytes`` scratchpad."""
    from repro.analysis import AnalysisReport, lint_function
    from repro.analysis.memdep import memdep_diagnostics

    report = AnalysisReport(subject=label)
    func_names = [f.name for f in module
                  if f.blocks and (not func or f.name == func)]
    for func_name in func_names:
        function = module.functions[func_name]
        lint_function(function, module, report=report)
        report.extend(memdep_diagnostics(function))
    if spm_bytes:
        from repro.analysis.syslint import (
            MemRegion,
            SystemDescription,
            footprints_from_module,
            lint_system,
        )

        desc = SystemDescription(
            regions=[MemRegion("spm", "spm", 0x2000_0000, spm_bytes)])
        for func_name in func_names:
            desc.kernels.extend(
                footprints_from_module(module, func_name, region="spm"))
        report.extend(lint_system(desc))
    return report


def analyze(spec: dict, store=None, func: Optional[str] = None,
            spm_bytes: Optional[int] = None, **build_kwargs):
    """The static-analysis report of an analyze spec.

    A scenario spec gets `analyze_scenario`; a kernel is compiled and
    linted (`lint_kernel`).  A workload without an ``unroll`` is built
    at the workload's own default unroll factor.
    """
    if spec.get("scenario"):
        return analyze_scenario(spec["scenario"])
    _, name, workload = _kernel(spec)
    if workload is not None and "unroll" not in spec:
        spec = dict(spec, unroll=workload.default_unroll)
    artifact = build(spec, store, **build_kwargs)
    label = workload.name if workload is not None else name
    return lint_kernel(label, artifact.module, func=func, spm_bytes=spm_bytes)


def analyze_scenario(name: str):
    """System-level (SYS301-306) report for one scenario.

    ``gen:SEED[:racy]`` forms lint the generated scenario *statically*
    from its plan; named CNN scenarios run once and are linted from the
    recorded host/accelerator logs.
    """
    if name.startswith("gen:"):
        from repro.system import scenario_gen

        gen_spec = scenario_gen.parse_gen_spec(name)
        report = scenario_gen.build(gen_spec).static_report()
        report.subject = gen_spec.name
        return report
    from repro.system.cnn_scenarios import SCENARIOS

    runner = SCENARIOS.get(name)
    if runner is None:
        raise ValueError(
            f"unknown scenario '{name}' "
            f"(choose from {', '.join(sorted(SCENARIOS))}, or gen:SEED[:racy])")
    report = runner().soc.lint()
    report.subject = name
    return report
