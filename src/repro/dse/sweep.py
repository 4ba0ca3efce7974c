"""Parameter sweeps over accelerator configurations.

The paper's DSE flow (Fig. 13-15) is a bash loop over device configs;
`sweep` is the equivalent harness: it builds a fresh standalone
accelerator per parameter point, runs the same staged workload, and
collects (config, cycles, power, occupancy) records.

The heavy lifting lives in `repro.exec.parallel.ParallelSweep`; the
``sweep()`` signature below is the stable, deprecation-shim entry point
(now with optional ``workers``/``cache`` pass-throughs).
"""

from __future__ import annotations

from typing import Callable, Iterable, Optional

from repro.engine import DEFAULT_ENGINE
from repro.exec.cache import RunCache
from repro.exec.parallel import ParallelSweep, SweepPoint, grid_points
from repro.workloads.base import Workload

__all__ = ["SweepPoint", "sweep", "grid_points", "ParallelSweep"]


def sweep(
    workload: Workload,
    param_grid: dict[str, Iterable],
    configure: Callable[[dict], dict],
    seed: int = 7,
    verify: bool = True,
    unroll_factor: int = 1,
    workers: int = 1,
    cache: Optional[RunCache] = None,
    point_timeout: Optional[float] = None,
    retries: int = 0,
    strict: bool = False,
    faults=None,
    watchdog=None,
    artifact_store=None,
    pipeline=None,
    engine: str = DEFAULT_ENGINE,
    retime: bool = False,
    on_point=None,
    checkpoint=None,
) -> list[SweepPoint]:
    """Run ``workload`` across the cartesian product of ``param_grid``.

    ``configure(params)`` maps one parameter point to the keyword
    arguments of `StandaloneAccelerator` (it may include a 'config'
    DeviceConfig).  Every point runs the same dataset (same seed), so
    differences are purely architectural.

    ``workers=N`` fans the grid out across processes; ``cache`` reuses
    results for already-seen configuration points.  Both default to the
    historical serial, uncached behaviour.  The robustness knobs
    (``point_timeout``, ``retries``, ``strict``, ``faults``,
    ``watchdog``) and the build knobs (``artifact_store``,
    ``pipeline`` — see `repro.build`) forward to `ParallelSweep`
    unchanged, as does the execution backend choice (``engine`` — see
    `repro.engine`), the ``on_point(done, total, point)`` progress
    callback, and ``checkpoint`` — a JSONL path recording completed
    points so an interrupted sweep resumes instead of restarting (see
    `repro.exec.checkpoint.SweepCheckpoint`).

    ``retime=True`` turns on incremental re-simulation: points sharing a
    datapath key run one full graph simulation (capturing a
    `ScheduleTrace`) and the rest are re-timed against their memory
    configuration — byte-identical results at a fraction of the cost for
    memory-only grids (see `repro.engine.retime`).
    """
    executor = ParallelSweep(workers=workers, cache=cache, verify=verify,
                             point_timeout=point_timeout, retries=retries,
                             strict=strict, faults=faults, watchdog=watchdog,
                             artifact_store=artifact_store, pipeline=pipeline,
                             engine=engine, retime=retime,
                             checkpoint=checkpoint)
    return executor.run(workload, param_grid, configure, seed=seed,
                        unroll_factor=unroll_factor, on_point=on_point)
