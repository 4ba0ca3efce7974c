"""Design-space exploration harness (Sec. IV-D).

Sweeps run through `repro.exec.ParallelSweep` (re-exported here with
its `SweepPoint` rows and `grid_points` expansion); this package adds
the Pareto front and the report formats.
"""

from repro.dse.pareto import pareto_front
from repro.dse.reports import format_table, to_csv, to_json
from repro.exec.cache import RunCache
from repro.exec.parallel import ParallelSweep, SweepPoint, grid_points

__all__ = [
    "SweepPoint",
    "grid_points",
    "ParallelSweep",
    "RunCache",
    "pareto_front",
    "format_table",
    "to_csv",
    "to_json",
]
