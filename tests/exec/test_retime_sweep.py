"""Retime mode of ParallelSweep: grouped capture + replay over a grid.

A retimed sweep must be indistinguishable from a full one in its rows
(byte-identical results) and fully distinguishable in its provenance
(engine_used / retimed columns, trace counters, datapath grouping) —
with automatic full-simulation fallback for points retiming cannot
soundly serve.
"""

import json

from repro.core.config import DeviceConfig
import repro.dse
from repro.engine import DEFAULT_ENGINE
from repro.exec.parallel import ParallelSweep
from repro.workloads import get_workload

GEMM_DSE = get_workload("gemm_dse")
GRID = {"ports": [1, 2, 4]}


def _configure(params):
    p = params["ports"]
    return dict(config=DeviceConfig(read_ports=p,
                                    write_ports=max(1, p // 2)),
                memory="spm", spm_bytes=1 << 16, spm_read_ports=p)


def _rows(points):
    return json.dumps([p.result.to_dict() for p in points], sort_keys=True)


def test_retimed_sweep_rows_match_full_simulation():
    full = ParallelSweep(verify=False, engine="graph").run(
        GEMM_DSE, GRID, _configure)
    executor = ParallelSweep(verify=False, retime=True)
    retimed = executor.run(GEMM_DSE, GRID, _configure)
    assert _rows(retimed) == _rows(full)
    # One datapath group: the first point captures, the rest replay.
    assert executor.datapath_groups == 1
    assert executor.trace_captures == 1
    assert executor.trace_hits == 2 and executor.trace_misses == 1
    assert executor.retimed_points == 2
    assert [p.retimed for p in retimed] == [False, True, True]
    assert retimed[0].engine_used == "graph"
    assert all(p.engine_used == "retime" for p in retimed[1:])


def test_engine_retime_is_equivalent_to_the_retime_flag():
    executor = ParallelSweep(verify=False, engine="retime")
    points = executor.run(GEMM_DSE, GRID, _configure)
    assert executor.retimed_points == 2
    assert all(p.ok for p in points)


def test_record_carries_stable_provenance_columns():
    points = ParallelSweep(verify=False, retime=True).run(
        GEMM_DSE, GRID, _configure)
    for point in points:
        row = point.record()
        assert "engine_used" in row and "fallback_reason" in row
        assert "retimed" in row
    # The columns exist on plain sweeps too (stable schema).
    plain = ParallelSweep(verify=False).run(
        GEMM_DSE, {"ports": [2]}, _configure)
    row = plain[0].record()
    assert row["engine_used"] == DEFAULT_ENGINE
    assert row["retimed"] is False


def test_faulty_point_falls_back_to_full_simulation():
    flip = "bit_flip@spm:access=1,addr=0x20000007,bit=6"
    executor = ParallelSweep(
        verify=False, retime=True,
        faults=lambda p: flip if p["ports"] == 2 else None)
    points = executor.run(GEMM_DSE, GRID, _configure)
    by_ports = {p.params["ports"]: p for p in points}
    assert by_ports[2].retimed is False
    assert by_ports[2].engine_used == "dynamic"
    assert by_ports[2].fallback_reason  # reason is recorded, not silent
    assert by_ports[4].retimed is True  # healthy points still replay


def test_datapath_grid_splits_into_groups():
    grid = {"ports": [1, 2], "unroll": [1, 2]}

    def configure(params):
        cfg = _configure(params)
        cfg["unroll_factor"] = params["unroll"]
        return cfg

    executor = ParallelSweep(verify=False, retime=True)
    points = executor.run(GEMM_DSE, grid, configure)
    # Two unroll factors -> two datapath groups -> two captures.
    assert executor.datapath_groups == 2
    assert executor.trace_captures == 2
    assert executor.retimed_points == 2
    assert all(p.ok for p in points)


def test_partition_report_flags_unclassified_grid_axes():
    def configure(params):
        cfg = _configure(params)
        cfg["burst"] = params["ports"]  # not a real accelerator kwarg
        return cfg

    executor = ParallelSweep(verify=False, retime=True, strict=False)
    executor.run(GEMM_DSE, {"ports": [1, 2]}, configure)
    report = executor.partition_report
    assert report is not None
    assert [d.code for d in report.diagnostics] == ["DEP204"]
    assert "burst" in report.diagnostics[0].message


def test_dse_sweep_passes_retime_through():
    executor = repro.dse.ParallelSweep(verify=False, retime=True)
    points = executor.run(GEMM_DSE, GRID, _configure)
    assert [p.retimed for p in points] == [False, True, True]
