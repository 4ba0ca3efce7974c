"""End-to-end crash recovery: SIGKILL a real server, restart, recover.

These tests spawn ``python -m repro serve --state-dir ...`` as a real
subprocess (the only way to honestly test SIGKILL), kill it with jobs
in flight, restart it against the same state dir, and assert the
acceptance bar: the job completes with a byte-identical result, and a
restarted sweep re-executes only its unfinished points (verified via
the run-cache hit counters).
"""

import os
import signal
import subprocess
import sys
from pathlib import Path

import pytest

from repro.api import context_kwargs
from repro.exec.context import SimContext
from repro.serve import ServeClient
from repro.serve.jobs import JobState
from repro.workloads import get_workload

ROOT = Path(__file__).resolve().parents[2]

RUN_SPEC = {"workload": "gemm_dse", "ports": 4, "unroll": 2, "seed": 7}


def start_server(state_dir, cache_dir):
    """Spawn a real ``repro serve`` process; returns (proc, port)."""
    env = dict(os.environ,
               PYTHONPATH=str(ROOT / "src"),
               PYTHONUNBUFFERED="1")
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--port", "0",
         "--workers", "1", "--state-dir", str(state_dir),
         "--cache-dir", str(cache_dir)],
        cwd=ROOT, env=env, text=True,
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT)
    line = proc.stdout.readline()
    assert "listening on" in line, f"unexpected announce: {line!r}"
    port = int(line.split("http://", 1)[1].split()[0].rsplit(":", 1)[1])
    return proc, port


def sigkill(proc):
    os.kill(proc.pid, signal.SIGKILL)
    proc.wait(timeout=10)
    proc.stdout.close()


@pytest.fixture
def dirs(tmp_path):
    return tmp_path / "state", tmp_path / "cache"


def test_sigkill_midjob_restart_completes_byte_identical(dirs):
    state_dir, cache_dir = dirs
    proc, port = start_server(state_dir, cache_dir)
    try:
        client = ServeClient(port=port)
        client.pause()  # deterministic: the job is queued at crash time
        job = client.submit("run", dict(RUN_SPEC))
        assert job["state"] == JobState.QUEUED
    finally:
        sigkill(proc)

    proc2, port2 = start_server(state_dir, cache_dir)
    try:
        client2 = ServeClient(port=port2)
        recovered = client2.wait(job["id"], timeout=240.0)
        assert recovered["state"] == JobState.DONE
        assert recovered["attempts"] == 1
        # Byte-identical to an uninterrupted run.
        direct = SimContext(get_workload("gemm_dse"), seed=7,
                            **context_kwargs(RUN_SPEC)).run()
        assert recovered["result"] == direct.to_dict()
        # The journey is on the job's own (recovered) event log.
        names = [e["event"] for e in
                 client2.events(job["id"], reconnect=False)]
        assert "recovered" in names
        assert names[-1] == JobState.DONE
        # And /v1/stats reports the recovery.
        stats = client2.stats()
        assert stats["recovery"]["requeued_jobs"] >= 1
        assert stats["journal"]["appends"] > 0
        client2.shutdown(mode="drain")
        proc2.wait(timeout=30)
    finally:
        if proc2.poll() is None:
            proc2.kill()
        proc2.stdout.close()


def test_restarted_sweep_reexecutes_only_unfinished_points(dirs):
    state_dir, cache_dir = dirs
    warm_spec = {"workload": "gemm_dse", "ports": [1], "unroll": 1,
                 "seed": 7}
    sweep_spec = {"workload": "gemm_dse", "ports": [1, 2], "unroll": 1,
                  "seed": 7}
    proc, port = start_server(state_dir, cache_dir)
    try:
        client = ServeClient(port=port)
        # Half the work finishes before the crash: ports=1 is simulated
        # and lands in the durable run cache.
        warm = client.wait(client.submit("sweep", warm_spec)["id"],
                           timeout=240.0)
        assert warm["state"] == JobState.DONE
        client.pause()
        job = client.submit("sweep", sweep_spec)
        assert job["state"] == JobState.QUEUED
    finally:
        sigkill(proc)

    proc2, port2 = start_server(state_dir, cache_dir)
    try:
        client2 = ServeClient(port=port2)
        recovered = client2.wait(job["id"], timeout=240.0)
        assert recovered["state"] == JobState.DONE
        rows = recovered["result"]["rows"]
        assert [row["ports"] for row in rows] == [1, 2]
        assert all(row["status"] == "ok" for row in rows)
        # The acceptance bar: only the unfinished point re-executed —
        # the finished one was served by the run cache.
        stats = client2.stats()
        assert stats["run_cache"]["hits"] >= 1
        assert stats["recovery"]["requeued_jobs"] >= 1
        client2.shutdown()
    finally:
        if proc2.poll() is None:
            proc2.kill()
        proc2.stdout.close()
