"""Graceful drain: running jobs finish, the journal flushes, then exit.

The slow job body is injected via ``workers._BODIES`` (the server
thread shares this process), gated on a `threading.Event` so every
phase of the drain is observed deterministically — no sleeps standing
in for synchronization.
"""

import threading

import pytest

from repro.serve import ServeClient, ServeError, start_server_thread
from repro.serve.jobs import JobQueue, JobState
from repro.serve.journal import JobJournal, recover_queue
from repro.serve.workers import _BODIES


@pytest.fixture
def gated_analyze(monkeypatch):
    """Replace the analyze body with one that blocks until released."""
    started = threading.Event()
    release = threading.Event()

    def slow_body(spec, state, publish):
        started.set()
        assert release.wait(timeout=30), "test forgot to release the job"
        return {"slow": True}, False

    monkeypatch.setitem(_BODIES, "analyze", slow_body)
    yield started, release
    release.set()  # never leave a worker thread hanging


def test_drain_waits_for_running_job_then_exits(tmp_path, gated_analyze):
    started, release = gated_analyze
    state_dir = tmp_path / "state"
    handle = start_server_thread(workers=1, state_dir=state_dir,
                                 drain_timeout=30.0)
    client = ServeClient(port=handle.port)
    job = client.submit("analyze", {"n": 1})
    assert started.wait(5.0), "worker never claimed the job"

    response = client.shutdown(mode="drain")
    assert response["mode"] == "drain"
    assert response["running"] == 1
    # Still serving while draining, and says so.
    assert client.healthz()["status"] == "draining"
    # Submissions are still accepted — they journal and run next start.
    parked = client.submit("analyze", {"n": 2})
    assert parked["state"] == JobState.QUEUED

    release.set()
    handle.thread.join(timeout=10.0)
    assert not handle.thread.is_alive(), "drain never completed"

    # The drain's final snapshot holds everything: the running job's
    # result is durable, the parked job comes back queued.
    journal = JobJournal(state_dir)
    queue = JobQueue(journal=journal)
    summary = recover_queue(queue, journal)
    finished = queue.jobs[job["id"]]
    assert finished.state == JobState.DONE
    assert finished.result == {"slow": True}
    assert queue.jobs[parked["id"]].state == JobState.QUEUED
    assert summary["requeued_jobs"] == 1
    assert journal.snapshot_path.exists()


def test_drain_with_idle_queue_exits_immediately(tmp_path):
    state_dir = tmp_path / "state"
    handle = start_server_thread(workers=1, state_dir=state_dir)
    ServeClient(port=handle.port).shutdown(mode="drain")
    handle.thread.join(timeout=10.0)
    assert not handle.thread.is_alive()
    assert (state_dir / "snapshot.json").exists()


def test_drain_timeout_abandons_stuck_job(tmp_path, gated_analyze):
    started, release = gated_analyze
    state_dir = tmp_path / "state"
    handle = start_server_thread(workers=1, state_dir=state_dir,
                                 drain_timeout=0.3)
    client = ServeClient(port=handle.port)
    job = client.submit("analyze", {})
    assert started.wait(5.0)
    client.shutdown(mode="drain")
    # The job never finishes, but the server must not hang past its
    # drain budget.
    handle.thread.join(timeout=10.0)
    assert not handle.thread.is_alive()
    release.set()
    # The abandoned job was journaled as running: a restart re-queues it.
    journal = JobJournal(state_dir)
    queue = JobQueue(journal=journal)
    summary = recover_queue(queue, journal)
    assert summary["requeued_jobs"] == 1
    assert queue.jobs[job["id"]].state == JobState.QUEUED


def test_shutdown_mode_now_keeps_old_behavior():
    handle = start_server_thread(workers=1)
    client = ServeClient(port=handle.port)
    assert client.shutdown()["mode"] == "now"
    handle.thread.join(timeout=10.0)
    assert not handle.thread.is_alive()


def test_bad_shutdown_mode_is_rejected():
    with start_server_thread(workers=1) as handle:
        client = ServeClient(port=handle.port)
        with pytest.raises(ServeError) as excinfo:
            client._request("POST", "/v1/shutdown?mode=sideways")
        assert excinfo.value.status == 400
