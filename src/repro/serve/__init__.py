"""Simulation-as-a-service: an async job server over the caches.

The execution substrate already exists — `SimContext` runs one kernel,
`ParallelSweep` runs grids with timeouts/retries/failure isolation, and
the content-addressed `RunCache`/`ArtifactStore` make repeats free.
This package is the multi-tenant front door on top of it:

* :class:`JobQueue` (`repro.serve.jobs`) — priority queue of
  compile/run/sweep/analyze jobs with content-addressed request dedup:
  two identical submissions coalesce into one execution, both job
  records pointing at the shared result.
* :class:`WorkerPool` (`repro.serve.workers`) — executes claimed jobs
  in background executor threads so the event loop stays responsive;
  a crashing job becomes a per-job `FailureRecord`, never server death.
* :class:`JobServer` (`repro.serve.server`) — stdlib-only asyncio
  HTTP/JSON API (``repro serve``): ``POST /v1/jobs``,
  ``GET /v1/jobs/{id}``, ``GET /v1/jobs/{id}/events`` (SSE progress),
  ``DELETE /v1/jobs/{id}``, ``GET /v1/stats``, ``GET /healthz``,
  ``GET /version``.
* :class:`ServeClient` (`repro.serve.client`) — thin `http.client`
  wrapper used by ``repro submit`` and the tests.
* :class:`JobJournal` (`repro.serve.journal`) — the write-ahead log
  behind ``repro serve --state-dir``: every submission, state change,
  and progress event journaled; a restarted server replays it,
  re-queues in-flight jobs, and still serves GETs for finished ones.
* :class:`CircuitBreaker` (`repro.serve.jobs`) — per-dedup-key
  fail-fast after K consecutive failures, with cooldown + half-open
  probe.
"""

from repro.serve.client import ServeClient, ServeError
from repro.serve.jobs import CircuitBreaker, Job, JobQueue, JobState
from repro.serve.journal import JobJournal, recover_queue
from repro.serve.server import JobServer, start_server_thread
from repro.serve.workers import WorkerPool, job_dedup_key

__all__ = [
    "CircuitBreaker",
    "Job",
    "JobJournal",
    "JobQueue",
    "JobState",
    "JobServer",
    "ServeClient",
    "ServeError",
    "WorkerPool",
    "job_dedup_key",
    "recover_queue",
    "start_server_thread",
]
