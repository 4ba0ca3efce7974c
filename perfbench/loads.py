"""The four benchmark workloads, as seen from outside the program.

Each workload has a fixed *round*: a list of operations whose make-up
depends only on the seed.  A run repeats whole rounds, so every run of
one seed measures the same mix.  `round()` returns one record per
operation:

    {"leg", "key", "t", "ok", "failure", "cycles", "row", "engine",
     "fallback", ...}

``key`` names the operation's inputs; ``row`` is the canonical JSON of
its result (equal keys must give equal rows); ``t`` is its wall time in
seconds; ``cycles`` is what it simulated (0 for a cache hit).

The program is only called from outside: public names of `repro`
modules and the ``python -m repro`` command line.
"""

from __future__ import annotations

import gc
import json
import os
import random
import shutil
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import spans

HERE = Path(__file__).resolve().parent

#: Every `kernels` operation runs under this wall-clock budget.  It is
#: enforced from outside (SIGALRM), so it does not change which engine
#: `repro` picks.  The slowest healthy operation takes about 2-3 s.
OP_BUDGET_S = 5.0

#: Kernels of the `cli` workload (rotated in a seeded order), and the
#: wall-clock budget of one ``repro run`` process (healthy ones take
#: 0.6-2.5 s).
CLI_KERNELS = ["fft", "spmv", "stencil3d", "md_knn", "bfs", "gemm"]
CLI_TIMEOUT_S = 30.0
#: Sweep kernels and grid of the `dse` workload.
DSE_KERNELS = ["gemm_dse", "stencil3d"]
DSE_GRID = {"ports": [1, 2, 4, 8], "unroll": [1, 2, 4]}
#: A `serve` round: distinct `gemm_dse` runs at these (ports, unroll),
#: repeats of some of them, one run of each small kernel and one analyze
#: job of a kernel the seed picks.  Every round has the same make-up.
SERVE_DISTINCT = [(1, 1), (2, 1), (4, 2), (8, 2), (2, 4), (4, 4)]
SERVE_REPEATS = 4
SERVE_SMALL = ["spmv", "md_knn"]
SERVE_ANALYZE = ["fft", "md_knn", "spmv", "stencil2d", "stencil3d", "nw"]
SERVE_CLIENTS = 2
SERVE_TIMEOUT_S = 20.0


class OpBudgetExceeded(BaseException):
    """Raised by the SIGALRM handler; a BaseException so no `except
    Exception` inside the program can swallow it."""


def canonical(payload) -> str:
    return json.dumps(payload, sort_keys=True, separators=(",", ":"),
                      default=str)


def op_record(leg: str, key: str, t: float, *, ok: bool = True,
              failure=None, cycles: int = 0, row=None, engine: str = "",
              fallback: str = "", **extra) -> dict:
    return dict(leg=leg, key=key, t=t, ok=ok, failure=failure,
                cycles=cycles, row=row, engine=engine, fallback=fallback,
                **extra)


def _failure_kind(exc: BaseException) -> str:
    from repro import SimulationHang

    if isinstance(exc, (OpBudgetExceeded, SimulationHang)):
        return "hang"
    if isinstance(exc, AssertionError):
        return "verify"
    return "error"


def _record_failure_kind(record: dict) -> str:
    """The failure class of a `FailureRecord` dict (sweep point, serve job)."""
    if record.get("error_type") == "AssertionError":
        return "verify"
    return "hang" if record.get("reason") in ("hang", "timeout") else "error"


class Env:
    """What a workload needs from the benchmark process."""

    def __init__(self, root: Path, tmp: Path, seed: int) -> None:
        self.root = root
        self.tmp = tmp
        tmp.mkdir(parents=True, exist_ok=True)
        self.rng = random.Random(seed)
        self.child_env = dict(os.environ)
        src = str(root / "src")
        old = self.child_env.get("PYTHONPATH")
        self.child_env["PYTHONPATH"] = src + (os.pathsep + old if old else "")
        #: Children start through `launcher.py` with spans installed.
        self.traced = False
        self.span_files: list = []
        self._dirs = 0

    def fresh_dir(self, label: str) -> Path:
        self._dirs += 1
        path = self.tmp / f"{label}-{self._dirs}"
        path.mkdir(parents=True)
        return path

    def repro_argv(self) -> tuple[list, dict]:
        """The command prefix that runs the `repro` CLI in a child."""
        if not self.traced:
            return [sys.executable, "-m", "repro"], self.child_env
        path = self.tmp / f"spans-{len(self.span_files)}.json"
        self.span_files.append(path)
        env = dict(self.child_env, PERFBENCH_SPANS=str(path))
        return [sys.executable, str(HERE / "launcher.py")], env


# ----------------------------------------------------------------------
class Workload:
    """Interface: `setup()` once, then `set_traced()` and `round()` for
    each round, `close()` at the end."""

    def __init__(self, env: Env) -> None:
        self.env = env

    def setup(self) -> None:
        pass

    def set_traced(self, flag: bool) -> None:
        """Record spans in the next round (this process and its children)."""
        self.env.traced = flag
        spans.set_enabled(flag)

    def round(self) -> list:
        raise NotImplementedError

    def close(self) -> None:
        pass


class CliWorkload(Workload):
    """One client spawning fresh ``repro run`` processes; each kernel
    runs cold (empty run cache) and then warm (run-cache hit)."""

    def __init__(self, env: Env) -> None:
        super().__init__(env)
        self.order = CLI_KERNELS[:]
        env.rng.shuffle(self.order)
        self.data_seed = {k: env.rng.randrange(1, 10_000) for k in self.order}

    def setup(self) -> None:
        # Warm-up: a first `python -m repro` writes the bytecode caches.
        argv, child_env = self.env.repro_argv()
        subprocess.run(argv + ["workloads"], env=child_env, check=True,
                       stdout=subprocess.DEVNULL, cwd=self.env.root)

    def _run(self, kernel: str, cache_dir: Path):
        argv, child_env = self.env.repro_argv()
        cmd = argv + ["run", kernel, "--unroll", "4",
                      "--seed", str(self.data_seed[kernel]),
                      "--cache-dir", str(cache_dir / "runs"),
                      "--artifact-dir", str(cache_dir / "artifacts")]
        start = time.perf_counter()
        try:
            proc = subprocess.run(cmd, env=child_env, cwd=self.env.root,
                                  capture_output=True, text=True,
                                  timeout=CLI_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc = None
        return time.perf_counter() - start, proc

    def round(self) -> list:
        ops = []
        for kernel in self.order:
            cache_dir = self.env.fresh_dir(f"cli-{kernel}")
            for leg in ("cold", "warm"):
                t, proc = self._run(kernel, cache_dir)
                ops.append(self._record(leg, kernel, t, proc))
            shutil.rmtree(cache_dir, ignore_errors=True)
        return ops

    def _record(self, leg: str, kernel: str, t: float, proc) -> dict:
        key = f"{kernel}:seed={self.data_seed[kernel]}"
        if proc is None:
            return op_record(leg, key, t, ok=False, failure="hang")
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr[-2000:])
            kind = "verify" if "AssertionError" in proc.stderr else "error"
            return op_record(leg, key, t, ok=False, failure=kind)
        fields = {}
        for line in proc.stdout.splitlines():
            name, sep, value = line.partition(":")
            if sep:
                fields[name.strip()] = value.strip()
        expected = ("output matches the golden model" if leg == "cold"
                    else "cached result (verified when first computed)")
        if fields.get("verified") != expected:
            return op_record(leg, key, t, ok=False, failure="verify")
        # No engine line means the CLI's default engine ran (or, warm,
        # nothing ran).
        default = "dynamic" if leg == "cold" else ""
        engine, _, fallback = fields.get("engine", default).partition(" (fallback: ")
        result = {k: v for k, v in fields.items()
                  if k not in ("verified", "engine")}
        return op_record(leg, key, t, cycles=int(fields["cycles"]) if leg == "cold" else 0,
                         row=canonical(result), engine=engine,
                         fallback=fallback.rstrip(")"))


# ----------------------------------------------------------------------
class KernelsWorkload(Workload):
    """A warm process running the Fig. 10 validation set at unroll 4
    through ``SimContext(engine="graph", verify=True)``, on SPM and on
    L1 cache + DRAM, each operation under `OP_BUDGET_S`."""

    LEGS = ("spm", "cache")

    def __init__(self, env: Env) -> None:
        from repro.workloads.registry import VALIDATION_SET

        super().__init__(env)
        self.order = {leg: VALIDATION_SET[:] for leg in self.LEGS}
        for leg in self.LEGS:
            env.rng.shuffle(self.order[leg])
        self.data_seed = {k: env.rng.randrange(1, 10_000)
                          for k in VALIDATION_SET}
        self.store = None

    def setup(self) -> None:
        from repro import ArtifactStore

        self.store = ArtifactStore(self.env.fresh_dir("artifacts"))
        signal.signal(signal.SIGALRM, _on_alarm)
        # Warm-up: compile every kernel and its graph once, so the
        # measured rounds hit the artifact store.
        for kernel in self.order["spm"]:
            self._op("spm", kernel)

    def _op(self, leg: str, kernel: str) -> dict:
        from repro import SimContext, get_workload

        key = f"{leg}:{kernel}:seed={self.data_seed[kernel]}"
        ctx = SimContext(get_workload(kernel), seed=self.data_seed[kernel],
                         verify=True, artifact_store=self.store,
                         engine="graph", memory=leg, unroll_factor=4)
        # A finished simulation is cyclic garbage: free the last one
        # before the clock starts, so neither peak RSS nor this op's
        # time depends on when the collector happens to run.
        gc.collect()
        start = time.perf_counter()
        # Re-fires every 0.5 s until cancelled, in case one alarm lands
        # where Python can only print the exception (a __del__, say).
        signal.setitimer(signal.ITIMER_REAL, OP_BUDGET_S, 0.5)
        try:
            try:
                result = ctx.run()
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
        except (Exception, OpBudgetExceeded) as exc:  # noqa: BLE001 - counted
            # (An alarm landing inside the `finally` skips its cancel.)
            signal.setitimer(signal.ITIMER_REAL, 0)
            t = time.perf_counter() - start
            return op_record(leg, key, t, ok=False, failure=_failure_kind(exc),
                             engine=ctx.engine_used or "",
                             fallback=ctx.fallback_reason or "",
                             error=f"{type(exc).__name__}: {str(exc)[:200]}")
        t = time.perf_counter() - start
        return op_record(leg, key, t, cycles=int(result.cycles),
                         row=canonical(result.to_dict()),
                         engine=ctx.engine_used or "",
                         fallback=ctx.fallback_reason or "")

    def round(self) -> list:
        return [self._op(leg, kernel)
                for leg in self.LEGS for kernel in self.order[leg]]

    def close(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)


def _on_alarm(signum, frame):
    raise OpBudgetExceeded(f"operation exceeded {OP_BUDGET_S}s")


# ----------------------------------------------------------------------
def _dse_configure(params: dict) -> dict:
    """The kwargs ``repro sweep`` builds for one grid point."""
    from repro import DeviceConfig

    ports = params["ports"]
    config = DeviceConfig(clock_freq_hz=100e6, read_ports=ports,
                          write_ports=max(1, ports // 2))
    return dict(config=config, memory="spm", unroll_factor=params["unroll"],
                spm_bytes=1 << 16, spm_read_ports=ports)


class DseWorkload(Workload):
    """Serial retime sweeps (``repro sweep --retime`` path) over
    ports x unroll on two kernels, from an empty run cache and artifact
    store every time.  One operation is one sweep point."""

    def __init__(self, env: Env) -> None:
        super().__init__(env)
        self.order = DSE_KERNELS[:]
        env.rng.shuffle(self.order)
        self.data_seed = {k: env.rng.randrange(1, 10_000) for k in self.order}

    def _sweep(self, kernel: str, grid: dict) -> list:
        from repro import ArtifactStore, ParallelSweep, RunCache, get_workload

        where = self.env.fresh_dir(f"dse-{kernel}")
        sweep = ParallelSweep(workers=1, cache=RunCache(where / "runs"),
                              artifact_store=ArtifactStore(where / "artifacts"),
                              verify=True, engine="graph", retime=True)
        marks = [time.perf_counter()]
        points = sweep.run(get_workload(kernel), grid, _dse_configure,
                           seed=self.data_seed[kernel],
                           on_point=lambda done, total, point:
                           marks.append(time.perf_counter()))
        shutil.rmtree(where, ignore_errors=True)
        ops = []
        for point, before, after in zip(points, marks, marks[1:]):
            key = f"{kernel}:seed={self.data_seed[kernel]}:" + canonical(point.params)
            if not point.ok:
                ops.append(op_record(kernel, key, after - before, ok=False,
                                     failure=_record_failure_kind(
                                         point.failure.to_dict()),
                                     error=point.failure.summary()))
                continue
            ops.append(op_record(kernel, key, after - before,
                                 cycles=int(point.cycles),
                                 row=canonical(point.result.to_dict()),
                                 engine=point.engine_used,
                                 fallback=point.fallback_reason,
                                 retimed=point.retimed))
        return ops

    def setup(self) -> None:
        # Warm-up: one two-point sweep loads the lazily imported layers.
        self._sweep(self.order[0], {"ports": [1, 2], "unroll": [1]})

    def round(self) -> list:
        ops = []
        for kernel in self.order:
            ops.extend(self._sweep(kernel, DSE_GRID))
        return ops


# ----------------------------------------------------------------------
class _Server:
    """One ``repro serve --workers 2 --state-dir`` process and a client."""

    def __init__(self, env: Env) -> None:
        from repro import ServeClient

        argv, child_env = env.repro_argv()
        state = env.fresh_dir("serve-state")
        self.log = open(state.parent / f"{state.name}.log", "w")
        self.proc = subprocess.Popen(
            argv + ["serve", "--host", "127.0.0.1", "--port", "0",
                    "--workers", "2", "--state-dir", str(state)],
            env=child_env, cwd=env.root, stdout=subprocess.PIPE,
            stderr=self.log, text=True)
        line = self.proc.stdout.readline()
        if "listening on http://" not in line:
            self.proc.kill()
            self.proc.communicate()
            self.log.close()
            raise RuntimeError(f"repro serve did not start: {line!r}")
        port = int(line.split("listening on http://", 1)[1].split()[0]
                   .rsplit(":", 1)[1])
        # A socket read that waits this long counts the job as lost;
        # healthy jobs finish in well under a second.
        self.client = ServeClient(port=port, timeout=SERVE_TIMEOUT_S)

    def finish(self, job: dict) -> dict:
        """Follow the job's SSE stream to its end; return the final record."""
        if job["state"] in ("queued", "running"):
            for _ in self.client.events(job["id"], max_reconnects=2):
                pass
            job = self.client.job(job["id"])
        return job

    def stop(self) -> None:
        if self.proc.poll() is None:
            try:
                self.client.shutdown("now")
            except OSError:
                pass
        try:
            self.proc.communicate(timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.communicate()
        self.log.close()


class ServeWorkload(Workload):
    """`_Server` in its own process and `SERVE_CLIENTS` closed-loop client
    threads.  A traced run keeps a second server, started through the
    launcher, for its traced rounds."""

    def __init__(self, env: Env) -> None:
        super().__init__(env)
        self.servers: dict = {}
        self.server = None
        self.analyze = env.rng.choice(SERVE_ANALYZE)

    def _server(self, traced: bool) -> _Server:
        if traced not in self.servers:
            server = self.servers[traced] = _Server(self.env)
            # Warm-up: one run and one analyze job load the lazy layers.
            for kind, spec in (("run", {"workload": "spmv", "seed": 0}),
                               ("analyze", {"workload": "spmv"})):
                job = server.finish(server.client.submit(kind, spec))
                if job["state"] != "done":
                    raise RuntimeError(f"warm-up {kind} job ended {job['state']}")
        return self.servers[traced]

    def setup(self) -> None:
        self.server = self._server(False)

    def set_traced(self, flag: bool) -> None:
        super().set_traced(flag)
        self.server = self._server(flag)

    # -- one round -------------------------------------------------------
    def _jobs(self) -> list:
        rng = self.env.rng
        distinct = [("run", {"workload": "gemm_dse", "ports": ports,
                             "unroll": unroll,
                             "seed": rng.randrange(1, 1_000_000)})
                    for ports, unroll in SERVE_DISTINCT]
        others = [("run", {"workload": name,
                           "seed": rng.randrange(1, 1_000_000)})
                  for name in SERVE_SMALL]
        others.append(("analyze", {"workload": self.analyze}))
        jobs = distinct + others
        rng.shuffle(jobs)
        # Repeats go after their original, so they coalesce with it or
        # hit the run cache at submit time.
        for kind, spec in rng.sample(distinct, SERVE_REPEATS):
            at = jobs.index((kind, spec)) + 1
            jobs.insert(rng.randrange(at, len(jobs) + 1), (kind, dict(spec)))
        return jobs

    def _one(self, kind: str, spec: dict) -> dict:
        key = f"{kind}:" + canonical(spec)
        start = time.perf_counter()
        try:
            job = self.server.client.submit(kind, spec)
            rtt = time.perf_counter() - start
            job = self.server.finish(job)
        except Exception as exc:  # noqa: BLE001 - a lost job is a failure
            return op_record(kind, key, time.perf_counter() - start, ok=False,
                             failure="error", error=repr(exc)[:200])
        t = time.perf_counter() - start
        extra = dict(submit_rtt=rtt, deduped=bool(job.get("deduped_of")
                                                  or job.get("cache_hit")),
                     retries=max(0, int(job.get("attempts") or 0) - 1))
        if job.get("started_s") is not None and not job.get("deduped_of"):
            extra["queue_wait"] = job["started_s"] - job["submitted_s"]
            extra["exec"] = job["finished_s"] - job["started_s"]
        if job["state"] != "done":
            failure = job.get("failure")
            return op_record(kind, key, t, ok=False, error=str(failure)[:200],
                             failure=(_record_failure_kind(failure) if failure
                                      else "state"), **extra)
        result = dict(job["result"] or {})
        result.pop("timings", None)  # analyze jobs report their wall times
        executed = not extra["deduped"]
        cycles = 0
        if kind == "run":
            result.pop("__cache_hit__", None)
            cycles = int(result["cycles"]) if executed else 0
        return op_record(kind, key, t, cycles=cycles, row=canonical(result),
                         engine="serve default (dynamic)" if kind == "run" else "",
                         **extra)

    def round(self) -> list:
        pending = self._jobs()
        ops: list = []
        lock = threading.Lock()

        def client() -> None:
            while True:
                with lock:
                    if not pending:
                        return
                    kind, spec = pending.pop(0)
                record = self._one(kind, spec)
                with lock:
                    ops.append(record)

        threads = [threading.Thread(target=client) for _ in range(SERVE_CLIENTS)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        return ops

    def close(self) -> None:
        for server in self.servers.values():
            server.stop()


WORKLOADS = {
    "cli": CliWorkload,
    "kernels": KernelsWorkload,
    "dse": DseWorkload,
    "serve": ServeWorkload,
}
