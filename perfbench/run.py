"""The repository benchmark: one workload per call, run from the repo root.

    python3 perfbench/run.py --workload cli --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20

Workloads (see README.md in this directory): ``cli``, ``kernels``,
``dse``, ``serve``, or ``all`` for the four in turn.  The benchmark
never imports `repro` in this process: it starts `worker.py` children
(``SETUP_REPS`` of them, to time set-up several times; the last one
measures), waits for them, and turns their records into metrics.

With ``--trace 0`` the last line of stdout is a JSON object carrying
the end-to-end metrics; with ``--trace 1`` it carries the per-layer
metrics taken from spans.  Lines before it are a readable report:
the workload's own figures, failures, simulated cycles, engines and a
``sim_digest`` over the result rows.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from spans import layer_table  # noqa: E402

WORKLOADS = ["cli", "kernels", "dse", "serve"]
#: Set-up is timed in this many fresh processes; the median is reported.
SETUP_REPS = 3
#: A run whose workers are not done this many seconds after it started
#: is stopped (its workers killed) and fails, so it ends within 180 s.
DEADLINE_S = 170.0

END_TO_END_UNITS = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "ops_per_s": "1/s",
    "op_s_mean": "s",
    "sim_cycles_per_s": "cycles/s",
}


class BenchError(RuntimeError):
    pass


def _median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def _mean(values) -> float:
    values = list(values)
    return statistics.fmean(values) if values else 0.0


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _digest(rows) -> str:
    """sha256 over the sorted, de-duplicated result rows."""
    h = hashlib.sha256()
    for row in sorted(set(rows)):
        h.update(row.encode("utf-8"))
        h.update(b"\n")
    return h.hexdigest()


def _tail(values: list) -> tuple:
    """(percentile, value, n): the highest whole percentile, at most 90,
    that has at least ten samples above it."""
    values = sorted(values)
    n = len(values)
    for pct in range(90, 0, -1):
        rank = -(-pct * n // 100)  # ceil: nearest-rank percentile
        if rank >= 1 and n - rank >= 10:
            return pct, values[rank - 1], n
    return None, None, n


# ----------------------------------------------------------------------
def _spawn(cmd: list, root: Path, limit_s: float) -> float:
    """Run a worker to its end; return its set-up seconds (start to its
    ``READY`` line).  A worker that outlives ``limit_s`` is killed, and
    so is anything it left running."""
    start = time.perf_counter()
    # Its own process group: killing the group also stops the worker's
    # children (a `repro serve` process) if the worker dies first.
    proc = subprocess.Popen(cmd, cwd=root, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)

    def kill_group() -> None:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass

    timer = threading.Timer(limit_s, kill_group)
    timer.start()
    try:
        line = proc.stdout.readline()
        setup_s = time.perf_counter() - start
        rest, _ = proc.communicate()
    finally:
        timer.cancel()
        kill_group()
    if line.strip() != "READY" or proc.returncode != 0:
        raise BenchError(f"worker failed (exit {proc.returncode}): "
                         f"{(line + rest).strip()[-500:]}")
    return setup_s


def measure(workload: str, seed: int, seconds: float, trace: int,
            root: Path, deadline: float) -> dict:
    tmp = root / ".perfbench_tmp" / f"{workload}-{os.getpid()}"
    shutil.rmtree(tmp, ignore_errors=True)
    out = tmp / "result.json"
    reps = 1 if trace else SETUP_REPS
    setup = []
    # Byte-compile the program first, as an install would; otherwise every
    # fresh process compiles it again where bytecode writing is disabled.
    subprocess.run([sys.executable, "-m", "compileall", "-q", "src"],
                   cwd=root, check=True, stdout=subprocess.DEVNULL)
    try:
        for rep in range(reps):
            last = rep == reps - 1
            cmd = [sys.executable, str(HERE / "worker.py"),
                   "--workload", workload, "--seed", str(seed),
                   "--seconds", str(seconds), "--trace", str(trace),
                   "--root", str(root), "--tmp", str(tmp / f"rep{rep}")]
            cmd += ["--out", str(out)] if last else ["--setup-only"]
            setup.append(_spawn(cmd, root, deadline - time.perf_counter()))
        record = json.loads(out.read_text())
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            tmp.parent.rmdir()
        except OSError:
            pass  # another run still uses it
    record["setup"] = setup
    return record


# ----------------------------------------------------------------------
def _ops(rounds: list) -> list:
    return [op for r in rounds for op in r["ops"]]


def check(record: dict) -> dict:
    """Counts and correctness over every operation of the run."""
    ops = _ops(record["rounds"]) + _ops(record["baseline"])
    ok = [op for op in ops if op["ok"]]
    rows: dict = {}
    for op in ok:
        if op["row"] is not None:
            rows.setdefault(op["key"], set()).add(op["row"])
    inconsistent = sorted(k for k, v in rows.items() if len(v) > 1)
    failures: dict = {}
    for op in ops:
        if not op["ok"]:
            failures[op["failure"]] = failures.get(op["failure"], 0) + 1
    return {
        "attempted": len(ops),
        "failed": len(ops) - len(ok),
        "failures": failures,
        "inconsistent": inconsistent,
        "correct": bool(ok) and not inconsistent and "verify" not in failures,
        "digest": _digest(r for v in rows.values() for r in v),
    }


def end_to_end(record: dict) -> dict:
    """Rates and latencies are medians over rounds of each round's
    figure, so one slow stretch of the host moves them little.  An
    operation's latency is the round's mean: a round mixes operations
    that differ by 100x, so its median jumps between them, and the
    shortest ones, which a collector pause can double, would sway a
    geometric mean."""
    per_round = []
    for r in record["rounds"]:
        ok = [op for op in r["ops"] if op["ok"]]
        per_round.append((len(ok) / r["wall"], _mean(op["t"] for op in ok),
                          sum(op["cycles"] for op in ok) / r["wall"]))
    ops_per_s, op_s, cycles_per_s = (_median(col) for col in zip(*per_round))
    peak_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return {
        "setup_s": _median(record["setup"]),
        "peak_rss_mb": peak_kb / 1024.0,
        "ops_per_s": ops_per_s,
        "op_s_mean": op_s,
        "sim_cycles_per_s": cycles_per_s,
    }


def workload_figures(workload: str, record: dict) -> dict:
    """The workload's own end-to-end figures, named as in README.md."""
    rounds = record["rounds"]
    ops = _ops(rounds)
    ok = [op for op in ops if op["ok"]]
    wall = sum(r["wall"] for r in rounds)
    figures = {"failed_ratio": ("ratio", _ratio(len(ops) - len(ok), len(ops)))}

    def leg(name):
        return [op for op in ok if op["leg"] == name]

    if workload == "cli":
        figures["cli_cold_s_p50"] = ("s", _median(op["t"] for op in leg("cold")))
        figures["cli_warm_s_p50"] = ("s", _median(op["t"] for op in leg("warm")))
    elif workload == "kernels":
        for name in ("spm", "cache"):
            done = leg(name)
            figures[f"{name}_cycles_per_s"] = (
                "cycles/s", _ratio(sum(op["cycles"] for op in done),
                                   sum(op["t"] for op in done)))
    elif workload == "dse":
        figures["sweep_points_per_s"] = ("points/s", _ratio(len(ok), wall))
    elif workload == "serve":
        figures["jobs_per_s"] = ("jobs/s", _ratio(len(ok), wall))
        figures["job_latency_s_p50"] = ("s", _median(op["t"] for op in ok))
        pct, value, n = _tail([op["t"] for op in ok])
        if pct is not None:
            figures[f"job_latency_s_p{pct}"] = ("s", value)
        figures["job_latency_samples"] = ("count", n)
    return figures


def outputs(record: dict) -> dict:
    """Per leg: cycles simulated in one round, engines, fallback reasons."""
    legs: dict = {}
    for op in record["rounds"][0]["ops"]:
        entry = legs.setdefault(op["leg"], {"cycles": 0, "engine_used": set(),
                                            "fallback_reason": set()})
        entry["cycles"] += op["cycles"]
        if op["engine"]:
            entry["engine_used"].add(op["engine"])
        if op["fallback"]:
            entry["fallback_reason"].add(op["fallback"])
    return {name: {"cycles": e["cycles"],
                   "engine_used": sorted(e["engine_used"]),
                   "fallback_reason": sorted(e["fallback_reason"])}
            for name, e in legs.items()}


# ----------------------------------------------------------------------
#: Per-layer metrics (``--trace 1``) and their units.  Times and counts
#: are per round of the workload; ``*_p50`` are per job.
PER_LAYER_UNITS = {
    "import.s": "s",
    "cli.self_s": "s/round",
    "frontend.parse.s": "s/round",
    "frontend.lower.s": "s/round",
    "passes.optimize.s": "s/round",
    "frontend.calls": "count/round",
    "build.store.get.calls": "count/round",
    "build.store.hit_ratio": "ratio",
    "build.store.put.s": "s/round",
    "core.elaborate.s": "s/round",
    "engine.compile.s": "s/round",
    "engine.graph.run.s": "s/round",
    "engine.graph.cycles": "cycles/round",
    "engine.graph.s_per_kcycle": "s/kcycle",
    "engine.retime.replay.s": "s/round",
    "engine.retime.replays": "count/round",
    "engine.retime.captures": "count/round",
    "engine.retime.replay_ratio": "ratio",
    "sim.dynamic.run.s": "s/round",
    "sim.dynamic.cycles": "cycles/round",
    "sim.dynamic.s_per_kcycle": "s/kcycle",
    "sim.hangs": "count/round",
    "workloads.make_data.s": "s/round",
    "workloads.stage.s": "s/round",
    "workloads.verify.s": "s/round",
    "exec.context.self_s": "s/round",
    "exec.sweep.self_s": "s/round",
    "exec.run_cache.get.s": "s/round",
    "exec.run_cache.put.s": "s/round",
    "exec.run_cache.hit_ratio": "ratio",
    "exec.sweep.failed_points": "count/round",
    "result.serialize.s": "s/round",
    "analysis.lint.s": "s/round",
    "serve.submit_rtt_s_p50": "s",
    "serve.queue_wait_s_p50": "s",
    "serve.exec_s_p50": "s",
    "serve.journal.append.calls": "count/round",
    "serve.journal.append.s": "s/round",
    "serve.dedup_ratio": "ratio",
    "serve.retries": "count/round",
    "trace.overhead_s": "s/round",
    "trace.overhead_ratio": "ratio",
}


def per_layer(workload: str, record: dict) -> dict:
    rounds = record["rounds"]
    n = len(rounds)
    ops = _ops(rounds)
    table = layer_table([s for s in record["spans"] if s["name"] != "import"])
    empty = {"calls": 0, "total_s": 0.0, "self_s": 0.0, "ok_self_s": 0.0,
             "hits": 0, "captures": 0, "cycles": {}}

    def row(name):
        return table.get(name, empty)

    def self_s(name):
        return row(name)["self_s"] / n

    def calls(name):
        return row(name)["calls"] / n

    cycles = row("exec.context")["cycles"]
    imports = [s["end"] - s["start"] for s in record["spans"]
               if s["name"] == "import"]
    replays = row("engine.retime.replay")["calls"]
    captures = row("engine.graph.run")["captures"] + row("engine.retime.replay")["captures"]
    jobs = [op for op in ops if "submit_rtt" in op]
    traced_wall = _median(r["wall"] for r in rounds)
    baseline = _median(r["wall"] for r in record["baseline"])
    metrics = {
        "import.s": _median(imports) if imports else record["import_s"],
        "cli.self_s": self_s("cli"),
        "frontend.parse.s": self_s("frontend.parse"),
        "frontend.lower.s": self_s("frontend.lower"),
        "passes.optimize.s": self_s("passes.optimize"),
        "frontend.calls": calls("frontend.parse"),
        "build.store.get.calls": calls("build.store.get"),
        "build.store.hit_ratio": _ratio(row("build.store.get")["hits"],
                                        row("build.store.get")["calls"]),
        "build.store.put.s": self_s("build.store.put"),
        "core.elaborate.s": self_s("core.elaborate"),
        "engine.compile.s": self_s("engine.compile"),
        "engine.graph.run.s": self_s("engine.graph.run"),
        "engine.graph.cycles": cycles.get("graph", 0) / n,
        "engine.graph.s_per_kcycle": _ratio(row("engine.graph.run")["ok_self_s"],
                                            cycles.get("graph", 0) / 1000),
        "engine.retime.replay.s": self_s("engine.retime.replay"),
        "engine.retime.replays": replays / n,
        "engine.retime.captures": captures / n,
        "engine.retime.replay_ratio": _ratio(replays, replays + captures),
        "sim.dynamic.run.s": self_s("sim.dynamic.run"),
        "sim.dynamic.cycles": cycles.get("dynamic", 0) / n,
        "sim.dynamic.s_per_kcycle": _ratio(row("sim.dynamic.run")["ok_self_s"],
                                           cycles.get("dynamic", 0) / 1000),
        "sim.hangs": sum(op["failure"] == "hang" for op in ops) / n,
        "workloads.make_data.s": self_s("workloads.make_data"),
        "workloads.stage.s": self_s("workloads.stage"),
        "workloads.verify.s": self_s("workloads.verify"),
        "exec.context.self_s": self_s("exec.context"),
        "exec.sweep.self_s": self_s("exec.sweep"),
        "exec.run_cache.get.s": self_s("exec.run_cache.get"),
        "exec.run_cache.put.s": self_s("exec.run_cache.put"),
        "exec.run_cache.hit_ratio": _ratio(row("exec.run_cache.get")["hits"],
                                           row("exec.run_cache.get")["calls"]),
        "exec.sweep.failed_points": (sum(not op["ok"] for op in ops) / n
                                     if workload == "dse" else 0.0),
        "result.serialize.s": self_s("result.serialize"),
        "analysis.lint.s": self_s("analysis.lint"),
        "serve.submit_rtt_s_p50": _median(op["submit_rtt"] for op in jobs),
        "serve.queue_wait_s_p50": _median(op["queue_wait"] for op in jobs
                                          if "queue_wait" in op),
        "serve.exec_s_p50": _median(op["exec"] for op in jobs if "exec" in op),
        "serve.journal.append.calls": calls("serve.journal.append"),
        "serve.journal.append.s": self_s("serve.journal.append"),
        "serve.dedup_ratio": _ratio(sum(op["deduped"] for op in jobs), len(jobs)),
        "serve.retries": sum(op["retries"] for op in jobs) / n,
        "trace.overhead_s": traced_wall - baseline,
        "trace.overhead_ratio": _ratio(traced_wall - baseline, baseline),
    }
    return metrics


# ----------------------------------------------------------------------
def _fmt(value) -> str:
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)


def report(workload: str, seed: int, record: dict, checked: dict,
           metrics: dict, units: dict, trace: int) -> None:
    rounds = record["rounds"]
    print(f"perfbench {workload}: seed {seed}, {len(rounds)} round(s), "
          f"{checked['attempted']} op(s) attempted, {checked['failed']} failed "
          f"{checked['failures'] or ''}".rstrip())
    label = "per-layer (traced)" if trace else "end-to-end (untraced)"
    print(f"  {label}:")
    for name, value in metrics.items():
        print(f"    {name:<28} {_fmt(value):>14} {units[name]}")
    if not trace:
        print("  workload figures:")
        for name, (unit, value) in workload_figures(workload, record).items():
            print(f"    {name:<28} {_fmt(value):>14} {unit}")
    print("  outputs (one round):")
    for name, leg in outputs(record).items():
        print(f"    leg {name}: {leg['cycles']} simulated cycles, engine_used "
              f"{leg['engine_used'] or ['-']}, fallback_reason "
              f"{leg['fallback_reason'] or ['-']}")
    print(f"    sim_digest {checked['digest']}")
    if checked["inconsistent"]:
        print(f"    INCONSISTENT results for {checked['inconsistent'][:5]}")
    failed = next((op for op in _ops(rounds) if not op["ok"]), None)
    if failed is not None:
        print(f"    first failed op {failed['key']} after {failed['t']:.2f} s: "
              f"{failed['failure']} {failed.get('error', '')}".rstrip())


def run_one(workload: str, seed: int, seconds: float, trace: int,
            root: Path) -> dict:
    deadline = time.perf_counter() + DEADLINE_S
    record = measure(workload, seed, seconds, trace, root, deadline)
    checked = check(record)
    if trace:
        metrics, units = per_layer(workload, record), PER_LAYER_UNITS
    else:
        metrics, units = end_to_end(record), END_TO_END_UNITS
    report(workload, seed, record, checked, metrics, units, trace)
    return {
        "correct": checked["correct"],
        "attempted": checked["attempted"],
        "failed": checked["failed"],
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "repro" / "__init__.py").is_file():
        print("perfbench: run from the repository root (no src/repro here)",
              file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else [args.workload]
    results = {}
    try:
        for name in names:
            results[name] = run_one(name, args.seed, args.seconds, args.trace, root)
    except BenchError as err:
        print(f"perfbench: {err}", file=sys.stderr)
        return 1
    if len(names) == 1:
        print(json.dumps(results[names[0]]))
    else:
        print(json.dumps({
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}.{m}": v for w, r in results.items()
                        for m, v in r["metrics"].items()},
        }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
