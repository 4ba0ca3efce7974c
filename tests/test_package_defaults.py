"""Package surface: a cheap ``import repro`` and one default engine.

`repro/__init__.py` re-exports its public names lazily, so importing the
package must not pull in numpy, the job server, the analyses or the
engine.  Every entry point that picks an execution backend defaults to
`repro.engine.DEFAULT_ENGINE`, the single place that names it.
"""

import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

import repro
from repro.cli import build_parser
from repro.engine import DEFAULT_ENGINE, ENGINES
from repro.exec.context import SimContext
from repro.exec.parallel import ParallelSweep, _execute_point
from repro.serve.jobs import Job
from repro.serve.workers import ServerState, execute_job
from repro.system.soc import StandaloneAccelerator
from repro.workloads import get_workload

SRC = Path(__file__).resolve().parent.parent / "src"


def _loaded_after(module: str, candidates: tuple) -> list:
    """Which of ``candidates`` a fresh ``import <module>`` loads."""
    code = (f"import json, sys, {module}; print(json.dumps(sorted("
            f"m for m in {candidates!r} if m in sys.modules)))")
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    return json.loads(out)


def test_import_repro_loads_no_heavy_modules():
    assert _loaded_after("repro", ("numpy", "repro.serve", "repro.analysis",
                                   "repro.engine")) == []


def test_import_repro_api_loads_no_heavy_modules():
    assert _loaded_after("repro.api", ("numpy", "repro.serve",
                                       "repro.analysis")) == []


def test_serve_workers_do_not_load_the_cli():
    assert _loaded_after("repro.serve.workers", ("repro.cli",)) == []


def test_every_exported_name_resolves():
    for name in repro.__all__:
        assert getattr(repro, name) is not None, name
    assert set(repro.__all__) <= set(dir(repro))
    namespace: dict = {}
    exec("from repro import *", namespace)
    assert set(repro.__all__) <= set(namespace)
    assert namespace["__version__"] == repro.__version__


def test_unknown_attribute_is_an_attribute_error():
    assert not hasattr(repro, "no_such_name")


def test_graph_is_the_default_engine():
    assert DEFAULT_ENGINE == "graph"
    assert DEFAULT_ENGINE in ENGINES


def test_cli_engine_defaults_and_choices():
    parser = build_parser()
    for argv in (["run", "gemm"], ["sweep", "gemm"], ["submit", "run", "gemm"]):
        assert parser.parse_args(argv).engine == DEFAULT_ENGINE
    subparsers = next(action for action in parser._actions
                      if action.dest == "command")
    for command in ("run", "sweep", "submit"):
        engine = next(action for action in
                      subparsers.choices[command]._actions
                      if action.dest == "engine")
        assert tuple(engine.choices) == ENGINES


def _default(func, name="engine"):
    return inspect.signature(func).parameters[name].default


def test_library_entry_points_default_to_the_default_engine():
    assert SimContext(get_workload("gemm_dse")).engine == DEFAULT_ENGINE
    assert ParallelSweep().engine == DEFAULT_ENGINE
    assert _default(_execute_point) == DEFAULT_ENGINE
    assert _default(StandaloneAccelerator) == DEFAULT_ENGINE


def _run_job(state, spec, job_id="j1"):
    job = Job(id=job_id, kind="run", spec=spec)
    result, failure, cache_hit = execute_job(job, state)
    assert failure is None, failure
    return job, result, cache_hit


def test_serve_run_defaults_to_the_default_engine():
    job, result, cache_hit = _run_job(ServerState(), {"workload": "gemm_dse"})
    assert result["cycles"] > 0 and not cache_hit
    running = [event for event in job.events if event["event"] == "running"]
    assert running and running[0]["engine"] == DEFAULT_ENGINE


def test_serve_run_job_keeps_one_result_payload():
    state = ServerState()
    spec = {"workload": "gemm_dse", "ports": 2}
    _, first, first_hit = _run_job(state, spec, "j1")
    _, second, second_hit = _run_job(state, spec, "j2")
    assert (first_hit, second_hit) == (False, True)
    assert len(state.run_cache) == 1
    (key,) = state.run_cache._memory
    # Both jobs hold the cache's own payload, not copies of it, and the
    # cache-hit flag travels beside the result, not inside it.
    assert first is second is state.run_cache.get_payload(key)
    assert "__cache_hit__" not in first
