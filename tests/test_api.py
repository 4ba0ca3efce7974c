"""The job spec (`repro.api`): one description shared by the CLI and serve.

``repro run``/``sweep``/``analyze`` and ``repro submit`` all build a spec
with `spec_from_args`, and the server reads the same dict, so a CLI run
and a served job of the same parameters must land on one run-cache key.
The reference keys below are written out by hand from the documented
defaults, independently of `repro.api`.
"""

import json
from itertools import product

import pytest

from repro import api
from repro.cli import build_parser, main
from repro.core.config import DeviceConfig
from repro.exec.cache import run_cache_key
from repro.exec.context import SimContext
from repro.serve.jobs import Job
from repro.serve.workers import ServerState, execute_job, job_dedup_key
from repro.system.cnn_scenarios import SCENARIOS
from repro.workloads import get_workload

WORKLOAD = "gemm_dse"

#: (memory, ports, unroll, fu_limits, clock_mhz) rows of the parity table.
PARITY = [(memory, ports, unroll, {}, None)
          for memory, ports, unroll in product(api.MEMORY_KINDS, (1, 4, 8),
                                               (1, 4))]
PARITY += [("spm", 4, 4, {"fp_mul": 2}, None),
           ("spm", 2, 1, {"fp_add": 1, "fp_mul": 1}, 250.0),
           ("cache", 8, 4, {}, 50.0)]


def _run_argv(memory, ports, unroll, fu_limits, clock_mhz):
    argv = ["run", WORKLOAD, "--memory", memory, "--ports", str(ports),
            "--unroll", str(unroll)]
    for name, count in fu_limits.items():
        argv += ["--fu-limit", f"{name}={count}"]
    if clock_mhz is not None:
        argv += ["--clock-mhz", str(clock_mhz)]
    return argv


def _serve_spec(memory, ports, unroll, fu_limits, clock_mhz):
    spec = {"workload": WORKLOAD, "memory": memory, "ports": ports,
            "unroll": unroll}
    if fu_limits:
        spec["fu_limits"] = fu_limits
    if clock_mhz is not None:
        spec["clock_mhz"] = clock_mhz
    return spec


def _reference_key(memory, ports, unroll, fu_limits, clock_mhz):
    workload = get_workload(WORKLOAD)
    kwargs = dict(
        config=DeviceConfig(clock_freq_hz=(clock_mhz or 100.0) * 1e6,
                            read_ports=ports, write_ports=max(1, ports // 2),
                            fu_limits=dict(fu_limits)),
        memory=memory, unroll_factor=unroll)
    if memory in ("spm", "ideal"):
        kwargs.update(spm_bytes=1 << 16, spm_read_ports=ports)
    return run_cache_key(workload.source, workload.func_name, seed=7,
                         **kwargs)


@pytest.mark.parametrize("row", PARITY)
def test_cli_run_and_serve_run_share_one_key(row):
    args = build_parser().parse_args(_run_argv(*row))
    cli_spec = api.spec_from_args(args, "run", args.workload)
    cli_key = SimContext(get_workload(WORKLOAD), seed=args.seed,
                         **api.context_kwargs(cli_spec)).cache_key()
    dedup = job_dedup_key("run", _serve_spec(*row))
    assert dedup == "run:" + cli_key
    assert api.run_key(cli_spec) == cli_key == _reference_key(*row)


@pytest.mark.parametrize("ports,unroll", [([1, 2, 4, 8], 1), ([1, 4], 4),
                                          ([8], 2)])
def test_cli_sweep_and_serve_sweep_configure_the_same_points(ports, unroll):
    args = build_parser().parse_args(
        ["sweep", WORKLOAD, "--ports", *map(str, ports),
         "--unroll", str(unroll)])
    cli_grid, cli_configure = api.sweep_grid(
        api.spec_from_args(args, "sweep", args.workload))
    serve_grid, serve_configure = api.sweep_grid(
        {"workload": WORKLOAD, "ports": ports, "unroll": unroll})
    assert cli_grid == serve_grid == {"ports": ports}
    for point in ({"ports": p} for p in ports):
        assert cli_configure(point) == serve_configure(point)


def test_sweep_spec_defaults_to_the_default_port_grid():
    grid, _ = api.sweep_grid({"workload": WORKLOAD})
    assert grid == {"ports": api.DEFAULTS["sweep_ports"]}
    assert build_parser().parse_args(["sweep", WORKLOAD]).ports \
        == api.DEFAULTS["sweep_ports"]


def _submit_spec(*argv):
    args = build_parser().parse_args(["submit", *argv])
    return api.spec_from_args(args, args.kind, args.target)


def test_submit_sends_unroll_only_when_given():
    assert "unroll" not in _submit_spec("analyze", WORKLOAD)
    assert _submit_spec("analyze", WORKLOAD, "--unroll", "1")["unroll"] == 1
    run = _submit_spec("run", WORKLOAD, "--ports", "4", "8")
    assert run["ports"] == 4 and "unroll" not in run
    assert _submit_spec("sweep", WORKLOAD, "--ports", "1", "2")["ports"] \
        == [1, 2]


def test_submit_resolves_scenarios_like_analyze():
    for name in [*SCENARIOS, "gen:3", "gen:0:racy"]:
        assert _submit_spec("analyze", name) == {"scenario": name,
                                                 "seed": 7}
    # Scenario names only mean scenarios to analyze.
    assert "workload" in _submit_spec("run", "stream")


def test_served_analyze_matches_cli_analyze(capsys):
    assert main(["analyze", WORKLOAD, "--format", "json"]) == 0
    cli = json.loads(capsys.readouterr().out)
    job = Job(id="j1", kind="analyze", spec=_submit_spec("analyze", WORKLOAD))
    served, failure, _ = execute_job(job, ServerState())
    assert failure is None, failure
    assert served["diagnostics"] == cli["diagnostics"]
    assert [d["code"] for d in cli["diagnostics"]].count("DEP202") >= 1
    assert len(cli["diagnostics"]) == 3

