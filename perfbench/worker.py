"""The measuring process: set up one workload, then run whole rounds.

Started by `run.py`.  Prints ``READY`` on stdout once set-up is done
(the parent times set-up up to that line).  With ``--setup-only`` it
stops there; otherwise it repeats whole rounds for as close to
``--seconds`` as whole rounds allow (and at least `MIN_ROUNDS`), and
writes the records to ``--out`` as JSON.

With ``--trace 1`` rounds alternate between untraced (the baseline for
the tracing overhead) and traced; the spans of this process and of every
traced child are written out with the rounds.
"""

import argparse
import json
import sys
import time
from pathlib import Path

#: End-to-end figures are medians over rounds, so a run has at least
#: three, even when they take longer than ``--seconds`` (a `kernels`
#: round takes about 13 s).
MIN_ROUNDS = 3


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--root", required=True)
    parser.add_argument("--tmp", required=True)
    parser.add_argument("--out")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()
    root = Path(args.root)

    start = time.perf_counter()
    sys.path.insert(0, str(root / "src"))
    import repro  # noqa: F401 - timed: part of set-up

    import_s = time.perf_counter() - start
    import loads
    import spans

    env = loads.Env(root, Path(args.tmp), args.seed)
    workload = loads.WORKLOADS[args.workload](env)
    out = {"import_s": import_s, "baseline": [], "rounds": [], "spans": []}
    try:
        workload.setup()
        print("READY", flush=True)
        if args.setup_only:
            return 0
        if args.trace:
            spans.install()
        begin = time.perf_counter()
        first_traced = None
        while True:
            # A traced run alternates untraced (baseline) and traced
            # rounds, so drift of the host cancels out of the overhead.
            traced = bool(args.trace) and len(out["baseline"]) > len(out["rounds"])
            workload.set_traced(traced)
            t0 = time.perf_counter()
            if traced and first_traced is None:
                first_traced = t0
            ops = workload.round()
            record = {"wall": time.perf_counter() - t0, "ops": ops}
            if args.trace and not traced:
                out["baseline"].append(record)
                continue
            out["rounds"].append(record)
            # Stop when one more round (a traced and an untraced one when
            # tracing) would end farther from ``--seconds`` than now.
            elapsed = time.perf_counter() - begin
            step = elapsed / len(out["rounds"])
            if (len(out["rounds"]) >= MIN_ROUNDS
                    and elapsed + step / 2 >= args.seconds):
                break
    finally:
        workload.close()
    if args.trace:
        # perf_counter is CLOCK_MONOTONIC, shared by every process on the
        # host, so the traced server's warm-up spans can be cut off.
        collected = [dict(s, proc=0) for s in spans.spans()]
        for proc, path in enumerate(env.span_files, start=1):
            if path.exists():
                collected.extend(dict(s, proc=proc)
                                 for s in json.loads(path.read_text()))
        out["spans"] = [s for s in collected
                        if s["name"] == "import" or s["start"] >= first_traced]
    Path(args.out).write_text(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
