"""Run the `repro` command line in this process, with spans installed.

    PERFBENCH_SPANS=spans.json python perfbench/launcher.py run gemm --unroll 4

Times ``import repro``, wraps the public layer boundaries
(`spans.install`), calls ``repro.cli.main(argv)`` inside a ``cli`` span
and writes every span to the file named by ``PERFBENCH_SPANS`` when the
process exits.  The traced rounds of the ``cli`` and ``serve``
workloads start their children through this file instead of
``python -m repro``.
"""

import atexit
import os
import sys
import time

import spans


def main() -> int:
    start = time.perf_counter()
    import repro  # noqa: F401 - timed

    spans.record("import", start, time.perf_counter())
    spans.install()
    atexit.register(spans.dump, os.environ["PERFBENCH_SPANS"])
    span = spans.open_span("cli")
    try:
        import repro.cli

        return repro.cli.main(sys.argv[1:])
    finally:
        spans.close_span(span)


if __name__ == "__main__":
    sys.exit(main())
