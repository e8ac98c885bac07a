"""One lisrate invocation, measured: import the package, build and validate
the workload's config, then run its `lisrate` command line once.  Prints one
JSON object with the measurements as the last line of standard output.

run.py starts this script in a fresh interpreter for every measured run, so
set-up time includes interpreter start and `ru_maxrss` covers one run only.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import sys
import time
import traceback

from spans import Tracer
from workloads import WORKLOADS


def monotonic() -> float:
    """System-wide monotonic clock, comparable across processes."""
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def gemm_peak_gflops(n=2048, m=1600, p=800, repeats=7) -> float:
    """Best zgemm rate over `repeats` products of shape (n, M) x (M, P), the
    NLOS kernel's GEMM at 2048 draws per chunk, after one warm-up product."""
    import numpy as np
    rng = np.random.default_rng(0)
    a = rng.standard_normal((n, m)) + 1j * rng.standard_normal((n, m))
    b = rng.standard_normal((m, p)) + 1j * rng.standard_normal((m, p))
    a @ b
    best = float("inf")
    for _ in range(repeats):
        t = time.perf_counter()
        a @ b
        best = min(best, time.perf_counter() - t)
    return 8.0 * n * m * p / best / 1e9


def versions(lisrate) -> dict:
    import numpy as np
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (KeyError, TypeError):
        blas = {}
    return {"lisrate": lisrate.__version__, "numpy": np.__version__,
            "blas": blas.get("name", "unknown"),
            "blas_version": blas.get("version", "unknown")}


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--workers", type=int, default=1)
    parser.add_argument("--out", help="CSV the command writes")
    parser.add_argument("--t0", type=float, required=True,
                        help="launch time on the system monotonic clock")
    parser.add_argument("--mode", default="run",
                        choices=("run", "traced", "setup", "gemm"))
    args = parser.parse_args()
    workload = WORKLOADS[args.workload]

    import lisrate
    import lisrate.cli
    lisrate.experiments.config_from_sources(**workload.config_fields(args.seed))
    result = {"setup_s": monotonic() - args.t0}
    if args.mode == "setup":
        result["versions"] = versions(lisrate)
    if args.mode == "gemm":
        result["gemm_peak_gflops"] = gemm_peak_gflops()
    if args.mode in ("setup", "gemm"):
        print(json.dumps(result))
        return 0

    tracer = None
    if args.mode == "traced":
        tracer = Tracer()
        tracer.install(lisrate)
    argv = workload.cli_argv(args.seed, args.workers, args.out)
    t = time.perf_counter()
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            result["exit_code"] = lisrate.cli.main(argv)
    except Exception:  # reported to run.py, which counts the failure
        result["exit_code"] = None
        result["error"] = traceback.format_exc(limit=3)
    result["wall_s"] = time.perf_counter() - t
    result["rss_mb"] = max(
        resource.getrusage(who).ru_maxrss
        for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)) / 1024.0
    if tracer is not None:
        result["trace"] = tracer.summary()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
