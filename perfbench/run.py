"""lisrate benchmark: run one workload repeatedly and print its metrics.

    python3 perfbench/run.py --workload los-grid --seconds 25 [--seed 7]
                             [--trace 0|1]

Run from anywhere; the package is taken from `src/` next to this directory
and is neither installed nor edited.  Every measured run is one `lisrate`
command line (see workloads.py) in a fresh interpreter started by child.py,
alternating the process pool at workers = nproc with workers = 1, until
`--seconds` (run_seconds of BENCHMARK.json) have passed; a mode faster than
the others (by its median so far) is repeated within a round so that every
mode gets about equal measured time.  BLAS/OpenMP thread variables are passed through as
found and recorded in the fingerprint, never set.

--trace 0 prints the end-to-end metrics of BENCHMARK.json; --trace 1 adds a
traced serial run to each round and prints the per-layer metrics.  Every
run's CSV is checked (workloads.check_output), and all CSVs of one benchmark
run, pooled, serial and traced, must be byte-identical.  A workload with a
reference output (sweep-l) is also run once, unmeasured, at
workloads.REFERENCE_SEED and checked against it; that run counts as attempted.  The last line of
standard output is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from spans import LAYERS, layer_metrics
from workloads import (REFERENCE_SEED, TARGET_SE, WORKLOADS, check_output,
                       worst_se)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# A benchmark run must end within 180 s; stop starting rounds after this.
TIME_LIMIT_S = 150.0
TOP_SPANS = 8


def monotonic() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def git_commit() -> str:
    """HEAD of the checkout's own .git, read without calling git, which
    would search parent directories."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def kill(proc) -> None:
    """Kill a child with any pool workers it started, then reap it."""
    os.killpg(proc.pid, signal.SIGKILL)
    proc.communicate()


class Bench:
    def __init__(self, workload, seed: int, out_dir: Path, deadline: float):
        self.workload = workload
        self.seed = seed
        self.out_dir = out_dir
        self.deadline = deadline
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p)
        self.runs = []

    def child(self, *extra: str, seed: int | None = None
              ) -> tuple[dict | None, str]:
        """Start child.py and return its JSON result, or None and why."""
        t0 = monotonic()
        cmd = [sys.executable, str(HERE / "child.py"),
               "--workload", self.workload.name,
               "--seed", str(self.seed if seed is None else seed),
               "--t0", repr(t0), *extra]
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE,
                                stderr=subprocess.PIPE, text=True,
                                env=self.env, cwd=ROOT,
                                start_new_session=True)
        try:
            out, err = proc.communicate(
                timeout=max(5.0, self.deadline - monotonic()))
        except subprocess.TimeoutExpired:
            kill(proc)
            return None, "timed out"
        except BaseException:
            kill(proc)
            raise
        if proc.returncode != 0:
            return None, f"exit code {proc.returncode}: {err.strip()[-500:]}"
        try:
            return json.loads(out.strip().splitlines()[-1]), ""
        except (IndexError, json.JSONDecodeError):
            return None, "no result line"

    def measure(self, mode: str, workers: int) -> dict:
        """One run of the workload; mode "reference" runs it serially at
        REFERENCE_SEED and checks it against the workload's reference."""
        out = self.out_dir / f"{mode}-{len(self.runs)}.csv"
        reference = mode == "reference"
        result, why = self.child(
            "--workers", str(workers), "--out", str(out),
            "--mode", "traced" if mode == "traced" else "run",
            seed=REFERENCE_SEED if reference else None)
        run = {"mode": mode, "result": result, "problems": [], "csv": None}
        if result is None:
            run["problems"].append(why)
        elif result["exit_code"] != 0:
            run["problems"].append(f"lisrate exit code {result['exit_code']}"
                                   f" {result.get('error', '')}".strip())
        else:
            try:
                run["csv"] = out.read_bytes()
            except OSError as exc:
                run["problems"].append(f"no output: {exc}")
            else:
                run["problems"] += check_output(
                    self.workload, run["csv"].decode(), reference)
        self.runs.append(run)
        return run

    def median_wall(self, mode: str) -> float | None:
        walls = [r["result"]["wall_s"] for r in self.runs
                 if r["mode"] == mode and r["result"]]
        return statistics.median(walls) if walls else None

    def compare_outputs(self) -> bytes | None:
        """Every CSV of the benchmark's seed must equal the first passing
        serial run's bytes."""
        reference = next((r["csv"] for r in self.runs if r["mode"] == "serial"
                          and not r["problems"]), None)
        for run in self.runs:
            if run["problems"] or run["mode"] == "reference":
                continue
            if reference is None:
                run["problems"].append("no passing serial run to compare to")
            elif run["csv"] != reference:
                run["problems"].append(f"{run['mode']} CSV differs from the "
                                       "serial CSV")
        return reference


def median_of(runs, key):
    return statistics.median(r["result"][key] for r in runs)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, required=True,
                        help="run_seconds of BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (ROOT / "src" / "lisrate" / "__init__.py").is_file():
        print(f"lisrate sources not found under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    start = monotonic()
    nproc = len(os.sched_getaffinity(0))
    out_dir = ROOT / ".perfbench_out" / f"{args.workload}-{os.getpid()}"
    out_dir.mkdir(parents=True, exist_ok=True)
    bench = Bench(WORKLOADS[args.workload], args.seed, out_dir,
                  deadline=start + TIME_LIMIT_S)
    try:
        # Untimed: warms the file cache and reports versions.
        versions, why = bench.child("--mode", "setup")
        if versions is None:
            print(f"set-up failed: {why}", file=sys.stderr)
            return 1
        fingerprint = {
            "nproc": nproc, "python": platform.python_version(),
            **versions["versions"],
            "thread_env": {v: os.environ.get(v) for v in THREAD_VARS},
            "commit": git_commit(), "workload": args.workload,
            "seed": args.seed, "seconds": args.seconds, "trace": args.trace}
        print("fingerprint " + json.dumps(fingerprint))
        if bench.workload.reference:
            bench.measure("reference", 1)

        modes = [("pool", nproc), ("serial", 1)]
        if args.trace:
            modes.append(("traced", 1))
        stop = start + args.seconds
        repeats = dict.fromkeys(modes, 1)
        while True:
            t = monotonic()
            for mode in modes:
                for _ in range(repeats[mode]):
                    bench.measure(*mode)
            now = monotonic()
            if now + (now - t) > min(stop, bench.deadline):
                break
            walls = {mode: bench.median_wall(mode[0]) for mode in modes}
            if all(walls.values()):
                # Repeat faster modes so that each gets about as much
                # measured time as the slowest, and as many samples as fit.
                slowest = max(walls.values())
                repeats = {m: max(1, round(slowest / w))
                           for m, w in walls.items()}
        gemm = None
        if args.trace:
            gemm, why = bench.child("--mode", "gemm")
            if gemm is None:
                print(f"GEMM probe failed: {why}", file=sys.stderr)
                return 1
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
        try:
            out_dir.parent.rmdir()
        except OSError:
            pass

    reference = bench.compare_outputs()
    failed = sum(bool(r["problems"]) for r in bench.runs)
    for i, run in enumerate(bench.runs):
        for problem in run["problems"]:
            print(f"run {i} ({run['mode']}) failed: {problem}",
                  file=sys.stderr)
    passing = {mode: [r for r in bench.runs
                      if r["mode"] == mode and not r["problems"]]
               for mode, _ in modes}
    if not all(passing.values()) or reference is None:
        print("no passing run of some mode; no metrics", file=sys.stderr)
        return 1

    wall = median_of(passing["pool"], "wall_s")
    serial = median_of(passing["serial"], "wall_s")
    print(f"runs: {len(bench.runs)} attempted, {failed} failed")
    for mode, runs in passing.items():
        print(f"{mode:6s} wall_s: " + " ".join(
            f"{r['result']['wall_s']:.3f}" for r in runs))
    if args.trace:
        metrics = traced_metrics(passing["traced"], wall, serial,
                                 gemm["gemm_peak_gflops"])
    else:
        results = [r["result"] for r in bench.runs if r["result"]]
        se = worst_se(reference.decode()) if bench.workload.monte_carlo \
            else None
        metrics = {
            "setup_s": statistics.median(r["setup_s"] for r in results),
            "wall_s": wall,
            "serial_wall_s": serial,
            # A closed form has no sampling error: one run reaches any SE.
            "time_to_se_s": wall * (se / TARGET_SE) ** 2 if se else wall,
            "peak_rss_mb": median_of(passing["pool"], "rss_mb"),
            "ok_frac": 1.0 - failed / len(bench.runs),
        }
    report = {}
    for m in wanted:
        report[m["name"]] = {"value": metrics[m["name"]], "unit": m["unit"]}
        print(f"{m['name']:45s} {metrics[m['name']]:14.6g} {m['unit']}")
    print(json.dumps({"correct": failed == 0, "attempted": len(bench.runs),
                      "failed": failed, "metrics": report}))
    return 0


def traced_metrics(traced, wall: float, serial: float, gemm: float) -> dict:
    """Medians over the traced runs of each per-layer metric, the pool
    speed-up and the tracing overhead; prints the largest self times."""
    per_run = [layer_metrics(r["result"]["trace"], r["result"]["wall_s"], gemm)
               for r in traced]
    metrics = {k: statistics.median(m[k] for m in per_run) for k in per_run[0]}
    metrics["experiments.pool.speedup"] = serial / wall
    traced_wall = median_of(traced, "wall_s")
    metrics["trace.overhead"] = traced_wall / serial - 1.0
    first = traced[0]["result"]
    spans = first["trace"]["spans"]
    print(f"largest self times of traced run 0 ({first['wall_s']:.3f} s), "
          "with each span's total time and share of the wall:")
    for name, v in sorted(spans.items(), key=lambda kv: -kv[1]["self_s"])[
            :TOP_SPANS]:
        print(f"  {name:42s} self {v['self_s']:8.4f} s "
              f"{v['self_s'] / first['wall_s']:6.1%}  total "
              f"{v['total_s']:8.4f} s {v['total_s'] / first['wall_s']:6.1%}"
              f" {v['calls']:7d} calls")
    print("self time by layer: " + ", ".join(
        f"{layer} {metrics[layer + '.self_s']:.3f} s" for layer in LAYERS))
    if first["trace"]["meter_errors"]:
        print(f"warning: {first['trace']['meter_errors']} counter reads "
              "failed", file=sys.stderr)
    return metrics


if __name__ == "__main__":
    sys.exit(main())
