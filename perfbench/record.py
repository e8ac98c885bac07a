"""Run the benchmark over several seeds and summarise every metric.

    python3 perfbench/record.py [--workloads los-grid,sweep-l] [--seeds 1-10]
                                [--trace 0] [--out FILE]

Runs run.py once per (workload, seed), for run_seconds of BENCHMARK.json as
the benchmark's command line does, and prints, for each metric, the
median, the quartiles and the spread (q3 - q1) / median over the seeds,
next to the metric's bound from BENCHMARK.json.  --out writes the same
summary, each run's outcome and the machine's fingerprint as JSON.
A seed may repeat (--seeds 7,7,7,7,7) to show the spread of one input.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def run_once(workload: str, seed: int, trace: int, seconds: float) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--trace", str(trace),
           "--seconds", str(seconds)]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=200)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return {"seed": seed, "exit_code": proc.returncode,
                "stderr": proc.stderr.strip()[-2000:]}
    fingerprint = next((json.loads(line.split(" ", 1)[1]) for line in lines
                        if line.startswith("fingerprint ")), None)
    result = json.loads(lines[-1])
    return {"seed": seed, "exit_code": 0, "fingerprint": fingerprint,
            "stderr": proc.stderr.strip()[-2000:], **result}


def summarise(runs: list[dict]) -> dict:
    ok = [r for r in runs if r["exit_code"] == 0]
    out = {}
    for name in (ok[0]["metrics"] if ok else {}):
        values = [r["metrics"][name]["value"] for r in ok]
        med = statistics.median(values)
        q1, _, q3 = (statistics.quantiles(values, n=4) if len(values) > 1
                     else (med, med, med))
        out[name] = {"unit": ok[0]["metrics"][name]["unit"], "median": med,
                     "q1": q1, "q3": q3,
                     "spread": (q3 - q1) / med if med else None,
                     "values": values}
    return out


def brief(run: dict) -> dict:
    """A run's outcome without its metrics, which the summary holds."""
    out = {k: run[k] for k in ("seed", "exit_code", "correct", "attempted",
                               "failed") if k in run}
    if run.get("stderr"):
        out["stderr"] = run["stderr"]
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", default=",".join(WORKLOADS))
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path)
    args = parser.parse_args()
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}

    report = {"trace": args.trace, "seconds": seconds, "fingerprint": None,
              "workloads": {}}
    all_ok = True
    for workload in args.workloads.split(","):
        runs = []
        for seed in parse_seeds(args.seeds):
            run = run_once(workload, seed, args.trace, seconds)
            status = "ok" if run["exit_code"] == 0 and run["correct"] \
                else "FAILED"
            all_ok &= status == "ok"
            print(f"{workload} seed {seed}: {status}", flush=True)
            if status != "ok":
                print(run["stderr"], file=sys.stderr)
            runs.append(run)
        summary = summarise(runs)
        report["workloads"][workload] = {
            "summary": summary, "runs": [brief(r) for r in runs]}
        if report["fingerprint"] is None:
            report["fingerprint"] = next(
                ({k: v for k, v in r["fingerprint"].items()
                  if k not in ("workload", "seed")}
                 for r in runs if r.get("fingerprint")), None)
        print(f"\n{workload}: median [q1, q3] spread (bound) over "
              f"{len(runs)} seeds")
        for name, s in summary.items():
            bound = bounds.get(name)
            spread = "-" if s["spread"] is None else f"{s['spread']:.3f}"
            print(f"  {name:45s} {s['median']:12.5g} {s['unit']:8s} "
                  f"[{s['q1']:.5g}, {s['q3']:.5g}] {spread}"
                  + (f" ({bound})" if bound is not None else ""))
        print(flush=True)
    if args.out:
        args.out.write_text(json.dumps(report, indent=1) + "\n")
    return 0 if all_ok else 1


if __name__ == "__main__":
    sys.exit(main())
