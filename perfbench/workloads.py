"""The benchmark's workloads: one `lisrate` command line each, plus the checks
that its output must pass.

Shapes follow the commands a user runs (README `run`, the criterion-07
`sweep-L`, an NLOS run at M = 1600, the linear-array baseline); only `drops`
and `realizations` are scaled down so that one run of the command takes a
few seconds and a benchmark run can repeat it.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass

L_GRID = (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8)

# The closed form must sit within this share of the MC mean at M >= 400
# (criterion 04).
CLOSED_FORM_GAP = 0.05
# Criterion 07 puts the sweep's argmax in this range of half-lengths.
ARGMAX_RANGE = (0.3, 0.5)
# sweep-l is also run once at this seed, where criterion 07's rule holds even
# for one drop, and its curve must match SWEEP_REFERENCE, the seed commit's
# output, to this relative tolerance.  The closed form is deterministic, so
# only rounding may differ.
REFERENCE_SEED = 7
SWEEP_REFERENCE = (0.8990496815414283, 2.221805749017572, 2.3131694188321186,
                   2.872766659707674, 2.592913797081258, 2.479031397238673,
                   1.985749234462911, 1.791452565816448)
REFERENCE_RTOL = 1e-9

# time_to_se_s projects the run to a standard error of this many nats.
TARGET_SE = 1e-3

MC_COLUMNS = ("mc_mean", "mc_mean_se", "mc_var", "mc_var_se")
ASYM_COLUMNS = ("asym_mean", "asym_var")


@dataclass(frozen=True)
class Workload:
    name: str
    command: str        # `lisrate` subcommand
    fields: dict        # ScenarioConfig fields; the seed is added per run
    # The output expected at REFERENCE_SEED, or None if there is no such run.
    reference: tuple | None = None

    @property
    def monte_carlo(self) -> bool:
        """False for sweep-L, which is closed form only."""
        return self.command == "run"

    def config_fields(self, seed: int) -> dict:
        return {**self.fields, "seed": seed}

    def cli_argv(self, seed: int, workers: int, out: str) -> list[str]:
        f = self.fields
        argv = [self.command, "--scenario", f["kind"], "--mode", f["mode"],
                "--devices", str(f["num_devices"]),
                "--m-grid", ",".join(str(m) for m in f["m_grid"]),
                "--drops", str(f["drops"]),
                "--realizations", str(f["realizations"]),
                "--seed", str(seed), "--workers", str(workers), "--out", out]
        if self.command == "sweep-L":
            argv += ["--l-grid", ",".join(str(hl) for hl in L_GRID)]
        return argv


WORKLOADS = {w.name: w for w in (
    # MC engine without scattered paths: compute_terms takes its matvec
    # branch, channel builds no factor, and tasks differ 16:1 in size.
    Workload("los-grid", "run", dict(
        kind="grid-plane", mode="los-only", num_devices=10,
        m_grid=(100, 400, 900, 1600), drops=2, realizations=1024)),
    # Closed form only: correlation_factor's per-path loop and the K^2 pair
    # covariance loop, fanned out as many small tasks.
    Workload("sweep-l", "sweep-L", dict(
        kind="uniform-room", mode="probabilistic", num_devices=30,
        m_grid=(100,), drops=1, realizations=2), SWEEP_REFERENCE),
    # GEMM-bound kernel with dense M x M/2 factors: the control where kernel
    # rewrites should not gain, and the peak-memory case.  One drop, so the
    # pool runs a single task and adds only its start-up cost.
    Workload("nlos-grid", "run", dict(
        kind="grid-plane", mode="nlos-only", num_devices=10,
        m_grid=(1600,), drops=1, realizations=1024)),
    # The only user of baseline_mimo and of the stochastic-desired branch of
    # compute_terms.
    Workload("mimo-baseline", "run", dict(
        kind="mimo-baseline", mode="nlos-only", num_devices=30,
        m_grid=(100,), drops=10, realizations=512)),
)}


def parse_rows(text: str) -> list[dict]:
    return list(csv.DictReader(io.StringIO(text)))


def check_output(workload: Workload, text: str,
                 reference: bool = False) -> list[str]:
    """Problems found in one run's CSV; an empty list means it passed.
    `reference` marks the run at REFERENCE_SEED."""
    try:
        rows = parse_rows(text)
        if workload.command == "sweep-L":
            return _check_sweep(rows, workload.reference if reference
                                else None)
        return _check_run(workload, rows)
    except (KeyError, ValueError) as exc:
        return [f"unreadable output: {exc!r}"]


def _check_run(workload: Workload, rows: list[dict]) -> list[str]:
    problems = []
    if [int(r["M"]) for r in rows] != list(workload.fields["m_grid"]):
        problems.append("rows do not match the M grid")
    for r in rows:
        m = r["M"]
        for col in MC_COLUMNS:
            if not math.isfinite(float(r[col])):
                problems.append(f"M={m}: {col} is not finite")
        # The baseline's desired channel is stochastic, so its closed-form
        # columns are documented as nan; an unbounded rate limit is inf.
        for col in ASYM_COLUMNS:
            value = float(r[col])
            if workload.fields["kind"] == "mimo-baseline":
                if not math.isnan(value):
                    problems.append(f"M={m}: {col} should be nan")
            elif not math.isfinite(value):
                problems.append(f"M={m}: {col} is not finite")
        bound = float(r["bound"])
        if math.isnan(bound) or bound == -math.inf:
            problems.append(f"M={m}: bound is {bound}")
        if workload.fields["mode"] == "los-only" and int(m) >= 400:
            mc, asym = float(r["mc_mean"]), float(r["asym_mean"])
            gap = abs(asym - mc) / mc
            if not gap <= CLOSED_FORM_GAP:
                problems.append(f"M={m}: closed form {gap:.2%} from MC")
    return problems


def _check_sweep(rows: list[dict], reference: tuple | None) -> list[str]:
    ls = [float(r["L"]) for r in rows]
    vals = [float(r["asym_mean"]) for r in rows]
    if ls != list(L_GRID):
        return ["rows do not match the L grid"]
    if not all(math.isfinite(v) and v > 0 for v in vals):
        return ["closed-form rate not finite and positive"]
    if reference is None:
        return []
    problems = []
    peak = max(range(len(vals)), key=vals.__getitem__)
    if not (all(vals[i] < vals[i + 1] for i in range(peak))
            and all(vals[i] > vals[i + 1] for i in range(peak, len(vals) - 1))):
        problems.append("curve is not unimodal (criterion 07)")
    if not ARGMAX_RANGE[0] <= ls[peak] <= ARGMAX_RANGE[1]:
        problems.append(f"argmax L={ls[peak]} outside {ARGMAX_RANGE} "
                        "(criterion 07)")
    for hl, v, ref in zip(ls, vals, reference):
        if not math.isclose(v, ref, rel_tol=REFERENCE_RTOL):
            problems.append(f"L={hl}: rate {v!r} differs from the "
                            f"reference {ref!r}")
    return problems


def worst_se(text: str) -> float:
    """Largest per-row standard error of the MC mean rate, in nats."""
    return max(float(r["mc_mean_se"]) for r in parse_rows(text))
