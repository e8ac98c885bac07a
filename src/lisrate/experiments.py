"""Scenario orchestration: parameter models, drop generation, rate sweeps,
the surface-size search, and CSV emission."""

from __future__ import annotations

import collections
import csv
import math
import multiprocessing as mp
import os
import typing
from concurrent.futures import ProcessPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from . import asymptotics, baseline_mimo, channel, geometry
from .mc_engine import (RATE, Drop, Link, McResult, chunk_threads,
                        run_monte_carlo)

SPEED_OF_LIGHT = 299792458.0

SCENARIO_KINDS = ("grid-plane", "uniform-room", "mimo-baseline")
INTERFERENCE_MODES = ("los-only", "nlos-only", "probabilistic")

PLANE = ((-10.0, 10.0), (-10.0, 10.0), 1.0)  # grid-plane x, y ranges + height
ROOM = ((-2.0, 2.0), (-2.0, 2.0), (0.0, 2.0))  # uniform-room deployment box


class ConfigError(ValueError):
    pass


@dataclass(frozen=True)
class ScenarioConfig:
    """One experiment, checked on construction; defaults are the reference
    set (3 GHz, 3 dB target SNR, tau 0.5, unit side 0.5 m, cutoff 10 m)."""

    kind: str = "uniform-room"
    num_devices: int = 10
    m_grid: tuple[int, ...] = (100,)
    half_length: float = 0.25
    frequency: float = 3.0e9
    snr_db: float = 3.0
    tau: float = 0.5
    d_c: float = 10.0
    d_m: float = 5.0                    # grid-plane device pitch
    mode: str = "probabilistic"
    drops: int = 10
    realizations: int = 1000
    seed: int = 1
    log_base: str = "e"
    beta_pl: float = 3.7
    paths_per_antenna: float = 0.5      # P = round(M * paths_per_antenna)

    @property
    def wavelength(self) -> float:
        return SPEED_OF_LIGHT / self.frequency

    def __post_init__(self):
        if self.kind not in SCENARIO_KINDS:
            raise ConfigError(f"unknown scenario kind {self.kind!r}")
        if self.mode not in INTERFERENCE_MODES:
            raise ConfigError(f"unknown interference mode {self.mode!r}")
        if not 0.0 <= self.tau < 1.0:
            raise ConfigError("tau must lie in [0, 1)")
        if self.num_devices < 1 or self.drops < 1 or self.realizations < 2:
            raise ConfigError("counts must be positive (realizations >= 2)")
        if self.seed < 0:
            raise ConfigError(f"seed must be nonnegative, got {self.seed}")
        if not all(math.isfinite(v) and v > 0 for v in (
                self.half_length, self.frequency, self.d_c, self.d_m,
                self.beta_pl, self.paths_per_antenna)):
            raise ConfigError("lengths, frequency, beta_pl and "
                              "paths_per_antenna must be positive and finite")
        try:
            snr_ok = 0.0 < 10.0 ** (self.snr_db / 10.0) < math.inf
        except OverflowError:
            snr_ok = False
        if not snr_ok:
            raise ConfigError(f"snr_db = {self.snr_db} has no finite, "
                              "positive linear value")
        if self.log_base != "e":
            raise ConfigError(f"log_base must be 'e' (rates are in nats), "
                              f"got {self.log_base!r}")
        if not self.m_grid or min(self.m_grid) < 1:
            raise ConfigError("m_grid must list one or more positive "
                              "antenna counts")
        for m in self.m_grid:
            if self.kind == "mimo-baseline":
                if m % 2:
                    raise ConfigError(f"M = {m} is odd; the linear-array "
                                      "baseline has P = M/2 paths")
            elif math.isqrt(m) ** 2 != m:
                raise ConfigError(f"M = {m} is not a perfect square")


# One row of `run`'s CSV; its fields are the columns, in order.
RateReport = collections.namedtuple(
    "RateReport", "scenario M K L tau mc_mean mc_mean_se mc_var mc_var_se "
                  "asym_mean asym_var bound log_base seed")

# One point of `sweep-L`'s curve and one row of its CSV.
CurvePoint = collections.namedtuple("CurvePoint", "L asym_mean")


def los_probability(d: float, d_c: float) -> float:
    """Distance-decaying LOS probability (d_c is the cutoff distance)."""
    if d <= 0 or d_c <= 0:
        raise ValueError("distances must be positive")
    return max(0.0, (d_c - d) / d_c)


def rician_factor(d: float) -> float:
    """Distance-dependent Rician factor, 13 - 0.03 d in dB, returned linear."""
    if d <= 0:
        raise ValueError("distance must be positive")
    return 10.0 ** ((13.0 - 0.03 * d) / 10.0)


def _place_devices(config: ScenarioConfig, drop_index: int) -> list[geometry.Device]:
    if config.kind == "grid-plane":
        devices = geometry.place_devices_grid(config.d_m, *PLANE,
                                              config.num_devices)
        if len(devices) < config.num_devices:
            raise ConfigError(
                f"grid deployment yields {len(devices)} devices, "
                f"need {config.num_devices}; decrease d_m or the device count")
        return devices
    seed = np.random.SeedSequence([config.seed, drop_index, 0])
    return geometry.place_devices_uniform(config.num_devices, ROOM, seed)


def make_drop(config: ScenarioConfig, drop_index: int,
              num_antennas: int | None = None,
              half_length: float | None = None) -> Drop:
    """Build the frozen drop `drop_index` from one (K, M) distance array,
    with one array pass each for the LOS vectors, NLOS losses, gains and
    phase steps of all links; the interferers are one stacked `Link` of
    row views of them.  The frozen randomness (device positions, LOS flags,
    one angle stream per device) depends only on (seed, drop_index), so
    sweeping M or the unit size re-materializes the same geometric
    realization."""
    m = num_antennas if num_antennas is not None else config.m_grid[0]
    hl = half_length if half_length is not None else config.half_length
    devices = _place_devices(config, drop_index)

    if config.kind == "mimo-baseline":
        return baseline_mimo.build_mimo_drop(
            devices, m, config.wavelength, (config.seed, drop_index, 3),
            target_snr_db=config.snr_db, tau=config.tau,
            beta_pl=config.beta_pl)

    target, others = devices[0], devices[1:]
    grid = geometry.build_grid(target.position[:2], hl, m, config.wavelength)
    pos = np.array([dev.position for dev in devices])
    d = geometry.distance(pos[:, None], grid.positions)          # (K, M)
    h_los = channel.los_channel(d, pos[:, 2:], grid)
    snr_lin = 10.0 ** (config.snr_db / 10.0)
    # invert each LOS power gain at the unit center (distance = z)
    rho = [snr_lin * 4.0 * math.pi * dev.z**2 for dev in devices]
    flags = np.random.default_rng(np.random.SeedSequence(
        [config.seed, drop_index, 1])).uniform(size=len(others))
    paths = channel.Scattering.none(m, len(others))
    if config.mode != "los-only":
        shape = (len(others), 2, int(round(m * config.paths_per_antenna)))
        angles = np.reshape([np.random.default_rng(np.random.SeedSequence(
            [config.seed, drop_index, 2, dev.index])).uniform(
                -np.pi / 2, np.pi / 2, shape[1:]) for dev in others], shape)
        paths = channel.nlos_scattering(d[1:], grid, angles, config.beta_pl)

    kappa = []
    for off, u in zip(pos[1:] - grid.center, flags):
        # scalar d_center and kappa: norm(axis=1) and array 10**x round apart
        d_center = math.sqrt(off @ off)
        is_los = config.mode == "los-only" or (
            config.mode == "probabilistic"
            and u < los_probability(d_center, config.d_c))
        kappa.append(rician_factor(d_center) if is_los else 0.0)

    links = Link(kappa=np.array(kappa), h_los=h_los[1:], paths=paths,
                 rho=np.array(rho[1:]))
    desired = Link(kappa=math.inf, h_los=h_los[0],
                   paths=channel.Scattering.none(m), rho=rho[0])
    return Drop(desired=desired, links=links, err_amp=np.abs(h_los[0]),
                tau=config.tau, grid=grid, target_z=target.z)


# ---------------------------------------------------------------------------
#  Task fan-out
# ---------------------------------------------------------------------------

def _usable_cpus() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _fan_out_plan(tasks: int, cpus: int, workers: int) -> tuple[int, int]:
    """(processes, chunk threads per task) for `tasks` >= 1 tasks on
    `cpus` CPUs with at most `workers` processes.

    Threads beyond one per task would only wait for cores taken by other
    tasks.  The chunk threads follow the tasks, not the processes, so a
    task gets spare cores only when there are fewer tasks than CPUs, and a
    serial run of at least as many tasks as CPUs keeps to one core, as
    `--workers 1` asks; `--workers` puts the others to use.  The bytes
    depend on neither count: every BLAS call runs on one thread, and a
    chunk is the same call on whichever thread runs it."""
    return min(workers, tasks, cpus), max(1, cpus // min(tasks, cpus))


def _fan_out(fn, args: list[tuple], workers: int) -> list:
    """`[fn(*a) for a in args]`, in order, on at most `workers` processes.

    The one `mc_engine.chunk_threads` context, entered here once with the
    planned chunk threads, also pins BLAS to one thread; forked workers
    inherit both counts.  A single process, or a platform without fork,
    runs the tasks in place."""
    if workers < 1:
        raise ConfigError(f"workers must be at least 1, got {workers}")
    if not args:
        return []
    processes, threads = _fan_out_plan(len(args), _usable_cpus(), workers)
    with chunk_threads(threads):
        if processes <= 1 or "fork" not in mp.get_all_start_methods():
            return [fn(*a) for a in args]
        with ProcessPoolExecutor(max_workers=processes,
                                 mp_context=mp.get_context("fork")) as pool:
            futures = [pool.submit(fn, *a) for a in args]
            return [f.result() for f in futures]


# ---------------------------------------------------------------------------
#  Scenario execution
# ---------------------------------------------------------------------------

@np.errstate(over="raise", invalid="raise", divide="raise")
def _run_task(fn, label: str, config: ScenarioConfig, x, drop_index: int):
    """fn(config, x, drop_index), raising at its first overflow, NaN or
    1/0, numpy's or Python's, an ArithmeticError of the same type with
    `label`=x and the drop named in front of its message."""
    try:
        return fn(config, x, drop_index)
    except ArithmeticError as exc:
        raise type(exc)(f"{label}={x}, drop {drop_index}: {exc}") from exc


def _sampled_drop(config: ScenarioConfig, m: int,
                  drop_index: int) -> tuple[Drop, McResult]:
    drop = make_drop(config, drop_index, num_antennas=m)
    return drop, run_monte_carlo(drop, config.realizations, config.seed,
                                 drop_tag=drop_index)


def _drop_task(config: ScenarioConfig, m: int, drop_index: int):
    drop, mc = _sampled_drop(config, m, drop_index)
    if config.kind == "mimo-baseline":
        # Closed-form moments require a deterministic LOS desired channel.
        asym_mean = asym_var = math.nan
        bound = asymptotics.UNBOUNDED
    else:
        th1 = asymptotics.asymptotic_rate_moments(drop)
        asym_mean, asym_var = th1.mean, th1.variance
        bound = asymptotics.rate_bound(drop)
    # in the order of _DROP_CELLS
    return (mc.mean[RATE], mc.se_mean[RATE], mc.variance[RATE],
            mc.se_variance[RATE], asym_mean, asym_var, bound)


def _per_drop(fn, label: str, config: ScenarioConfig, xs,
              workers: int) -> np.ndarray:
    """_run_task(fn, label, config, x, d) for every x in xs and drop d,
    fanned out, as an array of shape (len(xs), drops) + one result's."""
    tasks = [(fn, label, config, x, d)
             for x in xs for d in range(config.drops)]
    out = np.array(_fan_out(_run_task, tasks, workers))
    return out.reshape((len(xs), config.drops) + out.shape[1:])


# The RateReport cells that _drop_task gives per drop.  run_scenario averages
# each over the drops, except the standard errors, which add in quadrature.
_DROP_CELLS = ("mc_mean", "mc_mean_se", "mc_var", "mc_var_se", "asym_mean",
               "asym_var", "bound")


def _over_drops(name: str, cells: np.ndarray) -> float:
    if name in ("mc_mean_se", "mc_var_se"):
        return float(np.sqrt(np.sum(cells ** 2)) / len(cells))
    return float(cells.mean())


def run_scenario(config: ScenarioConfig, workers: int = 1) -> list[RateReport]:
    """Evaluate every M on the grid, averaging drops; deterministic for a
    fixed (config, seed) regardless of the worker count."""
    per_m = _per_drop(_drop_task, "M", config, config.m_grid, workers)
    # the linear-array baseline has no unit, so no unit size to label
    hl = math.nan if config.kind == "mimo-baseline" else config.half_length
    return [RateReport(
        scenario=config.kind, M=m, K=config.num_devices, L=hl, tau=config.tau,
        log_base=config.log_base, seed=config.seed,
        **{name: _over_drops(name, cells)
           for name, cells in zip(_DROP_CELLS, per_drop.T)})
        for m, per_drop in zip(config.m_grid, per_m)]


def validation_drop(config: ScenarioConfig) -> tuple[Drop, McResult]:
    """Drop 0 at the first M and its Monte-Carlo moments, sampled as a
    `run_scenario` task is, through `_fan_out` and `_run_task`: a lone task
    in place under the same thread rule and traps, whose faults read
    `M=<m>, drop 0: ...`."""
    if config.kind == "mimo-baseline":
        raise ConfigError("validate needs a deterministic LOS desired "
                          "channel, which mimo-baseline does not have")
    task = (_sampled_drop, "M", config, config.m_grid[0], 0)
    return _fan_out(_run_task, [task], workers=1)[0]


def write_csv(rows: list[tuple], path):
    """Emit namedtuple rows as CSV: the field names, then one row per
    tuple; an unbounded rate serializes as `inf`."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(rows[0]._fields)
        writer.writerows(rows)


def _l_task(config: ScenarioConfig, hl: float, drop_index: int) -> float:
    drop = make_drop(config, drop_index, half_length=hl)
    return asymptotics.asymptotic_rate_moments(drop).mean


def optimal_l_search(config: ScenarioConfig, l_grid,
                     workers: int = 1) -> tuple[float, list[CurvePoint]]:
    """Closed-form rate as a function of the unit half-length; returns the
    argmax and the full drop-averaged curve.  Of equal rates the one first
    in `l_grid` wins, and a NaN rate wins if and only if it comes first."""
    if config.kind == "mimo-baseline":
        raise ConfigError("sweep-L needs a deterministic LOS desired "
                          "channel, which mimo-baseline does not have")
    if not len(l_grid) or not all(math.isfinite(hl) and hl > 0
                                  for hl in l_grid):
        raise ConfigError("l_grid must list one or more positive, finite "
                          "half-lengths")
    rates = _per_drop(_l_task, "L", config, l_grid, workers)
    curve = [CurvePoint(float(hl), float(np.mean(r)))
             for hl, r in zip(l_grid, rates)]
    return max(curve, key=lambda point: point.asym_mean).L, curve


# ---------------------------------------------------------------------------
#  Config files
# ---------------------------------------------------------------------------

def parse_tuple(text: str, kind=int) -> tuple:
    """Comma-separated values of type `kind` (int or float); blank text is
    the empty tuple."""
    if not text.strip():
        return ()
    try:
        return tuple(kind(v) for v in text.split(","))
    except ValueError as exc:
        raise ConfigError(f"expected comma-separated {kind.__name__} "
                          f"values, got {text!r}") from exc


# The config-file reader of each ScenarioConfig field, from its type.
_READERS = {name: parse_tuple if typing.get_origin(kind) is tuple else kind
            for name, kind in typing.get_type_hints(ScenarioConfig).items()}


def parse_config_file(path) -> dict:
    """Flat `key = value` lines with '#' comments; keys are the
    ScenarioConfig fields."""
    out = {}
    with open(path, errors="replace") as fh:  # bad bytes read as U+FFFD
        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{lineno}: expected 'key = value'")
            key, value = (part.strip() for part in line.split("=", 1))
            if key not in _READERS:
                raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
            try:
                out[key] = _READERS[key](value)
            except ValueError as exc:  # ConfigError included
                raise ConfigError(f"{path}:{lineno}: cannot read {key} "
                                  f"from {value!r}") from exc
    return out


def config_from_sources(file_path=None, **overrides) -> ScenarioConfig:
    """Defaults, then config file, then keyword overrides (None skipped)."""
    values = {}
    if file_path is not None:
        values.update(parse_config_file(file_path))
    values.update({k: v for k, v in overrides.items() if v is not None})
    try:
        return ScenarioConfig(**values)
    except TypeError as exc:
        raise ConfigError(str(exc)) from exc
