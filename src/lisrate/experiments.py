"""Scenario orchestration: parameter models, drop generation, rate sweeps,
the surface-size search, and CSV emission."""

from __future__ import annotations

import csv
import ctypes
import dataclasses
import functools
import math
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

from . import asymptotics, baseline_mimo, channel, geometry
from .mc_engine import RATE, Drop, Link, run_monte_carlo

SPEED_OF_LIGHT = 299792458.0

SCENARIO_KINDS = ("grid-plane", "uniform-room", "mimo-baseline")
INTERFERENCE_MODES = ("los-only", "nlos-only", "probabilistic")

CSV_HEADER = ("scenario,M,K,L,tau,mc_mean,mc_mean_se,mc_var,mc_var_se,"
              "asym_mean,asym_var,bound,log_base,seed")


class ConfigError(ValueError):
    pass


@dataclass(frozen=True)
class ScenarioConfig:
    """One experiment description; defaults follow the reference parameter set
    (3 GHz carrier, 3 dB target SNR, tau 0.5, unit side 0.5 m, cutoff 10 m)."""

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
    plane: tuple = ((-10.0, 10.0), (-10.0, 10.0), 1.0)   # x, y ranges + height
    room: tuple = ((-2.0, 2.0), (-2.0, 2.0), (0.0, 2.0))  # uniform-deploy box

    @property
    def wavelength(self) -> float:
        return SPEED_OF_LIGHT / self.frequency

    def validate(self):
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


@dataclass(frozen=True)
class RateReport:
    scenario: str
    num_antennas: int
    num_devices: int
    half_length: float
    tau: float
    mc_mean: float
    mc_mean_se: float
    mc_var: float
    mc_var_se: float
    asym_mean: float
    asym_var: float
    bound: float
    log_base: str
    seed: int


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
        (x0, x1), (y0, y1), z = config.plane
        devices = geometry.place_devices_grid(config.d_m, (x0, x1), (y0, y1), z)
        if len(devices) < config.num_devices:
            raise ConfigError(
                f"grid deployment yields {len(devices)} devices, "
                f"need {config.num_devices}; decrease d_m or the device count")
        target = devices[0]
        rest = sorted(devices[1:], key=lambda d: (
            float(np.linalg.norm(d.position - target.position)), d.index))
        return [target] + rest[:config.num_devices - 1]
    seed = np.random.SeedSequence([config.seed, drop_index, 0])
    return geometry.place_devices_uniform(config.num_devices, config.room, seed)


def make_drop(config: ScenarioConfig, drop_index: int,
              num_antennas: int | None = None,
              half_length: float | None = None) -> Drop:
    """Build the frozen drop `drop_index`.

    The frozen randomness (device positions, LOS flags, path angles) depends
    only on (seed, drop_index), so sweeping M or the unit size re-materializes
    the same geometric realization.
    """
    config.validate()
    m = num_antennas if num_antennas is not None else config.m_grid[0]
    hl = half_length if half_length is not None else config.half_length
    devices = _place_devices(config, drop_index)

    if config.kind == "mimo-baseline":
        return baseline_mimo.build_mimo_drop(
            devices, m, config.wavelength, (config.seed, drop_index, 3),
            target_snr_db=config.snr_db, tau=config.tau,
            beta_pl=config.beta_pl)

    target = devices[0]
    grid = geometry.build_grid(target.position[:2], hl, m, config.wavelength)
    h_kk = channel.los_channel(target, grid)
    snr_lin = 10.0 ** (config.snr_db / 10.0)

    def power_control(dev):
        # invert the LOS power gain at the unit center (distance = z)
        return snr_lin * 4.0 * math.pi * dev.z**2

    flag_rng = np.random.default_rng(
        np.random.SeedSequence([config.seed, drop_index, 1]))
    num_paths = int(round(m * config.paths_per_antenna))

    links = []
    for dev in devices[1:]:
        d_center = float(np.linalg.norm(dev.position - grid.center))
        u = flag_rng.uniform()  # drawn for every link to keep streams aligned
        if config.mode == "los-only":
            is_los = True
        elif config.mode == "nlos-only":
            is_los = False
        else:
            is_los = u < los_probability(d_center, config.d_c)
        kappa = rician_factor(d_center) if is_los else 0.0

        if config.mode == "los-only":
            paths = channel.Scattering.none(m)
        else:
            angle_rng = np.random.default_rng(
                np.random.SeedSequence([config.seed, drop_index, 2, dev.index]))
            angles = angle_rng.uniform(-np.pi / 2, np.pi / 2, (2, num_paths))
            paths = channel.nlos_scattering(dev, grid, angles, config.beta_pl)
        links.append(Link(kappa=kappa, h_los=channel.los_channel(dev, grid),
                          paths=paths, rho=power_control(dev)))

    desired = Link(kappa=math.inf, h_los=h_kk,
                   paths=channel.Scattering.none(m), rho=power_control(target))
    return Drop(desired=desired, links=tuple(links), err_amp=np.abs(h_kk),
                tau=config.tau, grid=grid, target_z=target.z)


# ---------------------------------------------------------------------------
#  Task fan-out
# ---------------------------------------------------------------------------

# OpenBLAS's thread-count entry points under the names numpy builds export:
# scipy-openblas with 64- and 32-bit integers (numpy 2), then numpy 1.x.
_BLAS_THREAD_SYMBOLS = (
    ("scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_"),
    ("scipy_openblas_get_num_threads", "scipy_openblas_set_num_threads"),
    ("openblas_get_num_threads64_", "openblas_set_num_threads64_"),
    ("openblas_get_num_threads", "openblas_set_num_threads"),
)


@functools.cache
def _blas_thread_control():
    """OpenBLAS's (get, set) thread-count functions as linked into numpy's
    compiled core module, or None when numpy uses another BLAS."""
    for name in ("numpy._core._multiarray_umath",
                 "numpy.core._multiarray_umath"):
        path = getattr(sys.modules.get(name), "__file__", None)
        if path is None:
            continue
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for get_name, set_name in _BLAS_THREAD_SYMBOLS:
            get = getattr(lib, get_name, None)
            put = getattr(lib, set_name, None)
            if get is not None and put is not None:
                get.argtypes, get.restype = [], ctypes.c_int
                put.argtypes, put.restype = [ctypes.c_int], None
                return get, put
    return None


def _set_blas_threads(n: int) -> None:
    control = _blas_thread_control()
    if control is not None:
        control[1](n)


@contextmanager
def _blas_threads(n: int):
    """Run the body with `n` BLAS threads, then restore the previous count."""
    control = _blas_thread_control()
    if control is None:
        yield
        return
    get, put = control
    before = get()
    put(n)
    try:
        yield
    finally:
        put(before)


def _usable_cpus() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _fan_out_plan(tasks: int, cpus: int, workers: int) -> tuple[int, int]:
    """(processes, BLAS threads per task) for `tasks` >= 1 tasks on `cpus`
    CPUs with at most `workers` processes.

    The thread count follows the task count and never `workers`: BLAS
    results differ in the last bits between thread counts, so this keeps
    the output identical for any worker count.  Threads beyond one per task
    would only wait for cores taken by other tasks."""
    return min(workers, tasks, cpus), max(1, cpus // min(tasks, cpus))


def _fan_out(fn, args: list[tuple], workers: int) -> list:
    """`[fn(*a) for a in args]`, in order, on at most `workers` processes;
    a single process runs the tasks here, without a pool."""
    if workers < 1:
        raise ConfigError(f"workers must be at least 1, got {workers}")
    if not args:
        return []
    processes, threads = _fan_out_plan(len(args), _usable_cpus(), workers)
    if processes <= 1:
        with _blas_threads(threads):
            return [fn(*a) for a in args]
    with ProcessPoolExecutor(max_workers=processes,
                             initializer=_set_blas_threads,
                             initargs=(threads,)) as pool:
        futures = [pool.submit(fn, *a) for a in args]
        return [f.result() for f in futures]


# ---------------------------------------------------------------------------
#  Scenario execution
# ---------------------------------------------------------------------------

# A task raises FloatingPointError at its first overflow, NaN or 1/0.
@np.errstate(over="raise", invalid="raise", divide="raise")
def _drop_task(config: ScenarioConfig, m: int, drop_index: int):
    drop = make_drop(config, drop_index, num_antennas=m)
    mc = run_monte_carlo(drop, config.realizations, config.seed,
                         drop_tag=drop_index)
    if config.kind == "mimo-baseline":
        # Closed-form moments require a deterministic LOS desired channel.
        asym_mean = asym_var = math.nan
        bound = asymptotics.UNBOUNDED
    else:
        th1 = asymptotics.asymptotic_rate_moments(drop)
        asym_mean, asym_var = th1.mean, th1.variance
        bound = asymptotics.rate_bound(drop)
    return (mc.mean[RATE], mc.se_mean[RATE], mc.variance[RATE],
            mc.se_variance[RATE], asym_mean, asym_var, bound)


def _per_drop(fn, config: ScenarioConfig, xs, workers: int) -> np.ndarray:
    """fn(config, x, d) for every x in xs and drop d, fanned out, as an
    array of shape (len(xs), drops) + the shape of one result."""
    out = np.array(_fan_out(fn, [(config, x, d) for x in xs
                                 for d in range(config.drops)], workers))
    return out.reshape((len(xs), config.drops) + out.shape[1:])


def run_scenario(config: ScenarioConfig, workers: int = 1) -> list[RateReport]:
    """Evaluate every M on the grid, averaging drops; deterministic for a
    fixed (config, seed) regardless of the worker count."""
    config.validate()
    per_m = _per_drop(_drop_task, config, config.m_grid, workers)
    n_drops = config.drops
    return [RateReport(
        scenario=config.kind, num_antennas=m,
        num_devices=config.num_devices, half_length=config.half_length,
        tau=config.tau,
        mc_mean=float(per_drop[:, 0].mean()),
        mc_mean_se=float(np.sqrt(np.sum(per_drop[:, 1] ** 2)) / n_drops),
        mc_var=float(per_drop[:, 2].mean()),
        mc_var_se=float(np.sqrt(np.sum(per_drop[:, 3] ** 2)) / n_drops),
        asym_mean=float(per_drop[:, 4].mean()),
        asym_var=float(per_drop[:, 5].mean()),
        bound=float(per_drop[:, 6].mean()),
        log_base=config.log_base, seed=config.seed)
        for m, per_drop in zip(config.m_grid, per_m)]


def write_csv(reports: list[RateReport], path):
    """Emit the fixed-schema CSV; an unbounded rate serializes as `inf`."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_HEADER.split(","))
        for r in reports:
            writer.writerow([
                r.scenario, r.num_antennas, r.num_devices,
                repr(r.half_length), repr(r.tau),
                repr(r.mc_mean), repr(r.mc_mean_se),
                repr(r.mc_var), repr(r.mc_var_se),
                repr(r.asym_mean), repr(r.asym_var), repr(r.bound),
                r.log_base, r.seed])


@np.errstate(over="raise", invalid="raise", divide="raise")
def _l_task(config: ScenarioConfig, hl: float, drop_index: int) -> float:
    drop = make_drop(config, drop_index, half_length=hl)
    return asymptotics.asymptotic_rate_moments(drop).mean


def optimal_l_search(config: ScenarioConfig, l_grid,
                     workers: int = 1) -> tuple[float, list[tuple[float, float]]]:
    """Closed-form rate as a function of the unit half-length; returns the
    argmax (ties toward smaller L) and the full drop-averaged curve."""
    config.validate()
    if not len(l_grid) or not all(math.isfinite(hl) and hl > 0
                                  for hl in l_grid):
        raise ConfigError("l_grid must list one or more positive, finite "
                          "half-lengths")
    rates = _per_drop(_l_task, config, l_grid, workers)
    curve = [(float(hl), float(np.mean(r))) for hl, r in zip(l_grid, rates)]
    best_l, best_rate = curve[0]
    for hl, rate in curve[1:]:
        if rate > best_rate:
            best_l, best_rate = hl, rate
    return best_l, curve


# ---------------------------------------------------------------------------
#  Config files
# ---------------------------------------------------------------------------

# plane and room are tuples of ranges, which the flat file format cannot hold.
_FILE_KEYS = {f.name for f in dataclasses.fields(ScenarioConfig)} \
    - {"plane", "room"}


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


# Config-file readers of the fields that are not floats.
_PARSERS = {"m_grid": parse_tuple, "num_devices": int, "drops": int,
            "realizations": int, "seed": int, "kind": str, "mode": str,
            "log_base": str}


def parse_config_file(path) -> dict:
    """Flat `key = value` lines with '#' comments; keys are the
    ScenarioConfig fields except plane and room."""
    out = {}
    with open(path) as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{lineno}: expected 'key = value'")
            key, value = (part.strip() for part in line.split("=", 1))
            if key not in _FILE_KEYS:
                raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
            try:
                out[key] = _PARSERS.get(key, float)(value)
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
        config = ScenarioConfig(**values)
    except TypeError as exc:
        raise ConfigError(str(exc)) from exc
    config.validate()
    return config
