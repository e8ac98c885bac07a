import csv
import dataclasses
import itertools
import math
import os
import subprocess
import sys
import threading
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import lisrate
from lisrate import cli, experiments, mc_engine
from lisrate.asymptotics import asymptotic_rate_moments
from lisrate.experiments import (
    ConfigError,
    ScenarioConfig,
    _fan_out,
    _fan_out_plan,
    config_from_sources,
    los_probability,
    make_drop,
    optimal_l_search,
    parse_config_file,
    rician_factor,
    run_scenario,
    write_csv,
)
from lisrate.geometry import place_devices_grid
from lisrate.mc_engine import run_monte_carlo

from test_mc_engine import device_los

FAST = dict(kind="uniform-room", num_devices=4, m_grid=(16,), drops=2,
            realizations=64, seed=1)

FILE_KEYS = sorted(f.name for f in dataclasses.fields(ScenarioConfig))

# What a config-file line may hold: ints, lists of antenna counts, floats
# (nan, inf and huge ones too) or free text, under a file key or any other.
CONFIG_VALUES = st.one_of(
    st.integers(-10**30, 10**30).map(str),
    st.lists(st.integers(-4, 2000), min_size=1, max_size=3).map(
        lambda ms: ", ".join(map(str, ms))),
    st.floats().map(repr),
    st.sampled_from(["1e400", "-1e400", "1e308", "-1e308"]),
    st.text(max_size=12))
CONFIG_LINES = st.builds(
    lambda known, other: [*known.items(), *other],
    st.dictionaries(st.sampled_from(FILE_KEYS), CONFIG_VALUES, max_size=6),
    st.lists(st.tuples(st.text(max_size=8), CONFIG_VALUES), max_size=1))

# CLI argv: a valid command line for one command, then at most two flags
# (any command's, or one unknown flag) given any value: ints, floats (nan,
# inf, tiny and huge ones too) or free text.  A size flag's value is small
# or invalid, never large; its text holds no digit.
NUMBERS = st.one_of(st.integers(-10**30, 10**30).map(str),
                    st.floats().map(repr),
                    st.sampled_from(["nan", "inf", "1e-300", "1e308"]))
TEXT = st.text(st.characters(codec="utf-8"), max_size=12)
NO_DIGITS = st.text(st.characters(codec="utf-8", exclude_categories=["Nd"]),
                    max_size=12)
FRACTIONS = st.floats(0.05, 0.95).map(repr)


def _csv(values):
    return values.map(lambda vs: ",".join(map(str, vs)))


def _count(low: int, high: int):
    """(valid, any) values of a count flag: at most `high`, valid from
    `low`, and otherwise a float or text, which no count accepts."""
    return (st.integers(low, high).map(str), st.one_of(
        st.integers(-1, high).map(str), st.floats().map(repr), NO_DIGITS))


SCENARIO_FLAGS = {  # flag: (valid values, any values)
    "--m-grid": (_csv(st.lists(st.sampled_from([4, 9, 16]), min_size=1,
                               max_size=3)),
                 st.one_of(_csv(st.lists(st.sampled_from([0, -4, 10, 16]),
                                         min_size=1, max_size=3)), NO_DIGITS)),
    "--devices": _count(1, 4),
    "--drops": _count(1, 2),
    "--realizations": _count(2, 64),
    "--seed": (st.integers(0, 2**32).map(str), st.one_of(NUMBERS, TEXT)),
    "--tau": (FRACTIONS, st.one_of(NUMBERS, TEXT)),
    "--half-length": (FRACTIONS, st.one_of(NUMBERS, TEXT)),
    "--mode": (st.sampled_from(experiments.INTERFERENCE_MODES), TEXT),
    "--scenario": (st.sampled_from(experiments.SCENARIO_KINDS), TEXT),
    # file names in the test's working directory
    "--config": (st.just("good.cfg"),
                 st.sampled_from(["bad.cfg", "missing.cfg", "."])),
}
SIZE_FLAGS = ("--m-grid", "--devices", "--drops", "--realizations")
OUTPUT_FLAGS = {
    "--out": (st.just("o.csv"), st.sampled_from(["missing/o.csv", "."])),
    "--workers": (st.sampled_from(["1", "2"]),
                  st.sampled_from(["-1", "0", "1", "2"])),
}
L_GRID = {"--l-grid": (
    _csv(st.lists(FRACTIONS, min_size=1, max_size=3)),
    st.one_of(_csv(st.lists(NUMBERS, min_size=1, max_size=3)),
              TEXT.filter(lambda t: t.count(",") <= 2)))}
COMMAND_FLAGS = {
    "run": {**SCENARIO_FLAGS, **OUTPUT_FLAGS},
    "sweep-L": {**SCENARIO_FLAGS, **OUTPUT_FLAGS, **L_GRID},
    "validate": SCENARIO_FLAGS,
    "selftest": {"--seed": SCENARIO_FLAGS["--seed"]},
}
ALL_FLAGS = {**SCENARIO_FLAGS, **OUTPUT_FLAGS, **L_GRID}
UNKNOWN_FLAG = st.from_regex(r"--[a-z][a-z-]{0,8}", fullmatch=True).filter(
    lambda f: not any(k.startswith(f) for k in [*ALL_FLAGS, "--help"]))


@st.composite
def cli_argv(draw):
    command = draw(st.sampled_from(sorted(COMMAND_FLAGS)))
    known = COMMAND_FLAGS[command]
    # the sizes and sweep-L's required --l-grid, then other flags it takes
    required = [f for f in (*SIZE_FLAGS, "--l-grid") if f in known]
    others = sorted(set(known) - set(required))
    optional = draw(st.lists(st.sampled_from(others), unique=True))
    flags = {f: draw(known[f][0]) for f in [*required, *optional]}
    for flag in draw(st.lists(st.sampled_from([*ALL_FLAGS, None]),
                              max_size=2, unique=True)):
        if flag is None:
            flags[draw(UNKNOWN_FLAG)] = draw(TEXT)
        else:
            flags[flag] = draw(ALL_FLAGS[flag][1])
    return [command, *(x for kv in flags.items() for x in kv)]


class TestConfig:
    def test_wavelength(self):
        cfg = ScenarioConfig(frequency=3.0e9)
        assert cfg.wavelength == pytest.approx(0.09993, rel=1e-3)

    @pytest.mark.parametrize("field,value", [
        ("kind", "hexagon"), ("mode", "sometimes"), ("tau", 1.0),
        ("tau", -0.1), ("drops", 0), ("realizations", 1),
        ("half_length", 0.0), ("d_m", -1.0), ("m_grid", (10,)),
        ("m_grid", ()), ("m_grid", (0,)), ("half_length", math.nan),
        ("frequency", math.nan), ("snr_db", math.inf), ("snr_db", math.nan),
        ("snr_db", 4000.0),
        ("log_base", "2"), ("seed", -1), ("paths_per_antenna", 0.0),
        ("paths_per_antenna", -1.0), ("paths_per_antenna", math.nan),
        ("paths_per_antenna", math.inf), ("beta_pl", 0.0), ("beta_pl", -3.7),
        ("beta_pl", math.nan), ("beta_pl", math.inf),
    ])
    def test_validation(self, field, value):
        with pytest.raises(ConfigError):
            ScenarioConfig(**{**FAST, field: value})

    def test_unknown_override_is_config_error(self):
        with pytest.raises(ConfigError, match="bogus"):
            config_from_sources(bogus=1)

    def test_mimo_allows_non_square_m(self):
        ScenarioConfig(**{**FAST, "kind": "mimo-baseline", "m_grid": (8,)})

    def test_mimo_rejects_odd_m(self):
        with pytest.raises(ConfigError):
            ScenarioConfig(**{**FAST, "kind": "mimo-baseline",
                              "m_grid": (9,)})

    def test_config_file_round_trip(self, tmp_path):
        path = tmp_path / "exp.cfg"
        path.write_text(
            "# comment line\n"
            "kind = grid-plane\n"
            "mode = los-only\n"
            "m_grid = 16, 64\n"
            "num_devices = 5\n"
            "tau = 0.3   # trailing comment\n"
            "d_m = 2.5\n")
        values = parse_config_file(path)
        assert values == {"kind": "grid-plane", "mode": "los-only",
                          "m_grid": (16, 64), "num_devices": 5,
                          "tau": 0.3, "d_m": 2.5}
        cfg = config_from_sources(path, seed=9, drops=1)
        assert cfg.kind == "grid-plane" and cfg.seed == 9 and cfg.tau == 0.3

    def test_every_field_is_a_file_key(self, tmp_path):
        # each default written in file syntax reads back as the default
        lines = []
        for f in dataclasses.fields(ScenarioConfig):
            value = f.default
            if isinstance(value, tuple):
                value = ", ".join(map(str, value))
            lines.append(f"{f.name} = {value}\n")
        path = tmp_path / "defaults.cfg"
        path.write_text("".join(lines))
        assert config_from_sources(path) == ScenarioConfig()

    def test_config_file_rejects_unknown_key(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("antennas = 4\n")
        with pytest.raises(ConfigError, match="unknown key"):
            parse_config_file(path)

    @pytest.mark.parametrize("text,lineno", [
        ("drops = two\n", 1), ("kind = grid-plane\nplane = 1\n", 2),
        ("m_grid = 16, x\n", 1), ("tau = half\n", 1),
    ], ids=["int", "tuple-key", "m_grid", "float"])
    def test_config_file_names_line_of_bad_value(self, tmp_path, text,
                                                 lineno):
        path = tmp_path / "bad.cfg"
        path.write_text(text)
        with pytest.raises(ConfigError, match=f"bad.cfg:{lineno}: "):
            parse_config_file(path)

    def test_config_file_rejects_malformed_line(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("just words\n")
        with pytest.raises(ConfigError):
            parse_config_file(path)

    def test_config_file_with_undecodable_bytes(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_bytes(b"tau = 0.5\n\xff\xfe = 1\n")
        with pytest.raises(ConfigError, match="bad.cfg:2: unknown key"):
            parse_config_file(path)

    @settings(max_examples=200, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(CONFIG_LINES)
    def test_any_config_file_gives_config_or_config_error(self, tmp_path,
                                                          lines):
        # parsing and checking only: no drop is built and no process starts
        path = tmp_path / "gen.cfg"
        path.write_text("".join(f"{k} = {v}\n" for k, v in lines),
                        encoding="utf-8")
        try:
            assert isinstance(config_from_sources(path), ScenarioConfig)
        except ConfigError:
            pass


class TestLinkStatistics:
    def test_los_probability(self):
        assert los_probability(2.0, 10.0) == pytest.approx(0.8)
        assert los_probability(10.0, 10.0) == 0.0
        assert los_probability(15.0, 10.0) == 0.0
        with pytest.raises(ValueError):
            los_probability(-1.0, 10.0)

    def test_rician_factor(self):
        assert rician_factor(1.0) == pytest.approx(10 ** (12.97 / 10))
        assert rician_factor(100.0) == pytest.approx(10.0)
        with pytest.raises(ValueError):
            rician_factor(0.0)


class TestMakeDrop:
    def test_geometry_frozen_across_m(self):
        cfg = ScenarioConfig(**FAST)
        a = make_drop(cfg, 0, num_antennas=16)
        b = make_drop(cfg, 0, num_antennas=64)
        assert len(a.links) == len(b.links) == 3
        # same kappas (same positions and LOS flags) despite different M
        assert [l.kappa for l in a.links] == [l.kappa for l in b.links]

    def test_distinct_drops_differ(self):
        cfg = ScenarioConfig(**FAST)
        a = make_drop(cfg, 0)
        b = make_drop(cfg, 1)
        assert [l.kappa for l in a.links] != [l.kappa for l in b.links] or \
            not np.allclose(a.links[0].h_los, b.links[0].h_los)

    def test_modes(self):
        base = {**FAST, "kind": "grid-plane", "num_devices": 5}
        los = make_drop(ScenarioConfig(**{**base, "mode": "los-only"}), 0)
        assert all(l.kappa > 0 and l.num_paths == 0 for l in los.links)
        nlos = make_drop(ScenarioConfig(**{**base, "mode": "nlos-only"}), 0)
        assert all(l.kappa == 0.0 and l.num_paths == 8 for l in nlos.links)

    def test_grid_plane_interferers_are_nearest(self):
        cfg = ScenarioConfig(**{**FAST, "kind": "grid-plane",
                                "num_devices": 5, "d_m": 5.0})
        drop = make_drop(cfg, 0)
        # the target sits at the lattice origin and its 4 nearest
        # neighbours 5 m away laterally; each link is matched to its
        # lattice device by the bytes of its LOS channel
        (x0, x1), (y0, y1), z = experiments.PLANE
        lattice = place_devices_grid(cfg.d_m, (x0, x1), (y0, y1), z,
                                     25)[1:]  # the whole 5 x 5 lattice
        by_channel = {device_los(d, drop.grid).tobytes(): d.index
                      for d in lattice}
        chosen = [by_channel[l.h_los.tobytes()] for l in drop.links]
        nearest = [d.index for d in lattice
                   if np.linalg.norm(d.position[:2]) == pytest.approx(5.0)]
        assert len(nearest) == 4
        assert sorted(chosen) == sorted(nearest)

    def test_power_control_target(self):
        cfg = ScenarioConfig(**{**FAST, "kind": "grid-plane",
                                "num_devices": 2})
        drop = make_drop(cfg, 0)
        assert drop.desired.rho == pytest.approx(10 ** 0.3 * 4 * math.pi)

    def test_angle_stream(self):
        # link j's path angles are two sequential uniform(-pi/2, pi/2, P)
        # draws, elevation then azimuth, of SeedSequence([seed, drop, 2,
        # device index]); uniform-room devices are indexed 0..K-1
        cfg = ScenarioConfig(**{**FAST, "mode": "nlos-only", "seed": 9})
        drop = make_drop(cfg, 1)
        grid = drop.grid
        step = 2 * np.pi * grid.spacing / grid.wavelength
        for index, link in enumerate(drop.links, start=1):
            rng = np.random.default_rng(
                np.random.SeedSequence([cfg.seed, 1, 2, index]))
            theta_v = rng.uniform(-np.pi / 2, np.pi / 2, link.num_paths)
            theta_h = rng.uniform(-np.pi / 2, np.pi / 2, link.num_paths)
            np.testing.assert_allclose(link.paths.step_v,
                                       step * np.sin(theta_v), rtol=1e-14)
            np.testing.assert_allclose(
                link.paths.step_h,
                step * np.sin(theta_h) * np.cos(theta_h), rtol=1e-14)
            np.testing.assert_allclose(
                link.paths.gains, np.sqrt(np.cos(theta_v) * np.cos(theta_h)),
                rtol=1e-14)

    @pytest.mark.parametrize("m", [100, 1600])
    @pytest.mark.parametrize("mode", experiments.INTERFERENCE_MODES)
    @pytest.mark.parametrize("kind", ["grid-plane", "uniform-room"])
    def test_links_equal_a_per_link_build(self, kind, mode, m):
        # every link built on its own, one device at a time, from its own
        # distances and its own flag draw, has the array build's bits
        cfg = ScenarioConfig(kind=kind, mode=mode, num_devices=25,
                             m_grid=(m,), seed=7)
        for index in range(4):
            self.check_per_link_build(cfg, index, mode, m)

    @staticmethod
    def check_per_link_build(cfg, index, mode, m):
        drop = make_drop(cfg, index)
        devices = experiments._place_devices(cfg, index)
        grid = drop.grid
        flag_rng = np.random.default_rng(
            np.random.SeedSequence([7, index, 1]))
        band = 2.0 * math.pi * grid.spacing / grid.wavelength
        want = []
        for dev in devices:
            diff = grid.positions - dev.position
            d = np.sqrt(np.sum(diff * diff, axis=-1))
            h = np.sqrt(dev.z / (4.0 * np.pi * d**3)) \
                * np.exp(-2j * np.pi * d / grid.wavelength)
            d_center = float(np.linalg.norm(dev.position - grid.center))
            u = flag_rng.uniform() if dev is not devices[0] else 0.0
            is_los = mode == "los-only" or (
                mode == "probabilistic" and u < los_probability(d_center,
                                                                cfg.d_c))
            paths = (0.0, np.empty(0), np.empty(0), np.empty(0))
            if mode != "los-only":
                theta_v, theta_h = np.random.default_rng(
                    np.random.SeedSequence([7, index, 2, dev.index])).uniform(
                        -np.pi / 2, np.pi / 2, (2, m // 2))
                paths = (np.maximum(d, 1.0) ** (-cfg.beta_pl / 2.0),
                         np.sqrt(np.cos(theta_v) * np.cos(theta_h)),
                         band * np.sin(theta_v),
                         band * (np.sin(theta_h) * np.cos(theta_h)))
            want.append((h, rician_factor(d_center) if is_los else 0.0,
                         10 ** 0.3 * 4.0 * math.pi * dev.z**2, paths))
        np.testing.assert_array_equal(drop.desired.h_los, want[0][0])
        np.testing.assert_array_equal(drop.err_amp, np.abs(want[0][0]))
        assert drop.desired.rho == want[0][2]
        for link, (h, kappa, rho, paths) in zip(drop.links, want[1:],
                                                strict=True):
            np.testing.assert_array_equal(link.h_los, h)
            assert (link.kappa, link.rho) == (kappa, rho)
            for got, ref in zip((link.paths.loss, link.paths.gains,
                                 link.paths.step_v, link.paths.step_h),
                                paths, strict=True):
                np.testing.assert_array_equal(got, ref)

    def test_grid_plane_too_sparse(self):
        cfg = ScenarioConfig(**{**FAST, "kind": "grid-plane",
                                "num_devices": 100, "d_m": 9.0})
        with pytest.raises(ConfigError, match="decrease d_m"):
            make_drop(cfg, 0)


class TestScatteredDropMemory:
    def test_no_dense_factors_held(self):
        # K = 30 scattered links at M = 1600: dense (M, M/2) factors held
        # for every link would take ~600 MiB; one at a time takes ~20 MiB
        cfg = ScenarioConfig(kind="uniform-room", mode="nlos-only",
                             num_devices=30, m_grid=(1600,), seed=2)
        tracemalloc.start()
        try:
            drop = make_drop(cfg, 0)
            asymptotic_rate_moments(drop)
            run_monte_carlo(drop, 64, cfg.seed)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 150 * 2**20


class TestRunScenario:
    def test_report_shape_and_csv(self, tmp_path):
        cfg = ScenarioConfig(**{**FAST, "m_grid": (16, 25)})
        reports = run_scenario(cfg)
        assert [r.M for r in reports] == [16, 25]
        out = tmp_path / "rates.csv"
        write_csv(reports, out)
        with open(out) as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 2
        assert rows[0]["scenario"] == "uniform-room"
        assert rows[0]["log_base"] == "e"
        assert float(rows[0]["mc_mean"]) == pytest.approx(reports[0].mc_mean)

    def test_unbounded_serializes_as_inf(self, tmp_path):
        cfg = ScenarioConfig(**{**FAST, "kind": "grid-plane",
                                "num_devices": 3, "mode": "nlos-only"})
        reports = run_scenario(cfg)
        assert math.isinf(reports[0].bound)
        out = tmp_path / "rates.csv"
        write_csv(reports, out)
        with open(out) as fh:
            row = list(csv.DictReader(fh))[0]
        assert row["bound"] == "inf"

    def test_numpy_scalar_labels(self, tmp_path):
        # a config from the Python API may hold numpy scalars; the CSV
        # labels must still be the plain numbers
        cfg = ScenarioConfig(**{**FAST, "drops": 1,
                                "half_length": np.float64(0.25),
                                "tau": np.float32(0.5)})
        out = tmp_path / "rates.csv"
        write_csv(run_scenario(cfg), out)
        with open(out) as fh:
            row = list(csv.DictReader(fh))[0]
        assert (row["L"], row["tau"]) == ("0.25", "0.5")

    def test_mimo_reports_nan_asymptotics(self):
        cfg = ScenarioConfig(**{**FAST, "kind": "mimo-baseline",
                                "mode": "nlos-only", "m_grid": (8,)})
        r = run_scenario(cfg)[0]
        assert math.isnan(r.asym_mean) and math.isnan(r.asym_var)
        assert math.isfinite(r.mc_mean)

    def test_workers_do_not_change_results(self):
        cfg = ScenarioConfig(**{**FAST, "m_grid": (16, 25), "drops": 3})
        seq = run_scenario(cfg, workers=1)
        par = run_scenario(cfg, workers=3)
        assert seq == par


def _blas_threads_now() -> int:
    return mc_engine._blas_thread_control()[0]()


def _threads_now() -> tuple[int, int]:
    """(BLAS threads, run_monte_carlo's chunk threads) where it is
    called."""
    return _blas_threads_now(), mc_engine._CHUNK_THREADS


needs_blas_control = pytest.mark.skipif(
    mc_engine._blas_thread_control() is None,
    reason="no run-time control of the BLAS thread count")


class TestFanOut:
    @pytest.mark.parametrize("tasks,cpus,workers,plan", [
        (1, 2, 2, (1, 2)), (8, 2, 2, (2, 1)),
        (3, 8, 64, (3, 2)), (10, 2, 64, (2, 1)),
    ])
    def test_plan(self, tasks, cpus, workers, plan):
        assert _fan_out_plan(tasks, cpus, workers) == plan

    def test_results_in_task_order(self):
        args = [(b, 3) for b in range(9, -1, -1)]
        assert _fan_out(pow, args, workers=2) == [b ** 3 for b, _ in args]

    def test_no_tasks(self):
        assert _fan_out(pow, [], workers=2) == []

    @pytest.mark.parametrize("workers", [0, -3])
    def test_rejects_workers_below_one(self, workers):
        with pytest.raises(ConfigError, match="workers"):
            _fan_out(pow, [(2, 2)], workers=workers)

    @needs_blas_control
    def test_tasks_run_with_planned_threads(self, monkeypatch):
        # every task, forked or in place, runs BLAS on one thread and hands
        # the plan's thread count to its chunks; 4 CPUs give a lone task
        # more than one chunk thread on any machine.  BLAS starts on two
        # threads, so that the suite's one-thread pin cannot hide a missed
        # pin
        get, put = mc_engine._blas_thread_control()
        outer = get()
        put(2)
        try:
            if _blas_threads_now() != 2:
                pytest.skip("BLAS ignores the requested thread count")
            for cpus in (experiments._usable_cpus(), 4):
                monkeypatch.setattr(experiments, "_usable_cpus",
                                    lambda: cpus)
                for tasks, workers in ((1, 1), (cpus, 1), (2 * cpus, 2)):
                    threads = _fan_out_plan(tasks, cpus, workers)[1]
                    seen = _fan_out(_threads_now, [()] * tasks, workers)
                    assert seen == [(1, threads)] * tasks
        finally:
            put(outer)

    @needs_blas_control
    @pytest.mark.parametrize("workers", [1, 2])
    def test_run_scenario_restores_thread_count(self, workers, monkeypatch):
        cfg = ScenarioConfig(**FAST)
        planned = _fan_out_plan(cfg.drops, experiments._usable_cpus(),
                                workers)[1]
        # Start from counts other than the run's (one BLAS thread, the
        # planned chunk threads), so that a missed restore shows.
        before = (2, planned + 1)
        get, put = mc_engine._blas_thread_control()
        outer = get()
        put(before[0])
        try:
            if _blas_threads_now() != before[0]:
                pytest.skip("BLAS ignores the requested thread count")
            monkeypatch.setattr(mc_engine, "_CHUNK_THREADS", before[1])
            run_scenario(cfg, workers=workers)
            assert _threads_now() == before
        finally:
            put(outer)


# nlos-grid's lone task, whose links take the basis route, a uniform-room
# one whose links take the dense route (r >= P), a lone mimo-baseline task,
# whose links take the spectral route, and a lone los-only one, whose links
# take none.
ONE_TASK_RUNS = {
    "basis": ["--scenario", "grid-plane", "--mode", "nlos-only", "--devices",
              "10", "--m-grid", "1600", "--drops", "1", "--realizations",
              "1024", "--seed", "7"],
    "dense": ["--scenario", "uniform-room", "--mode", "nlos-only",
              "--devices", "10", "--m-grid", "900", "--half-length", "0.5",
              "--drops", "1", "--realizations", "1024", "--seed", "7"],
    "spectral": ["--scenario", "mimo-baseline", "--mode", "nlos-only",
                 "--devices", "30", "--m-grid", "100", "--drops", "1",
                 "--realizations", "1024", "--seed", "7"],
    "pathless": ["--scenario", "grid-plane", "--mode", "los-only",
                 "--devices", "10", "--m-grid", "1600", "--drops", "1",
                 "--realizations", "1024", "--seed", "7"]}

# A child that keeps the first argv[1] of its usable CPUs, before numpy
# loads, then runs the CLI on the rest of argv.
PINNED_CLI = ("import os, sys; os.sched_setaffinity(0, sorted("
              "os.sched_getaffinity(0))[:int(sys.argv[1])]); "
              "from lisrate.cli import main; sys.exit(main(sys.argv[2:]))")


@pytest.mark.skipif(
    not hasattr(os, "sched_setaffinity")
    or len(os.sched_getaffinity(0)) < 2, reason="needs two usable CPUs")
@pytest.mark.parametrize("route", sorted(ONE_TASK_RUNS))
def test_csv_bytes_follow_no_cpu_count(route, tmp_path):
    # a lone task gives its spare CPU to its chunks, each the same
    # one-thread call on whichever thread runs it: its CSV on one CPU and on
    # two is the same file
    src = str(Path(lisrate.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH"))))}
    outs = []
    for cpus in (1, 2):
        out = tmp_path / f"{cpus}.csv"
        subprocess.run([sys.executable, "-c", PINNED_CLI, str(cpus), "run",
                        *ONE_TASK_RUNS[route], "--out", str(out)],
                       env=env, check=True, capture_output=True, timeout=300)
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]


class TestOptimalL:
    def test_tie_break_prefers_smaller(self):
        cfg = ScenarioConfig(**FAST)
        best, curve = optimal_l_search(cfg, [0.25, 0.25])
        assert best == 0.25
        assert curve[0][1] == pytest.approx(curve[1][1])

    @pytest.mark.parametrize("rates,best", [
        ([2.0, 2.0, 1.0], 0.5), ([1.0, 2.0, 2.0], 0.3),
        ([math.nan, 2.0, 1.0], 0.5), ([1.0, math.nan, 2.0], 0.4)])
    def test_argmax_keeps_first_of_equal_rates(self, monkeypatch, rates,
                                               best):
        # equal rates go to the earlier grid entry, even when it is the
        # larger L; a NaN rate wins only as the first entry
        monkeypatch.setattr(experiments, "_per_drop",
                            lambda fn, label, cfg, xs, workers:
                            np.array(rates))
        got, curve = optimal_l_search(ScenarioConfig(**FAST), [0.5, 0.3, 0.4])
        assert got == best
        assert [hl for hl, _ in curve] == [0.5, 0.3, 0.4]

    def test_rejects_empty_grid(self):
        with pytest.raises(ConfigError):
            optimal_l_search(ScenarioConfig(**FAST), [])

    @pytest.mark.parametrize("grid", [
        [0.2, -0.2], [0.0], [math.nan], [0.3, math.inf]])
    def test_rejects_bad_half_length(self, grid):
        with pytest.raises(ConfigError, match="half-lengths"):
            optimal_l_search(ScenarioConfig(**FAST), grid)

    def test_workers_do_not_change_curve(self):
        cfg = ScenarioConfig(**FAST)
        grid = [0.2, 0.3, 0.4]
        assert optimal_l_search(cfg, grid, workers=1) == \
            optimal_l_search(cfg, grid, workers=2)

    def test_curve_length(self):
        cfg = ScenarioConfig(**FAST)
        best, curve = optimal_l_search(cfg, [0.2, 0.3, 0.4])
        assert len(curve) == 3
        assert best in {0.2, 0.3, 0.4}


class TestCli:
    def test_run_writes_csv(self, tmp_path, capsys):
        out = tmp_path / "o.csv"
        rc = cli.main(["run", "--scenario", "uniform-room", "--devices", "4",
                       "--m-grid", "16", "--drops", "2", "--realizations",
                       "64", "--seed", "1", "--out", str(out)])
        assert rc == 0
        assert out.exists()
        assert "mc_mean" in capsys.readouterr().out

    def test_config_error_exit_code(self):
        rc = cli.main(["run", "--m-grid", "10", "--devices", "4",
                       "--drops", "1", "--realizations", "64"])
        assert rc == cli.EXIT_CONFIG

    @pytest.mark.parametrize("command,flags", [
        ("run", ["--workers", "0"]), ("run", ["--workers", "-2"]),
        ("sweep-L", ["--workers", "0", "--l-grid", "0.2"]),
        ("run", ["--m-grid", ""]), ("run", ["--m-grid", "16,x"]),
        ("run", ["--half-length", "nan"]),
        ("run", ["--scenario", "mimo-baseline", "--m-grid", "9"]),
        ("run", ["--config", "drops = two\n"]),
        ("run", ["--config", "kind = grid-plane\nplane = 1\n"]),
        ("run", ["--config", "snr_db = inf\n"]),
        ("run", ["--config", "log_base = 2\n"]),
        ("run", ["--seed", "-1"]),
        ("run", ["--config", "paths_per_antenna = -1\n"]),
        ("run", ["--config", "beta_pl = nan\n"]),
        ("sweep-L", ["--l-grid", "0.2,x"]), ("sweep-L", ["--l-grid=-0.2"]),
        ("sweep-L", ["--l-grid", "0.2,nan"]), ("sweep-L", ["--l-grid", ""]),
        ("selftest", ["--seed", "-1"]),
        ("run", ["--config", "snr_db = -4000\n"]),
        ("sweep-L", ["--config", "snr_db = -4000\n", "--l-grid", "0.2"]),
        ("validate", ["--scenario", "mimo-baseline", "--m-grid", "8"]),
        ("validate", ["--workers", "0"]), ("run", ["--bogus"]),
        ("run", ["--mode", "bad"]),
        ("sweep-L", ["--scenario", "mimo-baseline", "--m-grid", "8",
                     "--l-grid", "0.2"]),
        ("run", ["--bogus", "two\nlines"]),
        # a path holding a NUL is refused before any task runs; --config=
        # keeps the value a path, not file text
        ("run", ["--out", "o\x00.csv"]), ("run", ["--config=c\x00.cfg"]),
        ("sweep-L", ["--out", "o\x00.csv", "--l-grid", "0.2"]),
    ])
    def test_bad_input_exit_code(self, command, flags, tmp_path, capsys):
        if "--config" in flags:
            # the value after --config is the file's text; pass its path
            at = flags.index("--config") + 1
            path = tmp_path / "c.cfg"
            path.write_text(flags[at])
            flags = [*flags[:at], str(path), *flags[at + 1:]]
        # selftest takes only --seed
        scenario = [] if command == "selftest" else [
            "--scenario", "uniform-room", "--devices", "4", "--drops", "1",
            "--realizations", "64"]
        rc = cli.main([command, *scenario, *flags])
        assert rc == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("config error:") and err.count("\n") == 1

    @pytest.mark.parametrize("argv", [
        ["validate", "--out", "v.csv"], ["validate", "--workers", "2"],
        ["selftest", "--devices", "4"], ["selftest", "--out", "s.csv"],
    ])
    def test_rejects_flags_the_command_ignores(self, argv, capsys):
        assert cli.main(argv) == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("config error:") and err.count("\n") == 1
        assert "unrecognized arguments" in err

    def test_overflow_exit_code(self, tmp_path, capsys):
        # a finite but huge SNR overflows the closed form's Taylor step
        path = tmp_path / "c.cfg"
        path.write_text("snr_db = 600\n")
        rc = cli.main(["sweep-L", "--scenario", "uniform-room", "--devices",
                       "4", "--drops", "1", "--config", str(path),
                       "--l-grid", "0.2"])
        assert rc == cli.EXIT_NUMERICAL
        err = capsys.readouterr().err
        assert err.startswith("numerical failure:") and err.count("\n") == 1

    def test_overflow_in_a_row_thread_exits_3(self, monkeypatch, capsys):
        # numpy keeps its traps per thread: an overflow in a chunk that
        # runs off the main thread still raises, and the one exit line
        # names the task.  Two usable CPUs give the lone task two chunk
        # threads, and its 1,024 draws 4 chunks.
        monkeypatch.setattr(experiments, "_usable_cpus", lambda: 2)
        row_power, threads = mc_engine._row_power, set()

        def overflowing(a, weights=None):
            if threading.current_thread() is not threading.main_thread():
                threads.add(threading.get_ident())
                np.multiply(np.array([1e308]), 10.0)
            return row_power(a, weights)
        monkeypatch.setattr(mc_engine, "_row_power", overflowing)
        rc = cli.main(["run", "--scenario", "uniform-room", "--mode",
                       "nlos-only", "--devices", "4", "--m-grid", "16",
                       "--drops", "1", "--realizations", "1024"])
        assert rc == cli.EXIT_NUMERICAL and threads
        err = capsys.readouterr().err
        assert err.startswith("numerical failure: M=16, drop 0: ")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("argv", [
        ["run", "--half-length", "1e-300"],
        ["sweep-L", "--l-grid", "1e-300"]])
    def test_tiny_half_length_exit_code(self, argv, capsys):
        # the closed form's spacing**4 underflows to zero
        assert cli.main(argv) == cli.EXIT_NUMERICAL
        err = capsys.readouterr().err
        assert err.startswith("numerical failure:") and err.count("\n") == 1

    @pytest.mark.parametrize("workers", ["1", "2"])
    @pytest.mark.parametrize("argv", [
        ["run", "--half-length", "1e300"],
        ["sweep-L", "--l-grid", "1e300"]])
    def test_huge_half_length_one_line(self, argv, workers):
        # numpy's floating-point warnings are raised inside each task, so
        # stderr holds only the exit message, from a pool worker too; a
        # fresh interpreter shows what a user sees
        src = str(Path(lisrate.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, (src, os.environ.get("PYTHONPATH"))))}
        proc = subprocess.run(
            [sys.executable, "-m", "lisrate.cli", *argv, "--workers", workers],
            capture_output=True, text=True, env=env, timeout=120)
        assert proc.returncode == cli.EXIT_NUMERICAL
        assert proc.stderr.startswith("numerical failure:")
        assert proc.stderr.count("\n") == 1

    @pytest.mark.parametrize("workers", ["1", "2"])
    @pytest.mark.parametrize("argv,task", [
        (["run", "--half-length", "1e300"], "M=100, drop 0: "),
        (["sweep-L", "--l-grid", "1e300"], "L=1e+300, drop 0: "),
        (["run", "--half-length", "1e-300"], "M=100, drop 0: "),
        (["sweep-L", "--l-grid", "1e-300"], "L=1e-300, drop 0: ")])
    def test_numerical_failure_names_its_task(self, argv, task, workers):
        # the one exit line says which (M or L, drop) task failed, also
        # when a pool worker raised it
        src = str(Path(lisrate.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, (src, os.environ.get("PYTHONPATH"))))}
        proc = subprocess.run(
            [sys.executable, "-m", "lisrate.cli", *argv, "--workers", workers],
            capture_output=True, text=True, env=env, timeout=120)
        assert proc.returncode == cli.EXIT_NUMERICAL
        assert proc.stderr.startswith("numerical failure: " + task)
        assert proc.stderr.count("\n") == 1

    @needs_blas_control
    def test_validate_samples_as_a_task(self, monkeypatch, capsys):
        # validate's Monte Carlo runs as run's drop 0 does: one BLAS thread,
        # the usable CPUs (4 here, on any machine) as chunk threads, and a
        # fault named after its task
        monkeypatch.setattr(experiments, "_usable_cpus", lambda: 4)
        seen = []

        def spy(*args, **kwargs):
            seen.append(_threads_now())
            mc = real(*args, **kwargs)
            np.exp(np.float64(1e3))         # overflows under the traps
            return mc

        real = mc_engine.run_monte_carlo
        for module in (experiments, mc_engine):
            monkeypatch.setattr(module, "run_monte_carlo", spy)
        rc = cli.main(["validate", "--m-grid", "16", "--realizations", "64"])
        assert seen == [(1, 4)]
        assert rc == cli.EXIT_NUMERICAL
        err = capsys.readouterr().err
        assert err.startswith("numerical failure: M=16, drop 0: overflow")
        assert err.count("\n") == 1

    def test_validate_huge_half_length_one_line(self, capsys):
        # validate samples its drop as a lone task in this process, under
        # the task's traps
        rc = cli.main(["validate", "--half-length", "1e300",
                       "--realizations", "64"])
        assert rc == cli.EXIT_NUMERICAL
        err = capsys.readouterr().err
        assert err.startswith("numerical failure:") and err.count("\n") == 1

    @settings(max_examples=100, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(cli_argv())
    def test_any_argv_exits_cleanly(self, tmp_path, monkeypatch, capsys,
                                    argv):
        # every input ends in a documented exit code, with at most one line
        # on stderr; file flags name files under tmp_path
        monkeypatch.chdir(tmp_path)
        Path("good.cfg").write_text("seed = 3\nsnr_db = 0\n")
        Path("bad.cfg").write_text("drops = two\n")
        capsys.readouterr()
        assert cli.main(argv) in (0, cli.EXIT_CONFIG, cli.EXIT_NUMERICAL,
                                  cli.EXIT_IO)
        err = capsys.readouterr().err
        assert err == "" or (err.endswith("\n") and err.count("\n") == 1)

    def test_memory_error_exit_code(self, monkeypatch, capsys):
        def exhausted(*args, **kwargs):
            raise MemoryError("Unable to allocate 74.5 GiB for an array")
        monkeypatch.setattr(experiments, "run_scenario", exhausted)
        assert cli.main(["run", "--m-grid", "16"]) == cli.EXIT_NUMERICAL
        err = capsys.readouterr().err
        assert err.startswith("numerical failure: Unable to allocate")
        assert err.count("\n") == 1

    def test_io_error_exit_code(self, tmp_path):
        rc = cli.main(["run", "--scenario", "uniform-room", "--devices", "4",
                       "--m-grid", "16", "--drops", "1", "--realizations",
                       "64", "--out", str(tmp_path / "no" / "dir" / "o.csv")])
        assert rc == cli.EXIT_IO

    def test_sweep_l(self, capsys):
        rc = cli.main(["sweep-L", "--scenario", "uniform-room", "--devices",
                       "4", "--m-grid", "16", "--drops", "1",
                       "--realizations", "64", "--seed", "2",
                       "--l-grid", "0.2,0.3"])
        assert rc == 0
        assert "optimal L" in capsys.readouterr().out

    @pytest.mark.parametrize("command,flags,header", [
        ("run", [], b"scenario,M,K,L,tau,mc_mean,mc_mean_se,mc_var,mc_var_se,"
                    b"asym_mean,asym_var,bound,log_base,seed"),
        ("sweep-L", ["--l-grid", "0.2,0.3"], b"L,asym_mean"),
    ], ids=["run", "sweep-L"])
    def test_csv_header(self, command, flags, header, tmp_path):
        # the README's column lists, in order, and CRLF line ends
        out = tmp_path / "o.csv"
        rc = cli.main([command, "--scenario", "uniform-room", "--devices",
                       "4", "--m-grid", "16", "--drops", "1",
                       "--realizations", "16", "--out", str(out), *flags])
        assert rc == 0
        assert out.read_bytes().split(b"\r\n")[0] == header

    def test_mimo_baseline_has_no_unit_size(self, tmp_path):
        # the linear array reads no half-length, so its CSV labels none
        outs = [tmp_path / f"{hl}.csv" for hl in ("1e-6", "100")]
        for hl, out in zip(("1e-6", "100"), outs):
            rc = cli.main(["run", "--scenario", "mimo-baseline", "--devices",
                           "3", "--m-grid", "8", "--drops", "1",
                           "--realizations", "16", "--half-length", hl,
                           "--out", str(out)])
            assert rc == 0
        assert outs[0].read_bytes() == outs[1].read_bytes()
        with open(outs[0], newline="") as fh:
            assert [row["L"] for row in csv.DictReader(fh)] == ["nan"]

    def test_validate_passes(self, capsys):
        rc = cli.main(["validate", "--scenario", "uniform-room", "--devices",
                       "4", "--m-grid", "64", "--drops", "1",
                       "--realizations", "4000", "--seed", "3"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "PASS" in out and "FAIL" not in out

    def test_validate_passes_with_perfect_csi(self, capsys):
        # at tau = 0 the term Z = ||h||^2 is constant, so its SE is exactly
        # 0: the two sides' sums, which round differently, meet the
        # tolerance's rounding floor instead
        rc = cli.main(["validate", "--scenario", "uniform-room", "--mode",
                       "nlos-only", "--devices", "6", "--m-grid", "400",
                       "--drops", "1", "--realizations", "2000",
                       "--tau", "0"])
        out = capsys.readouterr().out
        assert rc == 0 and "FAIL" not in out
        assert "PASS  Z mean" in out

    def test_selftest_passes(self, capsys):
        rc = cli.main(["selftest", "--seed", "0"])
        assert rc == 0
        assert "OK" in capsys.readouterr().out

    def test_selftest_checks_stochastic_desired_drops(self, monkeypatch,
                                                      capsys):
        # the dual-path identity is checked on both kernel branches
        seen = []
        kernel = mc_engine.compute_terms

        def spy(drop, *fading):
            seen.append(drop.desired.deterministic)
            return kernel(drop, *fading)
        monkeypatch.setattr(mc_engine, "compute_terms", spy)
        assert cli.main(["selftest", "--seed", "0"]) == 0
        assert True in seen and False in seen
        out = capsys.readouterr().out
        assert out.count("dual-path SINR identity") == 1

    def test_selftest_fails_on_nan_gamma(self, monkeypatch, capsys):
        # a NaN gap is no pass: the worst gap reads nan and the exit is 3
        kernel = mc_engine.compute_terms

        def nan_gamma(drop, *fading):
            terms = kernel(drop, *fading)
            terms["gamma"] = np.full_like(terms["gamma"], np.nan)
            return terms
        monkeypatch.setattr(mc_engine, "compute_terms", nan_gamma)
        assert cli.main(["selftest", "--seed", "0"]) == cli.EXIT_NUMERICAL
        out, err = capsys.readouterr()
        assert out.splitlines() == [
            "dual-path SINR identity: worst relative gap nan"]
        assert err == ""

    def test_selftest_reaches_every_route(self, monkeypatch):
        # the identity is checked on each of the term kernel's three routes
        # for ||f^H R_j||^2: spectral, ramp basis and dense factor
        routes = []

        def spy(route, kernel):
            def wrapped(*args, **kwargs):
                routes.append(route)
                return kernel(*args, **kwargs)
            return wrapped
        for route in ("spectral", "basis", "dense"):
            name = f"_{route}_power"
            monkeypatch.setattr(mc_engine, name,
                                spy(route, getattr(mc_engine, name)))
        assert cli.main(["selftest", "--seed", "0"]) == 0
        assert set(routes) == {"spectral", "basis", "dense"}

    def test_scenario_flags_set_their_fields(self, tmp_path, monkeypatch):
        # all ten scenario flags over a config file: each flag sets its
        # field, and the file sets the fields that no flag names
        path = tmp_path / "c.cfg"
        path.write_text("kind = grid-plane\nseed = 3\nsnr_db = 6\n"
                        "d_m = 2.5\nbeta_pl = 3.2\n")
        seen = []
        monkeypatch.setattr(experiments, "run_scenario",
                            lambda config, workers: seen.append(config) or [])
        rc = cli.main(["run", "--config", str(path), "--seed", "9",
                       "--m-grid", "16,36", "--drops", "3",
                       "--realizations", "50", "--mode", "nlos-only",
                       "--scenario", "uniform-room", "--devices", "5",
                       "--tau", "0.25", "--half-length", "0.4"])
        assert rc == 0
        (config,) = seen
        assert dataclasses.asdict(config) == dict(
            kind="uniform-room", num_devices=5, m_grid=(16, 36),
            half_length=0.4, frequency=3.0e9, snr_db=6.0, tau=0.25, d_c=10.0,
            d_m=2.5, mode="nlos-only", drops=3, realizations=50, seed=9,
            log_base="e", beta_pl=3.2, paths_per_antenna=0.5)

    def test_config_file_flow(self, tmp_path, capsys):
        path = tmp_path / "c.cfg"
        path.write_text("kind = uniform-room\nnum_devices = 4\n"
                        "m_grid = 16\ndrops = 1\nrealizations = 64\n")
        rc = cli.main(["run", "--config", str(path), "--seed", "4"])
        assert rc == 0


# The engines at their edges: one antenna or one device, perfect and almost
# useless CSI, a vanishing and a huge unit.
EDGE_TAUS = (0.0, 0.5, 1 - 1e-9)
EDGE_LENGTHS = (1e-6, 0.25, 100.0)
MC_CELLS = ("mc_mean", "mc_mean_se", "mc_var", "mc_var_se")


class TestEdgeInputs:
    @pytest.mark.parametrize("kind, mode", itertools.product(
        experiments.SCENARIO_KINDS, experiments.INTERFERENCE_MODES))
    def test_every_edge_run_exits_with_finite_cells(self, kind, mode,
                                                     tmp_path):
        # every M, K, tau and L combination, 1 drop x 16 draws, through the
        # CLI: exit 0, finite MC cells, finite closed-form cells (nan on
        # the baseline, as documented) and a finite or infinite bound; and
        # a sweep-L over a vanishing and a huge unit where sweep-L applies
        out = tmp_path / "o.csv"
        m_grid = (2, 4, 16) if kind == "mimo-baseline" else (1, 4, 16)
        for m, k, tau in itertools.product(m_grid, (1, 2, 3), EDGE_TAUS):
            base = ["--scenario", kind, "--mode", mode, "--m-grid", str(m),
                    "--devices", str(k), "--tau", repr(tau), "--drops", "1",
                    "--realizations", "16", "--out", str(out)]
            for hl in EDGE_LENGTHS:
                argv = ["run", *base, "--half-length", repr(hl)]
                assert cli.main(argv) == 0, argv
                with open(out) as fh:
                    (row,) = csv.DictReader(fh)
                cells = {c: float(row[c]) for c in (
                    *MC_CELLS, "asym_mean", "asym_var", "bound")}
                closed = [cells["asym_mean"], cells["asym_var"]]
                assert all(math.isfinite(cells[c]) for c in MC_CELLS), row
                if kind == "mimo-baseline":
                    assert all(map(math.isnan, closed)), row
                else:
                    assert all(map(math.isfinite, closed)), row
                assert cells["bound"] == math.inf \
                    or math.isfinite(cells["bound"]), row
            if kind != "mimo-baseline":
                argv = ["sweep-L", *base, "--l-grid", "1e-6,100"]
                assert cli.main(argv) == 0, argv
                with open(out) as fh:
                    rows = list(csv.DictReader(fh))
                assert len(rows) == 2, argv
                assert all(math.isfinite(float(r["asym_mean"]))
                           for r in rows), rows
