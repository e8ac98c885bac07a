import csv
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import lisrate
from lisrate import cli, experiments
from lisrate.asymptotics import asymptotic_rate_moments
from lisrate.channel import los_channel
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

FAST = dict(kind="uniform-room", num_devices=4, m_grid=(16,), drops=2,
            realizations=64, seed=1)


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
        ("log_base", "2"), ("seed", -1), ("paths_per_antenna", 0.0),
        ("paths_per_antenna", -1.0), ("paths_per_antenna", math.nan),
        ("paths_per_antenna", math.inf), ("beta_pl", 0.0), ("beta_pl", -3.7),
        ("beta_pl", math.nan), ("beta_pl", math.inf),
    ])
    def test_validation(self, field, value):
        cfg = ScenarioConfig(**{**FAST, field: value})
        with pytest.raises(ConfigError):
            cfg.validate()

    def test_mimo_allows_non_square_m(self):
        ScenarioConfig(**{**FAST, "kind": "mimo-baseline",
                          "m_grid": (8,)}).validate()

    def test_mimo_rejects_odd_m(self):
        with pytest.raises(ConfigError):
            ScenarioConfig(**{**FAST, "kind": "mimo-baseline",
                              "m_grid": (9,)}).validate()

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
        (x0, x1), (y0, y1), z = cfg.plane
        lattice = place_devices_grid(cfg.d_m, (x0, x1), (y0, y1), z)[1:]
        by_channel = {los_channel(d, drop.grid).tobytes(): d.index
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
        assert [r.num_antennas for r in reports] == [16, 25]
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
    return experiments._blas_thread_control()[0]()


needs_blas_control = pytest.mark.skipif(
    experiments._blas_thread_control() is None,
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
    def test_tasks_run_with_planned_threads(self):
        cpus = experiments._usable_cpus()
        for tasks, workers in ((1, 1), (cpus, 1), (2 * cpus, 2)):
            threads = _fan_out_plan(tasks, cpus, workers)[1]
            seen = _fan_out(_blas_threads_now, [()] * tasks, workers)
            assert seen == [threads] * tasks

    @needs_blas_control
    def test_run_scenario_restores_thread_count(self):
        cfg = ScenarioConfig(**FAST)
        planned = _fan_out_plan(cfg.drops, experiments._usable_cpus(), 1)[1]
        # Start from a count other than the planned one, so that a missed
        # restore shows.
        before = 2 if planned == 1 else 1
        with experiments._blas_threads(before):
            if _blas_threads_now() != before:
                pytest.skip("BLAS ignores the requested thread count")
            run_scenario(cfg, workers=1)
            assert _blas_threads_now() == before


class TestOptimalL:
    def test_tie_break_prefers_smaller(self):
        cfg = ScenarioConfig(**FAST)
        best, curve = optimal_l_search(cfg, [0.25, 0.25])
        assert best == 0.25
        assert curve[0][1] == pytest.approx(curve[1][1])

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

    def test_validate_huge_half_length_one_line(self, capsys):
        # validate samples in this process, under the same traps as a task
        rc = cli.main(["validate", "--half-length", "1e300",
                       "--realizations", "64"])
        assert rc == cli.EXIT_NUMERICAL
        err = capsys.readouterr().err
        assert err.startswith("numerical failure:") and err.count("\n") == 1

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

    def test_validate_passes(self, capsys):
        rc = cli.main(["validate", "--scenario", "uniform-room", "--devices",
                       "4", "--m-grid", "64", "--drops", "1",
                       "--realizations", "4000", "--seed", "3"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "PASS" in out and "FAIL" not in out

    def test_selftest_passes(self, capsys):
        rc = cli.main(["selftest", "--seed", "0"])
        assert rc == 0
        assert "OK" in capsys.readouterr().out

    def test_config_file_flow(self, tmp_path, capsys):
        path = tmp_path / "c.cfg"
        path.write_text("kind = uniform-room\nnum_devices = 4\n"
                        "m_grid = 16\ndrops = 1\nrealizations = 64\n")
        rc = cli.main(["run", "--config", str(path), "--seed", "4"])
        assert rc == 0
