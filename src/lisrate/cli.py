"""Command-line front end.

Exit codes: 0 success, 2 configuration error, 3 numerical failure or out
of memory, 4 I/O error.
"""

from __future__ import annotations

import argparse
import math
import sys

import numpy as np

from . import asymptotics, experiments, mc_engine
from .experiments import ConfigError, ScenarioConfig
from .mc_engine import I, X, Y, Z

EXIT_CONFIG = 2
EXIT_NUMERICAL = 3
EXIT_IO = 4


class _Parser(argparse.ArgumentParser):
    """Usage errors end as config errors: exit 2 with one line."""

    def error(self, message):
        raise ConfigError(f"{self.prog}: {message}")


def _add_scenario(parser):
    parser.add_argument("--config", help="flat key=value config file")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--m-grid", help="comma-separated antenna counts")
    parser.add_argument("--drops", type=int)
    parser.add_argument("--realizations", type=int)
    parser.add_argument("--mode", choices=experiments.INTERFERENCE_MODES)
    parser.add_argument("--scenario", choices=experiments.SCENARIO_KINDS)
    parser.add_argument("--devices", type=int, help="number of devices K")
    parser.add_argument("--tau", type=float)
    parser.add_argument("--half-length", type=float, help="unit half-length L")


def _add_output(parser):
    parser.add_argument("--out", help="output CSV path")
    parser.add_argument(
        "--workers", type=int, default=1,
        help="processes for the (M or L, drop) tasks, capped at the task "
             "count and the usable CPUs; BLAS threads per task follow the "
             "task count, so the output never depends on this value")


def _build_config(args) -> ScenarioConfig:
    m_grid = None
    if args.m_grid is not None:
        m_grid = experiments.parse_tuple(args.m_grid)
    return experiments.config_from_sources(
        file_path=args.config, seed=args.seed, m_grid=m_grid,
        drops=args.drops, realizations=args.realizations, mode=args.mode,
        kind=args.scenario, num_devices=args.devices, tau=args.tau,
        half_length=args.half_length)


def _cmd_run(args) -> int:
    config = _build_config(args)
    reports = experiments.run_scenario(config, workers=args.workers)
    if any(not math.isfinite(r.mc_mean) for r in reports):
        print("numerical failure: non-finite Monte-Carlo mean", file=sys.stderr)
        return EXIT_NUMERICAL
    if args.out:
        try:
            experiments.write_csv(reports, args.out)
        except OSError as exc:
            print(f"I/O error: {exc}", file=sys.stderr)
            return EXIT_IO
    for r in reports:
        print(f"M={r.num_antennas:5d}  mc_mean={r.mc_mean:.4f} "
              f"mc_var={r.mc_var:.3e}  asym_mean={r.asym_mean:.4f} "
              f"bound={r.bound:.4f}")
    return 0


def _cmd_sweep_l(args) -> int:
    config = _build_config(args)
    l_grid = experiments.parse_tuple(args.l_grid, float)
    best, curve = experiments.optimal_l_search(config, l_grid,
                                              workers=args.workers)
    for hl, rate in curve:
        print(f"L={hl:.3f}  asym_mean={rate:.4f}")
    print(f"optimal L = {best:.3f}")
    if args.out:
        try:
            with open(args.out, "w") as fh:
                fh.write("L,asym_mean\n")
                for hl, rate in curve:
                    fh.write(f"{hl!r},{rate!r}\n")
        except OSError as exc:
            print(f"I/O error: {exc}", file=sys.stderr)
            return EXIT_IO
    return 0


@np.errstate(over="raise", invalid="raise", divide="raise")
def _cmd_validate(args) -> int:
    """Compare MC term moments against their closed forms on one drop."""
    config = _build_config(args)
    if config.kind == "mimo-baseline":
        raise ConfigError("validate needs a deterministic LOS desired "
                          "channel, which mimo-baseline does not have")
    drop = experiments.make_drop(config, 0)
    mc = mc_engine.run_monte_carlo(drop, config.realizations, config.seed)
    l1 = asymptotics.error_leak_moments(drop)
    l3 = asymptotics.noise_term_moments(drop)
    y_mean = asymptotics.interference_term_moments(drop).mean
    i_mom = asymptotics.total_interference_moments(drop, asymptotic=False)
    checks = [
        ("X mean", mc.mean[X], l1.mean, mc.se_mean[X]),
        ("X var", mc.variance[X], l1.variance, mc.se_variance[X]),
        ("Z mean", mc.mean[Z], l3.mean, mc.se_mean[Z]),
        ("Z var", mc.variance[Z], l3.variance, mc.se_variance[Z]),
        *((f"Y[{j}] mean", mc.mean[Y][j], y_mean[j], mc.se_mean[Y][j])
          for j in range(len(drop.links))),
        ("I mean", mc.mean[I], i_mom.mean, mc.se_mean[I])]

    failed = 0
    for name, got, want, se in checks:
        tol = 4 * se
        ok = abs(got - want) <= tol
        failed += not ok
        print(f"{'PASS' if ok else 'FAIL'}  {name:10s} mc={got:.6e} "
              f"closed={want:.6e} tol={tol:.2e}")
    return 0 if failed == 0 else EXIT_NUMERICAL


def _cmd_selftest(args) -> int:
    """Quick invariants: dual-path SINR identity and steering norms."""
    if args.seed is not None and args.seed < 0:
        raise ConfigError(f"seed must be nonnegative, got {args.seed}")
    rng = np.random.default_rng(args.seed if args.seed is not None else 0)
    worst = 0.0
    for trial in range(50):
        m = int(rng.choice([4, 16, 64]))
        config = ScenarioConfig(kind="uniform-room", num_devices=4,
                                m_grid=(m,), realizations=2,
                                mode="probabilistic", drops=1,
                                seed=int(rng.integers(1 << 30)))
        drop = experiments.make_drop(config, 0)
        fade_rng = np.random.default_rng(trial)
        fading = mc_engine.draw_fading(drop, fade_rng, 1)
        a = mc_engine.compute_terms(drop, *fading)["gamma"][0]
        b = mc_engine.sinr_direct(drop, *fading)[0]
        worst = max(worst, abs(a - b) / b)
    print(f"dual-path SINR identity: worst relative gap {worst:.3e}")
    if worst > 1e-10:
        return EXIT_NUMERICAL

    from .channel import ula_steering, upa_steering
    for theta in np.linspace(-1.4, 1.4, 7):
        n1 = np.linalg.norm(upa_steering(theta, -theta / 2, 16, 0.05, 0.1))
        n2 = np.linalg.norm(ula_steering(theta, 16, 0.05, 0.1))
        if abs(n1 - 1) > 1e-12 or abs(n2 - 1) > 1e-12:
            print("steering vector norm check failed")
            return EXIT_NUMERICAL
    print("steering vector norms: OK")
    return 0


def main(argv=None) -> int:
    parser = _Parser(
        prog="lisrate",
        description="Uplink rate laboratory for surface-based antenna arrays")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a scenario over the M grid")
    p_sweep = sub.add_parser("sweep-L", help="closed-form sweep over unit size")
    p_val = sub.add_parser("validate",
                           help="MC vs closed-form term moments on one drop")
    for p in (p_run, p_sweep, p_val):
        _add_scenario(p)
    for p in (p_run, p_sweep):
        _add_output(p)
    p_sweep.add_argument("--l-grid", required=True,
                         help="comma-separated half-lengths")
    p_self = sub.add_parser("selftest", help="fast structural invariants")
    p_self.add_argument("--seed", type=int)
    for p, func in ((p_run, _cmd_run), (p_sweep, _cmd_sweep_l),
                    (p_val, _cmd_validate), (p_self, _cmd_selftest)):
        p.set_defaults(func=func)

    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return EXIT_IO
    except (ArithmeticError, MemoryError, np.linalg.LinAlgError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
