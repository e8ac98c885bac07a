"""Command-line front end.

Exit codes: 0 success, 2 configuration error, 3 numerical failure or out
of memory, 4 I/O error.
"""

from __future__ import annotations

import argparse
import dataclasses
import math
import sys

import numpy as np

from . import asymptotics, experiments, mc_engine
from .channel import Scattering, correlation_factor
from .experiments import ConfigError, ScenarioConfig
from .mc_engine import I, X, Y, Z

EXIT_CONFIG = 2
EXIT_NUMERICAL = 3
EXIT_IO = 4


class _Parser(argparse.ArgumentParser):
    """Usage errors end as config errors: exit 2 with one line."""

    def error(self, message):
        raise ConfigError(f"{self.prog}: {message}")


def _path(text: str) -> str:
    """A file path, refused at parse time if it holds a NUL byte."""
    if "\0" in text:
        raise argparse.ArgumentTypeError(f"path {text!r} holds a NUL byte")
    return text


def _tuple_of(kind):
    """A comma-separated list of `kind` values, refused at parse time."""
    def parse(text: str) -> tuple:
        try:
            return experiments.parse_tuple(text, kind)
        except ConfigError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from exc
    return parse


def _add_scenario(parser):
    """The flags whose dest is a ScenarioConfig field, and --config."""
    parser.add_argument("--config", type=_path, help="key=value config file")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--m-grid", type=_tuple_of(int),
                        help="comma-separated antenna counts")
    parser.add_argument("--drops", type=int)
    parser.add_argument("--realizations", type=int)
    parser.add_argument("--mode", choices=experiments.INTERFERENCE_MODES)
    parser.add_argument("--scenario", dest="kind",
                        choices=experiments.SCENARIO_KINDS)
    parser.add_argument("--devices", dest="num_devices", type=int,
                        metavar="K", help="number of devices K")
    parser.add_argument("--tau", type=float)
    parser.add_argument("--half-length", type=float, help="unit half-length L")


def _add_output(parser):
    parser.add_argument("--out", type=_path, help="output CSV path")
    parser.add_argument(
        "--workers", type=int, default=1,
        help="processes for the (M or L, drop) tasks, capped at the task "
             "count and the usable CPUs (in place where fork is "
             "unavailable); BLAS runs on one thread and a task's spare CPUs "
             "share its draws' chunks, so the output depends neither on this "
             "value nor on the CPU count")


def _build_config(args) -> ScenarioConfig:
    flags = {f.name: getattr(args, f.name, None)
             for f in dataclasses.fields(ScenarioConfig)}
    return experiments.config_from_sources(args.config, **flags)


def _cmd_run(args) -> int:
    config = _build_config(args)
    reports = experiments.run_scenario(config, workers=args.workers)
    if any(not math.isfinite(r.mc_mean) for r in reports):
        print("numerical failure: non-finite Monte-Carlo mean", file=sys.stderr)
        return EXIT_NUMERICAL
    if args.out:
        experiments.write_csv(reports, args.out)
    for r in reports:
        print(f"M={r.M:5d}  mc_mean={r.mc_mean:.4f} "
              f"mc_var={r.mc_var:.3e}  asym_mean={r.asym_mean:.4f} "
              f"bound={r.bound:.4f}")
    return 0


def _cmd_sweep_l(args) -> int:
    config = _build_config(args)
    best, curve = experiments.optimal_l_search(config, args.l_grid,
                                              workers=args.workers)
    for hl, rate in curve:
        print(f"L={hl:.3f}  asym_mean={rate:.4f}")
    print(f"optimal L = {best:.3f}")
    if args.out:
        experiments.write_csv(curve, args.out)
    return 0


def _cmd_validate(args) -> int:
    """Compare MC term moments against their closed forms on one drop,
    each within max(4 SE, 1e-12 |closed|): the rounding floor holds where
    the SE is exactly 0, as for the constant Z at tau = 0."""
    drop, mc = experiments.validation_drop(_build_config(args))
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
        tol = max(4 * se, 1e-12 * abs(want))
        ok = abs(got - want) <= tol
        failed += not ok
        print(f"{'PASS' if ok else 'FAIL'}  {name:10s} mc={got:.6e} "
              f"closed={want:.6e} tol={tol:.2e}")
    return 0 if failed == 0 else EXIT_NUMERICAL


def _cmd_selftest(args) -> int:
    """Quick invariants: the dual-path SINR identity on drops that take all
    three routes of the term kernel, and unit-norm correlation-factor
    columns of a planar and a linear array."""
    if args.seed is not None and args.seed < 0:
        raise ConfigError(f"seed must be nonnegative, got {args.seed}")
    rng = np.random.default_rng(args.seed if args.seed is not None else 0)
    gaps = []
    # Uniform-room drops take the dense route, the baseline's the spectral
    # route, and a 0.1 m unit at M = 400 the ramp basis (r = 180 < P = 200).
    for kind, mode, half_length, m_grid, trials in (
            ("uniform-room", "probabilistic", 0.25, [4, 16, 64], 50),
            ("mimo-baseline", "probabilistic", 0.25, [4, 16, 64], 50),
            ("uniform-room", "nlos-only", 0.05, [400], 3)):
        for trial in range(trials):
            m = int(rng.choice(m_grid))
            config = ScenarioConfig(kind=kind, num_devices=4, m_grid=(m,),
                                    realizations=2, mode=mode, drops=1,
                                    half_length=half_length,
                                    seed=int(rng.integers(1 << 30)))
            drop = experiments.make_drop(config, 0)
            fade_rng = np.random.default_rng(trial)
            fading = mc_engine.draw_fading(drop, fade_rng, 1)
            a = mc_engine.compute_terms(drop, *fading)["gamma"][0]
            b = mc_engine.sinr_direct(drop, *fading)[0]
            gaps.append(float(abs(a - b) / b))
    worst = math.nan if any(map(math.isnan, gaps)) else max(gaps)
    print(f"dual-path SINR identity: worst relative gap {worst:.3e}")
    if not worst <= 1e-10:
        return EXIT_NUMERICAL

    steps = np.pi * np.sin(np.linspace(-1.4, 1.4, 7))
    for n_v, n_h in ((4, 4), (1, 16)):
        paths = Scattering(1.0, np.ones(7), steps, -steps / 2, n_v, n_h)
        norms = np.linalg.norm(correlation_factor(paths), axis=0)
        if np.max(np.abs(norms - 1)) > 1e-12:
            print("correlation factor column norm check failed")
            return EXIT_NUMERICAL
    print("correlation factor column norms: OK")
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
    p_sweep.add_argument("--l-grid", required=True, type=_tuple_of(float),
                         help="comma-separated half-lengths")
    p_self = sub.add_parser("selftest", help="fast structural invariants")
    p_self.add_argument("--seed", type=int)
    for p, func in ((p_run, _cmd_run), (p_sweep, _cmd_sweep_l),
                    (p_val, _cmd_validate), (p_self, _cmd_selftest)):
        p.set_defaults(func=func)

    try:
        args = parser.parse_args(argv)
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            return args.func(args)
    except ConfigError as exc:
        code, message = EXIT_CONFIG, f"config error: {exc}"
    except OSError as exc:
        code, message = EXIT_IO, f"I/O error: {exc}"
    except (ArithmeticError, MemoryError, np.linalg.LinAlgError) as exc:
        code, message = EXIT_NUMERICAL, f"numerical failure: {exc}"
    # one line, also where the message quotes an argument with a newline
    print(message.replace("\n", "\\n"), file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
