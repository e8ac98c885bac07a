"""Acceptance gate: one test per release criterion, each printing a
single PASS/FAIL line (run with `pytest tests/test_acceptance.py -v -s`).

Each criterion states its scenario, sample sizes, and tolerances inline;
the statistical ones use fixed seeds so results are reproducible.
"""

import math
import os
from itertools import combinations

import numpy as np
import pytest
from scipy import stats

from lisrate import asymptotics as asy
from lisrate.experiments import ScenarioConfig, make_drop, run_scenario, write_csv
from lisrate.mc_engine import (
    DEFAULT_CHUNK,
    RATE,
    X,
    Y,
    Z,
    _chunks,
    compute_terms,
    crandn,
    draw_fading,
    run_monte_carlo,
    sinr_direct,
)

from test_mc_engine import sample_yn2_normalized

M_GRID = (100, 400, 900, 1600)


def report(num: int, name: str, ok: bool, detail: str):
    print(f"[criterion {num:02d}] {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {num:02d} {name}: {detail}"


def drop_stats(config, m, n, seed):
    """Per-M drop-averaged MC and closed-form rate statistics."""
    rows = []
    for d in range(config.drops):
        drop = make_drop(config, d, num_antennas=m)
        mc = run_monte_carlo(drop, n, seed, drop_tag=d)
        th = asy.asymptotic_rate_moments(drop)
        rows.append((mc.mean[RATE], mc.se_mean[RATE], mc.variance[RATE],
                     mc.se_variance[RATE], th.mean, th.variance,
                     asy.rate_bound(drop)))
    a = np.array(rows)
    return {
        "mc_mean": a[:, 0].mean(),
        "mc_mean_se": math.sqrt(np.sum(a[:, 1] ** 2)) / len(rows),
        "mc_var": a[:, 2].mean(),
        "mc_var_se": math.sqrt(np.sum(a[:, 3] ** 2)) / len(rows),
        "asym_mean": a[:, 4].mean(),
        "asym_var": a[:, 5].mean(),
        "bound": a[:, 6].mean(),
    }


def test_criterion_01_dual_path_identity():
    """1e3 random drop/realization pairs, M <= 256, K <= 10, 1e-10 relative."""
    rng = np.random.default_rng(2024)
    worst = 0.0
    checked = 0
    while checked < 1000:
        m = int(rng.choice([16, 64, 144, 256]))
        cfg = ScenarioConfig(
            kind="uniform-room", num_devices=int(rng.integers(2, 11)),
            m_grid=(m,), mode="probabilistic", drops=1, realizations=2,
            tau=float(rng.uniform(0.0, 0.9)), seed=int(rng.integers(1 << 30)))
        drop = make_drop(cfg, 0)
        for _ in range(10):
            fading = draw_fading(drop, rng, 1)
            a = compute_terms(drop, *fading)["gamma"][0]
            b = sinr_direct(drop, *fading)[0]
            worst = np.maximum(worst, abs(a - b) / b)  # keeps a NaN
            checked += 1
    report(1, "dual-path SINR identity", worst < 1e-10,
           f"worst relative gap {worst:.2e} over {checked} comparisons")


def test_criterion_02_term_moment_oracles():
    """M=400, tau=0.5, 1e4 realizations: X/Z/Y moments within 3 SE and a
    chi-square(2) KS test on the normalized error leak at the 1% level."""
    cfg = ScenarioConfig(kind="uniform-room", num_devices=8,
                         mode="probabilistic", m_grid=(400,), drops=1,
                         realizations=10000, seed=5)
    drop = make_drop(cfg, 0, num_antennas=400)
    mc = run_monte_carlo(drop, 10000, 5)

    devs = []
    l1 = asy.error_leak_moments(drop)
    devs.append(abs(mc.mean[X] - l1.mean) / mc.se_mean[X])
    devs.append(abs(mc.variance[X] - l1.variance) / mc.se_variance[X])
    l3 = asy.noise_term_moments(drop)
    devs.append(abs(mc.mean[Z] - l3.mean) / mc.se_mean[Z])
    devs.append(abs(mc.variance[Z] - l3.variance) / mc.se_variance[Z])
    lm = asy.interference_term_moments(drop)
    for j in range(len(drop.links)):
        devs.append(abs(mc.mean[Y][j] - lm.mean[j]) / mc.se_mean[Y][j])
        devs.append(abs(mc.variance[Y][j] - lm.variance[j])
                    / mc.se_variance[Y][j])
    worst = max(devs)

    b4 = float(np.sum(np.abs(drop.desired.h_los) ** 4))
    eps = crandn(np.random.default_rng(55), (10000, 400))
    t = compute_terms(drop, eps, None, crandn(np.random.default_rng(56),
                                              (10000, len(drop.links))))
    ks = stats.kstest(2.0 * t["x"] / b4, "chi2", args=(2,))
    ok = worst < 3.0 and ks.pvalue > 0.01
    report(2, "closed-form term moments", ok,
           f"worst deviation {worst:.2f} SE, KS p={ks.pvalue:.3f}")


def test_criterion_03_covariance_oracle():
    """Sample Cov(Y_i, Y_j) over 1e5 realizations vs the asymptotic
    covariance, 5 random LOS pairs, M=400, within 3 SE."""
    cfg = ScenarioConfig(kind="grid-plane", num_devices=10, d_m=1.0,
                         mode="los-only", m_grid=(400,), drops=1,
                         realizations=100000, seed=5)
    drop = make_drop(cfg, 0, num_antennas=400)
    ys = np.concatenate([
        compute_terms(drop, *draw_fading(drop, rng, k))["y"]
        for rng, k in _chunks(100000, DEFAULT_CHUNK, 5, 0)])
    n = ys.shape[0]
    los = [i for i, l in enumerate(drop.links) if l.kappa > 0]
    pairs = list(combinations(los, 2))
    rng = np.random.default_rng(17)
    chosen = [pairs[i] for i in rng.choice(len(pairs), 5, replace=False)]
    worst = 0.0
    for i, j in chosen:
        di = ys[:, i] - ys[:, i].mean()
        dj = ys[:, j] - ys[:, j].mean()
        cov = float(np.mean(di * dj)) * n / (n - 1)
        se = math.sqrt(max(np.mean((di * dj) ** 2) - np.mean(di * dj) ** 2,
                           1e-300) / n)
        worst = np.maximum(  # keeps a NaN
            worst, abs(cov - asy.interference_pair_covariance(drop, i, j)) / se)
    report(3, "interference covariance", worst < 3.0,
           f"worst deviation {worst:.2f} SE over pairs {chosen}")


def test_criterion_04_closed_form_agreement():
    """Grid scenario, K=10: closed-form mean within 5% of MC at M >= 400 and
    a non-increasing gap (3-SE allowance for Monte-Carlo resolution)."""
    cfg = ScenarioConfig(kind="grid-plane", num_devices=10, d_m=5.0,
                         mode="los-only", m_grid=M_GRID, drops=5,
                         realizations=3000, seed=7)
    gaps, slacks = [], []
    for m in M_GRID:
        st = drop_stats(cfg, m, cfg.realizations, cfg.seed)
        gaps.append(abs(st["asym_mean"] - st["mc_mean"]) / st["mc_mean"])
        slacks.append(st["mc_mean_se"] / st["mc_mean"])
    ok_level = all(g <= 0.05 for g in gaps[1:])
    ok_trend = all(
        gaps[i + 1] <= gaps[i] + 3 * math.hypot(slacks[i], slacks[i + 1])
        for i in range(len(gaps) - 1))
    report(4, "closed-form rate agreement", ok_level and ok_trend,
           "gaps " + ", ".join(f"{g:.3%}" for g in gaps))


def test_criterion_05_channel_hardening():
    """Closed-form rate variance strictly decreasing over the M grid with a
    10x total drop; MC variance decreasing within statistical error."""
    cfg = ScenarioConfig(kind="grid-plane", num_devices=10, d_m=1.0,
                         mode="los-only", frequency=6.0e8, m_grid=M_GRID,
                         drops=3, realizations=400, seed=7)
    av, mv, mv_se = [], [], []
    for m in M_GRID:
        st = drop_stats(cfg, m, cfg.realizations, cfg.seed)
        av.append(st["asym_var"])
        mv.append(st["mc_var"])
        mv_se.append(st["mc_var_se"])
    strictly = all(b < a for a, b in zip(av, av[1:]))
    tenfold = av[-1] < 0.1 * av[0]
    mc_ok = all(mv[i + 1] <= mv[i] + 3 * math.hypot(mv_se[i], mv_se[i + 1])
                for i in range(len(mv) - 1))
    report(5, "channel hardening", strictly and tenfold and mc_ok,
           f"asym var ratio {av[-1] / av[0]:.3f}, "
           "asym vars " + ", ".join(f"{v:.2e}" for v in av))


def test_criterion_06_rate_limits():
    """LOS-only interference: rate increasing in M and within 5% of the
    large-M bound at M=1600.  NLOS-only: bound unbounded and at least 20%
    growth from M=100 to M=1600."""
    los = ScenarioConfig(kind="grid-plane", num_devices=10, d_m=1.0,
                         mode="los-only", m_grid=M_GRID, drops=3,
                         realizations=400, seed=7)
    stats_los = [drop_stats(los, m, los.realizations, los.seed)
                 for m in M_GRID]
    means = [s["mc_mean"] for s in stats_los]
    increasing = all(b > a for a, b in zip(means, means[1:]))
    bound_gap = abs(means[-1] - stats_los[-1]["bound"]) / stats_los[-1]["bound"]

    nlos = ScenarioConfig(kind="grid-plane", num_devices=10, d_m=5.0,
                          mode="nlos-only", m_grid=(100, 1600), drops=3,
                          realizations=400, seed=7)
    st_lo = drop_stats(nlos, 100, nlos.realizations, nlos.seed)
    st_hi = drop_stats(nlos, 1600, nlos.realizations, nlos.seed)
    growth = st_hi["mc_mean"] / st_lo["mc_mean"]
    unbounded = math.isinf(st_lo["bound"]) and math.isinf(st_hi["bound"])

    ok = increasing and bound_gap <= 0.05 and unbounded and growth >= 1.2
    report(6, "rate limit behavior", ok,
           f"bound gap {bound_gap:.3%}, scattered-only growth {growth:.2f}x")


def test_criterion_07_optimal_unit_size():
    """Closed-form unit-size sweep at M=100, 50 drops: unimodal curve with
    the argmax in [0.3, 0.5]."""
    from lisrate.experiments import optimal_l_search
    cfg = ScenarioConfig(kind="uniform-room", num_devices=30,
                         mode="probabilistic", m_grid=(100,), drops=50,
                         realizations=2, seed=7, d_c=10.0)
    l_grid = [round(0.1 * i, 1) for i in range(1, 9)]
    best, curve = optimal_l_search(cfg, l_grid, workers=4)
    vals = [v for _, v in curve]
    peak = int(np.argmax(vals))
    unimodal = all(vals[i] < vals[i + 1] for i in range(peak)) and \
        all(vals[i] > vals[i + 1] for i in range(peak, len(vals) - 1))
    ok = unimodal and 0.3 <= best <= 0.5
    report(7, "optimal unit size", ok,
           f"argmax L={best}, curve " + ", ".join(f"{v:.2f}" for v in vals))


def _mean_rate(kind, mode, m, drops, n, seed=7, num_devices=30):
    cfg = ScenarioConfig(kind=kind, num_devices=num_devices, mode=mode,
                         m_grid=(m,), drops=drops, realizations=n, seed=seed)
    vals = []
    for d in range(drops):
        drop = make_drop(cfg, d, num_antennas=m)
        vals.append(run_monte_carlo(drop, n, seed, drop_tag=d).mean[RATE])
    return float(np.mean(vals))


def test_criterion_08_surface_vs_linear_array():
    """Surface deployment vs the linear-array baseline at M=100, K=30,
    20 drops: at least a 2x rate advantage."""
    lis = _mean_rate("uniform-room", "probabilistic", 100, 20, 400)
    mimo = _mean_rate("mimo-baseline", "nlos-only", 100, 20, 400)
    ratio = lis / mimo
    report(8, "surface vs linear array", ratio >= 2.0,
           f"rate ratio {ratio:.2f} (surface {lis:.3f}, linear {mimo:.3f})")


@pytest.mark.skipif(os.environ.get("LISRATE_RUN_SLOW") != "1",
                    reason="set LISRATE_RUN_SLOW=1 to run the large-M "
                           "crossover check (~7 s)")
def test_criterion_08b_large_m_crossover():
    """Optional: by M=2500 the linear array has caught up (ratio <= 1.3)."""
    lis = _mean_rate("uniform-room", "probabilistic", 2500, 5, 100)
    mimo = _mean_rate("mimo-baseline", "nlos-only", 2500, 5, 100)
    ratio = lis / mimo
    report(8, "large-M crossover", ratio <= 1.3, f"rate ratio {ratio:.2f}")


def test_criterion_09_gaussian_limit():
    """Normalized error-times-scattering term at M=1024 over 1e4 draws:
    |skewness| < 0.1 and |excess kurtosis| < 0.2 per component."""
    cfg = ScenarioConfig(kind="uniform-room", num_devices=5, mode="nlos-only",
                         m_grid=(1024,), drops=1, realizations=2, seed=7)
    drop = make_drop(cfg, 0, num_antennas=1024)
    vals = sample_yn2_normalized(drop, 0, 10000, seed=11)
    worst_skew = max(abs(stats.skew(vals.real)), abs(stats.skew(vals.imag)))
    worst_kurt = max(abs(stats.kurtosis(vals.real)),
                     abs(stats.kurtosis(vals.imag)))
    ok = worst_skew < 0.1 and worst_kurt < 0.2
    report(9, "Gaussian interference limit", ok,
           f"|skew| {worst_skew:.3f}, |excess kurtosis| {worst_kurt:.3f}")


def test_criterion_10_deterministic_output(tmp_path):
    """Identical config and seed must yield byte-identical CSVs for 1 and 8
    workers."""
    cfg = ScenarioConfig(kind="uniform-room", num_devices=5,
                         mode="probabilistic", m_grid=(16, 64, 100), drops=6,
                         realizations=300, seed=3)
    p1, p8 = tmp_path / "w1.csv", tmp_path / "w8.csv"
    write_csv(run_scenario(cfg, workers=1), p1)
    write_csv(run_scenario(cfg, workers=8), p8)
    same = p1.read_bytes() == p8.read_bytes()
    report(10, "worker-count determinism", same,
           f"{p1.stat().st_size} bytes each" if same else "outputs differ")
