import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, strategies as st

from lisrate.baseline_mimo import build_mimo_drop
from lisrate.channel import (
    Scattering,
    correlation_factor,
    los_channel,
    nlos_scattering,
)
from lisrate.experiments import ScenarioConfig, make_drop
from lisrate.geometry import Device, build_grid
from lisrate.mc_engine import (
    RATE,
    Y,
    Z,
    Drop,
    Link,
    _chunks,
    _Moments,
    compute_terms,
    crandn,
    draw_fading,
    estimated_channel,
    rate_sample,
    run_monte_carlo,
    sample_yn2_normalized,
    sinr_direct,
)


def small_drop(m=16, n_interferers=3, tau=0.5, seed=0, kappa=5.0,
               num_paths=4):
    """Hand-built drop on a 0.5 m unit at 3 GHz with mixed Rician links."""
    rng = np.random.default_rng(seed)
    grid = build_grid((0.0, 0.0), 0.25, m, 0.1)
    target = Device(position=np.array([0.0, 0.0, 1.0]))
    h_kk = los_channel(target, grid)
    links = []
    for j in range(n_interferers):
        dev = Device(position=np.array([rng.uniform(-3, 3),
                                        rng.uniform(-3, 3),
                                        rng.uniform(1, 2)]), index=j + 1)
        angles = rng.uniform(-np.pi / 2, np.pi / 2, (2, num_paths))
        paths = nlos_scattering(dev, grid, angles, 3.7)
        links.append(Link(kappa=kappa if j % 2 == 0 else 0.0,
                          h_los=los_channel(dev, grid), paths=paths,
                          rho=float(rng.uniform(1, 10))))
    return Drop(desired=los_link(h_kk, 12.0), links=tuple(links),
                err_amp=np.abs(h_kk), tau=tau, grid=grid, target_z=1.0)


def los_link(h, rho):
    """A deterministic LOS link with no scattered paths."""
    return Link(kappa=math.inf, h_los=h, paths=Scattering.none(h.shape[0]),
                rho=rho)


def random_paths(rng, n_v, n_h, num_paths):
    """Separable paths with random losses, gains and phase steps."""
    return Scattering(loss=rng.uniform(0.5, 1.5, n_v * n_h),
                      gains=rng.uniform(0.5, 1.0, num_paths),
                      step_v=rng.uniform(-np.pi, np.pi, num_paths),
                      step_h=rng.uniform(-np.pi, np.pi, num_paths),
                      n_v=n_v, n_h=n_h)


class TestPrimitives:
    def test_crandn_unit_variance(self):
        x = crandn(np.random.default_rng(0), 200000)
        assert np.mean(np.abs(x) ** 2) == pytest.approx(1.0, rel=0.01)
        assert abs(np.mean(x)) < 0.01

    @pytest.mark.parametrize("shape", [7, (3, 5)])
    def test_crandn_stream(self, shape):
        # one standard_normal draw of shape + (2,) with each entry's real
        # and imaginary parts adjacent, scaled by sqrt(1/2)
        full = (shape,) if isinstance(shape, int) else shape
        x = crandn(np.random.default_rng(4), shape)
        twin = np.random.default_rng(4).standard_normal(full + (2,))
        np.testing.assert_array_equal(
            x, (math.sqrt(0.5) * twin).view(complex).reshape(full))
        assert x.shape == full and x.flags.c_contiguous

    def test_estimated_channel_weights(self):
        h = np.array([1.0 + 0j, -2j])
        e = np.array([0.5 + 0j, 1j])
        f = estimated_channel(h, 0.6, e)
        np.testing.assert_allclose(f, h + math.sqrt(0.36 / 0.64) * e)

    def test_estimated_channel_perfect_csi_copies(self):
        h = np.ones(4, complex)
        f = estimated_channel(h, 0.0, np.full(4, 100.0 + 0j))
        np.testing.assert_array_equal(f, h)
        assert f is not h

    def test_estimated_channel_rejects_tau_one(self):
        with pytest.raises(ValueError):
            estimated_channel(np.ones(2, complex), 1.0, np.ones(2, complex))

    def test_rate_sample(self):
        np.testing.assert_allclose(rate_sample([0.0, math.e - 1]), [0.0, 1.0])
        with pytest.raises(ValueError):
            rate_sample([-0.1])


class TestLink:
    def test_component_weights(self):
        link = Link(kappa=3.0, h_los=np.ones(4, complex),
                    paths=random_paths(np.random.default_rng(0), 2, 2, 2),
                    rho=1.0)
        assert link.weights == (math.sqrt(0.75), 0.5)
        assert not link.deterministic

    def test_pure_los_limit(self):
        link = los_link(np.ones(4, complex), 1.0)
        assert link.weights == (1.0, 0.0)
        assert link.deterministic

    @pytest.mark.parametrize("kappa", [-0.1, math.nan])
    def test_rejects_bad_kappa(self, kappa):
        with pytest.raises(ValueError):
            Link(kappa=kappa, h_los=np.zeros(16, complex),
                 paths=Scattering.none(16), rho=1.0)

    def test_rejects_antenna_count_mismatch(self):
        with pytest.raises(ValueError):
            Link(kappa=1.0, h_los=np.zeros(16, complex),
                 paths=random_paths(np.random.default_rng(0), 3, 3, 2),
                 rho=1.0)


class TestDropValidation:
    def test_rejects_bad_tau(self):
        d = small_drop()
        with pytest.raises(ValueError):
            Drop(desired=d.desired, links=d.links, err_amp=d.err_amp, tau=1.0)

    def test_rejects_nonpositive_power(self):
        d = small_drop()
        bad = los_link(d.desired.h_los, 0.0)
        with pytest.raises(ValueError):
            Drop(desired=bad, links=d.links, err_amp=d.err_amp, tau=0.5)

    def test_counts(self):
        d = small_drop(m=25, n_interferers=4)
        assert d.num_antennas == 25
        assert d.num_devices == 5


class TestSinrPaths:
    def test_decomposition_matches_receiver_path(self):
        worst = 0.0
        for trial in range(20):
            drop = small_drop(m=16, n_interferers=3, seed=trial,
                              tau=0.3 + 0.02 * trial)
            fading = draw_fading(drop, np.random.default_rng(100 + trial), 1)
            a = compute_terms(drop, *fading)["gamma"][0]
            b = sinr_direct(drop, *fading)[0]
            worst = max(worst, abs(a - b) / b)
        assert worst < 1e-12

    def test_batch_matches_single(self):
        drop = small_drop(seed=3)
        rng = np.random.default_rng(42)
        n = 5
        eps = crandn(rng, (n, drop.num_antennas))
        g = [crandn(rng, (n, link.num_paths)) for link in drop.links]
        batch = compute_terms(drop, eps, None, g)
        for i in range(n):
            single = compute_terms(drop, eps[i:i + 1], None,
                                   [gj[i:i + 1] for gj in g])
            assert batch["gamma"][i] == pytest.approx(single["gamma"][0],
                                                      rel=1e-12)
            assert batch["x"][i] == pytest.approx(single["x"][0], rel=1e-12)
            np.testing.assert_allclose(batch["y"][i], single["y"][0],
                                       rtol=1e-12)

    @pytest.mark.parametrize("stochastic", [False, True])
    def test_direct_batch_matches_rows(self, stochastic):
        if stochastic:
            devices = [Device(position=np.array([r, 0.0, 1.0]), index=i)
                       for i, r in enumerate((1.0, 3.0, 7.0))]
            drop = build_mimo_drop(devices, 16, 0.1, seed=8)
        else:
            drop = small_drop(seed=7)
        eps, g_des, g = draw_fading(drop, np.random.default_rng(7), 6)
        batch = sinr_direct(drop, eps, g_des, g)
        assert batch.shape == (6,)
        for i in range(6):
            row = sinr_direct(drop, eps[i:i + 1],
                              None if g_des is None else g_des[i:i + 1],
                              [gj[i:i + 1] for gj in g])
            assert batch[i] == pytest.approx(row[0], rel=1e-12)

    def test_identity_with_stochastic_desired(self):
        # pure-NLOS desired channel exercises the MIMO-style branch
        rng = np.random.default_rng(9)
        m, p = 8, 4
        desired = Link(kappa=0.0, h_los=np.zeros(m, complex),
                       paths=random_paths(rng, 2, 4, p), rho=2.0)
        link = Link(kappa=0.0, h_los=np.zeros(m, complex),
                    paths=random_paths(rng, 2, 4, p), rho=1.5)
        drop = Drop(desired=desired, links=(link,), err_amp=np.full(m, 0.7),
                    tau=0.4)
        for trial in range(10):
            fading = draw_fading(drop, np.random.default_rng(trial), 1)
            a = compute_terms(drop, *fading)["gamma"][0]
            b = sinr_direct(drop, *fading)[0]
            assert a == pytest.approx(b, rel=1e-12)

    @pytest.mark.parametrize("kind", ["los-only", "nlos-only", "mixed",
                                      "mimo"])
    def test_terms_match_definitions(self, kind):
        # every kernel term against its plain per-row definition, with
        # each channel built first: h = a h_los + b R g
        if kind == "mixed":
            drop = small_drop(seed=2)
        elif kind == "mimo":
            devices = [Device(position=np.array([r, 1.0, 1.0]), index=i)
                       for i, r in enumerate((1.0, 2.0, 4.0, 6.0))]
            drop = build_mimo_drop(devices, 16, 0.1, seed=5)
        else:
            drop = make_drop(ScenarioConfig(
                kind="grid-plane" if kind == "los-only" else "uniform-room",
                mode=kind, num_devices=5, m_grid=(16,), drops=1,
                realizations=2, seed=3), 0)
        n = 6
        eps, g_des, g = draw_fading(drop, np.random.default_rng(11), n)
        before = [eps.copy(), *(gj.copy() for gj in g)]
        t = compute_terms(drop, eps, g_des, g)
        # the draws are read, never written
        for got, want in zip([eps, *g], before, strict=True):
            np.testing.assert_array_equal(got, want)

        def channel(link, gi):
            a, b = link.weights
            return a * link.h_los + b * (correlation_factor(link.paths) @ gi)

        tau = drop.tau
        for i in range(n):
            h = drop.desired.h_los if g_des is None \
                else channel(drop.desired, g_des[i])
            err = drop.err_amp * eps[i]
            f = math.sqrt(1.0 - tau**2) * h + tau * err
            assert t["s"][i] == pytest.approx(np.sum(np.abs(h) ** 2) ** 2,
                                              rel=1e-12)
            assert t["x"][i] == pytest.approx(
                abs(np.sum(err * np.conj(h))) ** 2, rel=1e-12)
            assert t["z"][i] == pytest.approx(np.sum(np.abs(f) ** 2),
                                              rel=1e-12)
            y = [abs(np.vdot(f, channel(link, gj[i]))) ** 2
                 for link, gj in zip(drop.links, g)]
            np.testing.assert_allclose(t["y"][i], y, rtol=1e-12)

    def test_los_kernel_forms_no_combining_vector(self):
        # with a deterministic desired channel the kernel projects the draws
        # themselves: its traced peak must stay far below one (n, M) array
        drop = make_drop(ScenarioConfig(
            kind="grid-plane", mode="los-only", num_devices=10,
            m_grid=(1600,), drops=1, realizations=2, seed=7), 0)
        fading = draw_fading(drop, np.random.default_rng(0), 1024)
        tracemalloc.start()
        try:
            compute_terms(drop, *fading)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < fading[0].nbytes / 4

    @pytest.mark.parametrize("kernel", [compute_terms, sinr_direct])
    def test_short_fading_raises(self, kernel):
        # a link without its fading block must not drop out of the sum
        drop = small_drop(seed=3)
        eps, g_des, g = draw_fading(drop, np.random.default_rng(0), 4)
        spent = iter(g)
        list(spent)
        for short in (g[:-1], spent):
            with pytest.raises(ValueError):
                kernel(drop, eps, g_des, short)

    def test_sinr_positive(self):
        drop = small_drop(seed=5)
        t = compute_terms(drop, crandn(np.random.default_rng(0), (100, 16)),
                          None, [crandn(np.random.default_rng(1), (100, 4))
                                 for _ in drop.links])
        assert np.all(t["gamma"] > 0)
        assert np.all(t["i"] > 0)


def stats_of(x):
    """(mean, variance, se_mean, se_variance) of a 1-D sample."""
    return tuple(float(s[0]) for s in _Moments.of(np.asarray(x)[None]).stats())


class TestEstimateMoments:
    def test_matches_numpy(self):
        x = np.random.default_rng(0).gamma(2.0, size=5000)
        mean, var, se_mean, _ = stats_of(x)
        assert mean == pytest.approx(x.mean())
        assert var == pytest.approx(x.var(ddof=1))
        assert se_mean == pytest.approx(
            math.sqrt(x.var(ddof=1) / x.size), rel=1e-6)

    def test_variance_se_covers_truth(self):
        # [DERIVED] repeated gamma(2) samples: var = 2, check the SE scale
        rng = np.random.default_rng(1)
        devs = []
        for _ in range(40):
            x = rng.gamma(2.0, size=2000)
            _, var, _, se_var = stats_of(x)
            devs.append((var - 2.0) / se_var)
        assert np.std(devs) == pytest.approx(1.0, abs=0.35)

    def test_constant_sample_is_exactly_zero(self):
        _, var, se_mean, _ = stats_of(np.full(100, 3.7))
        assert var == 0.0
        assert se_mean == 0.0

    @given(st.lists(st.floats(-1e3, 1e3), min_size=2, max_size=60),
           st.lists(st.integers(1, 59), max_size=6))
    def test_merged_chunks_equal_one_pass(self, xs, cuts):
        x = np.array(xs)
        bounds = [0, *sorted({c for c in cuts if c < len(x)}), len(x)]
        parts = [_Moments.of(x[None, a:b]) for a, b in zip(bounds, bounds[1:])]
        merged = parts[0]
        for part in parts[1:]:
            merged = merged.merge(part)
        one = stats_of(x)
        # A spread far below the values' magnitude leaves only roundoff of
        # that magnitude; the absolute floor is ~100 ulps of it.
        scale = float(np.max(np.abs(x))) + 1.0
        for got, want, power in zip(merged.stats(), one, (1, 2, 1, 2)):
            assert float(got[0]) == pytest.approx(
                want, rel=1e-10, abs=1e-14 * scale**power)


class TestRunMonteCarlo:
    def test_reproducible(self):
        drop = small_drop(seed=2)
        a = run_monte_carlo(drop, 500, 11)
        b = run_monte_carlo(drop, 500, 11)
        assert a.mean[RATE] == b.mean[RATE]
        assert a.variance[RATE] == b.variance[RATE]
        np.testing.assert_array_equal(a.mean[Y], b.mean[Y])

    def test_seed_changes_result(self):
        drop = small_drop(seed=2)
        a = run_monte_carlo(drop, 500, 11)
        b = run_monte_carlo(drop, 500, 12)
        assert a.mean[RATE] != b.mean[RATE]

    def test_multi_chunk_consistency(self):
        # chunked accumulation must equal direct computation on the samples
        drop = small_drop(seed=4)
        mc = run_monte_carlo(drop, 3000, 5, chunk_size=1024, collect_y=True)
        assert mc.y_samples.shape == (3000, 3)
        np.testing.assert_allclose(mc.mean[Y], mc.y_samples.mean(0),
                                   rtol=1e-10)
        np.testing.assert_allclose(mc.variance[Y], mc.y_samples.var(0, ddof=1),
                                   rtol=1e-8)

    def test_perfect_csi_single_device_rate_is_deterministic(self):
        grid = build_grid((0.0, 0.0), 0.25, 16, 0.1)
        target = Device(position=np.array([0.0, 0.0, 1.0]))
        h = los_channel(target, grid)
        drop = Drop(desired=los_link(h, 2.0), links=(), err_amp=np.abs(h),
                    tau=0.0, grid=grid, target_z=1.0)
        expect = math.log1p(2.0 * float(np.sum(np.abs(h) ** 2)) ** 2
                            / float(np.sum(np.abs(h) ** 2)))
        # one chunk, and four merged ones
        for chunk_size in (2048, 128):
            mc = run_monte_carlo(drop, 400, 0, chunk_size=chunk_size)
            assert mc.variance[RATE] == 0.0
            assert mc.se_mean[RATE] == 0.0
            assert mc.se_variance[RATE] == 0.0
            assert mc.mean[RATE] == pytest.approx(expect, rel=1e-12)

    @pytest.mark.parametrize("tau", [1e-3, 1e-5])
    def test_variance_se_survives_hardening(self, tau):
        # Z's spread is ~tau of its mean: the SE of its variance must match
        # a two-pass computation on the same draws, across merged chunks.
        cfg = ScenarioConfig(kind="grid-plane", mode="los-only",
                             num_devices=2, m_grid=(400,), tau=tau, seed=1)
        drop = make_drop(cfg, 0)
        n, chunk = 4096, 1024
        mc = run_monte_carlo(drop, n, 1, chunk_size=chunk)
        z = np.concatenate([compute_terms(drop, *draw_fading(
            drop, np.random.default_rng(np.random.SeedSequence([1, 0, idx])),
            chunk))["z"] for idx in range(n // chunk)])
        d = z - z.mean()
        m2, m4 = np.mean(d**2), np.mean(d**4)
        two_pass = math.sqrt((m4 - (n - 3) / (n - 1) * m2**2) / n)
        assert mc.variance[Z] == pytest.approx(z.var(ddof=1), rel=1e-6)
        assert two_pass / 1.5 < mc.se_variance[Z] < 1.5 * two_pass

    @pytest.mark.parametrize("stochastic", [False, True])
    def test_streamed_draws_equal_listed_draws(self, stochastic):
        # run_monte_carlo draws each link's fading as the kernel reaches it;
        # every statistic must equal the kernel fed draw_fading's lists
        if stochastic:
            devices = [Device(position=np.array([r, 0.0, 1.0]), index=i)
                       for i, r in enumerate((1.0, 3.0, 7.0))]
            drop = build_mimo_drop(devices, 16, 0.1, seed=8)
        else:
            drop = small_drop(seed=4)
        n, chunk, seed, tag = 1000, 256, 9, 2
        mc = run_monte_carlo(drop, n, seed, drop_tag=tag, chunk_size=chunk)
        acc = None
        for rng, k in _chunks(n, chunk, seed, tag):
            t = compute_terms(drop, *draw_fading(drop, rng, k))
            part = _Moments.of(np.vstack([rate_sample(t["gamma"]), t["x"],
                                          t["z"], t["i"], t["y"].T]))
            acc = part if acc is None else acc.merge(part)
        for got, want in zip((mc.mean, mc.variance, mc.se_mean,
                              mc.se_variance), acc.stats()):
            assert np.array_equal(got, want)

    def test_chunk_holds_one_links_fading(self):
        # numpy reports its buffers to tracemalloc: one default chunk must
        # peak below the bytes of all links' fading held at once
        drop = make_drop(ScenarioConfig(
            kind="grid-plane", mode="nlos-only", num_devices=10,
            m_grid=(400,), drops=1, realizations=2048, seed=3), 0)
        n = 2048
        all_fading = sum(16 * n * link.num_paths for link in drop.links)
        tracemalloc.start()
        try:
            run_monte_carlo(drop, n, 3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < all_fading

    def test_rejects_tiny_sample(self):
        with pytest.raises(ValueError):
            run_monte_carlo(small_drop(), 1, 0)


class TestYn2Sampler:
    def test_unit_total_variance(self):
        drop = small_drop(m=64, n_interferers=2, num_paths=16, seed=6)
        vals = sample_yn2_normalized(drop, 0, 20000, seed=3)
        assert np.mean(np.abs(vals) ** 2) == pytest.approx(1.0, rel=0.05)
        assert abs(np.mean(vals)) < 0.02

    def test_matches_dense_definition(self):
        # eps^H diag(err_amp) R g / ||diag(err_amp) R||_F on the same draws
        drop = small_drop(m=16, n_interferers=2, num_paths=6, seed=6)
        link = drop.links[1]
        w = drop.err_amp[:, None] * correlation_factor(link.paths)
        rng, n = next(_chunks(50, 64, 3, 1))
        eps = crandn(rng, (n, 16))
        g = crandn(rng, (n, link.num_paths))
        want = np.einsum("ij,ij->i", eps.conj() @ w, g) \
            / np.linalg.norm(w)
        np.testing.assert_allclose(sample_yn2_normalized(drop, 1, 50, 3),
                                   want, rtol=1e-12)

    def test_reproducible(self):
        drop = small_drop(seed=6)
        a = sample_yn2_normalized(drop, 1, 100, seed=3)
        b = sample_yn2_normalized(drop, 1, 100, seed=3)
        np.testing.assert_array_equal(a, b)

    def test_rejects_pathless_link(self):
        drop = small_drop(seed=0)
        bare = Link(kappa=1.0, h_los=drop.links[0].h_los,
                    paths=Scattering.none(16), rho=1.0)
        d2 = Drop(desired=drop.desired, links=(bare,), err_amp=drop.err_amp,
                  tau=0.5)
        with pytest.raises(ValueError):
            sample_yn2_normalized(d2, 0, 10, seed=0)
