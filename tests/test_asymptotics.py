import dataclasses
import math

import numpy as np
import pytest
from scipy import integrate, stats

from lisrate import asymptotics as asy
from lisrate.channel import Scattering, correlation_factor
from lisrate.experiments import ScenarioConfig, make_drop
from lisrate.geometry import Device, build_grid
from lisrate.mc_engine import Y, crandn, compute_terms, run_monte_carlo

from test_mc_engine import device_los, random_paths, small_drop


def beta_density(z):
    """Squared LOS gain per unit area at lateral offset (x, y)."""
    return lambda y, x: z / (4 * math.pi * (x * x + y * y + z * z) ** 1.5)


def beta4_density(z):
    return lambda y, x: (z / (4 * math.pi)) ** 2 \
        / (x * x + y * y + z * z) ** 3


class TestSurfaceIntegrals:
    # [DERIVED] oracle: adaptive quadrature of the defining surface integrals
    @pytest.mark.parametrize("z,hl", [(1.0, 0.25), (0.5, 0.25), (2.0, 0.4),
                                      (1.5, 0.1), (3.0, 0.8)])
    def test_p_matches_quadrature(self, z, hl):
        num, _ = integrate.dblquad(beta_density(z), -hl, hl, -hl, hl,
                                   epsabs=1e-13)
        assert asy.p_integral(z, hl) == pytest.approx(num * math.pi, rel=1e-9)

    @pytest.mark.parametrize("z,hl", [(1.0, 0.25), (0.5, 0.25), (2.0, 0.4),
                                      (1.5, 0.1), (3.0, 0.8)])
    def test_q_matches_quadrature(self, z, hl):
        num, _ = integrate.dblquad(beta4_density(z), -hl, hl, -hl, hl,
                                   epsabs=1e-15)
        assert asy.q_integral(z, hl) == pytest.approx(
            num * 16 * math.pi ** 2, rel=1e-9)

    def test_rejects_nonpositive_arguments(self):
        for fn in (asy.p_integral, asy.q_integral):
            with pytest.raises(ValueError):
                fn(0.0, 0.25)
            with pytest.raises(ValueError):
                fn(1.0, -0.1)

    @pytest.mark.parametrize("z,hl", [(1.0, 0.25), (2.0, 0.4)])
    def test_limits_match_finite_sums(self, z, hl):
        # the lattice sums converge to p_bar / q_bar as the pitch shrinks
        m = 256 ** 2
        grid = build_grid((0, 0), hl, m, 0.1)
        dev = Device(position=np.array([0.0, 0.0, z]))
        b2 = np.abs(device_los(dev, grid)) ** 2
        s2, s4 = float(b2.sum()), float((b2 ** 2).sum())
        assert s2 ** 2 == pytest.approx(asy.p_bar(z, hl, grid.spacing),
                                        rel=2e-3)
        assert s4 == pytest.approx(asy.q_bar(z, hl, grid.spacing), rel=2e-3)

    def test_p_increases_with_surface(self):
        ps = [asy.p_integral(1.0, hl) for hl in (0.1, 0.3, 0.6, 1.0, 5.0)]
        assert all(b > a for a, b in zip(ps, ps[1:]))
        # whole-plane limit: a quarter of the hemisphere power
        assert asy.p_integral(1.0, 500.0) == pytest.approx(math.pi / 2,
                                                           rel=2e-3)


class TestTermMoments:
    def test_error_leak_is_scaled_chi_square(self):
        # [DERIVED] e^H h is CN(0, sum beta^4), so X/(sum beta^4 / 2) ~ chi2(2)
        drop = small_drop(m=16, n_interferers=1, seed=0)
        mom = asy.error_leak_moments(drop)
        b4 = float(np.sum(np.abs(drop.desired.h_los) ** 4))
        assert mom.mean == pytest.approx(b4)
        assert mom.variance == pytest.approx(b4 ** 2)
        rng = np.random.default_rng(1)
        eps = crandn(rng, (200000, 16))
        x = np.abs(np.einsum("ij,j->i",
                             (drop.err_amp * eps).conj(),
                             drop.desired.h_los)) ** 2
        ks = stats.kstest(2 * x / b4, "chi2", args=(2,))
        assert ks.pvalue > 0.01

    def test_noise_term_moments(self):
        drop = small_drop(m=16, n_interferers=1, seed=0, tau=0.5)
        mom = asy.noise_term_moments(drop)
        b2 = float(np.sum(np.abs(drop.desired.h_los) ** 2))
        b4 = float(np.sum(np.abs(drop.desired.h_los) ** 4))
        assert mom.mean == pytest.approx(b2)
        assert mom.variance == pytest.approx(0.25 * 1.75 * b4)

    def test_noise_variance_vanishes_with_perfect_csi(self):
        drop = small_drop(tau=0.0)
        assert asy.noise_term_moments(drop).variance == 0.0

    def test_interference_mean_against_micro_mc(self):
        # [DERIVED] oracle: direct Monte Carlo; the mean formula is exact
        # at any M, so 4 standard errors must cover it
        drop = small_drop(m=16, n_interferers=2, seed=1)
        mc = run_monte_carlo(drop, 60000, 3)
        lm = asy.interference_term_moments(drop)
        for j in range(len(drop.links)):
            assert abs(mc.mean[Y][j] - lm.mean[j]) < 4 * mc.se_mean[Y][j]

    def test_interference_variance_gaussian_limit(self):
        # the variance formula assumes the scattered sum is Gaussian; its
        # relative error must shrink as the path count grows
        errors = []
        for m, num_paths in ((64, 4), (256, 128)):
            drop = small_drop(m=m, n_interferers=2, seed=1,
                              num_paths=num_paths)
            mc = run_monte_carlo(drop, 60000, 3)
            j = next(i for i, l in enumerate(drop.links) if l.kappa == 0.0)
            var = asy.interference_term_moments(drop).variance[j]
            errors.append(abs(mc.variance[Y][j] - var) / var)
        assert errors[1] < errors[0]
        assert errors[1] < 0.03

    def test_pure_nlos_link_has_no_coherent_mean(self):
        drop = small_drop(seed=1)
        j = [i for i, l in enumerate(drop.links) if l.kappa == 0.0][0]
        lm = asy.interference_term_moments(drop)
        # with no coherent mean mu the term is s: mean s, variance s^2
        assert lm.mean[j] > 0.0
        assert lm.variance[j] == lm.mean[j] ** 2

    def test_requires_deterministic_desired(self):
        from lisrate.mc_engine import Drop, Link
        rng = np.random.default_rng(0)
        desired = Link(kappa=0.0, h_los=np.zeros(4, complex),
                       paths=random_paths(rng, 2, 2, 2), rho=1.0)
        drop = Drop(desired=desired, links=(), err_amp=np.ones(4), tau=0.5)
        with pytest.raises(ValueError):
            asy.error_leak_moments(drop)
        with pytest.raises(ValueError):  # no links, so no coupling to check
            asy.interference_mean_limit(drop)
        with pytest.raises(ValueError):
            asy.interference_term_moments(Drop(
                desired=desired, links=(Link(
                    kappa=1.0, h_los=np.zeros(4, complex),
                    paths=Scattering.none(4), rho=1.0),),
                err_amp=np.ones(4), tau=0.5))


class TestSeparableForms:
    @pytest.mark.parametrize("mode", ["los-only", "nlos-only",
                                      "probabilistic"])
    def test_match_dense_block(self, mode):
        # row powers and the term means are taken from the separable
        # paths; the reference is the dense block itself
        cfg = ScenarioConfig(kind="uniform-room", num_devices=6,
                             m_grid=(100,), mode=mode, seed=3)
        for drop in (make_drop(cfg, d) for d in range(2)):
            h, tau = drop.desired.h_los, drop.tau
            lm = asy.interference_term_moments(drop)
            for j, link in enumerate(drop.links):
                r = correlation_factor(link.paths)
                np.testing.assert_allclose(
                    link.paths.row_power(), np.sum(np.abs(r) ** 2, axis=1),
                    rtol=1e-12)
                a, b = link.weights
                beta2 = np.abs(h) ** 2
                mean = (a**2 * tau**2 * beta2 @ np.abs(link.h_los) ** 2
                        + b**2 * (1 - tau**2)
                        * np.sum(np.abs(h.conj() @ r) ** 2)
                        + b**2 * tau**2 * beta2 @ np.sum(np.abs(r) ** 2, 1)
                        + a**2 * (1 - tau**2)
                        * abs(h.conj() @ link.h_los) ** 2)
                assert lm.mean[j] == pytest.approx(mean, rel=1e-12)


    def test_grouped_stacks_match_per_link_terms(self):
        # a hand-built drop whose links fall in several stacks: pathless,
        # planar with two path counts, and linear (n_v = 1) with a scalar
        # and an array loss; each term against its per-link dense form
        rng = np.random.default_rng(5)
        base = small_drop(m=16, n_interferers=3, num_paths=4, seed=3)
        nine = small_drop(m=16, n_interferers=1, num_paths=9, seed=4)
        linear = random_paths(rng, 1, 16, 5)
        links = (*base.links, *nine.links,
                 dataclasses.replace(base.links[0], paths=linear),
                 dataclasses.replace(base.links[1], paths=dataclasses.replace(
                     linear, loss=0.7)),
                 dataclasses.replace(base.links[2],
                                     paths=Scattering.none(16)))
        drop = dataclasses.replace(base, links=links)
        h, tau = drop.desired.h_los, drop.tau
        beta2 = np.abs(h) ** 2
        lm = asy.interference_term_moments(drop)
        for j, link in enumerate(drop.links):
            r = correlation_factor(link.paths)
            a, b = link.weights
            mu2 = a**2 * (1 - tau**2) * abs(h.conj() @ link.h_los) ** 2
            s = (a**2 * tau**2 * beta2 @ np.abs(link.h_los) ** 2
                 + b**2 * (1 - tau**2) * np.sum(np.abs(h.conj() @ r) ** 2)
                 + b**2 * tau**2 * beta2 @ np.sum(np.abs(r) ** 2, 1))
            assert lm.mean[j] == pytest.approx(s + mu2, rel=1e-12, abs=0)
            assert lm.variance[j] == pytest.approx(s**2 + 2 * mu2 * s,
                                                   rel=1e-12, abs=0)

    def test_one_contraction_per_stack(self, monkeypatch):
        # the 29 links of a make_drop drop form one stack: one contraction
        calls = []
        projected_power = Scattering.projected_power

        def counted(paths, h):
            calls.append(paths.gains.shape)
            return projected_power(paths, h)
        monkeypatch.setattr(Scattering, "projected_power", counted)
        asy.asymptotic_rate_moments(make_drop(ScenarioConfig(
            num_devices=30, m_grid=(100,), seed=7), 0))
        assert calls == [(29, 50)]


class TestCovariance:
    def test_symmetric_in_pair(self):
        drop = small_drop(m=16, n_interferers=4, seed=2, kappa=8.0)
        assert asy.interference_pair_covariance(drop, 0, 2) == pytest.approx(
            asy.interference_pair_covariance(drop, 2, 0))

    def test_zero_without_los(self):
        drop = small_drop(seed=2)
        nlos_idx = [i for i, l in enumerate(drop.links) if l.kappa == 0.0][0]
        other = (nlos_idx + 1) % len(drop.links)
        assert asy.interference_pair_covariance(drop, nlos_idx, other) == 0.0

    def test_rejects_same_link(self):
        with pytest.raises(ValueError):
            asy.interference_pair_covariance(small_drop(), 1, 1)

    @pytest.mark.parametrize("mode,tau", [
        ("los-only", 0.5), ("probabilistic", 0.1), ("probabilistic", 0.9)])
    def test_total_variance_matches_pair_loop(self, mode, tau):
        # reference: the explicit sum over all interferer pairs
        cfg = ScenarioConfig(kind="uniform-room", num_devices=30,
                             m_grid=(64,), mode=mode, tau=tau, seed=4)
        for drop in (make_drop(cfg, d) for d in range(3)):
            b4 = float(np.sum(np.abs(drop.desired.h_los) ** 4))
            links = drop.links
            want = drop.desired.rho**2 * tau**4 * b4**2 \
                + tau**2 * (2 - tau**2) * b4 \
                + sum(l.rho**2 * v for l, v in zip(
                    links, asy.interference_term_moments(drop).variance)) \
                + sum(2 * links[i].rho * links[j].rho
                      * asy.interference_pair_covariance(drop, i, j)
                      for i in range(len(links))
                      for j in range(i + 1, len(links)))
            got = asy.total_interference_moments(drop, asymptotic=False)
            assert got.variance == pytest.approx(want, rel=1e-12)


class TestTaylorMoments:
    def test_sinr_moments_against_quadrature(self):
        # [DERIVED] gamma = c/I with I ~ Normal(mu, sigma^2), small sigma/mu
        c, mu, sig = 5.0, 10.0, 0.4
        mom = asy.sinr_moments(s=1.0, rho=c, tau=0.0,
                               i_moments=asy.MomentPair(mu, sig ** 2))
        pdf = stats.norm(mu, sig).pdf
        num_mean, _ = integrate.quad(lambda t: c / t * pdf(t), mu - 8 * sig,
                                     mu + 8 * sig)
        num_m2, _ = integrate.quad(lambda t: (c / t) ** 2 * pdf(t),
                                   mu - 8 * sig, mu + 8 * sig)
        assert mom.mean == pytest.approx(num_mean, rel=1e-4)
        assert mom.variance == pytest.approx(num_m2 - num_mean ** 2, rel=2e-2)

    def test_rate_moments_against_quadrature(self):
        g_mu, g_sig = 30.0, 1.5
        mom = asy.rate_moments(asy.MomentPair(g_mu, g_sig ** 2))
        pdf = stats.norm(g_mu, g_sig).pdf
        num_mean, _ = integrate.quad(lambda t: math.log1p(t) * pdf(t),
                                     g_mu - 8 * g_sig, g_mu + 8 * g_sig)
        num_m2, _ = integrate.quad(lambda t: math.log1p(t) ** 2 * pdf(t),
                                   g_mu - 8 * g_sig, g_mu + 8 * g_sig)
        assert mom.mean == pytest.approx(num_mean, rel=1e-5)
        assert mom.variance == pytest.approx(num_m2 - num_mean ** 2, rel=1e-2)

    def test_variance_clamp_flag(self):
        wild = asy.rate_moments(asy.MomentPair(0.5, 40.0))
        assert wild.variance == 0.0
        assert wild.clamped

    def test_zero_variance_passthrough(self):
        mom = asy.rate_moments(asy.MomentPair(3.0, 0.0))
        assert mom.mean == pytest.approx(math.log(4.0))
        assert mom.variance == 0.0

    def test_rejects_nonpositive_interference(self):
        with pytest.raises(ValueError):
            asy.sinr_moments(1.0, 1.0, 0.5, asy.MomentPair(0.0, 1.0))

    def test_rejects_negative_sinr_mean(self):
        with pytest.raises(ValueError, match="nonnegative"):
            asy.rate_moments(asy.MomentPair(-1.0, 1.0))


class TestEndToEnd:
    def test_finite_and_asymptotic_agree_at_large_m(self):
        drop = small_drop(m=64 ** 2, n_interferers=2, seed=3)
        a = asy.asymptotic_rate_moments(drop, asymptotic=True)
        b = asy.asymptotic_rate_moments(drop, asymptotic=False)
        assert a.mean == pytest.approx(b.mean, rel=5e-3)
        assert a.variance == pytest.approx(b.variance, rel=5e-2)

    def test_baseline_drop_has_no_limits(self):
        # the linear-array baseline has no grid, so no integral limits
        cfg = ScenarioConfig(kind="mimo-baseline", num_devices=3,
                             m_grid=(8,), drops=1)
        with pytest.raises(ValueError, match="grid geometry"):
            asy.asymptotic_rate_moments(make_drop(cfg, 0))

    def test_bound_unbounded_without_los_interference(self):
        drop = small_drop(n_interferers=2, seed=4, kappa=0.0)
        assert all(l.kappa == 0.0 for l in drop.links)
        assert asy.rate_bound(drop) == math.inf

    def test_bound_formula(self):
        drop = small_drop(n_interferers=3, seed=5)
        mu_hat = asy.interference_mean_limit(drop)
        assert mu_hat > 0
        p = asy.p_integral(1.0, 0.25)
        expect = math.log1p(p ** 2 * drop.desired.rho * 0.75
                            / (16 * 0.25 ** 4 * math.pi ** 2 * mu_hat))
        assert asy.rate_bound(drop) == pytest.approx(expect)

    def test_mu_hat_skips_pure_nlos(self):
        drop = small_drop(n_interferers=2, seed=6)
        manual = 0.0
        h = drop.desired.h_los
        for link in drop.links:
            if link.kappa == 0.0:
                continue
            manual += link.rho * link.kappa * 0.75 \
                / (drop.num_antennas ** 2 * (1 + link.kappa)) \
                * abs(complex(h.conj() @ link.h_los)) ** 2
        assert asy.interference_mean_limit(drop) == pytest.approx(manual)

    def test_no_interferers(self):
        # K = 1: the interference is the error leak and the noise alone
        drop = make_drop(ScenarioConfig(kind="uniform-room", num_devices=1,
                                        m_grid=(16,)), 0)
        got = asy.total_interference_moments(drop, asymptotic=False)
        leak = asy.error_leak_moments(drop)
        noise = asy.noise_term_moments(drop)
        rho = drop.desired.rho * drop.tau**2
        assert got.mean == pytest.approx(rho * leak.mean + noise.mean)
        assert got.variance == pytest.approx(rho**2 * leak.variance
                                             + noise.variance)
        assert asy.rate_bound(drop) == math.inf

    def test_bound_needs_grid(self):
        drop = small_drop(seed=0)
        bare = asy.Drop(desired=drop.desired, links=drop.links,
                        err_amp=drop.err_amp, tau=drop.tau)
        with pytest.raises(ValueError):
            asy.rate_bound(bare)
