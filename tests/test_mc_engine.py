import dataclasses
import math
import sys
import threading
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

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
from lisrate.geometry import Device, build_grid, distance
from lisrate import mc_engine
from lisrate.mc_engine import (
    BASIS_ROWS,
    DEFAULT_CHUNK,
    RATE,
    Y,
    Z,
    Drop,
    Link,
    McResult,
    _chunks,
    _dense_power,
    _spectral_power,
    compute_terms,
    crandn,
    draw_fading,
    rate_sample,
    run_monte_carlo,
    sinr_direct,
)


def device_los(dev, grid):
    """One device's LOS channel, from its own distances."""
    return los_channel(distance(dev.position, grid.positions), dev.z, grid)


def device_paths(dev, grid, angles, beta_pl):
    """One device's planar-array paths, from its own distances."""
    return nlos_scattering(distance(dev.position, grid.positions), grid,
                           angles, beta_pl)


def small_drop(m=16, n_interferers=3, tau=0.5, seed=0, kappa=5.0,
               num_paths=4):
    """Hand-built drop on a 0.5 m unit at 3 GHz with mixed Rician links,
    stacked as make_drop stacks them: one LOS and one scattering pass over
    the (J, M) distances."""
    rng = np.random.default_rng(seed)
    grid = build_grid((0.0, 0.0), 0.25, m, 0.1)
    target = Device(position=np.array([0.0, 0.0, 1.0]))
    h_kk = device_los(target, grid)
    pos, angles, rho = [], [], []
    for _ in range(n_interferers):
        pos.append([rng.uniform(-3, 3), rng.uniform(-3, 3), rng.uniform(1, 2)])
        angles.append(rng.uniform(-np.pi / 2, np.pi / 2, (2, num_paths)))
        rho.append(float(rng.uniform(1, 10)))
    pos = np.reshape(pos, (-1, 3))
    d = distance(pos[:, None], grid.positions)
    links = Link(kappa=np.where(np.arange(n_interferers) % 2, 0.0, kappa),
                 h_los=los_channel(d, pos[:, 2:], grid),
                 paths=nlos_scattering(d, grid, np.reshape(
                     angles, (-1, 2, num_paths)), 3.7),
                 rho=np.array(rho))
    return Drop(desired=los_link(h_kk, 12.0), links=links,
                err_amp=np.abs(h_kk), tau=tau, grid=grid, target_z=1.0)


def stack_links(*links):
    """The links, of one n_v, n_h, P, loss shape and band, as one stacked
    Link, the form of `Drop.links`."""
    p = links[0].paths

    def rows(name):
        return np.array([np.reshape(getattr(link.paths, name), -1)
                         for link in links])
    return Link(kappa=np.array([link.kappa for link in links], float),
                h_los=np.array([link.h_los for link in links]),
                paths=Scattering(*map(rows, ("loss", "gains", "step_v",
                                             "step_h")),
                                 p.n_v, p.n_h, p.band),
                rho=np.array([link.rho for link in links], float))


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


ROUTE_KERNELS = ("_spectral_power", "_basis_power", "_dense_power")


def planned_route(drop):
    """(kernel name, the kernel's arguments before xs, d, k) of the drop's
    one route, read by calling drop.route with the three route kernels
    stubbed, or None for a pathless drop.  Checks that the route covers
    every interferer, each once."""
    if drop.route is None:
        assert drop.pathless
        return None
    with pytest.MonkeyPatch.context() as mp:
        for name in ROUTE_KERNELS:
            mp.setattr(mc_engine, name,
                       lambda *args, name=name: (name, args[:-3]))
        name, args = drop.route(None, None, None)
    covered = args[0].shape[1] if name == "_spectral_power" \
        else len(args[0].gains)
    assert covered == len(drop.links) and not drop.pathless
    return name, args


def route_name(drop):
    """The name of the kernel that the drop's route calls, or None."""
    planned = planned_route(drop)
    return planned and planned[0]


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

    def test_rejects_nan_power(self):
        # nan <= 0 is False: a NaN SNR on the desired link or on an
        # interferer must fail the positivity check all the same
        d = small_drop()
        rho = d.links.rho.copy()
        rho[1] = math.nan
        for desired, links in (
                (los_link(d.desired.h_los, math.nan), d.links),
                (d.desired, dataclasses.replace(d.links, rho=rho))):
            with pytest.raises(ValueError, match="must be positive"):
                Drop(desired=desired, links=links, err_amp=d.err_amp,
                     tau=0.5)

    def test_counts(self):
        d = small_drop(m=25, n_interferers=4)
        assert d.num_antennas == 25

    def test_links_are_one_stack(self):
        # the interferers are one Link with a leading axis J on every
        # field, whose rows are the links as views
        d = small_drop(m=25, n_interferers=4)
        links = d.links
        assert len(links) == 4 and links.h_los.shape == (4, 25)
        a, b = links.weights
        assert a.shape == b.shape == links.rho.shape == (4,)
        for j, link in enumerate(links):
            assert np.shares_memory(link.h_los, links.h_los)
            np.testing.assert_array_equal(link.h_los, links.h_los[j])
            np.testing.assert_array_equal(link.paths.gains,
                                          links.paths.gains[j])
            assert link.weights == (a[j], b[j]) and link.rho == links.rho[j]
        assert len(links[1:3]) == 2 and len(links[:0]) == 0

    def test_stacked_weights_skip_inf_over_inf(self):
        # a deterministic link in a stack has weights (1, 0), with no
        # invalid-value fault from kappa / (kappa + 1)
        link = dataclasses.replace(small_drop().links,
                                   kappa=np.array([math.inf, 0.0, 3.0]))
        with np.errstate(all="raise"):
            a, b = link.weights
        np.testing.assert_array_equal(a, [1.0, 0.0, math.sqrt(0.75)])
        np.testing.assert_array_equal(b, [0.0, 1.0, 0.5])


class TestSinrPaths:
    def test_decomposition_matches_receiver_path(self):
        gaps = []
        for trial in range(20):
            drop = small_drop(m=16, n_interferers=3, seed=trial,
                              tau=0.3 + 0.02 * trial)
            fading = draw_fading(drop, np.random.default_rng(100 + trial), 1)
            a = compute_terms(drop, *fading)["gamma"][0]
            b = sinr_direct(drop, *fading)[0]
            gaps.append(abs(a - b) / b)
        # np.max keeps a NaN gap, which fails the bound
        assert np.max(gaps) < 1e-12

    def test_batch_matches_single(self):
        drop = small_drop(seed=3)
        rng = np.random.default_rng(42)
        n = 5
        eps = crandn(rng, (n, drop.num_antennas))
        w = crandn(rng, (n, len(drop.links)))
        batch = compute_terms(drop, eps, None, w)
        for i in range(n):
            single = compute_terms(drop, eps[i:i + 1], None, w[i:i + 1])
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
        eps, g_des, w = draw_fading(drop, np.random.default_rng(7), 6)
        batch = sinr_direct(drop, eps, g_des, w)
        assert batch.shape == (6,)
        for i in range(6):
            row = sinr_direct(drop, eps[i:i + 1],
                              None if g_des is None else g_des[i:i + 1],
                              w[i:i + 1])
            assert batch[i] == pytest.approx(row[0], rel=1e-12)

    def test_identity_with_stochastic_desired(self):
        # pure-NLOS desired channel exercises the MIMO-style branch
        rng = np.random.default_rng(9)
        m, p = 8, 4
        desired = Link(kappa=0.0, h_los=np.zeros(m, complex),
                       paths=random_paths(rng, 2, 4, p), rho=2.0)
        link = Link(kappa=0.0, h_los=np.zeros(m, complex),
                    paths=random_paths(rng, 2, 4, p), rho=1.5)
        drop = Drop(desired=desired, links=stack_links(link),
                    err_amp=np.full(m, 0.7), tau=0.4)
        for trial in range(10):
            fading = draw_fading(drop, np.random.default_rng(trial), 1)
            a = compute_terms(drop, *fading)["gamma"][0]
            b = sinr_direct(drop, *fading)[0]
            assert a == pytest.approx(b, rel=1e-12)

    def test_stochastic_desired_projects_nothing_on_k(self, monkeypatch):
        # with a stochastic desired channel k = 0: the spectral route (the
        # baseline's links) and the dense route (separable paths with no
        # band) each get k as an (M,) vector of zeros, and the kernel still
        # matches the receiver path
        devices = [Device(position=np.array([r, 1.0, 1.0]), index=i)
                   for i, r in enumerate((1.0, 2.0, 4.0, 6.0, 9.0))]
        rng = np.random.default_rng(9)
        desired, link = (Link(kappa=0.0, h_los=np.zeros(8, complex),
                              paths=random_paths(rng, 2, 4, 4), rho=rho)
                         for rho in (2.0, 1.5))
        drops = [build_mimo_drop(devices, 64, 0.1, seed=5),
                 Drop(desired=desired, links=stack_links(link),
                      err_amp=np.full(8, 0.7), tau=0.4)]
        seen = []

        def spy(route):
            def wrapped(*args, **kwargs):
                seen.append((route.__name__, args[-1]))
                return route(*args, **kwargs)
            return wrapped
        monkeypatch.setattr(mc_engine, "_dense_power", spy(_dense_power))
        monkeypatch.setattr(mc_engine, "_spectral_power",
                            spy(_spectral_power))
        for drop in drops:
            fading = draw_fading(drop, np.random.default_rng(3), 8)
            np.testing.assert_allclose(
                compute_terms(drop, *fading)["gamma"],
                sinr_direct(drop, *fading), rtol=1e-12)
        assert [name for name, _ in seen] == ["_spectral_power",
                                              "_dense_power"]
        assert [k.shape for _, k in seen] == [(64,), (8,)]
        assert not any(np.any(k) for _, k in seen)

    def test_stochastic_kernel_keeps_one_temporary(self):
        # the desired rows are built in place and x is read without copies:
        # beside the rows, at most one (n, M) temporary is alive
        devices = [Device(position=np.array([1.0 + 0.3 * i, 0.5 * i, 1.0]),
                          index=i) for i in range(30)]
        drop = build_mimo_drop(devices, 400, 0.1, seed=2)
        fading = draw_fading(drop, np.random.default_rng(0), 1024)
        tracemalloc.start()
        try:
            compute_terms(drop, *fading)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2 * fading[0].nbytes + 2 * 2**20

    @pytest.mark.parametrize("kind", ["los-only", "nlos-only", "mixed",
                                      "mimo"])
    def test_terms_match_definitions(self, kind):
        # every kernel term against its plain per-row definition, with
        # each channel built first: h = a h_los + b R g, where an
        # interferer's g is its draw lifted to w_j R^H f / ||R^H f||
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
        eps, g_des, w = draw_fading(drop, np.random.default_rng(11), n)
        before = [eps.copy(), w.copy()]
        t = compute_terms(drop, eps, g_des, w)
        # the draws are read, never written
        for got, want in zip([eps, w], before, strict=True):
            np.testing.assert_array_equal(got, want)

        def channel(link, gi):
            a, b = link.weights
            return a * link.h_los + b * (correlation_factor(link.paths) @ gi)

        def lifted(link, f, wi):
            u = correlation_factor(link.paths).conj().T @ f
            norm = np.linalg.norm(u)
            return wi * u / norm if norm > 0 else np.zeros_like(u)

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
            y = [abs(np.vdot(f, channel(link, lifted(link, f, wi)))) ** 2
                 for link, wi in zip(drop.links, w[i], strict=True)]
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

    def test_los_chunk_streams_its_draws(self):
        # a los-only drop draws nothing past eps, so run_monte_carlo takes
        # it in BASIS_ROWS-draw chunks: over 32 chunks its traced peak must
        # stay far below the run's (n, M) error draws
        drop = make_drop(ScenarioConfig(
            kind="grid-plane", mode="los-only", num_devices=10,
            m_grid=(1600,), drops=1, realizations=2, seed=7), 0)
        n = 8 * DEFAULT_CHUNK
        tracemalloc.start()
        try:
            run_monte_carlo(drop, n, 0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * n * drop.num_antennas / 8

    @pytest.mark.parametrize("kernel", [compute_terms, sinr_direct])
    def test_short_fading_raises(self, kernel):
        # a link or row without its fading draw must not drop out of the
        # sum, nor be filled in by broadcasting another link's draw
        drop = small_drop(seed=3)
        eps, g_des, w = draw_fading(drop, np.random.default_rng(0), 4)
        for short in (w[:, :-1], w[:, :1], w[:1], w[:, 0]):
            with pytest.raises(ValueError):
                kernel(drop, eps, g_des, short)

    def test_direct_lift_of_pathless_and_blind_links(self):
        # los-only links have no paths (P = 0) and links with a zero factor
        # have R^H f = 0: the receiver path's lift must give g = 0 there
        # without evaluating 0/0, and still agree with the kernel, on a
        # pathless drop and on one whose links are all blind
        drop = make_drop(ScenarioConfig(
            kind="grid-plane", mode="los-only", num_devices=5,
            m_grid=(16,), drops=1, realizations=2, seed=3), 0)
        paths = small_drop(n_interferers=4).links.paths
        blind = dataclasses.replace(drop.links, kappa=np.ones(4),
                                    paths=dataclasses.replace(
                                        paths, loss=np.zeros((4, 1))))
        assert route_name(drop) is None
        assert route_name(dataclasses.replace(drop, links=blind)) \
            == "_dense_power"
        for d in (drop, dataclasses.replace(drop, links=blind)):
            with np.errstate(all="raise"):
                fading = draw_fading(d, np.random.default_rng(5), 8)
                direct = sinr_direct(d, *fading)
                kernel = compute_terms(d, *fading)["gamma"]
            np.testing.assert_allclose(direct, kernel, rtol=1e-12)

    def test_sinr_positive(self):
        drop = small_drop(seed=5)
        t = compute_terms(drop, crandn(np.random.default_rng(0), (100, 16)),
                          None, crandn(np.random.default_rng(1),
                                       (100, len(drop.links))))
        assert np.all(t["gamma"] > 0)
        assert np.all(t["i"] > 0)


def nlos_drop(kind, m, half_length, mode="nlos-only", num_devices=10):
    return make_drop(ScenarioConfig(
        kind=kind, mode=mode, num_devices=num_devices, m_grid=(m,), drops=1,
        realizations=2, seed=7, half_length=half_length), 0)


class TestBasisPath:
    @pytest.mark.parametrize("kind", ["grid-plane", "uniform-room"])
    def test_power_matches_dense_factor(self, kind):
        # at M = 1600 on a 0.5 m unit the ramps have r = 588 < P = 800: each
        # planned basis route's power against the dense (M, P) product, with
        # k and with k = 0, over rows that end in a partial block; one extra
        # link has fresh angles with both steps at the edges of their band
        drop = nlos_drop(kind, 1600, 0.25)
        dev = Device(position=np.array([2.0, -1.0, 1.5]), index=99)
        theta = np.random.default_rng(5).uniform(-np.pi / 2, np.pi / 2,
                                                 (2, 800))
        theta[:, :4] = [[np.pi / 2, -np.pi / 2, 0.0, 0.0],
                        [0.0, 0.0, np.pi / 4, -np.pi / 4]]
        extra = Link(kappa=0.0, h_los=np.zeros(1600, complex), rho=1.0,
                     paths=device_paths(dev, drop.grid, theta, 3.7))
        drop = dataclasses.replace(drop, links=stack_links(*drop.links, extra))
        assert route_name(drop) == "_basis_power" and len(drop.links) == 10
        rng = np.random.default_rng(1)
        xs = crandn(rng, (BASIS_ROWS + 9, 1600))
        d = drop.tau * drop.err_amp
        k = math.sqrt(1 - drop.tau**2) * drop.desired.h_los
        plain, shifted = drop.route(xs, d, np.zeros_like(k)), \
            drop.route(xs, d, k)
        for j, link in enumerate(drop.links):
            q = xs @ correlation_factor(link.paths, d, conjugate=True)
            np.testing.assert_allclose(plain[:, j],
                                       np.sum(np.abs(q) ** 2, axis=1),
                                       rtol=1e-12)
            q += np.conj(k.conj() @ correlation_factor(link.paths))
            np.testing.assert_allclose(shifted[:, j],
                                       np.sum(np.abs(q) ** 2, axis=1),
                                       rtol=1e-12)

    @pytest.mark.parametrize("mode", ["nlos-only", "probabilistic"])
    def test_dual_path_identity(self, mode, monkeypatch):
        # L = 0.05 at M = 400 has r = 180 < P = 200: the kernel takes the
        # basis, builds no dense factor, and matches the receiver path
        drop = nlos_drop("uniform-room", 400, 0.05, mode=mode, num_devices=6)
        assert route_name(drop) == "_basis_power" and len(drop.links) == 5
        fading = draw_fading(drop, np.random.default_rng(3), 100)
        direct = sinr_direct(drop, *fading)

        def forbidden(*args, **kwargs):
            raise AssertionError("built a dense factor on the basis path")
        monkeypatch.setattr(mc_engine, "correlation_factor", forbidden)
        np.testing.assert_allclose(compute_terms(drop, *fading)["gamma"],
                                   direct, rtol=1e-10)

    @pytest.mark.parametrize("kind,m,half_length", [
        ("grid-plane", 1600, 0.5), ("uniform-room", 1600, 0.5),
        ("grid-plane", 900, 0.25), ("mimo-baseline", 100, 0.25)])
    def test_dense_where_rank_reaches_paths(self, kind, m, half_length):
        # r >= P (1064 >= 800, 567 >= 450): the dense route; a linear
        # array's links, which have no band, take the spectral route
        drop = nlos_drop(kind, m, half_length)
        route = "_spectral_power" if kind == "mimo-baseline" \
            else "_dense_power"
        assert route_name(drop) == route and len(drop.links) == 9

    @pytest.mark.parametrize("tau", [0.0, 0.5])
    def test_dense_route_shares_no_contraction(self, tau, monkeypatch):
        # the closed form takes ||h^H R||^2 from the separable contraction;
        # the dense route must take k^H R from its own factor, one per link,
        # so the kernel matches the receiver path with that contraction
        # unavailable.  At tau = 0, d = 0 while k != 0: k^H R must come
        # before the row scale
        drop = make_drop(ScenarioConfig(
            kind="uniform-room", mode="nlos-only", num_devices=6,
            m_grid=(100,), drops=1, realizations=2, seed=7, tau=tau), 0)
        assert route_name(drop) == "_dense_power" and len(drop.links) == 5
        fading = draw_fading(drop, np.random.default_rng(2), 16)
        direct = sinr_direct(drop, *fading)

        def forbidden(*args, **kwargs):
            raise AssertionError("used the closed form's contraction")
        for name in ("project", "_contract", "projected_power"):
            monkeypatch.setattr(Scattering, name, forbidden, raising=False)
        built = []

        def counted(paths, *args, **kwargs):
            built.append(paths)
            return correlation_factor(paths, *args, **kwargs)
        monkeypatch.setattr(mc_engine, "correlation_factor", counted)
        np.testing.assert_allclose(compute_terms(drop, *fading)["gamma"],
                                   direct, rtol=1e-12)
        # one factor per link, in order, each from that link's own rows
        assert len(built) == len(drop.links)
        for paths, link in zip(built, drop.links):
            assert np.shares_memory(paths.gains, drop.links.paths.gains)
            np.testing.assert_array_equal(paths.gains, link.paths.gains)
            np.testing.assert_array_equal(paths.loss, link.paths.loss)

    def test_pathless_links_draw_no_fading(self):
        # a los-only drop draws eps and nothing after it: w is zeros
        drop = make_drop(ScenarioConfig(
            kind="grid-plane", mode="los-only", num_devices=5,
            m_grid=(16,), drops=1, realizations=2, seed=3), 0)
        rng, ref = np.random.default_rng(4), np.random.default_rng(4)
        eps, g_des, w = draw_fading(drop, rng, 8)
        np.testing.assert_array_equal(eps, crandn(ref, (8, 16)))
        assert g_des is None and w.shape == (8, 4) and not w.any()
        assert rng.standard_normal() == ref.standard_normal()


class TestRoutePlan:
    def test_plan_covers_each_link_once(self):
        # one hand-built M = 400 drop per route: pathless (no route),
        # linear scalar-loss links (spectral), planar links whose band has
        # r < P (basis), the same links without their band (dense) and
        # planar links with r >= P (dense).  On each, the one route covers
        # every interferer once, each column matches that link's dense
        # factor, and the kernel matches the receiver path
        base = nlos_drop("uniform-room", 400, 0.05, num_devices=3)
        rng = np.random.default_rng(8)
        linear = Scattering(loss=np.array([[0.3], [0.5]]),
                            gains=rng.uniform(0.5, 1.0, (2, 50)),
                            step_v=np.zeros((2, 50)),
                            step_h=rng.uniform(-np.pi, np.pi, (2, 50)),
                            n_v=1, n_h=400)
        cases = [
            (None, nlos_drop("uniform-room", 400, 0.05, mode="los-only",
                             num_devices=3)),
            ("_spectral_power", dataclasses.replace(
                base, links=dataclasses.replace(base.links, paths=linear))),
            ("_basis_power", base),
            ("_dense_power", dataclasses.replace(
                base, links=dataclasses.replace(
                    base.links, paths=dataclasses.replace(base.links.paths,
                                                          band=None)))),
            ("_dense_power", nlos_drop("uniform-room", 400, 0.25,
                                       num_devices=3))]
        xs = crandn(np.random.default_rng(2), (BASIS_ROWS + 9, 400))
        for route, drop in cases:
            assert route_name(drop) == route and len(drop.links) == 2
            if route is not None:
                d = drop.tau * drop.err_amp
                k = math.sqrt(1 - drop.tau**2) * drop.desired.h_los
                power = drop.route(xs, d, k)
                assert power.shape == (len(xs), 2)
                for j, link in enumerate(drop.links):
                    q = xs @ correlation_factor(link.paths, d, conjugate=True)
                    q += np.conj(k.conj() @ correlation_factor(link.paths))
                    np.testing.assert_allclose(
                        power[:, j], np.sum(np.abs(q) ** 2, axis=1),
                        rtol=1e-10)
            fading = draw_fading(drop, np.random.default_rng(4),
                                 BASIS_ROWS + 9)
            np.testing.assert_allclose(compute_terms(drop, *fading)["gamma"],
                                       sinr_direct(drop, *fading), rtol=1e-10)


def baseline_drop(m, num_devices, seed=2):
    """A linear-array baseline drop with devices spread from 1 m out."""
    devices = [Device(position=np.array([1.0 + 0.3 * i, 0.5 * i, 1.0]),
                      index=i) for i in range(num_devices)]
    return build_mimo_drop(devices, m, 0.1, seed=seed)


class TestSpectralPath:
    @pytest.mark.parametrize("m", [2, 4, 100, 400])
    @pytest.mark.parametrize("num_devices", [1, 2, 30])
    def test_matches_receiver_path(self, m, num_devices):
        # K = 1 has no interferer, M = 2 has P = 1, and the rows end in a
        # partial block
        drop = baseline_drop(m, num_devices)
        fading = draw_fading(drop, np.random.default_rng(m + num_devices),
                             BASIS_ROWS + 9)
        np.testing.assert_allclose(compute_terms(drop, *fading)["gamma"],
                                   sinr_direct(drop, *fading), rtol=1e-12)

    def test_builds_only_the_desired_factor(self, monkeypatch):
        drop = baseline_drop(100, 30)
        fading = draw_fading(drop, np.random.default_rng(1), 16)
        built = []

        def counted(paths, *args, **kwargs):
            built.append(paths)
            return correlation_factor(paths, *args, **kwargs)
        monkeypatch.setattr(mc_engine, "correlation_factor", counted)
        compute_terms(drop, *fading)
        assert len(built) == 1 and built[0] is drop.desired.paths

    def test_power_matches_dense_factor(self):
        # with k and a per-antenna d, as a deterministic desired channel
        # gives them: every link's power against the dense (M, P) product
        drop = baseline_drop(100, 6)
        rng = np.random.default_rng(3)
        xs = crandn(rng, (BASIS_ROWS + 9, 100))
        d = rng.uniform(0.5, 1.5, 100)
        k = crandn(rng, 100)
        assert route_name(drop) == "_spectral_power"
        route = drop.route
        for kk in (np.zeros_like(k), k):
            power = route(xs, d, kk)
            for link, col in zip(drop.links, power.T, strict=True):
                q = xs @ correlation_factor(link.paths, d, conjugate=True)
                q += np.conj(kk.conj() @ correlation_factor(link.paths))
                np.testing.assert_allclose(col, np.sum(np.abs(q) ** 2, 1),
                                           rtol=1e-12)

    def test_planar_and_pathless_links_take_no_route(self, monkeypatch):
        # per-antenna loss (grid-plane, uniform-room), no paths (los-only)
        # and the planar scalar-loss link of the blind-link test are not
        # Toeplitz, and the kernel never takes the spectral route for them;
        # a los-only drop's pathless links take no route at all and keep
        # power 0, so its kernel builds no factor
        links = small_drop().links
        blind = dataclasses.replace(links, paths=dataclasses.replace(
            links.paths, loss=np.zeros((len(links), 1))))
        drops = [nlos_drop(kind, 100, 0.25, mode=mode, num_devices=4)
                 for kind in ("grid-plane", "uniform-room")
                 for mode in ("los-only", "nlos-only", "probabilistic")]
        drops.append(dataclasses.replace(small_drop(), links=blind))

        def forbidden(*args, **kwargs):
            raise AssertionError("took a route")
        monkeypatch.setattr(mc_engine, "_spectral_power", forbidden)
        for drop in drops:
            assert route_name(drop) != "_spectral_power"
            compute_terms(drop, *draw_fading(drop, np.random.default_rng(0),
                                             4))
        monkeypatch.setattr(mc_engine, "_basis_power", forbidden)
        monkeypatch.setattr(mc_engine, "_dense_power", forbidden)
        monkeypatch.setattr(mc_engine, "correlation_factor", forbidden)
        for drop in drops[:6:3]:              # the two los-only drops
            assert not any(link.num_paths for link in drop.links)
            assert drop.route is None
            fading = draw_fading(drop, np.random.default_rng(0), 4)
            terms = compute_terms(drop, *fading)
            los, a = drop.links.h_los.T, drop.links.weights[0]
            f = (math.sqrt(1 - drop.tau**2) * drop.desired.h_los
                 + drop.tau * drop.err_amp * fading[0])
            np.testing.assert_allclose(terms["y"],
                                       np.abs(a * (f.conj() @ los)) ** 2,
                                       rtol=1e-12)

    def test_power_is_clamped_at_zero(self):
        # M = 2, P = 1: f orthogonal to the interferer's only path has
        # ||f^H R||^2 = 0, which the spectral sum rounds to either side of
        # 0; clamped, the kernel's sqrt raises nothing
        drop = baseline_drop(2, 2, seed=4)
        (link,) = drop.links
        rng = np.random.default_rng(6)
        n = 64
        scale = rng.uniform(0.1, 10.0, n) * np.exp(2j * np.pi * rng.random(n))
        f = np.outer(scale, [1.0, -np.exp(1j * link.paths.step_h[0])])
        g_des = crandn(rng, (n, 1))
        h = g_des @ correlation_factor(drop.desired.paths).T
        eps = (f - math.sqrt(1 - drop.tau**2) * h) \
            / (drop.tau * drop.err_amp)
        w = crandn(rng, (n, 1))
        with np.errstate(invalid="raise"):
            power = drop.route(f, 1.0, np.zeros(2, complex))
            gamma = compute_terms(drop, eps, g_des, w)["gamma"]
        assert np.all(power >= 0.0)
        assert np.all(np.isfinite(gamma))
        np.testing.assert_allclose(gamma, sinr_direct(drop, eps, g_des, w),
                                   rtol=1e-12)


class TestRowBlocks:
    @pytest.mark.parametrize("route", ["basis", "dense", "spectral",
                                       "streamed", "pathless"])
    def test_threads_keep_every_bit(self, route):
        # two chunk threads, and more than cores, switching every
        # microsecond: each chunk is the same one-BLAS-thread call on
        # whichever thread runs it, and the chunks merge in index order, so
        # every moment equals the one-thread result bit for bit.  Three
        # whole chunks and a partial last one, on each route, on a
        # probabilistic drop that streams mixed links, and on a los-only
        # drop, whose chunks have BASIS_ROWS draws
        drop = {"basis": lambda: nlos_drop("uniform-room", 400, 0.05),
                "dense": lambda: nlos_drop("uniform-room", 100, 0.25),
                "spectral": lambda: baseline_drop(100, 6),
                "streamed": lambda: nlos_drop(
                    "uniform-room", 400, 0.05, mode="probabilistic"),
                "pathless": lambda: nlos_drop(
                    "grid-plane", 400, 0.25, mode="los-only")}[route]()
        assert drop.pathless == (route == "pathless")

        def kernel():
            return vars(run_monte_carlo(drop, 3 * DEFAULT_CHUNK + 9, 4))
        interval = sys.getswitchinterval()
        with mc_engine.chunk_threads(1):
            serial = kernel()
        sys.setswitchinterval(1e-6)
        try:
            for threads in (2, 8):
                with mc_engine.chunk_threads(threads):
                    threaded = kernel()
                for name, value in serial.items():
                    np.testing.assert_array_equal(threaded[name], value)
        finally:
            sys.setswitchinterval(interval)

    def test_streamed_block_opens_one_executor(self, monkeypatch):
        # at 2 chunk threads a lone task's run_monte_carlo maps its chunks
        # through one executor, shut down before it returns, and each chunk
        # is one compute_terms call, which opens none: 256, 256 and 9 rows
        # on the nine basis links, and BASIS_ROWS-row calls with a partial
        # last one on a pathless drop
        scattered = nlos_drop("uniform-room", 400, 0.05)
        pathless = nlos_drop("grid-plane", 400, 0.25, mode="los-only")
        assert len(scattered.links) == 9 and pathless.pathless
        pools, rows = [], []

        class Counted(ThreadPoolExecutor):
            def __init__(self, *args, **kwargs):
                pools.append(self)
                super().__init__(*args, **kwargs)

        def spied(drop, eps, g_des, w):
            rows.append(len(eps))
            return compute_terms(drop, eps, g_des, w)
        monkeypatch.setattr(mc_engine, "ThreadPoolExecutor", Counted)
        monkeypatch.setattr(mc_engine, "compute_terms", spied)
        alive = threading.active_count()
        with mc_engine.chunk_threads(2):
            run_monte_carlo(scattered, 2 * DEFAULT_CHUNK + 9, 0)
            assert len(pools) == 1
            assert threading.active_count() == alive
            assert sorted(rows) == [9, DEFAULT_CHUNK, DEFAULT_CHUNK]
            compute_terms(scattered, *draw_fading(
                scattered, np.random.default_rng(0), DEFAULT_CHUNK))
            assert len(pools) == 1
            rows.clear()
            run_monte_carlo(pathless, 3 * BASIS_ROWS + 5, 0)
        assert sorted(rows) == [5, BASIS_ROWS, BASIS_ROWS, BASIS_ROWS]
        assert len(pools) == 2
        assert threading.active_count() == alive

    def test_threads_hold_bounded_draws(self, monkeypatch):
        # beyond two chunks at once a task's chunks in flight hold at most
        # STREAM_BYTES of error draws: at 8 chunk threads a los-only drop at
        # M = 10^4 (64-draw chunks of 10 MB) runs 4 chunks at once, and a
        # scattered one at M = 6400 (256-row chunks of 26 MB) still runs 2
        workers = []

        class Counted(ThreadPoolExecutor):
            def __init__(self, max_workers):
                workers.append(max_workers)
                raise RuntimeError("counted before any chunk ran")
        monkeypatch.setattr(mc_engine, "ThreadPoolExecutor", Counted)
        for side, paths in ((100, 0), (80, 1)):
            m = side * side
            scattered = Scattering(1.0, np.ones(paths), np.zeros(paths),
                                   np.zeros(paths), side, side)
            h = np.ones(m, complex)
            drop = Drop(desired=los_link(h, 1.0),
                        links=stack_links(Link(kappa=1.0, h_los=h,
                                               paths=scattered, rho=1.0)),
                        err_amp=np.ones(m), tau=0.5)
            assert drop.pathless == (paths == 0)
            with mc_engine.chunk_threads(8), pytest.raises(RuntimeError):
                run_monte_carlo(drop, 8 * DEFAULT_CHUNK, 0)
        assert workers == [4, 2]

    def test_chunk_threads_without_blas_control(self, monkeypatch):
        # under a BLAS other than OpenBLAS only the chunk threads change
        monkeypatch.setattr(mc_engine, "_blas_thread_control", lambda: None)
        before = mc_engine._CHUNK_THREADS
        with mc_engine.chunk_threads(before + 2):
            assert mc_engine._CHUNK_THREADS == before + 2
        assert mc_engine._CHUNK_THREADS == before


def stats(m: McResult):
    """(mean, variance, se_mean, se_variance) arrays of a moments record."""
    return m.mean, m.variance, m.se_mean, m.se_variance


def assert_streamed_equals_listed(drop: Drop, n: int):
    """run_monte_carlo's statistics equal, bit for bit, those of
    compute_terms fed draw_fading's (eps, g_des, w) chunk by chunk."""
    seed, tag = 9, 2
    mc = run_monte_carlo(drop, n, seed, drop_tag=tag)
    acc = None
    for rng, k in _chunks(n, drop.chunk_size, seed, tag):
        t = compute_terms(drop, *draw_fading(drop, rng, k))
        part = McResult.of(np.vstack([rate_sample(t["gamma"]), t["x"],
                                      t["z"], t["i"], t["y"].T]))
        acc = part if acc is None else acc.merge(part)
    for got, want in zip(stats(mc), stats(acc)):
        assert np.array_equal(got, want)


def stats_of(x):
    """(mean, variance, se_mean, se_variance) of a 1-D sample."""
    return tuple(float(s[0]) for s in stats(McResult.of(np.asarray(x)[None])))


def dense_reference(drop: Drop, n: int, rng):
    """n rates and (n, K-1) interferer terms |f^H h_j|^2 with every link's
    path fading drawn in full, g ~ CN(0, I_P), each channel built as
    a h_los + b R g and the SINR from the receiver's inner products."""
    tau = drop.tau

    def channel(link):
        a, b = link.weights
        g = crandn(rng, (n, link.num_paths))
        return a * link.h_los + b * (g @ correlation_factor(link.paths).T)

    err = drop.err_amp * crandn(rng, (n, drop.num_antennas))
    h = channel(drop.desired)
    f = math.sqrt(1.0 - tau**2) * h + tau * err
    y = np.column_stack([np.abs(np.sum(f.conj() * channel(link), axis=1)) ** 2
                         for link in drop.links])
    leak = np.abs(np.sum(err.conj() * h, axis=1)) ** 2
    i = drop.desired.rho * tau**2 * leak \
        + y @ np.array([link.rho for link in drop.links]) \
        + np.sum(np.abs(f) ** 2, axis=1)
    s = np.sum(np.abs(h) ** 2, axis=1) ** 2
    return np.log1p(drop.desired.rho * (1.0 - tau**2) * s / i), y


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
        parts = [McResult.of(x[None, a:b]) for a, b in zip(bounds, bounds[1:])]
        merged = parts[0]
        for part in parts[1:]:
            merged = merged.merge(part)
        one = stats_of(x)
        # A spread far below the values' magnitude leaves only roundoff of
        # that magnitude; the absolute floor is ~100 ulps of it.
        scale = float(np.max(np.abs(x))) + 1.0
        for got, want, power in zip(stats(merged), one, (1, 2, 1, 2)):
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
        # of the same chunk stream
        drop = small_drop(seed=4)
        n = 3000
        mc = run_monte_carlo(drop, n, 5)
        ys = np.concatenate([
            compute_terms(drop, *draw_fading(drop, rng, k))["y"]
            for rng, k in _chunks(n, DEFAULT_CHUNK, 5, 0)])
        assert mc.n == n
        assert ys.shape == (n, 3)
        np.testing.assert_allclose(mc.mean[Y], ys.mean(0), rtol=1e-10)
        np.testing.assert_allclose(mc.variance[Y], ys.var(0, ddof=1),
                                   rtol=1e-8)

    def test_perfect_csi_single_device_rate_is_deterministic(self):
        grid = build_grid((0.0, 0.0), 0.25, 16, 0.1)
        target = Device(position=np.array([0.0, 0.0, 1.0]))
        h = device_los(target, grid)
        drop = Drop(desired=los_link(h, 2.0), links=small_drop().links[:0],
                    err_amp=np.abs(h), tau=0.0, grid=grid, target_z=1.0)
        expect = math.log1p(2.0 * float(np.sum(np.abs(h) ** 2)) ** 2
                            / float(np.sum(np.abs(h) ** 2)))
        # one chunk, and three merged ones
        for n in (400, 2 * DEFAULT_CHUNK + 400):
            mc = run_monte_carlo(drop, n, 0)
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
        n = 2 * DEFAULT_CHUNK
        mc = run_monte_carlo(drop, n, 1)
        z = np.concatenate([
            compute_terms(drop, *draw_fading(drop, rng, k))["z"]
            for rng, k in _chunks(n, drop.chunk_size, 1, 0)])
        d = z - z.mean()
        m2, m4 = np.mean(d**2), np.mean(d**4)
        two_pass = math.sqrt((m4 - (n - 3) / (n - 1) * m2**2) / n)
        assert mc.variance[Z] == pytest.approx(z.var(ddof=1), rel=1e-6)
        assert two_pass / 1.5 < mc.se_variance[Z] < 1.5 * two_pass

    @pytest.mark.parametrize("stochastic", [False, True])
    def test_streamed_draws_equal_listed_draws(self, stochastic):
        # every statistic of run_monte_carlo must equal, bit for bit, the
        # kernel fed draw_fading's (eps, g_des, w) chunk by chunk.  A
        # stochastic desired channel, or one with scattered interferers,
        # takes each chunk whole, here over four chunks, the last partial,
        # and over one whole chunk and a lone-row last chunk, on hand-built
        # mixed links and on basis-route, dense-route and mixed
        # probabilistic drops
        if stochastic:
            devices = [Device(position=np.array([r, 0.0, 1.0]), index=i)
                       for i, r in enumerate((1.0, 3.0, 7.0))]
            drops = [build_mimo_drop(devices, 16, 0.1, seed=8)]
            sizes = [2 * DEFAULT_CHUNK + 500]
        else:
            basis, dense = (nlos_drop("uniform-room", 400, 0.05),
                            nlos_drop("uniform-room", 100, 0.25))
            assert route_name(basis) == "_basis_power"
            assert route_name(dense) == "_dense_power"
            drops = [small_drop(seed=4), basis, dense,
                     nlos_drop("uniform-room", 400, 0.25,
                               mode="probabilistic", num_devices=6)]
            sizes = [2 * DEFAULT_CHUNK + 500, DEFAULT_CHUNK + 1]
        for drop in drops:
            for n in sizes:
                assert_streamed_equals_listed(drop, n)

    @pytest.mark.parametrize("n", [2 * DEFAULT_CHUNK + 500,
                                   2 * BASIS_ROWS + 1])
    def test_streamed_los_blocks_equal_listed_draws(self, n):
        # a los-only drop runs in chunks of BASIS_ROWS draws, here fifteen
        # and a partial last chunk, or two and a lone-row last chunk: the
        # statistics must equal the kernel's, chunk by chunk, bit for bit
        drop = make_drop(ScenarioConfig(
            kind="grid-plane", mode="los-only", num_devices=10,
            m_grid=(100,), drops=1, realizations=2, seed=7), 0)
        assert_streamed_equals_listed(drop, n)

    @pytest.mark.parametrize("kind", ["nlos-only", "mimo", "mixed"])
    def test_scattered_draw_is_exact_in_distribution(self, kind):
        # one CN(0, 1) draw per interferer must give the rate and every
        # interferer term the law of full CN(0, I_P) path fading: the MC
        # means against a reference that draws every path gain and builds
        # each channel densely, within 3 combined standard errors
        if kind == "nlos-only":
            drop = make_drop(ScenarioConfig(
                kind="uniform-room", mode="nlos-only", num_devices=6,
                m_grid=(64,), drops=1, realizations=2, seed=4), 0)
        elif kind == "mimo":
            drop = make_drop(ScenarioConfig(
                kind="mimo-baseline", mode="nlos-only", num_devices=6,
                m_grid=(16,), drops=1, realizations=2, seed=4), 0)
        else:
            drop = small_drop(m=64, n_interferers=4, num_paths=16, seed=4)
        n = 20000
        mc = run_monte_carlo(drop, n, 1)
        rate, y = dense_reference(drop, n, np.random.default_rng(2))
        ref = McResult.of(np.vstack([rate, y.T]))
        got = np.concatenate([[mc.mean[RATE]], mc.mean[Y]])
        se = np.hypot(np.concatenate([[mc.se_mean[RATE]], mc.se_mean[Y]]),
                      ref.se_mean)
        assert np.all(np.abs(got - ref.mean) < 3 * se)

    def test_chunk_holds_one_links_fading(self):
        # numpy reports its buffers to tracemalloc: one default chunk must
        # peak below the bytes of all links' path fading held at once, and
        # below eps plus two (n, P) complex blocks: no link's path fading
        # is drawn, so beside eps a chunk holds one link's f^H R product
        # and that link's (M, P) factor
        drop = make_drop(ScenarioConfig(
            kind="grid-plane", mode="nlos-only", num_devices=10,
            m_grid=(400,), drops=1, realizations=2048, seed=3), 0)
        n = 2048
        all_fading = sum(16 * n * link.num_paths for link in drop.links)
        p = max(link.num_paths for link in drop.links)
        tracemalloc.start()
        try:
            run_monte_carlo(drop, n, 3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < all_fading
        assert peak < 16 * n * drop.num_antennas + 2 * 16 * n * p

    @pytest.mark.parametrize("kind,m,mode", [
        ("grid-plane", 1600, "nlos-only"), ("uniform-room", 400, "nlos-only"),
        ("uniform-room", 400, "probabilistic")])
    def test_scattered_chunk_streams_its_draws(self, kind, m, mode):
        # run_monte_carlo draws a scattered chunk's eps and its w after it,
        # one chunk of DEFAULT_CHUNK rows at a time (basis links at
        # M = 1600, dense ones at M = 400): over eight chunks the traced
        # peak must stay below half the run's (n, M) error draws
        drop = nlos_drop(kind, m, 0.25, mode=mode)
        assert not drop.pathless
        n = 8 * DEFAULT_CHUNK
        tracemalloc.start()
        try:
            run_monte_carlo(drop, n, 0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * n * m / 2

    def test_rejects_tiny_sample(self):
        with pytest.raises(ValueError):
            run_monte_carlo(small_drop(), 1, 0)

    def test_chunk_size_rule(self):
        # BASIS_ROWS draws only when nothing is drawn past eps: a
        # deterministic desired channel and no interferer with paths
        los = nlos_drop("grid-plane", 100, 0.25, mode="los-only")
        stochastic = baseline_drop(16, 1)
        assert los.pathless and stochastic.pathless
        assert los.chunk_size == BASIS_ROWS
        assert stochastic.chunk_size == DEFAULT_CHUNK
        assert small_drop().chunk_size == DEFAULT_CHUNK


def sample_yn2_normalized(drop: Drop, link_idx: int, n_real: int,
                          seed) -> np.ndarray:
    """Draws of the error-times-scattering interference term, normalized to
    unit variance; asymptotically standard complex Gaussian."""
    link = drop.links[link_idx]
    if link.num_paths == 0:
        raise ValueError("link has no scattered paths")
    w = correlation_factor(link.paths, drop.err_amp, conjugate=True)
    scale = math.sqrt(float(drop.err_amp**2 @ link.paths.row_power()))
    out = []
    for rng, n in _chunks(n_real, DEFAULT_CHUNK, seed, link_idx):
        eps = crandn(rng, (n, drop.num_antennas))
        g = crandn(rng, (n, link.num_paths))
        out.append(np.einsum("ij,ij->i", (eps @ w).conj(), g) / scale)
    return np.concatenate(out)


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
        d2 = Drop(desired=drop.desired, links=stack_links(bare),
                  err_amp=drop.err_amp, tau=0.5)
        with pytest.raises(ValueError):
            sample_yn2_normalized(d2, 0, 10, seed=0)
