import dataclasses
import math

import numpy as np
import pytest

from lisrate.channel import (
    NLOS_MIN_DISTANCE,
    RAMP_BASIS_RTOL,
    Scattering,
    _centred_coordinates,
    _phase_ramp,
    correlation_factor,
    los_channel,
    ramp_basis,
)
from lisrate.geometry import Device, build_grid, distance, los_gain
from lisrate.mc_engine import Drop, Link

from test_mc_engine import (device_los, device_paths, planned_route,
                             route_name, stack_links)


@pytest.fixture
def grid():
    return build_grid((0.0, 0.0), 0.25, 16, 0.1)


class TestLosChannel:
    def test_amplitude_and_phase(self, grid):
        dev = Device(position=np.array([0.2, -0.4, 1.3]))
        d = distance(dev.position, grid.positions)
        h = los_channel(d, dev.z, grid)
        np.testing.assert_allclose(np.abs(h), los_gain(dev.z, d))
        np.testing.assert_allclose(np.angle(h),
                                   np.angle(np.exp(-2j * np.pi * d / 0.1)))

    def test_overhead_symmetry(self, grid):
        # device on the unit axis: the channel has the lattice's 4-fold symmetry
        dev = Device(position=np.array([0.0, 0.0, 1.0]))
        h = device_los(dev, grid).reshape(4, 4)
        np.testing.assert_allclose(h, h[::-1, :])
        np.testing.assert_allclose(h, h[:, ::-1])
        np.testing.assert_allclose(h, h.T)


class TestPhaseRamp:
    @pytest.mark.parametrize("n", [1, 2, 3, 10, 15, 16, 17, 40, 100, 1600])
    @pytest.mark.parametrize("shape", [(), (7,), (2, 3), (0,)])
    def test_matches_direct_exponentials(self, n, shape):
        # the split ramp agrees with one exponential per entry, in shape
        # too, for any length and number of steps
        steps = np.random.default_rng(n).uniform(-np.pi, np.pi, shape)
        if shape == ():
            steps = float(steps)
        got = _phase_ramp(n, steps)
        want = np.exp(1j * np.multiply.outer(np.arange(n), steps))
        assert got.shape == want.shape
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)

    def test_extreme_steps(self):
        steps = np.array([-np.pi, 0.0, np.pi])
        np.testing.assert_allclose(
            _phase_ramp(1600, steps),
            np.exp(1j * np.multiply.outer(np.arange(1600), steps)),
            rtol=0, atol=1e-12)


# Phase step of half-wavelength spacing, 2 pi 0.05 / 0.1.
STEP = math.pi


def ramp(n, step):
    """exp(1j step k) for k < n, one exponential per entry."""
    return np.exp(1j * step * np.arange(n))


def unit_paths(theta_v, theta_h, n_v, n_h):
    """Unit-loss, unit-gain paths at the angles on an n_v x n_h array, with
    the planar steps STEP sin(theta_v) and STEP sin(theta_h) cos(theta_h)."""
    theta_v, theta_h = np.atleast_1d(theta_v, theta_h)
    return Scattering(1.0, np.ones(theta_v.size), STEP * np.sin(theta_v),
                      STEP * np.sin(theta_h) * np.cos(theta_h), n_v, n_h)


class TestSteering:
    # the columns of correlation_factor with unit loss and gains are the
    # steering vectors (d_v kron d_h) / sqrt(M)
    @pytest.mark.parametrize("tv,th", [(0.0, 0.0), (0.5, -0.3), (-1.2, 0.9)])
    def test_upa_unit_norm(self, tv, th):
        v = correlation_factor(unit_paths(tv, th, 8, 8))[:, 0]
        assert np.linalg.norm(v) == pytest.approx(1.0)

    def test_upa_is_kron_of_ramps(self):
        v = correlation_factor(unit_paths(0.4, -0.2, 4, 4))[:, 0]
        dv = ramp(4, STEP * math.sin(0.4))
        dh = ramp(4, STEP * math.sin(-0.2) * math.cos(-0.2))
        np.testing.assert_allclose(v, np.kron(dv, dh) / 4.0)

    def test_upa_broadside_is_flat(self):
        v = correlation_factor(unit_paths(0.0, 0.0, 5, 5))[:, 0]
        np.testing.assert_allclose(v, np.full(25, 0.2))

    def test_broadcast_matches_kron_of_ramps(self):
        # one column per path, vertical ramp outer, horizontal ramp inner;
        # a linear array (n_v = 1) is the horizontal ramp alone
        rng = np.random.default_rng(4)
        tv = rng.uniform(-1.5, 1.5, 6)
        th = rng.uniform(-1.5, 1.5, 6)
        upa = correlation_factor(unit_paths(tv, th, 5, 5))
        ula = correlation_factor(unit_paths(tv, th, 1, 25))
        assert upa.shape == ula.shape == (25, 6)
        for p in range(6):
            step_h = STEP * math.sin(th[p]) * math.cos(th[p])
            dv = ramp(5, STEP * math.sin(tv[p]))
            np.testing.assert_allclose(upa[:, p],
                                       np.kron(dv, ramp(5, step_h)) / 5.0,
                                       rtol=1e-14)
            np.testing.assert_allclose(ula[:, p], ramp(25, step_h) / 5.0,
                                       rtol=1e-14)

    def test_ula_unit_norm_and_step(self):
        paths = Scattering(1.0, np.ones(1), np.zeros(1),
                           np.array([STEP * math.sin(0.7)]), 1, 8)
        v = correlation_factor(paths)[:, 0]
        assert np.linalg.norm(v) == pytest.approx(1.0)
        step = np.angle(v[1] / v[0])
        assert step == pytest.approx(2 * np.pi * 0.5 * math.sin(0.7))


class TestNlosScattering:
    def test_gains(self, grid):
        dev = Device(position=np.array([1.0, 2.0, 1.5]))
        angles = np.array([[0.0, 0.5], [0.3, 0.0]])
        np.testing.assert_allclose(
            device_paths(dev, grid, angles, 3.7).gains,
            np.sqrt(np.cos(angles[0]) * np.cos(angles[1])))


class TestCorrelationFactor:
    def test_shape_and_column_structure(self, grid):
        dev = Device(position=np.array([1.0, 2.0, 1.5]))
        theta_v, theta_h = np.random.default_rng(1).uniform(
            -np.pi / 2, np.pi / 2, (2, 3))
        rh = correlation_factor(
            device_paths(dev, grid, (theta_v, theta_h), 3.7))
        assert rh.shape == (16, 3) and rh.flags.c_contiguous
        d = np.maximum(distance(dev.position, grid.positions), NLOS_MIN_DISTANCE)
        loss = d ** (-3.7 / 2)
        gain0 = math.sqrt(math.cos(theta_v[0]) * math.cos(theta_h[0]))
        step = 2 * np.pi * grid.spacing / 0.1
        dv = ramp(4, step * math.sin(theta_v[0]))
        dh = ramp(4, step * math.sin(theta_h[0]) * math.cos(theta_h[0]))
        np.testing.assert_allclose(rh[:, 0],
                                   loss * gain0 * np.kron(dv, dh) / 4.0)

    def test_distance_clamp(self, grid):
        # device nearly touching the surface: distances < 1 m must clamp
        dev = Device(position=np.array([0.0, 0.0, 0.01]))
        rh = correlation_factor(device_paths(dev, grid, np.zeros((2, 1)),
                                                3.7))
        # unit path gain at normal incidence
        np.testing.assert_allclose(np.abs(rh[:, 0]), 1.0 / 4.0)

    def test_scaled_conjugate(self, grid):
        # conj(diag(scale) R): negated phase steps and one row scale;
        # ||h^H R||^2 comes from the separable form without R
        dev = Device(position=np.array([1.0, 2.0, 1.5]))
        rng = np.random.default_rng(4)
        paths = device_paths(dev, grid,
                                rng.uniform(-np.pi / 2, np.pi / 2, (2, 5)),
                                3.7)
        scale = rng.uniform(0.1, 2.0, 16)
        r = correlation_factor(paths)
        np.testing.assert_allclose(
            correlation_factor(paths, scale, conjugate=True),
            np.conj(scale[:, None] * r), rtol=1e-13)
        h = rng.standard_normal(16) + 1j * rng.standard_normal(16)
        assert paths.projected_power(h) == pytest.approx(
            np.sum(np.abs(h.conj() @ r) ** 2), rel=1e-12)

    def test_empty_factor(self, grid):
        dev = Device(position=np.array([1.0, 2.0, 1.5]))
        rh = correlation_factor(device_paths(dev, grid, np.empty((2, 0)),
                                                3.7))
        assert rh.shape == (16, 0)


# The rank of each (n, band): even and odd n, n = 1, 2 and 3, and a band
# that fills [-pi, pi) (7, 4.0).  It is the count of the ramps' own
# singular values above RAMP_BASIS_RTOL times the largest.
RAMP_RANKS = {(20, 0.6): 18, (40, 0.9): 30, (40, 0.45): 22, (80, 0.2): 22,
              (7, 4.0): 7, (21, 0.7): 19, (41, 1.3): 36, (1, 1.0): 1,
              (2, 1.0): 2, (3, 1.0): 3, (2, 0.1): 2, (3, 0.1): 3}


class TestRampBasis:
    @pytest.mark.parametrize("n,band", RAMP_RANKS)
    def test_orthonormal_and_spans_band(self, n, band):
        # fresh steps, the band's edges among them, not only the sampled ones
        u = ramp_basis(n, band)
        np.testing.assert_allclose(u.conj().T @ u, np.eye(u.shape[1]),
                                   atol=1e-12)
        steps = np.concatenate([
            [-band, band], np.random.default_rng(n).uniform(-band, band, 500)])
        d = _phase_ramp(n, steps)
        residual = d - u @ (u.conj().T @ d)
        assert np.max(np.linalg.norm(residual, axis=0)) < 1e-12 * math.sqrt(n)
        assert not u.flags.writeable and ramp_basis(n, band) is u

    @pytest.mark.parametrize("n,band", RAMP_RANKS)
    def test_even_then_odd_with_real_coordinates(self, n, band):
        # exactly even real vectors, then exactly odd ones times 1j, as many
        # as the ramps' own rank; so a centred ramp exp(1j t (k - c)) has
        # real coordinates, which _centred_coordinates gives
        u = ramp_basis(n, band)
        steps = np.linspace(-band, band, 4 * n + 1)
        sv = np.linalg.svd(_phase_ramp(n, steps), compute_uv=False)
        assert u.shape[1] == RAMP_RANKS[n, band] \
            == np.sum(sv > RAMP_BASIS_RTOL * sv[0])
        even = (u.imag == 0).all(axis=0) & (u.real == u.real[::-1]).all(axis=0)
        odd = (u.real == 0).all(axis=0) & (u.imag == -u.imag[::-1]).all(axis=0)
        r_e = int(np.sum(even))
        assert r_e >= 1 and even[:r_e].all() and odd[r_e:].all()
        steps = np.concatenate([
            [-band, 0.0, band],
            np.random.default_rng(n).uniform(-band, band, 200)])
        centred = np.exp(1j * np.multiply.outer(np.arange(n) - (n - 1) / 2,
                                                steps))
        coords = u.conj().T @ centred
        top = np.max(np.abs(coords))
        assert np.max(np.abs(coords.imag)) <= 1e-13 * top
        np.testing.assert_allclose(_centred_coordinates(u, steps),
                                   coords.real, rtol=0, atol=1e-13 * top)

    def test_rank_is_set_by_the_aperture(self):
        # a 0.5 m unit at lambda = 0.1 m: the ramps' rank r_v r_h stops
        # growing with M while P = M/2 does
        ranks = []
        for m in (1600, 3600, 6400):
            grid = build_grid((0.0, 0.0), 0.25, m, 0.1)
            s = 2 * np.pi * grid.spacing / 0.1
            ranks.append(ramp_basis(grid.side, s).shape[1]
                         * ramp_basis(grid.side, s / 2).shape[1])
        assert ranks == sorted(ranks) and ranks[-1] - ranks[0] <= 40
        assert ranks[0] < 800

    def test_basis_spans_the_factor(self):
        # diag(loss) B C diag(phase) rebuilds R from the constants of a
        # drop's planned basis route, with a real C whose column p is
        # c_v,p kron c_h,p and each path's centring phase; without a band,
        # or with r >= P, the drop takes the dense route
        grid = build_grid((0.0, 0.0), 0.25, 1600, 0.1)
        dev = Device(position=np.array([1.0, 2.0, 1.5]))
        angles = np.random.default_rng(2).uniform(-np.pi / 2, np.pi / 2,
                                                  (2, 800))
        paths = device_paths(dev, grid, angles, 3.7)
        links = [
            Link(kappa=0.0, h_los=np.zeros(1600, complex), paths=s, rho=1.0)
            for s in (paths, dataclasses.replace(paths, band=None),
                      device_paths(dev, grid, angles[:, :500], 3.7))]
        drops = [Drop(desired=links[0], links=stack_links(link),
                      err_amp=np.ones(1600), tau=0.5) for link in links]
        assert [route_name(drop) for drop in drops] == [
            "_basis_power", "_dense_power", "_dense_power"]
        kept, u_v, u_h, ((c_v, c_h),) = planned_route(drops[0])[1]
        assert kept is drops[0].links.paths
        np.testing.assert_array_equal(kept.gains[0], paths.gains)
        assert c_v.dtype == c_h.dtype == float
        c = (c_v[:, None] * c_h[None, :]).reshape(-1, 800)
        assert c.shape == (u_v.shape[1] * u_h.shape[1], 800)
        phase = np.exp(0.5j * (paths.step_v * (paths.n_v - 1)
                               + paths.step_h * (paths.n_h - 1)))
        r = correlation_factor(paths)
        rebuilt = paths.loss[:, None] * (np.kron(u_v, u_h) @ c) * phase
        assert np.linalg.norm(rebuilt - r) < 1e-12 * np.linalg.norm(r)
