import math

import numpy as np
import pytest

from lisrate.baseline_mimo import build_mimo_drop
from lisrate.channel import correlation_factor
from lisrate.geometry import Device


def ring_devices(k, radius=3.0, z=1.5):
    devs = []
    for j in range(k):
        ang = 2 * math.pi * j / k
        devs.append(Device(position=np.array([radius * math.cos(ang),
                                              radius * math.sin(ang), z]),
                           index=j))
    return devs


class TestUlaPaths:
    def test_half_wavelength_steering(self):
        # each path's phase step is pi sin(theta): spacing lambda/2, and
        # the built block is the scalar loss times the ULA ramps
        # exp(1j pi sin(theta) k) / sqrt(M) there
        drop = build_mimo_drop(ring_devices(3), 16, 0.1, seed=0)
        paths = drop.links[0].paths
        assert (paths.n_v, paths.n_h) == (1, 16)
        assert np.all(np.abs(paths.step_h) < np.pi)
        np.testing.assert_array_equal(paths.gains, 1.0)
        theta = np.arcsin(paths.step_h / np.pi)
        ramps = np.exp(1j * np.pi * np.outer(np.arange(16), np.sin(theta)))
        np.testing.assert_allclose(correlation_factor(paths),
                                   paths.loss * ramps / 4.0, rtol=1e-12)


class TestBuildMimoDrop:
    def test_structure(self):
        devs = ring_devices(4)
        drop = build_mimo_drop(devs, 16, 0.1, seed=0)
        assert drop.num_antennas == 16
        assert len(drop.links) == 3
        assert drop.grid is None
        for link in drop.links:
            assert link.kappa == 0.0
            assert link.num_paths == 8  # P = M/2
            assert correlation_factor(link.paths).shape == (16, 8)
            np.testing.assert_array_equal(link.h_los, 0)
        assert not drop.desired.deterministic

    def test_power_control_inverts_path_loss(self):
        devs = ring_devices(3, radius=4.0, z=0.0 + 2.0)
        drop = build_mimo_drop(devs, 8, 0.1, seed=0, target_snr_db=3.0)
        d = math.hypot(math.hypot(4.0 * math.cos(0), 4.0 * math.sin(0)), 2.0)
        snr = 10 ** 0.3
        assert drop.desired.rho == pytest.approx(snr * d ** 3.7)
        np.testing.assert_allclose(drop.err_amp,
                                   d ** (-3.7 / 2.0))

    def test_received_snr_is_distance_free(self):
        # rho_j * ||column||^2 per path should not depend on the distance
        devs = [Device(position=np.array([r, 0.0, 1.0]), index=i)
                for i, r in enumerate((1.0, 3.0, 7.0))]
        drop = build_mimo_drop(devs, 8, 0.1, seed=1)
        powers = []
        for link in drop.links:
            column = correlation_factor(link.paths)[:, 0]
            powers.append(link.rho * np.sum(np.abs(column) ** 2))
        np.testing.assert_allclose(powers, powers[0], rtol=1e-9)

    def test_min_distance_clamp(self):
        devs = [Device(position=np.array([0.0, 0.0, 0.2]), index=0),
                Device(position=np.array([2.0, 0.0, 1.0]), index=1)]
        drop = build_mimo_drop(devs, 8, 0.1, seed=2)
        # clamped to 1 m: unit path loss on the desired error amplitudes
        np.testing.assert_allclose(drop.err_amp, 1.0)

    def test_deterministic_in_seed(self):
        devs = ring_devices(4)
        a = build_mimo_drop(devs, 16, 0.1, seed=5)
        b = build_mimo_drop(devs, 16, 0.1, seed=5)
        np.testing.assert_array_equal(a.links[0].paths.step_h,
                                      b.links[0].paths.step_h)
        c = build_mimo_drop(devs, 16, 0.1, seed=6)
        assert not np.array_equal(a.links[0].paths.step_h,
                                  c.links[0].paths.step_h)

    def test_seed_words(self):
        devs = ring_devices(3)
        a = build_mimo_drop(devs, 8, 0.1, seed=(3, 0, 5))
        b = build_mimo_drop(devs, 8, 0.1, seed=(3, 0, 5))
        np.testing.assert_array_equal(correlation_factor(a.links[1].paths),
                                      correlation_factor(b.links[1].paths))

    @pytest.mark.parametrize("m", [1, 7, 15])
    def test_rejects_odd_antenna_counts(self, m):
        with pytest.raises(ValueError):
            build_mimo_drop(ring_devices(2), m, 0.1, seed=0)
