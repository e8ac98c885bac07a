import math

import numpy as np
import pytest

from lisrate.channel import (
    NLOS_MIN_DISTANCE,
    correlation_factor,
    los_channel,
    nlos_scattering,
    ula_steering,
    upa_steering,
)
from lisrate.geometry import Device, build_grid, distance, los_gain


@pytest.fixture
def grid():
    return build_grid((0.0, 0.0), 0.25, 16, 0.1)


class TestLosChannel:
    def test_amplitude_and_phase(self, grid):
        dev = Device(position=np.array([0.2, -0.4, 1.3]))
        h = los_channel(dev, grid)
        d = distance(dev.position, grid.positions)
        np.testing.assert_allclose(np.abs(h), los_gain(dev, grid.positions))
        np.testing.assert_allclose(np.angle(h),
                                   np.angle(np.exp(-2j * np.pi * d / 0.1)))

    def test_overhead_symmetry(self, grid):
        # device on the unit axis: the channel has the lattice's 4-fold symmetry
        dev = Device(position=np.array([0.0, 0.0, 1.0]))
        h = los_channel(dev, grid).reshape(4, 4)
        np.testing.assert_allclose(h, h[::-1, :])
        np.testing.assert_allclose(h, h[:, ::-1])
        np.testing.assert_allclose(h, h.T)


class TestSteering:
    @pytest.mark.parametrize("tv,th", [(0.0, 0.0), (0.5, -0.3), (-1.2, 0.9)])
    def test_upa_unit_norm(self, tv, th):
        v = upa_steering(tv, th, 64, 0.05, 0.1)
        assert np.linalg.norm(v) == pytest.approx(1.0)

    def test_upa_is_kron_of_ramps(self):
        v = upa_steering(0.4, -0.2, 16, 0.05, 0.1)
        step = 2 * np.pi * 0.05 / 0.1
        dv = np.exp(1j * step * math.sin(0.4) * np.arange(4))
        dh = np.exp(1j * step * math.sin(-0.2) * math.cos(-0.2) * np.arange(4))
        np.testing.assert_allclose(v, np.kron(dv, dh) / 4.0)

    def test_upa_broadside_is_flat(self):
        v = upa_steering(0.0, 0.0, 25, 0.05, 0.1)
        np.testing.assert_allclose(v, np.full(25, 0.2))

    def test_upa_rejects_non_square(self):
        with pytest.raises(ValueError):
            upa_steering(0.0, 0.0, 10, 0.05, 0.1)

    def test_broadcast_matches_kron_of_ramps(self):
        # one steering vector per angle, in the angles' shape after M
        rng = np.random.default_rng(4)
        tv = rng.uniform(-1.5, 1.5, (2, 3))
        th = rng.uniform(-1.5, 1.5, (2, 3))
        step = 2 * np.pi * 0.05 / 0.1
        k = np.arange(5)
        upa = upa_steering(tv, th, 25, 0.05, 0.1)
        ula = ula_steering(th, 25, 0.05, 0.1)
        assert upa.shape == ula.shape == (25, 2, 3)
        for i, j in np.ndindex(2, 3):
            dv = np.exp(1j * step * math.sin(tv[i, j]) * k)
            dh = np.exp(1j * step * math.sin(th[i, j])
                        * math.cos(th[i, j]) * k)
            np.testing.assert_allclose(upa[:, i, j], np.kron(dv, dh) / 5.0,
                                       rtol=1e-14)
            ramp = np.exp(1j * step * math.sin(th[i, j]) * np.arange(25))
            np.testing.assert_allclose(ula[:, i, j], ramp / 5.0, rtol=1e-14)

    def test_ula_unit_norm_and_step(self):
        v = ula_steering(0.7, 8, 0.05, 0.1)
        assert np.linalg.norm(v) == pytest.approx(1.0)
        step = np.angle(v[1] / v[0])
        assert step == pytest.approx(2 * np.pi * 0.5 * math.sin(0.7))


class TestNlosScattering:
    def test_gains(self, grid):
        dev = Device(position=np.array([1.0, 2.0, 1.5]))
        angles = np.array([[0.0, 0.5], [0.3, 0.0]])
        np.testing.assert_allclose(
            nlos_scattering(dev, grid, angles, 3.7).gains,
            np.sqrt(np.cos(angles[0]) * np.cos(angles[1])))


class TestCorrelationFactor:
    def test_shape_and_column_structure(self, grid):
        dev = Device(position=np.array([1.0, 2.0, 1.5]))
        theta_v, theta_h = np.random.default_rng(1).uniform(
            -np.pi / 2, np.pi / 2, (2, 3))
        rh = correlation_factor(
            nlos_scattering(dev, grid, (theta_v, theta_h), 3.7))
        assert rh.shape == (16, 3) and rh.flags.c_contiguous
        d = np.maximum(distance(dev.position, grid.positions), NLOS_MIN_DISTANCE)
        loss = d ** (-3.7 / 2)
        gain0 = math.sqrt(math.cos(theta_v[0]) * math.cos(theta_h[0]))
        col0 = gain0 * upa_steering(theta_v[0], theta_h[0], 16,
                                    grid.spacing, 0.1)
        np.testing.assert_allclose(rh[:, 0], loss * col0)

    def test_distance_clamp(self, grid):
        # device nearly touching the surface: distances < 1 m must clamp
        dev = Device(position=np.array([0.0, 0.0, 0.01]))
        rh = correlation_factor(nlos_scattering(dev, grid, np.zeros((2, 1)),
                                                3.7))
        # unit path gain at normal incidence
        np.testing.assert_allclose(np.abs(rh[:, 0]), 1.0 / 4.0)

    def test_scaled_conjugate(self, grid):
        # the kernel's block conj(diag(scale) R): negated phase steps and one
        # row scale; h^H R comes from the separable form without R
        dev = Device(position=np.array([1.0, 2.0, 1.5]))
        rng = np.random.default_rng(4)
        paths = nlos_scattering(dev, grid,
                                rng.uniform(-np.pi / 2, np.pi / 2, (2, 5)),
                                3.7)
        scale = rng.uniform(0.1, 2.0, 16)
        r = correlation_factor(paths)
        np.testing.assert_allclose(
            correlation_factor(paths, scale, conjugate=True),
            np.conj(scale[:, None] * r), rtol=1e-13)
        h = rng.standard_normal(16) + 1j * rng.standard_normal(16)
        np.testing.assert_allclose(paths.project(h), h.conj() @ r,
                                   rtol=1e-12)
        assert paths.projected_power(h) == pytest.approx(
            np.sum(np.abs(h.conj() @ r) ** 2), rel=1e-12)

    def test_empty_factor(self, grid):
        dev = Device(position=np.array([1.0, 2.0, 1.5]))
        rh = correlation_factor(nlos_scattering(dev, grid, np.empty((2, 0)),
                                                3.7))
        assert rh.shape == (16, 0)
