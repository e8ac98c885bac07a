import math

import numpy as np
import pytest

from lisrate.geometry import (
    MIN_DEVICE_DISTANCE,
    Device,
    build_grid,
    distance,
    los_gain,
    place_devices_grid,
    place_devices_uniform,
)


class TestBuildGrid:
    def test_lattice_is_cell_centered(self):
        grid = build_grid((0.0, 0.0), 0.25, 4, 0.1)
        # 2x2 lattice inside [-0.25, 0.25]^2 with pitch 0.25
        assert grid.spacing == pytest.approx(0.25)
        expect = np.array([
            [-0.125, -0.125, 0.0],
            [0.125, -0.125, 0.0],
            [-0.125, 0.125, 0.0],
            [0.125, 0.125, 0.0],
        ])
        np.testing.assert_allclose(grid.positions, expect)

    def test_row_major_index_order(self):
        grid = build_grid((0.0, 0.0), 0.5, 9, 0.1)
        # index m = i*side + j: x varies fastest
        xs = grid.positions[:, 0].reshape(3, 3)
        ys = grid.positions[:, 1].reshape(3, 3)
        assert np.all(np.diff(xs, axis=1) > 0)
        assert np.all(np.diff(ys, axis=0) > 0)
        assert np.allclose(np.diff(xs, axis=0), 0)

    def test_no_antenna_on_boundary(self):
        grid = build_grid((1.0, -2.0), 0.25, 100, 0.1)
        rel = grid.positions[:, :2] - grid.center[:2]
        assert np.all(np.abs(rel) < 0.25)

    def test_spacing_identity(self):
        for m in (1, 4, 25, 144):
            grid = build_grid((0, 0), 0.4, m, 0.1)
            assert grid.spacing * grid.side == pytest.approx(0.8)

    def test_off_center_translation(self):
        a = build_grid((0.0, 0.0), 0.25, 16, 0.1)
        b = build_grid((3.0, -1.5), 0.25, 16, 0.1)
        np.testing.assert_allclose(b.positions - [3.0, -1.5, 0.0], a.positions)

    @pytest.mark.parametrize("m", [2, 3, 5, 8, 10, 99])
    def test_rejects_non_square(self, m):
        with pytest.raises(ValueError, match="perfect square"):
            build_grid((0, 0), 0.25, m, 0.1)

    def test_rejects_bad_lengths(self):
        with pytest.raises(ValueError):
            build_grid((0, 0), 0.0, 4, 0.1)
        with pytest.raises(ValueError):
            build_grid((0, 0), 0.25, 4, -1.0)


class TestLosGain:
    def test_matches_projected_area_form(self):
        # squared amplitude z / (4 pi d^3) == cos(theta) / (4 pi d^2)
        dev = Device(position=np.array([0.3, -0.2, 1.7]))
        pos = np.array([[0.1, 0.0, 0.0], [-0.2, 0.4, 0.0]])
        d = distance(dev.position, pos)
        g = los_gain(dev.z, d)
        np.testing.assert_allclose(g**2, (dev.z / d) / (4 * np.pi * d**2))

    def test_directly_overhead(self):
        dev = Device(position=np.array([0.0, 0.0, 2.0]))
        g = los_gain(dev.z, distance(dev.position, np.zeros(3)))
        assert g**2 == pytest.approx(1.0 / (4 * math.pi * 4.0))

    def test_rejects_device_on_surface(self):
        dev = Device(position=np.array([0.0, 0.0, 0.0]))
        with pytest.raises(ValueError):
            los_gain(dev.z, distance(dev.position, np.zeros(3)))

    def test_gain_decreases_with_offset(self):
        dev = Device(position=np.array([0.0, 0.0, 1.0]))
        offsets = np.array([[r, 0.0, 0.0] for r in (0.0, 0.5, 1.0, 2.0)])
        g = los_gain(dev.z, distance(dev.position, offsets))
        assert np.all(np.diff(g) < 0)


class TestDistance:
    def test_broadcasting(self):
        d = distance([0, 0, 1], np.zeros((5, 3)))
        np.testing.assert_allclose(d, np.ones(5))

    def test_scalar(self):
        assert distance([0, 0, 0], [3, 4, 0]) == pytest.approx(5.0)


class TestPlacement:
    def test_grid_has_target_first(self):
        devs = place_devices_grid(5.0, (-10, 10), (-10, 10), 1.0, 100)
        np.testing.assert_allclose(devs[0].position, [0, 0, 1.0])
        assert devs[0].index == 0
        assert len(devs) == 25  # 5x5 lattice, target coincides with (0,0)

    def test_grid_pitch(self):
        devs = place_devices_grid(2.0, (-2, 2), (-2, 2), 1.0, 50)
        pts = np.array([d.position[:2] for d in devs])
        assert len(devs) == 9  # the whole 3x3 lattice, fewer than asked
        # every lattice point is a multiple of the pitch
        np.testing.assert_allclose(pts % 2.0, 0, atol=1e-9)

    def test_grid_keeps_count_nearest(self):
        devs = place_devices_grid(2.0, (-4, 4), (-4, 4), 1.0, 5)
        # the target and its four neighbours one pitch away, by index
        assert [d.index for d in devs] == [0, 8, 12, 13, 17]
        np.testing.assert_allclose(
            [d.position[:2] for d in devs[1:]],
            [[0, -2], [-2, 0], [2, 0], [0, 2]])

    def test_grid_ties_keep_index_order(self):
        # (1.1, -0.1) and (-0.1, 1.1) are mirror images, so equally far
        # from the target; the lower index comes first
        devs = place_devices_grid(0.3, (-10, 10), (-10, 10), 1.0, 64)
        order = [d.index for d in devs]
        assert order.index(2249) < order.index(2513)
        np.testing.assert_array_equal(devs[order.index(2249)].position[:2],
                                      devs[order.index(2513)].position[1::-1])
        keys = [(d.position[0] ** 2 + d.position[1] ** 2, d.index)
                for d in devs]
        assert keys == sorted(keys)

    def test_grid_rejects_bad_pitch(self):
        with pytest.raises(ValueError):
            place_devices_grid(0.0, (-10, 10), (-10, 10), 1.0, 4)

    def test_uniform_respects_min_distance(self):
        devs = place_devices_uniform(
            200, ((-2, 2), (-2, 2), (0, 2)), np.random.SeedSequence(0))
        zs = np.array([d.z for d in devs])
        assert np.all(zs >= MIN_DEVICE_DISTANCE)
        assert len(devs) == 200

    def test_uniform_within_box(self):
        devs = place_devices_uniform(
            50, ((-1, 3), (0, 2), (1, 2)), np.random.SeedSequence(4))
        pts = np.array([d.position for d in devs])
        assert np.all(pts[:, 0] >= -1) and np.all(pts[:, 0] <= 3)
        assert np.all(pts[:, 1] >= 0) and np.all(pts[:, 1] <= 2)

    def test_uniform_deterministic_in_seed(self):
        box = ((-2, 2), (-2, 2), (0, 2))
        a = place_devices_uniform(10, box, np.random.SeedSequence(7))
        b = place_devices_uniform(10, box, np.random.SeedSequence(7))
        for da, db in zip(a, b):
            np.testing.assert_array_equal(da.position, db.position)

    @pytest.mark.parametrize("num_devices", [1, 6, 30])
    def test_uniform_blocks_keep_the_per_device_stream(self, num_devices):
        # the room box puts about half of the draws below 1 m: the block
        # draws keep, bit for bit, one draw per attempt, device by device
        box = ((-2.0, 2.0), (-2.0, 2.0), (0.0, 2.0))
        rejected = 0
        for seed in range(100):
            rng = np.random.default_rng(np.random.SeedSequence([seed, 0]))
            want = []
            while len(want) < num_devices:
                pos = rng.uniform([-2.0, -2.0, 0.0], [2.0, 2.0, 2.0])
                if pos[2] >= MIN_DEVICE_DISTANCE:
                    want.append(pos)
                else:
                    rejected += 1
            devs = place_devices_uniform(num_devices, box,
                                         np.random.SeedSequence([seed, 0]))
            assert [d.index for d in devs] == list(range(num_devices))
            np.testing.assert_array_equal([d.position for d in devs], want)
        assert rejected > 0

    def test_uniform_rejects_impossible_box(self):
        with pytest.raises(ValueError):
            place_devices_uniform(5, ((-1, 1), (-1, 1), (0.0, 0.5)),
                                  np.random.SeedSequence(0))
