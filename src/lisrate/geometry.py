"""Antenna-surface geometry: unit grids, device deployments, LOS link gains.

Every surface unit is a square patch of side 2L on the z=0 plane serving the
device hovering above its center.  All positions are 3D Cartesian, in meters.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

MIN_DEVICE_DISTANCE = 1.0  # minimum device-to-unit-center distance, meters


@dataclass(frozen=True)
class AntennaGrid:
    """A square M-antenna unit centered at `center` on the z=0 plane.

    Antennas sit on a cell-centered rectangular lattice with pitch `spacing`,
    so M = (2*half_length/spacing)**2 holds exactly and no antenna lies on
    the unit boundary.
    """

    center: np.ndarray          # (3,) with center[2] == 0
    half_length: float          # L
    num_antennas: int           # M, a perfect square
    spacing: float              # lattice pitch
    wavelength: float
    positions: np.ndarray = field(repr=False)  # (M, 3), z == 0

    @property
    def side(self) -> int:
        return math.isqrt(self.num_antennas)


@dataclass(frozen=True)
class Device:
    """A single-antenna device at `position` (z > 0), identified by `index`."""

    position: np.ndarray  # (3,)
    index: int = 0

    @property
    def z(self) -> float:
        return float(self.position[2])


def build_grid(center_xy, half_length: float, num_antennas: int,
               wavelength: float) -> AntennaGrid:
    """Build the antenna lattice of one unit.

    Antenna (i, j) sits at center + (-L + (j+1/2)*dl, -L + (i+1/2)*dl, 0)
    with dl = 2L/sqrt(M); index m = i*sqrt(M) + j so the slow axis is y.
    """
    if half_length <= 0:
        raise ValueError(f"half_length must be positive, got {half_length}")
    if wavelength <= 0:
        raise ValueError(f"wavelength must be positive, got {wavelength}")
    n = math.isqrt(num_antennas)
    if n * n != num_antennas or num_antennas < 1:
        raise ValueError(f"num_antennas must be a perfect square, got {num_antennas}")

    cx, cy = float(center_xy[0]), float(center_xy[1])
    dl = 2.0 * half_length / n
    offsets = -half_length + (np.arange(n) + 0.5) * dl
    xx, yy = np.meshgrid(cx + offsets, cy + offsets, indexing="xy")
    positions = np.column_stack([xx.ravel(), yy.ravel(), np.zeros(num_antennas)])
    return AntennaGrid(
        center=np.array([cx, cy, 0.0]),
        half_length=float(half_length),
        num_antennas=num_antennas,
        spacing=dl,
        wavelength=float(wavelength),
        positions=positions,
    )


def distance(device_pos, antenna_pos) -> np.ndarray:
    """Euclidean distances between devices and antennas, broadcast."""
    diff = np.asarray(antenna_pos, dtype=float) - np.asarray(device_pos, dtype=float)
    diff *= diff
    return np.sqrt(diff[..., 0] + diff[..., 1] + diff[..., 2])


def los_gain(z, d) -> np.ndarray:
    """LOS amplitude gain sqrt(cos(theta)) / sqrt(4 pi d^2) at distances d
    from devices at heights z, broadcast: cos(theta) = z/d, so the squared
    gain is z / (4 pi d^3)."""
    if np.any(np.asarray(z) <= 0):
        raise ValueError("device must be strictly above the surface (z > 0)")
    return np.sqrt(z / (4.0 * np.pi * d**3))


def place_devices_grid(d_m: float, x_range, y_range, z: float,
                       count: int) -> list[Device]:
    """The target device at (0, 0, z) and the `count` - 1 lattice devices
    nearest to it (fewer if the lattice is smaller), nearest first.

    The square lattice has pitch d_m at height z and starts at the range
    minima.  The target gets index 0; lattice points are indexed from 1 in
    row-major order (x fast), skipping a point at the origin.  Points at
    equal distances keep index order.
    """
    if d_m <= 0:
        raise ValueError(f"d_m must be positive, got {d_m}")
    xs = np.arange(x_range[0], x_range[1] + 1e-9 * d_m, d_m)
    ys = np.arange(y_range[0], y_range[1] + 1e-9 * d_m, d_m)
    if xs.size == 0 or ys.size == 0:
        raise ValueError("empty deployment range")

    xx, yy = (a.ravel() for a in np.meshgrid(xs, ys))
    lattice = (np.abs(xx) >= 1e-9 * d_m) | (np.abs(yy) >= 1e-9 * d_m)
    xx, yy = xx[lattice], yy[lattice]  # the target is injected at index 0
    nearest = np.argsort(xx * xx + yy * yy, kind="stable")[:max(count - 1, 0)]
    return [Device(position=np.array([0.0, 0.0, float(z)]), index=0)] + [
        Device(position=np.array([xx[i], yy[i], float(z)]), index=int(i) + 1)
        for i in nearest]


def place_devices_uniform(num_devices: int, box, seed) -> list[Device]:
    """Uniform i.i.d. deployment of `num_devices` devices inside `box`,
    ((xmin, xmax), (ymin, ymax), (zmin, zmax)).  Positions closer than
    MIN_DEVICE_DISTANCE to the center of the serving unit (directly below
    the device, so the distance is z) are redrawn, in blocks of the missing
    count: the same doubles in the same order as one draw per attempt."""
    if num_devices < 1:
        raise ValueError("need at least one device")
    (x0, x1), (y0, y1), (z0, z1) = box
    if z1 <= 0 or z1 < MIN_DEVICE_DISTANCE:
        raise ValueError("box cannot satisfy the minimum-distance constraint")
    rng = np.random.default_rng(seed)
    rows = np.empty((0, 3))
    while len(rows) < num_devices:
        block = rng.uniform((x0, y0, z0), (x1, y1, z1),
                            (num_devices - len(rows), 3))
        rows = np.concatenate(
            (rows, block[block[:, 2] >= MIN_DEVICE_DISTANCE]))
    return [Device(position=pos, index=i) for i, pos in enumerate(rows)]
