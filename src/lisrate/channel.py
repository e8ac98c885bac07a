"""Deterministic channel construction: LOS vectors, steering vectors and
the scattered paths' correlation factors.  A link combines them as
`mc_engine.Link`."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import AntennaGrid, Device, distance, los_gain

# NLOS distances below 1 m would amplify under d**(-beta_pl/2); clamp there.
NLOS_MIN_DISTANCE = 1.0


@dataclass(frozen=True)
class PathSet:
    """Frozen angles of the P dominant scattered paths of one link."""

    theta_v: np.ndarray  # (P,) elevation, radians in (-pi/2, pi/2)
    theta_h: np.ndarray  # (P,) azimuth, radians in (-pi/2, pi/2)

    def __post_init__(self):
        tv, th = np.asarray(self.theta_v), np.asarray(self.theta_h)
        if tv.shape != th.shape:
            raise ValueError("theta_v and theta_h must have equal length")
        if np.any(np.abs(tv) >= np.pi / 2) or np.any(np.abs(th) >= np.pi / 2):
            raise ValueError("path angles must lie in (-pi/2, pi/2)")

    @property
    def num_paths(self) -> int:
        return len(np.asarray(self.theta_v))

    @property
    def gains(self) -> np.ndarray:
        """Per-path antenna gains sqrt(cos(theta_v) cos(theta_h))."""
        return np.sqrt(np.cos(self.theta_v) * np.cos(self.theta_h))


def random_path_set(num_paths: int, rng) -> PathSet:
    """i.i.d. uniform path angles on (-pi/2, pi/2)."""
    half = np.pi / 2
    return PathSet(theta_v=rng.uniform(-half, half, num_paths),
                   theta_h=rng.uniform(-half, half, num_paths))


def los_channel(device: Device, grid: AntennaGrid) -> np.ndarray:
    """Deterministic LOS channel: amplitude los_gain, phase exp(-2j pi d/lambda)."""
    d = distance(device.position, grid.positions)
    amp = los_gain(device, grid.positions)
    return amp * np.exp(-2j * np.pi * d / grid.wavelength)


def _phase_ramp(n: int, steps) -> np.ndarray:
    """exp(1j * step * k) for k < n, shape (n,) + steps.shape."""
    return np.exp(1j * np.multiply.outer(np.arange(n), steps))


def upa_steering(theta_v, theta_h, num_antennas: int, spacing: float,
                 wavelength: float) -> np.ndarray:
    """Planar-array steering vectors (1/sqrt(M)) d_v(phi_v) kron d_h(phi_h).

    phi_v = sin(theta_v) and phi_h = sin(theta_h) cos(theta_h); both ramps
    have phase step (2 pi spacing / wavelength) * phi.  The angles broadcast
    against each other; the result has shape (M,) + that shape, one steering
    vector per column.
    """
    n = math.isqrt(num_antennas)
    if n * n != num_antennas:
        raise ValueError(f"num_antennas must be a perfect square, got {num_antennas}")
    theta_v, theta_h = np.broadcast_arrays(theta_v, theta_h)
    phi_v = np.sin(theta_v)
    phi_h = np.sin(theta_h) * np.cos(theta_h)
    step = 2.0 * np.pi * spacing / wavelength
    d_v = _phase_ramp(n, step * phi_v)
    d_h = _phase_ramp(n, step * phi_h)
    kron = (d_v[:, None] * d_h[None, :]).reshape((num_antennas,) + phi_v.shape)
    return kron / math.sqrt(num_antennas)


def ula_steering(theta_h, num_antennas: int, spacing: float,
                 wavelength: float) -> np.ndarray:
    """Linear-array steering vectors with phase step (2 pi spacing/lambda)
    sin(theta), shape (M,) + theta_h.shape."""
    step = 2.0 * np.pi * spacing / wavelength * np.sin(theta_h)
    return _phase_ramp(num_antennas, step) / math.sqrt(num_antennas)


def correlation_factor(device: Device, grid: AntennaGrid, paths: PathSet,
                       beta_pl: float) -> np.ndarray:
    """NLOS correlation factor diag(d_m**(-beta_pl/2)) @ [alpha_p d(path_p)],
    a C-contiguous (M, P) array.

    Per-antenna NLOS path loss uses the device-to-antenna distance, clamped
    at NLOS_MIN_DISTANCE.
    """
    d = np.maximum(distance(device.position, grid.positions), NLOS_MIN_DISTANCE)
    loss = d ** (-beta_pl / 2.0)
    cols = paths.gains * upa_steering(paths.theta_v, paths.theta_h,
                                      grid.num_antennas, grid.spacing,
                                      grid.wavelength)
    return loss[:, None] * cols
