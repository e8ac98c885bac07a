"""Massive-MIMO comparison scenario: single base station at the origin with a
half-wavelength ULA, pure-NLOS channels, equal device-to-antenna distances,
and unit antenna gains."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channel import ula_steering
from .geometry import Device, MIN_DEVICE_DISTANCE
from .mc_engine import Drop, Link


@dataclass(frozen=True)
class UlaArray:
    num_antennas: int
    wavelength: float
    spacing: float  # defaults to half a wavelength

    @classmethod
    def half_wavelength(cls, num_antennas: int, wavelength: float) -> "UlaArray":
        return cls(num_antennas=num_antennas, wavelength=wavelength,
                   spacing=wavelength / 2.0)


def _nlos_factor(distance: float, array: UlaArray, num_paths: int, rng,
                 beta_pl: float) -> np.ndarray:
    """Per-device scalar path loss times unit-gain ULA steering columns."""
    loss = distance ** (-beta_pl / 2.0)
    angles = rng.uniform(-np.pi / 2, np.pi / 2, num_paths)
    return loss * ula_steering(angles, array.num_antennas, array.spacing,
                               array.wavelength)


def build_mimo_drop(devices: list[Device], num_antennas: int, wavelength: float,
                    seed, *, target_snr_db: float = 3.0, tau: float = 0.5,
                    beta_pl: float = 3.7, target_index: int = 0) -> Drop:
    """Drop for the ULA baseline.

    Every link (desired one included) is pure NLOS with P = M/2 paths and the
    distance to all antennas equal to the device-to-origin distance.  Each
    device's transmit SNR inverts its own path-loss power so the per-antenna
    received SNR meets the target.
    """
    if num_antennas < 2 or num_antennas % 2:
        raise ValueError("num_antennas must be even so that P = M/2 is integral")
    array = UlaArray.half_wavelength(num_antennas, wavelength)
    num_paths = num_antennas // 2
    seed_words = [int(seed)] if np.isscalar(seed) else [int(w) for w in seed]
    snr_lin = 10.0 ** (target_snr_db / 10.0)

    zero_los = np.zeros(num_antennas, dtype=complex)
    links, dists = [], []
    for j, dev in enumerate(devices):
        d = max(float(np.linalg.norm(dev.position)), MIN_DEVICE_DISTANCE)
        rng = np.random.default_rng(np.random.SeedSequence([*seed_words, j]))
        links.append(Link(kappa=0.0, h_los=zero_los,
                          r_half=_nlos_factor(d, array, num_paths, rng, beta_pl),
                          rho=snr_lin * d**beta_pl))
        dists.append(d)
    desired = links.pop(target_index)
    return Drop(desired=desired, links=tuple(links),
                err_amp=np.full(num_antennas,
                                dists[target_index] ** (-beta_pl / 2.0)),
                tau=tau, grid=None, target_z=None)
