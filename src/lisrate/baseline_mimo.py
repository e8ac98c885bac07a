"""Massive-MIMO comparison scenario: single base station at the origin with a
half-wavelength ULA, pure-NLOS channels, equal device-to-antenna distances,
and unit antenna gains."""

from __future__ import annotations

import numpy as np

from .channel import NLOS_MIN_DISTANCE, Scattering
from .geometry import Device
from .mc_engine import Drop, Link


def build_mimo_drop(devices: list[Device], num_antennas: int, wavelength: float,
                    seed, *, target_snr_db: float = 3.0, tau: float = 0.5,
                    beta_pl: float = 3.7) -> Drop:
    """Drop for the ULA baseline, with devices[0] as the target.

    Every link (desired one included) is pure NLOS with P = M/2 paths and the
    distance to all antennas equal to the device-to-origin distance.  Its
    paths are a scalar path loss times unit-gain steering of a
    half-wavelength ULA at uniform angles, kept as `Scattering` with
    n_v = 1.  Each device's transmit SNR inverts its own path-loss power so
    the per-antenna received SNR meets the target.
    """
    if num_antennas < 2 or num_antennas % 2:
        raise ValueError("num_antennas must be even so that P = M/2 is integral")
    num_paths = num_antennas // 2
    spacing = wavelength / 2.0
    seed_words = [int(seed)] if np.isscalar(seed) else [int(w) for w in seed]
    snr_lin = 10.0 ** (target_snr_db / 10.0)

    zero_los = np.zeros(num_antennas, dtype=complex)
    links = []
    for j, dev in enumerate(devices):
        d = max(float(np.linalg.norm(dev.position)), NLOS_MIN_DISTANCE)
        rng = np.random.default_rng(np.random.SeedSequence([*seed_words, j]))
        angles = rng.uniform(-np.pi / 2, np.pi / 2, num_paths)
        paths = Scattering(
            loss=d ** (-beta_pl / 2.0), gains=np.ones(num_paths),
            step_v=np.zeros(num_paths),
            step_h=2.0 * np.pi * spacing / wavelength * np.sin(angles),
            n_v=1, n_h=num_antennas)
        links.append(Link(kappa=0.0, h_los=zero_los, paths=paths,
                          rho=snr_lin * d**beta_pl))
    return Drop(desired=links[0], links=tuple(links[1:]),
                err_amp=np.full(num_antennas, links[0].paths.loss),
                tau=tau, grid=None, target_z=None)
