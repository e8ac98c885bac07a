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
    half-wavelength ULA at uniform angles, kept as one `Scattering` stack
    with n_v = 1 whose row 0 is the desired link.  Each device's transmit
    SNR inverts its own path-loss power so the per-antenna received SNR
    meets the target.
    """
    if num_antennas < 2 or num_antennas % 2:
        raise ValueError("num_antennas must be even so that P = M/2 is integral")
    num_paths = num_antennas // 2
    spacing = wavelength / 2.0
    seed_words = [int(seed)] if np.isscalar(seed) else [int(w) for w in seed]
    snr_lin = 10.0 ** (target_snr_db / 10.0)

    loss, rho, steps = [], [], []
    for j, dev in enumerate(devices):
        d = max(float(np.linalg.norm(dev.position)), NLOS_MIN_DISTANCE)
        rng = np.random.default_rng(np.random.SeedSequence([*seed_words, j]))
        angles = rng.uniform(-np.pi / 2, np.pi / 2, num_paths)
        loss.append([d ** (-beta_pl / 2.0)])
        rho.append(snr_lin * d**beta_pl)
        steps.append(2.0 * np.pi * spacing / wavelength * np.sin(angles))
    k = len(devices)
    paths = Scattering(loss=np.array(loss), gains=np.ones((k, num_paths)),
                       step_v=np.zeros((k, num_paths)),
                       step_h=np.array(steps), n_v=1, n_h=num_antennas)
    stack = Link(kappa=np.zeros(k), h_los=np.zeros((k, num_antennas), complex),
                 paths=paths, rho=np.array(rho))
    return Drop(desired=stack[0], links=stack[1:],
                err_amp=np.full(num_antennas, loss[0][0]),
                tau=tau, grid=None, target_z=None)
