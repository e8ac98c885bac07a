"""Deterministic channel construction: LOS vectors, steering vectors and
the scattered paths of a link, kept in separable form (`Scattering`) and
expanded to a dense correlation factor only on demand.  A link combines
them as `mc_engine.Link`."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import AntennaGrid, Device, distance, los_gain

# NLOS distances below 1 m would amplify under d**(-beta_pl/2); clamp there.
NLOS_MIN_DISTANCE = 1.0


def los_channel(device: Device, grid: AntennaGrid) -> np.ndarray:
    """Deterministic LOS channel: amplitude los_gain, phase exp(-2j pi d/lambda)."""
    d = distance(device.position, grid.positions)
    amp = los_gain(device, grid.positions)
    return amp * np.exp(-2j * np.pi * d / grid.wavelength)


def _phase_ramp(n: int, steps) -> np.ndarray:
    """exp(1j * step * k) for k < n, shape (n,) + steps.shape."""
    return np.exp(1j * np.multiply.outer(np.arange(n), steps))


def _steering(n_v: int, n_h: int, step_v, step_h, gains=1.0) -> np.ndarray:
    """gains (d_v kron d_h) / sqrt(n_v n_h) for the phase ramps d_v, d_h of
    lengths n_v and n_h, one column per step pair, in one pass: shape
    (n_v n_h,) + steps' shape, a fresh C-contiguous array."""
    d_v = _phase_ramp(n_v, step_v) * gains
    d_h = _phase_ramp(n_h, step_h) / math.sqrt(n_v * n_h)
    return (d_v[:, None] * d_h[None, :]).reshape((n_v * n_h,) + d_v.shape[1:])


def _upa_steps(theta_v, theta_h, spacing: float, wavelength: float):
    """Planar-array phase steps (2 pi spacing / wavelength) * phi with
    phi_v = sin(theta_v) and phi_h = sin(theta_h) cos(theta_h)."""
    step = 2.0 * np.pi * spacing / wavelength
    return step * np.sin(theta_v), step * (np.sin(theta_h) * np.cos(theta_h))


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
    return _steering(n, n, *_upa_steps(theta_v, theta_h, spacing, wavelength))


def ula_steering(theta_h, num_antennas: int, spacing: float,
                 wavelength: float) -> np.ndarray:
    """Linear-array steering vectors with phase step (2 pi spacing/lambda)
    sin(theta), shape (M,) + theta_h.shape."""
    step = 2.0 * np.pi * spacing / wavelength * np.sin(theta_h)
    return _phase_ramp(num_antennas, step) / math.sqrt(num_antennas)


@dataclass(frozen=True)
class Scattering:
    """The P scattered paths of one link in separable form.  Their
    correlation factor is R[m, p] = loss_m gains_p (d_v,p kron d_h,p)_m
    / sqrt(M), with phase ramps d_v,p = exp(1j step_v,p k), k < n_v, and
    d_h,p likewise over n_h; M = n_v n_h.  A planar array has
    n_v = n_h = sqrt(M); a linear array is n_v = 1.  Storage is O(M + P);
    `correlation_factor` builds the dense (M, P) R."""

    loss: np.ndarray | float  # (M,) per-antenna NLOS amplitude, or one for all
    gains: np.ndarray         # (P,) per-path antenna gains
    step_v: np.ndarray        # (P,) vertical phase steps, radians
    step_h: np.ndarray        # (P,) horizontal phase steps, radians
    n_v: int
    n_h: int

    @classmethod
    def none(cls, num_antennas: int) -> "Scattering":
        """No scattered paths (P = 0)."""
        empty = np.empty(0)
        return cls(0.0, empty, empty, empty, 1, num_antennas)

    @property
    def num_antennas(self) -> int:
        return self.n_v * self.n_h

    @property
    def num_paths(self) -> int:
        return len(self.gains)

    def row_power(self) -> np.ndarray:
        """(M,) squared row norms of R: loss_m^2 sum_p gains_p^2 / M, since
        every steering entry has modulus 1/sqrt(M)."""
        m = self.num_antennas
        return np.broadcast_to(np.square(self.loss), m) \
            * (np.sum(self.gains**2) / m)

    def _contract(self, h: np.ndarray) -> np.ndarray:
        """u = h^H R sqrt(M) / gains, shape (P,), in O(MP) time and
        O(M + n_v P) memory without forming R: conj(h) loss as (n_v, n_h)
        times the horizontal ramps, then column dot products with the
        vertical ramps (Van Loan 2000, "The ubiquitous Kronecker product")."""
        c = (h.conj() * self.loss).reshape(self.n_v, self.n_h)
        return np.einsum("ip,ip->p", _phase_ramp(self.n_v, self.step_v),
                         c @ _phase_ramp(self.n_h, self.step_h))

    def project(self, h: np.ndarray) -> np.ndarray:
        """h^H R, shape (P,), from the separable form."""
        return self._contract(h) * (self.gains / math.sqrt(self.num_antennas))

    def projected_power(self, h: np.ndarray) -> float:
        """||h^H R||^2 from the separable form."""
        return float(np.sum(self.gains**2 * np.abs(self._contract(h)) ** 2)
                     / self.num_antennas)


def nlos_scattering(device: Device, grid: AntennaGrid, angles,
                    beta_pl: float) -> Scattering:
    """A planar-array link's paths at the (2, P) elevation and azimuth
    angles, radians in (-pi/2, pi/2): per-antenna NLOS loss
    d_m**(-beta_pl/2), with the device-to-antenna distance clamped at
    NLOS_MIN_DISTANCE, per-path gains sqrt(cos(theta_v) cos(theta_h)), and
    `upa_steering`'s phase steps."""
    theta_v, theta_h = angles
    d = np.maximum(distance(device.position, grid.positions), NLOS_MIN_DISTANCE)
    step_v, step_h = _upa_steps(theta_v, theta_h, grid.spacing,
                                grid.wavelength)
    return Scattering(loss=d ** (-beta_pl / 2.0),
                      gains=np.sqrt(np.cos(theta_v) * np.cos(theta_h)),
                      step_v=step_v, step_h=step_h, n_v=grid.side,
                      n_h=grid.side)


def correlation_factor(s: Scattering, scale=1.0,
                       conjugate: bool = False) -> np.ndarray:
    """The dense C-contiguous (M, P) factor diag(scale loss) [gains_p
    steering_p], or its conjugate (negated phase steps) when `conjugate`,
    in two passes: the ramps' outer product, then one row scale."""
    sign = -1.0 if conjugate else 1.0
    r = _steering(s.n_v, s.n_h, sign * s.step_v, sign * s.step_h, s.gains)
    r *= np.reshape(s.loss * scale, (-1, 1))
    return r
