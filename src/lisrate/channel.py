"""Deterministic channel construction for all links of a drop at once,
from their distances: LOS vectors and scattered paths in separable form
(`Scattering`, one link or a stack of links), expanded to a link's dense
correlation factor only on demand.  The closed form contracts a stack
(`Scattering.projected_power`), which the Monte-Carlo kernel never calls;
the kernel's basis route reads `ramp_basis` and `_centred_coordinates`."""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .geometry import AntennaGrid, los_gain

# NLOS distances below 1 m would amplify under d**(-beta_pl/2); clamp there.
NLOS_MIN_DISTANCE = 1.0

# A ramp basis keeps the singular directions above this share of the
# largest: every ramp of its band lies in its span to ~1e-13 relative.
RAMP_BASIS_RTOL = 1e-13


def los_channel(d, z, grid: AntennaGrid) -> np.ndarray:
    """LOS channels at distances d from devices at heights z, broadcast:
    amplitude los_gain, phase exp(-2j pi d/lambda)."""
    return los_gain(z, d) * np.exp(-2j * np.pi * d / grid.wavelength)


def _phase_ramp(n: int, steps) -> np.ndarray:
    """exp(1j * step * k) for k < n, shape (n,) + steps.shape.  k = b k1
    + k2 with b = ceil(sqrt(n)) splits each ramp into the Kronecker product
    of a coarse ramp exp(1j step b k1) and a fine one exp(1j step k2):
    ceil(n/b) + b exponentials per step and one complex product per entry
    instead of n exponentials (Van Loan 2000, "The ubiquitous Kronecker
    product").  Every correlation factor and separable projection is built
    from these."""
    coarse, fine = _ramp_factors(n, steps)
    ramp = coarse[:, None] * fine[None, :]
    return ramp.reshape((len(coarse) * len(fine),) + ramp.shape[2:])[:n]


def _ramp_factors(n: int, steps):
    """`_phase_ramp`'s coarse and fine ramps, shapes (ceil(n/b),) and (b,)
    + steps.shape with b = ceil(sqrt(n)): entry b k1 + k2 of the ramp is
    coarse[k1] fine[k2]."""
    b = math.isqrt(n - 1) + 1
    return (np.exp(1j * np.multiply.outer(np.arange(0, n, b), steps)),
            np.exp(1j * np.multiply.outer(np.arange(b), steps)))


@functools.lru_cache(maxsize=64)
def ramp_basis(n: int, band: float) -> np.ndarray:
    """Read-only orthonormal (n, r) basis of every phase ramp
    exp(1j t k), k < n, with |t| <= band: r_e exactly even real vectors,
    then r_o exactly odd real vectors times 1j.  A centred ramp
    exp(1j t (k - c)), c = (n - 1) / 2, is cos + 1j sin of an even and an
    odd vector, so its coordinates u^H ramp = u.real^T cos + u.imag^T sin
    are real.  Each set is the left singular vectors of the half rows
    k < n/2 of the centred cosines or sines at 4n + 1 steps spread evenly
    over the band, mirrored onto the other half (an odd n's middle cosine
    row is weighted 1/sqrt(2), as it is not mirrored); both keep the
    singular values above RAMP_BASIS_RTOL times the larger top one, so r
    is the rank of the ramps themselves.  r is about the Shannon number
    n band / pi plus a few, so on a grid of fixed aperture it stops growing
    with n (Slepian 1978, "Prolate spheroidal wave functions, Fourier
    analysis, and uncertainty - V: the discrete case")."""
    half = n // 2
    x = np.arange(n - half) - (n - 1) / 2.0
    arg = np.multiply.outer(x, np.linspace(-band, band, 4 * n + 1))
    cos, sin = np.cos(arg), np.sin(arg[:half])
    cos[half:] *= math.sqrt(0.5)                # an odd n's middle row
    u_e, s_e, _ = np.linalg.svd(cos, full_matrices=False)
    u_o, s_o = (np.linalg.svd(sin, full_matrices=False)[:2] if half
                else (sin.T[:0], s_e[:0]))      # n = 1 has no odd vector
    floor = RAMP_BASIS_RTOL * max([*s_e[:1], *s_o[:1]])
    u_e, u_o = u_e[:, s_e > floor], u_o[:, s_o > floor]
    r_e = u_e.shape[1]
    u = np.zeros((n, r_e + u_o.shape[1]), complex)
    u.real[:half, :r_e] = u_e[:half] * math.sqrt(0.5)
    u.real[n - half:, :r_e] = u.real[:half, :r_e][::-1]
    u.real[half:n - half, :r_e] = u_e[half:]
    u.imag[:half, r_e:] = u_o * math.sqrt(0.5)
    u.imag[n - half:, r_e:] = -u.imag[:half, r_e:][::-1]
    u.flags.writeable = False
    return u


def _centred_coordinates(u: np.ndarray, steps) -> np.ndarray:
    """The real (r, P) coordinates u^H exp(1j step (k - c)) of the centred
    ramps, c = (n - 1) / 2, in `ramp_basis`'s u: u.real^T cos + u.imag^T
    sin, as its columns are even real or odd imaginary."""
    arg = np.multiply.outer(np.arange(len(u)) - (len(u) - 1) / 2.0, steps)
    return u.real.T @ np.cos(arg) + u.imag.T @ np.sin(arg)


@dataclass(frozen=True)
class Scattering:
    """The P scattered paths of one link in separable form, or of J links
    of one n_v, n_h, P and band as a stack: a leading axis J on every array,
    whose rows are the links (`stack[j]`).
    Their correlation factor is R[m, p] = loss_m gains_p
    (d_v,p kron d_h,p)_m / sqrt(M), with phase ramps
    d_v,p = exp(1j step_v,p k), k < n_v, and d_h,p likewise over n_h;
    M = n_v n_h (n_v = n_h = sqrt(M) on a planar array, n_v = 1 on a linear
    one).  `correlation_factor` builds a link's dense (M, P) R.  `band`,
    when known, bounds (|step_v|, |step_h|), so that a ramp basis of the
    band may span the paths with fewer than P directions."""

    loss: np.ndarray | float  # (M,) per-antenna NLOS amplitude or (1,) for all
    gains: np.ndarray         # (P,) per-path antenna gains
    step_v: np.ndarray        # (P,) vertical phase steps, radians
    step_h: np.ndarray        # (P,) horizontal phase steps, radians
    n_v: int
    n_h: int
    band: tuple[float, float] | None = None  # bounds on |step_v|, |step_h|

    @classmethod
    def none(cls, num_antennas: int, *stack: int) -> "Scattering":
        """No scattered paths (P = 0): one link, or J links for stack = J."""
        empty = np.empty((*stack, 0))
        return cls(np.zeros((*stack, 1)), empty, empty, empty, 1,
                   num_antennas)

    def __getitem__(self, key) -> "Scattering":
        """Link `key` of a stack, or a slice of it as a stack: row views."""
        return Scattering(self.loss[key], self.gains[key], self.step_v[key],
                          self.step_h[key], self.n_v, self.n_h, self.band)

    @property
    def num_antennas(self) -> int:
        return self.n_v * self.n_h

    @property
    def num_paths(self) -> int:
        return self.gains.shape[-1]

    def row_power(self) -> np.ndarray:
        """(..., M) squared row norms of R: loss_m^2 sum_p gains_p^2 / M,
        since every steering entry has modulus 1/sqrt(M)."""
        m = self.num_antennas
        power = np.square(self.loss) \
            * (np.sum(self.gains**2, axis=-1, keepdims=True) / m)
        return np.broadcast_to(power, self.gains.shape[:-1] + (m,))

    def projected_power(self, h: np.ndarray):
        """||h^H R||^2 of each link without forming R, from
        u = h^H R sqrt(M) / gains: conj(h) loss as (n_v, n_h) times the
        horizontal ramps, one GEMM per link on C-contiguous ramps, then
        column dot products with the vertical ramps, all ramps from one
        `_phase_ramp` (Van Loan 2000, "The ubiquitous Kronecker product")."""
        ramps = np.moveaxis(_phase_ramp(max(self.n_v, self.n_h), np.stack(
            (self.step_v, self.step_h), -2)), 0, -2).copy()
        c = (h.conj() * self.loss).reshape(ramps.shape[:-3]
                                            + (self.n_v, self.n_h))
        u = np.einsum("...ip,...ip->...p", ramps[..., 0, :self.n_v, :],
                      c @ ramps[..., 1, :self.n_h, :])
        return np.sum(self.gains**2 * np.abs(u) ** 2, axis=-1) \
            / self.num_antennas


def nlos_scattering(d, grid: AntennaGrid, angles,
                    beta_pl: float) -> Scattering:
    """The planar-array paths of the links at the (J, M) or (M,) distances
    d with the (J, 2, P) or (2, P) elevation and azimuth angles, radians in
    (-pi/2, pi/2), as one stack or link: per-antenna NLOS loss
    d_m**(-beta_pl/2), d clamped at NLOS_MIN_DISTANCE, per-path gains
    sqrt(cos(theta_v) cos(theta_h)), and the phase steps s sin(theta_v)
    and s sin(theta_h) cos(theta_h), s = 2 pi spacing / wavelength, which
    lie in the band |step_v| <= s and |step_h| <= s/2."""
    theta_v, theta_h = np.moveaxis(angles, -2, 0)
    band = 2.0 * math.pi * grid.spacing / grid.wavelength
    loss = np.maximum(d, NLOS_MIN_DISTANCE) ** (-beta_pl / 2.0)
    cos_h = np.cos(theta_h)
    return Scattering(loss=loss, gains=np.sqrt(np.cos(theta_v) * cos_h),
                      step_v=band * np.sin(theta_v),
                      step_h=band * (np.sin(theta_h) * cos_h),
                      n_v=grid.side, n_h=grid.side, band=(band, band / 2.0))


def correlation_factor(s: Scattering, scale=1.0,
                       conjugate: bool = False) -> np.ndarray:
    """The dense C-contiguous (M, P) factor diag(scale loss) [gains_p
    (d_v,p kron d_h,p) / sqrt(M)], or its conjugate (negated phase steps)
    when `conjugate`, in two passes: the ramps' outer product, then one
    row scale."""
    sign = -1.0 if conjugate else 1.0
    d_v = _phase_ramp(s.n_v, sign * s.step_v) * s.gains
    d_h = _phase_ramp(s.n_h, sign * s.step_h) / math.sqrt(s.num_antennas)
    r = (d_v[:, None] * d_h[None, :]).reshape(s.num_antennas, s.num_paths)
    r *= np.reshape(s.loss * scale, (-1, 1))
    return r
