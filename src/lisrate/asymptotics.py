"""Closed-form asymptotic moments of the uplink SINR and rate, each a
deterministic function of a frozen Drop.

The two-term closed form for q is stated in its dimensionally consistent
form q = L^2/((L^2+z^2)(2L^2+z^2))
      + L (2L^2+3z^2) / (z^2 (L^2+z^2)^{3/2}) * atan(L/sqrt(L^2+z^2)),
which matches the defining integral for all (z, L); the tests check it
against adaptive quadrature.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .mc_engine import Drop

UNBOUNDED = math.inf
# Phase-ramp bytes per stacked contraction (29 links at M = 100: 0.6 MB).
RAMP_BYTES = 2 << 20


@dataclass(frozen=True)
class MomentPair:
    mean: float | np.ndarray      # (J,) arrays for the per-interferer terms
    variance: float | np.ndarray
    clamped: bool = False  # variance clipped at zero (Taylor regime exceeded)


# ---------------------------------------------------------------------------
#  Surface integrals
# ---------------------------------------------------------------------------

def p_integral(z: float, half_length: float) -> float:
    """Quarter-surface power integral atan(L^2 / (z sqrt(2L^2 + z^2)))."""
    if z <= 0 or half_length <= 0:
        raise ValueError("z and half_length must be positive")
    ll = half_length**2
    return math.atan(ll / (z * math.sqrt(2 * ll + z**2)))


def p_bar(z: float, half_length: float, spacing: float) -> float:
    """Limit of (sum of squared LOS gains)^2: p^2 / (pi^2 spacing^4)."""
    return p_integral(z, half_length) ** 2 / (math.pi**2 * spacing**4)


def q_integral(z: float, half_length: float) -> float:
    """Closed form of the integral of z^2/(x^2+y^2+z^2)^3 over the unit."""
    if z <= 0 or half_length <= 0:
        raise ValueError("z and half_length must be positive")
    ll = half_length**2
    zz = z**2
    t1 = ll / ((ll + zz) * (2 * ll + zz))
    t2 = (half_length * (2 * ll + 3 * zz) / (zz * (ll + zz) ** 1.5)
          * math.atan(half_length / math.sqrt(ll + zz)))
    return t1 + t2


def q_bar(z: float, half_length: float, spacing: float) -> float:
    """Limit of the sum of fourth-power LOS gains: q / (16 pi^2 spacing^2)."""
    return q_integral(z, half_length) / (16 * math.pi**2 * spacing**2)


# ---------------------------------------------------------------------------
#  Per-drop helpers
# ---------------------------------------------------------------------------

def _require_los_desired(drop: Drop) -> np.ndarray:
    if not drop.desired.deterministic:
        raise ValueError("asymptotic moments require a deterministic LOS "
                         "desired channel")
    return drop.desired.h_los


def _beta_sums(drop: Drop, asymptotic: bool) -> tuple[float, float]:
    """(sum beta^2, sum beta^4), either finite-M or their integral limits."""
    if asymptotic:
        if drop.grid is None or drop.target_z is None:
            raise ValueError("drop lacks grid geometry for asymptotic limits")
        z, hl, dl = drop.target_z, drop.grid.half_length, drop.grid.spacing
        return math.sqrt(p_bar(z, hl, dl)), q_bar(z, hl, dl)
    beta2 = np.abs(_require_los_desired(drop)) ** 2
    return float(beta2.sum()), float((beta2**2).sum())


# ---------------------------------------------------------------------------
#  Per-term moments
# ---------------------------------------------------------------------------

def error_leak_moments(drop: Drop, asymptotic: bool = False) -> MomentPair:
    """Moments of the estimation-error leak |e^H h|^2: mean sum(beta^4),
    variance its square (a scaled chi-square with 2 degrees of freedom)."""
    _, b4 = _beta_sums(drop, asymptotic)
    return MomentPair(mean=b4, variance=b4**2)


def interference_term_moments(drop: Drop) -> MomentPair:
    """Moments of every interference term as (J,) arrays: mean s + |mu|^2
    and variance s^2 + 2 |mu|^2 s, with mu the coherent LOS mean and s the
    variance of the LOS, channel-side scattered and error-times-scattering
    parts, from slices of the interferers' stack of separable paths with at
    most RAMP_BYTES of ramps each, without building R; each link's row
    powers take one dot, rounded as the link's own dot."""
    return _term_moments(drop, _los_coupling(drop)[0])


def _term_moments(drop: Drop, mu_c: np.ndarray) -> MomentPair:
    h = _require_los_desired(drop)
    links = drop.links
    (a, b), p = links.weights, links.paths
    beta_k2, mu2, tau2 = np.abs(h) ** 2, np.abs(mu_c) ** 2, drop.tau**2
    projected, rows = np.zeros((2, len(links)))
    per = RAMP_BYTES // (32 * max(p.n_v, p.n_h) * max(p.num_paths, 1)) + 1
    for start in range(0, len(links), per):
        js = slice(start, start + per)
        projected[js] = p[js].projected_power(h)
        rows[js] = (p[js].row_power()[:, None] @ beta_k2)[:, 0]
    s = (a**2 * tau2 * (beta_k2 @ np.abs(links.h_los.T) ** 2)
         + b**2 * (1 - tau2) * projected + b**2 * tau2 * rows)
    return MomentPair(mean=s + mu2, variance=s**2 + 2 * mu2 * s)


def noise_term_moments(drop: Drop, asymptotic: bool = False) -> MomentPair:
    """Moments of the combined noise term: mean sum(beta^2), variance
    tau^2 (2 - tau^2) sum(beta^4)."""
    b2, b4 = _beta_sums(drop, asymptotic)
    tau = drop.tau
    return MomentPair(mean=b2, variance=tau**2 * (2 - tau**2) * b4)


def _los_coupling(drop: Drop) -> tuple[np.ndarray, np.ndarray]:
    """(mu_c, mu_a): the coherent LOS means (J,) of the interference terms
    and the LOS vectors (M, J) their error leaks project on; the pair
    covariance of links i and j is 2 Re(mu_c,i conj(mu_c,j) mu_a,i^H mu_a,j)."""
    h = _require_los_desired(drop)
    los, a, tau = drop.links.h_los.T, drop.links.weights[0], drop.tau
    return (a * math.sqrt(1 - tau**2) * (h.conj() @ los),
            a * tau * np.abs(h)[:, None] * los)


def interference_pair_covariance(drop: Drop, i: int, j: int) -> float:
    """Asymptotic covariance of the interference terms of devices i and j
    (indices into drop.links); driven entirely by the LOS components."""
    if i == j:
        raise ValueError("interference_pair_covariance needs two distinct interferers")
    mu_c, mu_a = _los_coupling(drop)
    return 2.0 * (mu_c[i] * np.conj(mu_c[j])
                  * complex(mu_a[:, i].conj() @ mu_a[:, j])).real


def total_interference_moments(drop: Drop, asymptotic: bool = True) -> MomentPair:
    """Deterministic mean and variance of the total interference-plus-noise
    I = rho_k tau^2 X + Z + sum_j rho_j Y_j, from the moments of its terms."""
    mu_c, mu_a = _los_coupling(drop)
    x = error_leak_moments(drop, asymptotic)
    z = noise_term_moments(drop, asymptotic)
    y = _term_moments(drop, mu_c)
    tau, rho_k, rho = drop.tau, drop.desired.rho, drop.links.rho

    mean = rho_k * tau**2 * x.mean + z.mean + float(rho @ y.mean)
    var = rho_k**2 * tau**4 * x.variance + z.variance \
        + float(rho**2 @ y.variance)
    # Sum over pairs i < j of 2 rho_i rho_j cov(i, j), in O(KM): with
    # w_i = rho_i conj(mu_c,i) mu_a,i it is 2 (|sum_i w_i|^2 - sum_i |w_i|^2).
    w = mu_a * (rho * np.conj(mu_c))
    var += 2 * float(np.sum(np.abs(w.sum(axis=1)) ** 2)
                     - np.sum(np.abs(w) ** 2))
    return MomentPair(mean=mean, variance=var)


# ---------------------------------------------------------------------------
#  Taylor propagation and the rate bound
# ---------------------------------------------------------------------------

def sinr_moments(s: float, rho: float, tau: float,
                 i_moments: MomentPair) -> MomentPair:
    """Second-order Taylor moments of gamma = rho s (1-tau^2) / I."""
    mu_i, var_i = i_moments.mean, i_moments.variance
    if mu_i <= 0:
        raise ValueError("interference mean must be positive")
    num = rho * s * (1 - tau**2)
    mean = num * (1 / mu_i + var_i / mu_i**3)
    var = num**2 * (var_i / mu_i**4 - var_i**2 / mu_i**6)
    return MomentPair(mean=mean, variance=max(var, 0.0), clamped=var < 0.0)


def rate_moments(gamma_moments: MomentPair) -> MomentPair:
    """Second-order Taylor moments of log(1 + gamma), in nats."""
    mu, var = gamma_moments.mean, gamma_moments.variance
    if mu < 0:
        raise ValueError("SINR mean must be nonnegative")
    one = 1.0 + mu
    mean = math.log(one) - var / (2 * one**2)
    rvar = var / one**2 - var**2 / (4 * one**4)
    return MomentPair(mean=mean, variance=max(rvar, 0.0), clamped=rvar < 0.0)


def asymptotic_rate_moments(drop: Drop, asymptotic: bool = True) -> MomentPair:
    """Closed-form rate moments of a drop, desired power S = (sum beta^2)^2
    included: integral limits, or with asymptotic=False the finite-M sums."""
    s = _beta_sums(drop, asymptotic)[0] ** 2
    i_mom = total_interference_moments(drop, asymptotic)
    return rate_moments(sinr_moments(s, drop.desired.rho, drop.tau, i_mom))


def interference_mean_limit(drop: Drop) -> float:
    """Large-M limit of the normalized interference mean; only the LOS
    components of the interferers survive."""
    return float(drop.links.rho @ np.abs(_los_coupling(drop)[0]) ** 2) \
        / drop.num_antennas**2


def rate_bound(drop: Drop) -> float:
    """Large-M rate bound in nats; UNBOUNDED (inf) when no interferer has a
    LOS component."""
    if drop.grid is None or drop.target_z is None:
        raise ValueError("drop lacks grid geometry for the rate bound")
    mu_hat = interference_mean_limit(drop)
    if mu_hat == 0.0:
        return UNBOUNDED
    p = p_integral(drop.target_z, drop.grid.half_length)
    l4 = drop.grid.half_length**4
    gamma_lim = p**2 * drop.desired.rho * (1 - drop.tau**2) \
        / (16 * l4 * math.pi**2 * mu_hat)
    return math.log1p(gamma_lim)
