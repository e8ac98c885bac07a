"""Monte-Carlo engine for the matched-filter uplink SINR under imperfect CSI.

The per-realization SINR is computed two ways: through the term decomposition
(desired power S, error leak X, per-interferer Y, combined noise Z) and
through the raw receiver inner products; the two agree to roundoff and the
tests enforce it.  Aggregation is chunked with per-chunk seeds derived from
the master seed, so results are bit-identical regardless of worker count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import AntennaGrid

DEFAULT_CHUNK = 2048


@dataclass(frozen=True)
class Link:
    """One device's channel to the surface: the Rician mix
    sqrt(kappa/(kappa+1)) h_los + sqrt(1/(kappa+1)) r_half @ g of a
    deterministic LOS vector and P scattered paths with CN(0, 1) fading g.
    kappa == inf means the channel is h_los itself."""

    kappa: float            # Rician factor (linear); 0 means pure NLOS
    h_los: np.ndarray       # (M,) deterministic LOS component
    r_half: np.ndarray      # (M, P) correlation factor; P may be 0
    rho: float              # transmit SNR (linear)

    def __post_init__(self):
        if not self.kappa >= 0:
            raise ValueError(f"Rician factor must be nonnegative, got {self.kappa}")
        if self.r_half.shape[0] != self.h_los.shape[0]:
            raise ValueError("LOS vector and correlation factor disagree on M")

    @property
    def num_paths(self) -> int:
        return self.r_half.shape[1]

    @property
    def deterministic(self) -> bool:
        return math.isinf(self.kappa)

    @property
    def weights(self) -> tuple[float, float]:
        """(LOS, scattered) amplitudes sqrt(kappa/(kappa+1)), sqrt(1/(kappa+1))."""
        k = self.kappa
        if math.isinf(k):
            return 1.0, 0.0
        return math.sqrt(k / (k + 1.0)), math.sqrt(1.0 / (k + 1.0))


@dataclass(frozen=True)
class Drop:
    """One frozen geometric realization for a single target device."""

    desired: Link
    links: tuple[Link, ...]
    err_amp: np.ndarray              # (M,) per-antenna estimation-error amplitudes
    tau: float                       # CSI imperfectness in [0, 1)
    grid: AntennaGrid | None = None  # None for the linear-array baseline
    target_z: float | None = None

    def __post_init__(self):
        if not 0.0 <= self.tau < 1.0:
            raise ValueError("tau must lie in [0, 1); tau = 1 leaves no estimate")
        if self.desired.rho <= 0 or any(l.rho <= 0 for l in self.links):
            raise ValueError("transmit SNRs must be positive")

    @property
    def num_antennas(self) -> int:
        return self.desired.h_los.shape[0]

    @property
    def num_devices(self) -> int:
        return len(self.links) + 1


@dataclass
class FadingRealization:
    """One draw of fast fading and estimation error (all standard CN(0,1))."""

    eps: np.ndarray                      # (M,) estimation-error draws
    g: list[np.ndarray]                  # per-link (P_j,) path fading
    g_des: np.ndarray | None = None      # desired-link path fading, if stochastic


@dataclass(frozen=True)
class SinrSample:
    gamma: float
    s: float
    x: float
    y: np.ndarray          # (K-1,)
    z: float
    i_total: float


def crandn(rng, shape) -> np.ndarray:
    """Standard complex Gaussian CN(0,1) draws."""
    return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) \
        / math.sqrt(2.0)


def estimated_channel(h: np.ndarray, tau: float, err: np.ndarray) -> np.ndarray:
    """Least-squares channel estimate h + sqrt(tau^2/(1-tau^2)) * err."""
    if not 0.0 <= tau < 1.0:
        raise ValueError("tau must lie in [0, 1)")
    if tau == 0.0:
        return np.asarray(h).copy()
    return h + math.sqrt(tau**2 / (1.0 - tau**2)) * err


def rate_sample(gamma) -> np.ndarray:
    """Instantaneous rate log(1 + gamma) in nats."""
    gamma = np.asarray(gamma, dtype=float)
    if np.any(gamma < 0):
        raise ValueError("SINR must be nonnegative")
    return np.log1p(gamma)


def draw_fading(drop: Drop, rng) -> FadingRealization:
    """Draw one realization.  Order: eps, desired fading, per-link fading."""
    eps, g_des, g = _draw_chunk(drop, rng, 1)
    return FadingRealization(eps=eps[0], g=[gj[0] for gj in g],
                             g_des=None if g_des is None else g_des[0])


def _draw_chunk(drop: Drop, rng, n: int):
    """n realizations (rows) of eps, the desired-link fading and the
    per-link fading."""
    eps = crandn(rng, (n, drop.num_antennas))
    g_des = None
    if not drop.desired.deterministic:
        g_des = crandn(rng, (n, drop.desired.num_paths))
    g = [crandn(rng, (n, link.num_paths)) for link in drop.links]
    return eps, g_des, g


def _desired_channel(drop: Drop, g_des):
    des = drop.desired
    if des.deterministic:
        return des.h_los
    a, b = des.weights
    return a * des.h_los + b * (g_des @ des.r_half.T)


def compute_terms(drop: Drop, eps, g_des, g):
    """Decomposed SINR terms for a batch of realizations.

    `eps` is (n, M); `g` a list of (n, P_j) arrays.  Returns a dict of
    per-realization arrays: s, x, y (n, K-1), z, i, gamma.
    """
    eps = np.atleast_2d(eps)
    n, m = eps.shape
    tau = drop.tau
    ct, st = math.sqrt(1.0 - tau**2), tau
    err = drop.err_amp * eps                              # (n, M)
    h = _desired_channel(drop, g_des)                     # (M,) or (n, M)

    if h.ndim == 1:
        hn2 = np.real(h.conj() @ h)
        s = np.full(n, hn2**2)
        x = np.abs(err.conj() @ h) ** 2
    else:
        hn2 = np.sum(np.abs(h) ** 2, axis=1)
        s = hn2**2
        x = np.abs(np.einsum("ij,ij->i", err.conj(), h)) ** 2
    z = np.sum(np.abs(ct * h + st * err) ** 2, axis=1)

    y = np.empty((n, len(drop.links)))
    for idx, link in enumerate(drop.links):
        a, b = link.weights
        gj = np.atleast_2d(g[idx])
        if h.ndim == 1:
            t1 = a * (h.conj() @ link.h_los) + b * (gj @ (h.conj() @ link.r_half))
            t2 = a * (err.conj() @ link.h_los)
            if link.num_paths:
                t2 = t2 + b * np.einsum("ij,ij->i", err.conj() @ link.r_half, gj)
        else:
            hj = a * link.h_los + b * (gj @ link.r_half.T)  # (n, M)
            t1 = np.einsum("ij,ij->i", h.conj(), hj)
            t2 = np.einsum("ij,ij->i", err.conj(), hj)
        y[:, idx] = np.abs(ct * t1 + st * t2) ** 2

    rhos = np.array([link.rho for link in drop.links])
    i_total = drop.desired.rho * tau**2 * x + y @ rhos + z
    gamma = drop.desired.rho * s * (1.0 - tau**2) / i_total
    return {"s": s, "x": x, "y": y, "z": z, "i": i_total, "gamma": gamma}


def sinr_sample(drop: Drop, fading: FadingRealization) -> SinrSample:
    """Decomposition-path SINR of a single realization."""
    g_des = None if fading.g_des is None else fading.g_des[None, :]
    t = compute_terms(drop, fading.eps[None, :],
                      g_des, [gj[None, :] for gj in fading.g])
    return SinrSample(gamma=float(t["gamma"][0]), s=float(t["s"][0]),
                      x=float(t["x"][0]), y=t["y"][0].copy(),
                      z=float(t["z"][0]), i_total=float(t["i"][0]))


def sinr_direct(drop: Drop, fading: FadingRealization) -> float:
    """Receiver-path SINR built from the estimated channel's inner products.

    Groups the terms as the matched filter sees them, without using the
    per-term decomposition; agrees with sinr_sample to roundoff.
    """
    tau = drop.tau
    err = drop.err_amp * fading.eps
    h = _desired_channel(drop, None if fading.g_des is None else fading.g_des)
    f = estimated_channel(h, tau, err)
    hn2 = np.real(h.conj() @ h)

    leak = drop.desired.rho * tau**2 * np.abs(err.conj() @ h) ** 2
    interf = 0.0
    for link, gj in zip(drop.links, fading.g):
        a, b = link.weights
        hj = a * link.h_los + (b * (link.r_half @ gj) if link.num_paths else 0.0)
        interf += link.rho * np.abs(f.conj() @ hj) ** 2
    noise = np.real(f.conj() @ f)
    denom = leak + (1.0 - tau**2) * (interf + noise)
    return float(drop.desired.rho * (1.0 - tau**2) * hn2**2 / denom)


# ---------------------------------------------------------------------------
#  Moment estimation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MomentEstimate:
    """Sample mean and unbiased variance with standard errors."""

    mean: float
    variance: float
    se_mean: float
    se_variance: float
    count: int


def _stats_from_sums(sums: np.ndarray, n: int, lo, hi):
    """Moment estimates from raw power sums (4, ...); exact-zero variance is
    detected through the min/max track."""
    mean = sums[0] / n
    m2 = np.maximum(sums[1] / n - mean**2, 0.0)
    m3 = sums[2] / n - 3 * mean * sums[1] / n + 2 * mean**3
    m4 = np.maximum(
        sums[3] / n - 4 * mean * sums[2] / n + 6 * mean**2 * sums[1] / n
        - 3 * mean**4, 0.0)
    degenerate = np.asarray(hi) == np.asarray(lo)
    m2 = np.where(degenerate, 0.0, m2)
    m4 = np.where(degenerate, 0.0, m4)
    var = m2 * n / (n - 1)
    se_mean = np.sqrt(var / n)
    se_var = np.sqrt(np.maximum(m4 - (n - 3) / (n - 1) * m2**2, 0.0) / n)
    _ = m3  # third central moment currently unused
    return mean, var, se_mean, se_var


def estimate_moments(samples) -> MomentEstimate:
    """Mean and unbiased variance of a sample, with standard errors."""
    x = np.asarray(samples, dtype=float)
    if x.size < 2:
        raise ValueError("need at least two samples")
    sums = np.stack([x.sum(), (x**2).sum(), (x**3).sum(), (x**4).sum()])
    mean, var, se_m, se_v = _stats_from_sums(sums, x.size, x.min(), x.max())
    return MomentEstimate(mean=float(mean), variance=float(var),
                          se_mean=float(se_m), se_variance=float(se_v),
                          count=x.size)


@dataclass
class McResult:
    """Aggregated Monte-Carlo moments of one drop."""

    n: int
    rate: MomentEstimate
    gamma: MomentEstimate
    x: MomentEstimate
    z: MomentEstimate
    i_total: MomentEstimate
    y_mean: np.ndarray          # (K-1,)
    y_var: np.ndarray
    y_se_mean: np.ndarray
    y_se_var: np.ndarray
    y_cov: np.ndarray           # (K-1, K-1) sample covariance
    y_samples: np.ndarray | None = None  # (n, K-1) when collected


_SCALARS = ("rate", "gamma", "x", "z", "i")


def _chunk_sums(drop: Drop, master_seed, drop_tag: int, chunk_idx: int, n: int,
                collect_y: bool):
    rng = np.random.default_rng(
        np.random.SeedSequence([int(master_seed), int(drop_tag), chunk_idx]))
    eps, g_des, g = _draw_chunk(drop, rng, n)
    t = compute_terms(drop, eps, g_des, g)
    t["rate"] = rate_sample(t["gamma"])
    out = {}
    for name in _SCALARS:
        x = t[name]
        out[name] = (np.stack([x.sum(), (x**2).sum(), (x**3).sum(), (x**4).sum()]),
                     x.min(), x.max())
    y = t["y"]
    out["y"] = np.stack([y.sum(0), (y**2).sum(0), (y**3).sum(0), (y**4).sum(0)])
    out["y_lo"], out["y_hi"] = y.min(0), y.max(0)
    out["yy"] = y.T @ y
    out["y_samples"] = y if collect_y else None
    return out


def run_monte_carlo(drop: Drop, n_real: int, seed, *, drop_tag: int = 0,
                    chunk_size: int = DEFAULT_CHUNK,
                    collect_y: bool = False) -> McResult:
    """Estimate the MC moments of the rate and of every decomposition term.

    Chunk boundaries and per-chunk seeds depend only on (seed, drop_tag,
    chunk index), so the result is independent of scheduling.
    """
    if n_real < 2:
        raise ValueError("need at least two realizations")
    n_links = len(drop.links)
    chunks = [(idx, min(chunk_size, n_real - idx * chunk_size))
              for idx in range((n_real + chunk_size - 1) // chunk_size)]

    scalar_sums = {name: np.zeros(4) for name in _SCALARS}
    scalar_lo = {name: math.inf for name in _SCALARS}
    scalar_hi = {name: -math.inf for name in _SCALARS}
    y_sums = np.zeros((4, n_links))
    y_lo = np.full(n_links, math.inf)
    y_hi = np.full(n_links, -math.inf)
    yy = np.zeros((n_links, n_links))
    y_samples = [] if collect_y else None

    for idx, n in chunks:
        part = _chunk_sums(drop, seed, drop_tag, idx, n, collect_y)
        for name in _SCALARS:
            s, lo, hi = part[name]
            scalar_sums[name] += s
            scalar_lo[name] = min(scalar_lo[name], lo)
            scalar_hi[name] = max(scalar_hi[name], hi)
        y_sums += part["y"]
        y_lo = np.minimum(y_lo, part["y_lo"])
        y_hi = np.maximum(y_hi, part["y_hi"])
        yy += part["yy"]
        if collect_y:
            y_samples.append(part["y_samples"])

    n = n_real
    est = {}
    for name in _SCALARS:
        mean, var, se_m, se_v = _stats_from_sums(
            scalar_sums[name], n, scalar_lo[name], scalar_hi[name])
        est[name] = MomentEstimate(float(mean), float(var), float(se_m),
                                   float(se_v), n)

    y_mean, y_var, y_se_m, y_se_v = _stats_from_sums(y_sums, n, y_lo, y_hi)
    y_cov = (yy / n - np.outer(y_mean, y_mean)) * n / (n - 1)
    return McResult(
        n=n, rate=est["rate"], gamma=est["gamma"], x=est["x"], z=est["z"],
        i_total=est["i"], y_mean=np.atleast_1d(y_mean),
        y_var=np.atleast_1d(y_var), y_se_mean=np.atleast_1d(y_se_m),
        y_se_var=np.atleast_1d(y_se_v), y_cov=y_cov,
        y_samples=np.concatenate(y_samples) if collect_y and y_samples else None)


def sample_yn2_normalized(drop: Drop, link_idx: int, n_real: int, seed,
                          chunk_size: int = DEFAULT_CHUNK) -> np.ndarray:
    """Draws of the error-times-scattering interference term, normalized to
    unit variance; asymptotically standard complex Gaussian."""
    link = drop.links[link_idx]
    if link.num_paths == 0:
        raise ValueError("link has no scattered paths")
    beta = drop.err_amp
    w = beta[:, None] * link.r_half                     # (M, P)
    scale = math.sqrt(float(np.sum(np.abs(w) ** 2)))
    out = np.empty(n_real, dtype=complex)
    pos = 0
    idx = 0
    while pos < n_real:
        n = min(chunk_size, n_real - pos)
        rng = np.random.default_rng(
            np.random.SeedSequence([int(seed), link_idx, idx]))
        eps = crandn(rng, (n, drop.num_antennas))
        g = crandn(rng, (n, link.num_paths))
        out[pos:pos + n] = np.einsum("ij,ij->i", eps.conj() @ w, g) / scale
        pos += n
        idx += 1
    return out
