"""Monte-Carlo engine for the matched-filter uplink SINR under imperfect CSI.

Every kernel takes a batch of realizations from draw_fading, one per row.
A drop keeps each link's scattered paths in separable form; a kernel builds
one link's dense (M, P) correlation factor R at a time and drops it after
use, so a drop never holds them all.  The SINR is computed two ways, which
agree to roundoff and the tests enforce it.  The term decomposition
(desired power S, error leak X, per-interferer Y, combined noise Z) writes
the combining vector as f = k + d X, affine in the draws X, and projects
the draws on all LOS vectors in one product and on each conj(R), row-scaled
by d, in one more (f^H R, then g); with a deterministic desired channel X
is the error draws themselves, so no (n, M) array is formed.  The receiver
path builds each channel first (h_j = a h_los + b R g) and groups the inner
products as the matched filter sees them.  A CN(0, 1) array is one
standard_normal draw with each entry's real and imaginary parts adjacent
(crandn); sums of squares run over float views, with no complex abs.
Aggregation is chunked with per-chunk seeds derived from the master seed.
Within a chunk the MC path draws each interferer's fading only when the
kernel reaches that link and drops it after use, so a chunk holds one
link's fading, block and product at a time; the draw order, and so the
stream, is the one draw_fading materialises.
Each chunk reduces to central moments (mean, M2, M3, M4), which stay
accurate when the channel hardens and a term's spread is tiny next to its
mean; chunks merge one by one in index order, so results are bit-identical
regardless of worker count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channel import Scattering, correlation_factor
from .geometry import AntennaGrid

DEFAULT_CHUNK = 2048


@dataclass(frozen=True)
class Link:
    """One device's channel to the surface: the Rician mix
    sqrt(kappa/(kappa+1)) h_los + sqrt(1/(kappa+1)) R g of a deterministic
    LOS vector and P scattered paths with correlation factor R and CN(0, 1)
    fading g.  kappa == inf means the channel is h_los itself."""

    kappa: float            # Rician factor (linear); 0 means pure NLOS
    h_los: np.ndarray       # (M,) deterministic LOS component
    paths: Scattering       # the scattered paths; P may be 0
    rho: float              # transmit SNR (linear)

    def __post_init__(self):
        if not self.kappa >= 0:
            raise ValueError(f"Rician factor must be nonnegative, got {self.kappa}")
        if self.paths.num_antennas != self.h_los.shape[0]:
            raise ValueError("LOS vector and scattered paths disagree on M")

    @property
    def num_paths(self) -> int:
        return self.paths.num_paths

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

    def stacked(self):
        """The interferers stacked over J = K-1 columns: LOS vectors (M, J),
        LOS and scattered weights (J,) each, transmit SNRs (J,)."""
        m = self.num_antennas
        los = np.array([l.h_los for l in self.links], complex).reshape(-1, m)
        a, b = np.array([l.weights for l in self.links]).reshape(-1, 2).T
        return los.T, a, b, np.array([l.rho for l in self.links], float)


def crandn(rng, shape) -> np.ndarray:
    """Standard complex Gaussian CN(0,1) draws of an int or tuple shape:
    one standard_normal draw of shape + (2,), scaled by sqrt(1/2) in place
    and viewed as a C-contiguous complex array."""
    shape = tuple(np.atleast_1d(shape))
    x = rng.standard_normal(shape + (2,))
    x *= math.sqrt(0.5)
    return x.view(complex).reshape(shape)


def _row_power(a: np.ndarray, weights=None) -> np.ndarray:
    """sum w |a|^2 over the last axis, with w = 1 or the (M,) weights, as
    the squares of the float view: no complex abs, which goes through
    hypot, and no temporary."""
    v = np.ascontiguousarray(a).view(float)
    if weights is None:
        return np.einsum("...j,...j->...", v, v)
    return np.einsum("...j,...j,j->...", v, v, np.repeat(weights, 2))


def estimated_channel(h: np.ndarray, tau: float, err: np.ndarray) -> np.ndarray:
    """Least-squares channel estimate h + sqrt(tau^2/(1-tau^2)) * err."""
    if not 0.0 <= tau < 1.0:
        raise ValueError("tau must lie in [0, 1)")
    return h + math.sqrt(tau**2 / (1.0 - tau**2)) * err


def rate_sample(gamma) -> np.ndarray:
    """Instantaneous rate log(1 + gamma) in nats."""
    gamma = np.asarray(gamma, dtype=float)
    if np.any(gamma < 0):
        raise ValueError("SINR must be nonnegative")
    return np.log1p(gamma)


def _draw_lazily(drop: Drop, rng, n: int):
    """draw_fading with g as a generator: eps and g_des are drawn now, and
    each link's (n, P_j) block only when the consumer reaches it.  The draw
    order is the same, so a consumer that draws nothing else from rng in
    between sees the same stream."""
    eps = crandn(rng, (n, drop.num_antennas))
    g_des = None
    if not drop.desired.deterministic:
        g_des = crandn(rng, (n, drop.desired.num_paths))
    return eps, g_des, (crandn(rng, (n, link.num_paths))
                        for link in drop.links)


def draw_fading(drop: Drop, rng, n: int):
    """n realizations (rows) of (eps, g_des, g): the estimation error
    (n, M), the desired-link fading (n, P) or None when that link is
    deterministic, and a list of per-link (n, P_j) fading, drawn in that
    order.  run_monte_carlo takes the same draws with g unmaterialised, one
    link's block at a time as the kernel reaches it."""
    eps, g_des, g = _draw_lazily(drop, rng, n)
    return eps, g_des, list(g)


def _desired_channel(drop: Drop, g_des):
    """h_los (M,) for a deterministic desired link, else the (n, M) rows."""
    des = drop.desired
    if des.deterministic:
        return des.h_los
    a, b = des.weights
    return a * des.h_los + b * (g_des @ correlation_factor(des.paths).T)


def compute_terms(drop: Drop, eps, g_des, g):
    """Decomposed SINR terms for a batch of realizations from draw_fading.

    f = sqrt(1-tau^2) h + tau err is affine in the draws, f = k + d X, so
    f^H V = k^H V + conj(X @ (d conj V)): one (n, M) x (M, J) product for
    the LOS vectors and, per link, one (n, M) x (M, P_j) product on conj(R)
    row-scaled by d plus k^H R from the separable paths give
    f^H h_j = a f^H h_los + b (f^H R) g.  A deterministic desired h has
    k = sqrt(1-tau^2) h, d = tau err_amp and X = eps, only read; a
    stochastic one has k = 0, d = 1 and X = f, built in place of its rows.
    g is any iterable of the links' fading, one block per link (a short one
    raises ValueError).  Returns arrays s, x, y (n, K-1), z, i, gamma.
    """
    tau = drop.tau
    c = math.sqrt(1.0 - tau**2)
    los, a, b, rhos = drop.stacked()
    h = _desired_channel(drop, g_des)                     # (M,) or (n, M)
    s = np.broadcast_to(_row_power(h) ** 2, len(eps))
    if drop.desired.deterministic:
        k, d, xs = c * h, tau * drop.err_amp, eps
        proj = eps @ np.column_stack((los.conj() * d[:, None],
                                      drop.err_amp * h.conj()))
        u = proj[:, -1]
        x = np.abs(u) ** 2
        z = _row_power(k) + _row_power(eps, d * d) + 2 * c * tau * u.real
    else:
        x = np.abs(np.einsum("ij,ij->i", eps, drop.err_amp * h.conj())) ** 2
        h *= c
        h += eps * (tau * drop.err_amp)
        k, d, xs = np.zeros(len(los)), 1.0, h
        z = _row_power(h)
        proj = h @ los.conj()
    f_los = np.conj(proj[:, :los.shape[1]]) + k.conj() @ los
    scattered = np.zeros((len(eps), len(drop.links)), complex)
    for idx, (link, gj) in enumerate(zip(drop.links, g, strict=True)):
        q = xs @ correlation_factor(link.paths, d, conjugate=True)
        scattered[:, idx] = np.einsum("ij,ij->i", np.conj(q, out=q), gj) \
            + gj @ link.paths.project(k)
        del q           # before the next link's fading and block are made
    y = np.abs(a * f_los + b * scattered) ** 2

    i_total = drop.desired.rho * tau**2 * x + y @ rhos + z
    gamma = drop.desired.rho * s * (1.0 - tau**2) / i_total
    return {"s": s, "x": x, "y": y, "z": z, "i": i_total, "gamma": gamma}


def sinr_direct(drop: Drop, eps, g_des, g) -> np.ndarray:
    """Receiver-path SINR of each row of a draw_fading batch, built from the
    inner products of the least-squares estimate with each channel.

    Groups the terms as the matched filter sees them and builds each
    interferer's channel first, h_j = a h_los + b R g, without the per-term
    decomposition; agrees with compute_terms to roundoff.
    """
    tau = drop.tau
    err = drop.err_amp * eps
    h = _desired_channel(drop, g_des)
    fh = estimated_channel(h, tau, err).conj()
    hn2 = np.sum(np.abs(h) ** 2, axis=-1)

    leak = drop.desired.rho * tau**2 \
        * np.abs(np.sum(err.conj() * h, axis=-1)) ** 2
    interf = 0.0
    for link, gj in zip(drop.links, g, strict=True):
        a, b = link.weights
        hj = a * link.h_los + b * (gj @ correlation_factor(link.paths).T)
        interf += link.rho * np.abs(np.sum(fh * hj, axis=-1)) ** 2
    noise = np.sum(np.abs(fh) ** 2, axis=-1)
    denom = leak + (1.0 - tau**2) * (interf + noise)
    return drop.desired.rho * (1.0 - tau**2) * hn2**2 / denom


# ---------------------------------------------------------------------------
#  Moment estimation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class _Moments:
    """Count, means and central sums M2, M3, M4 of the statistics of a
    sample, one entry per statistic.  `merge` pools two disjoint samples
    with the pairwise updates of Chan, Golub & LeVeque (1979) and Pebay
    (2008, SAND2008-6212); M3 is kept because the M4 update needs it."""

    n: int
    mean: np.ndarray
    m2: np.ndarray
    m3: np.ndarray
    m4: np.ndarray

    @classmethod
    def of(cls, x: np.ndarray) -> _Moments:
        """Moments of the rows of the (c, n) array x, one statistic per row,
        so every sum runs over contiguous memory.  Centring each row on its
        first value before taking the mean makes the central sums of a
        constant row exactly zero."""
        d = x - x[:, :1]
        shift = d.mean(axis=1)
        d -= shift[:, None]
        d2 = d * d
        m2 = d2.sum(axis=1)
        d *= d2
        d2 *= d2
        return cls(x.shape[1], x[:, 0] + shift, m2, d.sum(axis=1),
                   d2.sum(axis=1))

    def merge(self, other: _Moments) -> _Moments:
        na, nb = self.n, other.n
        n = na + nb
        delta = other.mean - self.mean
        dn = delta / n
        return _Moments(
            n, self.mean + nb * dn,
            self.m2 + other.m2 + na * nb * delta * dn,
            self.m3 + other.m3 + na * nb * (na - nb) * delta * dn**2
            + 3 * dn * (na * other.m2 - nb * self.m2),
            self.m4 + other.m4
            + na * nb * (na * na - na * nb + nb * nb) * delta * dn**3
            + 6 * dn**2 * (na * na * other.m2 + nb * nb * self.m2)
            + 4 * dn * (na * other.m3 - nb * self.m3))

    def stats(self):
        """Per-statistic mean, unbiased variance and their standard errors."""
        n = self.n
        var = self.m2 / (n - 1)
        se_var = np.sqrt(np.maximum(
            self.m4 / n - (n - 3) / (n - 1) * (self.m2 / n) ** 2, 0.0) / n)
        return self.mean, var, np.sqrt(var / n), se_var


# Rows of McResult's statistics arrays: the rate, the error leak X, the
# combined noise Z and the total interference-plus-noise I, then one row per
# interferer's term Y.
RATE, X, Z, I = range(4)
Y = slice(4, None)


@dataclass(frozen=True)
class McResult:
    """Aggregated Monte-Carlo moments of one drop: per-statistic mean,
    unbiased variance and their standard errors, indexed by the rows RATE,
    X, Z, I and Y."""

    n: int
    mean: np.ndarray
    variance: np.ndarray
    se_mean: np.ndarray
    se_variance: np.ndarray
    y_samples: np.ndarray | None = None  # (n, K-1) when collected


def _chunks(n_real: int, chunk_size: int, *words):
    """(rng, n) for each chunk of n_real draws; chunk idx draws from
    SeedSequence([*words, idx]), so its stream depends on nothing else."""
    for idx, start in enumerate(range(0, n_real, chunk_size)):
        seq = np.random.SeedSequence([*(int(w) for w in words), idx])
        yield np.random.default_rng(seq), min(chunk_size, n_real - start)


def run_monte_carlo(drop: Drop, n_real: int, seed, *, drop_tag: int = 0,
                    chunk_size: int = DEFAULT_CHUNK,
                    collect_y: bool = False) -> McResult:
    """Estimate the MC moments of the rate and of every decomposition term.

    Chunk boundaries and per-chunk seeds depend only on (seed, drop_tag,
    chunk index), and chunks merge in index order, so the result is
    independent of scheduling.
    """
    if n_real < 2:
        raise ValueError("need at least two realizations")
    acc, y_parts = None, []
    for rng, n in _chunks(n_real, chunk_size, seed, drop_tag):
        t = compute_terms(drop, *_draw_lazily(drop, rng, n))
        part = _Moments.of(np.vstack([
            rate_sample(t["gamma"]), t["x"], t["z"], t["i"], t["y"].T]))
        acc = part if acc is None else acc.merge(part)
        if collect_y:
            y_parts.append(t["y"])
    return McResult(n_real, *acc.stats(),
                    y_samples=np.concatenate(y_parts) if collect_y else None)


def sample_yn2_normalized(drop: Drop, link_idx: int, n_real: int, seed,
                          chunk_size: int = DEFAULT_CHUNK) -> np.ndarray:
    """Draws of the error-times-scattering interference term, normalized to
    unit variance; asymptotically standard complex Gaussian."""
    link = drop.links[link_idx]
    if link.num_paths == 0:
        raise ValueError("link has no scattered paths")
    w = correlation_factor(link.paths, drop.err_amp, conjugate=True)
    scale = math.sqrt(float(drop.err_amp**2 @ link.paths.row_power()))
    out = []
    for rng, n in _chunks(n_real, chunk_size, seed, link_idx):
        eps = crandn(rng, (n, drop.num_antennas))
        g = crandn(rng, (n, link.num_paths))
        out.append(np.einsum("ij,ij->i", (eps @ w).conj(), g) / scale)
    return np.concatenate(out)
