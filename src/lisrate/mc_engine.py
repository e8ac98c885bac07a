"""Monte-Carlo engine for the matched-filter uplink SINR under imperfect CSI:
the Rician `Link` (one link, or a drop's interferers as one stack), the
`Drop` and its one route (`Drop.route`), the batch kernels `compute_terms`
and `sinr_direct`, which check each other, and the chunked moments of
`run_monte_carlo`, whose bytes follow no worker, thread or CPU count.  The
README's engine paragraph describes them.
"""

from __future__ import annotations

import ctypes
import math
import sys
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass
from functools import cache, cached_property, reduce

import numpy as np

from .channel import (Scattering, _centred_coordinates, _ramp_factors,
                      correlation_factor, ramp_basis)
from .geometry import AntennaGrid

# Draws per chunk, the unit of a task's threads and of one compute_terms
# call, whose dense factors and basis C it builds once (`Drop.chunk_size`).
DEFAULT_CHUNK = 256
# Rows per block of the basis and spectral routes, and draws per chunk when
# no draw reaches past eps (`Drop.chunk_size`): bounds each (rows, M) array,
# and is faster than whole-chunk routes, which took nlos-grid from 0.39-0.41
# to 0.48-0.53 s and from 72 to 91 MB peak RSS (2 vCPUs, numpy 2.4.6).
BASIS_ROWS = 64
# Threads that share a run_monte_carlo call's chunks (`chunk_threads`).
_CHUNK_THREADS = 1
# Beyond two chunks at once, a task's chunks in flight hold at most this
# many bytes of error draws, (chunk_size, M) each, so its peak memory stops
# growing with threads.
STREAM_BYTES = 48 << 20


@dataclass(frozen=True)
class Link:
    """One device's channel to the surface: the Rician mix
    sqrt(kappa/(kappa+1)) h_los + sqrt(1/(kappa+1)) R g of a deterministic
    LOS vector and P scattered paths with correlation factor R and CN(0, 1)
    fading g.  kappa == inf means the channel is h_los itself.  A stack of
    J links (`Drop.links`) has a leading axis J on every field, and
    `link[j]` is link j as row views."""

    kappa: float | np.ndarray  # Rician factor (linear); 0 means pure NLOS
    h_los: np.ndarray          # (M,) deterministic LOS component
    paths: Scattering          # the scattered paths; P may be 0
    rho: float | np.ndarray    # transmit SNR (linear)

    def __post_init__(self):
        if not np.all(self.kappa >= 0):
            raise ValueError(f"Rician factor must be nonnegative, got {self.kappa}")
        if self.paths.num_antennas != self.h_los.shape[-1]:
            raise ValueError("LOS vector and scattered paths disagree on M")

    def __len__(self) -> int:
        return len(self.rho)

    def __getitem__(self, key) -> Link:
        return Link(self.kappa[key], self.h_los[key], self.paths[key],
                    self.rho[key])

    @property
    def num_paths(self) -> int:
        return self.paths.num_paths

    @property
    def deterministic(self) -> bool:
        return math.isinf(self.kappa)

    @property
    def weights(self):
        """(LOS, scattered) amplitudes sqrt(kappa/(kappa+1)) and
        sqrt(1/(kappa+1)), (1, 0) at kappa = inf without evaluating
        inf/inf, which the tasks' traps would raise on."""
        k = np.asarray(self.kappa, float)
        los = np.divide(k, k + 1.0, out=np.ones_like(k), where=k < math.inf)
        return np.sqrt(los), np.sqrt(1.0 / (k + 1.0))


@dataclass(frozen=True)
class Drop:
    """One frozen geometric realization for a single target device."""

    desired: Link
    links: Link                      # the K-1 interferers, one stack
    err_amp: np.ndarray              # (M,) per-antenna estimation-error amplitudes
    tau: float                       # CSI imperfectness in [0, 1)
    grid: AntennaGrid | None = None  # None for the linear-array baseline
    target_z: float | None = None

    def __post_init__(self):
        if not 0.0 <= self.tau < 1.0:
            raise ValueError("tau must lie in [0, 1); tau = 1 leaves no estimate")
        if not (np.all(self.desired.rho > 0) and np.all(self.links.rho > 0)):
            raise ValueError("transmit SNRs must be positive")

    @property
    def num_antennas(self) -> int:
        return self.desired.h_los.shape[0]

    @property
    def pathless(self) -> bool:
        """No interferer has scattered paths, so w draws nothing."""
        return not self.links.paths.gains.size

    @property
    def chunk_size(self) -> int:
        """Draws per Monte-Carlo chunk: BASIS_ROWS when nothing is drawn
        past eps (a deterministic desired channel, no interferer with
        paths), else DEFAULT_CHUNK."""
        los_only = self.pathless and self.desired.deterministic
        return BASIS_ROWS if los_only else DEFAULT_CHUNK

    @cached_property
    def route(self):
        """The one home of the route rule for ||f^H R_j||^2: route(xs, d, k),
        built once per drop, gives `compute_terms`' (n, J) power and looks
        its kernel up when called; None for a pathless drop, whose power
        is 0.  The interferers share P, loss shape, array and band, so one
        route serves them all: spectral on a linear array (n_v = 1) with
        one loss per link, as R_j R_j^H is then Toeplitz
        (`_spectral_weights`); the basis where the band's ramp bases have
        r_v r_h < P directions, keeping each link's coordinates
        (`_basis_power`); else dense, keeping nothing."""
        if self.pathless:
            return None
        p = self.links.paths
        if p.n_v == 1 and np.shape(p.loss)[-1] == 1:
            t = _spectral_weights(p)
            return lambda xs, d, k: _spectral_power(t, xs, d, k)
        u = p.band and (ramp_basis(p.n_v, p.band[0]),
                        ramp_basis(p.n_h, p.band[1]))
        if u and u[0].shape[1] * u[1].shape[1] < p.num_paths:
            # each link's own calls: one call over the stack rounds apart
            c = [(_centred_coordinates(u[0], q.step_v),
                  _centred_coordinates(u[1], q.step_h)
                  * (q.gains / math.sqrt(p.num_antennas))) for q in p]
            return lambda xs, d, k: _basis_power(p, *u, c, xs, d, k)
        return lambda xs, d, k: _dense_power(p, xs, d, k)


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


def rate_sample(gamma) -> np.ndarray:
    """Instantaneous rate log(1 + gamma) in nats."""
    gamma = np.asarray(gamma, dtype=float)
    if np.any(gamma < 0):
        raise ValueError("SINR must be nonnegative")
    return np.log1p(gamma)


def draw_fading(drop: Drop, rng, n: int):
    """n realizations (rows) of (eps, g_des, w), drawn in that order: the
    error (n, M), the desired fading (n, P) or None when it is deterministic,
    and one CN(0, 1) scalar per interferer (n, K-1).  f sees a link's path
    fading g only through f^H R g, CN(0, ||R^H f||^2) given f, which is the
    law of ||R^H f|| w_j: w_j is g's component along R^H f.  When no
    interferer has paths, w is zeros and draws nothing."""
    eps = crandn(rng, (n, drop.num_antennas))
    g_des = None if drop.desired.deterministic \
        else crandn(rng, (n, drop.desired.num_paths))
    shape = (n, len(drop.links))
    w = np.zeros(shape, complex) if drop.pathless else crandn(rng, shape)
    return eps, g_des, w


def _check_links(drop: Drop, eps, w) -> None:
    if np.shape(w) != (len(eps), len(drop.links)):
        raise ValueError("need one fading draw per row and interferer")


def _desired_channel(drop: Drop, g_des):
    """h_los (M,) for a deterministic desired link, else the (n, M) rows,
    a fresh array built in place: g_des (b R)^T, then + a h_los."""
    des = drop.desired
    if des.deterministic:
        return des.h_los
    a, b = des.weights
    h = g_des @ correlation_factor(des.paths, b).T
    h += a * des.h_los
    return h


# OpenBLAS's thread-count entry points under the names numpy builds export:
# scipy-openblas with 64- and 32-bit integers (numpy 2), then numpy 1.x.
_BLAS_THREAD_SYMBOLS = (
    ("scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_"),
    ("scipy_openblas_get_num_threads", "scipy_openblas_set_num_threads"),
    ("openblas_get_num_threads64_", "openblas_set_num_threads64_"),
    ("openblas_get_num_threads", "openblas_set_num_threads"),
)


@cache
def _blas_thread_control():
    """OpenBLAS's (get, set) thread-count functions as linked into numpy's
    compiled core module, or None when numpy uses another BLAS."""
    for name in ("numpy._core._multiarray_umath",
                 "numpy.core._multiarray_umath"):
        path = getattr(sys.modules.get(name), "__file__", None)
        if path is None:
            continue
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for get_name, set_name in _BLAS_THREAD_SYMBOLS:
            get = getattr(lib, get_name, None)
            put = getattr(lib, set_name, None)
            if get is not None and put is not None:
                get.argtypes, get.restype = [], ctypes.c_int
                put.argtypes, put.restype = [ctypes.c_int], None
                return get, put
    return None


@contextmanager
def chunk_threads(n: int):
    """Run the body with BLAS on one thread and each `run_monte_carlo`
    call's chunks on `n` threads, then restore both counts.  The bytes of
    every route rest on one-thread BLAS, so this is the one place that sets
    either count: experiments._fan_out enters it around every task, and
    forked workers inherit both.  Under a BLAS other than OpenBLAS its
    count is left as is."""
    global _CHUNK_THREADS
    get, put = _blas_thread_control() or (lambda: None, lambda count: None)
    before = get(), _CHUNK_THREADS
    put(1)
    _CHUNK_THREADS = n
    try:
        yield
    finally:
        put(before[0])
        _CHUNK_THREADS = before[1]


def _row_blocks(block, out: np.ndarray) -> np.ndarray:
    """out[rows] = block(rows) for each slice of BASIS_ROWS rows of out in
    turn: fixed edges, so a row's bits follow its position in the call."""
    for start in range(0, len(out), BASIS_ROWS):
        rows = slice(start, start + BASIS_ROWS)
        out[rows] = block(rows)
    return out


def _dense_power(paths, xs, d, k) -> np.ndarray:
    """||f^H R_j||^2 per row of f = k + d xs and link j of the stack, each
    from its own dense conj(R), which serves both terms: conj(k^H R) =
    k conj(R), taken before its rows are scaled by d in place for one
    (n, M) x (M, P) product over all rows, which packs the factor once.
    So it shares no contraction with the closed form
    (`Scattering.projected_power`).  One link's factor is alive at a
    time."""
    def link_power(link):
        r = correlation_factor(link, conjugate=True)
        k_r = k @ r
        r *= np.reshape(d, (-1, 1))
        q = xs @ r
        return _row_power(np.add(q, k_r, out=q))
    return np.column_stack([link_power(link) for link in paths])


def _basis_power(paths, u_v, u_h, coords, xs, d, k) -> np.ndarray:
    """||f^H R_j||^2 per row of f = k + d xs and link j of the stack, as
    the power of q = conj(f^H R) = y conj(R / loss) with y = loss (d xs + k).
    The ramp bases U_v, U_h of the band span every steering vector, so
    R / loss = B C diag(phase) with B = U_v kron U_h, unit-modulus phases
    exp(1j (step_v (n_v - 1) + step_h (n_h - 1)) / 2) and the real (r, P) C,
    formed per call and link, one link's at a time, whose column p is
    c_v,p kron c_h,p: the coordinates of the centred ramps, c_h's times
    gains_p / sqrt(M), one (c_v, c_h) per link in `coords` (`Drop.route`).
    So |q| = |v C| with v = y conj(B): two small GEMMs on the (n_v, n_h)
    reshape of y, its k-part projected once per call and link and added per
    `_row_blocks` block, then one real (2 rows, r) x (r, P) product on v's
    real and imaginary planes, half the flops of a complex one."""
    conj_v, conj_h = u_v.conj().T, u_h.conj()

    def project(y):
        t = (y.reshape(-1, paths.n_h) @ conj_h).reshape(len(y), paths.n_v, -1)
        return (conj_v @ t).reshape(len(y), -1)

    def link_power(loss, c_v, c_h):
        c = (c_v[:, None] * c_h[None, :]).reshape(-1, paths.num_paths)
        v_k, scale = project(loss * k[None]), loss * d

        def block(rows):
            v = project(xs[rows] * scale)
            v += v_k
            power = _row_power(np.concatenate((v.real, v.imag)) @ c)
            return power[:len(v)] + power[len(v):]
        return _row_blocks(block, np.empty(len(xs)))
    return np.column_stack([link_power(loss, *c)
                            for loss, c in zip(paths.loss, coords)])


def _spectral_weights(paths) -> np.ndarray:
    """The (2L, J) weights T_j = (2 Re DFT(t_j) - t_j(0)) / L,
    L = 2^k >= 2M - 1, repeated per (re, im), of a stack of J linear-array
    links with one loss each, whose R_j R_j^H is the Hermitian Toeplitz
    [t_j(m - m')] of the lags t_j(delta) = loss^2 sum_p gains_p^2
    exp(1j step_h,p delta) / M, delta < M.  Each lag sum is one
    (ceil(M/b), P) x (P, b) product of `_ramp_factors`' coarse and fine
    ramps, so no (M, P) array is formed; each loss is squared as a Python
    float, by pow, which rounds apart from numpy's square."""
    lags = []
    for s in paths:
        coarse, fine = _ramp_factors(s.n_h, s.step_h)
        lags.append(((coarse * s.gains**2) @ fine.T).reshape(-1)[:s.n_h]
                    * (s.loss.item() ** 2 / s.n_h))
    lags = np.array(lags)
    size = 1 << (2 * lags.shape[1] - 2).bit_length()
    spectrum = 2.0 * np.fft.fft(lags, size).real - lags[:, :1].real
    return np.repeat(spectrum.T / size, 2, axis=0)


def _spectral_power(weights, xs, d, k) -> np.ndarray:
    """||f^H R_j||^2 per row of f = k + d xs and per link j whose
    R_j R_j^H is Toeplitz, from the weights of their lags
    (`_spectral_weights`).  f^H R_j R_j^H f = sum_w |F(w)|^2 T_j(w) / L
    over the length-L DFTs F of f and T_j of the lags (Gray 2006,
    "Toeplitz and circulant matrices: a review"); L >= 2M - 1 keeps the negative lags from wrapping onto the
    positive ones, and T_j is real.  So one FFT per row serves every link,
    in `_row_blocks`, with the DFT of k taken once per call: the squares
    of its float view times the weights.  Clamped at 0, which a sum of
    squares cannot cross but this sum can round below."""
    size = len(weights) // 2
    f_k = np.fft.fft(k, size)

    def block(rows):
        v = np.fft.fft(xs[rows] * d, size)
        v = np.add(v, f_k, out=v).view(float)
        return np.square(v, out=v) @ weights
    power = _row_blocks(block, np.empty((len(xs), weights.shape[1])))
    return np.maximum(power, 0.0, out=power)


def compute_terms(drop: Drop, eps, g_des, w) -> dict:
    """Decomposed SINR terms for a batch of realizations from draw_fading,
    each row's from that row alone: arrays s, x, y (n, K-1), z, i, gamma,
    f_los = f^H h_los,j and power = ||f^H R_j||^2 (n, K-1).  w must be
    (n, K-1).  With f = k + d X affine in the draws (README, engine), one
    (n, M) x (M, J) product serves the LOS vectors and the drop's route
    the scattered powers, in the calling thread.  A deterministic desired
    h has k = sqrt(1-tau^2) h, d = tau err_amp and X = eps, only read; a
    stochastic one has k = 0, d = 1 and X = f, built in place of its rows
    with one (n, M) temporary.  y_j = |a f_los + b sqrt(power) w_j|^2."""
    _check_links(drop, eps, w)
    tau = drop.tau
    c = math.sqrt(1.0 - tau**2)
    links = drop.links
    los, (a, b) = links.h_los.T, links.weights
    h = _desired_channel(drop, g_des)                     # (M,) or (n, M)
    s = np.broadcast_to(_row_power(h) ** 2, len(eps))
    if drop.desired.deterministic:
        k, d, xs = c * h, tau * drop.err_amp, eps
        proj = eps @ np.column_stack((los.conj() * d[:, None],
                                      drop.err_amp * h.conj()))
        u = proj[:, -1]
        x = np.abs(u) ** 2
        z = _row_power(k) + _row_power(eps, d * d) + 2 * c * tau * u.real
        f_los = k.conj() @ los + np.conj(proj[:, :-1])
    else:
        e = eps * drop.err_amp          # the only (n, M) temporary
        x = np.abs(np.einsum("ij,ij->i", np.conj(e, out=e), h)) ** 2
        h *= c
        h += np.multiply(eps, tau * drop.err_amp, out=e)
        del e
        d, xs, k = 1.0, h, np.zeros(drop.num_antennas, complex)
        z = _row_power(h)
        f_los = np.conj(h @ los.conj())
    power = np.zeros((len(eps), len(links))) if drop.route is None \
        else drop.route(xs, d, k)                       # ||f^H R_j||^2
    y = np.abs(a * f_los + b * np.sqrt(power) * w) ** 2
    i_total = drop.desired.rho * tau**2 * x + y @ links.rho + z
    gamma = drop.desired.rho * s * (1.0 - tau**2) / i_total
    return {"s": s, "x": x, "y": y, "z": z, "i": i_total, "gamma": gamma,
            "f_los": f_los, "power": power}


def sinr_direct(drop: Drop, eps, g_des, w) -> np.ndarray:
    """Receiver-path SINR of each row of a draw_fading batch, built from the
    inner products of the least-squares estimate f with each channel.

    Groups the terms as the matched filter sees them and builds each
    interferer's channel first, h_j = a h_los + b R g, without the per-term
    decomposition; g = w_j R^H f / ||R^H f|| (0 where R^H f = 0) is the one
    direction of g that f sees.  Agrees with compute_terms to roundoff.
    """
    _check_links(drop, eps, w)
    tau = drop.tau
    err = drop.err_amp * eps
    h = _desired_channel(drop, g_des)
    fh = (h + math.sqrt(tau**2 / (1.0 - tau**2)) * err).conj()
    hn2 = np.sum(np.abs(h) ** 2, axis=-1)

    leak = drop.desired.rho * tau**2 \
        * np.abs(np.sum(err.conj() * h, axis=-1)) ** 2
    interf = 0.0
    for link, wj in zip(drop.links, w.T):
        a, b = link.weights
        r = correlation_factor(link.paths)
        v = fh @ r                                      # f^H R, (n, P)
        norm = np.sqrt(_row_power(v))
        lift = np.divide(wj, norm, out=np.zeros_like(wj), where=norm > 0)
        hj = a * link.h_los + b * ((v.conj() * lift[:, None]) @ r.T)
        interf += link.rho * np.abs(np.sum(fh * hj, axis=-1)) ** 2
    noise = np.sum(np.abs(fh) ** 2, axis=-1)
    denom = leak + (1.0 - tau**2) * (interf + noise)
    return drop.desired.rho * (1.0 - tau**2) * hn2**2 / denom


# ---------------------------------------------------------------------------
#  Moment estimation
# ---------------------------------------------------------------------------

# Rows of McResult's statistics arrays: the rate, the error leak X, the
# combined noise Z and the total interference-plus-noise I, then one row per
# interferer's term Y.
RATE, X, Z, I = range(4)
Y = slice(4, None)


@dataclass(frozen=True)
class McResult:
    """Monte-Carlo moments of a drop or of one chunk of it: count, means and
    central sums M2, M3, M4 per statistic (rows RATE, X, Z, I, Y), with the
    variance and the standard errors as properties.  `merge` pools two
    disjoint samples with the pairwise updates of Chan, Golub & LeVeque
    (1979) and Pebay (2008, SAND2008-6212); the M4 update needs M3."""

    n: int
    mean: np.ndarray
    m2: np.ndarray
    m3: np.ndarray
    m4: np.ndarray

    @classmethod
    def of(cls, x: np.ndarray) -> McResult:
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

    def merge(self, other: McResult) -> McResult:
        na, nb = self.n, other.n
        n = na + nb
        delta = other.mean - self.mean
        dn = delta / n
        return McResult(
            n, self.mean + nb * dn,
            self.m2 + other.m2 + na * nb * delta * dn,
            self.m3 + other.m3 + na * nb * (na - nb) * delta * dn**2
            + 3 * dn * (na * other.m2 - nb * self.m2),
            self.m4 + other.m4
            + na * nb * (na * na - na * nb + nb * nb) * delta * dn**3
            + 6 * dn**2 * (na * na * other.m2 + nb * nb * self.m2)
            + 4 * dn * (na * other.m3 - nb * self.m3))

    @property
    def variance(self) -> np.ndarray:
        return self.m2 / (self.n - 1)           # unbiased

    @property
    def se_mean(self) -> np.ndarray:
        return np.sqrt(self.variance / self.n)

    @property
    def se_variance(self) -> np.ndarray:
        n = self.n
        return np.sqrt(np.maximum(
            self.m4 / n - (n - 3) / (n - 1) * (self.m2 / n) ** 2, 0.0) / n)


def _chunks(n_real: int, chunk_size: int, *words):
    """(rng, n) for each chunk of n_real draws; chunk idx draws from
    SeedSequence([*words, idx]), so its stream depends on nothing else."""
    for idx, start in enumerate(range(0, n_real, chunk_size)):
        seq = np.random.SeedSequence([*(int(w) for w in words), idx])
        yield np.random.default_rng(seq), min(chunk_size, n_real - start)


def run_monte_carlo(drop: Drop, n_real: int, seed, *,
                    drop_tag: int = 0) -> McResult:
    """Estimate the MC moments of the rate and of every decomposition term
    over chunks of `drop.chunk_size` draws seeded from (seed, drop_tag,
    chunk index) and merged in index order: each chunk is one
    compute_terms call on draw_fading's draws from
    _chunks(n_real, drop.chunk_size, seed, drop_tag).  The chunks run on
    one executor of up to `chunk_threads` threads, or STREAM_BYTES' cap,
    shut down before the call returns (a fork pool must not fork while a
    thread pool lives), each under the caller's `np.geterr()`, as numpy
    keeps its traps per thread; a failed chunk cancels those not yet
    started."""
    if n_real < 2:
        raise ValueError("need at least two realizations")
    traps = np.geterr()
    rows = drop.chunk_size

    def moments(chunk):
        rng, n = chunk
        with np.errstate(**traps):
            t = compute_terms(drop, *draw_fading(drop, rng, n))
            return McResult.of(np.vstack([rate_sample(t["gamma"]), t["x"],
                                          t["z"], t["i"], t["y"].T]))

    chunks = _chunks(n_real, rows, seed, drop_tag)
    threads = min(_CHUNK_THREADS, -(-n_real // rows), max(
        2, STREAM_BYTES // (16 * rows * drop.num_antennas)))
    if threads < 2:
        return reduce(McResult.merge, map(moments, chunks))
    with ThreadPoolExecutor(threads) as pool:
        return reduce(McResult.merge, pool.map(moments, chunks))
