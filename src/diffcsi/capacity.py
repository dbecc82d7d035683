"""Water-filling precoder and closed-loop ergodic capacity.

The transmitter precodes on the singular vectors of the quantized channel
with water-filled per-mode powers; the per-block capacity accounts for
pilot overhead and for the residual estimation-error covariance in closed
form.  The capacity sees the precoder V diag(z) only through the Hermitian
P = V Z^2 V^+, which is what the batched helpers pass around.  2x2
channels use closed forms for P and for the capacity; every other shape
uses a thin SVD and two slogdet calls, which also serve as the test oracle
for the 2x2 path.  The Monte Carlo evaluator is vectorized over trials and
chunked so results are independent of worker count.
"""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from .channel import ChannelParams, autocorrelation
from .mathcore import RngStream, check_finite, sample_cn
from .ratedist import FeedbackBudget

__all__ = [
    "PowerAllocation",
    "CapacityConfig",
    "waterfill",
    "waterfill_batch",
    "block_capacity",
    "ergodic_capacity",
]

CHUNK_TRIALS = 2048  # fixed chunking keeps results worker-count invariant


@dataclass(frozen=True)
class PowerAllocation:
    """Per-eigenmode power weights z_i^2 with water level mu."""

    z2: np.ndarray
    mu: float
    amplitude2: float


@dataclass(frozen=True)
class CapacityConfig:
    """Link configuration for capacity evaluation.

    SNR convention: SNR = N_t A^2 sigma_h2 / sigma_0^2, so the symbol
    power is A^2 = SNR_linear * sigma_0^2 / (N_t sigma_h2).
    """

    params: ChannelParams
    snr_db: float
    l_block: int
    noise_variance: float = 1.0

    def __post_init__(self):
        if self.l_block <= self.params.n_t:
            raise ValueError("l_block must exceed n_t (pilot overhead)")
        if self.noise_variance <= 0:
            raise ValueError("noise_variance must be > 0")

    @property
    def amplitude2(self) -> float:
        snr_lin = 10.0 ** (self.snr_db / 10.0)
        return snr_lin * self.noise_variance / (self.params.n_t * self.params.sigma_h2)

    @property
    def overhead(self) -> float:
        return (self.l_block - self.params.n_t) / self.l_block


def waterfill(gammas: np.ndarray, amplitude2: float, n_t: int) -> PowerAllocation:
    """Water-fill total power N_t over eigenmodes with gains gammas.

    Active modes get z_i^2 = mu - 1/(gamma_i^2 A^2); the weakest mode is
    deactivated until every active allocation is positive.
    """
    gammas = np.asarray(gammas, dtype=float)
    if amplitude2 <= 0:
        raise ValueError("amplitude2 must be > 0")
    if np.any(gammas < 0) or np.any(np.diff(gammas) > 0):
        raise ValueError("gammas must be non-negative and sorted descending")
    if not np.any(gammas > 0):
        raise ValueError("all eigenmode gains are zero; nothing to allocate")

    inv = np.full(len(gammas), np.inf)
    live = gammas > 0
    inv[live] = 1.0 / (gammas[live] ** 2 * amplitude2)
    m = len(gammas)
    for k in range(m, 0, -1):
        if not np.isfinite(inv[k - 1]):
            continue
        mu = (n_t + inv[:k].sum()) / k
        if mu > inv[k - 1]:
            z2 = np.zeros(m)
            z2[:k] = mu - inv[:k]
            return PowerAllocation(z2=z2, mu=mu, amplitude2=amplitude2)
    raise RuntimeError("water-filling failed to find an active set")  # unreachable


def waterfill_batch(gammas: np.ndarray, amplitude2: float, n_t: int) -> np.ndarray:
    """Vectorized water-filling: gammas (B, m) descending -> z2 (B, m)."""
    g2 = np.maximum(gammas, 0.0) ** 2 * amplitude2
    inv = np.where(g2 > 0, 1.0 / np.where(g2 > 0, g2, 1.0), np.inf)
    b, m = inv.shape
    finite = np.isfinite(inv)
    csum = np.where(finite, inv, 0.0).cumsum(axis=1)
    ks = np.arange(1, m + 1)
    mu_k = (n_t + csum) / ks            # water level if first k modes active
    valid = finite & (mu_k > inv)       # weakest active mode stays positive
    k_best = np.where(valid, ks, 0).max(axis=1)
    if np.any(k_best == 0):
        raise ValueError("water-filling batch hit an all-zero channel")
    mu = np.take_along_axis(mu_k, (k_best - 1)[:, None], axis=1)
    z2 = np.where(ks[None, :] <= k_best[:, None], mu - inv, 0.0)
    return np.maximum(z2, 0.0)


def _kernel_constants(cfg: CapacityConfig):
    """(c, q) with F = c I + q J J^+: c = sigma_0^2/A^2 + N_t sigma_psi^2, q = (1-r)^2."""
    p = cfg.params
    c = cfg.noise_variance / cfg.amplitude2 + p.n_t * p.psi_variance
    return c, (1.0 - p.ratio) ** 2


def _is_2x2(m: np.ndarray) -> bool:
    return m.shape[-2:] == (2, 2)


def block_capacity(h_hat: np.ndarray, h_bar: np.ndarray, cfg: CapacityConfig) -> float:
    """Per-block capacity in bits/s/Hz with precoder derived from h_bar.

    h_bar is the transmitter's (possibly outdated, quantized) channel;
    h_hat is the receiver's current estimate.  A batch of one through the
    Monte Carlo path.
    """
    h_hat = check_finite(np.asarray(h_hat), "h_hat")
    h_bar = check_finite(np.asarray(h_bar), "h_bar")
    p = _held_precoder(h_bar[None, :, :], cfg)
    return float(_capacity_batch(h_hat[None, :, :], p, cfg)[0])


def _held_precoder(h_bar: np.ndarray, cfg: CapacityConfig) -> np.ndarray:
    """Batched precoder Gram P = V Z^2 V^+ (B, nt, nt) from h_bar (B, nr, nt).

    The capacity depends on the precoder V diag(z) only through P.  2x2
    channels take the closed form; every other shape takes the SVD.
    """
    if _is_2x2(h_bar):
        return _closed_precoder_2x2(h_bar, cfg)
    return _svd_precoder(h_bar, cfg)


def _capacity_batch(h_hat: np.ndarray, p: np.ndarray, cfg: CapacityConfig) -> np.ndarray:
    """Per-block capacity (B,) for estimates h_hat (B, nr, nt) under precoder P."""
    if _is_2x2(h_hat):
        return _closed_capacity_2x2(h_hat, p, cfg)
    return _slogdet_capacity(h_hat, p, cfg)


def _svd_precoder(h_bar: np.ndarray, cfg: CapacityConfig) -> np.ndarray:
    """General path: thin SVD, water-filling over the min(nr, nt) modes."""
    _, s, vh = np.linalg.svd(h_bar, full_matrices=False)
    z2 = waterfill_batch(s, cfg.amplitude2, cfg.params.n_t)
    v = np.swapaxes(vh.conj(), -1, -2)
    return (v * z2[:, None, :]) @ vh


def _slogdet_capacity(h_hat: np.ndarray, p: np.ndarray, cfg: CapacityConfig) -> np.ndarray:
    """General path: log2 det(F + JJ^+) - log2 det(F) with JJ^+ = H_hat P H_hat^+."""
    c, q = _kernel_constants(cfg)
    jj = h_hat @ p @ np.swapaxes(h_hat.conj(), -1, -2)
    f = c * np.eye(h_hat.shape[-2]) + q * jj
    _, ld_num = np.linalg.slogdet(f + jj)
    _, ld_den = np.linalg.slogdet(f)
    return cfg.overhead * (ld_num - ld_den) / math.log(2.0)


def _gram_2x2(h: np.ndarray):
    """Diagonal (B, 2) and (0, 1) entry (B,) of G = H^+ H, and |det H|^2 (B,)."""
    hc = h.conj()
    abs2 = (h * hc).real
    diag = abs2[:, 0] + abs2[:, 1]
    off = hc[:, 0, 0] * h[:, 0, 1] + hc[:, 1, 0] * h[:, 1, 1]
    det = h[:, 0, 0] * h[:, 1, 1] - h[:, 0, 1] * h[:, 1, 0]
    return diag, off, (det * det.conj()).real


def _closed_precoder_2x2(h_bar: np.ndarray, cfg: CapacityConfig) -> np.ndarray:
    """P = z2^2 I + (z1^2 - z2^2) (G - lam2 I) / (lam1 - lam2) from the
    eigenvalues lam1 >= lam2 of G = H_bar^+ H_bar; no eigenvectors are formed."""
    diag, g12, det2 = _gram_2x2(h_bar)
    half_gap = 0.5 * (diag[:, 0] - diag[:, 1])
    disc = np.hypot(half_gap, np.abs(g12))                  # (lam1 - lam2) / 2
    lam1 = 0.5 * (diag[:, 0] + diag[:, 1]) + disc
    lam2 = det2 / np.where(lam1 > 0, lam1, 1.0)             # no cancellation
    z2 = waterfill_batch(np.sqrt(np.stack([lam1, lam2], axis=1)),
                         cfg.amplitude2, cfg.params.n_t)
    # equal eigenvalues (disc = 0) get equal powers, so the projector drops out
    w = (z2[:, 0] - z2[:, 1]) / np.where(disc > 0, 2.0 * disc, 1.0)
    p = np.empty((len(h_bar), 4), dtype=complex)            # row-major 2x2
    p[:, 0::3] = z2[:, 1:] + w[:, None] * (diag - lam2[:, None])
    p[:, 1] = w * g12
    p[:, 2] = p[:, 1].conj()
    return p.reshape(h_bar.shape)


def _closed_capacity_2x2(h_hat: np.ndarray, p: np.ndarray, cfg: CapacityConfig) -> np.ndarray:
    """log2 det(I + JJ^+ F^-1) from tr and det of JJ^+ = H_hat P H_hat^+.

    F and F + JJ^+ are c I + q JJ^+ and c I + (1+q) JJ^+, so with
    t = tr(JJ^+), D = det(JJ^+) the ratio of determinants is
    (c^2 + c(1+q) t + (1+q)^2 D) / (c^2 + c q t + q^2 D).
    """
    c, q = _kernel_constants(cfg)
    diag, g12, det2 = _gram_2x2(h_hat)
    p = p.reshape(len(p), 4)
    p11, p22, p12 = p[:, 0].real, p[:, 3].real, p[:, 1]
    tr = p11 * diag[:, 0] + p22 * diag[:, 1] + 2.0 * (p12 * g12.conj()).real  # tr(P G)
    det = det2 * (p11 * p22 - (p12 * p12.conj()).real)
    den = c * c + (c * q) * tr + (q * q) * det
    # numerator - denominator = c t + (1 + 2q) D; log1p keeps small rates exact
    return cfg.overhead / math.log(2.0) * np.log1p((c * tr + (1.0 + 2.0 * q) * det) / den)


def _simulate_chunk(args):
    """One chunk of Monte Carlo trials; pure function of (seed, chunk index)."""
    cfg, budget, d, n_trials, seed, chunk_id, periods, mode = args
    p = cfg.params
    rng = RngStream(seed, chunk_id).generator()
    t = max(1, budget.t_blocks)
    alpha1 = autocorrelation(p, 1.0)
    beta = math.sqrt(1.0 - alpha1 * alpha1)
    shape = (n_trials, p.n_r, p.n_t)

    h = sample_cn(shape, p.sigma_h2, rng)
    per_block = []
    if mode == "analytic":
        # independent per-block snapshots with the effective distortion d
        for _ in range(periods):
            h_hat = h + sample_cn(shape, p.sigma_e2, rng)
            h_bar = h_hat - sample_cn(shape, d, rng)
            prec = _held_precoder(h_bar, cfg)
            per_block.append(_capacity_batch(h_hat, prec, cfg))
            h = sample_cn(shape, p.sigma_h2, rng)
    else:
        # causal feedback: the quantized channel produced at an epoch is
        # applied during the following period, so the CSI in use at the
        # epoch itself is one interval old (matches the delayed-distortion
        # closed form).  The cold-start period uses its own epoch's
        # feedback and is excluded from the statistics.
        prec = None
        for period in range(periods + 1):
            for b in range(t):
                h_hat = h + sample_cn(shape, p.sigma_e2, rng)
                if b == 0:
                    h_bar = h_hat - sample_cn(shape, d, rng)
                    next_prec = _held_precoder(h_bar, cfg)
                    if prec is None:
                        prec = next_prec
                if period > 0:
                    per_block.append(_capacity_batch(h_hat, prec, cfg))
                h = alpha1 * h + beta * sample_cn(shape, p.sigma_h2, rng)
            prec = next_prec
    caps = np.stack(per_block, axis=0)          # (blocks, trials)
    return caps.mean(axis=0)                    # per-trial mean


def ergodic_capacity(
    cfg: CapacityConfig,
    budget: FeedbackBudget,
    d: float,
    trials: int,
    seed: int,
    periods: int = 1,
    mode: str = "simulate",
    workers: int = 1,
):
    """Monte Carlo mean and standard error of the per-block capacity.

    mode "simulate": quantized feedback is formed at each epoch from the
    current estimate (additive error of per-entry variance d) and the
    precoder is held for T blocks, so within-period aging is simulated.
    mode "analytic": every block gets an independent snapshot with the
    supplied effective distortion (the theory curve).

    Deterministic for fixed (seed, trials) regardless of worker count:
    trials are split into fixed-size chunks, each with its own substream.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if mode not in ("simulate", "analytic"):
        raise ValueError(f"unknown mode {mode!r}")
    chunks = []
    start = 0
    cid = 0
    while start < trials:
        n = min(CHUNK_TRIALS, trials - start)
        chunks.append((cfg, budget, d, n, seed, cid, periods, mode))
        start += n
        cid += 1

    if workers > 1 and len(chunks) > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_simulate_chunk, chunks))
    else:
        results = [_simulate_chunk(c) for c in chunks]

    per_trial = np.concatenate(results)
    mean = float(math.fsum(per_trial) / trials)
    if trials == 1:
        return mean, float("nan")
    var = math.fsum((per_trial - mean) ** 2) / (trials - 1)
    return mean, math.sqrt(var / trials)
