"""Water-filling precoder and closed-loop ergodic capacity.

The transmitter precodes on the singular vectors of the quantized channel
with water-filled per-mode powers; the per-block capacity accounts for
pilot overhead and for the residual estimation-error covariance in closed
form.  The capacity sees the precoder V diag(z) only through the Hermitian
P = V Z^2 V^+, which is what the batched helpers pass around.  2x2
channels use closed forms for P and for the capacity; every other shape
uses a thin SVD and two slogdet calls, which also serve as the test oracle
for the 2x2 path.  One causal feedback loop serves both the Gaussian test
channel of the theory and the Lloyd codebook; the Monte Carlo evaluator
runs it vectorized over trials and over a list of distortions that share
one draw, and chunked so results are independent of worker count.
"""

from __future__ import annotations

import contextlib
import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from .channel import ChannelParams, advance, autocorrelation, estimate
from .mathcore import RngStream, _Prefetch, sample_cn
from .ratedist import FeedbackBudget

__all__ = [
    "CapacityConfig",
    "waterfill_batch",
    "ergodic_capacity",
]

CHUNK_TRIALS = 2048  # fixed chunking keeps results worker-count invariant
# |det H|^2 grows like sigma_hhat2^2: fig4 (200 trials, T <= 2) overflowed at
# 1e154 and not at 1e153, so this leaves 10^4 trials x 100 blocks a tail margin
MAX_SIGMA_HHAT2 = 1e150
# and shrinks like sigma_h2^2: fig4 at 10^4 trials and T = 1..100 kept its bytes
# at 1e-153 and changed in the 12th digit at 1e-155, so this mirrors the bound above
MIN_SIGMA_H2 = 1e-150


@dataclass(frozen=True)
class CapacityConfig:
    """Link configuration for capacity evaluation.

    SNR convention: SNR = N_t A^2 sigma_h2 / sigma_0^2 with unit noise
    variance sigma_0^2 = 1, so the symbol power is A^2 = SNR_linear /
    (N_t sigma_h2) and the capacity depends on the SNR alone.
    """

    params: ChannelParams
    snr_db: float
    l_block: int

    def __post_init__(self):
        if self.l_block <= self.params.n_t:
            raise ValueError("l_block must exceed n_t (pilot overhead)")
        if self.params.sigma_hhat2 > MAX_SIGMA_HHAT2:  # sigma_h2 <= sigma_hhat2 too
            raise ValueError(f"sigma_hhat2={self.params.sigma_hhat2} exceeds "
                             f"{MAX_SIGMA_HHAT2:g}: the capacity kernel would overflow")
        if self.params.sigma_h2 < MIN_SIGMA_H2:  # the closed forms' sigma_h2^2 too
            raise ValueError(f"sigma_h2={self.params.sigma_h2} is below {MIN_SIGMA_H2:g}: "
                             "the capacity kernel would underflow")
        try:  # 10^(snr_db / 10) can overflow, or underflow to an A^2 of 0
            in_range = 1.0 / self.amplitude2 < math.inf
        except (OverflowError, ZeroDivisionError):
            in_range = False
        if not in_range:
            raise ValueError(f"snr_db={self.snr_db} puts A^2 or 1/A^2 out of float range")

    @property
    def amplitude2(self) -> float:
        snr_lin = 10.0 ** (self.snr_db / 10.0)
        return snr_lin / (self.params.n_t * self.params.sigma_h2)

    @property
    def overhead(self) -> float:
        return (self.l_block - self.params.n_t) / self.l_block


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
        raise ArithmeticError("water-filling batch hit an all-zero channel")
    mu = np.take_along_axis(mu_k, (k_best - 1)[:, None], axis=1)
    z2 = np.where(ks[None, :] <= k_best[:, None], mu - inv, 0.0)
    return np.maximum(z2, 0.0)


def _kernel_constants(cfg: CapacityConfig):
    """(c, q) with F = c I + q J J^+: c = 1/A^2 + N_t sigma_psi^2, q = (1-r)^2."""
    p = cfg.params
    c = 1.0 / cfg.amplitude2 + p.n_t * p.psi_variance
    return c, (1.0 - p.ratio) ** 2


def _is_2x2(m: np.ndarray) -> bool:
    return m.shape[-2:] == (2, 2)


def _held_precoder(h_bar: np.ndarray, cfg: CapacityConfig) -> np.ndarray:
    """Batched precoder Gram P = V Z^2 V^+ (..., nt, nt) from h_bar (..., nr, nt).

    The capacity depends on the precoder V diag(z) only through P.  2x2
    channels take the closed form; every other shape takes the SVD.  Any
    leading axes run as one batch of rows.
    """
    rows = h_bar.reshape(-1, *h_bar.shape[-2:])
    p = _closed_precoder_2x2(rows, cfg) if _is_2x2(rows) else _svd_precoder(rows, cfg)
    return p.reshape(*h_bar.shape[:-2], *p.shape[-2:])


def _capacity_batch(h_hat: np.ndarray, p: np.ndarray, cfg: CapacityConfig) -> np.ndarray:
    """Per-block capacity (..., B) for estimates h_hat (B, nr, nt) under
    precoders P (..., B, nt, nt); h_hat broadcasts over P's leading axes."""
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
    """Diagonal (..., 2) and (0, 1) entry (...) of G = H^+ H, and |det H|^2 (...)."""
    hc = h.conj()
    abs2 = (h * hc).real
    diag = abs2[..., 0, :] + abs2[..., 1, :]
    off = hc[..., 0, 0] * h[..., 0, 1] + hc[..., 1, 0] * h[..., 1, 1]
    det = h[..., 0, 0] * h[..., 1, 1] - h[..., 0, 1] * h[..., 1, 0]
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
    # w = (z1^2 - z2^2) / (lam1 - lam2).  With both modes on, z_i^2 = mu -
    # 1/(A^2 lam_i), so w = 1/(A^2 lam1 lam2) = 1/(A^2 det G) and no gap is
    # divided by; with one mode on, equal eigenvalues (disc = 0) cannot occur
    both = z2[:, 1] > 0
    w = np.where(both, 1.0 / (cfg.amplitude2 * np.where(both, det2, 1.0)),
                 z2[:, 0] / np.where(disc > 0, 2.0 * disc, 1.0))
    p = np.empty((len(h_bar), 4), dtype=complex)            # row-major 2x2
    p[:, 0::3] = z2[:, 1:] + w[:, None] * (diag - lam2[:, None])
    p[:, 1] = w * g12
    p[:, 2] = p[:, 1].conj()
    return p.reshape(h_bar.shape)


def _closed_capacity_2x2(h_hat: np.ndarray, p: np.ndarray, cfg: CapacityConfig) -> np.ndarray:
    """log2 det(I + JJ^+ F^-1) from tr and det of JJ^+ = H_hat P H_hat^+.

    F and F + JJ^+ are c I + q JJ^+ and c I + (1+q) JJ^+, so with
    t = tr(JJ^+), D = det(JJ^+) the ratio of determinants is
    (c^2 + c(1+q) t + (1+q)^2 D) / (c^2 + c q t + q^2 D).  G = H_hat^+ H_hat
    is formed once and broadcast over P's leading axes.
    """
    c, q = _kernel_constants(cfg)
    diag, g12, det2 = _gram_2x2(h_hat)
    p = p.reshape(*p.shape[:-2], 4)
    p11, p22, p12 = p[..., 0].real, p[..., 3].real, p[..., 1]
    tr = p11 * diag[:, 0] + p22 * diag[:, 1] + 2.0 * (p12 * g12.conj()).real  # tr(P G)
    det = det2 * (p11 * p22 - (p12 * p12.conj()).real)
    den = c * c + (c * q) * tr + (q * q) * det
    # numerator - denominator = c t + (1 + 2q) D; log1p keeps small rates exact
    return cfg.overhead / math.log(2.0) * np.log1p((c * tr + (1.0 + 2.0 * q) * det) / den)


def _feedback_loop(cfg: CapacityConfig, t: int, n_blocks: int, discard: int, quantize,
                   rows: int, rng):
    """Periodic causal feedback over `rows` stationary CN(0, sigma_h2)
    channels (rows, nr, nt), which it draws first from rng.

    At every T-th block (an epoch) the receiver's estimate H_hat and the
    shared reconstruction H_bar pass through quantize(h_hat, h_bar), which
    returns the next H_bar; H_bar_0 = 0.  The precoder for a period comes
    from the previous epoch's H_bar, so the CSI in use at an epoch is one
    interval old (the delayed-distortion closed form); the cold-start
    period uses its own epoch's feedback.  The channel moves only through
    channel.estimate and channel.advance.  Returns the mean capacity
    (..., rows) over the blocks after the first `discard` (0 <= discard <
    n_blocks, as callers take them from a FeedbackBudget), a running sum in
    block order, so no block's capacities are kept; a quantizer may add
    leading axes to H_bar, which the mean keeps.

    Only blocks something reads are visited: the epochs and the counted
    blocks.  Between two visited blocks k apart the channel takes one exact
    AR(1) jump with coefficient alpha^k, so discarded blocks draw only at
    their epochs; with discard = 0 every block is visited.  The last
    epoch's H_bar forms no precoder unless its own period is the first, as
    no later block reads it.
    """
    p = cfg.params
    alpha = autocorrelation(p, 1.0)
    h = sample_cn((rows, p.n_r, p.n_t), p.sigma_h2, rng)
    h_bar = np.zeros_like(h)
    prec = held = None
    last = total = 0
    for n in range(n_blocks):
        if n % t and n < discard:
            continue
        if n > last:
            h = advance(h, alpha ** (n - last), p, rng)
            last = n
        h_hat = estimate(h, p, rng)
        if n % t == 0:
            h_bar = quantize(h_hat, h_bar)
            # a precoder is read from the next epoch on, or at once at the first
            fresh = _held_precoder(h_bar, cfg) if n == 0 or n + t < n_blocks else None
            prec, held = held, fresh
            if prec is None:
                prec = held
        if n >= discard:
            total = total + _capacity_batch(h_hat, prec, cfg)
    return total / (n_blocks - discard)


def _simulate_chunk(args):
    """One chunk of Monte Carlo trials; pure function of (seed, chunk index).

    Returns the per-trial capacities (n_d, n_trials), one row per distortion.
    """
    cfg, budget, distortions, n_trials, seed, chunk_id, periods = args
    p = cfg.params
    t = budget.t_blocks
    shape = (n_trials, p.n_r, p.n_t)
    # sample_cn's layout and scaling, sqrt(d / 2) * [re, im], with one draw
    # of standard normals shared by every distortion d (d-major leading axis)
    scale = np.sqrt(np.asarray(distortions) / 2.0)[:, None, None, None, None]
    # a second thread draws the chunk's normals ahead while this one computes;
    # every value read is the generator's own, in the generator's order
    with _Prefetch(RngStream(seed, chunk_id).generator()) as rng:
        def gaussian_quantizer(h_hat, h_bar):
            return h_hat - (scale * rng.standard_normal((*shape, 2))).view(complex)[..., 0]

        # the Gaussian test channel; the cold-start period is excluded
        return _feedback_loop(cfg, t, (periods + 1) * t, t, gaussian_quantizer,
                              n_trials, rng)


@contextlib.contextmanager
def _pool_map(workers: int, n_jobs: int):
    """The map for n_jobs pure jobs: a pool's, of min(workers, n_jobs) forked
    processes joined on exit, or the builtin map for one worker or job.  Every
    pool is built here; no _Prefetch thread outlives its block to be forked."""
    if workers > 1 and n_jobs > 1:
        with ProcessPoolExecutor(max_workers=min(workers, n_jobs)) as pool:
            yield pool.map
    else:
        yield map


def ergodic_capacity(
    cfg: CapacityConfig,
    budget: FeedbackBudget,
    distortions,
    trials: int,
    seed: int | tuple,
    periods: int = 1,
    mode: str = "simulate",
    map=map,
) -> list[tuple[float, float]]:
    """Monte Carlo mean and standard error of the per-block capacity, one
    (mean, stderr) per entry of the sequence `distortions`.

    The Gaussian test channel forms feedback at each epoch from the current
    estimate (additive error of per-entry variance d), and the precoder is
    held for T = budget.t_blocks blocks over `periods` counted periods.
    `mode` stays only for perfbench's hook, which binds it: any value but
    "simulate" is refused.

    Every distortion sees the same channels, estimates and test-channel
    normals: a chunk draws them once, and only the error's scale sqrt(d / 2)
    differs, so each entry equals a call with that distortion alone.
    Deterministic for fixed (seed, trials) whatever `map` runs the chunks:
    trials are split into fixed-size chunks, each with its own substream.
    """
    ds = np.asarray(distortions, dtype=float)
    if ds.ndim != 1 or len(ds) == 0:
        raise ValueError(f"distortions must be a non-empty sequence, got {distortions!r}")
    if not np.all(np.isfinite(ds)) or np.any(ds < 0):
        raise ValueError(f"distortions must be finite and >= 0, got {ds.tolist()}")
    if trials < 2:  # a standard error needs at least two samples
        raise ValueError(f"trials must be >= 2, got {trials}")
    if periods < 1:
        raise ValueError(f"periods must be >= 1, got {periods}")
    if mode != "simulate":
        raise ValueError(f"unknown mode {mode!r}; only 'simulate' is accepted")
    chunks = [(cfg, budget, ds, min(CHUNK_TRIALS, trials - start), seed, cid, periods)
              for cid, start in enumerate(range(0, trials, CHUNK_TRIALS))]
    out = []
    for per_trial in np.concatenate(list(map(_simulate_chunk, chunks)), axis=1):
        mean = float(math.fsum(per_trial) / trials)
        var = math.fsum((per_trial - mean) ** 2) / (trials - 1)
        out.append((mean, math.sqrt(var / trials)))
    return out
