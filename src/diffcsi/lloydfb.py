"""Lloyd-quantized differential feedback protocol.

Codebooks live over full differential channel matrices; quantization is
nearest codeword in Frobenius distance.  A feedback session runs the
causal loop of capacity.feedback_loop with the codebook as its quantizer:
at each epoch the four protocol steps (difference, quantize, send index,
accumulate) leave both sides with the identical quantized channel.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .capacity import CapacityConfig, feedback_loop
from .channel import ChannelParams, advance, autocorrelation, estimate
from .mathcore import RngStream, _Prefetch, check_finite, sample_cn
from .ratedist import FeedbackBudget, distortion_from_rate

__all__ = [
    "Codebook",
    "train_codebook",
    "quantize",
    "run_feedback_session",
    "open_loop_training_samples",
    "bootstrap_codebook",
]

MAX_RATE_BITS = 16  # exhaustive codeword search is 2^R per sample
NEAREST_GEMM = 1 << 18  # rows x codewords x real dim of one codeword-search GEMM
LLOYD_ITERATIONS = 200  # at most this many Lloyd iterations per training
LLOYD_MIN_GAIN = 1e-4  # stop once an iteration gains less than this share


@dataclass
class Codebook:
    """Ordered set of 2^R differential codeword matrices."""

    rate_bits: int
    entries: np.ndarray                  # (2^R, n_r, n_t) complex
    training_meta: dict = field(default_factory=dict)

    def __post_init__(self):
        self.entries = np.asarray(self.entries, dtype=complex)
        if len(self.entries) != 2 ** self.rate_bits:
            raise ValueError("codebook must hold exactly 2^R entries")
        check_finite(self.entries, "codebook entries")


def _flatten(mats: np.ndarray) -> np.ndarray:
    return mats.reshape(len(mats), -1)


def _block_rows(n_codewords: int, real_dim: int) -> int:
    """Rows per block of the codeword search: each block's GEMM stays within
    NEAREST_GEMM multiply-adds.  OpenBLAS ran GEMMs of that size on the
    calling thread; larger ones woke a second thread that mostly spun, the
    inner dimension being only 2 N_r N_t + 1."""
    return max(1, NEAREST_GEMM // (n_codewords * real_dim))


def _search_rows(flat: np.ndarray) -> np.ndarray:
    """Real search rows [re | im | 1] (N, 2 dim + 1) of flattened samples,
    stored column-major (see _nearest)."""
    dim = flat.shape[1]
    rows = np.empty((len(flat), 2 * dim + 1), order="F")
    rows[:, :dim] = flat.real
    rows[:, dim:-1] = flat.imag
    rows[:, -1] = 1.0
    return rows


def _nearest(rows: np.ndarray, flat_entries: np.ndarray) -> np.ndarray:
    """Index of the nearest codeword (squared Frobenius, lowest index wins)
    for each _search_rows row.

    Each codeword scores |c|^2 - 2 Re<s, c>, as |s|^2 is constant per sample:
    one real GEMM per block against the columns [-2 re; -2 im; |c|^2].  With
    column-major rows and a row-major column matrix, OpenBLAS sums each score
    over the inner index in order with FMA, so the trailing 1 * |c|^2 rounds
    as a separate `+= |c|^2` would, in a block of any size.  numpy would run
    a lone row as gemv, which sums in another order, so it goes in twice.
    """
    dim = flat_entries.shape[1]
    w = np.empty((2 * dim + 1, len(flat_entries)))
    w[:dim] = -2.0 * flat_entries.real.T
    w[dim:-1] = -2.0 * flat_entries.imag.T
    w[-1] = np.sum(np.abs(flat_entries) ** 2, axis=1)
    step = _block_rows(len(flat_entries), len(w))
    score = np.empty((max(2, min(step, len(rows))), len(flat_entries)))
    labels = np.empty(len(rows), dtype=np.intp)
    for i in range(0, len(rows), step):
        block = rows[i:i + step]
        m = len(block)
        if m == 1:
            block = np.asfortranarray(rows[[i, i]])
        s = np.matmul(block, w, out=score[:len(block)])
        s[:m].argmin(axis=1, out=labels[i:i + m])
    return labels


def quantize(h_d: np.ndarray, cb: Codebook):
    """Nearest-codeword quantization over any leading batch shape: returns
    (indices, codewords), or (int, matrix) for a single matrix."""
    h_d = check_finite(np.asarray(h_d), "h_d")
    if h_d.shape[-2:] != cb.entries.shape[1:]:
        raise ValueError(f"shape mismatch: {h_d.shape} vs {cb.entries.shape[1:]}")
    flat_entries = _flatten(cb.entries)
    rows = _search_rows(h_d.reshape(-1, flat_entries.shape[1]))
    idx = _nearest(rows, flat_entries).reshape(h_d.shape[:-2])
    return (int(idx) if idx.ndim == 0 else idx), cb.entries[idx]


def train_codebook(samples: np.ndarray, rate_bits: int, seed: int = 0) -> Codebook:
    """Lloyd training of a 2^R-entry codebook over differential matrices.

    Alternates nearest-neighbor partition and centroid update (stopping rule:
    LLOYD_ITERATIONS, LLOYD_MIN_GAIN).  Empty cells are repaired by splitting
    the centroid of the highest-distortion cell.  Training stops at the first
    iteration whose distortion is exactly 0.  A rise in distortion from one
    iteration to the next raises ArithmeticError.
    """
    if rate_bits < 1:
        raise ValueError("rate_bits must be >= 1")
    if rate_bits > MAX_RATE_BITS:
        raise ValueError(f"rate_bits > {MAX_RATE_BITS} refused (search cost 2^R)")
    samples = check_finite(np.asarray(samples, dtype=complex), "training samples")
    n_entries = 2 ** rate_bits
    if len(samples) < n_entries:
        raise ValueError(f"training set ({len(samples)}) smaller than codebook ({n_entries})")

    n_r, n_t = samples.shape[1], samples.shape[2]
    flat = _flatten(samples)
    rows = _search_rows(flat)
    dim = flat.shape[1]
    rng = RngStream(seed, 0).generator()

    # init from distinct random training samples
    init_idx = rng.choice(len(samples), size=n_entries, replace=False)
    centers = flat[init_idx].copy()

    # The error pass and the centroid sums read the contiguous columns of
    # `rows`, not the strided complex `flat`, with the same IEEE operations
    # in the same order: each |s_k - c_k|^2 is re*re + im*im, and each
    # coordinate is summed on its own, in sample order.
    err2 = np.empty((len(flat), dim))
    re, im = np.empty(len(flat)), np.empty(len(flat))
    sums = np.empty((n_entries, 2 * dim))  # columns re0, im0, re1, ... view as complex
    history = []
    prev = math.inf
    for it in range(LLOYD_ITERATIONS):
        labels = _nearest(rows, centers)
        c_re, c_im = centers.real.T.copy(), centers.imag.T.copy()
        for k in range(dim):  # labels are in range: "clip" skips take's buffered check
            np.subtract(rows[:, k], np.take(c_re[k], labels, out=re, mode="clip"), out=re)
            np.subtract(rows[:, dim + k], np.take(c_im[k], labels, out=im, mode="clip"), out=im)
            np.multiply(re, re, out=re)
            np.multiply(im, im, out=im)
            np.add(re, im, out=err2[:, k])
        dist = float(np.mean(err2) * dim)  # per-sample squared error
        history.append(dist)
        if dist > prev * (1.0 + 1e-12):
            raise ArithmeticError(
                f"Lloyd distortion increased at iteration {it}: {prev} -> {dist}")
        if dist == 0.0:  # every sample sits on a codeword; a repair would only add error
            break
        improved = prev - dist
        counts = np.bincount(labels, minlength=n_entries)
        for k in range(dim):
            sums[:, 2 * k] = np.bincount(labels, rows[:, k], n_entries)
            sums[:, 2 * k + 1] = np.bincount(labels, rows[:, dim + k], n_entries)
        nonempty = counts > 0
        centers[nonempty] = sums.view(complex)[nonempty] / counts[nonempty, None]
        # empty-cell repair: split the worst cell's centroid
        empty = np.flatnonzero(~nonempty)
        if len(empty):
            cell_dist = np.bincount(labels, np.sum(err2, axis=1), n_entries)
            for i in empty:
                worst = int(np.argmax(cell_dist))
                jitter = 1e-3 * math.sqrt(max(cell_dist[worst], 1e-30) / max(counts[worst], 1))
                centers[i] = centers[worst] + jitter * (
                    rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
                )
                cell_dist[worst] /= 2.0
        if math.isfinite(prev) and improved < LLOYD_MIN_GAIN * max(dist, 1e-300):
            break
        prev = dist

    entries = centers.reshape(n_entries, n_r, n_t)
    meta = {
        "training_size": int(len(samples)),
        "final_distortion": history[-1] / (n_r * n_t),
        "iterations": len(history),
        "distortion_history": [h / (n_r * n_t) for h in history],
        "seed": seed,
    }
    return Codebook(rate_bits=rate_bits, entries=entries, training_meta=meta)


def open_loop_training_samples(
    params: ChannelParams,
    budget: FeedbackBudget,
    n_samples: int,
    stream: RngStream,
) -> np.ndarray:
    """Differential samples assuming the rate-distortion quantization error.

    H_d = H_hat_n - H_bar_{n-1} with H_bar_{n-1} = H_hat_{n-1} - E,
    E ~ CN(0, d(alpha(T), R)).
    """
    rng = stream.generator()
    alpha = autocorrelation(params, budget.t_blocks)
    d = distortion_from_rate(params, alpha, budget.r_bits)
    shape = (n_samples, params.n_r, params.n_t)
    h_prev = sample_cn(shape, params.sigma_h2, rng)
    h_bar_prev = estimate(h_prev, params, rng) - sample_cn(shape, d, rng)
    return estimate(advance(h_prev, alpha, params, rng), params, rng) - h_bar_prev


def _codebook_quantizer(cb: Codebook):
    """The codebook as a feedback_loop quantizer: H_bar + C[nearest(H_hat - H_bar)]."""
    def quantize_step(h_hat, h_bar):
        h_d = h_hat - h_bar                                    # step 1
        # steps 2-4: nearest index, sent losslessly, accumulated on both sides
        return h_bar + quantize(h_d, cb)[1]

    return quantize_step


def _sessions(cfg: CapacityConfig, t: int, quantize_step, n_blocks: int, seeds) -> np.ndarray:
    """Feedback sessions, one per seed, as the rows of one batched loop."""
    p = cfg.params
    with _Prefetch(*(RngStream(s, 0).generator() for s in seeds)) as rng:
        h = sample_cn((len(seeds), p.n_r, p.n_t), p.sigma_h2, rng)
        return feedback_loop(cfg, t, n_blocks, 0, quantize_step, h, rng)


def run_feedback_session(
    cfg: CapacityConfig,
    budget: FeedbackBudget,
    cb: Codebook,
    n_blocks: int,
    seeds,
) -> np.ndarray:
    """Per-block capacities (n_blocks, len(seeds)) of the differential
    feedback protocol, one session per seed on RngStream(seed, 0).

    Epochs occur at block indices divisible by T.  The transmitter-side
    reconstruction H_bar_n = H_bar_{n-1} + C_d is exact (lossless index
    channel), so receiver and transmitter always share the same H_bar.
    The first reference is H_bar_0 = 0.
    """
    t = budget.t_blocks
    if cb.rate_bits > budget.c_fb * t + 1e-12:
        raise ValueError(f"budget violation: R={cb.rate_bits} > C_fb*T={budget.c_fb * t}")
    if n_blocks < t or not len(seeds):
        raise ValueError(f"need n_blocks >= t_blocks and a seed, got {n_blocks}, {len(seeds)} seeds")
    return _sessions(cfg, t, _codebook_quantizer(cb), n_blocks, seeds)


def bootstrap_codebook(
    cfg: CapacityConfig,
    budget: FeedbackBudget,
    n_samples: int,
    seed: int,
) -> Codebook:
    """Open-loop training: a codebook trained on n_samples open-loop
    differential samples drawn from RngStream(seed, 1)."""
    samples = open_loop_training_samples(cfg.params, budget, n_samples, RngStream(seed, 1))
    cb = train_codebook(samples, int(round(budget.r_bits)), seed=seed)
    cb.training_meta["interval"] = budget.t_blocks
    return cb
