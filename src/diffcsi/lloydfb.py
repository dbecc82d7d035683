"""Lloyd-quantized differential feedback protocol.

Codebooks live over full differential channel matrices; quantization is
nearest codeword in Frobenius distance.  A feedback session runs the
causal loop of capacity.feedback_loop with the codebook as its quantizer:
at each epoch the four protocol steps (difference, quantize, send index,
accumulate) leave both sides with the identical quantized channel.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field

import numpy as np

from .capacity import CapacityConfig, feedback_loop
from .channel import ChannelParams, advance, autocorrelation, estimate
from .mathcore import RngStream, check_finite, sample_cn
from .ratedist import FeedbackBudget, distortion_from_rate

__all__ = [
    "Codebook",
    "train_codebook",
    "quantize",
    "run_feedback_session",
    "open_loop_training_samples",
    "bootstrap_codebook",
    "save_codebook",
    "load_codebook",
]

MAX_RATE_BITS = 16  # exhaustive codeword search is 2^R per sample
NEAREST_GEMM = 1 << 18  # rows x codewords x real dim of one codeword-search GEMM
_ERROR_ROWS = 4096  # rows per block of a Lloyd iteration's error pass
_REFILL = 1024  # normals drawn per generator refill of a batched session
LLOYD_ITERATIONS = 200  # at most this many Lloyd iterations per training
LLOYD_MIN_GAIN = 1e-4  # stop once an iteration gains less than this share

CODEBOOK_FORMAT_VERSION = 1


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


def _abs2(z: np.ndarray) -> np.ndarray:
    """|z|^2 entrywise, without the hypot that np.abs(z) ** 2 computes first."""
    return z.real ** 2 + z.imag ** 2


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
    the centroid of the highest-distortion cell.  A rise in distortion from
    one iteration to the next raises ArithmeticError.
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

    err2 = np.empty((len(flat), dim))
    history = []
    prev = math.inf
    for it in range(LLOYD_ITERATIONS):
        labels = _nearest(rows, centers)
        for i in range(0, len(flat), _ERROR_ROWS):  # no (N, dim) gather or difference
            j = i + _ERROR_ROWS
            err2[i:j] = _abs2(flat[i:j] - centers[labels[i:j]])
        dist = float(np.mean(err2) * dim)  # per-sample squared error
        history.append(dist)
        if dist > prev * (1.0 + 1e-12):
            raise ArithmeticError(
                f"Lloyd distortion increased at iteration {it}: {prev} -> {dist}")
        improved = prev - dist
        counts = np.bincount(labels, minlength=n_entries)
        cell_dist = np.bincount(labels, np.sum(err2, axis=1), n_entries)
        # centroid update, one weighted bincount per real coordinate
        sums = np.stack([np.bincount(labels, col, n_entries) for col in flat.view(float).T],
                        axis=1).view(complex)
        nonempty = counts > 0
        centers[nonempty] = sums[nonempty] / counts[nonempty, None]
        # empty-cell repair: split the worst cell's centroid
        for i in np.flatnonzero(~nonempty):
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


class _RowStreams:
    """One private generator RngStream(seed, 0) per batch row: standard_normal
    fills row i with generator i's next prod(shape[1:]) normals, which are
    the values a batch-of-one run draws, since a generator's normals do not
    depend on how its draws are split.  Rows refill _REFILL at a time."""

    def __init__(self, seeds):
        self._gens = [RngStream(s, 0).generator() for s in seeds]
        self._buf = np.empty((len(self._gens), 0))

    def standard_normal(self, shape) -> np.ndarray:
        k = math.prod(shape[1:])
        while self._buf.shape[1] < k:
            fresh = [g.standard_normal(_REFILL) for g in self._gens]
            self._buf = np.concatenate([self._buf, np.stack(fresh)], axis=1)
        out, self._buf = self._buf[:, :k], self._buf[:, k:]
        return out.reshape(shape)


def _sessions(cfg: CapacityConfig, t: int, quantize_step, n_blocks: int, seeds) -> np.ndarray:
    """Feedback sessions, one per seed, as the rows of one batched loop."""
    p = cfg.params
    rng = _RowStreams(seeds)
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
    if n_blocks < t:
        raise ValueError("n_blocks must be >= t_blocks")
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


def _params_hash(params: ChannelParams) -> str:
    blob = json.dumps([params.n_t, params.n_r, params.sigma_h2, params.sigma_hhat2,
                       params.f_d, params.t_block]).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


def save_codebook(path, cb: Codebook, params: ChannelParams, t_blocks: int) -> None:
    """Textual codebook format: one JSON header line, training metadata under
    "training_meta", then one line per codeword of row-major 're im' pairs."""
    n, n_r, n_t = cb.entries.shape
    header = {"version": CODEBOOK_FORMAT_VERSION, "rate_bits": cb.rate_bits, "n_r": n_r,
              "n_t": n_t, "t_blocks": t_blocks, "params_hash": _params_hash(params),
              "training_meta": cb.training_meta}
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(header, sort_keys=True) + "\n")
        for entry in cb.entries:
            fh.write(" ".join(f"{z.real:.17g} {z.imag:.17g}" for z in entry.reshape(-1)) + "\n")


def load_codebook(path, params: ChannelParams | None = None,
                  t_blocks: int | None = None) -> tuple[Codebook, dict]:
    """Read a save_codebook file.  Given params or t_blocks, a codebook trained
    for other channel parameters or another interval is refused."""
    with open(path, encoding="utf-8") as fh:
        header = json.loads(fh.readline())
        if header.get("version") != CODEBOOK_FORMAT_VERSION:
            raise ValueError(f"unsupported codebook version: {header.get('version')}")
        if params is not None and header.get("params_hash") != _params_hash(params):
            raise ValueError(f"{path}: codebook trained for other channel parameters "
                             f"(params_hash {header.get('params_hash')}, "
                             f"expected {_params_hash(params)})")
        if t_blocks is not None and header.get("t_blocks") != t_blocks:
            raise ValueError(f"{path}: codebook trained for interval "
                             f"{header.get('t_blocks')}, expected {t_blocks}")
        n_r, n_t = header["n_r"], header["n_t"]
        entries = []
        for lineno, line in enumerate(fh, 2):
            vals = [float(v) for v in line.split()]
            if len(vals) != 2 * n_r * n_t:
                raise ValueError(f"{path}:{lineno}: expected {2 * n_r * n_t} numbers "
                                 f"per codeword, got {len(vals)}")
            z = np.array(vals[0::2]) + 1j * np.array(vals[1::2])
            entries.append(z.reshape(n_r, n_t))
    cb = Codebook(rate_bits=header["rate_bits"], entries=np.array(entries),
                  training_meta={**header.get("training_meta", {}), "loaded_from": str(path)})
    return cb, header
