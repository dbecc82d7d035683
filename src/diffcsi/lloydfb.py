"""Lloyd-quantized differential feedback protocol.

Codebooks live over full differential channel matrices; quantization is
nearest codeword in Frobenius distance; a feedback session alternates the
four protocol steps (difference, quantize, send index, accumulate) with
both sides reconstructing the identical quantized channel.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field

import numpy as np

from .capacity import CapacityConfig, _capacity_batch, _held_precoder
from .channel import ChannelParams, autocorrelation
from .mathcore import RngStream, check_finite, sample_cn
from .ratedist import FeedbackBudget, distortion_from_rate

__all__ = [
    "Codebook",
    "SessionTrace",
    "train_codebook",
    "quantize",
    "run_feedback_session",
    "open_loop_training_samples",
    "bootstrap_codebook",
    "save_codebook",
    "load_codebook",
]

MAX_RATE_BITS = 16  # exhaustive codeword search is 2^R per sample

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


@dataclass
class BlockRecord:
    block: int
    h: np.ndarray
    h_hat: np.ndarray
    h_bar: np.ndarray
    fed_back_index: int | None
    sq_error: float          # per-entry |H_hat - H_bar|^2 / (N_r N_t)
    capacity: float


@dataclass
class SessionTrace:
    params: ChannelParams
    t_blocks: int
    records: list[BlockRecord] = field(default_factory=list)

    def epoch_records(self, discard: int = 0):
        """Feedback-epoch records, optionally discarding warm-up epochs."""
        epochs = [r for r in self.records if r.fed_back_index is not None]
        return epochs[discard:]

    def mean_epoch_distortion(self, discard: int = 5) -> float:
        epochs = self.epoch_records(discard)
        if not epochs:
            raise ValueError("no epochs left after discard")
        return float(np.mean([r.sq_error for r in epochs]))

    def mean_capacity(self, discard_blocks: int = 0) -> float:
        caps = [r.capacity for r in self.records[discard_blocks:]]
        return float(np.mean(caps))


def _flatten(mats: np.ndarray) -> np.ndarray:
    return mats.reshape(len(mats), -1)


def _nearest(flat_samples: np.ndarray, flat_entries: np.ndarray) -> np.ndarray:
    """Index of the nearest codeword (squared Frobenius, lowest index wins)."""
    # |s - c|^2 = |s|^2 - 2 Re<s, c> + |c|^2; |s|^2 is constant per sample
    cross = flat_samples @ flat_entries.conj().T
    d2 = np.sum(np.abs(flat_entries) ** 2, axis=1)[None, :] - 2.0 * cross.real
    return np.argmin(d2, axis=1)


def quantize(h_d: np.ndarray, cb: Codebook):
    """Nearest-codeword quantization of one differential matrix."""
    h_d = check_finite(np.asarray(h_d), "h_d")
    if h_d.shape != cb.entries.shape[1:]:
        raise ValueError(f"shape mismatch: {h_d.shape} vs {cb.entries.shape[1:]}")
    idx = int(_nearest(h_d.reshape(1, -1), _flatten(cb.entries))[0])
    return idx, cb.entries[idx]


def train_codebook(
    samples: np.ndarray,
    rate_bits: int,
    max_iters: int = 200,
    rel_tol: float = 1e-4,
    seed: int = 0,
) -> Codebook:
    """Lloyd training of a 2^R-entry codebook over differential matrices.

    Alternates nearest-neighbor partition and centroid update; stops when
    the relative distortion improvement drops below rel_tol.  Empty cells
    are repaired by splitting the centroid of the highest-distortion cell.
    """
    if rate_bits < 1:
        raise ValueError("rate_bits must be >= 1")
    if rate_bits > MAX_RATE_BITS:
        raise ValueError(f"rate_bits > {MAX_RATE_BITS} refused (search cost 2^R)")
    samples = np.asarray(samples, dtype=complex)
    n_entries = 2 ** rate_bits
    if len(samples) < n_entries:
        raise ValueError(f"training set ({len(samples)}) smaller than codebook ({n_entries})")

    n_r, n_t = samples.shape[1], samples.shape[2]
    flat = _flatten(samples)
    dim = flat.shape[1]
    rng = RngStream(seed, 0).generator()

    # init from distinct random training samples
    init_idx = rng.choice(len(samples), size=n_entries, replace=False)
    centers = flat[init_idx].copy()

    history = []
    prev = math.inf
    for it in range(max_iters):
        labels = _nearest(flat, centers)
        err = flat - centers[labels]
        dist = float(np.mean(np.abs(err) ** 2) * dim)  # per-sample squared error
        history.append(dist)
        if dist > prev * (1.0 + 1e-12):
            raise RuntimeError(
                f"Lloyd distortion increased at iteration {it}: {prev} -> {dist}")
        improved = prev - dist
        counts = np.bincount(labels, minlength=n_entries)
        cell_dist = np.zeros(n_entries)
        np.add.at(cell_dist, labels, np.sum(np.abs(err) ** 2, axis=1))
        # centroid update
        sums = np.zeros_like(centers)
        np.add.at(sums, labels, flat)
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
        if math.isfinite(prev) and improved < rel_tol * max(dist, 1e-300):
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
    E ~ CN(0, d(alpha(T), R)); cheaper than closed-loop bootstrapping.
    """
    rng = stream.generator()
    t = max(1, budget.t_blocks)
    alpha = autocorrelation(params, t)
    d = distortion_from_rate(params, alpha, budget.r_bits)
    shape = (n_samples, params.n_r, params.n_t)
    h_prev = sample_cn(shape, params.sigma_h2, rng)
    h_hat_prev = h_prev + sample_cn(shape, params.sigma_e2, rng)
    h_bar_prev = h_hat_prev - sample_cn(shape, d, rng)
    h_next = alpha * h_prev + math.sqrt(1.0 - alpha * alpha) * sample_cn(shape, params.sigma_h2, rng)
    h_hat_next = h_next + sample_cn(shape, params.sigma_e2, rng)
    return h_hat_next - h_bar_prev


def run_feedback_session(
    cfg: CapacityConfig,
    budget: FeedbackBudget,
    cb: Codebook,
    n_blocks: int,
    seed: int,
) -> SessionTrace:
    """Run the four-step differential feedback protocol for n_blocks.

    Epochs occur at block indices divisible by T.  The transmitter-side
    reconstruction H_bar_n = H_bar_{n-1} + C_d is exact (lossless index
    channel), so receiver and transmitter always share the same H_bar.
    The first reference is H_bar_0 = 0.
    """
    p = cfg.params
    t = budget.t_blocks
    if t < 1:
        raise ValueError("budget.t_blocks must be >= 1")
    if cb.rate_bits > budget.c_fb * t + 1e-12:
        raise ValueError(
            f"budget violation: R={cb.rate_bits} > C_fb*T={budget.c_fb * t}"
        )
    if n_blocks < t:
        raise ValueError("n_blocks must be >= t_blocks")

    rng = RngStream(seed, 0).generator()
    alpha1 = autocorrelation(p, 1.0)
    beta = math.sqrt(1.0 - alpha1 * alpha1)
    shape = (p.n_r, p.n_t)

    trace = SessionTrace(params=p, t_blocks=t)
    h = sample_cn(shape, p.sigma_h2, rng)
    h_bar = np.zeros(shape, dtype=complex)
    flat_entries = _flatten(cb.entries)
    prec = None
    for n in range(n_blocks):
        h_hat = h + sample_cn(shape, p.sigma_e2, rng)
        idx = None
        if n % t == 0:
            h_d = h_hat - h_bar                      # step 1: true difference
            idx = int(_nearest(h_d.reshape(1, -1), flat_entries)[0])  # step 2
            prev_bar = h_bar
            h_bar = h_bar + cb.entries[idx]          # steps 3-4: index sent, accumulate
            # causal application: the precoder for this period comes from
            # the previous epoch's reconstruction; cold start uses the
            # first reconstruction directly (H_bar_0 = 0 is unusable)
            prec = _held_precoder((h_bar if n == 0 else prev_bar)[None, :, :], cfg)
        cap = float(_capacity_batch(h_hat[None, :, :], prec, cfg)[0])
        sq_err = float(np.sum(np.abs(h_hat - h_bar) ** 2) / (p.n_r * p.n_t))
        trace.records.append(BlockRecord(
            block=n, h=h.copy(), h_hat=h_hat, h_bar=h_bar.copy(),
            fed_back_index=idx, sq_error=sq_err, capacity=cap,
        ))
        h = alpha1 * h + beta * sample_cn(shape, p.sigma_h2, rng)
    return trace


def bootstrap_codebook(
    cfg: CapacityConfig,
    budget: FeedbackBudget,
    n_samples: int,
    seed: int,
    rounds: int = 3,
    max_iters: int = 200,
    rel_tol: float = 1e-4,
) -> Codebook:
    """Closed-loop codebook training.

    Round 0 trains on open-loop samples; each further round regenerates
    differential samples by running sessions with the current codebook and
    retrains, since the statistics of H_d depend on the quantizer itself.
    """
    p = cfg.params
    t = max(1, budget.t_blocks)
    r_bits = int(round(budget.r_bits))
    samples = open_loop_training_samples(p, budget, n_samples, RngStream(seed, 1))
    cb = train_codebook(samples, r_bits, max_iters=max_iters, rel_tol=rel_tol, seed=seed)
    for rnd in range(1, rounds):
        epochs_per_session = 65
        collected = []
        s = 0
        while len(collected) < n_samples:
            trace = run_feedback_session(
                cfg, budget, cb, n_blocks=epochs_per_session * t,
                seed=(seed * 1000 + rnd) * 131 + s,
            )
            for rec in trace.records:
                # pre-quantization difference H_d; skip the cold-start epoch
                if rec.fed_back_index is not None and rec.block > 0:
                    collected.append(rec.h_hat - (rec.h_bar - cb.entries[rec.fed_back_index]))
            s += 1
        cb = train_codebook(np.array(collected), r_bits, max_iters=max_iters,
                            rel_tol=rel_tol, seed=seed + rnd)
    cb.training_meta["interval"] = t
    return cb


def _params_hash(params: ChannelParams) -> str:
    blob = json.dumps([params.n_t, params.n_r, params.sigma_h2, params.sigma_hhat2,
                       params.f_d, params.t_block]).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


def save_codebook(path, cb: Codebook, params: ChannelParams, t_blocks: int) -> None:
    """Textual codebook format: one JSON header line, then one line per
    codeword with row-major 're im' pairs separated by spaces."""
    n, n_r, n_t = cb.entries.shape
    header = {
        "version": CODEBOOK_FORMAT_VERSION,
        "rate_bits": cb.rate_bits,
        "n_r": n_r,
        "n_t": n_t,
        "t_blocks": t_blocks,
        "params_hash": _params_hash(params),
    }
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(header, sort_keys=True) + "\n")
        for entry in cb.entries:
            flat = entry.reshape(-1)
            fh.write(" ".join(f"{z.real:.17g} {z.imag:.17g}" for z in flat) + "\n")


def load_codebook(path) -> tuple[Codebook, dict]:
    with open(path, encoding="utf-8") as fh:
        header = json.loads(fh.readline())
        if header.get("version") != CODEBOOK_FORMAT_VERSION:
            raise ValueError(f"unsupported codebook version: {header.get('version')}")
        n_r, n_t = header["n_r"], header["n_t"]
        entries = []
        for line in fh:
            vals = [float(v) for v in line.split()]
            z = np.array(vals[0::2]) + 1j * np.array(vals[1::2])
            entries.append(z.reshape(n_r, n_t))
    cb = Codebook(rate_bits=header["rate_bits"], entries=np.array(entries),
                  training_meta={"loaded_from": str(path)})
    return cb, header
