"""Reference implementations that the tests check the package against.

No scenario calls these; each is an independent or scalar form of a
quantity the package computes in batched or closed form.
"""

import math
from dataclasses import dataclass

import numpy as np

from diffcsi.capacity import CapacityConfig, _capacity_batch, _held_precoder
from diffcsi.channel import ChannelParams
from diffcsi.lloydfb import LLOYD_ITERATIONS, LLOYD_MIN_GAIN
from diffcsi.mathcore import RngStream, check_finite


@dataclass(frozen=True)
class PowerAllocation:
    """Per-eigenmode power weights z_i^2 with water level mu."""

    z2: np.ndarray
    mu: float


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
            return PowerAllocation(z2=z2, mu=mu)
    raise RuntimeError("water-filling failed to find an active set")  # unreachable


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


def regression_decompose(h_hat: np.ndarray, params: ChannelParams):
    """Split H into the conditional mean given H_hat plus residual stats.

    Returns (mean_part, psi_variance): the conditional law of H given
    H_hat is CN(mean_part per entry, psi_variance), with
    mean_part = (sigma_h2/sigma_hhat2) * H_hat and
    psi_variance = sigma_h2 * sigma_e2 / sigma_hhat2.
    """
    h_hat = check_finite(np.asarray(h_hat), "h_hat")
    return params.ratio * h_hat, params.psi_variance


def gaussian_mi_oracle(params: ChannelParams, alpha: float, d: float) -> float:
    """Mutual information of the explicit Gaussian test channel, in bits.

    Builds the scalar jointly Gaussian model of the current estimate given
    the previous quantized value from its independent components, applies
    the backward test channel (quantized value = estimate minus an error
    of variance d uncorrelated with the quantized value), and evaluates
    I = log2( var(X) var(Y) / det Sigma ) from the 2x2 covariance.
    Independent of the closed-form bound by construction.
    """
    if d <= 0:
        raise ValueError(f"d must be > 0, got {d}")
    if d > params.sigma_hhat2:
        raise ValueError("d must be <= sigma_hhat2 (test channel needs Var >= 0)")
    r = params.ratio
    a2 = alpha * alpha
    # independent components of the current estimate given the previous
    # quantized value: previous quantization error, regression residual,
    # AR innovation, current estimation error
    component_vars = [
        a2 * r * r * d,
        a2 * params.psi_variance,
        (1.0 - a2) * params.sigma_h2,
        params.sigma_e2,
    ]
    v1 = math.fsum(component_vars)
    if v1 <= d:
        # boundary d = sigma_hhat2: quantizing to the conditional mean
        # already meets the constraint
        return 0.0
    var_x = v1                       # current estimate
    var_y = v1 - d                   # test-channel output
    cov_xy = v1 - d                  # error uncorrelated with output
    sigma = np.array([[var_x, cov_xy], [cov_xy, var_y]])
    det = np.linalg.det(sigma)
    return math.log2(var_x * var_y / det)


def lloyd_unblocked(samples: np.ndarray, rate_bits: int, seed: int = 0):
    """Lloyd training with every pass over the whole training set at once.

    The loop lloydfb.train_codebook runs, from the same RngStream(seed, 0):
    one GEMM scores all N samples against all codewords, and each
    iteration's error is one (N, dim) gather and difference.  Returns the
    (2^R, n_r, n_t) entries and the training_meta dict.
    """
    samples = np.asarray(samples, dtype=complex)
    n_entries, (n, n_r, n_t) = 2 ** rate_bits, samples.shape
    flat = samples.reshape(n, -1)
    dim = flat.shape[1]
    rng = RngStream(seed, 0).generator()
    centers = flat[rng.choice(n, size=n_entries, replace=False)].copy()
    s = np.concatenate([flat.real, flat.imag], axis=1)
    history = []
    prev = math.inf
    for _ in range(LLOYD_ITERATIONS):
        score = s @ (-2.0 * np.concatenate([centers.real, centers.imag], axis=1).T)
        score += np.sum(np.abs(centers) ** 2, axis=1)
        labels = score.argmin(axis=1)
        diff = flat - centers[labels]
        err2 = diff.real ** 2 + diff.imag ** 2
        dist = float(np.mean(err2) * dim)
        history.append(dist)
        if dist > prev * (1.0 + 1e-12):
            raise ArithmeticError("Lloyd distortion increased")
        improved = prev - dist
        counts = np.bincount(labels, minlength=n_entries)
        cell_dist = np.bincount(labels, np.sum(err2, axis=1), n_entries)
        sums = np.stack([np.bincount(labels, col, n_entries) for col in flat.view(float).T],
                        axis=1).view(complex)
        nonempty = counts > 0
        centers[nonempty] = sums[nonempty] / counts[nonempty, None]
        for i in np.flatnonzero(~nonempty):
            worst = int(np.argmax(cell_dist))
            jitter = 1e-3 * math.sqrt(max(cell_dist[worst], 1e-30) / max(counts[worst], 1))
            centers[i] = centers[worst] + jitter * (
                rng.standard_normal(dim) + 1j * rng.standard_normal(dim))
            cell_dist[worst] /= 2.0
        if math.isfinite(prev) and improved < LLOYD_MIN_GAIN * max(dist, 1e-300):
            break
        prev = dist
    meta = {
        "training_size": n,
        "final_distortion": history[-1] / (n_r * n_t),
        "iterations": len(history),
        "distortion_history": [h / (n_r * n_t) for h in history],
        "seed": seed,
    }
    return centers.reshape(n_entries, n_r, n_t), meta
