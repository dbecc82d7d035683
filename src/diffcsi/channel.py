"""Time-correlated MIMO Rayleigh block-fading channel with ML estimation.

The fading process is a first-order autoregression across blocks, with
the correlation coefficient tied to the Doppler spread through J0.  The
estimated channel is the true channel plus an independent complex
Gaussian error, and the regression decomposition splits the true channel
into a scaled estimate plus an independent residual.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .mathcore import RngStream, bessel_j0, check_finite, sample_cn

__all__ = [
    "ChannelParams",
    "ChannelTrajectory",
    "autocorrelation",
    "advance",
    "estimate",
    "regression_decompose",
    "generate_trajectory",
    "pilot_error_variance",
]


@dataclass(frozen=True)
class ChannelParams:
    """Physical and statistical channel parameters.

    sigma_hhat2 >= sigma_h2: the estimation error variance is
    sigma_hhat2 - sigma_h2.
    """

    n_t: int
    n_r: int
    sigma_h2: float
    sigma_hhat2: float
    f_d: float
    t_block: float

    def __post_init__(self):
        if self.n_t < 1 or self.n_r < 1:
            raise ValueError("antenna counts must be >= 1")
        for name in ("sigma_h2", "sigma_hhat2", "f_d", "t_block"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if self.sigma_h2 <= 0:
            raise ValueError("sigma_h2 must be > 0")
        if self.sigma_hhat2 < self.sigma_h2:
            raise ValueError("sigma_hhat2 must be >= sigma_h2")
        if self.f_d <= 0 or self.t_block <= 0:
            raise ValueError("f_d and t_block must be > 0")

    @property
    def sigma_e2(self) -> float:
        """Estimation-error variance per entry."""
        return self.sigma_hhat2 - self.sigma_h2

    @property
    def ratio(self) -> float:
        """Variance ratio sigma_h2 / sigma_hhat2, the regression slope."""
        return self.sigma_h2 / self.sigma_hhat2

    @property
    def psi_variance(self) -> float:
        """Per-entry variance of the regression residual."""
        return self.sigma_h2 * self.sigma_e2 / self.sigma_hhat2


@dataclass
class ChannelTrajectory:
    params: ChannelParams
    blocks: list = field(default_factory=list)  # (H, H_hat) pairs


def autocorrelation(params: ChannelParams, lag_blocks: float) -> float:
    """Block-lag correlation alpha = J0(2 pi f_d * lag * t_block).

    May be negative for large lags; downstream formulas consume alpha^2.
    """
    if lag_blocks < 0:
        raise ValueError(f"lag must be >= 0, got {lag_blocks}")
    return bessel_j0(2.0 * math.pi * params.f_d * lag_blocks * params.t_block)


def advance(
    h_prev: np.ndarray,
    alpha: float,
    params: ChannelParams,
    stream: RngStream | np.random.Generator,
) -> np.ndarray:
    """One AR(1) step: alpha * H_prev + sqrt(1 - alpha^2) * W.

    W is a fresh i.i.d. CN(0, sigma_h2) draw, so the stationary per-entry
    variance sigma_h2 is preserved.
    """
    if abs(alpha) > 1:
        raise ValueError(f"|alpha| must be <= 1, got {alpha}")
    h_prev = np.asarray(h_prev)
    rng = stream.generator() if isinstance(stream, RngStream) else stream
    w = sample_cn(h_prev.shape, params.sigma_h2, rng)
    return alpha * h_prev + math.sqrt(1.0 - alpha * alpha) * w


def estimate(
    h: np.ndarray,
    params: ChannelParams,
    stream: RngStream | np.random.Generator,
) -> np.ndarray:
    """ML channel estimate: H plus independent CN(0, sigma_e2) error."""
    h = np.asarray(h)
    rng = stream.generator() if isinstance(stream, RngStream) else stream
    if params.sigma_e2 == 0.0:
        return h.copy()
    return h + sample_cn(h.shape, params.sigma_e2, rng)


def regression_decompose(h_hat: np.ndarray, params: ChannelParams):
    """Split H into the conditional mean given H_hat plus residual stats.

    Returns (mean_part, psi_variance): the conditional law of H given
    H_hat is CN(mean_part per entry, psi_variance), with
    mean_part = (sigma_h2/sigma_hhat2) * H_hat and
    psi_variance = sigma_h2 * sigma_e2 / sigma_hhat2.
    """
    h_hat = check_finite(np.asarray(h_hat), "h_hat")
    return params.ratio * h_hat, params.psi_variance


def generate_trajectory(
    params: ChannelParams,
    n_blocks: int,
    stream: RngStream | np.random.Generator,
    batch: int = 1,
):
    """Yield (H_n, H_hat_n) pairs for n_blocks AR(1) steps.

    The initial block is drawn from the stationary distribution, so no
    burn-in is needed.  With batch > 1 the arrays have a leading batch
    axis and all batch members evolve on the same generator (used by the
    vectorized Monte Carlo path).
    """
    rng = stream.generator() if isinstance(stream, RngStream) else stream
    alpha = autocorrelation(params, 1.0)
    shape = (batch, params.n_r, params.n_t) if batch > 1 else (params.n_r, params.n_t)
    h = sample_cn(shape, params.sigma_h2, rng)
    for _ in range(n_blocks):
        h_hat = h + sample_cn(shape, params.sigma_e2, rng) if params.sigma_e2 else h.copy()
        yield h, h_hat
        h = alpha * h + math.sqrt(1.0 - alpha * alpha) * sample_cn(shape, params.sigma_h2, rng)


def pilot_error_variance(
    params: ChannelParams, pilot_fraction: float, l_block: int, amplitude2: float,
    noise_variance: float = 1.0,
) -> float:
    """Map pilot settings to an estimation-error variance.

    Interpretation helper only (sigma_e2 = N_t * sigma_0^2 /
    (rho * L * A^2)); configs normally set sigma_hhat2 directly.
    """
    if not 0 < pilot_fraction < 1:
        raise ValueError("pilot_fraction must be in (0, 1)")
    return params.n_t * noise_variance / (pilot_fraction * l_block * amplitude2)
