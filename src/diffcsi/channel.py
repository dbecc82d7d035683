"""Time-correlated MIMO Rayleigh block-fading channel with ML estimation.

The fading process is a first-order autoregression across blocks, with
the correlation coefficient tied to the Doppler spread through J0.  The
estimated channel is the true channel plus an independent complex
Gaussian error.  ChannelParams carries the regression split of the true
channel into a scaled estimate plus an independent residual (ratio,
psi_variance).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .mathcore import _float_or_array, bessel_j0, sample_cn

__all__ = [
    "ChannelParams",
    "autocorrelation",
    "advance",
    "estimate",
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


@_float_or_array
def autocorrelation(params: ChannelParams, lag_blocks):
    """Block-lag correlation alpha = J0(2 pi f_d * lag * t_block) of each lag.

    May be negative for large lags; downstream formulas consume alpha^2.
    """
    if (bad := lag_blocks < 0).any():
        raise ValueError(f"lag must be >= 0, got {lag_blocks[bad][0]}")
    return bessel_j0(2.0 * math.pi * params.f_d * lag_blocks * params.t_block)


def advance(
    h_prev: np.ndarray, alpha: float, params: ChannelParams, rng: np.random.Generator,
) -> np.ndarray:
    """One AR(1) step: alpha * H_prev + sqrt(1 - alpha^2) * W.

    W is a fresh i.i.d. CN(0, sigma_h2) draw, so the stationary per-entry
    variance sigma_h2 is preserved.  This is the only place the fading
    process steps forward; any leading batch axes evolve independently.
    alpha may be a k-step coefficient alpha_1^k: k steps of the chain
    equal one step with alpha_1^k in law, so one call jumps k blocks.
    """
    if abs(alpha) > 1:
        raise ValueError(f"|alpha| must be <= 1, got {alpha}")
    h_prev = np.asarray(h_prev)
    w = sample_cn(h_prev.shape, params.sigma_h2, rng)
    w *= math.sqrt(1.0 - alpha * alpha)  # in place on the fresh draw: the same bits
    w += alpha * h_prev
    return w


def estimate(h: np.ndarray, params: ChannelParams, rng: np.random.Generator) -> np.ndarray:
    """ML channel estimate: H plus independent CN(0, sigma_e2) error.

    A perfect estimator (sigma_e2 = 0) draws nothing and returns H.
    """
    h = np.asarray(h)
    e = sample_cn(h.shape, params.sigma_e2, rng)
    e += h  # in place on the fresh draw: the same sum
    return e
