"""Closed-form rate-distortion results for differential CSI feedback.

Everything here is analytic: the conditional mutual-information lower
bound, the minimum feedback rate it implies, its inversion to distortion
at a given rate, the causal (one-interval-delayed) effective distortion,
the distortion-versus-interval curve, its derivative in the dimensionless
variable x = 2 pi f_d tau, and the bracketed optimal-interval solver.
Each closed form maps floats or arrays alike (mathcore._float_or_array).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channel import ChannelParams, autocorrelation
from .mathcore import _float_or_array, bessel_j0, bessel_j1

__all__ = [
    "FeedbackBudget",
    "IntervalOptimum",
    "SolverError",
    "RateDistortionError",
    "mi_lower_bound",
    "min_feedback_rate",
    "distortion_from_rate",
    "causal_distortion",
    "distortion_vs_interval",
    "distortion_derivative",
    "optimal_interval",
    "x_to_interval",
    "exponent_constant",
]

LN2 = math.log(2.0)


class SolverError(ArithmeticError):
    """Raised when the interval solver cannot bracket a root."""


class RateDistortionError(ArithmeticError):
    """Raised when no distortion corresponds to the requested rate."""


@dataclass(frozen=True)
class FeedbackBudget:
    """Feedback channel budget: capacity per block, bits per event, interval."""

    c_fb: float
    r_bits: float
    t_blocks: int

    def __post_init__(self):
        if self.c_fb <= 0:
            raise ValueError("c_fb must be > 0")
        if self.r_bits < 0:
            raise ValueError("r_bits must be >= 0")
        if self.t_blocks < 1:
            raise ValueError(f"t_blocks must be >= 1, got {self.t_blocks}")

    @classmethod
    def from_rate(cls, r_bits: float, c_fb: float) -> "FeedbackBudget":
        """Shortest interval of at least one block with R / T <= C_fb."""
        if c_fb <= 0:
            raise ValueError(f"c_fb must be > 0, got {c_fb}")
        return cls(c_fb=c_fb, r_bits=r_bits, t_blocks=max(1, math.ceil(r_bits / c_fb)))


@dataclass(frozen=True)
class IntervalOptimum:
    """Output of the optimal-interval solver."""

    x_opt: float            # dimensionless 2 pi f_d tau at the optimum
    t_opt_real: float       # continuous optimal interval in blocks
    t_opt_int: int          # best neighboring integer interval
    d_min: float            # distortion at the continuous optimum
    k: float                # exponent constant C_fb / (2 pi N_r N_t f_d t_block)


@_float_or_array
def mi_lower_bound(params: ChannelParams, alpha, d):
    """Conditional mutual-information lower bound in bits per complex dim.

    log2[ a^2 r^2 + (1 - a^2) sigma_h2 / d
          + (sigma_hhat2 - sigma_h2)(1 + a^2 r) / d ],  r = sigma_h2/sigma_hhat2,
    taken as log2(d a^2 r^2 + ...) - log2(d) so that a tiny d cannot overflow.
    May be negative; min_feedback_rate clamps at zero.
    """
    if (bad := d <= 0).any():
        raise ValueError(f"d must be > 0, got {d[bad][0]}")
    if (bad := np.abs(alpha) > 1).any():
        raise ValueError(f"|alpha| must be <= 1, got {alpha[bad][0]}")
    r = params.ratio
    a2 = alpha * alpha
    num = a2 * r * r * d + (1.0 - a2) * params.sigma_h2 + params.sigma_e2 * (1.0 + a2 * r)
    return np.log2(num) - np.log2(d)


@_float_or_array
def min_feedback_rate(params: ChannelParams, alpha, d):
    """Minimum differential feedback rate in bits: N_r N_t max(MI, 0)."""
    return params.n_r * params.n_t * np.maximum(mi_lower_bound(params, alpha, d), 0.0)


@_float_or_array
def distortion_from_rate(params: ChannelParams, alpha, r_bits):
    """Invert the minimum-rate expression: distortion achievable with R bits."""
    if (bad := r_bits < 0).any():
        raise ValueError(f"r_bits must be >= 0, got {r_bits[bad][0]}")
    r = params.ratio
    a2r2 = alpha * alpha * r * r
    with np.errstate(over="ignore"):  # g = inf gives d = 0; the true d is below any double
        g = 2.0 ** (r_bits / (params.n_r * params.n_t))
    denom = g - a2r2
    if (bad := ~(denom > 0)).any():
        # only R = 0 with |alpha| r = 1 (a perfectly estimated, fully
        # correlated channel) gets here: 0 bits pin down no distortion
        raise RateDistortionError(
            f"distortion undefined at R={r_bits[bad][0]}, alpha={alpha[bad][0]}, r={r}")
    return params.sigma_hhat2 * (1.0 - a2r2) / denom


@_float_or_array
def causal_distortion(params: ChannelParams, alpha, r_bits):
    """Effective distortion after one interval of aging (causal feedback).

    The quantized channel from the previous epoch predicts the current
    estimate; this is the residual variance of that prediction.
    """
    r = params.ratio
    a2 = alpha * alpha
    d_q = distortion_from_rate(params, alpha, r_bits)
    return (
        a2 * r * r * d_q
        + a2 * params.sigma_h2 * params.sigma_e2 / params.sigma_hhat2
        + (1.0 - a2) * params.sigma_h2
        + params.sigma_e2
    )


@_float_or_array
def distortion_vs_interval(params: ChannelParams, c_fb, t):
    """Distortion as a function of the feedback interval T (blocks).

    (sigma_h^4/sigma_hhat2) (1 - g) a(T)^2 / (g - r^2 a(T)^2) + sigma_hhat2
    with g = 2^(C_fb T / (N_r N_t)) and a(T) the block-lag-T correlation.
    """
    if (bad := t <= 0).any():
        raise ValueError(f"t must be > 0, got {t[bad][0]}")
    if (bad := c_fb <= 0).any():
        raise ValueError(f"c_fb must be > 0, got {c_fb[bad][0]}")
    r = params.ratio
    a = autocorrelation(params, t)
    a2 = a * a
    # evaluate via 2^-e so arbitrarily large intervals do not overflow
    with np.errstate(over="ignore"):  # C_fb T = inf gives 2^-inf = 0, its limit
        g_inv = 2.0 ** (-c_fb * t / (params.n_r * params.n_t))
    return (params.sigma_h2 ** 2 / params.sigma_hhat2) * (g_inv - 1.0) * a2 \
        / (1.0 - r * r * a2 * g_inv) + params.sigma_hhat2


def exponent_constant(params: ChannelParams, c_fb: float) -> float:
    """k = C_fb / (2 pi N_r N_t f_d t_block)."""
    with np.errstate(over="ignore"):  # an inf k is counted by the solver's finiteness check
        return c_fb / (2.0 * math.pi * params.n_r * params.n_t * params.f_d * params.t_block)


def x_to_interval(params: ChannelParams, x: float) -> float:
    """Map the dimensionless argument x = 2 pi f_d tau to blocks."""
    return x / (2.0 * math.pi * params.f_d * params.t_block)


@_float_or_array
def distortion_derivative(params: ChannelParams, c_fb, x):
    """d/dx of the distortion curve in the dimensionless variable x.

    Closed form in terms of J0, J1 and k; shares the sign structure used
    by the bracketed solver (negative near 0, positive at 3/2 for the
    parameter regimes of interest).
    """
    if (bad := x <= 0).any():
        raise ValueError(f"x must be > 0, got {x[bad][0]}")
    r = params.ratio
    k = exponent_constant(params, c_fb)
    j0 = bessel_j0(x)
    j1 = bessel_j1(x)
    # numerator and denominator over g^2, g = 2^(k x), so a large k cannot overflow
    g_inv = 2.0 ** (-k * x)
    c = params.sigma_h2 ** 2 / params.sigma_hhat2
    numer = c * (2.0 * (1.0 - g_inv) * j1 - k * LN2 * g_inv * (j0 - r * r * j0 ** 3)) * j0
    denom = (1.0 - r * r * j0 * j0 * g_inv) ** 2
    return numer / denom


def optimal_interval(params: ChannelParams, c_fb: float) -> IntervalOptimum:
    """Locate the distortion-minimizing feedback interval.

    Brackets the first sign change of the derivative on (0, 3/2) in x and
    bisects it to |dx| < 1e-10, then reports both the continuous optimum
    and the better of its two neighboring integer intervals.
    """
    if c_fb <= 0:
        raise ValueError("c_fb must be > 0")
    k = exponent_constant(params, c_fb)

    grid = np.linspace(1e-8, 1.5, 4097)
    with np.errstate(invalid="ignore"):  # 0/0 where 2^(-kx) and J0 round to 1 at r = 1
        vals = distortion_derivative(params, c_fb, grid)
    rising = np.flatnonzero((vals[:-1] < 0.0) & (vals[1:] >= 0.0))  # a NaN brackets nothing
    if rising.size == 0:
        raise SolverError(
            "no sign change of the distortion derivative in (0, 1.5) "
            f"({np.count_nonzero(~np.isfinite(vals))} of {grid.size} grid points not finite); "
            f"params={params!r}, c_fb={c_fb}, k={k}"
        )

    # the derivative is negative at a throughout
    a, b = float(grid[rising[0]]), float(grid[rising[0] + 1])
    while b - a > 1e-10:
        mid = 0.5 * (a + b)
        if distortion_derivative(params, c_fb, mid) < 0:
            a = mid
        else:
            b = mid
    x_opt = 0.5 * (a + b)

    t_opt_real = x_to_interval(params, x_opt)
    d_min = distortion_vs_interval(params, c_fb, t_opt_real)

    candidates = np.unique([max(1, math.floor(t_opt_real)), max(1, math.ceil(t_opt_real))])
    t_opt_int = int(candidates[np.argmin(distortion_vs_interval(params, c_fb, candidates))])

    return IntervalOptimum(x_opt=x_opt, t_opt_real=t_opt_real, t_opt_int=t_opt_int,
                           d_min=d_min, k=k)
