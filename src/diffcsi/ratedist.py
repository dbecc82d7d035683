"""Closed-form rate-distortion results for differential CSI feedback.

Everything here is analytic: the conditional mutual-information lower
bound, the minimum feedback rate it implies, its inversion to distortion
at a given rate, the causal (one-interval-delayed) effective distortion,
the distortion-versus-interval curve, its derivative in the dimensionless
variable x = 2 pi f_d tau, the bracketed optimal-interval solver, and a
covariance-based Gaussian mutual-information oracle used to cross-check
the bound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channel import ChannelParams, autocorrelation
from .mathcore import bessel_j0, bessel_j1

__all__ = [
    "FeedbackBudget",
    "DistortionPoint",
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
    "gaussian_mi_oracle",
    "x_to_interval",
    "interval_to_x",
    "exponent_constant",
]

LN2 = math.log(2.0)


class SolverError(RuntimeError):
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
        if self.t_blocks < 0:
            raise ValueError("t_blocks must be >= 0")

    @classmethod
    def from_rate(cls, r_bits: float, c_fb: float) -> "FeedbackBudget":
        """Interval from the budget inequality R / T <= C_fb (ceiling)."""
        return cls(c_fb=c_fb, r_bits=r_bits, t_blocks=math.ceil(r_bits / c_fb))


@dataclass(frozen=True)
class DistortionPoint:
    """Per-entry distortion d and the total D = d * N_r * N_t."""

    d: float
    big_d: float

    @classmethod
    def per_entry(cls, d: float, params: ChannelParams) -> "DistortionPoint":
        if d < 0:
            raise ValueError("d must be >= 0")
        return cls(d=d, big_d=d * params.n_r * params.n_t)


@dataclass(frozen=True)
class IntervalOptimum:
    """Output of the optimal-interval solver."""

    x_opt: float            # dimensionless 2 pi f_d tau at the optimum
    t_opt_real: float       # continuous optimal interval in blocks
    t_opt_int: int          # best neighboring integer interval
    d_min: float            # distortion at the continuous optimum
    k: float                # exponent constant C_fb / (2 pi N_r N_t f_d t_block)


def mi_lower_bound(params: ChannelParams, alpha: float, d: float) -> float:
    """Conditional mutual-information lower bound in bits per complex dim.

    log2[ a^2 r^2 + (1 - a^2) sigma_h2 / d
          + (sigma_hhat2 - sigma_h2)(1 + a^2 r) / d ],  r = sigma_h2/sigma_hhat2.
    May be negative; min_feedback_rate clamps at zero.
    """
    if d <= 0:
        raise ValueError(f"d must be > 0, got {d}")
    if abs(alpha) > 1:
        raise ValueError(f"|alpha| must be <= 1, got {alpha}")
    r = params.ratio
    a2 = alpha * alpha
    arg = a2 * r * r + (1.0 - a2) * params.sigma_h2 / d \
        + params.sigma_e2 * (1.0 + a2 * r) / d
    return math.log2(arg)


def min_feedback_rate(params: ChannelParams, alpha: float, d: float) -> float:
    """Minimum differential feedback rate in bits: N_r N_t max(MI, 0)."""
    return params.n_r * params.n_t * max(mi_lower_bound(params, alpha, d), 0.0)


def distortion_from_rate(params: ChannelParams, alpha: float, r_bits: float) -> float:
    """Invert the minimum-rate expression: distortion achievable with R bits."""
    if r_bits < 0:
        raise ValueError(f"r_bits must be >= 0, got {r_bits}")
    r = params.ratio
    a2r2 = alpha * alpha * r * r
    g = 2.0 ** (r_bits / (params.n_r * params.n_t))
    denom = g - a2r2
    if not denom > 0:
        # only R = 0 with |alpha| r = 1 (a perfectly estimated, fully
        # correlated channel) gets here: 0 bits pin down no distortion
        raise RateDistortionError(
            f"distortion undefined at R={r_bits}, alpha={alpha}, r={r}")
    return params.sigma_hhat2 * (1.0 - a2r2) / denom


def causal_distortion(params: ChannelParams, alpha: float, r_bits: float) -> float:
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


def distortion_vs_interval(params: ChannelParams, c_fb: float, t: float) -> float:
    """Distortion as a function of the feedback interval T (blocks).

    (sigma_h^4/sigma_hhat2) (1 - g) a(T)^2 / (g - r^2 a(T)^2) + sigma_hhat2
    with g = 2^(C_fb T / (N_r N_t)) and a(T) the block-lag-T correlation.
    """
    if t <= 0:
        raise ValueError(f"t must be > 0, got {t}")
    if c_fb <= 0:
        raise ValueError(f"c_fb must be > 0, got {c_fb}")
    r = params.ratio
    a = autocorrelation(params, t)
    a2 = a * a
    # evaluate via 2^-e so arbitrarily large intervals do not overflow
    g_inv = 2.0 ** (-c_fb * t / (params.n_r * params.n_t))
    return (params.sigma_h2 ** 2 / params.sigma_hhat2) * (g_inv - 1.0) * a2 \
        / (1.0 - r * r * a2 * g_inv) + params.sigma_hhat2


def exponent_constant(params: ChannelParams, c_fb: float) -> float:
    """k = C_fb / (2 pi N_r N_t f_d t_block)."""
    return c_fb / (2.0 * math.pi * params.n_r * params.n_t * params.f_d * params.t_block)


def x_to_interval(params: ChannelParams, x: float) -> float:
    """Map the dimensionless argument x = 2 pi f_d tau to blocks."""
    return x / (2.0 * math.pi * params.f_d * params.t_block)


def interval_to_x(params: ChannelParams, t: float) -> float:
    return 2.0 * math.pi * params.f_d * params.t_block * t


def distortion_derivative(params: ChannelParams, c_fb: float, x: float) -> float:
    """d/dx of the distortion curve in the dimensionless variable x.

    Closed form in terms of J0, J1 and k; shares the sign structure used
    by the bracketed solver (negative near 0, positive at 3/2 for the
    parameter regimes of interest).
    """
    if x <= 0:
        raise ValueError(f"x must be > 0, got {x}")
    r = params.ratio
    k = exponent_constant(params, c_fb)
    j0 = bessel_j0(x)
    j1 = bessel_j1(x)
    g = 2.0 ** (k * x)
    c = params.sigma_h2 ** 2 / params.sigma_hhat2
    numer = g * c * (2.0 * (g - 1.0) * j1 - k * LN2 * (j0 - r * r * j0 ** 3)) * j0
    denom = (g - r * r * j0 * j0) ** 2
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

    lo, hi = 1e-8, 1.5
    grid = np.linspace(lo, hi, 4097)
    vals = [distortion_derivative(params, c_fb, float(x)) for x in grid]
    bracket = None
    for i in range(len(grid) - 1):
        if vals[i] < 0.0 <= vals[i + 1]:
            bracket = (float(grid[i]), float(grid[i + 1]))
            break
    if bracket is None:
        raise SolverError(
            "no sign change of the distortion derivative in (0, 1.5); "
            f"params={params!r}, c_fb={c_fb}, k={k}"
        )

    a, b = bracket
    fa = distortion_derivative(params, c_fb, a)
    while b - a > 1e-10:
        mid = 0.5 * (a + b)
        fm = distortion_derivative(params, c_fb, mid)
        if (fa < 0) == (fm < 0):
            a, fa = mid, fm
        else:
            b = mid
    x_opt = 0.5 * (a + b)

    t_opt_real = x_to_interval(params, x_opt)
    d_min = distortion_vs_interval(params, c_fb, t_opt_real)

    t_lo = max(1, math.floor(t_opt_real))
    t_hi = max(1, math.ceil(t_opt_real))
    candidates = sorted({t_lo, t_hi})
    t_opt_int = min(candidates, key=lambda t: distortion_vs_interval(params, c_fb, t))

    return IntervalOptimum(x_opt=x_opt, t_opt_real=t_opt_real, t_opt_int=t_opt_int,
                           d_min=d_min, k=k)


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
