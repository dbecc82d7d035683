import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diffcsi.channel import ChannelParams, autocorrelation
from diffcsi.ratedist import (
    DistortionPoint,
    FeedbackBudget,
    RateDistortionError,
    causal_distortion,
    distortion_derivative,
    distortion_from_rate,
    distortion_vs_interval,
    exponent_constant,
    gaussian_mi_oracle,
    interval_to_x,
    mi_lower_bound,
    min_feedback_rate,
    optimal_interval,
    x_to_interval,
)

# grid-oracle output for the reference configuration (C_fb = 2); frozen
# from a 10^6-point scan of d(x) on (0, 1.5]
X_OPT_REFERENCE = 0.3292993461
D_MIN_REFERENCE = 0.4528159745


def make_params(sigma_h2=1.0, sigma_hhat2=1.2):
    return ChannelParams(n_t=2, n_r=2, sigma_h2=sigma_h2, sigma_hhat2=sigma_hhat2,
                         f_d=9.26, t_block=1e-3)


class TestMiLowerBound:
    def test_classical_gaussian_limit(self, params_perfect):
        assert mi_lower_bound(params_perfect, 0.0, 0.1) == pytest.approx(
            math.log2(10), abs=1e-12)

    def test_static_perfect_channel_is_zero(self, params_perfect):
        for d in (0.01, 0.1, 0.5):
            assert mi_lower_bound(params_perfect, 1.0, d) == pytest.approx(0.0, abs=1e-12)

    def test_memoryless_with_estimation_error(self, params):
        # alpha = 0 reduces to log2(sigma_hhat2 / d)
        assert mi_lower_bound(params, 0.0, 0.12) == pytest.approx(math.log2(10), abs=1e-12)

    def test_rejects_nonpositive_distortion(self, params):
        with pytest.raises(ValueError):
            mi_lower_bound(params, 0.5, 0.0)

    def test_strictly_decreasing_in_distortion(self, params):
        ds = np.linspace(0.01, 1.1, 20)
        vals = [mi_lower_bound(params, 0.6, float(d)) for d in ds]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_decreasing_in_alpha_when_no_estimation_error(self, params_perfect):
        alphas = np.linspace(0.0, 0.99, 20)
        vals = [mi_lower_bound(params_perfect, float(a), 0.1) for a in alphas]
        assert all(a > b for a, b in zip(vals, vals[1:]))


class TestMinFeedbackRate:
    def test_four_independent_sources(self, params_perfect):
        assert min_feedback_rate(params_perfect, 0.0, 0.1) == pytest.approx(
            4 * math.log2(10), abs=1e-9)

    def test_clamped_at_source_variance(self, params):
        assert min_feedback_rate(params, 0.0, params.sigma_hhat2) == 0.0

    def test_monotone_in_distortion(self, params):
        ds = np.linspace(0.02, 1.3, 20)
        rates = [min_feedback_rate(params, 0.7, float(d)) for d in ds]
        assert all(a >= b for a, b in zip(rates, rates[1:]))

    def test_never_negative(self, params):
        for d in np.linspace(0.05, 1.19, 30):
            for alpha in np.linspace(0, 1, 11):
                assert min_feedback_rate(params, float(alpha), float(d)) >= 0.0


class TestDistortionFromRate:
    def test_zero_rate_gives_source_variance(self, params):
        for alpha in (0.0, 0.5, 0.9):
            assert distortion_from_rate(params, alpha, 0.0) == pytest.approx(
                params.sigma_hhat2, abs=1e-12)

    def test_large_rate_drives_distortion_to_zero(self, params):
        d = distortion_from_rate(params, 0.9, 200.0)
        assert d < 1e-14 * params.sigma_hhat2

    def test_round_trip_with_rate(self, params):
        for r_bits in np.linspace(0.5, 40.0, 25):
            alpha = 0.8
            d = distortion_from_rate(params, alpha, float(r_bits))
            back = min_feedback_rate(params, alpha, d)
            assert back == pytest.approx(float(r_bits), rel=1e-9)

    def test_rejects_negative_rate(self, params):
        with pytest.raises(ValueError):
            distortion_from_rate(params, 0.5, -1.0)

    def test_undefined_point_is_arithmetic_error(self, params_perfect):
        # R = 0 with a perfectly estimated, fully correlated channel has a
        # zero denominator; the check holds under python -O as well
        with pytest.raises(RateDistortionError, match="undefined"):
            distortion_from_rate(params_perfect, 1.0, 0.0)
        assert issubclass(RateDistortionError, ArithmeticError)

    def test_undefined_point_under_optimize_flag(self, params_perfect):
        code = ("from diffcsi.channel import ChannelParams\n"
                "from diffcsi.ratedist import RateDistortionError, distortion_from_rate\n"
                "p = ChannelParams(2, 2, 1.0, 1.0, 9.26, 1e-3)\n"
                "try:\n"
                "    distortion_from_rate(p, 1.0, 0.0)\n"
                "except RateDistortionError:\n"
                "    raise SystemExit(0)\n"
                "raise SystemExit(1)\n")
        src = str(Path(__file__).resolve().parent.parent / "src")
        env = {**os.environ, "PYTHONPATH": src + os.pathsep + os.environ.get("PYTHONPATH", "")}
        assert subprocess.run([sys.executable, "-O", "-c", code], env=env).returncode == 0


class TestCausalDistortion:
    def test_fully_outdated_feedback(self, params):
        assert causal_distortion(params, 0.0, 10.0) == pytest.approx(
            params.sigma_hhat2, abs=1e-12)

    def test_infinite_rate_limit(self, params_perfect):
        # d -> sigma_hhat2 (1 - alpha^2 r^2); r = 1 here
        got = causal_distortion(params_perfect, 0.9, 200.0)
        assert got == pytest.approx(1 - 0.81, abs=1e-9)

    def test_equivalence_with_interval_form(self, params):
        for c_fb in (0.5, 1.0, 2.0, 4.0):
            for t in (1, 2, 5, 10, 31, 77):
                alpha = autocorrelation(params, t)
                lhs = causal_distortion(params, alpha, c_fb * t)
                rhs = distortion_vs_interval(params, c_fb, t)
                assert lhs == pytest.approx(rhs, rel=1e-10)


class TestCompactFormIdentity:
    @given(
        sigma_h2=st.floats(min_value=0.2, max_value=4.0),
        excess=st.floats(min_value=0.0, max_value=1.0),
        c_fb=st.floats(min_value=0.1, max_value=8.0),
        t=st.integers(min_value=1, max_value=200),
    )
    @settings(max_examples=200, deadline=None)
    def test_three_forms_agree(self, sigma_h2, excess, c_fb, t):
        p = make_params(sigma_h2, sigma_h2 * (1.0 + excess))
        alpha = autocorrelation(p, t)
        r = p.ratio
        g = 2.0 ** (c_fb * t / (p.n_r * p.n_t))
        compact = p.sigma_hhat2 * (1 - r * r * alpha * alpha) * g / (g - r * r * alpha * alpha)
        assert causal_distortion(p, alpha, c_fb * t) == pytest.approx(compact, rel=1e-10)
        assert distortion_vs_interval(p, c_fb, t) == pytest.approx(compact, rel=1e-10)


class TestDistortionVsInterval:
    def test_limit_at_zero_interval(self, params):
        assert distortion_vs_interval(params, 2.0, 1e-9) == pytest.approx(
            params.sigma_hhat2, abs=1e-6)

    def test_limit_at_large_interval(self, params):
        # pick t with alpha(t)^2 < 1e-12 near a Bessel zero far out
        from scipy.optimize import brentq
        grid = np.linspace(5000.0, 5020.0, 2001)
        vals = [autocorrelation(params, float(t)) for t in grid]
        i = next(i for i in range(len(vals) - 1) if vals[i] * vals[i + 1] < 0)
        t_zero = brentq(lambda t: autocorrelation(params, t),
                        float(grid[i]), float(grid[i + 1]), xtol=1e-12)
        assert autocorrelation(params, t_zero) ** 2 < 1e-12
        assert distortion_vs_interval(params, 2.0, t_zero) == pytest.approx(
            params.sigma_hhat2, abs=1e-6)

    def test_interior_below_source_variance(self, params):
        for t in (1, 3, 10, 30, 80):
            a2 = autocorrelation(params, t) ** 2
            assert 0 < a2 < 1
            assert distortion_vs_interval(params, 2.0, t) < params.sigma_hhat2

    def test_rejects_bad_arguments(self, params):
        with pytest.raises(ValueError):
            distortion_vs_interval(params, 2.0, 0.0)
        with pytest.raises(ValueError):
            distortion_vs_interval(params, 0.0, 1.0)


class TestDistortionDerivative:
    def test_negative_near_zero(self, params):
        for c_fb in (0.5, 1.0, 2.0, 4.0):
            assert distortion_derivative(params, c_fb, 1e-6) < 0

    def test_positive_at_three_halves(self, params):
        for c_fb in (0.5, 1.0, 2.0, 4.0):
            assert distortion_derivative(params, c_fb, 1.5) > 0

    def test_matches_finite_difference(self, params):
        h = 1e-6
        for x in np.linspace(0.05, 1.4, 28):
            t_hi = x_to_interval(params, float(x) + h)
            t_lo = x_to_interval(params, float(x) - h)
            fd = (distortion_vs_interval(params, 2.0, t_hi)
                  - distortion_vs_interval(params, 2.0, t_lo)) / (2 * h)
            an = distortion_derivative(params, 2.0, float(x))
            assert an == pytest.approx(fd, rel=1e-6)


class TestOptimalInterval:
    def test_reference_regression(self, params):
        opt = optimal_interval(params, 2.0)
        assert opt.x_opt == pytest.approx(X_OPT_REFERENCE, abs=2e-6)
        assert opt.d_min == pytest.approx(D_MIN_REFERENCE, abs=1e-9)
        assert opt.t_opt_int == 6

    def test_bracket_and_bound(self, params):
        for c_fb in (0.5, 1.0, 2.0, 4.0):
            opt = optimal_interval(params, c_fb)
            assert 0 < opt.x_opt < 1.5
            assert opt.d_min < params.sigma_hhat2
            assert opt.t_opt_int in (max(1, math.floor(opt.t_opt_real)),
                                     max(1, math.ceil(opt.t_opt_real)))
            assert abs(distortion_derivative(params, c_fb, opt.x_opt)) < 1e-8

    def test_local_minimum_curvature(self, params):
        opt = optimal_interval(params, 2.0)
        eps = 1e-4
        d0 = distortion_vs_interval(params, 2.0, x_to_interval(params, opt.x_opt))
        d_m = distortion_vs_interval(params, 2.0, x_to_interval(params, opt.x_opt - eps))
        d_p = distortion_vs_interval(params, 2.0, x_to_interval(params, opt.x_opt + eps))
        assert d_m + d_p - 2 * d0 > 0

    def test_grid_oracle_agreement(self, params):
        xs = np.linspace(0.0, 1.5, 10**5 + 1)[1:]
        for c_fb in (0.5, 2.0):
            vals = np.array([
                distortion_vs_interval(params, c_fb, x_to_interval(params, float(x)))
                for x in xs
            ])
            x_grid = xs[int(np.argmin(vals))]
            opt = optimal_interval(params, c_fb)
            step = xs[1] - xs[0]
            assert abs(opt.x_opt - x_grid) <= 2 * step

    def test_x_interval_round_trip(self, params):
        assert interval_to_x(params, x_to_interval(params, 0.7)) == pytest.approx(0.7)

    def test_exponent_constant(self, params):
        k = exponent_constant(params, 2.0)
        assert k == pytest.approx(2.0 / (2 * math.pi * 4 * 9.26 * 1e-3))


class TestGaussianMiOracle:
    def test_matches_bound_on_random_grid(self, rng):
        for _ in range(100):
            sigma_h2 = float(rng.uniform(0.2, 3.0))
            sigma_hhat2 = float(sigma_h2 * rng.uniform(1.0, 2.0))
            p = make_params(sigma_h2, sigma_hhat2)
            alpha = float(rng.uniform(0.0, 0.999))
            d = float(rng.uniform(1e-4, 1.0) * sigma_hhat2)
            oracle = gaussian_mi_oracle(p, alpha, d)
            bound = mi_lower_bound(p, alpha, d)
            assert oracle == pytest.approx(bound, rel=1e-12)

    def test_memoryless_case(self, params):
        assert gaussian_mi_oracle(params, 0.0, 0.12) == pytest.approx(
            math.log2(10), abs=1e-12)

    def test_boundary_distortion_is_zero(self, params):
        assert gaussian_mi_oracle(params, 0.0, params.sigma_hhat2) == 0.0

    def test_rejects_invalid_distortion(self, params):
        with pytest.raises(ValueError):
            gaussian_mi_oracle(params, 0.5, 0.0)
        with pytest.raises(ValueError):
            gaussian_mi_oracle(params, 0.5, 1.3)


class TestBudgetTypes:
    def test_budget_from_rate_uses_ceiling(self):
        assert FeedbackBudget.from_rate(4, 2.0).t_blocks == 2
        assert FeedbackBudget.from_rate(5, 2.0).t_blocks == 3

    def test_budget_validation(self):
        with pytest.raises(ValueError):
            FeedbackBudget(c_fb=0.0, r_bits=1, t_blocks=1)
        with pytest.raises(ValueError):
            FeedbackBudget(c_fb=1.0, r_bits=-1, t_blocks=1)

    def test_distortion_point(self, params):
        pt = DistortionPoint.per_entry(0.1, params)
        assert pt.big_d == pytest.approx(0.4)
        with pytest.raises(ValueError):
            DistortionPoint.per_entry(-0.1, params)
