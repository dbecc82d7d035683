import math

import numpy as np
import pytest

from diffcsi.channel import ChannelParams, advance, autocorrelation, estimate
from diffcsi.mathcore import RngStream, bessel_j0, sample_cn
from oracles import regression_decompose

J0_FIRST_ZERO = 2.404825557695773


class TestChannelParams:
    def test_invariants_enforced(self):
        with pytest.raises(ValueError):
            ChannelParams(0, 2, 1.0, 1.2, 9.26, 1e-3)
        with pytest.raises(ValueError):
            ChannelParams(2, 2, -1.0, 1.2, 9.26, 1e-3)
        with pytest.raises(ValueError):
            ChannelParams(2, 2, 1.0, 0.9, 9.26, 1e-3)
        with pytest.raises(ValueError):
            ChannelParams(2, 2, 1.0, 1.2, -9.26, 1e-3)
        for bad in (math.nan, math.inf):
            with pytest.raises(ValueError, match="finite"):
                ChannelParams(2, 2, bad, 1.2, 9.26, 1e-3)
            with pytest.raises(ValueError, match="finite"):
                ChannelParams(2, 2, 1.0, 1.2, 9.26, bad)

    def test_derived_quantities(self, params):
        assert params.sigma_e2 == pytest.approx(0.2)
        assert params.ratio == pytest.approx(1.0 / 1.2)
        assert params.psi_variance == pytest.approx(1.0 / 6.0)


class TestAutocorrelation:
    def test_lag_zero_is_one(self, params):
        assert autocorrelation(params, 0.0) == 1.0

    def test_matches_bessel(self, params):
        # f_d = 9.26 Hz, t_block = 1 ms, lag 10 blocks
        expect = bessel_j0(2 * math.pi * 9.26 * 10 * 1e-3)
        assert autocorrelation(params, 10) == pytest.approx(expect, abs=1e-15)
        assert autocorrelation(params, 10) == pytest.approx(bessel_j0(0.5818229625), abs=1e-9)

    def test_first_bessel_zero(self, params):
        lag = J0_FIRST_ZERO / (2 * math.pi * params.f_d * params.t_block)
        assert abs(autocorrelation(params, lag)) < 1e-9

    def test_negative_lag_rejected(self, params):
        with pytest.raises(ValueError):
            autocorrelation(params, -1.0)


class TestAdvance:
    def test_alpha_one_is_static(self, params):
        h = sample_cn((2, 2), 1.0, RngStream(3, 0).generator())
        out = advance(h, 1.0, params, RngStream(3, 1).generator())
        assert np.allclose(out, h)

    def test_alpha_out_of_range(self, params):
        h = np.zeros((2, 2), dtype=complex)
        with pytest.raises(ValueError):
            advance(h, 1.5, params, RngStream(3, 1).generator())

    def test_alpha_zero_independence(self, params):
        rng = RngStream(11, 0).generator()
        n = 10**5
        h_prev = sample_cn((n, 1, 1), params.sigma_h2, rng)
        h_next = advance(h_prev, 0.0, params, rng)
        corr = np.mean(h_next * np.conj(h_prev)) / params.sigma_h2
        assert abs(corr) < 0.01

    def test_correlation_matches_alpha(self, params):
        rng = RngStream(12, 0).generator()
        n = 10**5
        h_prev = sample_cn((n, 1, 1), params.sigma_h2, rng)
        h_next = advance(h_prev, 0.9, params, rng)
        corr = np.real(np.mean(h_next * np.conj(h_prev))) / params.sigma_h2
        assert 0.89 < corr < 0.91

    def test_stationarity_after_many_steps(self, params):
        rng = RngStream(13, 0).generator()
        n = 10**5
        h = sample_cn((n, 1, 1), params.sigma_h2, rng)
        alpha = 0.95
        for _ in range(5):
            h = advance(h, alpha, params, rng)
        var = np.mean(np.abs(h) ** 2)
        se = params.sigma_h2 / math.sqrt(n)
        assert abs(var - params.sigma_h2) < 3 * se

    def test_lag_m_correlation(self, params):
        rng = RngStream(14, 0).generator()
        n = 10**5
        alpha = 0.8
        h0 = sample_cn((n, 1, 1), params.sigma_h2, rng)
        h = h0
        for m in (1, 2, 3):
            h = advance(h, alpha, params, rng)
            corr = np.real(np.mean(h * np.conj(h0))) / params.sigma_h2
            se = 1.0 / math.sqrt(n)
            assert abs(corr - alpha**m) < 4 * se

    @pytest.mark.parametrize("k", [1, 5, 40])
    def test_k_step_jump(self, params, k):
        # one advance with alpha^k has the law of k single steps; at k = 40
        # autocorrelation(params, k) would be about 0.04, not 0.97
        rng = RngStream(15, k).generator()
        n = 10**5
        alpha = autocorrelation(params, 1.0)
        h0 = sample_cn((n, 1, 1), params.sigma_h2, rng)
        h = advance(h0, alpha**k, params, rng)
        prod = np.real(h * np.conj(h0)).ravel() / params.sigma_h2
        assert abs(prod.mean() - alpha**k) < 4 * prod.std() / math.sqrt(n)
        p2 = np.abs(h).ravel() ** 2
        assert abs(p2.mean() - params.sigma_h2) < 4 * p2.std() / math.sqrt(n)


class TestEstimate:
    def test_perfect_estimation(self, params_perfect):
        h = sample_cn((2, 2), 1.0, RngStream(5, 0).generator())
        assert np.array_equal(estimate(h, params_perfect, RngStream(5, 1).generator()), h)

    def test_variance_additivity(self, params):
        rng = RngStream(15, 0).generator()
        n = 10**5
        h = sample_cn((n, 1, 1), params.sigma_h2, rng)
        h_hat = estimate(h, params, rng)
        var = np.mean(np.abs(h_hat) ** 2)
        assert 1.19 < var < 1.21

    def test_error_independent_of_channel(self, params):
        rng = RngStream(16, 0).generator()
        n = 10**5
        h = sample_cn((n, 1, 1), params.sigma_h2, rng)
        h_e = estimate(h, params, rng) - h
        corr = np.mean(h_e * np.conj(h)) / math.sqrt(params.sigma_h2 * params.sigma_e2)
        assert abs(corr) < 0.01


class TestRegressionDecompose:
    def test_perfect_estimation_collapses(self, params_perfect):
        h_hat = sample_cn((2, 2), 1.0, RngStream(6, 0).generator())
        mean_part, psi_var = regression_decompose(h_hat, params_perfect)
        assert psi_var == 0.0
        assert np.allclose(mean_part, h_hat)

    def test_psi_variance_closed_form(self, params):
        _, psi_var = regression_decompose(np.zeros((2, 2), complex), params)
        assert psi_var == pytest.approx(1.0 / 6.0, abs=1e-15)

    def test_residual_variance_monte_carlo(self, params):
        rng = RngStream(17, 0).generator()
        n = 10**5
        h = sample_cn((n, 1, 1), params.sigma_h2, rng)
        h_hat = estimate(h, params, rng)
        psi = h - params.ratio * h_hat
        var = np.mean(np.abs(psi) ** 2)
        se = params.psi_variance / math.sqrt(n)
        assert abs(var - params.psi_variance) < 4 * se

    def test_residual_independent_of_estimate(self, params):
        rng = RngStream(18, 0).generator()
        n = 10**5
        h = sample_cn((n, 1, 1), params.sigma_h2, rng)
        h_hat = estimate(h, params, rng)
        psi = h - params.ratio * h_hat
        corr = np.mean(psi * np.conj(h_hat)) / math.sqrt(
            params.psi_variance * params.sigma_hhat2
        )
        assert abs(corr) < 0.01

    def test_variance_decomposition_identity(self, params):
        # sigma_h2 == ratio^2 * sigma_hhat2 + psi_variance, algebraically
        lhs = params.sigma_h2
        rhs = params.ratio**2 * params.sigma_hhat2 + params.psi_variance
        assert abs(lhs - rhs) < 1e-12


def trajectory(params, n_blocks, rng, batch=1):
    """(H_n, H_hat_n) pairs of the channel process: estimate, then one AR(1) step."""
    alpha = autocorrelation(params, 1.0)
    h = sample_cn((batch, params.n_r, params.n_t), params.sigma_h2, rng)
    blocks = []
    for _ in range(n_blocks):
        blocks.append((h, estimate(h, params, rng)))
        h = advance(h, alpha, params, rng)
    return blocks


class TestTrajectory:
    def test_shapes_and_length(self, params):
        blocks = trajectory(params, 5, RngStream(19, 0).generator(), batch=3)
        assert len(blocks) == 5
        for h, h_hat in blocks:
            assert h.shape == (3, 2, 2)
            assert h_hat.shape == (3, 2, 2)

    def test_determinism(self, params):
        a = trajectory(params, 4, RngStream(20, 0).generator())
        b = trajectory(params, 4, RngStream(20, 0).generator())
        for (h1, e1), (h2, e2) in zip(a, b):
            assert np.array_equal(h1, h2)
            assert np.array_equal(e1, e2)
