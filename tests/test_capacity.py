import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from diffcsi import capacity
from diffcsi.capacity import (
    CapacityConfig,
    _capacity_batch,
    _closed_capacity_2x2,
    _closed_precoder_2x2,
    _held_precoder,
    _slogdet_capacity,
    _svd_precoder,
    ergodic_capacity,
    waterfill_batch,
)
from diffcsi.channel import ChannelParams, autocorrelation, estimate
from diffcsi.mathcore import RngStream, _Prefetch, sample_cn
from diffcsi.ratedist import FeedbackBudget, distortion_from_rate
from oracles import block_capacity, waterfill


def _recorded(fn, *args):
    """fn(*args) and the capacities of every block it computed, stacked, as
    recorded by a wrapper around capacity._capacity_batch, which
    capacity._feedback_loop looks up at each block."""
    blocks, real = [], capacity._capacity_batch

    def recording(*batch_args):
        blocks.append(real(*batch_args))
        return blocks[-1]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(capacity, "_capacity_batch", recording)
        out = fn(*args)
    return out, np.stack(blocks)


def _loop(*args):
    """Every counted block of capacity._feedback_loop, stacked; the loop's
    mean must be their block-order sum over their count, bitwise."""
    mean, blocks = _recorded(capacity._feedback_loop, *args)
    assert np.array_equal(mean, sum(blocks) / len(blocks))
    return blocks


def _no_chunk(args):
    """A _simulate_chunk for tests whose arguments must be refused first."""
    raise AssertionError("a chunk ran")


def random_unitary(n, rng):
    q, r = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    return q * (np.diag(r) / np.abs(np.diag(r)))


class TestWaterfill:
    def test_equal_gains_split_equally(self):
        for a2 in (0.1, 1.0, 10.0):
            alloc = waterfill(np.array([2.0, 2.0]), a2, 2)
            assert np.allclose(alloc.z2, [1.0, 1.0], atol=1e-12)

    def test_single_active_mode(self):
        # gap between inverse gains exceeds the total power: weak mode off
        g1, g2 = 10.0, 0.1
        a2 = 1.0
        assert 1 / (g2**2 * a2) - 1 / (g1**2 * a2) > 2
        alloc = waterfill(np.array([g1, g2]), a2, 2)
        assert alloc.z2[1] == 0.0
        assert alloc.z2[0] == pytest.approx(2.0, abs=1e-12)
        assert g2**2 * a2 < 1 / alloc.mu  # cut-off inequality for the off mode

    def test_power_constraint_random(self, rng):
        for _ in range(200):
            g = np.sort(rng.uniform(0.01, 3.0, size=2))[::-1]
            a2 = float(rng.uniform(0.05, 20.0))
            alloc = waterfill(g, a2, 2)
            assert abs(alloc.z2.sum() - 2.0) < 1e-12
            for i, z2 in enumerate(alloc.z2):
                if z2 > 0:
                    assert g[i] ** 2 * a2 >= 1 / alloc.mu - 1e-12

    def test_all_zero_gains_rejected(self):
        with pytest.raises(ValueError):
            waterfill(np.array([0.0, 0.0]), 1.0, 2)

    def test_more_power_never_fewer_active_modes(self, rng):
        for _ in range(100):
            g = np.sort(rng.uniform(0.01, 3.0, size=2))[::-1]
            n_lo = np.count_nonzero(waterfill(g, 0.5, 2).z2)
            n_hi = np.count_nonzero(waterfill(g, 5.0, 2).z2)
            assert n_hi >= n_lo

    def test_batch_matches_scalar(self, rng):
        gs = np.sort(rng.uniform(0.0, 3.0, size=(500, 2)), axis=1)[:, ::-1]
        gs[gs < 0.05] = 0.0
        gs[:, 0] = np.maximum(gs[:, 0], 0.1)  # keep at least one live mode
        z2 = waterfill_batch(gs, 1.3, 2)
        for row_g, row_z in zip(gs, z2):
            alloc = waterfill(row_g, 1.3, 2)
            assert np.allclose(row_z, alloc.z2, atol=1e-10)

    @given(g1=st.floats(min_value=0.05, max_value=5.0),
           ratio=st.floats(min_value=0.01, max_value=1.0),
           a2=st.floats(min_value=0.01, max_value=50.0))
    @example(g1=0.0546875, ratio=0.9999999999999999, a2=0.01171875)
    @settings(max_examples=200, deadline=None)
    def test_power_conservation_property(self, g1, ratio, a2):
        # z2_i = mu - 1/(a2 g_i^2) rounds at the scale of mu, so the sum can
        # miss 2 by an ulp of mu: 3.6e-12 at the example, where mu = 28,534
        alloc = waterfill(np.array([g1, g1 * ratio]), a2, 2)
        tol = 4 * np.finfo(float).eps * max(alloc.mu, 1.0)
        assert abs(alloc.z2.sum() - 2.0) <= tol
        assert np.all(alloc.z2 >= 0)
        batch = waterfill_batch(np.array([[g1, g1 * ratio]]), a2, 2)[0]
        assert abs(batch.sum() - 2.0) <= tol
        assert np.all(batch >= 0)


class TestBlockCapacity:
    def test_perfect_estimation_reduces_to_direct_form(self, params_perfect):
        cfg = CapacityConfig(params=params_perfect, snr_db=0.0, l_block=100)
        rng = RngStream(31, 0).generator()
        for _ in range(20):
            h = sample_cn((2, 2), 1.0, rng)
            got = block_capacity(h, h, cfg)
            # direct evaluation: F = (1/A^2) I
            _, s, vh = np.linalg.svd(h)
            z = np.sqrt(waterfill(s, cfg.amplitude2, 2).z2)
            j = h @ vh.conj().T @ np.diag(z)
            direct = cfg.overhead * math.log2(
                np.real(np.linalg.det(np.eye(2) + cfg.amplitude2 * (j @ j.conj().T))))
            assert got == pytest.approx(direct, rel=1e-10)

    def test_zero_power_gives_zero_capacity(self, cap_cfg):
        # manually zeroed precoder, passed as its Gram P = V Z^2 V^+ = 0:
        # J = 0, log2 det(I) = 0 on the closed-form and the slogdet path
        h = sample_cn((1, 2, 2), 1.0, RngStream(32, 0).generator())
        p = np.zeros((1, 2, 2), dtype=complex)
        assert _capacity_batch(h, p, cap_cfg)[0] == pytest.approx(0.0, abs=1e-12)
        assert _slogdet_capacity(h, p, cap_cfg)[0] == pytest.approx(0.0, abs=1e-12)

    def test_capacity_nonnegative(self, cap_cfg):
        rng = RngStream(33, 0).generator()
        for _ in range(50):
            h_hat = sample_cn((2, 2), 1.2, rng)
            h_bar = h_hat - sample_cn((2, 2), 0.3, rng)
            assert block_capacity(h_hat, h_bar, cap_cfg) >= 0.0

    def test_unitary_rotation_invariance(self, cap_cfg):
        rng = RngStream(34, 0).generator()
        for _ in range(20):
            h_hat = sample_cn((2, 2), 1.2, rng)
            h_bar = h_hat - sample_cn((2, 2), 0.2, rng)
            q = random_unitary(2, rng)
            a = block_capacity(h_hat, h_bar, cap_cfg)
            b = block_capacity(q @ h_hat, q @ h_bar, cap_cfg)
            assert b == pytest.approx(a, rel=1e-9)

    def test_pilot_overhead_scaling(self, params):
        rng = RngStream(35, 0).generator()
        h_hat = sample_cn((2, 2), 1.2, rng)
        h_bar = h_hat - sample_cn((2, 2), 0.2, rng)
        cfg_a = CapacityConfig(params=params, snr_db=0.0, l_block=100)
        cfg_b = CapacityConfig(params=params, snr_db=0.0, l_block=50)
        ca = block_capacity(h_hat, h_bar, cfg_a)
        cb = block_capacity(h_hat, h_bar, cfg_b)
        assert cb / ca == pytest.approx((48 / 50) / (98 / 100), rel=1e-12)

    def test_f_closed_form_monte_carlo(self, params, cap_cfg):
        # E[J_e J_e^+ | J] against the (1-r)^2 J J^+ + N_t sigma_psi^2 I form
        rng = RngStream(36, 0).generator()
        n = 10**5
        r = params.ratio
        for trial in range(3):
            h_hat = sample_cn((2, 2), params.sigma_hhat2, rng)
            _, s, vh = np.linalg.svd(h_hat - sample_cn((2, 2), 0.2, rng))
            z = np.sqrt(waterfill(s, cap_cfg.amplitude2, 2).z2)
            vz = vh.conj().T @ np.diag(z)
            # H_e = (1 - r) H_hat - Psi with Psi indep of H_hat
            psi = sample_cn((n, 2, 2), params.psi_variance, rng)
            h_e = (1 - r) * h_hat[None, :, :] - psi
            j_e = h_e @ vz
            emp = np.mean(j_e @ np.swapaxes(j_e.conj(), 1, 2), axis=0)
            j = h_hat @ vz
            closed = (1 - r) ** 2 * (j @ j.conj().T) \
                + params.n_t * params.psi_variance * np.eye(2)
            se = np.abs(closed).max() / math.sqrt(n) * 4
            assert np.all(np.abs(emp - closed) < 3 * (se + 0.01))


def link(n_r, n_t, snr_db, sigma_e2):
    params = ChannelParams(n_t=n_t, n_r=n_r, sigma_h2=1.0, sigma_hhat2=1.0 + sigma_e2,
                           f_d=9.26, t_block=1e-3)
    return CapacityConfig(params=params, snr_db=snr_db, l_block=100)


def direct_capacity(h_hat, h_bar, cfg):
    """Independent one-block oracle: full SVD, scalar water-filling, explicit
    inverse and determinant of I + J J^+ F^-1."""
    p = cfg.params
    _, s, vh = np.linalg.svd(h_bar)
    z = np.sqrt(waterfill(s, cfg.amplitude2, p.n_t).z2)
    j = h_hat @ vh.conj().T[:, :len(s)] @ np.diag(z)
    jj = j @ j.conj().T
    c = 1.0 / cfg.amplitude2 + p.n_t * p.psi_variance
    f = c * np.eye(p.n_r) + (1.0 - p.ratio) ** 2 * jj
    return cfg.overhead * math.log2(np.linalg.det(np.eye(p.n_r) + jj @ np.linalg.inv(f)).real)


def assert_closed_forms_match_oracle(h_hat, h_bar, cfg):
    """2x2 closed-form precoder and kernel against the SVD / slogdet path."""
    p_closed = _closed_precoder_2x2(h_bar, cfg)
    p_svd = _svd_precoder(h_bar, cfg)
    np.testing.assert_allclose(p_closed, p_svd, rtol=0, atol=1e-9 * cfg.params.n_t)
    np.testing.assert_allclose(
        _closed_capacity_2x2(h_hat, p_closed, cfg),
        _slogdet_capacity(h_hat, p_svd, cfg), rtol=1e-9)


class TestClosedForms:
    """The 2x2 closed forms against the general SVD / slogdet path."""

    @given(snr_db=st.floats(min_value=-10.0, max_value=30.0),
           sigma_e2=st.sampled_from([0.0, 0.2]),
           d=st.floats(min_value=1e-3, max_value=2.0),
           seed=st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=150, deadline=None)
    def test_random_channels(self, snr_db, sigma_e2, d, seed):
        cfg = link(2, 2, snr_db, sigma_e2)
        rng = np.random.default_rng(seed)
        h_hat = sample_cn((32, 2, 2), cfg.params.sigma_hhat2, rng)
        h_bar = h_hat - sample_cn((32, 2, 2), d, rng)
        assert_closed_forms_match_oracle(h_hat, h_bar, cfg)

    @given(snr_db=st.floats(min_value=-10.0, max_value=30.0),
           scale=st.floats(min_value=1e-2, max_value=10.0),
           seed=st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=100, deadline=None)
    @example(snr_db=-7.0, scale=0.01, seed=662)  # P once 1.4e-9 from I
    def test_equal_singular_values(self, snr_db, scale, seed):
        # scaled unitary H_bar: G = scale^2 I, both modes get power 1
        cfg = link(2, 2, snr_db, 0.2)
        rng = np.random.default_rng(seed)
        h_bar = np.stack([scale * random_unitary(2, rng) for _ in range(8)])
        h_hat = h_bar + sample_cn((8, 2, 2), 0.1, rng)
        assert_closed_forms_match_oracle(h_hat, h_bar, cfg)
        p = _closed_precoder_2x2(h_bar, cfg)
        np.testing.assert_allclose(p, np.broadcast_to(np.eye(2), p.shape), atol=1e-9)

    @given(snr_db=st.floats(min_value=-10.0, max_value=30.0),
           sigma_e2=st.sampled_from([0.0, 0.2]),
           seed=st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=100, deadline=None)
    def test_rank_one(self, snr_db, sigma_e2, seed):
        # one live mode: all power N_t on it, P = N_t v v^+
        cfg = link(2, 2, snr_db, sigma_e2)
        rng = np.random.default_rng(seed)
        u = sample_cn((8, 2, 1), 1.0, rng)
        v = sample_cn((8, 1, 2), 1.0, rng)
        h_bar = u @ v
        h_hat = h_bar + sample_cn((8, 2, 2), 0.3, rng)
        assert_closed_forms_match_oracle(h_hat, h_bar, cfg)
        p = _closed_precoder_2x2(h_bar, cfg)
        np.testing.assert_allclose(np.trace(p, axis1=1, axis2=2).real, 2.0, rtol=1e-12)
        assert np.all(np.abs(np.linalg.det(p)) < 1e-9)

    def test_dispatch_on_shape(self, cap_cfg):
        rng = RngStream(40, 0).generator()
        h_hat = sample_cn((16, 2, 2), 1.2, rng)
        h_bar = h_hat - sample_cn((16, 2, 2), 0.2, rng)
        p = _held_precoder(h_bar, cap_cfg)
        assert np.array_equal(p, _closed_precoder_2x2(h_bar, cap_cfg))
        assert np.array_equal(_capacity_batch(h_hat, p, cap_cfg),
                              _closed_capacity_2x2(h_hat, p, cap_cfg))

    @pytest.mark.parametrize("n_r,n_t", [(1, 2), (2, 3), (3, 2), (3, 3), (2, 2)])
    def test_every_shape_matches_direct_oracle(self, n_r, n_t):
        rng = RngStream(41, 10 * n_r + n_t).generator()
        for snr_db in (-10.0, 0.0, 20.0):
            for sigma_e2 in (0.0, 0.2):
                cfg = link(n_r, n_t, snr_db, sigma_e2)
                h_hat = sample_cn((24, n_r, n_t), cfg.params.sigma_hhat2, rng)
                h_bar = h_hat - sample_cn((24, n_r, n_t), 0.3, rng)
                p = _held_precoder(h_bar, cfg)
                assert p.shape == (24, n_t, n_t)
                np.testing.assert_allclose(np.trace(p, axis1=1, axis2=2).real, n_t,
                                           rtol=1e-12)
                want = [direct_capacity(a, b, cfg) for a, b in zip(h_hat, h_bar)]
                np.testing.assert_allclose(_capacity_batch(h_hat, p, cfg), want,
                                           rtol=1e-9)
                assert block_capacity(h_hat[0], h_bar[0], cfg) == pytest.approx(
                    want[0], rel=1e-9)
                zero = np.zeros((1, n_t, n_t), dtype=complex)
                assert _capacity_batch(h_hat[:1], zero, cfg)[0] == pytest.approx(
                    0.0, abs=1e-12)

    @pytest.mark.parametrize("n_r,n_t", [(2, 3), (3, 2)])
    def test_ergodic_capacity_off_square(self, n_r, n_t):
        cfg = link(n_r, n_t, 0.0, 0.2)
        budget = FeedbackBudget(c_fb=1.0, r_bits=3.0, t_blocks=3)
        [(m, s)] = ergodic_capacity(cfg, budget, [0.2], trials=200, seed=9)
        assert math.isfinite(m) and m > 0 and math.isfinite(s)


class TestErgodicCapacity:
    def test_monotone_degradation_with_distortion(self, params, cap_cfg):
        budget = FeedbackBudget(c_fb=2.0, r_bits=8.0, t_blocks=4)
        (m1, s1), (m2, s2) = ergodic_capacity(cap_cfg, budget, [0.05, 0.6], trials=2000,
                                              seed=42)
        assert m1 >= m2 - 3 * max(s1, s2)

    def test_finite_and_nonnegative(self, cap_cfg):
        budget = FeedbackBudget(c_fb=1.0, r_bits=4.0, t_blocks=4)
        [(m, s)] = ergodic_capacity(cap_cfg, budget, [0.3], trials=500, seed=7)
        assert math.isfinite(m) and m >= 0
        assert math.isfinite(s) and s >= 0

    def test_diminishing_returns_in_feedback_capacity(self, params, cap_cfg):
        t = 6
        alpha = autocorrelation(params, t)
        c_fbs = (0.5, 1.0, 2.0, 4.0)
        ds = [distortion_from_rate(params, alpha, c_fb * t) for c_fb in c_fbs]
        budget = FeedbackBudget(c_fb=c_fbs[0], r_bits=c_fbs[0] * t, t_blocks=t)
        means = [m for m, _ in ergodic_capacity(cap_cfg, budget, ds, trials=4000, seed=11)]
        assert all(b >= a for a, b in zip(means, means[1:]))
        increments = [b - a for a, b in zip(means, means[1:])]
        assert increments[-1] < increments[0]

    def test_worker_count_invariance(self, cap_cfg):
        budget = FeedbackBudget(c_fb=2.0, r_bits=6.0, t_blocks=3)
        # trials > chunk size so multiple chunks exist; the chunks run on the
        # builtin map, then on a 2-process pool's
        a = ergodic_capacity(cap_cfg, budget, [0.2], trials=4096, seed=3)
        with capacity._pool_map(2, 2) as pool_map:
            b = ergodic_capacity(cap_cfg, budget, [0.2], trials=4096, seed=3, map=pool_map)
        assert a == b

    def test_pool_holds_no_more_workers_than_chunks(self, cap_cfg, inline_pool):
        # the stub pool maps in this process, so nothing is forked; a pool of
        # max_workers=100000 would fork them all at its first submit
        budget = FeedbackBudget(c_fb=2.0, r_bits=6.0, t_blocks=3)
        chunks = math.ceil(4100 / capacity.CHUNK_TRIALS)  # 2048 + 2048 + 4 trials
        with capacity._pool_map(100000, chunks) as pool_map:
            pooled = ergodic_capacity(cap_cfg, budget, [0.2], trials=4100, seed=3, map=pool_map)
        assert inline_pool == [3]
        assert pooled == ergodic_capacity(cap_cfg, budget, [0.2], trials=4100, seed=3)

    @pytest.mark.parametrize("workers,n_jobs", [(1, 5), (4, 1), (1, 1)])
    def test_one_worker_or_job_builds_no_pool(self, inline_pool, workers, n_jobs):
        with capacity._pool_map(workers, n_jobs) as pool_map:
            assert pool_map is map
        assert inline_pool == []

    def test_invalid_arguments(self, cap_cfg, monkeypatch):
        monkeypatch.setattr(capacity, "_simulate_chunk", _no_chunk)
        budget = FeedbackBudget(c_fb=2.0, r_bits=6.0, t_blocks=3)
        for trials in (0, 1):
            with pytest.raises(ValueError, match=f"trials must be >= 2, got {trials}"):
                ergodic_capacity(cap_cfg, budget, [0.2], trials=trials, seed=1)
        for mode in ("bogus", "analytic"):  # "analytic" named the deleted snapshot branch
            with pytest.raises(ValueError, match=f"got periods=1, mode='{mode}'"):
                ergodic_capacity(cap_cfg, budget, [0.2], trials=10, seed=1, mode=mode)

    def test_periods_other_than_one_refused_before_any_chunk(self, cap_cfg, monkeypatch):
        # the mean is over the one period after the cold start; the name
        # stays only for perfbench's hook
        monkeypatch.setattr(capacity, "_simulate_chunk", _no_chunk)
        budget = FeedbackBudget(c_fb=2.0, r_bits=6.0, t_blocks=3)
        for periods in (0, 2):
            with pytest.raises(ValueError, match=f"got periods={periods}, mode='simulate'"):
                ergodic_capacity(cap_cfg, budget, [0.2], trials=10, seed=1, periods=periods)

    @pytest.mark.parametrize("mode", ["simulate"])  # the one mode accepted
    @pytest.mark.parametrize("workers", [1, 2])
    def test_distortions_match_single_calls(self, cap_cfg, mode, workers):
        # two chunks (2048 + 52 trials); each distortion of one call is the
        # call with that distortion alone, bit for bit, on the builtin map
        # (workers=1) or on one 2-process pool's for every call
        budget = FeedbackBudget(c_fb=1.0, r_bits=3.0, t_blocks=3)
        ds = [0.05, 0.2, 0.6, 1.3]
        with capacity._pool_map(workers, 2) as pool_map:
            kw = dict(trials=2100, seed=17, mode=mode, map=pool_map)
            joint = ergodic_capacity(cap_cfg, budget, ds, **kw)
            assert joint == [ergodic_capacity(cap_cfg, budget, [d], **kw)[0] for d in ds]

    @pytest.mark.parametrize("mode", ["simulate"])
    def test_zero_distortion_feeds_back_the_estimate(self, cap_cfg, monkeypatch, mode):
        # d = 0 (reached at |alpha| r = 1) scales the shared noise draw by
        # zero, so its row of H_bar is the estimate H_hat itself
        estimates, held = [], []
        real_estimate, real_held = capacity.estimate, capacity._held_precoder

        def estimate(*args):
            estimates.append(real_estimate(*args))
            return estimates[-1]

        def held_precoder(h_bar, cfg):
            held.append((np.array_equal(h_bar[0], estimates[-1]),
                         np.array_equal(h_bar[1], estimates[-1])))
            return real_held(h_bar, cfg)

        monkeypatch.setattr(capacity, "estimate", estimate)
        monkeypatch.setattr(capacity, "_held_precoder", held_precoder)
        budget = FeedbackBudget(c_fb=1.0, r_bits=2.0, t_blocks=2)
        [(m0, _), (m1, _)] = ergodic_capacity(cap_cfg, budget, [0.0, 0.4], trials=50,
                                              seed=4, mode=mode)
        # epochs 0 and 2 of 4 blocks; the last, 2, forms no precoder
        assert held == [(True, False)]
        assert math.isfinite(m0) and math.isfinite(m1)

    @pytest.mark.parametrize("ds", [[], [float("nan")], [0.2, float("inf")], [0.2, -0.1],
                                    0.2, [[0.2]]])
    def test_bad_distortions_rejected_before_any_chunk(self, cap_cfg, monkeypatch, ds):
        monkeypatch.setattr(capacity, "_simulate_chunk", _no_chunk)
        budget = FeedbackBudget(c_fb=1.0, r_bits=3.0, t_blocks=3)
        with pytest.raises(ValueError, match="distortions"):
            ergodic_capacity(cap_cfg, budget, ds, trials=10, seed=1)


class TestFeedbackLoop:
    def test_shape_and_determinism(self, params, cap_cfg):
        def run(seed):
            rng = RngStream(seed, 0).generator()
            calls = []

            def test_channel(h_hat, h_bar):
                calls.append(h_bar)
                return h_hat - sample_cn(h_hat.shape, 0.2, rng)

            caps = _loop(cap_cfg, 3, 10, 4, test_channel, 5, rng)
            return caps, calls

        caps, calls = run(21)
        assert caps.shape == (6, 5)
        assert np.all(np.isfinite(caps)) and np.all(caps >= 0)
        # epochs at blocks 0, 3, 6, 9; the first reference is H_bar_0 = 0
        assert len(calls) == 4 and np.all(calls[0] == 0)
        again, _ = run(21)
        assert np.array_equal(caps, again)

    def test_chunk_mean_is_the_block_order_sum(self, cap_cfg):
        # two distortions give H_bar, and so each block, a leading axis of 2
        mean, blocks = _recorded(capacity._simulate_chunk, (cap_cfg, 3, [0.1, 0.5], 5, 1, 0))
        assert blocks.shape == (3, 2, 5)
        assert np.array_equal(mean, sum(blocks) / 3)
        assert not np.array_equal(mean[0], mean[1])

    def test_loop_draws_its_start_first(self, params, cap_cfg):
        # the rows' stationary starting channels are the stream's first read
        caps = _loop(cap_cfg, 2, 1, 0, lambda h_hat, h_bar: h_hat, 3,
                     RngStream(4, 0).generator())
        rng = RngStream(4, 0).generator()
        h_hat = estimate(sample_cn((3, 2, 2), params.sigma_h2, rng), params, rng)
        assert np.array_equal(caps[0], _capacity_batch(h_hat, _held_precoder(h_hat, cap_cfg),
                                                       cap_cfg))


class _CountingPrefetch(_Prefetch):
    """The chunk's prefetched stream, counting the standard normals the
    chunk reads rather than the batches the prefetch thread draws."""

    def __init__(self, gen):
        super().__init__(gen)
        self.normals = 0

    def standard_normal(self, shape):
        out = super().standard_normal(shape)
        self.normals += out.size
        return out


def _spy(monkeypatch, name):
    """Replace capacity.<name> by a pass-through that logs each call's args."""
    calls, real = [], getattr(capacity, name)

    def logged(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(capacity, name, logged)
    return calls


class TestDrawBudget:
    @pytest.mark.parametrize("t, expect", [  # ids: mode-T-periods-normals
        pytest.param(1, 48, id="simulate-1-1-48"),
        pytest.param(7, 144, id="simulate-7-1-144")])
    def test_chunk_normals(self, cap_cfg, monkeypatch, t, expect):
        # normals per trial, 8 per 2x2 draw: the initial channel, T + 1
        # visited blocks' estimates, one jump to block T and T - 1 steps
        # after it, and the test channel's noise at the epochs 0 and T:
        # 8 (2 T + 4), so 48 and 144.  Four distortions share one draw, so
        # they take exactly the normals of one.
        b = 3
        streams = []

        def counted(gen):
            streams.append(_CountingPrefetch(gen))
            return streams[-1]

        monkeypatch.setattr(capacity, "_Prefetch", counted)
        for ds in ([0.2], [0.05, 0.2, 0.6, 1.3]):
            streams.clear()
            out = capacity._simulate_chunk((cap_cfg, t, ds, b, 1, 0))
            assert out.shape == (len(ds), b)
            [stream] = streams
            assert stream.normals == expect * b

    def test_no_discard_estimates_every_block(self, params, cap_cfg, monkeypatch):
        estimates, advances = _spy(monkeypatch, "estimate"), _spy(monkeypatch, "advance")
        caps = _loop(cap_cfg, 3, 10, 0, lambda h_hat, h_bar: h_hat, 4,
                     RngStream(2, 0).generator())
        assert caps.shape == (10, 4)
        assert len(estimates) == 10
        # one single step between consecutive blocks, none after the last
        assert [a[1] for a in advances] == [autocorrelation(params, 1.0)] * 9

    @pytest.mark.parametrize("t, n_blocks, discard, expect", [
        (3, 10, 0, 3), (5, 10, 5, 1), (5, 5, 0, 1), (1, 4, 1, 3), (4, 12, 4, 2)])
    def test_precoder_once_per_epoch_but_the_last(self, params, cap_cfg, monkeypatch, t,
                                                  n_blocks, discard, expect):
        # epochs at n % t == 0; the last one's precoder is read by no block,
        # unless it is also the first, whose own period reads it
        precoders = _spy(monkeypatch, "_held_precoder")
        _loop(cap_cfg, t, n_blocks, discard, lambda h_hat, h_bar: h_hat, 4,
              RngStream(5, 0).generator())
        assert len(precoders) == expect

    def test_discarded_cold_start_is_jumped(self, params, cap_cfg, monkeypatch):
        advances = _spy(monkeypatch, "advance")
        caps = _loop(cap_cfg, 5, 10, 5, lambda h_hat, h_bar: h_hat, 4,
                     RngStream(3, 0).generator())
        assert caps.shape == (5, 4)
        alpha = autocorrelation(params, 1.0)
        assert [a[1] for a in advances] == [alpha**5] + [alpha] * 4


def test_capacity_config_validation(params):
    with pytest.raises(ValueError):
        CapacityConfig(params=params, snr_db=0.0, l_block=2)
    cfg = CapacityConfig(params=params, snr_db=0.0, l_block=100)
    # SNR convention: A^2 = SNR_lin sigma_0^2 / (N_t sigma_h2)
    assert cfg.amplitude2 == pytest.approx(0.5)
    assert cfg.overhead == pytest.approx(0.98)
