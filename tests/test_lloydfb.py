import math
import threading
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from diffcsi import lloydfb, mathcore
from diffcsi.capacity import _capacity_batch, _held_precoder
from diffcsi.channel import advance, autocorrelation, estimate
from diffcsi.lloydfb import (
    Codebook,
    bootstrap_codebook,
    open_loop_training_samples,
    quantize,
    run_feedback_session,
    train_codebook,
)
from diffcsi.mathcore import RngStream, sample_cn
from diffcsi.ratedist import FeedbackBudget, distortion_from_rate
from oracles import lloyd_unblocked


@pytest.fixture
def budget():
    return FeedbackBudget(c_fb=1.0, r_bits=4, t_blocks=4)


@pytest.fixture
def training_samples(params, budget):
    return open_loop_training_samples(params, budget, 4000, RngStream(61, 0))


@pytest.fixture
def codebook(training_samples):
    return train_codebook(training_samples, rate_bits=4, seed=8)


class TestCodebook:
    @pytest.mark.parametrize("n_entries,bad,match", [
        (7, 0.0, r"2\^R"),
        (9, 0.0, r"2\^R"),
        (8, np.nan, "non-finite"),
    ], ids=["2^R-1", "2^R+1", "nan"])
    def test_invalid_entries_rejected(self, n_entries, bad, match):
        entries = np.ones((n_entries, 2, 2), complex)
        entries[-1, 1, 0] = bad
        with pytest.raises(ValueError, match=match):
            Codebook(rate_bits=3, entries=entries)


class RepairSpy:
    """Counts train_codebook's empty-cell repairs: its generator's only
    standard_normal calls are the repair's two per repaired cell."""

    def __init__(self, monkeypatch):
        self.draws = 0
        stream = lloydfb.RngStream
        monkeypatch.setattr(lloydfb, "RngStream",
                            lambda *a: SimpleNamespace(generator=lambda: self._wrap(stream(*a))))

    def _wrap(self, stream):
        gen = stream.generator()

        def standard_normal(*a):
            self.draws += 1
            return gen.standard_normal(*a)

        return SimpleNamespace(choice=gen.choice, standard_normal=standard_normal)

    @property
    def repairs(self):
        return self.draws // 2


class TestTrainCodebook:
    def test_entry_count(self, training_samples):
        cb = train_codebook(training_samples, rate_bits=3, seed=1)
        assert len(cb.entries) == 8

    def test_entries_distinct(self, codebook):
        flat = codebook.entries.reshape(len(codebook.entries), -1)
        d = np.linalg.norm(flat[:, None, :] - flat[None, :, :], axis=2)
        np.fill_diagonal(d, np.inf)
        assert d.min() > 0

    def test_distortion_history_non_increasing(self, codebook):
        hist = codebook.training_meta["distortion_history"]
        assert all(b <= a * (1 + 1e-12) for a, b in zip(hist, hist[1:]))

    def test_distortion_increase_raises(self, training_samples, diverging_lloyd):
        # the check must stop training explicitly
        with pytest.raises(ArithmeticError, match="Lloyd distortion increased"):
            train_codebook(training_samples, rate_bits=3, seed=1)

    @pytest.mark.parametrize("rate_bits", range(1, 9))
    def test_equals_unblocked_loop(self, rate_bits):
        # N one below and one above a search-block boundary, with N >= 2^R
        step = lloydfb._block_rows(2 ** rate_bits, 9)
        edge = step * math.ceil((2 ** rate_bits + 1) / step)
        draw = sample_cn((edge + 1, 2, 2), 1.0, RngStream(66, rate_bits).generator())
        for n in (edge - 1, edge + 1):
            cb = train_codebook(draw[:n], rate_bits, seed=rate_bits)
            entries, meta = lloyd_unblocked(draw[:n], rate_bits, seed=rate_bits)
            assert np.array_equal(cb.entries, entries)
            assert cb.training_meta == meta

    @pytest.mark.parametrize("seed", range(4))
    def test_empty_cell_repair_equals_unblocked_loop(self, seed, monkeypatch):
        # 1,000 distinct samples, each twice: a codeword initialised on the
        # copy of another's sample leaves its cell empty
        draw = sample_cn((1000, 2, 2), 1.0, RngStream(67, 0).generator())
        samples = np.concatenate([draw, draw])
        spy = RepairSpy(monkeypatch)
        cb = train_codebook(samples, 8, seed=seed)
        assert spy.repairs > 0
        entries, meta = lloyd_unblocked(samples, 8, seed=seed)
        assert np.array_equal(cb.entries, entries)
        assert cb.training_meta == meta

    @given(rate_bits=st.integers(min_value=1, max_value=4),
           extra=st.integers(min_value=1, max_value=24),
           n_dup=st.integers(min_value=0, max_value=60),
           block=st.integers(min_value=1, max_value=40),
           seed=st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=30, deadline=None)
    # 57 rows, one in the last block, 7 repairs; 20 rows, 6 in the last block, 1 repair
    @example(rate_bits=4, extra=1, n_dup=40, block=8, seed=0)
    @example(rate_bits=2, extra=1, n_dup=15, block=7, seed=1)
    def test_duplicates_equal_unblocked_loop(self, rate_bits, extra, n_dup, block, seed):
        # 2^R + extra distinct rows, n_dup of them repeated, in search blocks of
        # `block` rows.  Repeats leave cells empty, so the repair runs; more
        # distinct rows than codewords keep the distortion above 0.
        rng = np.random.default_rng(seed)
        distinct = sample_cn((2 ** rate_bits + extra, 2, 2), 1.0, rng)
        samples = np.concatenate([distinct, distinct[rng.integers(0, len(distinct), n_dup)]])
        samples = samples[rng.permutation(len(samples))]
        with mock.patch.object(lloydfb, "NEAREST_GEMM", block * 2 ** rate_bits * 9):
            assert lloydfb._block_rows(2 ** rate_bits, 9) == block
            cb = train_codebook(samples, rate_bits, seed=seed)
        entries, meta = lloyd_unblocked(samples, rate_bits, seed=seed)
        assert np.array_equal(cb.entries, entries)
        assert cb.training_meta == meta

    @pytest.mark.parametrize("n_distinct,copies,rate_bits", [(64, 5, 8), (6, 3, 3)])
    @pytest.mark.parametrize("seed", range(3))
    def test_zero_distortion_stops(self, n_distinct, copies, rate_bits, seed):
        # fewer distinct samples than codewords: a repair after the distortion
        # reached 0 moved a codeword off its sample and raised at some seeds
        draw = sample_cn((n_distinct, 2, 2), 1.0, RngStream(70, 0).generator())
        samples = np.concatenate([draw] * copies)
        cb = train_codebook(samples, rate_bits, seed=seed)
        hist = cb.training_meta["distortion_history"]
        assert 0.0 not in hist[:-1]
        if hist[-1] == 0.0:
            assert np.array_equal(quantize(samples, cb)[1], samples)

    def test_converse_bound_on_held_out(self, params, budget, codebook):
        held_out = open_loop_training_samples(params, budget, 20000, RngStream(62, 0))
        flat = held_out.reshape(len(held_out), -1)
        idx, _ = quantize(held_out[:2000], codebook)
        err = held_out[:2000] - codebook.entries[idx]
        d_emp = np.mean(np.abs(err) ** 2)
        alpha = autocorrelation(params, budget.t_blocks)
        d_bound = distortion_from_rate(params, alpha, budget.r_bits)
        assert d_emp >= 0.95 * d_bound

    def test_centroid_property_on_separated_clusters(self):
        # two tight, well-separated clusters: Lloyd must converge to the
        # exact cluster means with a 2-entry codebook
        rng = np.random.default_rng(77)
        c0 = np.full((1, 1), 10 + 10j)
        c1 = np.full((1, 1), -10 - 10j)
        noise = 0.01 * (rng.standard_normal((400, 1, 1)) + 1j * rng.standard_normal((400, 1, 1)))
        samples = np.concatenate([c0 + noise[:200], c1 + noise[200:]])
        cb = train_codebook(samples, rate_bits=1, seed=2)
        flat = samples.reshape(len(samples), -1)
        entries = cb.entries.reshape(2, -1)
        d2 = (np.abs(flat[:, None, :] - entries[None, :, :]) ** 2).sum(axis=2)
        labels = np.argmin(d2, axis=1)
        for i in range(2):
            cell = flat[labels == i]
            assert len(cell)
            assert np.linalg.norm(entries[i] - cell.mean(axis=0)) < 1e-10

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_samples_rejected(self, training_samples, bad):
        samples = training_samples.copy()
        samples[123, 1, 0] = bad
        with pytest.raises(ValueError, match="training samples contains non-finite"):
            train_codebook(samples, rate_bits=3, seed=1)

    def test_too_small_training_set_rejected(self, training_samples):
        with pytest.raises(ValueError):
            train_codebook(training_samples[:10], rate_bits=4, seed=1)

    def test_excessive_rate_refused(self, training_samples):
        with pytest.raises(ValueError):
            train_codebook(training_samples, rate_bits=17, seed=1)


class TestQuantize:
    def test_codewords_map_to_themselves(self, codebook):
        for i, entry in enumerate(codebook.entries):
            idx, word = quantize(entry, codebook)
            assert idx == i
            assert np.array_equal(word, entry)

    def test_matches_bruteforce_oracle(self, codebook):
        rng = RngStream(63, 0).generator()
        for _ in range(500):
            s = sample_cn((2, 2), 1.0, rng)
            idx, _ = quantize(s, codebook)
            d2 = [np.sum(np.abs(s - e) ** 2) for e in codebook.entries]
            assert idx == int(np.argmin(d2))

    def test_tie_breaks_to_lower_index(self):
        a = np.ones((1, 1), dtype=complex)
        cb = Codebook(rate_bits=1, entries=np.array([[[1 + 0j]], [[-1 + 0j]]]))
        idx, _ = quantize(np.zeros((1, 1), complex), cb)
        assert idx == 0

    def test_shape_mismatch_rejected(self, codebook):
        with pytest.raises(ValueError):
            quantize(np.zeros((3, 3), complex), codebook)

    def test_batch_matches_single_calls(self, codebook):
        batch = sample_cn((3, 5, 2, 2), 1.0, RngStream(64, 0).generator())
        idx, words = quantize(batch, codebook)
        assert idx.shape == (3, 5) and words.shape == (3, 5, 2, 2)
        for i in np.ndindex(3, 5):
            one_idx, one_word = quantize(batch[i], codebook)
            assert isinstance(one_idx, int) and idx[i] == one_idx
            assert np.array_equal(words[i], one_word)


class TestNearest:
    @given(n_r=st.integers(min_value=1, max_value=3),
           n_t=st.integers(min_value=1, max_value=3),
           rate_bits=st.integers(min_value=1, max_value=8),
           n_case=st.integers(min_value=0, max_value=5),
           n_dup=st.integers(min_value=0, max_value=4),
           seed=st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_matches_bruteforce_oracle(self, n_r, n_t, rate_bits, n_case, n_dup, seed):
        # sizes around the rows per GEMM block of this rate and shape
        rows = lloydfb._block_rows(2 ** rate_bits, 2 * n_r * n_t + 1)
        n = [1, 300, rows - 1, rows, rows + 1, 2 * rows + 37][n_case]
        rng = np.random.default_rng(seed)
        n_entries, dim = 2 ** rate_bits, n_r * n_t
        entries = rng.standard_normal((n_entries, dim)) + 1j * rng.standard_normal((n_entries, dim))
        # copies of lower-index codewords at higher indices: the lower must win
        for dst in rng.integers(1, n_entries, n_dup):
            entries[dst] = entries[rng.integers(0, dst)]
        samples = rng.standard_normal((n, dim)) + 1j * rng.standard_normal((n, dim))
        samples[::7] = entries[rng.integers(0, n_entries, len(samples[::7]))]
        d2 = np.stack([np.sum(np.abs(samples - c) ** 2, axis=1) for c in entries], axis=1)
        labels = lloydfb._nearest(lloydfb._search_rows(samples), entries)
        assert np.array_equal(labels, np.argmin(d2, axis=1))

    @given(n_r=st.integers(min_value=1, max_value=3),
           n_t=st.integers(min_value=1, max_value=3),
           rate_bits=st.integers(min_value=1, max_value=12),
           n_case=st.integers(min_value=0, max_value=3),
           log_scale=st.integers(min_value=-3, max_value=3),
           seed=st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=60, deadline=None)
    # row-major rows would take OpenBLAS's small NN kernel, out of order here
    @example(n_r=3, n_t=3, rate_bits=2, n_case=1, log_scale=0, seed=0)
    def test_equals_two_pass_argmin(self, n_r, n_t, rate_bits, n_case, log_scale, seed):
        # The |c|^2 column folded into the GEMM must round as a separate
        # `score += |c|^2` after it, which holds while the BLAS sums the inner
        # index in order, in blocks of any size.  Midpoints of codeword pairs
        # make near-ties, so a differently rounded score moves labels.
        n_entries, dim = 2 ** rate_bits, n_r * n_t
        rows = lloydfb._block_rows(n_entries, 2 * dim + 1)
        n = [1, rows + 1, 2 * rows + 37, 3 * rows][n_case]   # lone and remainder rows
        rng = np.random.default_rng(seed)
        scale = 10.0 ** log_scale
        entries = scale * (rng.standard_normal((n_entries, dim))
                           + 1j * rng.standard_normal((n_entries, dim)))
        pairs = rng.integers(0, n_entries, (n, 2))
        samples = 0.5 * (entries[pairs[:, 0]] + entries[pairs[:, 1]])
        samples[1::2] = scale * (rng.standard_normal((n // 2, dim))
                                 + 1j * rng.standard_normal((n // 2, dim)))
        # one spare row keeps the reference a GEMM (numpy runs one row as gemv)
        ref = np.concatenate([samples, samples[:1]])
        score = np.concatenate([ref.real, ref.imag], axis=1) @ (
            -2.0 * np.concatenate([entries.real, entries.imag], axis=1).T)
        score += np.sum(np.abs(entries) ** 2, axis=1)
        labels = lloydfb._nearest(lloydfb._search_rows(samples), entries)
        assert np.array_equal(labels, score[:n].argmin(axis=1)), (
            "folded |c|^2 column rounds unlike a separate += |c|^2: "
            "the BLAS does not sum the GEMM's inner index in order")


def recorded_session(cfg, budget, cb, n_blocks, seed):
    """A codebook session whose quantizer logs (H_hat, H_bar before, H_bar after)."""
    step = lloydfb._codebook_quantizer(cb)
    log = []

    def recording(h_hat, h_bar):
        out = step(h_hat, h_bar)
        log.append((h_hat[0], h_bar[0], out[0]))
        return out

    return lloydfb._sessions(cfg, budget.t_blocks, recording, n_blocks, [seed])[:, 0], log


class TestFeedbackSession:
    def test_shared_reconstruction_identical(self, cap_cfg, budget, codebook):
        caps, log = recorded_session(cap_cfg, budget, codebook, n_blocks=40, seed=9)
        assert np.array_equal(caps, run_feedback_session(cap_cfg, budget, codebook, 40, [9])[:, 0])
        # replay the transmitter side from the fed-back indices alone
        h_bar_tx = np.zeros((2, 2), dtype=complex)
        for h_hat, before, after in log:
            assert np.array_equal(before, h_bar_tx)
            idx, _ = quantize(h_hat - before, codebook)
            h_bar_tx = h_bar_tx + codebook.entries[idx]
            assert np.array_equal(after, h_bar_tx)

    def test_h_bar_constant_between_epochs(self, params, cap_cfg, budget, codebook):
        t, n_blocks, seed = budget.t_blocks, 42, 10
        caps, log = recorded_session(cap_cfg, budget, codebook, n_blocks, seed)
        # the codebook draws nothing, so the channel replays on the same seed
        rng = RngStream(seed, 0).generator()
        h = sample_cn((1, 2, 2), params.sigma_h2, rng)
        h_hats = []
        for _ in range(n_blocks):
            h_hats.append(estimate(h, params, rng))
            h = advance(h, autocorrelation(params, 1.0), params, rng)
        # epochs fall on every T-th block and see that block's estimate
        assert len(log) == math.ceil(n_blocks / t)
        for k, (h_hat, _, _) in enumerate(log):
            assert np.array_equal(h_hat, h_hats[k * t][0])
        # each period holds the previous epoch's H_bar; cold start its own
        for n in range(n_blocks):
            k = n // t
            held = log[max(k - 1, 0)][2]
            expect = _capacity_batch(h_hats[n], _held_precoder(held[None], cap_cfg), cap_cfg)
            assert caps[n] == expect[0]

    def test_budget_violation_rejected(self, cap_cfg, codebook):
        bad = FeedbackBudget(c_fb=0.5, r_bits=4, t_blocks=4)
        with pytest.raises(ValueError):
            run_feedback_session(cap_cfg, bad, codebook, n_blocks=40, seeds=[1])

    def test_session_shorter_than_interval_rejected(self, cap_cfg, budget, codebook):
        with pytest.raises(ValueError):
            run_feedback_session(cap_cfg, budget, codebook, n_blocks=2, seeds=[1])

    def test_no_seeds_rejected(self, cap_cfg, budget, codebook):
        with pytest.raises(ValueError, match="0 seeds"):
            run_feedback_session(cap_cfg, budget, codebook, n_blocks=8, seeds=[])

    def test_epoch_distortion_respects_converse(self, params, cap_cfg, budget, codebook):
        dists = []
        for s in range(20):
            _, log = recorded_session(cap_cfg, budget, codebook, n_blocks=48, seed=100 + s)
            # per-entry |H_hat - H_bar|^2 right after each epoch, warm-up dropped
            dists.append(np.mean([np.mean(np.abs(h_hat - after) ** 2)
                                  for h_hat, _, after in log[5:]]))
        alpha = autocorrelation(params, budget.t_blocks)
        d_bound = distortion_from_rate(params, alpha, budget.r_bits)
        assert np.mean(dists) >= 0.95 * d_bound

    def test_determinism(self, cap_cfg, budget, codebook):
        a = run_feedback_session(cap_cfg, budget, codebook, n_blocks=20, seeds=[5])
        b = run_feedback_session(cap_cfg, budget, codebook, n_blocks=20, seeds=[5])
        assert a.shape == (20, 1)
        assert np.array_equal(a, b)

    @pytest.mark.parametrize("rate_bits", [1, 4])
    def test_batch_equals_single_sessions(self, params, cap_cfg, rate_bits, monkeypatch):
        budget = FeedbackBudget(c_fb=1.0, r_bits=rate_bits, t_blocks=4)
        samples = open_loop_training_samples(params, budget, 1000, RngStream(65, 0))
        cb = train_codebook(samples, rate_bits=rate_bits, seed=8)
        # a session's 300 blocks read 4,800 normals, 8 at a time: in the batch
        # they cross 15 boundaries of prefetch rows of 300, and in a single
        # session four of batches of 1,004
        monkeypatch.setattr(mathcore, "_PREFETCH", 1004)
        monkeypatch.setattr(mathcore, "_PREFETCH_FLOOR", 300)
        seeds = [3, 17, 17, 40, 41]
        batch = run_feedback_session(cap_cfg, budget, cb, n_blocks=300, seeds=seeds)
        assert batch.shape == (300, len(seeds))
        for j, s in enumerate(seeds):
            single = run_feedback_session(cap_cfg, budget, cb, n_blocks=300, seeds=[s])
            assert np.array_equal(batch[:, j], single[:, 0])

    def test_failed_quantizer_stops_the_prefetch_thread(self, cap_cfg):
        calls = []

        def failing(h_hat, h_bar):
            calls.append(1)
            if len(calls) == 3:
                raise KeyError("quantizer failed")
            return h_hat

        with pytest.raises(KeyError):
            lloydfb._sessions(cap_cfg, 2, failing, 10, [4, 5, 6])
        assert len(calls) == 3
        assert not [t for t in threading.enumerate() if t.name == "diffcsi-prefetch"]


class TestBootstrap:
    def test_bootstrap_produces_valid_codebook(self, cap_cfg, budget):
        cb = bootstrap_codebook(cap_cfg, budget, n_samples=2000, seed=3)
        assert len(cb.entries) == 2 ** budget.r_bits
        assert cb.training_meta["interval"] == budget.t_blocks
