import math

import numpy as np
import pytest

from diffcsi import lloydfb
from diffcsi.capacity import CapacityConfig
from diffcsi.channel import autocorrelation
from diffcsi.lloydfb import (
    Codebook,
    bootstrap_codebook,
    load_codebook,
    open_loop_training_samples,
    quantize,
    run_feedback_session,
    save_codebook,
    train_codebook,
)
from diffcsi.mathcore import RngStream, sample_cn
from diffcsi.ratedist import FeedbackBudget, distortion_from_rate


@pytest.fixture
def budget():
    return FeedbackBudget(c_fb=1.0, r_bits=4, t_blocks=4)


@pytest.fixture
def training_samples(params, budget):
    return open_loop_training_samples(params, budget, 4000, RngStream(61, 0))


@pytest.fixture
def codebook(training_samples):
    return train_codebook(training_samples, rate_bits=4, seed=8)


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

    def test_distortion_increase_raises(self, training_samples, monkeypatch):
        # a partition that is not nearest-codeword after the first pass makes
        # the distortion rise; the check must stop training explicitly
        nearest = lloydfb._nearest
        calls = []

        def bad_nearest(flat, centers):
            labels = nearest(flat, centers)
            calls.append(1)
            return labels if len(calls) == 1 else (labels + 1) % len(centers)

        monkeypatch.setattr(lloydfb, "_nearest", bad_nearest)
        with pytest.raises(RuntimeError, match="Lloyd distortion increased"):
            train_codebook(training_samples, rate_bits=3, seed=1)

    def test_converse_bound_on_held_out(self, params, budget, codebook):
        held_out = open_loop_training_samples(params, budget, 20000, RngStream(62, 0))
        flat = held_out.reshape(len(held_out), -1)
        idx = np.array([quantize(s, codebook)[0] for s in held_out[:2000]])
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


class TestFeedbackSession:
    def test_shared_reconstruction_identical(self, cap_cfg, budget, codebook):
        trace = run_feedback_session(cap_cfg, budget, codebook, n_blocks=40, seed=9)
        # replay the transmitter side from the fed-back indices alone
        h_bar_tx = np.zeros((2, 2), dtype=complex)
        for rec in trace.records:
            if rec.fed_back_index is not None:
                h_bar_tx = h_bar_tx + codebook.entries[rec.fed_back_index]
            assert np.array_equal(rec.h_bar, h_bar_tx)

    def test_h_bar_constant_between_epochs(self, cap_cfg, budget, codebook):
        trace = run_feedback_session(cap_cfg, budget, codebook, n_blocks=40, seed=10)
        last = None
        for rec in trace.records:
            if rec.block % budget.t_blocks == 0:
                assert rec.fed_back_index is not None
                last = rec.h_bar
            else:
                assert rec.fed_back_index is None
                assert np.array_equal(rec.h_bar, last)

    def test_budget_violation_rejected(self, cap_cfg, codebook):
        bad = FeedbackBudget(c_fb=0.5, r_bits=4, t_blocks=4)
        with pytest.raises(ValueError):
            run_feedback_session(cap_cfg, bad, codebook, n_blocks=40, seed=1)

    def test_session_shorter_than_interval_rejected(self, cap_cfg, budget, codebook):
        with pytest.raises(ValueError):
            run_feedback_session(cap_cfg, budget, codebook, n_blocks=2, seed=1)

    def test_epoch_distortion_respects_converse(self, params, cap_cfg, budget, codebook):
        dists = []
        for s in range(20):
            trace = run_feedback_session(cap_cfg, budget, codebook, n_blocks=48, seed=100 + s)
            dists.append(trace.mean_epoch_distortion(discard=5))
        alpha = autocorrelation(params, budget.t_blocks)
        d_bound = distortion_from_rate(params, alpha, budget.r_bits)
        assert np.mean(dists) >= 0.95 * d_bound

    def test_determinism(self, cap_cfg, budget, codebook):
        a = run_feedback_session(cap_cfg, budget, codebook, n_blocks=20, seed=5)
        b = run_feedback_session(cap_cfg, budget, codebook, n_blocks=20, seed=5)
        for ra, rb in zip(a.records, b.records):
            assert np.array_equal(ra.h_hat, rb.h_hat)
            assert ra.capacity == rb.capacity


class TestBootstrap:
    def test_bootstrap_produces_valid_codebook(self, cap_cfg, budget):
        cb = bootstrap_codebook(cap_cfg, budget, n_samples=2000, seed=3, rounds=2)
        assert len(cb.entries) == 2 ** budget.r_bits
        assert cb.training_meta["interval"] == budget.t_blocks


class TestSerialization:
    def test_round_trip(self, tmp_path, params, budget, codebook):
        path = tmp_path / "cb.txt"
        save_codebook(path, codebook, params, budget.t_blocks)
        loaded, header = load_codebook(path)
        assert loaded.rate_bits == codebook.rate_bits
        assert np.allclose(loaded.entries, codebook.entries, atol=1e-15)
        assert header["t_blocks"] == budget.t_blocks
        assert header["n_r"] == 2 and header["n_t"] == 2

    def test_version_check(self, tmp_path, params, budget, codebook):
        path = tmp_path / "cb.txt"
        save_codebook(path, codebook, params, budget.t_blocks)
        text = path.read_text().splitlines()
        text[0] = text[0].replace('"version": 1', '"version": 99')
        path.write_text("\n".join(text) + "\n")
        with pytest.raises(ValueError):
            load_codebook(path)
