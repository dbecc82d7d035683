import math
import os
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diffcsi import mathcore
from diffcsi.mathcore import _PREFETCH, RngStream, _Prefetch, bessel_j0, bessel_j1, sample_cn

J0_FIRST_ZERO = 2.404825557695773


def series_j0(x, terms=60):
    """Independent ascending-series oracle for J0 (exact summation order)."""
    acc = []
    term = 1.0
    for k in range(terms):
        if k > 0:
            term *= -(x * x / 4.0) / (k * k)
        acc.append(term)
    return math.fsum(acc)


class TestBessel:
    def test_j0_at_zero(self):
        assert bessel_j0(0.0) == 1.0

    def test_j1_at_zero(self):
        assert bessel_j1(0.0) == 0.0

    def test_j0_first_zero(self):
        assert abs(bessel_j0(J0_FIRST_ZERO)) < 1e-9
        # the series oracle agrees the zero is here
        assert abs(series_j0(J0_FIRST_ZERO)) < 1e-12

    def test_j0_matches_series_oracle(self):
        for x in np.linspace(-8, 8, 97):
            assert bessel_j0(float(x)) == pytest.approx(series_j0(float(x)), abs=1e-12)

    def test_accuracy_against_mpmath(self):
        mp = pytest.importorskip("mpmath")
        for x in np.linspace(-20, 20, 161):
            assert abs(bessel_j0(float(x)) - float(mp.besselj(0, float(x)))) < 1e-12
            assert abs(bessel_j1(float(x)) - float(mp.besselj(1, float(x)))) < 1e-12

    def test_j1_is_negative_j0_derivative(self):
        h = 1e-6
        for x in np.linspace(0.05, 19.95, 200):
            fd = -(bessel_j0(x + h) - bessel_j0(x - h)) / (2 * h)
            assert bessel_j1(float(x)) == pytest.approx(fd, abs=1e-8)

    def test_j1_exceeds_j0_at_three_halves(self):
        assert bessel_j1(1.5) > bessel_j0(1.5)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_rejected(self, bad):
        with pytest.raises(ValueError):
            bessel_j0(bad)
        with pytest.raises(ValueError):
            bessel_j1(bad)


class TestBesselBranches:
    """The trapezoid branch below |x| = 25 and the Hankel branch from 25 on."""

    # both sides of the branch boundary, then log-spaced out to 1e8
    XS = np.concatenate([
        [24.0, 24.9, np.nextafter(25.0, 0.0), 25.0, np.nextafter(25.0, 30.0), 25.1, 26.0],
        np.logspace(-3, 8, 221),
    ])

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_matches_mpmath_both_branches(self, sign):
        mp = pytest.importorskip("mpmath")
        xs = sign * self.XS
        j0, j1 = bessel_j0(xs), bessel_j1(xs)
        with mp.workdps(40):
            for x, got0, got1 in zip(xs, j0, j1):
                # mpmath evaluates at the negative argument itself, so this
                # also checks that J0 is even and J1 is odd
                assert abs(got0 - float(mp.besselj(0, float(x)))) < 1e-14, x
                assert abs(got1 - float(mp.besselj(1, float(x)))) < 1e-14, x

    @pytest.mark.parametrize("fn", [bessel_j0, bessel_j1])
    def test_array_bitwise_equals_scalar_calls(self, fn):
        xs = np.concatenate([[0.0, -0.0, 25.0, -25.0], np.linspace(-60.0, 60.0, 97),
                             np.logspace(0, 8, 31)]).reshape(-1, 2)
        got = fn(xs)
        assert got.shape == xs.shape
        each = np.array([[fn(float(x)) for x in row] for row in xs])
        assert got.tobytes() == each.tobytes()
        assert type(fn(1.0)) is float

    def test_import_does_not_load_scipy(self):
        code = ("import sys\n"
                "import diffcsi.cli\n"
                "loaded = [m for m in sys.modules if m.split('.')[0] == 'scipy']\n"
                "raise SystemExit(f'scipy imported: {loaded}' if loaded else 0)\n")
        src = str(Path(__file__).resolve().parent.parent / "src")
        env = {**os.environ, "PYTHONPATH": src + os.pathsep + os.environ.get("PYTHONPATH", "")}
        proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                              text=True)
        assert proc.returncode == 0, proc.stderr


class TestComplexGaussian:
    def test_zero_variance_gives_zeros(self):
        rng = RngStream(1, 0).generator()
        m = sample_cn((3, 2), 0.0, rng)
        assert np.all(m == 0)
        # the degenerate draw consumes no randomness
        assert rng.standard_normal() == RngStream(1, 0).generator().standard_normal()

    def test_negative_variance_rejected(self):
        with pytest.raises(ValueError):
            sample_cn((2, 2), -0.1, RngStream(1, 0).generator())

    def test_per_entry_variance(self):
        rng = RngStream(99, 0).generator()
        total = 0.0
        n = 0
        # 10^5 draws of 2x2 entries; |x|^2 ~ Exp(1), 5 sigma = 0.008
        for _ in range(1000):
            m = sample_cn((20, 20), 1.0, rng)
            total += np.sum(np.abs(m) ** 2)
            n += m.size
        assert 0.99 < total / n < 1.01

    def test_determinism(self):
        a = sample_cn((4, 3), 2.0, RngStream(7, 5).generator())
        b = sample_cn((4, 3), 2.0, RngStream(7, 5).generator())
        assert np.array_equal(a, b)

    def test_substreams_differ(self):
        a = sample_cn((4, 3), 1.0, RngStream(7, 0).generator())
        b = sample_cn((4, 3), 1.0, RngStream(7, 1).generator())
        assert not np.array_equal(a, b)

    def test_order_independent_of_generation_schedule(self):
        # generating stream 3 before stream 1 must not change either
        s3_first = sample_cn((2, 2), 1.0, RngStream(42, 3).generator())
        s1_after = sample_cn((2, 2), 1.0, RngStream(42, 1).generator())
        s1_first = sample_cn((2, 2), 1.0, RngStream(42, 1).generator())
        s3_after = sample_cn((2, 2), 1.0, RngStream(42, 3).generator())
        assert np.array_equal(s3_first, s3_after)
        assert np.array_equal(s1_after, s1_first)


def _prefetch_threads():
    return [t for t in threading.enumerate() if t.name == "diffcsi-prefetch"]


class _FailingGenerator:
    """Returns `good` batches of normals, then raises."""

    def __init__(self, good):
        self.gen, self.good = RngStream(3, 0).generator(), good

    def standard_normal(self, size=None, out=None):
        if self.good == 0:
            raise RuntimeError("generator failed")
        self.good -= 1
        return self.gen.standard_normal(size, out=out)


def _read_until_failure(gens, shape, good):
    """Read good + 1 batches of the given shape, on a reader thread, from a
    stream whose last generator fails after `good` batches; the reader's
    errors, once it has finished."""
    caught = []

    def read():
        try:
            with _Prefetch(*gens, _FailingGenerator(good)) as rng:
                for _ in range(good + 1):
                    rng.standard_normal(shape)
        except RuntimeError as exc:
            caught.append(str(exc))

    reader = threading.Thread(target=read, daemon=True)
    reader.start()
    reader.join(timeout=30)
    assert not reader.is_alive(), "the reader hung on a failed producer"
    return caught


class TestPrefetch:
    def test_draws_bitwise_equal_the_generator(self):
        # reads smaller than, equal to and several times the batch, and
        # reads that straddle batch boundaries
        shapes = [(5,), (_PREFETCH,), (3, 2, 2, 2), (3, _PREFETCH), (0,),
                  (2, _PREFETCH + 1), (1,), (4, 2048, 2, 2, 2), (_PREFETCH - 7,)]
        with _Prefetch(RngStream(9, 4).generator()) as rng:
            got = [rng.standard_normal(shape) for shape in shapes]
        assert [g.shape for g in got] == shapes
        flat = np.concatenate([g.reshape(-1) for g in got])
        want = RngStream(9, 4).generator().standard_normal(flat.size)
        assert np.array_equal(flat, want)

    def test_sample_cn_reads_through_the_stream(self):
        with _Prefetch(RngStream(9, 5).generator()) as rng:
            got = [sample_cn((64, 2, 2), 0.7, rng) for _ in range(3)]
        gen = RngStream(9, 5).generator()
        assert all(np.array_equal(g, sample_cn((64, 2, 2), 0.7, gen)) for g in got)

    def test_concurrent_streams_under_fast_switching(self):
        # more streams than cores, with the interpreter switching threads
        # every microsecond: each reader still gets its generator's normals
        sizes = [3, _PREFETCH, 5 * _PREFETCH + 11, 7, 2 * _PREFETCH]
        results = {}

        def read(i):
            with _Prefetch(RngStream(11, i).generator()) as rng:
                results[i] = np.concatenate([rng.standard_normal((k,)) for k in sizes])

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            readers = [threading.Thread(target=read, args=(i,), daemon=True) for i in range(6)]
            for r in readers:
                r.start()
            for r in readers:
                r.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(r.is_alive() for r in readers), "a reader hung"
        for i in range(6):
            want = RngStream(11, i).generator().standard_normal(sum(sizes))
            assert np.array_equal(results[i], want)
        assert _prefetch_threads() == []

    def test_exception_in_block_stops_the_thread(self):
        with pytest.raises(KeyError):
            with _Prefetch(RngStream(1, 0).generator()) as rng:
                rng.standard_normal((10,))
                assert len(_prefetch_threads()) == 1
                raise KeyError("boom")
        assert _prefetch_threads() == []

    @pytest.mark.parametrize("good", [0, 3])
    def test_producer_error_reaches_the_reader(self, good):
        assert _read_until_failure([], (_PREFETCH,), good) == ["generator failed"]
        assert _prefetch_threads() == []

    @pytest.mark.parametrize("good", [0, 3])
    def test_producer_error_in_a_row_reaches_the_reader(self, good):
        # the last of three rows fails; each read takes one batch, since
        # _PREFETCH // 3 is above the floor
        gens = [RngStream(3, 1).generator(), RngStream(3, 2).generator()]
        assert _read_until_failure(gens, (3, _PREFETCH // 3), good) == ["generator failed"]
        assert _prefetch_threads() == []

    # (_PREFETCH, floor, generators): per-row batches of 8 normals; of the
    # floor, 5, where 24 // 6 = 4 is below it; and one generator's batch of 24
    @pytest.mark.parametrize("prefetch, floor, rows", [(24, 5, 3), (24, 5, 6), (24, 5, 1)])
    def test_rows_bitwise_equal_their_generators(self, monkeypatch, prefetch, floor, rows):
        monkeypatch.setattr(mathcore, "_PREFETCH", prefetch)
        monkeypatch.setattr(mathcore, "_PREFETCH_FLOOR", floor)
        # per row: within a batch, a whole batch, none, reads that straddle one
        # and several batch boundaries, and a sample_cn-shaped read
        shapes = [(rows, 3), (rows, 5), (rows, 0), (rows, 8), (rows, 1), (rows, 2, 2, 2),
                  (rows, 17), (rows, 53), (rows, 2), (rows, 24)]
        gens = [RngStream(13, i).generator() for i in range(rows)]
        with _Prefetch(*gens) as rng:
            got = [rng.standard_normal(shape) for shape in shapes]
        assert [g.shape for g in got] == shapes
        per_row = np.concatenate([g.reshape(rows, -1) for g in got], axis=1)
        for i, row in enumerate(per_row):
            assert np.array_equal(row, RngStream(13, i).generator().standard_normal(row.size))

    @pytest.mark.parametrize("shape", [(3, 4), (1, 8), (2,), ()])
    def test_read_must_have_a_row_per_generator(self, shape):
        with _Prefetch(*(RngStream(14, i).generator() for i in range(4))) as rng:
            with pytest.raises(ValueError, match="shape"):
                rng.standard_normal(shape)
            # the refused read took nothing from the stream
            got = rng.standard_normal((4, 6))
        for i in range(4):
            assert np.array_equal(got[i], RngStream(14, i).generator().standard_normal(6))


@given(st.integers(min_value=0, max_value=2**63 - 1),
       st.integers(min_value=0, max_value=2**31))
@settings(max_examples=25, deadline=None)
def test_stream_reproducibility_property(seed, stream_id):
    a = sample_cn((2, 2), 1.0, RngStream(seed, stream_id).generator())
    b = sample_cn((2, 2), 1.0, RngStream(seed, stream_id).generator())
    assert np.array_equal(a, b)
