import threading

import numpy as np
import pytest

from diffcsi import capacity, lloydfb
from diffcsi.capacity import CapacityConfig
from diffcsi.channel import ChannelParams


def _prefetch_threads():
    return {t for t in threading.enumerate() if t.name == "diffcsi-prefetch"}


@pytest.fixture(autouse=True)
def no_prefetch_thread_left():
    """Fail a test that leaves a prefetch thread alive: a stream stops and
    joins its thread when its block ends, also when the block raises."""
    before = _prefetch_threads()
    yield
    left = _prefetch_threads() - before
    assert not left, f"{len(left)} diffcsi-prefetch thread(s) left alive"


@pytest.fixture
def params():
    """Reference configuration: 2x2, unit channel variance, noisy estimate."""
    return ChannelParams(n_t=2, n_r=2, sigma_h2=1.0, sigma_hhat2=1.2,
                         f_d=9.26, t_block=1e-3)


@pytest.fixture
def params_perfect():
    """Perfect estimation (sigma_hhat2 == sigma_h2)."""
    return ChannelParams(n_t=2, n_r=2, sigma_h2=1.0, sigma_hhat2=1.0,
                         f_d=9.26, t_block=1e-3)


@pytest.fixture
def cap_cfg(params):
    return CapacityConfig(params=params, snr_db=0.0, l_block=100)


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


@pytest.fixture
def diverging_lloyd(monkeypatch):
    """Patch the codeword search to mislabel every sample after its first
    pass: the partition is then not nearest-codeword, so a Lloyd training's
    distortion rises."""
    nearest = lloydfb._nearest
    calls = []

    def bad_nearest(rows, centers):
        labels = nearest(rows, centers)
        calls.append(1)
        return labels if len(calls) == 1 else (labels + 1) % len(centers)

    monkeypatch.setattr(lloydfb, "_nearest", bad_nearest)


@pytest.fixture
def inline_pool(monkeypatch):
    """Stub capacity.ProcessPoolExecutor with a pool that maps in this
    process, so nothing is forked.  Returns the max_workers of each pool
    built, in order."""
    sizes = []

    class InlinePool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables):
            return map(fn, *iterables)

    monkeypatch.setattr(capacity, "ProcessPoolExecutor", InlinePool)
    return sizes
