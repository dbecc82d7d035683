import numpy as np
import pytest

from diffcsi import lloydfb
from diffcsi.capacity import CapacityConfig
from diffcsi.channel import ChannelParams


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
