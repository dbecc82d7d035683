"""Deterministic numerical primitives shared by every other module.

Bessel evaluation, seeded random substreams, complex Gaussian sampling
and the finiteness check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import special

__all__ = [
    "RngStream",
    "bessel_j0",
    "bessel_j1",
    "check_finite",
]


def check_finite(m: np.ndarray, name: str = "matrix") -> np.ndarray:
    """Reject NaN/Inf entries; returns the array unchanged."""
    m = np.asarray(m)
    if not np.all(np.isfinite(m)):
        raise ValueError(f"{name} contains non-finite entries")
    return m


def bessel_j0(x: float) -> float:
    """Zero-order Bessel function of the first kind, J0(x)."""
    if not math.isfinite(x):
        raise ValueError(f"bessel_j0: non-finite argument {x!r}")
    return float(special.j0(x))


def bessel_j1(x: float) -> float:
    """First-order Bessel function of the first kind, J1(x) = -d/dx J0(x)."""
    if not math.isfinite(x):
        raise ValueError(f"bessel_j1: non-finite argument {x!r}")
    return float(special.j1(x))


@dataclass(frozen=True)
class RngStream:
    """Counter-based substream selector.

    The same (master_seed, stream_id) pair always yields the same sample
    sequence, independently of platform and of how many other streams
    exist.  Distinct stream_ids give statistically independent substreams
    (numpy SeedSequence spawning keys).
    """

    master_seed: int
    stream_id: int = 0

    def generator(self) -> np.random.Generator:
        return np.random.default_rng(
            np.random.SeedSequence(entropy=self.master_seed, spawn_key=(self.stream_id,))
        )


def sample_cn(shape: tuple, variance: float, rng: np.random.Generator) -> np.ndarray:
    """I.i.d. CN(0, variance) draw of the shape tuple from the generator rng.

    ``variance`` is the per-entry E|x|^2; real and imaginary parts carry
    variance/2 each.  Zero variance returns zeros and draws nothing.  One
    standard_normal((*shape, 2)) call supplies interleaved [re, im] pairs,
    viewed as complex without a copy.
    """
    if variance < 0:
        raise ValueError(f"variance must be >= 0, got {variance}")
    if variance == 0.0:
        return np.zeros(shape, dtype=complex)
    pairs = math.sqrt(variance / 2.0) * rng.standard_normal((*shape, 2))
    return pairs.view(complex)[..., 0]
