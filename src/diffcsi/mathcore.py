"""Deterministic numerical primitives shared by every other module.

Bessel J0 and J1 (numpy only), the closed forms' float-or-array calls, seeded
random substreams, a prefetching normal stream, complex Gaussian sampling and
the finiteness check.
"""

from __future__ import annotations

import functools
import inspect
import math
import queue
import threading
from dataclasses import dataclass

import numpy as np

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


def _float_or_array(kernel):
    """Call kernel(first, *rest) with `rest` broadcast to flat float arrays and
    give the result their shape, or a Python float if all of `rest` are scalars.
    A float runs as an array of one, not as a 0-d array: numpy computes on those
    with scalar math, whose bits can differ from its array loops'."""
    signature = inspect.signature(kernel)

    @functools.wraps(kernel)
    def call(*args, **kwargs):
        first, *rest = signature.bind(*args, **kwargs).args
        rest = np.broadcast_arrays(*(np.asarray(a, dtype=float) for a in rest))
        out = kernel(first, *(a.reshape(-1) for a in rest))
        return float(out[0]) if rest[0].ndim == 0 else out.reshape(rest[0].shape)
    return call


# |x| < _HANKEL_FROM: the trapezoid rule on Bessel's integrals
#   J0(x) = (1/pi) int_0^pi cos(x sin t) dt,
#   J1(x) = (1/pi) int_0^pi sin t sin(x sin t) dt.
# Both integrands have period pi, so the rule's error falls exponentially in
# the node count (Trefethen & Weideman, SIAM Review 56, 2014): at 88 nodes it
# is below 1e-100 for |x| < 25 and only rounding, under 5e-16, is left.
_NODES = 88
_SIN_NODES = np.sin(np.arange(_NODES) * (math.pi / _NODES))
_HANKEL_FROM = 25.0
# |x| >= _HANKEL_FROM: Hankel's expansion (DLMF 10.17.3), sqrt(pi x) J(x) =
#   order 0: (cos x + sin x) P0(x) + (cos x - sin x) Q0(x),
#   order 1: (sin x - cos x) P1(x) + (sin x + cos x) Q1(x),
# with P = sum_k (-1)^k a_2k / x^2k and Q = sum_k (-1)^k a_(2k+1) / x^(2k+1).
# Its terms shrink while k < 2x, so from x = 25 on they shrink through all
# 20 kept terms (k < 20); the first one left out is below 5e-18 at x = 25
# and smaller beyond.
_HANKEL_TERMS = 20


def _hankel_coefficients(order: int) -> tuple[list, list]:
    """(-1)^k a_2k and (-1)^k a_(2k+1) of J_order, highest power first."""
    a = [1.0]
    for k in range(1, _HANKEL_TERMS):
        a.append(a[-1] * (4 * order * order - (2 * k - 1) ** 2) / (8 * k))
    signed = [c if k % 4 < 2 else -c for k, c in enumerate(a)]
    return signed[-2::-2], signed[::-2]


_HANKEL = [_hankel_coefficients(order) for order in (0, 1)]


@_float_or_array
def _bessel(order: int, x):
    """J0 or J1 of the flat array x."""
    if (bad := ~np.isfinite(x)).any():
        raise ValueError(f"bessel_j{order}: non-finite argument {x[bad][0]}")
    ax = np.abs(x)
    out = np.empty_like(ax)
    near = ax < _HANKEL_FROM
    if near.any():
        phase = ax[near, None] * _SIN_NODES
        integrand = np.cos(phase) if order == 0 else _SIN_NODES * np.sin(phase)
        out[near] = integrand.mean(axis=1)
    if not near.all():
        far = ax[~near]
        p_coef, q_coef = _HANKEL[order]
        with np.errstate(over="ignore"):  # far^2 = inf gives 1/far^2 = 0, as it should
            inv2 = 1.0 / (far * far)
        p = np.polyval(p_coef, inv2)
        q = np.polyval(q_coef, inv2) / far
        c, s = np.cos(far), np.sin(far)
        if order == 0:
            out[~near] = ((c + s) * p + (c - s) * q) / np.sqrt(math.pi * far)
        else:
            out[~near] = ((s - c) * p + (s + c) * q) / np.sqrt(math.pi * far)
    return np.where(x < 0, -out, out) if order == 1 else out  # J1 is odd


def bessel_j0(x):
    """Zero-order Bessel function of the first kind, J0(x), of a float or an array."""
    return _bessel(0, x)


def bessel_j1(x):
    """First-order Bessel function of the first kind, J1(x) = -d/dx J0(x)."""
    return _bessel(1, x)


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


_PREFETCH = 1 << 14  # normals per batch the prefetch thread draws
_PREFETCH_FLOOR = 256  # least normals per row of a batch, so many rows still draw in runs


class _Prefetch:
    """Standard normals of one generator per row, drawn ahead on one daemon thread.

    Used as a context manager around generators.  With one generator,
    standard_normal(shape) returns its next prod(shape) normals.  With B
    generators, shape[0] must be B, and row i holds generator i's next
    prod(shape[1:]) normals.  In either case they are, in order, the values
    the generators themselves would return, since a generator's normals do
    not depend on how its draws are split.  The thread draws batches of
    max(_PREFETCH_FLOOR, _PREFETCH // B) normals per row, each row filled in
    place by its own generator, and keeps up to two batches queued while the
    caller computes.  It calls nothing but the generators.  An error it hits
    is raised at the caller's next read; leaving the block stops and joins
    the thread.
    """

    def __init__(self, *gens: np.random.Generator):
        self._gens = gens
        self._batch = (len(gens), max(_PREFETCH_FLOOR, _PREFETCH // len(gens)))
        self._queue = queue.Queue(maxsize=2)
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._produce, name="diffcsi-prefetch",
                                        daemon=True)
        self._buf = np.empty((len(gens), 0))

    def _produce(self) -> None:
        try:
            while not self._stop.is_set():
                batch = np.empty(self._batch)
                for gen, row in zip(self._gens, batch):
                    gen.standard_normal(out=row)
                self._queue.put(batch)
        except BaseException as exc:  # the reader raises it; a lost error would hang it
            self._queue.put(exc)

    def __enter__(self) -> "_Prefetch":
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        # the stop is set before the drain, so the thread puts at most one
        # more item, into a queue with room, and then returns
        self._stop.set()
        while True:
            try:
                self._queue.get_nowait()
            except queue.Empty:
                break
        self._thread.join()

    def standard_normal(self, shape) -> np.ndarray:
        rows = len(self._gens)
        if rows > 1 and tuple(shape)[:1] != (rows,):
            raise ValueError(f"a read from {rows} generators needs shape[0] == {rows}, "
                             f"got shape {shape}")
        k = math.prod(shape) // rows
        parts, have = [self._buf], self._buf.shape[1]
        while have < k:
            batch = self._queue.get()
            if isinstance(batch, BaseException):
                self._queue.put(batch)  # a later read raises it as well
                raise batch
            parts.append(batch)
            have += batch.shape[1]
        # a read that starts on a batch boundary and takes one batch is no copy
        parts = [a for a in parts if a.size] or [self._buf]
        drawn = parts[0] if len(parts) == 1 else np.concatenate(parts, axis=1)
        self._buf = drawn[:, k:]
        return drawn[:, :k].reshape(shape)


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
    pairs = rng.standard_normal((*shape, 2))
    pairs *= math.sqrt(variance / 2.0)  # in place: the same product, no second array
    return pairs.view(complex)[..., 0]
