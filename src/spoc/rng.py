"""Counter-based noise streams with a fixed per-particle block layout.

One Philox stream per (seed, replication); the standard-normal stream is
consumed in global particle order, each particle owning a contiguous block of
`block_width` values (initial draw first, then the step increments).  Philox
normal output is a pure function of stream position, so blocks are identical
whatever the total particle count, chunking, or worker split -- this is what
makes milestone snapshots bit-identical to shorter runs.
"""

from __future__ import annotations

import numpy as np

_MASK64 = (1 << 64) - 1

# particles per bulk draw; a pure performance and memory knob (a sequential run
# holds one such buffer per replication), bit-neutral by construction
NOISE_CHUNK = 1024


def replication_stream(seed: int, replication: int) -> np.random.Generator:
    """Independent counter-based stream keyed by (seed, replication)."""
    key = np.array([int(seed) & _MASK64, int(replication) & _MASK64], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def block_width(dim: int, n_steps: int, init_draws: bool, dual_noise: bool) -> int:
    """Normal draws owned by one particle: initial point, dW per step, and the
    extra dB per step for the additive-plus-measure-free noise form."""
    w = n_steps * dim * (2 if dual_noise else 1)
    if init_draws:
        w += dim
    return w


class BlockStream:
    """Sequentially yields per-particle normal blocks from one replication stream."""

    def __init__(self, gen: np.random.Generator, width: int, chunk: int = NOISE_CHUNK):
        self._gen = gen
        self._width = width
        self._chunk = chunk
        self._buf = np.empty((0, width))
        self._pos = 0

    def take(self, count: int) -> np.ndarray:
        """Next `count` particle blocks, shape (count, width)."""
        out = np.empty((count, self._width))
        filled = 0
        while filled < count:
            if self._pos == self._buf.shape[0]:
                self._buf = self._gen.standard_normal((self._chunk, self._width))
                self._pos = 0
            take = min(count - filled, self._buf.shape[0] - self._pos)
            out[filled : filled + take] = self._buf[self._pos : self._pos + take]
            self._pos += take
            filled += take
        return out
