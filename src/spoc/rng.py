"""Counter-based noise streams with a fixed per-particle block layout.

One Philox stream per (seed, replication); the standard-normal stream is
consumed in global particle order, each particle owning a contiguous block of
`block_width` values (initial draw first, then the step increments).  Philox
normal output is a pure function of stream position, so a block does not
depend on how many blocks each take asked for, on the total particle count or
on the worker split -- this is what makes milestone snapshots bit-identical
to shorter runs.
"""

from __future__ import annotations

import numpy as np

_MASK64 = (1 << 64) - 1


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


def split_blocks(blocks: np.ndarray, dim: int, n_steps: int, init_draws: bool,
                 dual_noise: bool, dt: float):
    """Split (..., block_width) blocks into (z0, dw, db): the initial draws
    (..., dim), or (..., 0) without init_draws, and the dW and dB increments
    (..., n_steps, dim) scaled by sqrt(dt); db is None without dual_noise."""
    x0 = dim if init_draws else 0
    inc = blocks[..., x0:].reshape(blocks.shape[:-1] + (-1, n_steps, dim)) * np.sqrt(dt)
    return blocks[..., :x0], inc[..., 0, :, :], inc[..., 1, :, :] if dual_noise else None


class BlockStream:
    """Sequentially yields per-particle normal blocks from one replication stream."""

    def __init__(self, gen: np.random.Generator, width: int):
        self._gen = gen
        self._width = width

    def take(self, count: int) -> np.ndarray:
        """Next `count` particle blocks, shape (count, width)."""
        return self._gen.standard_normal((count, self._width))
