"""Seeded discrete space-time white noise with exact dyadic coarsening.

An increment over a time step ``dt`` is an array of the grid's shape with
independent ``N(0, dt * eps^-d)`` entries per lattice site (the law of the
cell-averaged white noise).  Draws come from a counter-based generator
(Philox) keyed by ``(seed, stream_id)`` and indexed by a monotone draw
counter, so any ``(seed, grid, counter)`` triple reproduces identical bytes
regardless of how many draws preceded it and across platforms.

Coupled multi-scale runs generate at the finest level and coarsen: the block
mean of the ``2^d`` child-cell values of one coarse cell has exactly the law
of the coarse-cell increment, and the coupling is the exact one induced by a
single underlying white noise.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .lattice import GridError, LatticeGrid, block_mean

__all__ = ["NoiseStream", "draw_increment", "coarsen"]

# Draws of at least this many values prefetch the next draw on a worker thread;
# below it the hand-off costs more than the draw.
_PREFETCH_MIN = 8192
_executor: ThreadPoolExecutor | None = None


def _worker() -> ThreadPoolExecutor:
    """The one prefetch thread, started by the first draw that needs it."""
    global _executor
    if _executor is None:
        _executor = ThreadPoolExecutor(max_workers=1, thread_name_prefix="phi4-noise")
    return _executor


@dataclass
class NoiseStream:
    """Deterministic per-chain noise source.

    One stream has one owner; drawing advances ``counter`` by 1.  Distinct
    ``stream_id`` values (chain index, suite index, ...) derived from one
    config seed give statistically independent streams.

    A draw of at least :data:`_PREFETCH_MIN` values submits the draw at
    ``counter + 1`` of the same shape to a worker thread, so the next call
    can take it while the caller computes.  The next call uses it only when
    ``(seed, stream_id, counter, shape)`` still match; otherwise (a counter
    reset on resume, a new shape or stream id) it draws in the calling thread.
    Each draw depends only on that key, so the bytes are the same either way.
    """

    seed: int
    grid: LatticeGrid
    stream_id: int = 0
    counter: int = 0
    _gen: np.random.Generator | None = field(default=None, init=False, repr=False, compare=False)
    _pending: tuple | None = field(default=None, init=False, repr=False, compare=False)

    def _generator(self, draw_index: int) -> np.random.Generator:
        """The stream's one generator, reset to the start of draw ``draw_index``."""
        if self._gen is None:
            self._gen = np.random.Generator(np.random.Philox(0))
        mask = 0xFFFFFFFFFFFFFFFF
        self._gen.bit_generator.state = {
            "bit_generator": "Philox",
            "state": {"counter": (0, 0, draw_index & mask, 0),
                      "key": (self.seed & mask, self.stream_id & mask)},
            "buffer": (0, 0, 0, 0), "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}
        return self._gen

    def standard_normals(self, shape: tuple[int, ...] | None = None) -> np.ndarray:
        """One batch of unit normals at the current counter; advances it."""
        if shape is None:
            shape = self.grid.shape
        key = (self.seed, self.stream_id, self.counter, shape)
        out = None
        if self._pending is not None:
            # resolved, hit or miss, before the generator is touched again
            pending_key, future = self._pending
            self._pending = None
            drawn = future.result()
            if pending_key == key:
                out = drawn
        if out is None:
            out = self._generator(self.counter).standard_normal(shape)
        self.counter += 1
        if out.size >= _PREFETCH_MIN:
            # allocated here, not in the worker, so the worker thread keeps no malloc arena
            buf = np.empty(shape)
            gen = self._generator(self.counter)
            self._pending = ((self.seed, self.stream_id, self.counter, shape),
                             _worker().submit(gen.standard_normal, out=buf))
        return out

    def draw(self, dt: float) -> np.ndarray:
        return draw_increment(self, dt)


def draw_increment(stream: NoiseStream, dt: float) -> np.ndarray:
    """Draw one increment: iid ``N(0, dt * eps^-d)`` per site."""
    if not dt > 0:
        raise ValueError(f"dt must be positive, got {dt}")
    return np.sqrt(dt * stream.grid.eps ** (-stream.grid.d)) * stream.standard_normals()


def coarsen(values: np.ndarray, levels: int = 1) -> np.ndarray:
    """Block-average an increment onto the 2^levels coarser nested grid.

    The mean of the ``2^d`` fine values tiling one coarse cell has variance
    ``dt * (2 eps_fine)^-d``, i.e. exactly the coarse-cell law, and the joint
    law across scales is the one induced by a common underlying noise.
    """
    if levels < 1:
        raise ValueError("levels must be >= 1")
    if values.shape[0] < 2**levels:
        raise GridError("cannot coarsen below 1 site per axis")
    return block_mean(values, 2**levels)
