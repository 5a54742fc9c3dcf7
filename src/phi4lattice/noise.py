"""Seeded discrete space-time white noise with exact dyadic coarsening.

An increment over a time step ``dt`` carries independent ``N(0, dt * eps^-d)``
entries per lattice site (the law of the cell-averaged white noise).  Draws
come from a counter-based generator (Philox) keyed by ``(seed, stream_id)``
and indexed by a monotone draw counter, so any ``(seed, grid, counter)``
triple reproduces identical bytes regardless of how many draws preceded it
and across platforms.

Coupled multi-scale runs generate at the finest level and coarsen: the block
mean of the ``2^d`` child-cell values of one coarse cell has exactly the law
of the coarse-cell increment, and the coupling is the exact one induced by a
single underlying white noise.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .lattice import Field, GridError, LatticeGrid, project

__all__ = ["NoiseStream", "NoiseIncrement", "draw_increment", "coarsen"]


@dataclass
class NoiseIncrement:
    """Integrated noise over one step: per-site N(0, dt * eps^-d) draws."""

    grid: LatticeGrid
    dt: float
    values: np.ndarray

    def as_field(self, time: float = 0.0) -> Field:
        return Field(self.grid, self.values, time)


@dataclass
class NoiseStream:
    """Deterministic per-chain noise source.

    One stream has one owner; drawing advances ``counter`` by 1.  Distinct
    ``stream_id`` values (chain index, suite index, ...) derived from one
    config seed give statistically independent streams.
    """

    seed: int
    grid: LatticeGrid
    stream_id: int = 0
    counter: int = 0

    def _generator(self, draw_index: int) -> np.random.Generator:
        key = np.array([self.seed & 0xFFFFFFFFFFFFFFFF, self.stream_id & 0xFFFFFFFFFFFFFFFF],
                       dtype=np.uint64)
        ctr = np.array([0, 0, draw_index & 0xFFFFFFFFFFFFFFFF, 0], dtype=np.uint64)
        return np.random.Generator(np.random.Philox(counter=ctr, key=key))

    def standard_normals(self, shape: tuple[int, ...] | None = None) -> np.ndarray:
        """One batch of unit normals at the current counter; advances it."""
        if shape is None:
            shape = self.grid.shape
        gen = self._generator(self.counter)
        self.counter += 1
        return gen.standard_normal(shape)

    def draw(self, dt: float) -> NoiseIncrement:
        return draw_increment(self, dt)


def draw_increment(stream: NoiseStream, dt: float) -> NoiseIncrement:
    """Draw one increment: iid ``N(0, dt * eps^-d)`` per site."""
    if not dt > 0:
        raise ValueError(f"dt must be positive, got {dt}")
    scale = np.sqrt(dt * stream.grid.eps ** (-stream.grid.d))
    values = scale * stream.standard_normals()
    return NoiseIncrement(stream.grid, dt, values)


def coarsen(fine: NoiseIncrement, levels: int = 1) -> NoiseIncrement:
    """Block-average an increment onto the 2^levels coarser nested grid.

    The mean of the ``2^d`` fine values tiling one coarse cell has variance
    ``dt * (2 eps_fine)^-d``, i.e. exactly the coarse-cell law, and the joint
    law across scales is the one induced by a common underlying noise.
    """
    if levels < 1:
        raise ValueError("levels must be >= 1")
    g = fine.grid
    coarse_grid = LatticeGrid(g.d, g.L, g.N - levels)
    if coarse_grid.sites_per_axis < 1:
        raise GridError("cannot coarsen below 1 site per axis")
    return NoiseIncrement(coarse_grid, fine.dt, project(fine.as_field(), coarse_grid).values)
