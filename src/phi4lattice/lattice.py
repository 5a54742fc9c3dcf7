"""Dyadic torus geometry, lattice fields and lattice/continuum operators.

The torus [0, L)^d is discretised into ``(L/eps)^d`` cubic cells of side
``eps = 2^-N``.  Sites sit at cell centers ``x_i = (i + 1/2) eps`` and are
ordered lexicographically in ``(x_1, ..., x_d)``; every serialisation and
FFT layout follows that ordering.  Coordinates in the symmetric convention
``[-L/2, L/2)`` are obtained through :func:`LatticeGrid.to_symmetric_coords`.

Fields pair with functions through ``weighted_pairing(f, g) = eps^d sum_y
f(y) g(y)``, the pairing consistent with the piecewise-constant embedding:
``<iota f, psi> = weighted_pairing(f, psi_eps)`` whenever ``psi_eps`` holds
the cell averages of ``psi`` (:func:`sample_test_function`).
"""

from __future__ import annotations

import functools
import math
import struct
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

__all__ = [
    "LatticeGrid",
    "Field",
    "BoxRegion",
    "TestFunction",
    "build_grid",
    "laplacian",
    "mu_symbol",
    "Spectrum",
    "spectrum",
    "LinearPropagator",
    "weighted_pairing",
    "sample_test_function",
    "block_mean",
    "project",
    "iota_refine",
    "write_snapshot",
    "read_snapshot",
]

GL_ORDER = 4
_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(GL_ORDER)

SNAPSHOT_MAGIC = b"PHI4"
SNAPSHOT_VERSION = 1
_HEADER_FMT = "<4sHBBddQ"
_HEADER_SIZE = struct.calcsize(_HEADER_FMT)


class GridError(ValueError):
    """Raised for invalid grid parameters or mismatched grids."""


@dataclass(frozen=True)
class LatticeGrid:
    """Geometry of the discretised torus [0, L)^d at dyadic level N.

    Attributes
    ----------
    d : int
        Spatial dimension (1, 2 or 3).
    L : float
        Torus side length (positive dyadic rational).
    N : int
        Dyadic refinement level; the grid scale is ``eps = 2^-N``.
    """

    d: int
    L: float
    N: int

    # computed once per grid: cached_property writes the instance dict, not a field
    @functools.cached_property
    def eps(self) -> float:
        return 2.0 ** (-self.N)

    @functools.cached_property
    def sites_per_axis(self) -> int:
        return round(self.L / self.eps)

    @functools.cached_property
    def shape(self) -> tuple[int, ...]:
        return (self.sites_per_axis,) * self.d

    @functools.cached_property
    def n_sites(self) -> int:
        return self.sites_per_axis**self.d

    def axis_coords(self) -> np.ndarray:
        """Cell-center coordinates along one axis, in [0, L)."""
        n = self.sites_per_axis
        return (np.arange(n) + 0.5) * self.eps

    def site_coords(self) -> np.ndarray:
        """Array of shape ``shape + (d,)`` with the coordinates of every site."""
        axes = [self.axis_coords()] * self.d
        mesh = np.meshgrid(*axes, indexing="ij")
        return np.stack(mesh, axis=-1)

    def to_symmetric_coords(self, x: np.ndarray) -> np.ndarray:
        """Map internal coordinates [0, L) to the symmetric window [-L/2, L/2)."""
        return np.mod(np.asarray(x) + self.L / 2.0, self.L) - self.L / 2.0

    def zero_field(self) -> "Field":
        return Field(self, np.zeros(self.shape))

    def is_refinement_of(self, coarse: "LatticeGrid") -> bool:
        return self.d == coarse.d and self.L == coarse.L and self.N >= coarse.N


def build_grid(d: int, L: float, N: int) -> LatticeGrid:
    """Construct and validate a grid.

    Requires ``d in {1, 2, 3}``, ``N >= 2``, ``L`` a positive dyadic rational
    with ``L * 2^N`` integral, and at least 4 sites per axis.
    """
    if d not in (1, 2, 3):
        raise GridError(f"dimension must be 1, 2 or 3, got {d}")
    if N < 2:
        raise GridError(f"dyadic level must satisfy N >= 2, got {N}")
    if not (L > 0) or not math.isfinite(L):
        raise GridError(f"side length must be positive and finite, got {L}")
    sites = L * 2.0**N
    if abs(sites - round(sites)) > 1e-12 or round(sites) < 1:
        raise GridError(f"L={L} is not a dyadic multiple of eps=2^-{N}")
    sites = round(sites)
    if sites < 4:
        raise GridError(f"sites_per_axis = {sites} < 4 (grid too coarse)")
    if sites**d > 2**28:
        raise GridError(f"total site count {sites ** d} exceeds the supported budget")
    grid = LatticeGrid(d=d, L=float(L), N=int(N))
    assert grid.eps * grid.sites_per_axis == grid.L
    return grid


@dataclass
class Field:
    """Real scalar field on a lattice at one time instant."""

    grid: LatticeGrid
    values: np.ndarray
    time: float = 0.0

    def __post_init__(self) -> None:
        self.values = np.asarray(self.values, dtype=np.float64)
        if self.values.shape != self.grid.shape:
            raise GridError(
                f"values shape {self.values.shape} does not match grid {self.grid.shape}"
            )

    def copy(self) -> "Field":
        return Field(self.grid, self.values.copy(), self.time)


@dataclass(frozen=True)
class BoxRegion:
    """Axis-aligned coordinate box, in the symmetric [-L/2, L/2) convention."""

    lo: tuple[float, ...]
    hi: tuple[float, ...]

    @functools.cache
    def axis_sites(self, grid: LatticeGrid) -> tuple[np.ndarray, ...]:
        """Per axis, the indices of the sites whose coordinate lies in the box's interval.

        The box is the product of these sets.  Built once per grid and read-only.
        """
        if (len(self.lo), len(self.hi)) != (grid.d, grid.d):
            raise GridError(f"a box with {len(self.lo)}-d lower and {len(self.hi)}-d upper "
                            f"bounds does not fit a {grid.d}-d grid")
        c = grid.to_symmetric_coords(grid.axis_coords())
        sites = tuple(np.flatnonzero((c >= lo) & (c <= hi)) for lo, hi in zip(self.lo, self.hi))
        for idx in sites:
            idx.setflags(write=False)
        return sites

    @functools.cache
    def mask(self, grid: LatticeGrid) -> np.ndarray:
        """Sites inside the box, the product of :meth:`axis_sites`; once per grid, read-only."""
        mask = np.zeros(grid.shape, dtype=bool)
        mask[np.ix_(*self.axis_sites(grid))] = True
        mask.setflags(write=False)
        return mask


def _ensure_same_grid(f: Field, g: Field | np.ndarray) -> np.ndarray:
    if isinstance(g, Field):
        if g.grid != f.grid:
            raise GridError("fields live on different grids")
        return g.values
    g = np.asarray(g, dtype=np.float64)
    if g.shape != f.grid.shape:
        raise GridError(f"sampled function shape {g.shape} does not match grid")
    return g


def stencil_laplacian(values: np.ndarray, d: int, eps: float) -> np.ndarray:
    """Nearest-neighbour Laplacian over the trailing ``d`` axes, periodic.

    A leading batch axis passes through.
    """
    out = np.zeros_like(values)
    for axis in range(1, d + 1):
        out += np.roll(values, 1, axis=-axis) + np.roll(values, -1, axis=-axis) - 2.0 * values
    out /= eps**2
    return out


def laplacian(f: Field) -> Field:
    """Nearest-neighbour Laplacian with periodic wraparound.

    ``(lap f)(x) = eps^-2 sum_i [f(x+eps e_i) + f(x-eps e_i) - 2 f(x)]``.
    """
    return Field(f.grid, stencil_laplacian(f.values, f.grid.d, f.grid.eps), f.time)


def mu_symbol(grid: LatticeGrid) -> np.ndarray:
    """Fourier symbol of ``-laplacian``: mu(k) = (4/eps^2) sum_i sin^2(pi k_i / n).

    Indexed by the FFT mode grid (shape ``grid.shape``); mu(0) = 0 and
    mu(k) > 0 otherwise.  A plane wave ``Re exp(2 pi i k.x / L)`` is an
    eigenvector of the lattice Laplacian with eigenvalue ``-mu(k)``.
    """
    n = grid.sites_per_axis
    k = np.arange(n)
    s = (4.0 / grid.eps**2) * np.sin(np.pi * k / n) ** 2
    total = np.zeros(grid.shape)
    for axis in range(grid.d):
        sh = [1] * grid.d
        sh[axis] = n
        total = total + s.reshape(sh)
    return total


class Spectrum:
    """Fourier transforms of real lattice fields on one grid.

    Fields are real and every lattice multiplier is even in k, so transforms
    are the real-input ``rfftn`` / ``irfftn`` pair and multipliers live on its
    half spectrum (last axis cut to ``n // 2 + 1``), where ``mu`` holds the
    symbol of ``-laplacian``.  Transforms act on the trailing d axes (a
    leading batch axis passes through).  Each runs the numpy n-d transform's
    own 1-d steps (the bytes are the same), which skips its per-call argument
    handling: the forward one ``rfft`` on the last axis, then ``fft`` in place
    over the others in reverse order.  They look ``np.fft`` up at call time,
    so FFT hooks see every call.  Given ``out``, they write into it and make
    no temporary of the field's size.  :func:`spectrum` caches one per grid.
    """

    def __init__(self, grid: LatticeGrid):
        self.grid = grid
        self.n = grid.sites_per_axis  # transform length on every axis
        self.axes = tuple(range(-grid.d, 0))
        self.mu = mu_symbol(grid)[..., : self.n // 2 + 1]
        self.mu.setflags(write=False)  # shared by every caller of the cached spectrum

    def fft(self, values: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """Forward transform, ``rfftn``'s steps: into ``out`` when given, else a new array."""
        spec = np.fft.rfft(values, self.n, -1, out=out)
        for axis in self.axes[-2::-1]:
            np.fft.fft(spec, self.n, axis, out=spec)
        return spec

    def ifft(self, spec: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """Inverse transform; with ``out`` it works in place in ``spec``, which it overwrites."""
        if out is None:
            return np.fft.irfftn(spec, self.grid.shape, self.axes)
        # irfftn's own steps, the complex ones written back into spec
        for axis in self.axes[:-1]:
            np.fft.ifft(spec, self.n, axis, out=spec)
        return np.fft.irfft(spec, self.n, -1, out=out)

    def apply(self, values: np.ndarray, mult: np.ndarray) -> np.ndarray:
        """Multiply by a Fourier multiplier: ``ifft(fft(values) * mult)``."""
        return self.ifft(self.fft(values) * mult)


spectrum = functools.cache(Spectrum)


class LinearPropagator(Spectrum):
    """Fourier multipliers of ``A = -laplacian + m2`` for one grid and step ``dt``.

    IMEX solve ``(1 + dt A)^-1``, exact OU decay ``exp(-dt A)`` and noise
    filter, stationary filter ``(eps^-d / 2A)^(1/2)``, exponential-Euler weight
    ``(1 - exp(-dt A)) / A`` and per-site noise scale ``sqrt(dt eps^-d)``.
    """

    def __init__(self, grid: LatticeGrid, m2: float, dt: float):
        super().__init__(grid)
        self.m2 = m2
        self.dt = dt
        self.a = self.mu + m2
        self.imex_mult = 1.0 / (1.0 + dt * self.a)
        self.ou_decay = np.exp(-dt * self.a)
        self.ou_noise_mult = np.sqrt(
            -np.expm1(-2.0 * dt * self.a) / (2.0 * self.a) * grid.eps ** (-grid.d)
        )
        self.exp_euler_weight = dt * (-np.expm1(-dt * self.a) / (dt * self.a))
        self.stationary_mult = np.sqrt(grid.eps ** (-grid.d) / (2.0 * self.a))
        self.noise_scale = math.sqrt(dt * grid.eps ** (-grid.d))


def weighted_pairing(f: Field, g: Field | np.ndarray) -> float:
    """Volume-weighted pairing ``eps^d sum_y f(y) g(y)``.

    This is the pairing consistent with the piecewise-constant embedding.
    """
    gv = _ensure_same_grid(f, g)
    return float(f.grid.eps**f.grid.d * np.sum(f.values * gv))


def _box_integrals(grid: LatticeGrid, phi: Callable[[np.ndarray], np.ndarray]) -> np.ndarray:
    """Integral of ``phi`` over every lattice cell, by tensorised Gauss-Legendre.

    Exact for per-cell polynomials up to degree 2*GL_ORDER-1 per axis, and in
    particular for per-cell-constant integrands.
    """
    half = grid.eps / 2.0
    centers = grid.site_coords()
    offsets_1d = _GL_NODES * half
    weights_1d = _GL_WEIGHTS * half
    integrals = np.zeros(grid.shape)
    for idx in np.ndindex(*(GL_ORDER,) * grid.d):
        offset = np.array([offsets_1d[i] for i in idx])
        w = float(np.prod([weights_1d[i] for i in idx]))
        pts = centers + offset
        vals = phi(pts.reshape(-1, grid.d)).reshape(grid.shape)
        integrals += w * vals
    return integrals


@dataclass(frozen=True)
class TestFunction:
    """Smooth compactly supported radial bump with certified bounds.

    ``psi(x) = amplitude * exp(1 - 1/(1 - s^2))`` for ``s = |x - center|_2 /
    radius < 1`` and 0 otherwise.  ``sup_norm`` and ``grad_sup_norm`` are
    numerically certified upper bounds, kept <= 1 by the default constructor.
    """

    center: tuple[float, ...]
    radius: float
    amplitude: float
    sup_norm: float
    grad_sup_norm: float

    # max_s |d/ds exp(1 - 1/(1-s^2))| on [0, 1), certified on a dense grid
    _PROFILE_GRAD_MAX = 2.1704

    @classmethod
    def bump(
        cls,
        d: int,
        center: Sequence[float] | None = None,
        radius: float = 0.35,
        amplitude: float | None = None,
    ) -> "TestFunction":
        """Bump normalised so that ``|psi| <= 1`` and ``|D psi| <= 1``."""
        if center is None:
            center = (0.0,) * d
        if amplitude is None:
            amplitude = min(1.0, 0.99 * radius / cls._PROFILE_GRAD_MAX)
        sup = amplitude
        grad = amplitude * cls._PROFILE_GRAD_MAX / radius
        if sup > 1.0 + 1e-12 or grad > 1.0 + 1e-12:
            raise ValueError(
                f"bump certificates exceed 1 (sup={sup:.3g}, grad={grad:.3g}); "
                "reduce the amplitude or enlarge the radius"
            )
        return cls(tuple(float(c) for c in center), float(radius), float(amplitude), sup, grad)

    @property
    def d(self) -> int:
        return len(self.center)

    def __call__(self, points: np.ndarray, L: float | None = None) -> np.ndarray:
        pts = np.asarray(points, dtype=float)
        squeeze = pts.ndim == 1
        pts = pts.reshape(-1, self.d)
        diff = pts - np.asarray(self.center)
        if L is not None:
            diff = np.mod(diff + L / 2.0, L) - L / 2.0
        s2 = np.sum(diff**2, axis=1) / self.radius**2
        out = np.zeros(len(pts))
        inside = s2 < 1.0
        out[inside] = self.amplitude * np.exp(1.0 - 1.0 / (1.0 - s2[inside]))
        return out[0] if squeeze else out

    def fits_in_torus(self, L: float) -> bool:
        return self.radius <= L / 2.0


def sample_test_function(psi: TestFunction, grid: LatticeGrid) -> np.ndarray:
    """Cell averages ``psi_eps(y) = eps^-d integral over the cell of psi``.

    Satisfies ``|psi_eps(y)| <= sup |psi|``, and ``weighted_pairing(f,
    psi_eps)`` is the pairing of the piecewise-constant extension of ``f``
    with ``psi``.
    """
    if psi.d != grid.d:
        raise GridError(f"test function dimension {psi.d} != grid dimension {grid.d}")
    if not psi.fits_in_torus(grid.L):
        raise GridError(f"support of radius {psi.radius} does not fit in torus L={grid.L}")
    integrals = _box_integrals(grid, lambda pts: psi(pts, L=grid.L))
    return integrals / grid.eps**grid.d


def iota_refine(f: Field, levels: int = 1) -> Field:
    """Piecewise-constant extension of ``f`` onto a 2^levels finer grid.

    Realises the embedding concretely between nested lattices: each cell
    value is replicated onto its ``2^(levels*d)`` child cells.
    """
    if levels < 0:
        raise GridError("levels must be nonnegative")
    grid = f.grid
    fine = LatticeGrid(grid.d, grid.L, grid.N + levels)
    r = 2**levels
    v = f.values
    for axis in range(grid.d):
        v = np.repeat(v, r, axis=axis)
    return Field(fine, v, f.time)


def block_mean(values: np.ndarray, r: int) -> np.ndarray:
    """Mean of every ``r^d`` block tiling a d-dimensional lattice array."""
    n = values.shape[0] // r
    v = values.reshape([n, r] * values.ndim)
    for axis in range(1, values.ndim + 1):
        v = v.mean(axis=axis)
    return v


def project(zeta: Field | Callable[[np.ndarray], np.ndarray], grid: LatticeGrid) -> Field:
    """Box-averaging projection onto ``grid``: ``eps^-d * integral over cells``.

    For a dyadically finer lattice field this is the exact block average and
    is a left inverse of :func:`iota_refine`.  For a callable it uses the
    fixed-order Gauss-Legendre cell quadrature.
    """
    if isinstance(zeta, Field):
        if not zeta.grid.is_refinement_of(grid):
            raise GridError(
                f"input grid (d={zeta.grid.d}, L={zeta.grid.L}, N={zeta.grid.N}) is not a "
                f"dyadic refinement of the target (d={grid.d}, L={grid.L}, N={grid.N})"
            )
        return Field(grid, block_mean(zeta.values, 2 ** (zeta.grid.N - grid.N)), zeta.time)
    integrals = _box_integrals(grid, zeta)
    return Field(grid, integrals / grid.eps**grid.d)


def write_snapshot(path, f: Field, seed: int = 0) -> None:
    """Serialise a field: PHI4 header + little-endian f64 lexicographic values."""
    header = struct.pack(
        _HEADER_FMT,
        SNAPSHOT_MAGIC,
        SNAPSHOT_VERSION,
        f.grid.d,
        f.grid.N,
        f.grid.L,
        f.time,
        seed & 0xFFFFFFFFFFFFFFFF,
    )
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(f.values.astype("<f8").tobytes(order="C"))


def read_snapshot(path) -> tuple[Field, int]:
    """Inverse of :func:`write_snapshot`; returns ``(field, seed)``."""
    with open(path, "rb") as fh:
        raw = fh.read(_HEADER_SIZE)
        magic, version, d, N, L, time, seed = struct.unpack(_HEADER_FMT, raw)
        if magic != SNAPSHOT_MAGIC:
            raise ValueError(f"bad snapshot magic {magic!r}")
        if version != SNAPSHOT_VERSION:
            raise ValueError(f"unsupported snapshot version {version}")
        grid = LatticeGrid(d=d, L=L, N=N)
        values = np.frombuffer(fh.read(), dtype="<f8").reshape(grid.shape).copy()
    return Field(grid, values, time), seed
