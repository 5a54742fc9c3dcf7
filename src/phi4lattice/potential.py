"""Truncated quartic potentials and the negative Sobolev and Holder proxy norms.

``TruncatedPotential(n)`` is the C^1 even function equal to ``x^4/4`` on
``|x| <= n`` and to the plateau ``n^4/4 + 1`` on ``|x| >= n+1``, joined on
``[n, n+1]`` by a quintic Hermite blend matching value and slope at both
ends (and curvature at the plateau end, so the landing is flat).  ``n = inf``
gives the plain quartic.

The derivative cap ``|F_n'| <= n^3`` holds for every n >= 2: the blend slope
is ``n^3 (1 - 18 s^2 + 32 s^3 - 15 s^4) + 30 s^2 (1-s)^2``, whose first term
starts at the cap and decreases while the correction is dominated once
``n^3 >= 30/18``.  For n = 1 the cap is unattainable by any C^1 function
with these boundary data: the blend must climb by exactly 1 over a width-1
interval at slope cap 1, which forces ``F' = 1`` identically and contradicts
the flat landing.  The n = 1 blend realises ``sup |F_1'| < 1.52``.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .lattice import BoxRegion, LatticeGrid, spectrum

__all__ = ["TruncatedPotential", "sobolev_norm_sq", "holder_norm_neg"]


def _blend_coefficients(n: int) -> np.ndarray:
    """Quintic coefficients (a, b, c) for h(s) = F(n) + n^3 s + a s^3 + b s^4
    + c s^5 on the unit blend interval, with h(1) = n^4/4 + 1, h'(1) = 0,
    h''(1) = 0.  Closed form: a = 10 - 6 n^3, b = 8 n^3 - 15, c = 6 - 3 n^3."""
    r1 = 1.0 - n**3
    r2 = -float(n**3)
    r3 = 0.0
    m = np.array([[1.0, 1.0, 1.0], [3.0, 4.0, 5.0], [6.0, 12.0, 20.0]])
    return np.linalg.solve(m, np.array([r1, r2, r3]))


@dataclass(frozen=True)
class TruncatedPotential:
    """Even C^2 truncation of x^4/4 with a bounded derivative."""

    n: float  # positive integer or math.inf
    _abc: tuple[float, float, float] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        if self.n != math.inf:
            if self.n != int(self.n) or self.n < 1:
                raise ValueError(f"truncation index must be a positive integer or inf, got {self.n}")
            abc = _blend_coefficients(int(self.n))
            object.__setattr__(self, "_abc", (float(abc[0]), float(abc[1]), float(abc[2])))
        else:
            object.__setattr__(self, "_abc", (0.0, 0.0, 0.0))

    @property
    def plateau(self) -> float:
        if self.n == math.inf:
            return math.inf
        return self.n**4 / 4.0 + 1.0

    def value(self, x) -> np.ndarray | float:
        x = np.asarray(x, dtype=float)
        ax = np.abs(x)
        if self.n == math.inf:
            out = 0.25 * ax**4
        else:
            n = self.n
            a, b, c = self._abc
            s = np.clip(ax - n, 0.0, 1.0)
            blend = 0.25 * n**4 + n**3 * s + a * s**3 + b * s**4 + c * s**5
            out = np.where(ax <= n, 0.25 * ax**4, np.where(ax >= n + 1.0, self.plateau, blend))
        return out if out.ndim else float(out)

    def deriv(self, x) -> np.ndarray | float:
        x = np.asarray(x, dtype=float)
        sign = np.sign(x)
        ax = np.abs(x)
        if self.n == math.inf:
            out = sign * ax**3
        else:
            n = self.n
            a, b, c = self._abc
            s = np.clip(ax - n, 0.0, 1.0)
            blend = n**3 + 3.0 * a * s**2 + 4.0 * b * s**3 + 5.0 * c * s**4
            out = sign * np.where(ax <= n, ax**3, np.where(ax >= n + 1.0, 0.0, blend))
        return out if out.ndim else float(out)

    def derivative_sup(self, n_points: int = 100_001) -> float:
        """Numerical sup of |F'| (attained in [0, n+1] by evenness and the plateau)."""
        if self.n == math.inf:
            return math.inf
        x = np.linspace(0.0, self.n + 1.0, n_points)
        return float(np.max(np.abs(self.deriv(x))))

    __call__ = value


def sobolev_norm_sq(values: np.ndarray, grid: LatticeGrid, alpha: float) -> float | np.ndarray:
    """Squared negative-Sobolev norm ``sum_{k != 0} |fhat(k)|^2 mu(k)^-alpha``.

    ``f`` is the array ``values`` on ``grid``, and ``fhat`` is the transform
    unitary for the eps^d-weighted inner product (``sum |fhat|^2 = eps^d sum
    f^2``), so at ``alpha = 0`` the value equals ``eps^d sum (f - mean f)^2``.  By Parseval it is evaluated as ``eps^d
    sum f * (mu^-alpha f)``, with the mode-0 multiplier set to 0.  ``phi4
    run`` records its square, times ``beta / 4``, as the W observable.

    A leading batch shape passes through: one field gives a float, a stack an
    array over the leading axes, each entry with the bytes of its own call.
    """
    sp = spectrum(grid)
    mult = np.zeros_like(sp.mu)
    np.power(sp.mu, -alpha, out=mult, where=sp.mu > 0)
    lead = np.shape(values)[: np.ndim(values) - grid.d]
    # one flat sum per field: summing over an axes tuple moves the last bit at d >= 2
    prod = (values * sp.apply(values, mult)).reshape(lead + (-1,))
    out = grid.eps**grid.d * np.sum(prod, axis=-1)
    return out if lead else float(out)


@functools.cache
def _block_masks(grid: LatticeGrid) -> np.ndarray:
    """Littlewood-Paley blocks by physical frequency: |k|_inf/L in [2^(j-1), 2^j).

    Stacked boolean masks on the half spectrum, block index first.  Block 0
    collects |k|/L < 1 (the mean plus sub-unit modes on tori larger than 1),
    so proxy norms are comparable across torus extents at a fixed grid scale.
    """
    n = grid.sites_per_axis
    k = np.abs(np.fft.fftfreq(n, d=1.0 / n)) / grid.L
    kmag = np.max(np.meshgrid(*[k] * (grid.d - 1), k[: n // 2 + 1], indexing="ij"), axis=0)
    masks = [kmag < 1.0]
    j = 1
    while 2 ** (j - 1) <= kmag.max():
        masks.append((kmag >= 2 ** (j - 1)) & (kmag < 2**j))
        j += 1
    masks = np.array(masks)
    masks.setflags(write=False)  # shared by every caller of the cache
    return masks


def holder_norm_neg(values: np.ndarray, grid: LatticeGrid, alpha: float,
                    domain: BoxRegion | None = None) -> float | np.ndarray:
    """Negative-regularity Holder norm proxy: ``max_j 2^(j alpha) sup |block_j f|``.

    ``f`` is the array ``values`` on ``grid``; with ``domain`` the sup runs over
    the sites in that box.
    Blocks are sharp Fourier annuli ``2^(j-1) <= |k|_inf < 2^j`` (block 0 is
    the spatial mean).  This is a documented norm-equivalent proxy; it is
    used consistently on both sides of every comparison in the package.
    A leading batch shape passes through as in :func:`sobolev_norm_sq`; a NaN
    in one field gives NaN in that field's entry only.
    """
    masks = _block_masks(grid)
    lead = np.shape(values)[: np.ndim(values) - grid.d]
    blocks = spectrum(grid).apply(np.expand_dims(values, -grid.d - 1), masks)
    if domain is not None:
        blocks = blocks[..., domain.mask(grid)]
    sups = np.max(np.abs(blocks.reshape(lead + (len(masks), -1))), axis=-1)
    out = np.max(2.0 ** (np.arange(len(masks)) * alpha) * sups, axis=-1)  # NaN in values propagates
    return out if lead else float(out)
