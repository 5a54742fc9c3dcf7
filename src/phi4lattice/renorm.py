"""Lattice renormalisation constants: tadpole, sunset, and the mass counterterm.

``compute_c1`` is the stationary per-site variance of the linear (additive
noise) lattice dynamics with reference operator ``-lap + m2``; it centers the
second Wick power.  ``compute_c2`` is the lattice sunset value: the stationary
mean of the once-heat-integrated second Wick power times the second Wick
power at a point.  In d=3 they diverge as ``eps^-1`` and ``|log eps|``; both
are finite at every positive grid scale, and neither takes the observable
coupling, the test function or the truncation index as input.

The sunset is a sum over mode pairs coupled only through the aliased mode
``k + l``.  Writing ``1/(a_k + a_l + a_{k+l}) = int_0^inf e^{-(a_k + a_l +
a_{k+l}) t} dt`` factorises it at each time into one FFT convolution, so a
trapezoid rule in ``log t`` (``compute_c2``), or the geometric series over
time steps (``c2_discrete_time``), costs O(sites log sites) per node.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .lattice import LatticeGrid, mu_symbol

__all__ = ["RenormConstants", "compute_c1", "compute_c2", "c2_discrete_time"]

DEFAULT_M2 = 1.0
# Sunset integrands decay at least like e^{-3 m2 t}: truncations sit at e^-40, below
# double rounding; the trapezoid rule in log t converges exponentially in 1/step.
_TAIL, _LOG_STEP = 40.0, 0.2


@functools.cache  # pure in the hashable (grid, m2): computed once per grid
def compute_c1(grid: LatticeGrid, m2: float = DEFAULT_M2) -> float:
    """Tadpole constant ``L^-d sum_k [2 (mu(k) + m2)]^-1`` over all modes."""
    if not m2 > 0:
        raise ValueError(f"reference mass m2 must be positive, got {m2}")
    a = mu_symbol(grid) + m2
    return float(np.sum(1.0 / (2.0 * a)) / grid.L**grid.d)


def _pair_sum(f: np.ndarray, g: np.ndarray) -> float:
    """``sum_{k,l} f(k) f(l) g(k+l)`` over aliased modes: a cyclic convolution by FFT."""
    conv = np.fft.irfftn(np.fft.rfftn(f) ** 2, f.shape, tuple(range(f.ndim)))
    return float(np.sum(conv * g))


@functools.cache  # pure in the hashable (grid, m2): computed once per grid
def compute_c2(grid: LatticeGrid, m2: float = DEFAULT_M2) -> float:
    """Sunset constant ``(1/2) L^-2d sum_{k,l} [a_k a_l (a_k + a_l + a_{k+l})]^-1``.

    ``a = mu + m2`` and ``k + l`` is the aliased mode sum.
    """
    if not m2 > 0:
        raise ValueError(f"reference mass m2 must be positive, got {m2}")
    a = mu_symbol(grid) + m2
    total = 0.0  # trapezoid rule in s = log t; both end values are below e^-40 of the sum
    for t in np.exp(np.arange(-np.log(a.max()) - _TAIL, np.log(_TAIL / (3.0 * m2)), _LOG_STEP)):
        e = np.exp(-a * t)
        total += _LOG_STEP * t * _pair_sum(e / a, e)
    return 0.5 * total / grid.L ** (2 * grid.d)


def c2_discrete_time(grid: LatticeGrid, m2: float, dt: float) -> float:
    """Sunset value for the exact-OU / exponential-Euler time discretisation.

    When the linear tree is sampled exactly on a dt-grid and its heat
    integral is accumulated with exponential-Euler weights, the stationary
    product mean has the closed form obtained by replacing the time integral
    with the corresponding geometric sum.  Converges to :func:`compute_c2`
    as ``dt -> 0``; used to bound integrator bias in the Monte-Carlo checks.
    """
    if not (m2 > 0 and dt > 0):
        raise ValueError(f"m2 and dt must be positive, got m2={m2}, dt={dt}")
    a = mu_symbol(grid) + m2
    # term j >= 1 pairs e^{-a j dt} / a with the heat weight times e^{-a (j-1) dt}
    heat = -np.expm1(-a * dt) / a
    total, g = 0.0, heat
    for j in range(1, math.ceil(_TAIL / (3.0 * m2 * dt)) + 1):
        e = np.exp(-a * (j * dt))
        total += _pair_sum(e / a, g)
        g = heat * e
    return 0.5 * total / grid.L ** (2 * grid.d)


@dataclass(frozen=True)
class RenormConstants:
    """Counterterm bundle for one grid.

    ``c1`` is always the tadpole value (it centers the Wick powers in every
    dimension); ``c2`` is the sunset value in d=3 and 0 in d=1, 2 where the
    sunset does not diverge and plain Wick renormalisation suffices.  The
    drift counterterm is ``mass_counterterm = 3 c1 - 9 c2``.  Optional finite
    offsets expose the coupling-constant freedom; they default to 0.
    """

    c1: float
    c2: float

    @property
    def mass_counterterm(self) -> float:
        return 3.0 * self.c1 - 9.0 * self.c2

    @classmethod
    def for_grid(
        cls,
        grid: LatticeGrid,
        m2: float = DEFAULT_M2,
        c1_offset: float = 0.0,
        c2_offset: float = 0.0,
    ) -> "RenormConstants":
        c1 = compute_c1(grid, m2) + c1_offset
        c2 = compute_c2(grid, m2) + c2_offset if grid.d == 3 else c2_offset
        return cls(c1=c1, c2=c2)
