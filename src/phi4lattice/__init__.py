"""Lattice Langevin sampler for quartic scalar field dynamics on dyadic tori.

The package simulates the renormalised cubic Langevin dynamics of a scalar
field on periodic lattices in d = 1, 2, 3, together with a tilted variant
whose drift carries an extra quartic observable coupling.  Around the core
sampler it provides:

* exact embedding / block-averaging operators between lattice levels,
* seeded, coarsenable space-time white noise,
* lattice tadpole and sunset counterterms,
* a jointly-driven stochastic tree ensemble with dyadic-kernel seminorms,
* statistical verification suites (invariant-density reweighting,
  partition-function plateaus, tail exponents, a priori bound batteries,
  coupled-grid convergence studies).

Fields, noise increments and tree series are numpy arrays of the grid's shape,
and the norms, the noise coarsening and the test-function pairing act on them;
:class:`Field` adds the grid and time to initial conditions and snapshots.
"""

__version__ = "0.1.0"

from .lattice import LatticeGrid, Field, TestFunction, build_grid
from .noise import NoiseStream
from .renorm import RenormConstants, compute_c1, compute_c2
from .potential import TruncatedPotential

__all__ = [
    "LatticeGrid",
    "Field",
    "TestFunction",
    "build_grid",
    "NoiseStream",
    "RenormConstants",
    "compute_c1",
    "compute_c2",
    "TruncatedPotential",
    "__version__",
]
