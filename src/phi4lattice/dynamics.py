"""Time integration of the renormalised lattice Langevin systems.

The base dynamic is ``du = [lap u + (3 c1 - 9 c2) u - u^3] dt + dxi`` with
``dxi`` the cell-averaged space-time white noise; the tilted variant adds
``beta F_n'(<iota u, psi>) psi_eps`` to the drift.  Integrators:

``imex``
    Linear-implicit Euler: ``(I - dt (lap - m2)) u' = u + dt (nonlinear
    drift + m2 u) + noise``, solved diagonally in Fourier space.  The fixed
    reference mass m2 only splits the linear solve; it cancels exactly in
    the drift, so the simulated equation is the one above.
``explicit``
    Forward Euler with a CFL guard ``dt <= eps^2 / (2 d)``.
``split``
    Strang splitting with the cubic flow integrated exactly
    (``u -> u / sqrt(1 + 2 h u^2)``), the rest as in ``imex``.  This is the
    integrator that survives arbitrarily large initial data, where the
    explicit cubic would overflow at any usable step size.
``exact_gaussian``
    For the quadratic test mode only (cubic and counterterm disabled):
    per-mode exact OU updates, so the chain samples the stationary Gaussian
    law with no time-discretisation bias at any dt.

The driving noise is additive, so no Ito/Stratonovich correction terms
arise anywhere.  Numerical blow-up (non-finite values) aborts with the step
index; it is never clamped.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Iterator

import numpy as np

from .lattice import (
    Field,
    GridError,
    LatticeGrid,
    LinearPropagator,
    TestFunction,
    build_grid,
    sample_test_function,
    stencil_laplacian,
)
from .noise import NoiseStream
from .potential import TruncatedPotential, holder_norm_neg, sobolev_norm_sq
from .renorm import RenormConstants

__all__ = [
    "SimConfig",
    "ChainState",
    "BlowUpError",
    "step",
    "run_chain",
    "RunResult",
    "BatchChain",
]

INTEGRATORS = ("imex", "explicit", "split", "exact_gaussian")

# run_chain keeps at most this many site values of recorded fields (at least one
# field) and computes their observables in one vectorised pass
RECORD_BLOCK_SITES = 2**13


class BlowUpError(RuntimeError):
    """Field left the finite range; reports the offending step index."""

    def __init__(self, step_index: int):
        super().__init__(
            f"field blow-up at step {step_index}: values became non-finite "
            "(the step size is too large for this configuration)"
        )
        self.step_index = step_index


@dataclass
class SimConfig:
    """Full configuration of a single Langevin chain."""

    d: int = 1
    L: float = 1.0
    N: int = 4
    dt: float = 1e-3
    t_end: float = 1.0
    integrator: str = "imex"
    m2: float = 1.0
    seed: int = 0
    stream_id: int = 0
    burn_in: int = 0
    thinning: int = 1
    snapshot_every: int = 0
    beta: float = 0.0
    potential_n: float = math.inf
    psi_radius: float = 0.35
    c1_offset: float = 0.0
    c2_offset: float = 0.0
    alpha: float = 0.6
    norm_kappa: float = 0.2
    quadratic: bool = False  # test mode: cubic and counterterm disabled

    def __post_init__(self) -> None:
        self.validate()

    def validate(self) -> None:
        if self.integrator not in INTEGRATORS:
            raise ValueError(
                f"unknown integrator {self.integrator!r}; choose from {INTEGRATORS}"
            )
        if not self.dt > 0:
            raise ValueError(f"dt must be positive, got {self.dt}")
        grid = self.grid()
        if self.integrator == "explicit":
            cfl = grid.eps**2 / (2.0 * self.d)
            if self.dt > cfl:
                raise ValueError(
                    f"explicit integrator violates the CFL bound dt <= eps^2/(2d) "
                    f"= {cfl:.3e} (got dt = {self.dt:.3e})"
                )
        if self.quadratic and self.beta != 0.0:
            raise ValueError("the quadratic test mode has no tilt: beta must be 0")
        if self.integrator == "exact_gaussian" and not self.quadratic:
            raise ValueError("exact_gaussian integration applies to the quadratic test mode only")
        if self.thinning < 1:
            raise ValueError("thinning stride must be >= 1")
        if self.burn_in < 0:
            raise ValueError("burn_in must be nonnegative")

    def grid(self) -> LatticeGrid:
        return build_grid(self.d, self.L, self.N)

    def n_steps(self) -> int:
        return int(round(self.t_end / self.dt))

    def test_function(self) -> TestFunction:
        return TestFunction.bump(self.d, center=(self.L / 2.0,) * self.d, radius=self.psi_radius)

    def renorm(self, grid: LatticeGrid) -> RenormConstants:
        return RenormConstants.for_grid(
            grid, m2=self.m2, c1_offset=self.c1_offset, c2_offset=self.c2_offset
        )


@dataclass
class ChainState:
    """Where one chain stands: field, step index and noise stream (resume input and result)."""

    field: Field
    step: int
    stream: NoiseStream


class _Stepper:
    """Precomputed kernels for one grid/config; :meth:`advance` writes the next values.

    The ``imex`` and ``split`` steps work in place in scratch arrays the stepper owns:
    real fields of the batch shape and one half spectrum, built on first use and
    rebuilt only when the batch shape changes.
    """

    def __init__(self, cfg: SimConfig, grid: LatticeGrid):
        self.cfg = cfg
        self.grid = grid
        self.prop = LinearPropagator(grid, cfg.m2, cfg.dt)
        self.noise_scale = self.prop.noise_scale
        self.rc = cfg.renorm(grid)
        self.quadratic = cfg.quadratic
        self.potential = TruncatedPotential(cfg.potential_n) if cfg.beta != 0.0 else None
        self._shape: tuple[int, ...] | None = None

    def _scratch(self, shape: tuple[int, ...]) -> tuple[list[np.ndarray], np.ndarray]:
        if shape != self._shape:
            # split: half step, rhs, work space; imex: rhs, work space
            n_real = 3 if self.cfg.integrator == "split" else 2
            self._work = [np.empty(shape) for _ in range(n_real)]
            self._spec = np.empty(shape[:-1] + (shape[-1] // 2 + 1,), dtype=complex)
            self._shape = shape
        return self._work, self._spec

    @functools.cached_property
    def psi_eps(self) -> np.ndarray:
        """Cell averages of the config's test function, sampled on first use."""
        return sample_test_function(self.cfg.test_function(), self.grid)

    def pairing(self, values: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """``<iota u, psi> = eps^d sum u psi_eps`` over the trailing d axes (product in ``out``)."""
        d = self.grid.d
        return self.grid.eps**d * np.sum(np.multiply(values, self.psi_eps, out=out),
                                         axis=tuple(range(-d, 0)))

    def _psi_term(self, values: np.ndarray, out: np.ndarray) -> np.ndarray:
        """Tilt drift ``beta F'(<iota u, psi>) psi_eps`` into ``out``, for any leading batch shape."""
        d = self.grid.d
        coeff = self.cfg.beta * self.potential.deriv(self.pairing(values, out=out))
        return np.multiply(np.reshape(coeff, np.shape(coeff) + (1,) * d), self.psi_eps, out=out)

    def explicit_drift(self, values: np.ndarray, out: np.ndarray, tmp: np.ndarray) -> np.ndarray:
        """Nonlinear drift plus the +m2 u compensation for the implicit solve, into ``out``."""
        if self.quadratic:
            out.fill(0.0)
            return out
        np.multiply(values, self.rc.mass_counterterm + self.cfg.m2, out=out)
        if self.cfg.integrator != "split":
            out -= np.power(values, 3, out=tmp)
        if self.potential is not None:
            out += self._psi_term(values, tmp)
        return out

    def full_drift(self, values: np.ndarray) -> np.ndarray:
        lap = stencil_laplacian(values, self.grid.d, self.grid.eps)
        if self.quadratic:
            return lap - self.cfg.m2 * values
        out = lap + self.rc.mass_counterterm * values - values**3
        if self.potential is not None:
            out = out + self._psi_term(values, np.empty_like(values))
        return out

    @staticmethod
    def _cubic_flow(values: np.ndarray, h: float, out: np.ndarray, tmp: np.ndarray) -> np.ndarray:
        """Exact solution of du/dt = -u^3 over time h, into ``out``."""
        np.square(values, out=tmp)
        tmp *= 2.0 * h
        tmp += 1.0
        return np.divide(values, np.sqrt(tmp, out=tmp), out=out)

    def advance(self, values: np.ndarray, noise: np.ndarray,
                out: np.ndarray | None = None) -> np.ndarray:
        """Next values into ``out`` (which may be ``noise`` or ``values``), or into a new array.

        ``imex`` and ``split`` work in the scratch arrays and read ``noise`` in full
        before they write ``out``.
        """
        cfg, prop = self.cfg, self.prop
        if cfg.integrator == "explicit":
            new = values + cfg.dt * self.full_drift(values) + noise
        elif cfg.integrator == "exact_gaussian":
            uhat = prop.fft(values) * prop.ou_decay
            what = prop.fft(noise / self.noise_scale) * prop.ou_noise_mult
            new = prop.ifft(uhat + what)
        else:
            flow = cfg.integrator == "split" and not self.quadratic
            work, spec = self._scratch(values.shape)
            half = self._cubic_flow(values, cfg.dt / 2.0, work[0], work[1]) if flow else values
            rhs = self.explicit_drift(half, work[-2], work[-1])
            rhs *= cfg.dt
            rhs += half
            rhs += noise
            prop.fft(rhs, out=spec)
            spec *= prop.imex_mult
            new = prop.ifft(spec, out=np.empty(values.shape) if out is None else out)
            return self._cubic_flow(new, cfg.dt / 2.0, new, work[0]) if flow else new
        if out is None:
            return new
        out[...] = new
        return out


def step(stepper: _Stepper, values: np.ndarray, noise: np.ndarray, step_index: int,
         out: np.ndarray | None = None) -> np.ndarray:
    """Advance chain values (any leading batch shape) by one step driven by ``noise``.

    The only place a chain step is taken; raises :class:`BlowUpError` with
    ``step_index``, the index of the step being taken, on non-finite output.
    The new values go into ``out`` when given (it may be ``noise`` or
    ``values``); otherwise into a new array, and neither ``values`` nor
    ``noise`` is written.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        out = stepper.advance(values, noise, out)
    if not np.all(np.isfinite(out)):
        raise BlowUpError(step_index)
    return out


@dataclass
class RunResult:
    """Thinned observable records and snapshots from one chain run."""

    cfg: SimConfig
    steps: np.ndarray
    times: np.ndarray
    pairing: np.ndarray
    v_obs: np.ndarray
    w_obs: np.ndarray
    c_alpha_norm: np.ndarray
    final_state: ChainState
    snapshots: list[tuple[int, Field]] = field(default_factory=list)

    def rows(self) -> Iterator[tuple]:
        for i in range(len(self.steps)):
            yield (
                int(self.steps[i]),
                float(self.times[i]),
                float(self.pairing[i]),
                float(self.v_obs[i]),
                float(self.w_obs[i]),
                float(self.c_alpha_norm[i]),
            )


def _observables(stepper: _Stepper, fields: np.ndarray) -> np.ndarray:
    """Rows pairing, V, W and the Holder norm of a ``(records, *grid.shape)`` stack.

    V and W take the same numpy scalar powers as one record at a time would, so
    every entry has the bytes of a per-record evaluation.
    """
    cfg, grid = stepper.cfg, stepper.grid
    # large finite fields may overflow the quartic observables to inf
    with np.errstate(over="ignore", invalid="ignore"):
        x = stepper.pairing(fields)
        w = sobolev_norm_sq(fields, grid, cfg.alpha)
        c_alpha = holder_norm_neg(fields, grid, -0.5 - cfg.norm_kappa)
        v_obs = [0.25 * cfg.beta * v**4 for v in x]
        w_obs = [0.25 * cfg.beta * v**2 for v in w]
    return np.array([x, v_obs, w_obs, c_alpha])


def run_chain(
    cfg: SimConfig,
    initial: Field | None = None,
    resume_state: ChainState | None = None,
) -> RunResult:
    """Run one chain: burn-in discarded, thinned observables recorded.

    Resuming from a snapshot (``resume_state`` with the stored step index and
    stream counter) continues the trajectory identically to an uninterrupted
    run.  Output count is ``floor((n_steps - burn_in) / thinning)``.  Recorded
    fields are copied into a block of ``RECORD_BLOCK_SITES`` site values, whose
    observables are computed together when it is full and once at the end.
    """
    grid = cfg.grid()
    stepper = _Stepper(cfg, grid)
    if resume_state is not None:
        values, k, stream = resume_state.field.values, resume_state.step, resume_state.stream
    else:
        if initial is None:
            initial = grid.zero_field()
        elif initial.grid != grid:
            raise GridError("initial field lives on the wrong grid")
        values, k = initial.values.copy(), 0
        stream = NoiseStream(cfg.seed, grid, stream_id=cfg.stream_id)

    n_steps = cfg.n_steps()
    steps: list[int] = []
    obs: list[np.ndarray] = []
    block = np.empty((max(1, RECORD_BLOCK_SITES // grid.n_sites),) + grid.shape)
    snapshots: list[tuple[int, Field]] = []
    while k < n_steps:
        k += 1
        noise = stream.standard_normals()
        noise *= stepper.noise_scale
        values = step(stepper, values, noise, k, out=noise)
        if cfg.snapshot_every and k % cfg.snapshot_every == 0:
            snapshots.append((k, Field(grid, values.copy(), k * cfg.dt)))
        if k > cfg.burn_in and (k - cfg.burn_in) % cfg.thinning == 0:
            block[len(steps) % len(block)] = values
            steps.append(k)
            if len(steps) % len(block) == 0:
                obs.append(_observables(stepper, block))
    if len(steps) % len(block):
        obs.append(_observables(stepper, block[: len(steps) % len(block)]))

    steps_arr = np.array(steps, dtype=float)
    pairing, v_obs, w_obs, c_alpha = np.concatenate(obs, axis=1) if obs else np.zeros((4, 0))
    return RunResult(
        cfg=cfg,
        steps=steps_arr,
        times=steps_arr * cfg.dt,
        pairing=pairing,
        v_obs=v_obs,
        w_obs=w_obs,
        c_alpha_norm=c_alpha,
        final_state=ChainState(field=Field(grid, values, k * cfg.dt), step=k, stream=stream),
        snapshots=snapshots,
    )


class BatchChain:
    """Vectorised ensemble of independent chains sharing one noise key.

    All chains advance together on arrays of shape ``(n_chains,) + grid.shape``;
    one Philox stream keyed by ``(seed, stream_id)`` drives the whole batch,
    so the ensemble is deterministic as a unit.  Used by the statistical
    batteries; the public single-chain contract is :func:`run_chain`.
    """

    def __init__(
        self,
        cfg: SimConfig,
        n_chains: int,
        stationary_start: bool = False,
    ):
        self.cfg = cfg
        self.grid = cfg.grid()
        self.n_chains = n_chains
        self.stepper = _Stepper(cfg, self.grid)
        self.stream = NoiseStream(cfg.seed, self.grid, stream_id=cfg.stream_id)
        shape = (n_chains,) + self.grid.shape
        if stationary_start:
            if not cfg.quadratic:
                raise ValueError("stationary start is exact only in the quadratic test mode")
            prop = self.stepper.prop
            self.values = prop.apply(self.stream.standard_normals(shape), prop.stationary_mult)
        else:
            self.values = np.zeros(shape)
        self.step_index = 0

    def advance(self, n_steps: int = 1) -> None:
        scale = self.stepper.noise_scale
        shape = (self.n_chains,) + self.grid.shape
        for _ in range(n_steps):
            noise = self.stream.standard_normals(shape)
            noise *= scale
            self.values = step(self.stepper, self.values, noise, self.step_index + 1, out=noise)
            self.step_index += 1

    def pairings(self) -> np.ndarray:
        """Observable ``<iota u, psi>`` per chain."""
        return self.stepper.pairing(self.values)

    def sample_pairings(self, n_records: int, stride: int) -> np.ndarray:
        """Record the pairing every ``stride`` steps; shape (n_chains, n_records)."""
        out = np.empty((self.n_chains, n_records))
        for r in range(n_records):
            self.advance(stride)
            out[:, r] = self.pairings()
        return out
