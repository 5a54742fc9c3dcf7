"""Stochastic tree ensemble and the dyadic-kernel seminorms of its members.

The ensemble jointly evolves, driven by the same noise increments as a main
chain when requested:

* ``tree1``: linear solution of ``(d/dt + A) tree1 = xi`` with the massive
  reference operator ``A = -lap + m2`` (the mass split of the dynamics
  module; the compensating ``+m2 u`` lives in the chain drift),
* ``tree2 = tree1^2 - c1`` and ``tree3 = tree1^3 - 3 c1 tree1`` (exact
  sitewise Wick identities at every stored time),
* ``tree20``, ``tree30``: heat integrals of tree2 / tree3 from zero initial
  data at t = 0,
* products ``tree22 = tree20*tree2``, ``tree31 = tree30*tree1``,
  ``tree32 = tree30*tree2``, assembled on demand and positively
  renormalised at the base point inside the seminorm.

Seminorm bookkeeping.  The kernel family is indexed by a dyadic length
scale ``lam_j = 2^-j``; its spatial part is the lattice heat semigroup at
heat time ``lam_j^2`` (so the family is an exact convolution semigroup in
heat time) and its temporal part is a compactly supported C^2 profile of
width proportional to ``lam_j^2``, which collapses to the sharp-time kernel
below the storage resolution.  Writing ``(tau)_lam(x)`` for the kernel
average centered at the base point x, the seminorm is

    [tau]_kappa = sup_x sup_lam lam^(e_tau) |(tau)_lam(x) - base-point terms|

with the exponent ``e_tau = kappa - deg(tau)`` from the degree table
``deg tree1 = -1/2`` (products multiply degrees, heat integration adds 2):

    tree2: 1 + kappa        tree20: -(1 - kappa)     tree22: kappa
    tree3: 3/2 + kappa      tree30: -(1/2 - kappa)   tree31: kappa
                                                     tree32: 1/2 + kappa

``tree1`` itself is measured in the stronger norm
``sup_t || tree1(t) ||_{C^(-1/2-kappa)}`` via the Littlewood-Paley proxy of
:func:`holder_norm_neg`.  Positive-degree trees subtract their base-point
value; ``tree22`` subtracts ``c2 + tree20(x) tree2(y)``; ``tree31`` and
``tree32`` subtract ``tree30(x)`` times the second factor (their pairing
constant vanishes by parity).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
import numpy as np

from .lattice import BoxRegion, Field, GridError, LatticeGrid, LinearPropagator, spectrum
from .noise import NoiseStream
from .renorm import compute_c1, compute_c2

__all__ = [
    "TreeEnsemble",
    "DyadicKernelFamily",
    "SeminormReport",
    "N_LEAVES",
    "evolve_trees",
    "evolve_with_chain",
    "seminorm",
    "seminorm_report",
    "scale_profile",
    "holder_norm_neg",
    "holder_seminorm_one",
]

TREE_NAMES = ("1", "2", "3", "20", "30", "22", "31", "32")
# temporal kernel half-width, in units of the heat time lam_j^2
TIME_WIDTH_FACTOR = 0.01
N_LEAVES = {"1": 1, "2": 2, "3": 3, "20": 2, "30": 3, "22": 4, "31": 4, "32": 5}


def seminorm_exponent(tau: str, kappa: float) -> float:
    """Scale exponent e_tau = kappa - deg(tau) in the dyadic length scale."""
    degree = {
        "2": -1.0,
        "3": -1.5,
        "20": 1.0,
        "30": 0.5,
        "22": 0.0,
        "31": 0.0,
        "32": -0.5,
    }
    return kappa - degree[tau]


@dataclass
class TreeEnsemble:
    """Stored tree trajectories on a decimated time grid over (0, t_end]."""

    grid: LatticeGrid
    times: np.ndarray
    dt: float
    c1: float
    c2: float
    m2: float
    stored: dict[str, np.ndarray]
    mode: str
    seed: int = 0

    @property
    def n_times(self) -> int:
        return len(self.times)

    def product(self, tau: str) -> np.ndarray:
        """Raw product process for a composite tree (no renormalisation)."""
        pairs = {"22": ("20", "2"), "31": ("30", "1"), "32": ("30", "2")}
        a, b = pairs[tau]
        return self.stored[a] * self.stored[b]


class _TreeState:
    """tree1 and the heat integrals tree20 / tree30 (from zero), stepped and stored.

    A step's Wick sources come from the tree1 it starts from; the stored
    tree2 / tree3 from the tree1 it ends at.
    """

    def __init__(self, prop: LinearPropagator, c1: float, tree1: np.ndarray):
        self.prop = prop
        self.c1 = c1
        self.t1 = tree1
        self.t20 = np.zeros(prop.grid.shape)
        self.t30 = np.zeros(prop.grid.shape)
        self.times: list[float] = []
        self.stored: dict[str, list[np.ndarray]] = {k: [] for k in ("1", "2", "3", "20", "30")}

    @classmethod
    def stationary(cls, prop: LinearPropagator, c1: float, normals: np.ndarray,
                   amplitude: float = 1.0) -> "_TreeState":
        """Start from the exact stationary linear field (per-mode variance eps^-d / 2a)."""
        return cls(prop, c1, amplitude * prop.apply(normals, prop.stationary_mult))

    def _wick(self) -> tuple[np.ndarray, np.ndarray]:
        t1 = self.t1
        return t1 * t1 - self.c1, t1 * (t1 * t1 - 3.0 * self.c1)

    def step_imex(self, eta: np.ndarray) -> None:
        """Linear-implicit step driven by the noise increment ``eta``."""
        p = self.prop
        t2, t3 = self._wick()
        self.t1 = p.apply(self.t1 + eta, p.imex_mult)
        self.t20 = p.apply(self.t20 + p.dt * t2, p.imex_mult)
        self.t30 = p.apply(self.t30 + p.dt * t3, p.imex_mult)

    def step_exact(self, normals: np.ndarray, amplitude: float) -> None:
        """Exact OU step for tree1, exponential Euler for the heat integrals."""
        p = self.prop
        t2, t3 = self._wick()
        self.t1 = p.ifft(p.fft(self.t1) * p.ou_decay
                         + amplitude * p.fft(normals) * p.ou_noise_mult)
        self.t20 = p.ifft(p.fft(self.t20) * p.ou_decay + p.exp_euler_weight * p.fft(t2))
        self.t30 = p.ifft(p.fft(self.t30) * p.ou_decay + p.exp_euler_weight * p.fft(t3))

    def store(self, t: float) -> None:
        t2, t3 = self._wick()
        self.times.append(t)
        for key, val in (("1", self.t1.copy()), ("2", t2), ("3", t3),
                         ("20", self.t20.copy()), ("30", self.t30.copy())):
            self.stored[key].append(val)

    def ensemble(self, c2: float, mode: str, seed: int) -> TreeEnsemble:
        p = self.prop
        stored = {k: np.array(v) for k, v in self.stored.items()}
        return TreeEnsemble(grid=p.grid, times=np.array(self.times), dt=p.dt, c1=self.c1,
                            c2=c2, m2=p.m2, stored=stored, mode=mode, seed=seed)


def evolve_trees(
    grid: LatticeGrid,
    dt: float,
    n_steps: int,
    *,
    m2: float = 1.0,
    stream: NoiseStream | None = None,
    seed: int = 0,
    stream_id: int = 0,
    c1: float | None = None,
    c2: float | None = None,
    mode: str = "imex",
    store_every: int = 1,
    noise_amplitude: float = 1.0,
    initial_tree1: np.ndarray | None = None,
) -> TreeEnsemble:
    """Evolve the ensemble for ``n_steps`` steps of size ``dt``.

    ``mode='imex'`` advances tree1 with the same linear-implicit update as
    the chain (so it can share the chain's noise increments); ``mode='exact'``
    uses per-mode exact OU transitions for tree1 and exponential-Euler
    accumulation for the heat integrals, which removes all time-
    discretisation bias from the stationary laws of tree1 and tree2.
    Wick powers are formed exactly from c1 at every stored time; tree20 and
    tree30 start from zero at t = 0.
    """
    if mode not in ("imex", "exact"):
        raise ValueError(f"unknown tree evolution mode {mode!r}")
    if stream is None:
        stream = NoiseStream(seed, grid, stream_id=stream_id)
    if c1 is None:
        c1 = compute_c1(grid, m2)
    if c2 is None:
        c2 = compute_c2(grid, m2)

    prop = LinearPropagator(grid, m2, dt)
    if initial_tree1 is not None:
        state = _TreeState(prop, c1, np.array(initial_tree1, dtype=float))
    else:
        state = _TreeState.stationary(prop, c1, stream.standard_normals(), noise_amplitude)
    for k in range(1, n_steps + 1):
        if mode == "imex":
            state.step_imex(noise_amplitude * prop.noise_scale * stream.standard_normals())
        else:
            state.step_exact(stream.standard_normals(), noise_amplitude)
        if not np.all(np.isfinite(state.t20)) or not np.all(np.isfinite(state.t30)):
            raise RuntimeError(f"sourced tree blow-up at step {k}: dt too large")
        if k % store_every == 0:
            state.store(k * dt)
    return state.ensemble(c2, mode, stream.seed)


def evolve_with_chain(
    cfg,
    u0: Field,
    *,
    store_every: int = 1,
    noise_amplitude: float = 1.0,
) -> tuple[TreeEnsemble, np.ndarray]:
    """Co-evolve the chain and the tree ensemble from one noise stream.

    The chain uses ``cfg.integrator``; tree1 always advances by the shared
    linear-implicit solve with the *same* increments, so ``v = u - tree1``
    is the smooth remainder.  Returns the ensemble and the stored chain
    trajectory (same decimation as the ensemble).
    """
    from .dynamics import _Stepper, step  # the chain's own step

    grid = cfg.grid()
    if u0.grid != grid:
        raise GridError("initial field lives on the wrong grid")
    stepper = _Stepper(cfg, grid)
    stream = NoiseStream(cfg.seed, grid, stream_id=cfg.stream_id)
    c1 = compute_c1(grid, cfg.m2)
    c2 = compute_c2(grid, cfg.m2)

    u = u0.values.copy()
    state = _TreeState.stationary(stepper.prop, c1, stream.standard_normals(), noise_amplitude)
    u_stored = []
    for k in range(1, cfg.n_steps() + 1):
        eta = noise_amplitude * stepper.noise_scale * stream.standard_normals()
        u = step(stepper, u, eta, k)
        state.step_imex(eta)
        if k % store_every == 0:
            state.store(k * cfg.dt)
            u_stored.append(u.copy())
    return state.ensemble(c2, "imex", cfg.seed), np.array(u_stored)


@dataclass
class DyadicKernelFamily:
    """Space-time mollifiers at dyadic length scales ``lam_j = 2^-j``.

    The spatial factor is the lattice heat kernel at heat time ``lam_j^2``
    (discretely normalised: its values sum to 1 exactly), so composing two
    family members is again a heat kernel and the dyadic semigroup property
    holds exactly in space.  The temporal factor is a C^2 bump of width
    ``TIME_WIDTH_FACTOR * lam_j^2`` sampled on the stored time grid; below
    the storage resolution it collapses to the sharp-time kernel, keeping the
    semigroup property exact in time as well.
    """

    grid: LatticeGrid
    store_dt: float
    j_list: tuple[int, ...] = (1, 2, 3, 4)

    def __post_init__(self) -> None:
        self._spectrum = spectrum(self.grid)
        self.scales = tuple(2.0 ** (-j) for j in self.j_list)
        self.heat_times = tuple(s**2 for s in self.scales)
        self._multipliers = [np.exp(-u * self._spectrum.mu) for u in self.heat_times]
        self._time_kernels = [self._time_profile(u) for u in self.heat_times]

    def _time_profile(self, heat_time: float) -> np.ndarray:
        width = TIME_WIDTH_FACTOR * heat_time
        m_max = int(width / self.store_dt)
        if m_max < 1:
            return np.array([1.0])
        offsets = np.arange(-m_max, m_max + 1) * self.store_dt
        w = (1.0 - (offsets / width) ** 2) ** 3
        w[np.abs(offsets) >= width] = 0.0
        return w / w.sum()

    @property
    def n_scales(self) -> int:
        return len(self.j_list)

    def time_pad(self, idx: int) -> int:
        return (len(self._time_kernels[idx]) - 1) // 2

    def convolve(self, arr: np.ndarray, idx: int) -> np.ndarray:
        """Space-time kernel average of a stored (T, *shape) trajectory.

        Entries within ``time_pad(idx)`` of the window edges are only
        partially covered and must be excluded from suprema by the caller.
        """
        out = self._spectrum.apply(arr, self._multipliers[idx])
        tk = self._time_kernels[idx]
        if len(tk) == 1:
            return out
        acc = np.zeros_like(out)
        pad = (len(tk) - 1) // 2
        for m, w in enumerate(tk):
            shift = m - pad
            acc += w * np.roll(out, -shift, axis=0)
        return acc

    def spatial_kernel(self, idx: int) -> np.ndarray:
        """Real-space kernel values (sum exactly 1)."""
        return self._spectrum.ifft(self._multipliers[idx])

    def semigroup_errors(self) -> list[float]:
        """Relative L1 error of phi_u * phi_v vs phi_{u+v} at adjacent scales."""
        errors = []
        sp = self._spectrum
        for i in range(self.n_scales - 1):
            u, v = self.heat_times[i], self.heat_times[i + 1]
            tk_composed = np.convolve(self._time_kernels[i], self._time_kernels[i + 1])
            tk_target = self._time_profile(u + v)
            nt = max(len(tk_composed), len(tk_target))
            composed = np.multiply.outer(_center_pad(tk_composed, nt),
                                         sp.ifft(self._multipliers[i] * self._multipliers[i + 1]))
            target = np.multiply.outer(_center_pad(tk_target, nt), sp.ifft(np.exp(-(u + v) * sp.mu)))
            denom = np.sum(np.abs(target))
            errors.append(float(np.sum(np.abs(composed - target)) / denom))
        return errors

    def table(self) -> list[dict]:
        """Audit description of every kernel."""
        return [
            {
                "scale": self.scales[i],
                "heat_time": self.heat_times[i],
                "time_points": len(self._time_kernels[i]),
                "spatial_sum": float(np.sum(self.spatial_kernel(i))),
            }
            for i in range(self.n_scales)
        ]


def _center_pad(w: np.ndarray, n: int) -> np.ndarray:
    out = np.zeros(n)
    start = (n - len(w)) // 2
    out[start : start + len(w)] = w
    return out


def _base_point_values(
    ens: TreeEnsemble, kernels: DyadicKernelFamily, tau: str, idx: int
) -> np.ndarray:
    """Renormalised kernel average of tau at all base points, one scale."""
    if tau in ("2", "3"):
        return kernels.convolve(ens.stored[tau], idx)
    if tau in ("20", "30"):
        return kernels.convolve(ens.stored[tau], idx) - ens.stored[tau]
    if tau == "22":
        a = kernels.convolve(ens.product("22") - ens.c2, idx)
        b = kernels.convolve(ens.stored["2"], idx)
        return a - ens.stored["20"] * b
    if tau == "31":
        a = kernels.convolve(ens.product("31"), idx)
        b = kernels.convolve(ens.stored["1"], idx)
        return a - ens.stored["30"] * b
    if tau == "32":
        a = kernels.convolve(ens.product("32"), idx)
        b = kernels.convolve(ens.stored["2"], idx)
        return a - ens.stored["30"] * b
    raise ValueError(f"unknown tree {tau!r}")


def _sup_over_base_points(
    values: np.ndarray,
    ens: TreeEnsemble,
    domain: BoxRegion | None,
    time_pad: int,
    site_stride: int,
    time_stride: int,
) -> float:
    t_idx = np.arange(time_pad, values.shape[0] - time_pad, time_stride)
    if len(t_idx) == 0:
        raise ValueError("no stored time lies clear of the kernel's time support")
    sub = np.abs(values[t_idx])
    spatial = (slice(None, None, site_stride),) * ens.grid.d
    sub = sub[(slice(None),) + spatial]
    if domain is not None:
        mask = domain.mask(ens.grid)[spatial]
        if not mask.any():
            raise ValueError("localisation domain contains no base points")
        sub = sub[:, mask]
    return float(np.max(sub))


def scale_profile(
    tau: str,
    ens: TreeEnsemble,
    kernels: DyadicKernelFamily,
    kappa: float,
    domain: BoxRegion | None = None,
    site_stride: int = 2,
    time_stride: int = 4,
) -> np.ndarray:
    """Per-scale values ``lam^e * sup |...|`` over decimated base points.

    Base points run over every ``site_stride``-th site and every
    ``time_stride``-th stored time, restricted to ``domain`` (spatial box)
    when given.
    """
    e = seminorm_exponent(tau, kappa)
    return np.array([
        lam**e * _sup_over_base_points(_base_point_values(ens, kernels, tau, idx), ens, domain,
                                       kernels.time_pad(idx), site_stride, time_stride)
        for idx, lam in enumerate(kernels.scales)
    ])


def seminorm(
    tau: str,
    ens: TreeEnsemble,
    kernels: DyadicKernelFamily,
    kappa: float,
    domain: BoxRegion | None = None,
    site_stride: int = 2,
    time_stride: int = 4,
) -> float:
    """Dyadic-scale seminorm of one tree: the maximum of its :func:`scale_profile`.

    For ``tau='1'`` this returns the time-sup of the negative-Holder proxy
    norm at regularity -1/2-kappa.
    """
    if not 0.0 < kappa < 0.25:
        raise ValueError(f"kappa must lie in (0, 1/4), got {kappa}")
    if tau == "1":
        return holder_seminorm_one(ens, kappa, domain=domain, time_stride=time_stride)
    return float(np.max(scale_profile(tau, ens, kernels, kappa, domain, site_stride, time_stride)))


@dataclass
class SeminormReport:
    """All tree seminorms of one ensemble at one kappa."""

    kappa: float
    values: dict[str, float]
    domain: str
    n_leaves: dict[str, int] = field(default_factory=lambda: dict(N_LEAVES))

    def rhs_candidates(self) -> dict[str, float]:
        """Per-tree terms ``[tau]^(2 / (n_tau (1 - kappa)))`` of the a priori bound."""
        out = {}
        for tau, val in self.values.items():
            expo = 2.0 / (N_LEAVES[tau] * (1.0 - self.kappa))
            out[tau] = val**expo
        return out


def seminorm_report(
    ens: TreeEnsemble,
    kernels: DyadicKernelFamily,
    kappa: float,
    domain: BoxRegion | None = None,
    **kwargs,
) -> SeminormReport:
    values = {tau: seminorm(tau, ens, kernels, kappa, domain=domain, **kwargs)
              for tau in TREE_NAMES}
    for tau, val in values.items():
        if not (val >= 0.0 and np.isfinite(val)):
            raise RuntimeError(f"seminorm [{tau}] is not finite and nonnegative: {val}")
    return SeminormReport(kappa=kappa, values=values,
                          domain="full" if domain is None else "localised")


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


def holder_norm_neg(f: Field, alpha: float, domain: BoxRegion | None = None) -> float:
    """Negative-regularity Holder norm proxy: ``max_j 2^(j alpha) sup |block_j f|``.

    Blocks are sharp Fourier annuli ``2^(j-1) <= |k|_inf < 2^j`` (block 0 is
    the spatial mean).  This is a documented norm-equivalent proxy; it is
    used consistently on both sides of every comparison in the package.
    """
    grid = f.grid
    masks = _block_masks(grid)
    blocks = spectrum(grid).apply(f.values, masks)
    if domain is not None:
        blocks = blocks[:, domain.mask(grid)]
    sups = np.max(np.abs(blocks.reshape(len(masks), -1)), axis=1)
    return float(np.max(2.0 ** (np.arange(len(masks)) * alpha) * sups))  # NaN in f propagates


def holder_seminorm_one(
    ens: TreeEnsemble,
    kappa: float,
    domain: BoxRegion | None = None,
    time_stride: int = 1,
) -> float:
    """``sup_t || tree1(t) ||_{C^{-1/2-kappa}}`` over the stored times."""
    alpha = -0.5 - kappa
    norms = [holder_norm_neg(Field(ens.grid, ens.stored["1"][t]), alpha, domain)
             for t in range(0, ens.n_times, time_stride)]
    return float(np.max(norms, initial=0.0))
