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
  renormalised at the base point inside the seminorm (the pairing
  constants of tree31 and tree32 vanish by parity).

Seminorm bookkeeping.  The kernel family is indexed by a dyadic length
scale ``lam_j = 2^-j``; its spatial part is the lattice heat semigroup at
heat time ``lam_j^2`` (so the family is an exact convolution semigroup in
heat time) and a product of 1-d lattice heat kernels, one per axis, so kernel
averages are taken at the base points alone, one axis at a time.  Its
temporal part is a compactly supported C^2 profile of width proportional to
``lam_j^2``, which collapses to the sharp-time kernel below the storage
resolution.  Writing ``(tau)_lam(x)`` for the kernel
average centered at the base point x, the seminorm is

    [tau]_kappa = sup_x sup_lam lam^(e_tau) |(tau)_lam(x) - base-point terms|

with the exponent ``e_tau = kappa - deg(tau)`` (``deg tree1 = -1/2``;
products add degrees, heat integration adds 2).  The table :data:`TREES`
holds every tree's degree, leaf count, factors and base-point terms.
``tree1`` itself is measured in the stronger norm
``sup_t || tree1(t) ||_{C^(-1/2-kappa)}`` via the Littlewood-Paley proxy
:func:`~phi4lattice.potential.holder_norm_neg`.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .dynamics import SimConfig, _Stepper, step
from .lattice import BoxRegion, Field, GridError, LatticeGrid, LinearPropagator, spectrum
from .noise import NoiseStream
from .potential import holder_norm_neg
from .renorm import compute_c1, compute_c2

__all__ = [
    "TREES",
    "TreeEnsemble",
    "DyadicKernelFamily",
    "SeminormReport",
    "N_LEAVES",
    "evolve_trees",
    "evolve_with_chain",
    "seminorm",
    "seminorm_report",
    "holder_norm_neg",
    "holder_seminorm_one",
]

# temporal kernel half-width, in units of the heat time lam_j^2
TIME_WIDTH_FACTOR = 0.01


class Tree(NamedTuple):
    """A tree: the pointwise product of the stored series ``factors``.

    At each base point x a ``recentred`` tree subtracts its first factor at x
    times the kernel average of the others (1 if none); a ``sunset`` tree
    also subtracts c2.
    """

    leaves: int
    degree: float
    factors: tuple[str, ...]
    recentred: bool = False
    sunset: bool = False


TREES = {
    "1": Tree(1, -0.5, ("1",)),  # first; measured by the Holder proxy, not the kernels
    "2": Tree(2, -1.0, ("2",)),
    "3": Tree(3, -1.5, ("3",)),
    "20": Tree(2, 1.0, ("20",), recentred=True),
    "30": Tree(3, 0.5, ("30",), recentred=True),
    "22": Tree(4, 0.0, ("20", "2"), recentred=True, sunset=True),
    "31": Tree(4, 0.0, ("30", "1"), recentred=True),
    "32": Tree(5, -0.5, ("30", "2"), recentred=True),
}
N_LEAVES = {tau: tree.leaves for tau, tree in TREES.items()}


def seminorm_exponent(tau: str, kappa: float) -> float:
    """Scale exponent e_tau = kappa - deg(tau) in the dyadic length scale."""
    return kappa - TREES[tau].degree


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

    @property
    def n_times(self) -> int:
        return len(self.times)


class _TreeState:
    """tree1 and the heat integrals tree20 / tree30 (from zero), stepped and stored.

    The three live on the half spectrum, rows of ``hat``, and take one update,
    ``hat = decay * hat + weight * fft(source)``, with the multipliers of ``mode``
    (``imex``: the linear-implicit solve; ``exact``: the OU transition of tree1 and
    exponential Euler for the heat integrals).  The sources are the noise increment
    and the Wick powers ``t1*t1 - c1``, ``(t1*t1 - 3 c1) * t1`` of the tree1 a step
    starts from, the rows of one real stack that a step transforms in one call.
    Every inverse works in place from a copy in a row of the spent source spectra:
    tree1 once per step into the buffer ``t1``, tree20 / tree30 only when stored,
    straight into their rows of the preallocated ``(n_stores, *shape)`` series, every
    ``store_every``-th of ``n_steps`` steps.  So no step allocates a field, and ``t1``
    is overwritten every step: a caller that keeps it must copy it.  Overflow is not
    warned about: a non-finite tree is reported by the blow-up check of
    :func:`evolve_trees` or by :func:`seminorm_report`, as ``dynamics.step`` reports
    the chain's.
    """

    def __init__(self, prop: LinearPropagator, c1: float, tree1: np.ndarray, n_steps: int,
                 store_every: int, mode: str):
        if store_every < 1:
            raise ValueError(f"store_every must be >= 1, got {store_every}")
        weights = {"imex": (prop.imex_mult, prop.imex_mult, prop.dt * prop.imex_mult),
                   "exact": (prop.ou_decay, prop.ou_noise_mult / prop.noise_scale,
                             prop.exp_euler_weight)}
        if mode not in weights:
            raise ValueError(f"unknown tree evolution mode {mode!r}")
        self.decay, noise_weight, source_weight = weights[mode]
        self.weights = np.stack((noise_weight, source_weight, source_weight))
        self.prop, self.c1, self.store_every = prop, c1, store_every
        self.t1 = np.array(tree1, dtype=float)
        self._real = np.empty((3, *self.t1.shape))  # increment, tree2, tree3
        self._wick()
        self.hat = np.zeros((3, *prop.mu.shape), complex)
        prop.fft(self.t1, out=self.hat[0])
        self._source = np.empty_like(self.hat)
        self.stored = {k: np.empty((n_steps // store_every, *self.t1.shape))
                       for k in ("1", "2", "3", "20", "30")}

    @np.errstate(over="ignore", invalid="ignore")
    def _wick(self) -> None:
        """Wick powers of ``t1`` into rows 1 and 2 of the real stack."""
        t1, t2, t3 = self.t1, self._real[1], self._real[2]
        np.multiply(t1, t1, out=t3)
        np.subtract(t3, self.c1, out=t2)
        t3 -= 3.0 * self.c1
        t3 *= t1

    @np.errstate(over="ignore", invalid="ignore")
    def step(self, eta: np.ndarray) -> None:
        """One step driven by the noise increment ``eta``: one stacked forward transform, one inverse."""
        self._real[0] = eta
        self.prop.fft(self._real, out=self._source)
        self._source *= self.weights
        self.hat *= self.decay
        self.hat += self._source
        self._invert(0, self.t1)
        self._wick()

    def _invert(self, row: int, out: np.ndarray) -> None:
        """Inverse transform of ``hat[row]`` into ``out``, in place in a spent source row."""
        scratch = self._source[row]
        scratch[...] = self.hat[row]
        self.prop.ifft(scratch, out=out)

    @np.errstate(over="ignore", invalid="ignore")
    def store(self, k: int) -> bool:
        """Store the trees after step ``k`` if it is a storage step; say whether it was."""
        if k % self.store_every:
            return False
        i = k // self.store_every - 1
        for key, val in (("1", self.t1), ("2", self._real[1]), ("3", self._real[2])):
            self.stored[key][i] = val
        self._invert(1, self.stored["20"][i])
        self._invert(2, self.stored["30"][i])
        return True

    def ensemble(self, c2: float) -> TreeEnsemble:
        """Hand the stored series over, with their times ``k * dt``."""
        p = self.prop
        times = self.store_every * np.arange(1, len(self.stored["1"]) + 1) * p.dt
        return TreeEnsemble(grid=p.grid, times=times, dt=p.dt, c1=self.c1, c2=c2, m2=p.m2,
                            stored=self.stored)


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
    """Evolve the ensemble for ``n_steps`` steps of size ``dt``; store every ``store_every``-th.

    ``mode='imex'`` advances tree1 with the same linear-implicit update as
    the chain (so it can share the chain's noise increments); ``mode='exact'``
    uses per-mode exact OU transitions for tree1 and exponential-Euler
    accumulation for the heat integrals, which removes all time-
    discretisation bias from the stationary laws of tree1 and tree2.  Both
    modes step the trees on the half spectrum (:class:`_TreeState`).
    tree1 starts from ``initial_tree1``, else from the exact stationary linear
    field; tree20 and tree30 from zero at t = 0.  Wick powers are formed
    exactly from c1 at every stored time.
    """
    if stream is None:
        stream = NoiseStream(seed, grid, stream_id=stream_id)
    if c1 is None:
        c1 = compute_c1(grid, m2)
    if c2 is None:
        c2 = compute_c2(grid, m2)

    prop = LinearPropagator(grid, m2, dt)
    tree1 = (noise_amplitude * prop.apply(stream.standard_normals(), prop.stationary_mult)
             if initial_tree1 is None else initial_tree1)
    state = _TreeState(prop, c1, tree1, n_steps, store_every, mode)
    for k in range(1, n_steps + 1):
        state.step(noise_amplitude * prop.noise_scale * stream.standard_normals())
        for name, hat in zip(("tree20", "tree30"), state.hat[1:]):
            if not np.isfinite(hat).all():  # both modes are stable at every dt
                raise RuntimeError(f"sourced tree blow-up at step {k}: {name} became non-finite "
                                   "because its Wick source overflowed; the initial tree1 or "
                                   "the noise amplitude is too large")
        state.store(k)
    return state.ensemble(c2)


def _co_evolve(cfg: SimConfig, u: np.ndarray, store_every: int, noise_amplitude: float,
               on_store: Callable[[float, np.ndarray, np.ndarray], None]) -> TreeEnsemble:
    """Co-evolve chain values (any leading batch shape) and the trees from one noise stream.

    The chains use ``cfg.integrator``; tree1 advances by the linear-implicit solve with the
    *same* increments, so ``u - tree1`` is smooth.  ``on_store(t, u, tree1)`` sees each store.
    """
    grid = cfg.grid()
    stepper = _Stepper(cfg, grid)
    stream = NoiseStream(cfg.seed, grid, stream_id=cfg.stream_id)
    prop = stepper.prop
    tree1 = noise_amplitude * prop.apply(stream.standard_normals(), prop.stationary_mult)
    state = _TreeState(prop, compute_c1(grid, cfg.m2), tree1, cfg.n_steps(), store_every, "imex")
    for k in range(1, cfg.n_steps() + 1):
        eta = noise_amplitude * stepper.noise_scale * stream.standard_normals()
        u = step(stepper, u, eta, k)
        state.step(eta)
        if state.store(k):
            on_store(k * cfg.dt, u, state.t1)
    return state.ensemble(compute_c2(grid, cfg.m2))


def evolve_with_chain(
    cfg: SimConfig,
    u0: Field,
    *,
    store_every: int = 1,
    noise_amplitude: float = 1.0,
) -> tuple[TreeEnsemble, np.ndarray]:
    """Co-evolve the chain and the trees (see :func:`_co_evolve`).

    Returns the ensemble and the chain values at the same stored times.
    """
    if u0.grid != cfg.grid():
        raise GridError("initial field lives on the wrong grid")
    u_stored: list[np.ndarray] = []
    ens = _co_evolve(cfg, u0.values, store_every, noise_amplitude,
                     lambda t, u, tree1: u_stored.append(u))
    return ens, np.array(u_stored)


@dataclass
class DyadicKernelFamily:
    """Space-time mollifiers at dyadic length scales ``lam_j = 2^-j``.

    The spatial factor is the lattice heat kernel at heat time ``lam_j^2``
    (discretely normalised: its values sum to 1 exactly), so composing two
    family members is again a heat kernel and the dyadic semigroup property
    holds exactly in space.  Its multiplier ``exp(-u mu(k)) = prod_i exp(-u s(k_i))``
    factorises over the axes, so the kernel is the product of one 1-d lattice heat
    kernel per axis.  The temporal factor is a C^2 bump of width
    ``TIME_WIDTH_FACTOR * lam_j^2`` sampled on the stored time grid; below
    the storage resolution it collapses to the sharp-time kernel, keeping the
    semigroup property exact in time as well.
    """

    grid: LatticeGrid
    store_dt: float
    j_list: tuple[int, ...] = (1, 2, 3, 4)

    def __post_init__(self) -> None:
        self.scales = tuple(2.0 ** (-j) for j in self.j_list)
        self.heat_times = tuple(s**2 for s in self.scales)
        self._axis_kernels = [self._axis_kernel(u) for u in self.heat_times]
        self._time_kernels = [self._time_profile(u) for u in self.heat_times]

    def _axis_kernel(self, heat_time: float) -> np.ndarray:
        """1-d lattice heat kernel: the inverse transform of ``exp(-u s(k))`` along one axis."""
        s = spectrum(self.grid).mu[(0,) * (self.grid.d - 1)]  # mu on the last axis alone
        return np.fft.irfft(np.exp(-heat_time * s), self.grid.sites_per_axis)

    def _time_profile(self, heat_time: float) -> np.ndarray:
        width = TIME_WIDTH_FACTOR * heat_time
        m_max = int(width / self.store_dt)
        if m_max < 1:
            return np.array([1.0])
        offsets = np.arange(-m_max, m_max + 1) * self.store_dt
        w = (1.0 - (offsets / width) ** 2) ** 3
        w = w[w > 0.0]  # end taps at |offset| >= width would weigh nothing and widen the pad
        return w / w.sum()

    @property
    def n_scales(self) -> int:
        return len(self.j_list)

    def time_pad(self, idx: int) -> int:
        return (len(self._time_kernels[idx]) - 1) // 2

    def base_times(self, idx: int, n_times: int, time_stride: int = 1) -> np.ndarray:
        """Every ``time_stride``-th stored time that the scale-``idx`` kernel fully covers."""
        pad = self.time_pad(idx)
        return np.arange(pad, n_times - pad, time_stride)

    def convolve(self, arr: np.ndarray | tuple[np.ndarray, ...], time_stride: int = 1,
                 sites: tuple[np.ndarray, ...] | None = None) -> list[np.ndarray]:
        """Space-time kernel averages of a stored (T, *shape) trajectory, one per scale.

        ``arr`` may also be a tuple of such trajectories, whose pointwise product is
        averaged: it is formed only at the stored times the averages read.  Scale ``i``'s
        average is taken at its :meth:`base_times` and at the sites ``np.ix_(*sites)``,
        where ``sites`` holds one index array per axis (``None``: every site).  Each axis is contracted with the rows of its 1-d kernel's circulant at the
        wanted indices: the last axis for all scales in one product, over the stored times
        any scale reads, then each scale's other axes over its own times.  Each scale then
        sums its time taps.
        """
        n, d = self.grid.sites_per_axis, self.grid.d
        factors = (arr,) if isinstance(arr, np.ndarray) else arr
        if sites is None:
            sites = (np.arange(n),) * d
        taps = [self.base_times(i, len(factors[0]), time_stride)[:, None]
                + np.arange(-self.time_pad(i), self.time_pad(i) + 1) for i in range(self.n_scales)]
        read = np.unique(np.concatenate([t.ravel() for t in taps]))
        rows = np.concatenate([_circulant_rows(k, sites[-1]) for k in self._axis_kernels])
        product = functools.reduce(np.multiply, (f[read] for f in factors))
        last = (product.reshape(-1, n) @ rows.T).reshape(
            len(read), *product.shape[1:-1], self.n_scales, len(sites[-1]))
        out = []
        for i, (kernel, weights, t) in enumerate(zip(self._axis_kernels, self._time_kernels, taps)):
            used = np.unique(t)
            smooth = last[np.searchsorted(read, used), ..., i, :]
            for axis in range(d - 2, -1, -1):
                smooth = _contract(smooth, _circulant_rows(kernel, sites[axis]), axis + 1)
            if len(weights) == 1:
                out.append(smooth)
                continue
            tap_rows = np.searchsorted(used, t)  # tap_rows[:, m]: tap m of every base time
            acc = np.zeros((len(t),) + smooth.shape[1:])
            for m, w in enumerate(weights):
                acc += w * smooth[tap_rows[:, m]]
            out.append(acc)
        return out

    def spatial_kernel(self, idx: int) -> np.ndarray:
        """Real-space kernel values (sum exactly 1)."""
        return functools.reduce(np.multiply.outer, [self._axis_kernels[idx]] * self.grid.d)

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


def _circulant_rows(kernel: np.ndarray, idx: np.ndarray) -> np.ndarray:
    """Rows ``idx`` of the periodic convolution by the 1-d ``kernel``.

    ``out[a, y] = kernel[(idx[a] - y) % n]``: ``out @ f`` is the convolution at the sites ``idx``.
    """
    return kernel[(idx[:, None] - np.arange(len(kernel))) % len(kernel)]


def _contract(x: np.ndarray, rows: np.ndarray, axis: int) -> np.ndarray:
    """``sum_y rows[:, y] x[..., y, ...]`` over ``axis`` of ``x``, as one batched matrix product."""
    lead, trail = x.shape[:axis], x.shape[axis + 1:]
    out = rows @ x.reshape(math.prod(lead), x.shape[axis], math.prod(trail))
    return out.reshape(*lead, len(rows), *trail)


def _profiles(ens: TreeEnsemble, kernels: DyadicKernelFamily, kappa: float, taus: tuple[str, ...],
              domain: BoxRegion | None = None, site_stride: int = 2,
              time_stride: int = 4) -> dict[str, np.ndarray]:
    """Scale profiles of the trees ``taus`` (tree1 excluded) in one pass.

    Every distinct series is averaged at every scale by one ``convolve`` call, at the base
    sites only: every ``site_stride``-th index of each axis that lies in ``domain``, and a
    product series only at the stored times that call reads.  Every kernel sums to 1, so c2
    comes off after averaging.
    """
    _check_kappa(kappa)
    if "1" in taus:
        raise ValueError("tree 1 has no kernel scale profile; its seminorm is the Holder proxy")
    grid = ens.grid
    axes = (np.arange(grid.sites_per_axis),) * grid.d if domain is None else domain.axis_sites(grid)
    sites = tuple(idx[idx % site_stride == 0] for idx in axes)
    if any(len(idx) == 0 for idx in sites):
        raise ValueError("localisation domain contains no base points")
    times = [kernels.base_times(idx, ens.n_times, time_stride) for idx in range(kernels.n_scales)]
    if any(len(t) == 0 for t in times):
        raise ValueError("no stored time lies clear of the kernel's time support")

    averages = {}
    for series in dict.fromkeys(series for tau in taus for series in
                                (TREES[tau].factors, TREES[tau].factors[1:]) if series):
        averages[series] = kernels.convolve(tuple(ens.stored[name] for name in series),
                                            time_stride, sites)

    out = {tau: np.empty(kernels.n_scales) for tau in taus}
    for idx, (lam, t) in enumerate(zip(kernels.scales, times)):
        for tau in taus:
            tree = TREES[tau]
            values = averages[tree.factors][idx]
            if tree.sunset:
                values = values - ens.c2
            if tree.recentred:
                first, *rest = tree.factors
                base = ens.stored[first][np.ix_(t, *sites)]
                values = values - (base * averages[tuple(rest)][idx] if rest else base)
            out[tau][idx] = lam ** seminorm_exponent(tau, kappa) * np.max(np.abs(values))
    return out


def _check_kappa(kappa: float) -> None:
    if not 0.0 < kappa < 0.25:
        raise ValueError(f"kappa must lie in (0, 1/4), got {kappa}")


def seminorm(
    tau: str,
    ens: TreeEnsemble,
    kernels: DyadicKernelFamily,
    kappa: float,
    domain: BoxRegion | None = None,
    site_stride: int = 2,
    time_stride: int = 4,
) -> float:
    """Dyadic-scale seminorm of one tree: the largest ``lam^e * sup |...|`` over the scales.

    Base points run over every ``site_stride``-th site and every
    ``time_stride``-th stored time, restricted to ``domain`` (spatial box)
    when given.  For ``tau='1'`` this returns the time-sup of the
    negative-Holder proxy norm at regularity -1/2-kappa.
    """
    _check_kappa(kappa)
    if tau == "1":
        return holder_seminorm_one(ens, kappa, domain=domain, time_stride=time_stride)
    profile = _profiles(ens, kernels, kappa, (tau,), domain, site_stride, time_stride)[tau]
    return float(np.max(profile))


@dataclass
class SeminormReport:
    """All tree seminorms of one ensemble at one kappa."""

    kappa: float
    values: dict[str, float]
    domain: str

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
    """All tree seminorms of one ensemble: tree1's proxy norm and one kernel pass."""
    values = {"1": seminorm("1", ens, kernels, kappa, domain, **kwargs)}
    profiles = _profiles(ens, kernels, kappa, tuple(TREES)[1:], domain, **kwargs)
    values.update((tau, float(np.max(prof))) for tau, prof in profiles.items())
    for tau, val in values.items():
        if not (val >= 0.0 and np.isfinite(val)):
            raise RuntimeError(f"seminorm [{tau}] is not finite and nonnegative: {val}")
    return SeminormReport(kappa=kappa, values=values,
                          domain="full" if domain is None else "localised")


def holder_seminorm_one(
    ens: TreeEnsemble,
    kappa: float,
    domain: BoxRegion | None = None,
    time_stride: int = 1,
) -> float:
    """``sup_t || tree1(t) ||_{C^{-1/2-kappa}}`` over the stored times."""
    alpha = -0.5 - kappa
    norms = [holder_norm_neg(ens.stored["1"][t], ens.grid, alpha, domain)
             for t in range(0, ens.n_times, time_stride)]
    return float(np.max(norms, initial=0.0))
