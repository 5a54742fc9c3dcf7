"""Deterministic and statistical verification harnesses.

Suites provided:

* :func:`check_max_principle` and :func:`max_principle_battery` - the
  deterministic cubic-damping estimate ``|u(z)| <= C max(t^-1/2, |g|^1/3)``
  for ``(d/dt - lap) u = -u^3 + g``.
* :func:`check_apriori` / :func:`check_apriori_localised` - the tree-based
  a priori bound ``sup_{P_R} |u - tree1| <= C max(R^-1,
  [tau]^(2/(n_tau(1-kappa))))`` with chain and ensemble driven by the same
  noise, batteried over seeds and initial magnitudes, globally or with
  spatial suprema restricted to a box (whose right side must not grow when
  the torus doubles at fixed box - the volume-independence mechanism).
* :func:`coming_down_check` - initial-condition independence of the norm at
  a fixed positive time across magnitudes 1, 1e3, 1e6.
* :func:`volume_pair_seminorms` - localised tree seminorms on a noise-coupled
  pair of tori of extent L and 2L.
* :func:`gaussian_covariance_battery` - stationary covariance of the
  quadratic test mode against its exact formula.
* :func:`convergence_study` - coupled-noise discretisation convergence
  towards the finest level.
* :func:`init_discretisation_rate` - decay rate of the block-averaging
  error of rough initial data in the scaled-pairing norm.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .dynamics import BlowUpError, SimConfig, _Stepper, step
from .lattice import (
    BoxRegion,
    Field,
    GridError,
    LatticeGrid,
    LinearPropagator,
    build_grid,
    iota_refine,
    project,
    spectrum,
)
from .noise import NoiseStream, coarsen
from .potential import holder_norm_neg
from .renorm import DEFAULT_M2, compute_c1, compute_c2
from .trees import (
    DyadicKernelFamily,
    _co_evolve,
    _TreeState,
    seminorm_report,
)

__all__ = [
    "BoundReport",
    "check_max_principle",
    "max_principle_battery",
    "check_apriori",
    "check_apriori_localised",
    "coming_down_check",
    "volume_pair_seminorms",
    "gaussian_covariance_battery",
    "convergence_study",
    "LacunaryFunction",
    "init_discretisation_rate",
]


@dataclass
class BoundReport:
    """Outcome of one bound battery: lhs <= C * rhs across all entries."""

    name: str
    entries: list[dict] = field(default_factory=list)
    c_max: float = math.inf

    def add(self, **entry) -> None:
        entry["ratio"] = entry["lhs"] / entry["rhs"]
        self.entries.append(entry)

    @property
    def constant_fit(self) -> float:
        """Smallest C making lhs <= C rhs hold across the battery."""
        if not self.entries:
            return 0.0
        return max(e["ratio"] for e in self.entries)

    @property
    def passed(self) -> bool:
        return self.constant_fit <= self.c_max

    def as_dict(self) -> dict:
        return {
            "name": self.name,
            "constant_fit": self.constant_fit,
            "c_max": self.c_max,
            "passed": self.passed,
            "entries": self.entries,
        }


# ---------------------------------------------------------------------------
# maximum principle


def _solve_cubic_heat(
    grid: LatticeGrid,
    u0: np.ndarray,
    g: np.ndarray,
    dt: float,
    t_end: float,
    record_every: int = 1,
) -> tuple[np.ndarray, np.ndarray]:
    """Deterministic flow of ``du/dt = lap u - u^3 + g``.

    Strang splitting with the exact cubic map; the massless linear solve is
    diagonal in Fourier space.  Stable for arbitrarily large initial data.
    """
    sp = spectrum(grid)
    mult = 1.0 / (1.0 + dt * sp.mu)
    u = np.array(u0, dtype=float)
    n_steps = int(round(t_end / dt))
    times, snaps = [], []
    for k in range(1, n_steps + 1):
        u = u / np.sqrt(1.0 + dt * u * u)
        u = sp.apply(u + dt * g, mult)
        u = u / np.sqrt(1.0 + dt * u * u)
        if not np.all(np.isfinite(u)):
            raise RuntimeError(f"deterministic solve blew up at step {k} (dt too large)")
        if k % record_every == 0:
            times.append(k * dt)
            snaps.append(u.copy())
    return np.array(times), np.array(snaps)


def check_max_principle(
    u0: Field,
    g: np.ndarray,
    dt: float = 1e-3,
    record_every: int = 4,
) -> dict:
    """Largest ``|u(t,x)| / max(t^-1/2, |g|_inf^1/3)`` over a (t, x) grid with ``0 < t <= 1``."""
    grid = u0.grid
    g_values = np.broadcast_to(np.asarray(g, float), grid.shape)
    times, snaps = _solve_cubic_heat(grid, u0.values, g_values, dt, 1.0, record_every)
    g_norm = float(np.max(np.abs(g_values)))
    bound = np.maximum(times ** (-0.5), g_norm ** (1.0 / 3.0))
    sup_u = np.max(np.abs(snaps), axis=tuple(range(1, snaps.ndim)))
    ratios = sup_u / bound
    return {
        "sup_ratio": float(np.max(ratios)),
        "u0_norm": float(np.max(np.abs(u0.values))),
        "g_norm": g_norm,
        "times": times,
        "sup_u": sup_u,
    }


def _smooth_random_field(grid: LatticeGrid, rng: np.random.Generator, sup: float) -> np.ndarray:
    """Band-limited random field rescaled to the requested sup-norm."""
    sp = spectrum(grid)
    raw = rng.standard_normal(grid.shape)
    v = sp.apply(raw, np.exp(-sp.mu * (4.0 * grid.eps) ** 2))
    m = np.max(np.abs(v))
    return v * (sup / m) if m > 0 else v


def max_principle_battery(
    d: int = 1,
    L: float = 1.0,
    N: int = 4,
    n_cases: int = 20,
    seed: int = 0,
    c_max: float = 2.0,
    dt: float = 1e-3,
) -> BoundReport:
    """Random (u0, g) battery with ``|u0| <= 1e6`` and ``|g| <= 1e3``."""
    grid = build_grid(d, L, N)
    rng = np.random.default_rng(seed)
    report = BoundReport(name="max_principle", c_max=c_max)
    for case in range(n_cases):
        u0_sup = 10.0 ** rng.uniform(0.0, 6.0)
        g_sup = 10.0 ** rng.uniform(-1.0, 3.0)
        u0 = Field(grid, _smooth_random_field(grid, rng, u0_sup))
        g = _smooth_random_field(grid, rng, g_sup)
        res = check_max_principle(u0, g, dt=dt)
        report.add(case=case, lhs=res["sup_ratio"], rhs=1.0,
                   u0_norm=res["u0_norm"], g_norm=res["g_norm"])
    return report


# ---------------------------------------------------------------------------
# a priori bound batteries


def _initial_profiles(grid: LatticeGrid, magnitudes: Sequence[float]) -> np.ndarray:
    """Deterministic smooth profile of unit sup-norm, scaled to each magnitude in turn."""
    coords = grid.site_coords()
    phase = np.zeros(grid.shape)
    for axis in range(grid.d):
        phase += np.cos(2.0 * np.pi * coords[..., axis] / grid.L + 0.7 * axis)
    v = phase / grid.d
    return np.multiply.outer(magnitudes, v) / np.max(np.abs(v))


def _add_apriori_entries(report: BoundReport, cfg: SimConfig, magnitudes: Sequence[float],
                         R: float, kappa: float, store_every: int,
                         domain_lhs: BoxRegion | None = None,
                         domain_semi: BoxRegion | None = None, **extra) -> None:
    """One entry per magnitude for one seed, from one tree ensemble and one report.

    The chains of all magnitudes step as one batch on the seed's noise, taking
    ``sup |u - tree1|`` over ``t >= R^2`` as they go.
    """
    grid = cfg.grid()
    mask = np.ones(grid.shape, bool) if domain_lhs is None else domain_lhs.mask(grid)
    lhs = np.zeros(len(magnitudes))

    def sup_remainder(t: float, u: np.ndarray, tree1: np.ndarray) -> None:
        if t >= R**2:
            np.maximum(lhs, np.max(np.abs(u - tree1)[:, mask], axis=1), out=lhs)

    ens = _co_evolve(cfg, _initial_profiles(grid, magnitudes), store_every, 1.0, sup_remainder)
    if not np.any(ens.times >= R**2):
        raise ValueError(f"no stored time lies in the window t >= R^2 = {R**2}")
    kernels = DyadicKernelFamily(grid, store_dt=cfg.dt * store_every)
    semi = seminorm_report(ens, kernels, kappa, domain=domain_semi)
    rhs = max(1.0 / R, max(semi.rhs_candidates().values()))
    for mag, sup in zip(magnitudes, lhs):
        report.add(lhs=float(sup), rhs=rhs, seed=cfg.seed, magnitude=mag, **extra,
                   seminorms=dict(semi.values))


def check_apriori(
    d: int = 1,
    L: float = 1.0,
    N: int = 5,
    dt: float = 1e-3,
    R: float = 0.5,
    kappa: float = 0.2,
    magnitudes: Sequence[float] = (1.0, 1e3, 1e6),
    seeds: Sequence[int] = (0, 1, 2),
    c_max: float = 10.0,
    store_every: int = 4,
) -> BoundReport:
    """Battery for the global bound over seeds and initial magnitudes."""
    if not 0.0 < R < 1.0:
        raise ValueError(f"R must lie in (0, 1), got {R}")
    report = BoundReport(name="apriori", c_max=c_max)
    for seed in seeds:
        cfg = SimConfig(d=d, L=L, N=N, dt=dt, t_end=1.0, integrator="split", seed=seed)
        _add_apriori_entries(report, cfg, magnitudes, R, kappa, store_every)
    return report


def check_apriori_localised(
    d: int = 2,
    L: float = 1.0,
    N: int = 5,
    dt: float = 1e-3,
    R: float = 0.1,
    kappa: float = 0.2,
    N_box: float = 0.45,
    psi_radius: float = 0.3,
    magnitudes: Sequence[float] = (1.0,),
    seeds: Sequence[int] = (0,),
    c_max: float = 10.0,
    store_every: int = 4,
) -> BoundReport:
    """Localised battery: spatial suprema restricted to ``[-N_box, N_box]^d``.

    Requires ``supp psi`` inside the R-shrunk box (the bound's termination
    condition) and torus extent at least ``2 N_box``.
    """
    c0 = N_box - psi_radius
    if R >= c0:
        raise GridError(
            f"R = {R} too large: the test-function support leaves the shrunk box "
            f"(requires R < N_box - psi_radius = {c0})"
        )
    if L < 2.0 * N_box:
        raise GridError(f"torus extent {L} smaller than the localisation box {2 * N_box}")
    box_semi = BoxRegion((-N_box,) * d, (N_box,) * d)
    box_lhs = BoxRegion((-N_box + R,) * d, (N_box - R,) * d)
    report = BoundReport(name="apriori_localised", c_max=c_max)
    for seed in seeds:
        cfg = SimConfig(d=d, L=L, N=N, dt=dt, t_end=1.0, integrator="split",
                        seed=seed, psi_radius=psi_radius)
        _add_apriori_entries(report, cfg, magnitudes, R, kappa, store_every,
                             domain_lhs=box_lhs, domain_semi=box_semi, L=L)
    return report


def coming_down_check(
    d: int,
    L: float,
    N: int,
    dt: float,
    t_snapshot: float,
    magnitudes: Sequence[float],
    seed: int,
) -> dict:
    """Norm of the chain at ``t_snapshot`` per initial magnitude, all on one seed's noise.

    The norm is the negative-Holder proxy of ``C^(-1/2 - kappa)`` at ``kappa = 0.2``.
    """
    cfg = SimConfig(d=d, L=L, N=N, dt=dt, t_end=t_snapshot, integrator="split", seed=seed)
    grid = cfg.grid()
    stepper = _Stepper(cfg, grid)
    stream = NoiseStream(seed, grid, stream_id=cfg.stream_id)
    u = _initial_profiles(grid, magnitudes)
    for k in range(1, cfg.n_steps() + 1):
        u = step(stepper, u, stepper.noise_scale * stream.standard_normals(), k)
    norms = {mag: holder_norm_neg(v, grid, -0.7) for mag, v in zip(magnitudes, u)}
    vals = list(norms.values())
    return {
        "norms": norms,
        "spread": max(vals) / min(vals),
        "seed": seed,
    }


def volume_pair_seminorms(
    seed: int,
    d: int = 2,
    N: int = 5,
    L: float = 2.0,
    dt: float = 2e-3,
    kappa: float = 0.2,
    N_box: float = 0.45,
    store_every: int = 4,
) -> dict:
    """Localised tree seminorms on tori of extent L and 2L, noise-coupled.

    Both tree ensembles share one underlying white noise: the small-torus
    increments are the restriction of the large-torus increments to the
    embedded ``[0, L)^d`` block (the restriction of white noise to a
    subregion is again white noise, so both marginals are exact).  The
    initial linear fields are spectrally filtered from one common white
    field the same way.  With spatial suprema fixed to ``[-N_box, N_box]^d``
    the large-torus right-hand side should not exceed the small-torus one
    beyond statistical factors: behaviour far from the box cannot influence
    the localised bound.
    """
    grid_s = build_grid(d, L, N)
    grid_l = build_grid(d, 2.0 * L, N)
    stream = NoiseStream(seed, grid_l, stream_id=17)
    restrict = (slice(0, grid_s.sites_per_axis),) * d

    white0 = stream.standard_normals()
    n_steps = int(round(1.0 / dt))
    states = {}
    for tag, grid, w0 in (("small", grid_s, white0[restrict]), ("large", grid_l, white0)):
        prop = LinearPropagator(grid, DEFAULT_M2, dt)
        states[tag] = _TreeState(prop, compute_c1(grid, DEFAULT_M2),
                                 prop.apply(w0, prop.stationary_mult), n_steps, store_every, "imex")
    noise_scale = states["small"].prop.noise_scale
    for k in range(1, n_steps + 1):
        white = stream.standard_normals()
        for tag, w in (("small", white[restrict]), ("large", white)):
            states[tag].step(noise_scale * w)
            states[tag].store(k)

    box = BoxRegion((-N_box,) * d, (N_box,) * d)
    out = {}
    for tag, st in states.items():
        grid = st.prop.grid
        ens = st.ensemble(compute_c2(grid, DEFAULT_M2))
        kernels = DyadicKernelFamily(grid, store_dt=dt * store_every)
        out[tag] = seminorm_report(ens, kernels, kappa, domain=box)
    return out


# ---------------------------------------------------------------------------
# stationary Gaussian covariance battery (quadratic test mode)


def _lag_orbit_ids(shape: tuple[int, ...]) -> np.ndarray:
    """Group lag vectors by the exact lattice symmetries of the law.

    The quadratic-mode stationary covariance is invariant under per-axis
    reflection ``r -> n - r`` and axis permutations; folding lags into
    orbits averages statistically identical entries before testing.
    """
    n = shape[0]
    grids = np.meshgrid(*[np.arange(s) for s in shape], indexing="ij")
    folded = [np.minimum(g, n - g) for g in grids]
    stacked = np.sort(np.stack(folded, axis=-1), axis=-1)
    flat = stacked.reshape(-1, len(shape))
    _, ids = np.unique(flat, axis=0, return_inverse=True)
    return ids.reshape(shape)


def gaussian_covariance_battery(
    d: int,
    N: int,
    n_chains: int,
    n_records: int,
    dt: float = 1.0,
    seed: int = 0,
) -> dict:
    """Stationary covariance of the quadratic test mode vs the exact formula.

    Chains on the unit torus with reference mass ``m2 = 1`` use per-mode exact
    OU transitions from a stationary start, so the empirical covariance is
    unbiased at any dt against the exact target ``ifft(eps^-d / (2 (mu + m2)))``.
    Per symmetry orbit of lags the battery reports the cross-chain z-score of
    the estimate; the effective sample size uses the slowest mode's integrated
    autocorrelation time.
    """
    grid = build_grid(d, 1.0, N)
    prop = LinearPropagator(grid, DEFAULT_M2, dt)
    stream = NoiseStream(seed, grid)
    shape = (n_chains,) + grid.shape

    u_hat = prop.fft(stream.standard_normals(shape)) * prop.stationary_mult
    acc = np.zeros(u_hat.shape)
    for _ in range(n_records):
        w_hat = prop.fft(stream.standard_normals(shape))
        u_hat = prop.ou_decay * u_hat + prop.ou_noise_mult * w_hat
        acc += np.abs(u_hat) ** 2
    per_chain = prop.ifft(acc / n_records) / grid.n_sites
    exact = prop.ifft(grid.eps ** (-d) / (2.0 * prop.a))

    ids = _lag_orbit_ids(grid.shape)
    n_orbits = ids.max() + 1
    flat = per_chain.reshape(n_chains, -1)
    ids_flat = ids.reshape(-1)
    counts = np.bincount(ids_flat, minlength=n_orbits)
    orbit_chain = np.zeros((n_chains, n_orbits))
    for c in range(n_chains):
        orbit_chain[c] = np.bincount(ids_flat, weights=flat[c], minlength=n_orbits) / counts
    orbit_target = np.bincount(ids_flat, weights=exact.reshape(-1), minlength=n_orbits) / counts

    mean = orbit_chain.mean(axis=0)
    se = orbit_chain.std(axis=0, ddof=1) / math.sqrt(n_chains)
    z = (mean - orbit_target) / se
    rho0 = math.exp(-dt * DEFAULT_M2)
    tau = (1.0 + rho0) / (2.0 * (1.0 - rho0))
    return {
        "z": z,
        "max_abs_z": float(np.max(np.abs(z))),
        "n_orbits": int(n_orbits),
        "ess": n_chains * n_records / (2.0 * tau),
        "orbit_mean": mean,
        "orbit_target": orbit_target,
    }


# ---------------------------------------------------------------------------
# convergence of discretisations


@dataclass
class ConvergenceReport:
    levels: tuple[int, ...]
    n_ref: int
    sup_proxy_distance: dict[int, float]
    rms_observable_distance: dict[int, float]
    blown_up: tuple[int, ...] = ()

    def distances_decreasing(self, strict: bool = True) -> bool:
        vals = [self.sup_proxy_distance[n] for n in sorted(self.levels)]
        pairs = zip(vals, vals[1:])
        return all(b < a if strict else b <= a for a, b in pairs)


def convergence_study(
    levels: Sequence[int],
    n_ref: int,
    d: int = 1,
    L: float = 1.0,
    dt: float = 1e-3,
    t_end: float = 1.0,
    seed: int = 0,
    kappa: float = 0.2,
    quadratic: bool = False,
    record_every: int = 8,
    burn_fraction: float = 0.0,
    initial: Callable[[np.ndarray], np.ndarray] | None = None,
) -> ConvergenceReport:
    """Coupled-noise convergence towards the finest level.

    All levels are driven by block averages of one fine-level noise stream
    and started from the box-average projection of one common initial
    condition.  Reports, per level, the sup over recorded times of the
    negative-Holder proxy distance between the embedded level field and the
    reference field, and the RMS pairing distance.  A level whose chain
    blows up is listed in ``blown_up`` and dropped; a blow-up of the
    reference chain raises :class:`BlowUpError`.
    """
    levels = tuple(sorted(levels))
    if levels[-1] >= n_ref:
        raise GridError("all levels must be strictly coarser than the reference")
    grid_ref = build_grid(d, L, n_ref)
    alpha = -0.5 - kappa

    if initial is None:
        coords = grid_ref.site_coords()
        phi0_ref = Field(grid_ref, 0.5 * np.cos(2.0 * np.pi * coords[..., 0] / L))
    else:
        phi0_ref = Field(grid_ref, initial(grid_ref.site_coords()))

    cfg_ref = SimConfig(d=d, L=L, N=n_ref, dt=dt, t_end=t_end, seed=seed,
                        quadratic=quadratic, integrator="imex")
    stepper_ref = _Stepper(cfg_ref, grid_ref)
    stream = NoiseStream(seed, grid_ref)

    states, steppers = {}, {}
    for n in levels:
        g = build_grid(d, L, n)
        cfg_n = SimConfig(d=d, L=L, N=n, dt=dt, t_end=t_end, seed=seed,
                          quadratic=quadratic, integrator="imex")
        steppers[n] = _Stepper(cfg_n, g)
        states[n] = project(phi0_ref, g).values

    u_ref = phi0_ref.values.copy()
    n_steps = int(round(t_end / dt))
    burn_steps = int(round(burn_fraction * n_steps))
    sup_dist = {n: 0.0 for n in levels}
    sq_obs = {n: 0.0 for n in levels}
    n_rec = 0
    blown: set[int] = set()

    for k in range(1, n_steps + 1):
        inc = stepper_ref.noise_scale * stream.standard_normals()
        u_ref = step(stepper_ref, u_ref, inc, k)
        for n in levels:
            if n in blown:
                continue
            try:
                states[n] = step(steppers[n], states[n], coarsen(inc, levels=n_ref - n), k)
            except BlowUpError:
                blown.add(n)
        if k % record_every == 0 and k > burn_steps:
            n_rec += 1
            x_ref = float(stepper_ref.pairing(u_ref))
            for n in levels:
                if n in blown:
                    continue
                emb = iota_refine(Field(steppers[n].grid, states[n]), n_ref - n)
                sup_dist[n] = max(sup_dist[n], holder_norm_neg(emb.values - u_ref, grid_ref, alpha))
                x_n = float(steppers[n].pairing(states[n]))
                sq_obs[n] += (x_n - x_ref) ** 2

    rms = {n: math.sqrt(sq_obs[n] / max(n_rec, 1)) for n in levels}
    return ConvergenceReport(
        levels=levels,
        n_ref=n_ref,
        sup_proxy_distance=sup_dist,
        rms_observable_distance=rms,
        blown_up=tuple(sorted(blown)),
    )


# ---------------------------------------------------------------------------
# initial-condition discretisation rate


@dataclass(frozen=True)
class LacunaryFunction:
    """Seeded lacunary cosine series with prescribed Holder regularity.

    ``zeta(y) = sum_j 2^(-j (alpha' + 1/2)) sigma_j cos(2 pi 2^j y + theta_j)``
    on the unit torus, with frozen random signs and phases; an explicit
    element of C^alpha' for alpha' < 0.  Cell averages have exact
    antiderivatives, so the block-averaging error can be evaluated without
    sampling bias.
    """

    alpha_prime: float
    n_modes: int = 10
    seed: int = 0

    def _components(self):
        rng = np.random.default_rng(self.seed)
        signs = rng.choice([-1.0, 1.0], size=self.n_modes)
        phases = rng.uniform(0.0, 2.0 * np.pi, size=self.n_modes)
        j = np.arange(self.n_modes)
        amps = signs * 2.0 ** (-j * (self.alpha_prime + 0.5))
        freqs = 2.0**j
        return amps, freqs, phases

    def mode_cell_averages(self, grid: LatticeGrid) -> np.ndarray:
        """Exact average of each mode ``cos(2 pi 2^j y + theta_j)`` over each cell of a
        d=1 grid, one row per mode (amplitudes not applied)."""
        if grid.d != 1:
            raise GridError("lacunary initial data is one-dimensional")
        _, freqs, phases = self._components()
        edges = np.arange(grid.sites_per_axis + 1) * grid.eps
        out = np.empty((self.n_modes, grid.sites_per_axis))
        for row, f, th in zip(out, freqs, phases):
            anti = np.sin(2.0 * np.pi * f * edges + th) / (2.0 * np.pi * f)
            row[:] = (anti[1:] - anti[:-1]) / grid.eps
        return out


def _dictionary_profiles() -> list[Callable]:
    """Fixed test profiles on [-1, 1]: one C^inf bump and its derivative."""

    def bump(v):
        v = np.asarray(v, dtype=float)
        out = np.zeros_like(v)
        inside = np.abs(v) < 1.0
        out[inside] = np.exp(1.0 - 1.0 / (1.0 - v[inside] ** 2))
        return out

    def dbump(v):
        v = np.asarray(v, dtype=float)
        out = np.zeros_like(v)
        inside = np.abs(v) < 1.0
        w = v[inside]
        out[inside] = np.exp(1.0 - 1.0 / (1.0 - w**2)) * (-2.0 * w / (1.0 - w**2) ** 2)
        return out

    return [bump, dbump]


def _pairing_error_norm(
    zeta: LacunaryFunction,
    grid: LatticeGrid,
    kappa: float,
    n_base: int = 32,
) -> float:
    """``sup_x sup_lam sup_phi lam^(1/2+kappa) |<zeta - iota P zeta, phi_x^lam>|``.

    Evaluated mode by mode: the exact pairing of each cosine mode comes from
    a dense oscillatory quadrature, the block-averaged pairing from the
    exact cell averages (:meth:`LacunaryFunction.mode_cell_averages`) against
    the per-cell Gauss quadrature of the profile.
    """
    amps, freqs, phases = zeta._components()
    n_cells = grid.sites_per_axis
    edges = np.arange(n_cells + 1) * grid.eps
    centers = 0.5 * (edges[1:] + edges[:-1])
    half = grid.eps / 2.0
    mode_avgs = zeta.mode_cell_averages(grid)
    profiles = _dictionary_profiles()
    lams = []
    lam = 0.5
    while lam > grid.eps:
        lams.append(lam)
        lam /= 2.0
    base_points = (np.arange(n_base) + 0.5) / n_base * grid.L
    gl_nodes, gl_weights = np.polynomial.legendre.leggauss(8)
    best = 0.0
    for lam in lams:
        for profile in profiles:
            # oscillatory integrals of the profile, once per (mode, lam)
            osc = [profile_mode_integrals(profile, lam, f) for f in freqs]
            # per-cell integrals of the scaled profile for every base point
            cell_int = np.zeros((len(base_points), n_cells))
            for node, wgt in zip(gl_nodes, gl_weights):
                pts = centers[None, :] + node * half - base_points[:, None]
                diff = np.mod(pts + grid.L / 2.0, grid.L) - grid.L / 2.0
                cell_int += wgt * half * profile(diff.reshape(-1) / lam).reshape(diff.shape) / lam
            total = np.zeros(len(base_points))
            for a, f, th, avg, (i_cos, i_sin) in zip(amps, freqs, phases, mode_avgs, osc):
                arg = 2.0 * np.pi * f * base_points + th
                exact_mode = np.cos(arg) * i_cos - np.sin(arg) * i_sin
                total += a * (exact_mode - cell_int @ avg)
            best = max(best, lam ** (0.5 + kappa) * float(np.max(np.abs(total))))
    return best


def profile_mode_integrals(profile: Callable, lam: float, freq: float) -> tuple[float, float]:
    """Dense quadratures ``integral profile(v) {cos, sin}(2 pi freq lam v) dv``.

    With these, ``<cos(2 pi freq . + phase), profile((. - x)/lam)/lam>``
    equals ``cos(2 pi freq x + phase) I_cos - sin(...) I_sin``.  Midpoint rule
    on 8192 nodes.
    """
    n_quad = 8192
    v = (np.arange(n_quad) + 0.5) / n_quad * 2.0 - 1.0
    pv = profile(v)
    dv = 2.0 / n_quad
    i_cos = float(np.sum(pv * np.cos(2.0 * np.pi * freq * lam * v)) * dv)
    i_sin = float(np.sum(pv * np.sin(2.0 * np.pi * freq * lam * v)) * dv)
    return i_cos, i_sin


def init_discretisation_rate(
    zeta: LacunaryFunction,
    kappa: float,
    kappa_bar: float,
    levels: Sequence[int],
) -> dict:
    """Fit the decay rate of the block-averaging error across dyadic levels of the unit torus.

    Requires ``kappa_bar < kappa / 2``.  Returns the per-level norms and the
    least-squares slope of ``log norm`` against ``log eps`` (the theoretical
    one-sided reference slope is ``kappa - 2 kappa_bar``).
    """
    if not kappa_bar < 0.5 * kappa:
        raise ValueError(f"requires kappa_bar < kappa/2, got {kappa_bar} >= {kappa / 2}")
    levels = tuple(sorted(levels))
    norms = []
    for n in levels:
        grid = build_grid(1, 1.0, n)
        norms.append(_pairing_error_norm(zeta, grid, kappa))
    norms_arr = np.array(norms)
    log_eps = np.array([-n * math.log(2.0) for n in levels])
    log_norm = np.log(norms_arr)
    slope = float(np.polyfit(log_eps, log_norm, 1)[0])
    return {
        "levels": levels,
        "norms": norms_arr,
        "slope": slope,
        "reference_slope": kappa - 2.0 * kappa_bar,
    }
