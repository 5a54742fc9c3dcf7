"""Monte-Carlo estimators: partition functions, tails, density cross-checks.

Sample sets come either as one long chain (1-d array) or as a batch of
independent chains (2-d array, chains along the first axis).  Standard
errors use integrated-autocorrelation-aware effective sample sizes for
single chains and cross-chain dispersion for batches.

Reweighting note.  With the noise normalisation used by the dynamics module
(per-site increment variance ``dt * eps^-d``), the stationary law of the
tilted chain at drift coupling ``beta`` has Radon-Nikodym derivative
``exp(2 beta F_n(X))`` with respect to the base chain: the chain's inverse
temperature under this convention is 2, so the drift coupling enters the
density doubled.  :func:`density_log_weight` is the single place encoding
this; every cross-chain comparison goes through it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .potential import TruncatedPotential

__all__ = [
    "SampleSet",
    "PartitionEstimate",
    "CrossCheckReport",
    "PlateauReport",
    "TailFit",
    "TailAccumulator",
    "integrated_autocorr_time",
    "density_log_weight",
    "estimate_partition",
    "tail_exponent",
    "density_cross_check",
    "uniform_Z_plateau",
    "moving_block_bootstrap",
]

MIN_RELIABLE_ESS = 100.0
CI_LEVEL = 0.95  # coverage of the partition estimate's bootstrap interval
MIN_EXCEED = 50  # fewest exceedances a tail-fit level may have


class DegenerateSampleError(ValueError):
    """Raised when a sample set cannot support the requested estimate."""


def integrated_autocorr_time(x: np.ndarray) -> float:
    """Integrated autocorrelation time with the standard windowing rule.

    ``tau_int(W) = 1/2 + sum_{t<=W} rho(t)`` evaluated at the smallest
    window with ``W >= 5 tau_int(W)``.
    """
    x = np.asarray(x, dtype=float)
    n = len(x)
    if n < 8:
        return 0.5
    x = x - x.mean()
    var = np.mean(x * x)
    if var == 0.0:
        return 0.5
    m = 1
    while m < 2 * n:
        m *= 2
    fx = np.fft.rfft(x, n=m)
    acf = np.fft.irfft(fx * np.conj(fx), n=m)[:n]
    acf = acf / acf[0]
    tau = 0.5
    for w in range(1, n):
        tau += acf[w]
        if w >= 5.0 * tau:
            return max(tau, 0.5)
    return max(tau, 0.5)


@dataclass
class SampleSet:
    """Observable samples with chain metadata.

    ``values`` has shape ``(n,)`` for one chain or ``(n_chains, n)`` for a
    batch of independent chains recorded on a common schedule.
    """

    values: np.ndarray
    seed: int = 0
    dt: float = 0.0
    burn_in: int = 0
    thinning: int = 1
    _tau: float | None = field(default=None, repr=False)

    def __post_init__(self) -> None:
        self.values = np.atleast_1d(np.asarray(self.values, dtype=float))
        if self.values.ndim > 2:
            raise ValueError("sample values must be 1-d or 2-d (chains x records)")

    @property
    def n_chains(self) -> int:
        return 1 if self.values.ndim == 1 else self.values.shape[0]

    @property
    def n_total(self) -> int:
        return self.values.size

    def pooled(self) -> np.ndarray:
        return self.values.reshape(-1)

    def autocorr_time(self) -> float:
        if self._tau is None:
            if self.values.ndim == 1:
                self._tau = integrated_autocorr_time(self.values)
            else:
                taus = [integrated_autocorr_time(row) for row in self.values]
                self._tau = float(np.mean(taus))
        return self._tau

    def ess(self) -> float:
        """Effective sample size ``count / (2 tau_int)``."""
        return self.n_total / (2.0 * self.autocorr_time())

    def mean_and_se(self, transform: Callable[[np.ndarray], np.ndarray] | None = None):
        """Mean of (transformed) samples with a chain-aware SE: the unweighted ratio estimate."""
        g = (lambda x: x) if transform is None else transform
        return _ratio_mean_and_se(self.values, np.zeros(self.values.shape), g)


def density_log_weight(p: TruncatedPotential, beta: float, x: np.ndarray) -> np.ndarray:
    """Log relative density of the tilted chain at drift coupling ``beta``.

    Equals ``2 beta F_n(x)``; see the module docstring for why the drift
    coupling enters doubled.
    """
    return 2.0 * beta * np.asarray(p.value(x))


def moving_block_bootstrap(
    x: np.ndarray,
    func: Callable[[np.ndarray], float],
    block: int,
    n_boot: int = 400,
    seed: int = 12345,
) -> np.ndarray:
    """Bootstrap replicates of ``func`` over block-resampled series."""
    x = np.asarray(x, dtype=float)
    n = len(x)
    block = max(1, min(block, n))
    rng = np.random.default_rng(seed)
    n_blocks = int(np.ceil(n / block))
    reps = np.empty(n_boot)
    for b in range(n_boot):
        starts = rng.integers(0, n - block + 1, size=n_blocks)
        idx = (starts[:, None] + np.arange(block)[None, :]).reshape(-1)[:n]
        reps[b] = func(x[idx])
    return reps


@dataclass
class PartitionEstimate:
    """Reweighted partition-function estimate ``mean exp(beta F_n(X))``."""

    n: float
    beta: float
    z_hat: float
    ci_lo: float
    ci_hi: float
    ess: float
    reliable: bool


def estimate_partition(
    samples: SampleSet,
    p: TruncatedPotential,
    beta: float,
) -> PartitionEstimate:
    """Sample mean of ``exp(beta F_n(X))`` with a 400-replicate block-bootstrap CI.

    ``beta`` here is the exponent coefficient of the estimator as written;
    callers comparing against a tilted *chain* must pass the doubled
    coupling via :func:`density_log_weight` conventions.  The truncation
    must be finite so the integrand is bounded and the estimator has finite
    variance by construction.
    """
    if p.n == math.inf:
        raise ValueError("partition estimates require a finite truncation index")
    ess = samples.ess()
    x = samples.pooled()
    # a too-hot beta may overflow the reweighting to inf; the estimate and CI
    # then carry inf, which downstream plateau checks report as a failure
    with np.errstate(over="ignore", invalid="ignore"):
        w = np.exp(beta * np.asarray(p.value(x)))
        z_hat = float(w.mean())
        # resampling unit: two decorrelation spans; blocks of a single span
        # taper away enough autocovariance to visibly under-cover (~87% on an
        # AR(1) calibration battery), blocks of two spans restore >= 90%
        block = max(1, math.ceil(4.0 * samples.autocorr_time()))
        reps = moving_block_bootstrap(w, np.mean, block, seed=samples.seed + 7)
        lo, hi = np.quantile(reps, [(1 - CI_LEVEL) / 2, 1 - (1 - CI_LEVEL) / 2])
    return PartitionEstimate(
        n=p.n,
        beta=beta,
        z_hat=z_hat,
        ci_lo=float(lo),
        ci_hi=float(hi),
        ess=ess,
        reliable=bool(ess >= MIN_RELIABLE_ESS),
    )


@dataclass
class TailFit:
    slope: float
    stderr: float
    k_window: tuple[float, float]
    n_points: int
    k_values: np.ndarray
    log_survival: np.ndarray


def _fit_survival(ks: np.ndarray, exceed: np.ndarray, n: int, min_exceed: int) -> TailFit:
    """Weighted LS of ``log(-log P)`` vs ``log K`` from exceedance counts."""
    keep = (exceed >= min_exceed) & (exceed < n)
    if keep.sum() < 5:
        raise DegenerateSampleError("tail window under-populated (needs >= 50 exceedances)")
    ks, exceed = ks[keep], exceed[keep]
    p = exceed / n
    y = np.log(-np.log(p))
    t = np.log(ks)
    # Var(log(-log p_hat)) ~ (1-p) / (n p log(p)^2)
    weights = n * p * np.log(p) ** 2 / (1.0 - p)
    w_sum = weights.sum()
    t_bar = np.sum(weights * t) / w_sum
    y_bar = np.sum(weights * y) / w_sum
    s_tt = np.sum(weights * (t - t_bar) ** 2)
    slope = float(np.sum(weights * (t - t_bar) * (y - y_bar)) / s_tt)
    stderr = float(math.sqrt(1.0 / s_tt))
    return TailFit(
        slope=slope,
        stderr=stderr,
        k_window=(float(ks[0]), float(ks[-1])),
        n_points=int(len(ks)),
        k_values=ks,
        log_survival=np.log(p),
    )


def tail_exponent(
    samples: np.ndarray | SampleSet,
    k_window: tuple[float, float] | None = None,
    n_grid: int = 25,
) -> TailFit:
    """Weighted fit of ``log(-log P(X > K))`` against ``log K``.

    The window defaults to the empirically populated range: from the level
    where the survival is about ``exp(-1)`` up to the largest K with at
    least ``MIN_EXCEED`` exceedances.  Refuses degenerate inputs.
    """
    x = samples.pooled() if isinstance(samples, SampleSet) else np.asarray(samples, dtype=float)
    n = len(x)
    if n < 10 * MIN_EXCEED or np.ptp(x) == 0.0:
        raise DegenerateSampleError("sample set too small or constant for a tail fit")
    xs = np.sort(x)
    if k_window is None:
        k_lo = xs[int(n * (1.0 - math.exp(-1.0)))]
        k_hi = xs[n - MIN_EXCEED]
        if not k_hi > k_lo > 0:
            raise DegenerateSampleError("populated tail window is empty")
        k_window = (float(k_lo), float(k_hi))
    ks = np.exp(np.linspace(math.log(k_window[0]), math.log(k_window[1]), n_grid))
    exceed = n - np.searchsorted(xs, ks, side="right")
    return _fit_survival(ks, exceed, n, MIN_EXCEED)


class TailAccumulator:
    """Streaming exceedance counts on a fixed log-spaced K grid.

    Supports tail fits over sample streams too large to hold in memory;
    equivalent to :func:`tail_exponent` with ``k_window`` spanning the
    populated part of the grid.
    """

    def __init__(self, k_min: float, k_max: float, n_grid: int = 400):
        self.k_grid = np.exp(np.linspace(math.log(k_min), math.log(k_max), n_grid))
        self._hist = np.zeros(n_grid + 1, dtype=np.int64)
        self.n_total = 0

    def update(self, samples: np.ndarray) -> None:
        s = np.asarray(samples, dtype=float).reshape(-1)
        idx = np.searchsorted(self.k_grid, s, side="left")
        self._hist += np.bincount(idx, minlength=len(self.k_grid) + 1)
        self.n_total += len(s)

    def exceedances(self) -> np.ndarray:
        below = np.cumsum(self._hist)[: len(self.k_grid)]
        return self.n_total - below

    def fit(self, min_exceed: int = MIN_EXCEED) -> TailFit:
        """Fit over the grid levels with at least ``min_exceed`` exceedances and a
        survival of at most ``exp(-1)``."""
        exceed = self.exceedances()
        keep = (exceed >= min_exceed) & (exceed <= math.exp(-1.0) * self.n_total)
        if keep.sum() < 5:
            raise DegenerateSampleError("accumulated tail window is under-populated")
        return _fit_survival(self.k_grid[keep], exceed[keep], self.n_total, min_exceed)


@dataclass
class CrossCheckReport:
    """Tilted-chain mean vs reweighted base-chain mean of one observable."""

    a: float
    se_a: float
    b: float
    se_b: float
    ess_a: float = math.nan
    ess_b: float = math.nan

    @property
    def diff(self) -> float:
        return abs(self.a - self.b)

    @property
    def sigma(self) -> float:
        return math.sqrt(self.se_a**2 + self.se_b**2)

    @property
    def z(self) -> float:
        return self.diff / self.sigma if self.sigma > 0 else math.inf


def _ratio_mean_and_se(x: np.ndarray, log_w: np.ndarray, g: Callable) -> tuple[float, float]:
    """Self-normalised importance estimate with chain-aware errors: the spread of the
    per-chain estimates for 8 or more chains, else the pooled delta method."""
    gv = g(x)
    w = np.exp(log_w - log_w.max())
    if x.ndim == 2 and x.shape[0] >= 8:
        per_chain = np.sum(w * gv, axis=1) / np.sum(w, axis=1)
        m = float(per_chain.mean())
        se = float(per_chain.std(ddof=1) / math.sqrt(x.shape[0]))
        return m, se
    flat_x, flat_w, flat_g = x.reshape(-1), w.reshape(-1), gv.reshape(-1)
    m = float(np.sum(flat_w * flat_g) / np.sum(flat_w))
    # delta method on the ratio, inflated by the autocorrelation of the numerator
    resid = flat_w * (flat_g - m) / flat_w.mean()
    tau = integrated_autocorr_time(resid)
    se = float(resid.std(ddof=1) * math.sqrt(2.0 * tau / len(resid)))
    return m, se


def density_cross_check(
    phi_samples: SampleSet,
    psi_samples: SampleSet,
    g: Callable[[np.ndarray], np.ndarray],
    p: TruncatedPotential,
    beta: float,
) -> CrossCheckReport:
    """Compare ``E[g(X)]`` under the tilted chain with the reweighted base chain.

    A is the plain mean over the tilted-chain samples; B reweights the base
    chain by the exact relative density ``exp(density_log_weight)``.  Both
    come with autocorrelation/chain-aware standard errors.
    """
    a, se_a = psi_samples.mean_and_se(transform=g)
    log_w = density_log_weight(p, beta, phi_samples.values)
    b, se_b = _ratio_mean_and_se(phi_samples.values, log_w, g)
    return CrossCheckReport(a=a, se_a=se_a, b=b, se_b=se_b,
                            ess_a=psi_samples.ess(), ess_b=phi_samples.ess())


@dataclass
class PlateauReport:
    beta: float
    n_list: tuple[float, ...]
    estimates: list[PartitionEstimate]
    monotone_within_ci: bool
    plateau_ratio: float
    plateau_ok: bool


def uniform_Z_plateau(
    phi_samples: SampleSet,
    beta: float,
    n_list: Sequence[int],
    plateau_threshold: float = 0.05,
) -> PlateauReport:
    """Reweighted ``Z_hat(n)`` sequence from one shared base-chain sample set.

    Checks that the sequence is nondecreasing up to CI overlap and that the
    last doubling moves it by less than ``plateau_threshold`` (the uniform
    bound signature; a violation is evidence that beta is too large).
    """
    n_list = tuple(sorted(n_list))
    estimates = [estimate_partition(phi_samples, TruncatedPotential(n), beta) for n in n_list]
    monotone = True
    for prev, cur in zip(estimates, estimates[1:]):
        if cur.z_hat < prev.z_hat and cur.ci_hi < prev.ci_lo:
            monotone = False
    ratio = estimates[-1].z_hat / estimates[-2].z_hat if len(estimates) >= 2 else 1.0
    return PlateauReport(
        beta=beta,
        n_list=tuple(float(n) for n in n_list),
        estimates=estimates,
        monotone_within_ci=monotone,
        plateau_ratio=float(ratio),
        plateau_ok=bool(ratio - 1.0 < plateau_threshold),
    )
