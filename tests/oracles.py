"""Independent oracles used by the test suite.

Everything here is deliberately naive (explicit loops, dense quadrature,
finite differences) and never imports the code paths it checks beyond the
plain data containers (the linear coupling oracle also reads the grid
symbol and the sampled test function, which the lattice tests check; the
semigroup check composes a kernel family's own kernels).
"""

from __future__ import annotations

import functools
import itertools
import math

import numpy as np

from phi4lattice.lattice import (
    LatticeGrid,
    TestFunction,
    build_grid,
    mu_symbol,
    sample_test_function,
)
from phi4lattice.potential import TruncatedPotential
from phi4lattice.trees import DyadicKernelFamily, _circulant_rows


def laplacian_loops(values: np.ndarray, eps: float) -> np.ndarray:
    """Nearest-neighbour stencil by explicit site loops."""
    shape = values.shape
    out = np.zeros_like(values)
    for idx in np.ndindex(*shape):
        acc = 0.0
        for axis in range(len(shape)):
            for sign in (-1, 1):
                nb = list(idx)
                nb[axis] = (nb[axis] + sign) % shape[axis]
                acc += values[tuple(nb)]
            acc -= 2.0 * values[idx]
        out[idx] = acc / eps**2
    return out


def dot_loops(f: np.ndarray, g: np.ndarray) -> float:
    total = 0.0
    for a, b in zip(f.reshape(-1), g.reshape(-1)):
        total += a * b
    return total


def central_difference(func, x: np.ndarray, h: float = 1e-4) -> np.ndarray:
    return (func(x + h) - func(x - h)) / (2.0 * h)


def box_volume_quadrature(eps: float, d: int, n: int = 64) -> float:
    """Volume of one cell by midpoint quadrature (oracle for eps^d)."""
    h = eps / n
    return (h * n) ** d


def gibbs_density_exponent(phi: np.ndarray, eps: float, counterterm: float) -> np.ndarray:
    """Minus log-density (up to a constant) of the d=1 chain's invariant law.

    The chain ``du = [lap u + ct u - u^3] dt + dxi`` with per-site noise
    variance ``eps^-1 dt`` has invariant density ``exp(-2 eps H(phi))`` with
    ``H = sum (grad^2/(2 eps^2) - ct phi^2/2 + phi^4/4)``.
    """
    grad = np.diff(np.concatenate([phi, phi[..., :1]], axis=-1), axis=-1)
    h = (
        (grad**2).sum(axis=-1) / (2.0 * eps**2)
        - 0.5 * counterterm * (phi**2).sum(axis=-1)
        + 0.25 * (phi**4).sum(axis=-1)
    )
    return 2.0 * eps * h


class GibbsQuadrature:
    """Dense Gauss-Legendre quadrature for the d=1 lattice Gibbs measure.

    Supports the tilted measure ``exp(-2 eps H + 2 beta F_n(X))`` where
    ``X = eps * sum psi_eps * phi`` is the embedded pairing.
    """

    def __init__(self, grid: LatticeGrid, counterterm: float, bound: float = 4.5,
                 order: int = 48):
        if grid.d != 1:
            raise ValueError("quadrature oracle is one-dimensional")
        self.grid = grid
        self.counterterm = counterterm
        nodes, weights = np.polynomial.legendre.leggauss(order)
        self.nodes = nodes * bound
        self.weights = weights * bound
        n = grid.sites_per_axis
        pts = np.array(list(itertools.product(self.nodes, repeat=n)))
        wts = np.array(list(itertools.product(self.weights, repeat=n))).prod(axis=1)
        log_dens = -gibbs_density_exponent(pts, grid.eps, counterterm)
        self._pts = pts
        self._log_base = log_dens + np.log(wts)

    def expectation(self, func, log_tilt=None) -> float:
        logw = self._log_base.copy()
        if log_tilt is not None:
            logw = logw + log_tilt(self._pts)
        logw -= logw.max()
        w = np.exp(logw)
        return float(np.sum(w * func(self._pts)) / np.sum(w))

    def pairing(self, psi_eps: np.ndarray) -> np.ndarray:
        return self.grid.eps * self._pts @ psi_eps


def seminorm_brute(
    stored: dict[str, np.ndarray],
    c2: float,
    spatial_kernels: list[np.ndarray],
    time_kernels: list[np.ndarray],
    scales: list[float],
    exponent: float,
    tau: str,
    time_stride: int = 1,
    site_stride: int = 1,
) -> float:
    """Triple-loop evaluation of the dyadic seminorm on a tiny d=1 ensemble.

    Base points are every ``time_stride``-th stored time from the kernel's time
    padding on and every ``site_stride``-th site.
    """
    first = next(iter(stored.values()))
    n_t, n_x = first.shape

    def conv(arr: np.ndarray, kern_s: np.ndarray, kern_t: np.ndarray, t: int, x: int) -> float:
        pad = (len(kern_t) - 1) // 2
        total = 0.0
        for m, wt in enumerate(kern_t):
            tt = t + (m - pad)
            for y in range(n_x):
                total += wt * kern_s[(x - y) % n_x] * arr[tt, y]
        return total

    best = 0.0
    for idx, lam in enumerate(scales):
        ks, kt = spatial_kernels[idx], time_kernels[idx]
        pad = (len(kt) - 1) // 2
        for t in range(pad, n_t - pad, time_stride):
            for x in range(0, n_x, site_stride):
                if tau in ("2", "3"):
                    val = conv(stored[tau], ks, kt, t, x)
                elif tau in ("20", "30"):
                    val = conv(stored[tau], ks, kt, t, x) - stored[tau][t, x]
                elif tau == "22":
                    val = conv(stored["20"] * stored["2"] - c2, ks, kt, t, x) - stored["20"][
                        t, x
                    ] * conv(stored["2"], ks, kt, t, x)
                elif tau == "31":
                    val = conv(stored["30"] * stored["1"], ks, kt, t, x) - stored["30"][
                        t, x
                    ] * conv(stored["1"], ks, kt, t, x)
                elif tau == "32":
                    val = conv(stored["30"] * stored["2"], ks, kt, t, x) - stored["30"][
                        t, x
                    ] * conv(stored["2"], ks, kt, t, x)
                else:
                    raise ValueError(tau)
                best = max(best, lam**exponent * abs(val))
    return best


def truncated_potential_select(n: float, abc: tuple[float, float, float], x) -> tuple:
    """``(F_n(x), F_n'(x))`` picked piece by piece with ``np.select``: x^4/4 up to
    ``|x| = n``, the plateau ``n^4/4 + 1`` from ``n + 1`` on, the quintic blend
    with coefficients ``abc`` between.
    """
    x = np.asarray(x, dtype=float)
    ax = np.abs(x)
    if n == math.inf:
        return 0.25 * ax**4, np.sign(x) * ax**3
    a, b, c = abc
    s = np.clip(ax - n, 0.0, 1.0)
    pieces = [ax <= n, ax >= n + 1.0]
    value = np.select(pieces, [0.25 * ax**4, n**4 / 4.0 + 1.0],
                      default=0.25 * n**4 + n**3 * s + a * s**3 + b * s**4 + c * s**5)
    deriv = np.sign(x) * np.select(pieces, [ax**3, 0.0],
                                   default=n**3 + 3.0 * a * s**2 + 4.0 * b * s**3 + 5.0 * c * s**4)
    return value, deriv


def derivative_sup(p: TruncatedPotential, n_points: int = 100_001) -> float:
    """Numerical sup of |F'| (attained in [0, n+1] by evenness and the plateau)."""
    if p.n == math.inf:
        return math.inf
    x = np.linspace(0.0, p.n + 1.0, n_points)
    return float(np.max(np.abs(p.deriv(x))))


def torus_integral(psi: TestFunction, L: float, n_points: int = 512) -> float:
    """Total integral of ``psi`` over the torus, by tensorised midpoint quadrature."""
    h = L / n_points
    axis = (np.arange(n_points) + 0.5) * h
    mesh = np.meshgrid(*([axis] * psi.d), indexing="ij")
    pts = np.stack(mesh, axis=-1).reshape(-1, psi.d)
    return float(np.sum(psi(pts, L=L)) * h**psi.d)


def survival_inverse_sample(rng: np.random.Generator, n: int, power: float) -> np.ndarray:
    """Samples with exact survival ``P(X > K) = exp(-K^power)`` for K >= 0."""
    u = rng.uniform(size=n)
    return (-np.log(u)) ** (1.0 / power)


def sunset_sum_loops(grid: LatticeGrid, m2: float, dt: float | None = None) -> float:
    """Sunset constant by the O(sites^2) mode-pair sum, one ``np.roll`` per mode.

    ``dt=None`` gives ``(1/2) L^-2d sum_{k,l} [a_k a_l (a_k + a_l + a_{k+l})]^-1``
    with ``a = mu + m2``; a positive ``dt`` replaces the time integral behind
    the last factor by its exact-OU / exponential-Euler geometric sum.
    """

    def weight(a_k, a_l, a_kl):
        if dt is None:
            return 1.0 / (a_k + a_l + a_kl)
        b = a_k + a_l
        phi1 = -np.expm1(-a_kl * dt) / (a_kl * dt)
        return dt * phi1 * np.exp(-b * dt) / (-np.expm1(-(b + a_kl) * dt))

    a = m2 + _mu_full(grid.shape, grid.eps)
    flat = a.reshape(-1)
    total = 0.0
    for idx in np.ndindex(*grid.shape):
        a_k = a[idx]
        a_kl = np.roll(a, shift=[-i for i in idx], axis=tuple(range(grid.d)))
        total += float(np.sum(weight(a_k, flat, a_kl.reshape(-1)) / (a_k * flat)))
    return 0.5 * total / grid.L ** (2 * grid.d)


def _mu_full(shape: tuple[int, ...], eps: float) -> np.ndarray:
    """Symbol of ``-laplacian`` on the full FFT mode grid."""
    n = shape[0]
    mu_axis = 4.0 / eps**2 * np.sin(np.pi * np.arange(n) / n) ** 2
    return sum(np.meshgrid(*[mu_axis] * len(shape), indexing="ij"))


def convolve_spectral(arr: np.ndarray, grid: LatticeGrid, heat_times, time_kernels,
                      time_stride: int = 1) -> list[np.ndarray]:
    """Space-time kernel averages of a stored (T, *shape) trajectory at every site, one per scale.

    The spatial kernel is applied as the multiplier ``exp(-u mu(k))`` on the full complex mode
    grid; scale ``i`` then sums its time taps at every ``time_stride``-th stored time that its
    time kernel fully covers.
    """
    axes = tuple(range(1, grid.d + 1))
    spec = np.fft.fftn(arr, axes=axes)
    mu = _mu_full(grid.shape, grid.eps)
    out = []
    for u, weights in zip(heat_times, time_kernels):
        smooth = np.fft.ifftn(spec * np.exp(-u * mu), axes=axes).real
        pad = (len(weights) - 1) // 2
        base = np.arange(pad, len(arr) - pad, time_stride)
        out.append(sum(w * smooth[base + m - pad] for m, w in enumerate(weights)))
    return out


def _center_pad(w: np.ndarray, n: int) -> np.ndarray:
    out = np.zeros(n)
    start = (n - len(w)) // 2
    out[start : start + len(w)] = w
    return out


def semigroup_errors(kern: DyadicKernelFamily) -> list[float]:
    """Relative L1 error of phi_u * phi_v vs phi_{u+v} at adjacent scales."""

    def product(axis_kernel):  # the d-dimensional kernel with this factor on every axis
        return functools.reduce(np.multiply.outer, [axis_kernel] * kern.grid.d)

    errors = []
    for i in range(kern.n_scales - 1):
        u, v = kern.heat_times[i], kern.heat_times[i + 1]
        tk_composed = np.convolve(kern._time_kernels[i], kern._time_kernels[i + 1])
        tk_target = kern._time_profile(u + v)
        nt = max(len(tk_composed), len(tk_target))
        k_u, k_v = kern._axis_kernels[i], kern._axis_kernels[i + 1]
        axis_composed = _circulant_rows(k_u, np.arange(len(k_u))) @ k_v  # k_u * k_v, periodic
        composed = np.multiply.outer(_center_pad(tk_composed, nt), product(axis_composed))
        target = np.multiply.outer(_center_pad(tk_target, nt), product(kern._axis_kernel(u + v)))
        denom = np.sum(np.abs(target))
        errors.append(float(np.sum(np.abs(composed - target)) / denom))
    return errors


def holder_norm_neg_complex(values: np.ndarray, L: float, eps: float, alpha: float,
                            mask: np.ndarray | None = None) -> float:
    """Littlewood-Paley proxy ``max_j 2^(j alpha) sup |block_j f|``, one complex
    ``ifftn`` per sharp block ``|k|_inf / L in [2^(j-1), 2^j)`` (block 0: ``< 1``)."""
    n, d = values.shape[0], values.ndim
    k = np.abs(np.fft.fftfreq(n, d=1.0 / n)) / L
    kmag = np.max(np.stack(np.meshgrid(*[k] * d, indexing="ij")), axis=0)
    fhat = np.fft.fftn(values)
    best, j = 0.0, 0
    while j == 0 or 2 ** (j - 1) <= kmag.max():
        block_mask = kmag < 1.0 if j == 0 else (kmag >= 2 ** (j - 1)) & (kmag < 2**j)
        block = np.fft.ifftn(fhat * block_mask).real
        if mask is not None:
            block = block[mask]
        best = max(best, 2.0 ** (j * alpha) * float(np.max(np.abs(block))))
        j += 1
    return best


def sobolev_norm_sq_complex(values: np.ndarray, eps: float, alpha: float) -> float:
    """``sum_{k != 0} |fhat(k)|^2 mu(k)^-alpha`` with the transform unitary for
    the ``eps^d``-weighted inner product, over the full complex spectrum."""
    mu = _mu_full(values.shape, eps)
    fhat = np.fft.fftn(values) * np.sqrt(eps**values.ndim / values.size)
    mult = np.zeros_like(mu)
    mult[mu > 0] = mu[mu > 0] ** (-alpha)
    return float(np.sum(np.abs(fhat) ** 2 * mult))


def tree_series_real_space(prop, c1: float, tree1: np.ndarray | None, normals, n_steps: int,
                           store_every: int, amplitude: float, mode: str) -> dict[str, np.ndarray]:
    """Stored trees 1, 2, 3, 20, 30 by the real-space recursions: every step takes
    tree1, tree20 and tree30 to the spectrum and back.

    ``prop`` supplies the Fourier multipliers only; ``normals()`` returns the next
    standard-normal draw.  ``tree1=None`` starts from the stationary field made from
    the first draw.  ``imex``: ``tree1 <- (1 + dt A)^-1 (tree1 + amplitude * noise_scale
    * xi)`` and ``tree_k0 <- (1 + dt A)^-1 (tree_k0 + dt * tree_k)``.  ``exact``: the
    OU transition of tree1 and the exponential-Euler update of the heat integrals.
    """

    axes = tuple(range(prop.grid.d))

    def fft(values):
        return np.fft.rfftn(values, axes=axes)

    def ifft(spec):
        return np.fft.irfftn(spec, prop.grid.shape, axes)

    def wick(t1):
        return t1 * t1 - c1, t1 * (t1 * t1 - 3.0 * c1)

    t1 = amplitude * ifft(fft(normals()) * prop.stationary_mult) if tree1 is None else tree1
    t20 = t30 = np.zeros(t1.shape)
    stored: dict[str, list] = {key: [] for key in ("1", "2", "3", "20", "30")}
    for k in range(1, n_steps + 1):
        t2, t3 = wick(t1)
        xi = normals()
        if mode == "imex":
            t1 = ifft(fft(t1 + amplitude * prop.noise_scale * xi) * prop.imex_mult)
            t20 = ifft(fft(t20 + prop.dt * t2) * prop.imex_mult)
            t30 = ifft(fft(t30 + prop.dt * t3) * prop.imex_mult)
        else:
            t1 = ifft(fft(t1) * prop.ou_decay + amplitude * fft(xi) * prop.ou_noise_mult)
            t20 = ifft(fft(t20) * prop.ou_decay + prop.exp_euler_weight * fft(t2))
            t30 = ifft(fft(t30) * prop.ou_decay + prop.exp_euler_weight * fft(t3))
        if k % store_every == 0:
            for key, val in zip(stored, (t1, *wick(t1), t20, t30)):
                stored[key].append(val)
    return {key: np.array(vals) for key, vals in stored.items()}


def _dft_matrix(n: int) -> np.ndarray:
    return np.fft.fft(np.eye(n)) / math.sqrt(n)


def linear_coupling_oracle(
    n_level: int,
    n_ref: int,
    L: float = 1.0,
    dt: float = 1e-3,
    m2: float = 1.0,
    psi: TestFunction | None = None,
) -> float:
    """Exact stationary RMS of the pairing difference of the coupled chains.

    Both chains are the d=1 linear (quadratic-mode) IMEX recursions; the
    coarse one is driven by block means of the fine noise.  All covariances
    are Gaussian and the stationary value follows from per-mode AR(1)
    algebra; this is the reference for the empirical linear study.
    """
    grid_f = build_grid(1, L, n_ref)
    grid_c = build_grid(1, L, n_level)
    nf, nc = grid_f.sites_per_axis, grid_c.sites_per_axis
    b = 2 ** (n_ref - n_level)
    if psi is None:
        psi = TestFunction.bump(1, center=(L / 2.0,))

    a_f = mu_symbol(grid_f) + m2
    a_c = mu_symbol(grid_c) + m2
    rho_f = 1.0 / (1.0 + dt * a_f)
    rho_c = 1.0 / (1.0 + dt * a_c)
    q_f = dt * grid_f.eps ** (-1)

    block = np.zeros((nc, nf))
    for m in range(nc):
        block[m, m * b : (m + 1) * b] = 1.0 / b
    f_c = _dft_matrix(nc)
    f_f = _dft_matrix(nf)
    b_hat = f_c @ block @ f_f.conj().T

    v_f = rho_f**2 * q_f / (1.0 - rho_f**2)
    v_c = rho_c**2 * (q_f / b) / (1.0 - rho_c**2)
    s = (rho_c[:, None] * rho_f[None, :]) * q_f * b_hat / (
        1.0 - rho_c[:, None] * rho_f[None, :]
    )

    w_f = grid_f.eps * sample_test_function(psi, grid_f)
    w_c = grid_c.eps * sample_test_function(psi, grid_c)
    wh_f = f_f @ w_f
    wh_c = f_c @ w_c

    var = (
        np.sum(np.abs(wh_c) ** 2 * v_c)
        + np.sum(np.abs(wh_f) ** 2 * v_f)
        - 2.0 * np.real(wh_c.conj() @ s @ wh_f)
    )
    return math.sqrt(max(float(var), 0.0))
