"""Acceptance suite: one test per criterion, one printed pass/fail line each.

All tolerances are pinned here; seeds are fixed so every run is
reproducible.  The statistical criteria use honest cross-chain or
autocorrelation-aware standard errors at the stated confidence levels.
Run with ``pytest tests/test_acceptance.py -v -s`` (or scripts/run_acceptance.py).
"""

import math
import time

import numpy as np
import pytest

from phi4lattice.dynamics import BatchChain, SimConfig, run_chain
from phi4lattice.lattice import Field, build_grid, iota_refine, project, sample_test_function
from phi4lattice.noise import NoiseStream
from phi4lattice.potential import TruncatedPotential
from phi4lattice.renorm import RenormConstants, c2_discrete_time, compute_c1, compute_c2
from phi4lattice.stats import (
    SampleSet,
    TailAccumulator,
    density_cross_check,
    integrated_autocorr_time,
    tail_exponent,
    uniform_Z_plateau,
)
from phi4lattice.trees import evolve_trees
from phi4lattice.verify import (
    check_apriori,
    check_apriori_localised,
    check_max_principle,
    coming_down_check,
    convergence_study,
    gaussian_covariance_battery,
    init_discretisation_rate,
    max_principle_battery,
    LacunaryFunction,
)

from oracles import GibbsQuadrature, linear_coupling_oracle, survival_inverse_sample


def report(num, name, passed, detail):
    status = "PASS" if passed else "FAIL"
    print(f"\n{status} criterion {num}: {name} -- {detail}")
    assert passed, f"criterion {num} ({name}): {detail}"


# ---------------------------------------------------------------------------
# shared d=2 chain samples (criteria 4 and 5)

D2 = dict(d=2, L=1.0, N=5, dt=0.02, integrator="split", psi_radius=0.3)
D2_SEEDS = (101, 102, 103)


def _collect_d2(seed, stream_id, beta, n_records=550, stride=20, n_chains=48, burn=2500):
    cfg = SimConfig(seed=seed, stream_id=stream_id, beta=beta,
                    potential_n=3 if beta else math.inf, t_end=1.0, **D2)
    batch = BatchChain(cfg, n_chains=n_chains)
    batch.advance(burn)
    recs = batch.sample_pairings(n_records, stride)
    return SampleSet(recs, seed=seed, dt=cfg.dt, burn_in=burn, thinning=stride)


@pytest.fixture(scope="session")
def d2_chains():
    out = {}
    for seed in D2_SEEDS:
        out[seed] = {
            "phi": _collect_d2(seed, stream_id=1, beta=0.0),
            "psi": _collect_d2(seed, stream_id=2, beta=0.1),
        }
    return out


# ---------------------------------------------------------------------------


def test_criterion_01_exact_identities():
    t0 = time.time()
    # projection is a left inverse of the embedding, bit for bit
    rng = np.random.default_rng(2024)
    proj_ok = True
    for d in (1, 2, 3):
        for n in (3, 4, 5):
            g = build_grid(d, 1.0, n)
            for _ in range(1000):
                f = Field(g, rng.standard_normal(g.shape))
                back = project(iota_refine(f, 1), g)
                if not np.array_equal(back.values, f.values):
                    proj_ok = False
    # sitewise Wick identities at every stored time
    ens = evolve_trees(build_grid(1, 1.0, 4), dt=0.02, n_steps=100, seed=5, store_every=2)
    wick_ok = np.array_equal(ens.stored["2"], ens.stored["1"] ** 2 - ens.c1) and np.array_equal(
        ens.stored["3"], ens.stored["1"] * (ens.stored["1"] ** 2 - 3.0 * ens.c1)
    )
    # tilted chain at beta = 0 reduces to the base chain, bytewise
    common = dict(d=1, L=1.0, N=4, dt=0.01, t_end=0.5, seed=7)
    a = run_chain(SimConfig(beta=0.0, **common))
    b = run_chain(SimConfig(beta=0.0, potential_n=4, **common))
    reduction_ok = (
        a.final_state.field.values.tobytes() == b.final_state.field.values.tobytes()
    )
    elapsed = time.time() - t0
    report(
        1,
        "exact identities",
        proj_ok and wick_ok and reduction_ok and elapsed < 60,
        f"projection/Wick/beta-0 = {proj_ok}/{wick_ok}/{reduction_ok}, {elapsed:.1f}s (< 60s)",
    )


def test_criterion_02_gaussian_oracle():
    t0 = time.time()
    res1 = gaussian_covariance_battery(d=1, N=6, n_chains=256, n_records=8500,
                                       dt=1.0, seed=2024)
    res2 = gaussian_covariance_battery(d=2, N=5, n_chains=64, n_records=34000,
                                       dt=1.0, seed=2024)
    ok = (
        res1["max_abs_z"] < 3.0
        and res2["max_abs_z"] < 3.0
        and res1["ess"] >= 1e6
        and res2["ess"] >= 1e6
    )
    elapsed = time.time() - t0
    report(
        2,
        "Gaussian covariance oracle",
        ok and elapsed < 600,
        f"d=1: max|z|={res1['max_abs_z']:.2f} over {res1['n_orbits']} lag orbits "
        f"(ESS {res1['ess']:.1e}); d=2: max|z|={res2['max_abs_z']:.2f} over "
        f"{res2['n_orbits']} (ESS {res2['ess']:.1e}); {elapsed:.0f}s (< 600s)",
    )


def test_criterion_03_renormalisation_centering():
    t0 = time.time()
    g = build_grid(3, 1.0, 4)
    m2, dt = 1.0, 0.008
    c2 = compute_c2(g, m2)
    c2d = c2_discrete_time(g, m2, dt)
    n_chains, n_steps = 24, 3750  # T = 30 per chain
    t2_means, prod_means = [], []
    for chain in range(n_chains):
        ens = evolve_trees(g, dt=dt, n_steps=n_steps, seed=300, stream_id=chain,
                           mode="exact", store_every=10, c2=c2)
        keep = ens.times > 6.0
        t2_means.append(ens.stored["2"][keep].mean())
        prod_means.append((ens.stored["20"] * ens.stored["2"])[keep].mean())
    t2_means = np.array(t2_means)
    prod_means = np.array(prod_means)
    se2 = t2_means.std(ddof=1) / math.sqrt(n_chains)
    sep = prod_means.std(ddof=1) / math.sqrt(n_chains)
    z2 = abs(t2_means.mean()) / se2
    zp = abs(prod_means.mean() - c2d) / sep
    disc_ok = abs(c2d - c2) < 0.05 * c2
    elapsed = time.time() - t0
    report(
        3,
        "renormalisation centering (d=3, N=4, m2=1)",
        z2 < 3.0 and zp < 3.0 and disc_ok and elapsed < 1800,
        f"|E[tree2]| z={z2:.2f}; |E[tree20*tree2]-c2| z={zp:.2f} "
        f"(c2={c2:.4f}, dt-exact {c2d:.4f}, drift {abs(c2d - c2) / c2:.1%}); "
        f"{elapsed:.0f}s (< 1800s)",
    )


def test_criterion_04_density_relation(d2_chains):
    t0 = time.time()
    # d=1 quadrature oracle on the smallest legal grid (4 sites)
    g = build_grid(1, 1.0, 2)
    rc = RenormConstants.for_grid(g, m2=1.0)
    quad = GibbsQuadrature(g, rc.mass_counterterm, bound=4.5, order=48)
    beta, n = 0.1, 3
    p = TruncatedPotential(n)
    cfg0 = SimConfig(d=1, L=1.0, N=2, dt=1e-3, t_end=1.0, seed=3, psi_radius=0.35)
    psi_eps = sample_test_function(cfg0.test_function(), g)
    pair = lambda pts: g.eps * pts @ psi_eps
    log_tilt = lambda pts: 2.0 * beta * p.value(pair(pts))
    oracle = quad.expectation(lambda pts: np.tanh(pair(pts)), log_tilt=log_tilt)

    def chain_samples(b, stream_id):
        cfg = SimConfig(d=1, L=1.0, N=2, dt=1e-3, t_end=1.0, seed=3, stream_id=stream_id,
                        beta=b, potential_n=n, psi_radius=0.35)
        batch = BatchChain(cfg, n_chains=256)
        batch.advance(6000)
        return SampleSet(batch.sample_pairings(2200, 8), seed=3)

    psi_s = chain_samples(beta, 11)
    phi_s = chain_samples(0.0, 12)
    a, se_a = psi_s.mean_and_se(transform=np.tanh)
    rep = density_cross_check(phi_s, psi_s, np.tanh, p, beta)
    z_a = abs(a - oracle) / se_a
    z_b = abs(rep.b - oracle) / rep.se_b
    d1_ok = z_a < 3.0 and z_b < 3.0

    # d=2: |A - B| < 3 sigma for 3 observables x 3 seeds
    observables = {
        "tanh_sq": lambda x: np.tanh(x) ** 2,
        "cos2x": lambda x: np.cos(2.0 * x),
        "cauchy": lambda x: 1.0 / (1.0 + x**2),
    }
    worst = 0.0
    for seed in D2_SEEDS:
        for gfun in observables.values():
            cross = density_cross_check(
                d2_chains[seed]["phi"], d2_chains[seed]["psi"], gfun,
                TruncatedPotential(3), 0.1,
            )
            worst = max(worst, cross.z)
    d2_ok = worst < 3.0
    elapsed = time.time() - t0
    report(
        4,
        "invariant-density relation",
        d1_ok and d2_ok and elapsed < 3600,
        f"d=1 quadrature: z_A={z_a:.2f}, z_B={z_b:.2f} (oracle {oracle:.2e}); "
        f"d=2 worst |A-B| z={worst:.2f} over 3 obs x 3 seeds; {elapsed:.0f}s (< 3600s)",
    )


def test_criterion_05_uniform_z_plateau(d2_chains):
    t0 = time.time()
    pooled = np.concatenate([d2_chains[s]["phi"].values for s in D2_SEEDS], axis=0)
    samples = SampleSet(pooled, seed=D2_SEEDS[0])
    rep = uniform_Z_plateau(samples, beta=0.05, n_list=[1, 2, 4, 8, 16],
                            plateau_threshold=0.05)
    zs = [e.z_hat for e in rep.estimates]
    ok = rep.monotone_within_ci and rep.plateau_ratio < 1.05
    elapsed = time.time() - t0
    report(
        5,
        "uniform partition-function plateau (d=2, N=5, beta=0.05)",
        ok and elapsed < 7200,
        f"Z(n)-1 = {['%.2e' % (z - 1.0) for z in zs]}, "
        f"Z(16)/Z(8)-1 = {rep.plateau_ratio - 1.0:.2e} (< 0.05), "
        f"monotone within CI: {rep.monotone_within_ci}; {elapsed:.0f}s (< 7200s)",
    )


def test_criterion_06_tail_calibration():
    t0 = time.time()
    rng = np.random.default_rng(606)
    quartic = tail_exponent(survival_inverse_sample(rng, 4_000_000, 4.0))
    gauss = tail_exponent(survival_inverse_sample(rng, 4_000_000, 2.0))
    synth_ok = abs(quartic.slope - 4.0) <= 0.2 and abs(gauss.slope - 2.0) <= 0.2

    # physical d=1 chain, streaming exceedance counts
    cfg = SimConfig(d=1, L=1.0, N=4, dt=0.1, t_end=1.0, seed=606, stream_id=5,
                    integrator="split")
    batch = BatchChain(cfg, n_chains=2048)
    batch.advance(400)
    acc = TailAccumulator(k_min=1e-3, k_max=10.0, n_grid=400)
    chain0 = []
    n_records = 30000
    for _ in range(n_records):
        batch.advance(2)
        x = np.abs(batch.pairings())
        acc.update(x)
        chain0.append(x[0])
    tau = integrated_autocorr_time(np.array(chain0))
    ess = acc.n_total / (2.0 * tau)
    fit = acc.fit(min_exceed=50)
    phys_ok = 3.0 <= fit.slope <= 5.0 and ess >= 1e7
    elapsed = time.time() - t0
    report(
        6,
        "tail-exponent calibration",
        synth_ok and phys_ok and elapsed < 7200,
        f"synthetic slopes {quartic.slope:.2f} (4.0+-0.2), {gauss.slope:.2f} (2.0+-0.2); "
        f"physical d=1 slope {fit.slope:.2f} in [3,5] over K in "
        f"[{fit.k_window[0]:.3f}, {fit.k_window[1]:.3f}] at ESS {ess:.2e} (>= 1e7); "
        f"{elapsed:.0f}s (< 7200s)",
    )


def test_criterion_07_coming_down_from_infinity():
    t0 = time.time()
    mags = (1.0, 1e3, 1e6)
    worst = 0.0
    for d in (1, 2):
        for seed in range(5):
            res = coming_down_check(d=d, L=1.0, N=5, dt=1e-3, t_snapshot=0.25,
                                    magnitudes=mags, seed=seed)
            worst = max(worst, res["spread"])
    spread_ok = worst < 2.0

    base = check_apriori(d=1, N=5, dt=2e-3, R=0.5, kappa=0.2, magnitudes=mags,
                         seeds=(0, 1, 2), store_every=4)
    doubled = check_apriori(d=1, N=5, dt=2e-3, R=0.5, kappa=0.2, magnitudes=mags,
                            seeds=(0, 1, 2, 3, 4, 5), store_every=4)
    stable_ok = doubled.constant_fit <= 2.0 * base.constant_fit
    elapsed = time.time() - t0
    report(
        7,
        "coming down from infinity",
        spread_ok and stable_ok and elapsed < 3600,
        f"worst norm spread across magnitudes 1..1e6: {worst:.2f} (< 2) over d in {{1,2}} x 5 seeds; "
        f"fitted C {base.constant_fit:.2f} -> {doubled.constant_fit:.2f} under battery "
        f"doubling (factor {doubled.constant_fit / base.constant_fit:.2f} <= 2); "
        f"{elapsed:.0f}s (< 3600s)",
    )


def test_criterion_08_maximum_principle():
    t0 = time.time()
    battery = max_principle_battery(d=1, L=1.0, N=4, n_cases=20, seed=808,
                                    c_max=2.0, dt=1e-3)
    # analytic cases
    g = build_grid(1, 1.0, 4)
    ode = check_max_principle(Field(g, np.full(g.shape, 1e6)), np.zeros(g.shape),
                              dt=1e-3, record_every=1)
    exact = 1e6 / np.sqrt(1.0 + 2e12 * ode["times"])
    ode_ok = (
        np.all(ode["sup_u"] * np.sqrt(ode["times"]) <= 1.05)
        and np.max(np.abs(ode["sup_u"] / exact - 1.0)) < 0.05
    )
    c = 8.0
    bal = check_max_principle(g.zero_field(), np.full(g.shape, c), dt=1e-3)
    bal_ok = bal["sup_u"][-1] / c ** (1.0 / 3.0) <= 1.05
    elapsed = time.time() - t0
    report(
        8,
        "maximum principle battery",
        battery.passed and ode_ok and bal_ok and elapsed < 600,
        f"global C = {battery.constant_fit:.3f} over 20 (u0, g) cases (<= 2.0); "
        f"ODE decay within 5%: {ode_ok}; cubic balance within 5%: {bal_ok}; "
        f"{elapsed:.0f}s (< 600s)",
    )


def test_criterion_09_convergence_of_discretisations():
    t0 = time.time()
    decreasing = []
    for seed in (0, 1, 2):
        conv = convergence_study(levels=[4, 5, 6, 7, 8], n_ref=10, d=1, dt=1e-3,
                                 t_end=1.0, seed=seed, record_every=8)
        decreasing.append(conv.distances_decreasing(strict=True) and not conv.blown_up)
    lin = convergence_study(levels=[4, 5, 6, 7, 8], n_ref=10, d=1, dt=5e-3, t_end=12.0,
                            seed=3, quadratic=True, record_every=2, burn_fraction=0.5)
    ratios = []
    for n in (4, 5, 6, 7, 8):
        exact = linear_coupling_oracle(n_level=n, n_ref=10, dt=5e-3)
        ratios.append(lin.rms_observable_distance[n] / exact)
    lin_ok = all(abs(r - 1.0) <= 0.2 for r in ratios)
    elapsed = time.time() - t0
    report(
        9,
        "convergence of discretisations (d=1, N in 4..8 vs 10)",
        all(decreasing) and lin_ok and elapsed < 1800,
        f"strictly decreasing distances for seeds 0,1,2: {decreasing}; linear-mode "
        f"empirical/exact ratios {[round(r, 3) for r in ratios]} within 20%; "
        f"{elapsed:.0f}s (< 1800s)",
    )


def test_criterion_10_initial_data_rate():
    t0 = time.time()
    kappa, kappa_bar = 0.2, 0.05
    zeta = LacunaryFunction(alpha_prime=-0.5 - kappa / 2.0, n_modes=10, seed=7)
    rough = init_discretisation_rate(zeta, kappa, kappa_bar, levels=(3, 4, 5, 6, 7, 8))
    smooth = init_discretisation_rate(
        LacunaryFunction(alpha_prime=10.0, n_modes=1, seed=1),
        kappa, kappa_bar, levels=(3, 4, 5, 6, 7, 8),
    )
    rough_ok = rough["slope"] >= (kappa - 2.0 * kappa_bar) - 0.1
    smooth_ok = smooth["slope"] >= 0.9
    elapsed = time.time() - t0
    report(
        10,
        "initial-data discretisation rate",
        rough_ok and smooth_ok and elapsed < 600,
        f"lacunary slope {rough['slope']:.3f} >= {kappa - 2 * kappa_bar - 0.1:.2f} "
        f"(one-sided); smooth slope {smooth['slope']:.3f} >= 0.9; {elapsed:.0f}s (< 600s)",
    )


def test_criterion_11_volume_independence():
    # Tori of extent L and 2L share one white noise (the small-torus
    # increments restrict the large-torus ones), so the localised bound's
    # right side can be compared seed by seed with statistical power.
    from phi4lattice.trees import N_LEAVES
    from phi4lattice.verify import volume_pair_seminorms

    t0 = time.time()
    R, kappa = 0.1, 0.2
    rhs_ratios, tree_ratios = [], []
    for seed in range(20):
        out = volume_pair_seminorms(seed, d=2, N=5, L=2.0, dt=2e-3, kappa=kappa,
                                    N_box=0.45)
        tree_part = {
            tag: max(v ** (2.0 / (N_LEAVES[tau] * (1.0 - kappa)))
                     for tau, v in out[tag].values.items())
            for tag in ("small", "large")
        }
        rhs = {tag: max(1.0 / R, tree_part[tag]) for tag in tree_part}
        rhs_ratios.append(rhs["large"] / rhs["small"])
        tree_ratios.append(tree_part["large"] / tree_part["small"])
    band_ok = all(0.5 <= r <= 2.0 for r in rhs_ratios)
    no_growth_ok = all(r <= 2.0 for r in tree_ratios)
    elapsed = time.time() - t0
    report(
        11,
        "volume independence of the localised bound",
        band_ok and no_growth_ok and elapsed < 3600,
        f"localised rhs ratio (2L vs L) over 20 coupled seeds in "
        f"[{min(rhs_ratios):.2f}, {max(rhs_ratios):.2f}] (within [0.5, 2]); "
        f"seminorm-part ratios in [{min(tree_ratios):.2f}, {max(tree_ratios):.2f}] "
        f"(no growth: <= 2); {elapsed:.0f}s (< 3600s)",
    )
