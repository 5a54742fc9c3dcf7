import math

import numpy as np
import pytest

from phi4lattice.dynamics import BlowUpError, SimConfig
from phi4lattice.lattice import Field, GridError, build_grid
from phi4lattice import trees, verify
from phi4lattice.trees import evolve_trees, evolve_with_chain
from phi4lattice.verify import (
    BoundReport,
    LacunaryFunction,
    check_apriori,
    check_apriori_localised,
    check_max_principle,
    coming_down_check,
    convergence_study,
    init_discretisation_rate,
    max_principle_battery,
    volume_pair_seminorms,
)

from oracles import linear_coupling_oracle


class TestMaxPrinciple:
    def test_zero_everything(self):
        g = build_grid(1, 1.0, 4)
        res = check_max_principle(g.zero_field(), np.zeros(g.shape), dt=1e-2)
        assert res["sup_ratio"] == 0.0

    def test_pure_ode_decay_from_huge_data(self):
        # g = 0, u0 = 1e6 constant: exact ODE solution u(t) = u0/sqrt(1+2 u0^2 t)
        g = build_grid(1, 1.0, 4)
        u0 = Field(g, np.full(g.shape, 1e6))
        res = check_max_principle(u0, np.zeros(g.shape), dt=1e-3, record_every=1)
        ratios = res["sup_u"] * np.sqrt(res["times"])
        assert np.all(ratios <= 1.0 + 0.05)
        exact = 1e6 / np.sqrt(1.0 + 2e12 * res["times"])
        assert np.max(np.abs(res["sup_u"] / exact - 1.0)) < 0.05

    def test_constant_forcing_balance(self):
        # g = c, u0 = 0: stationary level c^(1/3)
        g = build_grid(1, 1.0, 4)
        c = 8.0
        res = check_max_principle(g.zero_field(), np.full(g.shape, c), dt=1e-3)
        late = res["sup_u"][-1]
        assert late / c ** (1.0 / 3.0) <= 1.0 + 0.05

    def test_battery_single_constant(self):
        report = max_principle_battery(n_cases=6, seed=3, c_max=2.0, dt=2e-3)
        assert report.passed
        assert 0.0 < report.constant_fit <= 2.0
        assert all(e["u0_norm"] <= 1e6 and e["g_norm"] <= 1e3 for e in report.entries)


class TestAprioriBound:
    def test_small_battery_and_magnitude_independence(self):
        report = check_apriori(
            d=1, N=4, dt=2e-3, R=0.5, kappa=0.2,
            magnitudes=(1.0, 1e3, 1e6), seeds=(0,), store_every=4,
        )
        assert report.passed
        ratios = [e["ratio"] for e in report.entries]
        assert max(ratios) / max(min(ratios), 1e-12) < 50.0
        lhs = [e["lhs"] for e in report.entries]
        assert max(lhs) / min(lhs) < 2.0  # memory of the initial size is gone

    def test_localised_below_global_lhs(self):
        glob = check_apriori(d=1, N=4, dt=2e-3, R=0.4, kappa=0.2,
                             magnitudes=(1.0,), seeds=(1,), store_every=4)
        loc = check_apriori_localised(d=1, L=1.0, N=4, dt=2e-3, R=0.1, kappa=0.2,
                                      N_box=0.45, psi_radius=0.3,
                                      magnitudes=(1.0,), seeds=(1,), store_every=4)
        assert loc.entries[0]["lhs"] <= glob.entries[0]["lhs"] + 1e-12

    def test_localised_precondition(self):
        with pytest.raises(GridError):
            check_apriori_localised(d=1, N=4, R=0.2, N_box=0.45, psi_radius=0.3)
        with pytest.raises(GridError):
            check_apriori_localised(d=1, L=0.5, N=4, R=0.05, N_box=0.45, psi_radius=0.3)

    def test_store_every_below_one_rejected(self):
        # store_every = 0 must fail before it reaches k % store_every
        cfg = SimConfig(d=1, N=3, dt=0.01, t_end=0.1)
        g = cfg.grid()
        calls = (
            lambda: evolve_trees(g, dt=0.01, n_steps=4, store_every=0),
            lambda: evolve_with_chain(cfg, g.zero_field(), store_every=0),
            lambda: check_apriori(d=1, N=3, dt=0.01, store_every=0),
            lambda: check_apriori_localised(d=1, N=3, dt=0.01, store_every=-1),
            lambda: volume_pair_seminorms(0, d=1, N=3, dt=0.01, store_every=0),
        )
        for call in calls:
            with pytest.raises(ValueError, match="store_every"):
                call()

    def test_empty_window_rejected(self, monkeypatch):
        # with R = 0.9 the only stored time, 0.6, lies before the window t >= 0.81;
        # the store grid is known up front, so no chain step runs before the error
        def no_step(*args):
            raise AssertionError("a chain step ran")

        monkeypatch.setattr(trees, "step", no_step)
        with pytest.raises(ValueError, match="window"):
            check_apriori(d=1, N=3, dt=0.01, R=0.9, magnitudes=(1.0,), seeds=(0,),
                          store_every=60)

    def test_volume_pair_keeps_only_read_rows(self, monkeypatch):
        # 500 steps stored every 4th: 125 stored times; the 0.008 store interval exceeds
        # every time-kernel half-width, so the reports read rows 0, 4, ..., 124 alone
        kept = {}

        original = verify.seminorm_report

        def report(ens, *args, **kwargs):
            kept[ens.grid.sites_per_axis] = ens
            return original(ens, *args, **kwargs)

        monkeypatch.setattr(verify, "seminorm_report", report)
        volume_pair_seminorms(0, d=2, N=3, dt=2e-3)
        assert sorted(kept) == [16, 32]
        for ens in kept.values():
            assert ens.n_times == 125
            assert np.array_equal(ens.kept, np.arange(0, 125, 4))
            assert {k: len(v) for k, v in ens.stored.items()} == dict.fromkeys(ens.stored, 32)

    def test_coming_down_spread(self):
        res = coming_down_check(d=1, L=1.0, N=4, dt=1e-3, t_snapshot=0.25,
                                magnitudes=(1.0, 1e3, 1e6), seed=0)
        assert res["spread"] < 2.0


class TestConvergence:
    def test_coarser_level_differs_from_reference(self):
        conv = convergence_study(levels=[5], n_ref=6, d=1, dt=5e-3, t_end=0.25,
                                 seed=0, quadratic=True, record_every=4)
        assert conv.sup_proxy_distance[5] > 0.0

    def test_distances_decrease_in_level(self):
        conv = convergence_study(levels=[3, 4, 5], n_ref=7, d=1, dt=5e-3,
                                 t_end=0.5, seed=2, record_every=4)
        assert conv.distances_decreasing(strict=True)
        assert not conv.blown_up

    def test_reference_blow_up_raises(self):
        with pytest.raises(BlowUpError):
            convergence_study(levels=(2, 3), n_ref=4, dt=0.01, t_end=0.4,
                              initial=lambda c: 100.0 * np.ones(c.shape[:-1]))

    def test_linear_mode_matches_exact_oracle(self):
        dt, t_end = 5e-3, 8.0
        levels = [4, 5]
        conv = convergence_study(levels=levels, n_ref=7, d=1, dt=dt, t_end=t_end,
                                 seed=3, quadratic=True, record_every=2,
                                 burn_fraction=0.5)
        for n in levels:
            exact = linear_coupling_oracle(n_level=n, n_ref=7, dt=dt)
            assert conv.rms_observable_distance[n] == pytest.approx(exact, rel=0.2)

    def test_level_validation(self):
        # a level identical to the reference, or finer, is refused before any step
        with pytest.raises(GridError):
            convergence_study(levels=[6], n_ref=6, d=1)
        with pytest.raises(GridError):
            convergence_study(levels=[3, 7], n_ref=6, d=1)


class TestInitRate:
    def test_constant_function_exact(self):
        zeta = LacunaryFunction(alpha_prime=-0.6, n_modes=0, seed=0)
        g = build_grid(1, 1.0, 4)
        # block averages reproduce a constant (here 0: no modes), so the error norm vanishes
        from phi4lattice.verify import _pairing_error_norm

        assert _pairing_error_norm(zeta, g, kappa=0.2, n_base=8) < 1e-12

    def test_smooth_single_mode_rate(self):
        zeta = LacunaryFunction(alpha_prime=10.0, n_modes=1, seed=1)  # one cos mode
        fit = init_discretisation_rate(zeta, kappa=0.2, kappa_bar=0.05, levels=(3, 4, 5, 6))
        assert fit["slope"] >= 0.9

    def test_lacunary_rate_one_sided(self):
        zeta = LacunaryFunction(alpha_prime=-0.6, n_modes=9, seed=7)
        fit = init_discretisation_rate(zeta, kappa=0.2, kappa_bar=0.05, levels=(3, 4, 5, 6, 7))
        assert fit["slope"] >= fit["reference_slope"] - 0.1

    def test_kappa_bar_precondition(self):
        zeta = LacunaryFunction(alpha_prime=-0.6)
        with pytest.raises(ValueError):
            init_discretisation_rate(zeta, kappa=0.2, kappa_bar=0.15, levels=(3, 4))

    def test_cell_averages_match_dense_quadrature(self):
        zeta = LacunaryFunction(alpha_prime=-0.6, n_modes=5, seed=3)
        g = build_grid(1, 1.0, 5)
        exact = zeta.mode_cell_averages(g)
        xs = (np.arange(g.sites_per_axis)[:, None] + (np.arange(4096)[None, :] + 0.5) / 4096) * g.eps
        _, freqs, phases = zeta._components()
        dense = [np.cos(2.0 * np.pi * f * xs + th).mean(axis=1) for f, th in zip(freqs, phases)]
        assert exact.shape == (5, g.sites_per_axis)
        assert np.allclose(exact, dense, atol=1e-6)


class TestBoundReport:
    def test_constant_fit_and_pass(self):
        rep = BoundReport(name="demo", c_max=2.0)
        rep.add(lhs=1.0, rhs=1.0)
        rep.add(lhs=3.0, rhs=2.0)
        assert rep.constant_fit == 1.5
        assert rep.passed
        rep.add(lhs=10.0, rhs=1.0)
        assert not rep.passed
        d = rep.as_dict()
        assert d["constant_fit"] == 10.0 and len(d["entries"]) == 3
