import inspect

import numpy as np
import pytest

from phi4lattice import renorm
from phi4lattice.lattice import build_grid, mu_symbol
from phi4lattice.renorm import (
    RenormConstants,
    c2_discrete_time,
    compute_c1,
    compute_c2,
)
from phi4lattice.trees import evolve_trees
from phi4lattice.verify import check_apriori

from oracles import sunset_sum_loops


class TestC1:
    def test_hand_listed_modes_d1(self):
        # d=1, N=2: mu = 64 sin^2(pi k / 4) = {0, 32, 64, 32}
        g = build_grid(1, 1.0, 2)
        expected = 0.5 * (1.0 / 1.0 + 1.0 / 33.0 + 1.0 / 65.0 + 1.0 / 33.0)
        assert compute_c1(g, 1.0) == pytest.approx(expected, rel=1e-14)

    def test_mc_oracle_stationary_variance(self):
        g = build_grid(1, 1.0, 4)
        ens = evolve_trees(g, dt=0.25, n_steps=6000, seed=8, mode="exact", store_every=2)
        sq = ens.stored["1"] ** 2
        per_time = sq.mean(axis=1)
        m = per_time.mean()
        se = per_time.std(ddof=1) / np.sqrt(len(per_time) / 4.0)  # ~4 steps per corr time
        assert abs(m - ens.c1) < 3.0 * se

    def test_d3_inverse_eps_scaling(self):
        ratios = []
        for n in (5, 6):
            a = compute_c1(build_grid(3, 1.0, n), 1.0)
            b = compute_c1(build_grid(3, 1.0, n + 1), 1.0)
            ratios.append(b / a)
        assert abs(ratios[-1] - 2.0) < 0.2

    def test_monotone_in_level(self):
        vals = [compute_c1(build_grid(3, 1.0, n), 1.0) for n in (2, 3, 4, 5)]
        assert all(b > a for a, b in zip(vals, vals[1:]))

    def test_invalid_mass(self):
        g = build_grid(1, 1.0, 3)
        with pytest.raises(ValueError):
            compute_c1(g, 0.0)
        with pytest.raises(ValueError):
            compute_c2(g, -1.0)

    @pytest.mark.parametrize("m2, dt", [(1.0, -0.1), (1.0, 0.0), (-1.0, 0.1), (0.0, 0.1)])
    def test_invalid_discrete_time_inputs(self, m2, dt):
        with pytest.raises(ValueError):
            c2_discrete_time(build_grid(1, 1.0, 3), m2, dt)


class TestC2:
    def test_d1_bounded_in_level(self):
        vals = [compute_c2(build_grid(1, 1.0, n), 1.0) for n in range(2, 9)]
        # plateau: late increments are tiny compared to the value
        increments = np.abs(np.diff(vals))
        assert increments[-1] < 1e-3 * vals[-1]

    def test_d3_log_divergence(self):
        vals = [compute_c2(build_grid(3, 1.0, n), 1.0) for n in (2, 3, 4, 5)]
        increments = np.diff(vals)
        assert np.all(increments > 0)
        # log eps divergence: the increment per level settles to a constant,
        # so successive increment ratios move toward 1
        ratios = increments[1:] / increments[:-1]
        assert abs(ratios[0] - 1.0) < 0.2
        assert abs(ratios[1] - 1.0) < abs(ratios[0] - 1.0)

    @pytest.mark.parametrize("d", [1, 2, 3])
    @pytest.mark.parametrize("L", [1.0, 2.0])
    def test_matches_pair_sum_oracle(self, d, L):
        g = build_grid(d, L, 2)
        for m2 in (0.5, 1.0, 4.0):
            assert compute_c2(g, m2) == pytest.approx(sunset_sum_loops(g, m2), rel=1e-12)
            for dt in (0.1, 0.008):
                assert c2_discrete_time(g, m2, dt) == pytest.approx(
                    sunset_sum_loops(g, m2, dt), rel=1e-12)

    def test_discrete_time_limit(self):
        g = build_grid(1, 1.0, 3)
        c2 = compute_c2(g, 1.0)
        approx = [c2_discrete_time(g, 1.0, dt) for dt in (0.1, 0.05, 0.025)]
        errs = [abs(a - c2) for a in approx]
        assert errs[2] < errs[0]
        assert errs[2] / errs[1] == pytest.approx(0.5, abs=0.15)

    def test_mc_oracle_sunset(self):
        g = build_grid(1, 1.0, 3)
        dt = 0.02
        ens = evolve_trees(g, dt=dt, n_steps=30000, seed=13, mode="exact", store_every=5)
        keep = ens.times > 8.0  # let tree20 forget its zero start
        prod = (ens.stored["20"] * ens.stored["2"])[keep]
        per_time = prod.mean(axis=1)
        m = per_time.mean()
        block = 40
        nb = len(per_time) // block
        means = per_time[: nb * block].reshape(nb, block).mean(axis=1)
        se = means.std(ddof=1) / np.sqrt(nb)
        target = c2_discrete_time(g, 1.0, dt)
        assert abs(m - target) < 3.0 * se
        # integrator bias bounded by the closed forms
        assert abs(target - ens.c2) < max(3.0 * se, 0.02 * abs(ens.c2))


class TestRenormConstants:
    def test_counterterm_formula(self):
        g = build_grid(2, 1.0, 3)
        rc = RenormConstants.for_grid(g, m2=1.0)
        assert rc.mass_counterterm == pytest.approx(3.0 * rc.c1 - 9.0 * rc.c2)

    def test_dimension_policy(self):
        g2 = build_grid(2, 1.0, 3)
        assert RenormConstants.for_grid(g2).c2 == 0.0
        g3 = build_grid(3, 1.0, 3)
        rc3 = RenormConstants.for_grid(g3)
        assert rc3.c2 == pytest.approx(compute_c2(g3, 1.0))
        g1 = build_grid(1, 1.0, 3)
        rc1 = RenormConstants.for_grid(g1)
        assert rc1.c1 == pytest.approx(compute_c1(g1, 1.0))

    def test_offsets(self):
        g = build_grid(1, 1.0, 3)
        rc = RenormConstants.for_grid(g, c1_offset=0.5, c2_offset=-0.1)
        assert rc.c1 == pytest.approx(compute_c1(g, 1.0) + 0.5)
        assert rc.c2 == pytest.approx(-0.1)

    def test_constants_take_no_coupling_inputs(self):
        # structural independence: the computations accept neither beta, psi nor n
        for fn in (compute_c1, compute_c2):
            params = set(inspect.signature(fn).parameters)
            assert params.isdisjoint({"beta", "psi", "n"})

    def test_positive(self):
        for d, n in ((1, 3), (2, 3), (3, 3)):
            g = build_grid(d, 1.0, n)
            assert compute_c1(g, 1.0) > 0
            assert compute_c2(g, 1.0) > 0

    def test_sunset_computed_once_per_grid(self, monkeypatch):
        # every chain and tree ensemble of a d=3 battery reuses one sunset sum
        sums = []
        pair_sum = renorm._pair_sum
        monkeypatch.setattr(renorm, "_pair_sum", lambda f, g: sums.append(1) or pair_sum(f, g))
        grid = build_grid(3, 1.0, 2)
        compute_c2.cache_clear()
        compute_c2(grid, 1.0)
        per_call = len(sums)
        assert per_call > 0
        compute_c1.cache_clear()
        compute_c2.cache_clear()
        sums.clear()
        check_apriori(d=3, N=2, dt=0.02, magnitudes=(1.0, 1e3), seeds=(0,))
        assert len(sums) == per_call

