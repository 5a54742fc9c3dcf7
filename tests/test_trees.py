import numpy as np
import pytest

from phi4lattice.lattice import BoxRegion, Field, LinearPropagator, build_grid, mu_symbol
from phi4lattice.noise import NoiseStream
from phi4lattice.trees import (
    DyadicKernelFamily,
    N_LEAVES,
    TreeEnsemble,
    _TreeState,
    _profiles,
    evolve_trees,
    evolve_with_chain,
    holder_norm_neg,
    holder_seminorm_one,
    seminorm,
    seminorm_exponent,
    seminorm_report,
)

from oracles import (
    convolve_spectral,
    holder_norm_neg_complex,
    semigroup_errors,
    seminorm_brute,
    tree_series_real_space,
)


class NegatedStream(NoiseStream):
    def standard_normals(self, shape=None):
        return -super().standard_normals(shape)


def small_ensemble(seed=0, mode="imex", n_steps=64, grid=None, **kw):
    g = grid or build_grid(1, 1.0, 3)
    return evolve_trees(g, dt=0.05, n_steps=n_steps, seed=seed, mode=mode, **kw)


def make_ensemble(grid, stored, c1=1.0, c2=0.0, dt=0.05):
    times = dt * (1 + np.arange(next(iter(stored.values())).shape[0]))
    return TreeEnsemble(grid=grid, times=times, dt=dt, c1=c1, c2=c2, m2=1.0, stored=stored)


class TestEvolution:
    def test_wick_identities_exact(self):
        ens = small_ensemble(seed=3)
        assert np.array_equal(ens.stored["2"], ens.stored["1"] ** 2 - ens.c1)
        assert np.array_equal(
            ens.stored["3"], ens.stored["1"] * (ens.stored["1"] ** 2 - 3.0 * ens.c1)
        )

    def test_zero_noise_gives_zero_trees(self):
        ens = small_ensemble(seed=1, noise_amplitude=0.0)
        for tau in ("1", "2", "3", "20", "30"):
            if tau == "2":
                assert np.all(ens.stored[tau] == -ens.c1)
            elif tau == "3":
                assert np.all(ens.stored[tau] == 0.0)
            else:
                assert np.all(np.abs(ens.stored[tau]) <= 1e-14) or tau == "20"
        # tree20 integrates the constant source  -c1, so only tree1/tree3 vanish identically
        assert np.all(ens.stored["1"] == 0.0)
        assert np.all(ens.stored["3"] == 0.0)

    def test_stationary_moments_exact_mode(self):
        g = build_grid(1, 1.0, 4)
        ens = evolve_trees(g, dt=0.25, n_steps=8000, seed=5, mode="exact", store_every=2)
        sq = (ens.stored["1"] ** 2).mean(axis=1)
        m2_err = abs(sq.mean() - ens.c1)
        se2 = sq.std(ddof=1) / np.sqrt(len(sq) / 4.0)
        assert m2_err < 3.0 * se2
        t2 = ens.stored["2"].mean(axis=1)
        assert abs(t2.mean()) < 3.0 * t2.std(ddof=1) / np.sqrt(len(t2) / 4.0)
        t3 = ens.stored["3"].mean(axis=1)
        assert abs(t3.mean()) < 3.0 * t3.std(ddof=1) / np.sqrt(len(t3) / 4.0)

    def test_source_relation_implicit_euler(self):
        # one imex update satisfies (t20' - t20)/dt + A t20' = t2 exactly
        g = build_grid(1, 1.0, 3)
        ens = evolve_trees(g, dt=0.05, n_steps=8, seed=7, store_every=1)
        t20 = ens.stored["20"]
        t2 = ens.stored["2"]
        mu = mu_symbol(g)
        for k in range(3, 7):
            prev, cur = t20[k - 1], t20[k]
            a_cur = np.fft.ifft(np.fft.fft(cur) * (mu + ens.m2)).real
            resid = (cur - prev) / ens.dt + a_cur - t2[k - 1]
            assert np.max(np.abs(resid)) < 1e-10

    def test_shared_stream_with_chain(self):
        from phi4lattice.dynamics import SimConfig

        cfg = SimConfig(d=1, L=1.0, N=3, dt=0.02, t_end=0.5, seed=11, integrator="imex")
        g = cfg.grid()
        u0 = Field(g, np.zeros(g.shape))
        ens, u_stored = evolve_with_chain(cfg, u0, store_every=2)
        assert u_stored.shape == ens.stored["1"].shape
        # v = u - tree1 is much smoother than u: compare block norms
        v = u_stored - ens.stored["1"]
        alpha = -0.7
        v_norm = np.mean([holder_norm_neg(row, g, alpha) for row in v[-5:]])
        u_norm = np.mean([holder_norm_neg(row, g, alpha) for row in u_stored[-5:]])
        assert np.isfinite(v_norm) and v_norm < u_norm

    def test_sign_flip_invariance(self):
        g = build_grid(1, 1.0, 3)
        kw = dict(dt=0.05, n_steps=48, store_every=2, c2=0.1)
        plus = evolve_trees(g, seed=13, stream=NoiseStream(13, g), **kw)
        minus = evolve_trees(g, seed=13, stream=NegatedStream(13, g), **kw)
        assert np.allclose(minus.stored["1"], -plus.stored["1"], atol=1e-12)
        kern = DyadicKernelFamily(g, store_dt=0.1)
        for tau in ("2", "22"):
            a = seminorm(tau, plus, kern, 0.2)
            b = seminorm(tau, minus, kern, 0.2)
            assert a == pytest.approx(b, rel=1e-10)
        for tau in ("3", "31", "32"):
            a = seminorm(tau, plus, kern, 0.2)
            b = seminorm(tau, minus, kern, 0.2)
            assert a == pytest.approx(b, rel=1e-10)

    @pytest.mark.parametrize("start", ["stationary", "initial"])
    @pytest.mark.parametrize("mode", ["imex", "exact"])
    @pytest.mark.parametrize("d, n", [(1, 5), (2, 3), (3, 2)])
    def test_matches_real_space_oracle(self, d, n, mode, start):
        g = build_grid(d, 1.0, n)
        dt, n_steps, store_every, amp = 0.01, 1000, 3, 0.8  # 1000 % 3 != 0
        initial = None
        if start == "initial":
            initial = 1.5 * np.cos(2.0 * np.pi * g.site_coords()[..., 0] / g.L)
        ens = evolve_trees(g, dt=dt, n_steps=n_steps, seed=31, mode=mode, store_every=store_every,
                           noise_amplitude=amp, initial_tree1=initial)
        ref = tree_series_real_space(LinearPropagator(g, 1.0, dt), ens.c1, initial,
                                     NoiseStream(31, g).standard_normals, n_steps, store_every,
                                     amp, mode)
        assert len(ens.times) == n_steps // store_every
        expected_times = np.array([k * dt for k in range(store_every, n_steps + 1, store_every)])
        assert ens.times.tobytes() == expected_times.tobytes()
        for key, val in ref.items():
            assert ens.stored[key].shape == val.shape
            assert np.max(np.abs(ens.stored[key] - val)) <= 1e-12 * np.max(np.abs(val)), key

    @pytest.mark.parametrize("mode", ["imex", "exact"])
    def test_two_transforms_per_step_two_per_store(self, mode, monkeypatch):
        # counted at the Spectrum level; a numpy transform outside those calls is a stray one
        g = build_grid(2, 1.0, 3)
        state = _TreeState(LinearPropagator(g, 1.0, 0.01), 1.0, np.ones(g.shape), 10, 5, mode)
        calls, stray, depth = [], [], [0]

        def spectrum_call(real, name):
            def wrapper(self, values, *args, **kwargs):
                calls.append((name, values.shape))
                depth[0] += 1
                try:
                    return real(self, values, *args, **kwargs)
                finally:
                    depth[0] -= 1
            return wrapper

        def numpy_call(real, name):
            def wrapper(*args, **kwargs):
                if not depth[0]:
                    stray.append(name)
                return real(*args, **kwargs)
            return wrapper

        for name in ("fft", "ifft"):
            monkeypatch.setattr(LinearPropagator, name,
                                spectrum_call(getattr(LinearPropagator, name), name))
        for name in ("fft", "ifft", "rfft", "irfft", "fftn", "ifftn", "rfftn", "irfftn"):
            monkeypatch.setattr(np.fft, name, numpy_call(getattr(np.fft, name), name))
        for k in range(1, 11):
            state.step(np.zeros(g.shape))
            state.store(k)
        half = (*g.shape[:-1], g.sites_per_axis // 2 + 1)
        assert calls.count(("fft", (3, *g.shape))) == 10  # the increment and both Wick sources
        assert calls.count(("ifft", half)) == 10 + 2 * 2
        assert len(calls) == 10 * 2 + 2 * 2
        assert stray == []

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError, match="unknown tree evolution mode"):
            small_ensemble(mode="euler")

    @pytest.mark.filterwarnings("error")  # the blow-up error is the only report
    @pytest.mark.parametrize("mode", ["imex", "exact"])
    def test_blow_up_names_overflowing_source(self, mode):
        # tree1^3 overflows in tree30's Wick source; both modes are stable at this dt
        g = build_grid(1, 1.0, 3)
        with pytest.raises(RuntimeError) as info:
            evolve_trees(g, dt=0.01, n_steps=4, mode=mode, initial_tree1=np.full(g.shape, 1e120))
        message = str(info.value)
        assert "step 1" in message and "tree30" in message and "initial tree1" in message
        assert "dt" not in message


class TestKernels:
    def test_normalisation(self):
        g = build_grid(2, 1.0, 4)
        kern = DyadicKernelFamily(g, store_dt=0.05)
        for entry in kern.table():
            assert entry["spatial_sum"] == pytest.approx(1.0, abs=1e-12)

    def test_semigroup_property(self):
        g = build_grid(1, 1.0, 5)
        kern = DyadicKernelFamily(g, store_dt=0.05)
        for err in semigroup_errors(kern):
            assert err < 1e-2

    def test_no_zero_end_taps(self):
        # 5e-4, 6.25e-4 and 2.5e-3 divide some kernel widths 0.01 * lambda^2 exactly
        g = build_grid(1, 1.0, 4)
        for store_dt in (0.05, 2.5e-3, 1.25e-3, 6.25e-4, 5e-4, 3e-4):
            kern = DyadicKernelFamily(g, store_dt=store_dt)
            for idx, w in enumerate(kern._time_kernels):
                assert len(w) == 2 * kern.time_pad(idx) + 1
                assert w[0] > 0.0 and w[-1] > 0.0, (store_dt, idx, w)
                assert np.array_equal(w, w[::-1])

    def test_convolution_of_constant(self):
        g = build_grid(1, 1.0, 4)
        arr = np.full((16,) + g.shape, 3.25)
        for store_dt in (0.05, 5e-4):  # 1-tap and up to 9-tap time kernels
            kern = DyadicKernelFamily(g, store_dt=store_dt)
            averages = kern.convolve(arr)
            assert len(averages) == kern.n_scales
            for idx, out in enumerate(averages):
                assert out.shape == (16 - 2 * kern.time_pad(idx),) + g.shape
                assert np.allclose(out, 3.25, rtol=1e-12)

    # storage step 0.05: every time kernel has 1 tap; 5e-4: they have 9, 3, 1 and 1
    @pytest.mark.parametrize("store_dt", [0.05, 5e-4])
    @pytest.mark.parametrize("L", [1.0, 2.0])
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_convolve_matches_spectral_oracle(self, d, L, store_dt):
        g = build_grid(d, L, 3)
        arr = np.random.default_rng(d).standard_normal((41,) + g.shape)
        kern = DyadicKernelFamily(g, store_dt=store_dt)
        ref = convolve_spectral(arr, g, kern.heat_times, kern._time_kernels, time_stride=4)
        # a different extent on every axis, every other site: each axis keeps its own indices
        box = BoxRegion((-0.3, -0.2, -0.1)[:d], (0.25, 0.4, 0.2)[:d])
        sites = tuple(idx[idx % 2 == 0] for idx in box.axis_sites(g))
        assert len({len(idx) for idx in sites}) == d
        for full, part, want in zip(kern.convolve(arr, 4), kern.convolve(arr, 4, sites), ref):
            atol = 1e-12 * np.max(np.abs(want))
            np.testing.assert_allclose(full, want, rtol=1e-12, atol=atol)
            np.testing.assert_allclose(part, want[np.ix_(np.arange(len(want)), *sites)],
                                       rtol=1e-12, atol=atol)


class TestSeminorm:
    def test_constant_field_closed_form(self):
        g = build_grid(1, 1.0, 4)
        stored = {k: np.zeros((8,) + g.shape) for k in ("1", "2", "3", "20", "30")}
        stored["2"] = np.ones((8,) + g.shape)
        ens = make_ensemble(g, stored)
        kern = DyadicKernelFamily(g, store_dt=0.05)
        kappa = 0.2
        expected = max(lam ** (1.0 + kappa) for lam in kern.scales)
        assert seminorm("2", ens, kern, kappa) == pytest.approx(expected, rel=1e-12)

    def test_homogeneity(self):
        g = build_grid(1, 1.0, 3)
        rng = np.random.default_rng(4)
        stored = {k: rng.standard_normal((12,) + g.shape) for k in ("1", "2", "3", "20", "30")}
        ens1 = make_ensemble(g, dict(stored))
        scaled = dict(stored)
        scaled["2"] = 5.0 * stored["2"]
        ens2 = make_ensemble(g, scaled)
        kern = DyadicKernelFamily(g, store_dt=0.05)
        assert seminorm("2", ens2, kern, 0.2) == pytest.approx(
            5.0 * seminorm("2", ens1, kern, 0.2), rel=1e-12
        )

    def test_brute_force_oracle(self):
        g = build_grid(1, 1.0, 3)
        rng = np.random.default_rng(9)
        stored = {k: rng.standard_normal((16,) + g.shape) for k in ("1", "2", "3", "20", "30")}
        c2 = 0.37
        ens = make_ensemble(g, stored, c2=c2)
        kern = DyadicKernelFamily(g, store_dt=0.05, j_list=(1, 2))
        spatial = [kern.spatial_kernel(i) for i in range(kern.n_scales)]
        for tau in ("2", "3", "20", "30", "22", "31", "32"):
            expected = seminorm_brute(
                stored, c2, spatial, kern._time_kernels, list(kern.scales),
                seminorm_exponent(tau, 0.2), tau,
            )
            got = seminorm(tau, ens, kern, 0.2, site_stride=1, time_stride=1)
            assert got == pytest.approx(expected, rel=1e-10), tau

    def test_brute_force_oracle_multi_tap(self):
        # storage step 5e-4: 9- and 3-tap time kernels, base points on strided times and sites
        g = build_grid(1, 1.0, 3)
        rng = np.random.default_rng(12)
        stored = {k: rng.standard_normal((41,) + g.shape) for k in ("1", "2", "3", "20", "30")}
        c2 = 0.37
        ens = make_ensemble(g, stored, c2=c2, dt=5e-4)
        kern = DyadicKernelFamily(g, store_dt=5e-4, j_list=(1, 2))
        assert [e["time_points"] for e in kern.table()] == [9, 3]
        spatial = [kern.spatial_kernel(i) for i in range(kern.n_scales)]
        for tau in ("2", "3", "20", "30", "22", "31", "32"):
            expected = seminorm_brute(
                stored, c2, spatial, kern._time_kernels, list(kern.scales),
                seminorm_exponent(tau, 0.2), tau, time_stride=4, site_stride=2,
            )
            got = seminorm(tau, ens, kern, 0.2, site_stride=2, time_stride=4)
            assert got == pytest.approx(expected, rel=1e-10), tau

    def test_localised_below_global(self):
        ens = small_ensemble(seed=17, n_steps=64, c2=0.1)
        kern = DyadicKernelFamily(ens.grid, store_dt=ens.dt)
        box = BoxRegion((-0.25,), (0.25,))
        for tau in ("1", "2", "3", "20", "30", "22", "31", "32"):
            local = seminorm(tau, ens, kern, 0.2, domain=box)
            global_ = seminorm(tau, ens, kern, 0.2)
            assert local <= global_ + 1e-12

    def test_kappa_range_enforced(self):
        ens = small_ensemble(seed=1, n_steps=16, c2=0.0)
        kern = DyadicKernelFamily(ens.grid, store_dt=ens.dt)
        for tau in ("1", "2"):
            for kappa in (0.0, 0.25, -0.1, 0.3):
                with pytest.raises(ValueError, match=r"kappa must lie in \(0, 1/4\)"):
                    seminorm(tau, ens, kern, kappa)

    def test_scale_profile_rejects_tree1_and_bad_kappa(self):
        ens = small_ensemble(seed=1, n_steps=16, c2=0.0)
        kern = DyadicKernelFamily(ens.grid, store_dt=ens.dt)
        with pytest.raises(ValueError, match="Holder proxy"):
            _profiles(ens, kern, 0.2, ("2", "1"))
        for kappa in (0.0, 0.25, -0.1, 0.3):
            with pytest.raises(ValueError, match=r"kappa must lie in \(0, 1/4\)"):
                _profiles(ens, kern, kappa, ("2",))

    @pytest.mark.parametrize("lo, hi, stride", [
        ((-0.5, 0.07), (0.5, 0.12), 1),  # the second interval lies between two sites
        ((-0.5, 0.07), (0.5, 0.2), 2),  # its one site is off the stride
    ])
    def test_box_missing_an_axis_has_no_base_points(self, lo, hi, stride):
        ens = small_ensemble(seed=1, n_steps=16, c2=0.0, grid=build_grid(2, 1.0, 3))
        kern = DyadicKernelFamily(ens.grid, store_dt=ens.dt)
        box = BoxRegion(lo, hi)
        assert box.mask(ens.grid).any() == (stride == 2)  # the second box holds off-stride sites
        with pytest.raises(ValueError, match="no base points"):
            _profiles(ens, kern, 0.2, ("2",), domain=box, site_stride=stride)

    @pytest.mark.parametrize("series", ["2", "20"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_report_sees_non_finite_value_outside_the_box(self, series, bad):
        # the bad value reaches the box's base points only through the kernels' tails
        g = build_grid(2, 2.0, 4)
        ens = evolve_trees(g, dt=0.01, n_steps=24, seed=3, store_every=1, c2=0.1)
        box = BoxRegion((-0.45, -0.45), (0.45, 0.45))
        assert not box.mask(g)[20, 20]
        kern = DyadicKernelFamily(g, store_dt=ens.dt)
        assert all(4 in kern.base_times(i, ens.n_times, 4) for i in range(kern.n_scales))
        ens.stored[series][4, 20, 20] = bad
        with np.errstate(invalid="ignore", over="ignore"):
            with pytest.raises(RuntimeError, match="not finite"):
                seminorm_report(ens, kern, 0.2, domain=box)

    def test_report_nonnegative_finite(self):
        ens = small_ensemble(seed=23, n_steps=64, c2=0.1)
        kern = DyadicKernelFamily(ens.grid, store_dt=ens.dt)
        rep = seminorm_report(ens, kern, 0.2)
        assert set(rep.values) == set(N_LEAVES)
        for val in rep.values.values():
            assert np.isfinite(val) and val >= 0.0
        cands = rep.rhs_candidates()
        assert cands["2"] == pytest.approx(rep.values["2"] ** (2.0 / (2 * 0.8)))


class TestKeptRows:
    """An ensemble that keeps only the read plan's stored times reports the same bytes."""

    @staticmethod
    def _pair(grid, dt, n_steps, store_every, time_stride, **kw):
        kern = DyadicKernelFamily(grid, store_dt=dt * store_every)
        plan = kern.read_plan(n_steps // store_every, time_stride)
        full, kept = (evolve_trees(grid, dt=dt, n_steps=n_steps, store_every=store_every,
                                   keep=keep, **kw) for keep in (None, plan))
        return kern, plan, full, kept

    def test_wide_time_kernels_bit_identical(self):
        # the golden wide-time set-up: 17- and 5-tap time kernels pad the base times
        g = build_grid(2, 1.0, 3)
        kern, plan, full, kept = self._pair(g, 3e-4, 120, 1, 4, seed=4)
        assert kern.time_pad(0) > 0 and len(plan) < full.n_times
        assert np.array_equal(kept.times, full.times)
        for key, series in kept.stored.items():
            assert np.array_equal(series, full.stored[key][plan]), key
        for box in (None, BoxRegion((-0.3, -0.2), (0.25, 0.4))):
            assert (seminorm_report(kept, kern, 0.2, domain=box).values
                    == seminorm_report(full, kern, 0.2, domain=box).values)

    def test_sharp_kernels_keep_every_stride_th_time(self):
        g = build_grid(2, 1.0, 3)
        kern, plan, full, kept = self._pair(g, 2e-3, 100, 4, 4, seed=6)
        assert np.array_equal(plan, np.arange(0, 25, 4))
        assert len(kept.stored["30"]) == 7
        assert (seminorm_report(kept, kern, 0.2, time_stride=4).values
                == seminorm_report(full, kern, 0.2, time_stride=4).values)

    def test_time_outside_the_plan_raises(self):
        g = build_grid(2, 1.0, 3)
        kern, _, _, kept = self._pair(g, 2e-3, 100, 4, 4, seed=6)
        with pytest.raises(ValueError, match="not kept"):
            holder_seminorm_one(kept, 0.2, time_stride=1)
        with pytest.raises(ValueError, match="not kept"):
            _profiles(kept, kern, 0.2, ("2",), time_stride=2)
        with pytest.raises(ValueError, match="not kept"):
            kern.convolve(kept.stored["2"], 1, n_times=kept.n_times, kept=kept.kept)


    def test_keep_outside_the_store_grid_rejected(self):
        g = build_grid(1, 1.0, 3)
        for keep in ([-1, 2], [2, 8]):  # 16 steps stored every 2nd: stored times 0..7
            with pytest.raises(ValueError, match="must lie in"):
                evolve_trees(g, dt=0.05, n_steps=16, store_every=2, keep=np.array(keep))


class TestExponentTable:
    def test_degree_arithmetic(self):
        # degrees multiply under products and gain 2 per heat integration
        deg = {"1": -0.5}
        deg["2"] = 2 * deg["1"]
        deg["3"] = 3 * deg["1"]
        deg["20"] = deg["2"] + 2.0
        deg["30"] = deg["3"] + 2.0
        deg["22"] = deg["20"] + deg["2"]
        deg["31"] = deg["30"] + deg["1"]
        deg["32"] = deg["30"] + deg["2"]
        for tau, d in deg.items():
            if tau == "1":
                continue
            assert seminorm_exponent(tau, 0.2) == pytest.approx(0.2 - d)

    @pytest.mark.parametrize("tau", ["2", "3", "20", "30"])
    def test_exponent_flat_on_synthetic_scaling_field(self, tau):
        # coherent spectral field fhat(q) = |q|^s: its kernel average at the
        # singular point scales exactly like lam^{-(s+1)}, so choosing
        # s = -1 - deg(tau) the scaled profile must be flat (|slope| < 0.1)
        g = build_grid(1, 1.0, 10)
        kappa = 0.02
        degree = kappa - seminorm_exponent(tau, kappa)
        s = -1.0 - degree
        n = g.sites_per_axis
        q = np.abs(np.fft.fftfreq(n, d=1.0 / n))
        spec_c = np.zeros(n, dtype=complex)
        nz = q > 0
        spec_c[nz] = q[nz] ** s
        if s == 0.0:
            spec_c[0] = 1.0  # 0^0 = 1: the s=0 coherent field is the lattice delta
        f = np.fft.ifftn(spec_c * n).real
        stored = {k: np.zeros((4, n)) for k in ("1", "2", "3", "20", "30")}
        stored[tau] = np.tile(f, (4, 1))
        ens = make_ensemble(g, stored)
        kern = DyadicKernelFamily(g, store_dt=0.05, j_list=(4, 5, 6, 7))
        prof = _profiles(ens, kern, kappa, (tau,), site_stride=1, time_stride=1)[tau]
        slope = np.polyfit(np.log(kern.scales), np.log(prof), 1)[0]
        assert abs(slope) < 0.1, (tau, prof)


class TestHolderProxy:
    def test_zero_field(self):
        g = build_grid(1, 1.0, 4)
        assert holder_norm_neg(np.zeros(g.shape), g, -0.7) == 0.0

    def test_non_finite_field_propagates(self):
        g = build_grid(1, 1.0, 4)
        for bad in (np.nan, np.inf):
            v = np.zeros(g.shape)
            v[3] = bad
            with np.errstate(invalid="ignore"):
                assert not np.isfinite(holder_norm_neg(v, g, -0.7))

    def test_report_sees_blown_up_tree1(self):
        ens = small_ensemble(seed=23, n_steps=16, c2=0.1)
        ens.stored["1"][8:, 2] = np.nan  # from a blow-up on
        kern = DyadicKernelFamily(ens.grid, store_dt=ens.dt)
        with pytest.raises(RuntimeError, match=r"\[1\]"):
            seminorm_report(ens, kern, 0.2)

    def test_single_mode(self):
        g = build_grid(1, 1.0, 5)
        a, k = 1.3, 5  # block j=3 holds |k| in [4, 8)
        f = a * np.cos(2 * np.pi * k * g.axis_coords())
        alpha = -0.7
        val = holder_norm_neg(f, g, alpha)
        # sup over sites of the mode profile slightly undershoots the amplitude
        expected = a * 2.0 ** (3 * alpha)
        assert val == pytest.approx(expected, rel=0.01)
        assert val <= expected * (1 + 1e-12)

    def test_two_grid_consistency(self):
        # same continuum function sampled on N and N+1: proxy norms within 15%
        psi_vals = lambda x: np.cos(2 * np.pi * x) + 0.5 * np.sin(6 * np.pi * x)
        norms = []
        for n in (6, 7):
            g = build_grid(1, 1.0, n)
            norms.append(holder_norm_neg(psi_vals(g.axis_coords()), g, -0.7))
        assert abs(norms[1] / norms[0] - 1.0) < 0.15

    @pytest.mark.parametrize("d", [1, 2, 3])
    @pytest.mark.parametrize("L", [1.0, 2.0])
    @pytest.mark.parametrize("boxed", [False, True])
    def test_matches_complex_fft_oracle(self, d, L, boxed):
        g = build_grid(d, L, 3)
        f = np.random.default_rng(d).standard_normal(g.shape)
        box = BoxRegion((-0.3,) * d, (0.45,) * d) if boxed else None
        mask = box.mask(g) if boxed else None
        for alpha in (-0.7, -0.55):
            assert holder_norm_neg(f, g, alpha, box) == pytest.approx(
                holder_norm_neg_complex(f, L, 2.0**-3, alpha, mask), rel=1e-12)

    @pytest.mark.parametrize("d", [1, 2, 3])
    @pytest.mark.parametrize("boxed", [False, True])
    def test_batch_equals_per_field_calls(self, d, boxed):
        g = build_grid(d, 1.0, 3)
        stack = np.random.default_rng(d).standard_normal((5,) + g.shape)
        stack[2].flat[7] = np.nan
        box = BoxRegion((-0.3,) * d, (0.45,) * d) if boxed else None
        with np.errstate(invalid="ignore"):
            batch = holder_norm_neg(stack, g, -0.7, box)
            rows = [holder_norm_neg(row, g, -0.7, box) for row in stack]
        assert batch.shape == (5,) and all(type(r) is float for r in rows)
        assert np.isnan(batch[2]) and np.isfinite(np.delete(batch, 2)).all()
        assert batch.tobytes() == np.array(rows).tobytes()

    def test_seminorm_one_is_time_sup(self):
        ens = small_ensemble(seed=29, n_steps=32, c2=0.0)
        kappa = 0.2
        per_time = [holder_norm_neg(row, ens.grid, -0.5 - kappa) for row in ens.stored["1"]]
        assert holder_seminorm_one(ens, kappa) == pytest.approx(max(per_time), rel=1e-12)
