import math

import numpy as np
import pytest

from phi4lattice.dynamics import (
    BatchChain,
    BlowUpError,
    ChainState,
    RECORD_BLOCK_SITES,
    SimConfig,
    _Stepper,
    run_chain,
    step,
)
from phi4lattice.lattice import Field, build_grid, laplacian, mu_symbol
from phi4lattice.noise import NoiseStream
from phi4lattice.renorm import compute_c1


def grid1(n=4):
    return build_grid(1, 1.0, n)


def drift(n=4, **kw):
    """The drift the integrators run, for a d=1 chain on 2^n sites."""
    cfg = SimConfig(d=1, L=1.0, N=n, **kw)
    return _Stepper(cfg, cfg.grid())


class TestDrifts:
    def test_zero_field(self):
        st = drift()
        assert np.all(st.full_drift(np.zeros(st.grid.shape)) == 0.0)

    def test_constant_field(self):
        st = drift()
        c = 1.3
        out = st.full_drift(np.full(st.grid.shape, c))
        expected = st.rc.mass_counterterm * c - c**3
        assert np.allclose(out, expected, rtol=1e-14)

    def test_sitewise_oracle(self):
        st = drift(3)
        rng = np.random.default_rng(3)
        u = Field(st.grid, rng.standard_normal(st.grid.shape))
        lap = laplacian(u).values
        expected = lap + st.rc.mass_counterterm * u.values - u.values**3
        assert np.allclose(st.full_drift(u.values), expected, rtol=1e-14)

    def test_psi_beta_zero_reduces(self):
        rng = np.random.default_rng(4)
        u = rng.standard_normal(grid1().shape)
        assert np.array_equal(drift(beta=0.0, potential_n=3).full_drift(u), drift().full_drift(u))

    def test_psi_plateau_region(self):
        tilted = drift(beta=0.5, potential_n=2)
        u = np.full(tilted.grid.shape, 1000.0)
        assert tilted.grid.eps * np.sum(u * tilted.psi_eps) > 3.0  # pairing beyond n+1
        assert np.array_equal(tilted.full_drift(u), drift().full_drift(u))

    def test_psi_untruncated_oracle(self):
        tilted = drift(beta=0.7, potential_n=math.inf)
        rng = np.random.default_rng(5)
        u = rng.standard_normal(tilted.grid.shape)
        x = tilted.grid.eps * np.sum(u * tilted.psi_eps)
        expected = drift().full_drift(u) + 0.7 * x**3 * tilted.psi_eps
        assert np.allclose(tilted.full_drift(u), expected, rtol=1e-13)


class TestStep:
    def test_eigenmode_decay_factor(self):
        cfg = SimConfig(d=1, L=1.0, N=4, dt=0.05, t_end=1.0, quadratic=True)
        g = cfg.grid()
        st = _Stepper(cfg, g)
        k = 2
        u0 = np.cos(2 * np.pi * k * g.axis_coords())
        u1 = st.advance(u0.copy(), np.zeros(g.shape))
        mu = mu_symbol(g)
        assert np.allclose(u1, u0 / (1.0 + 0.05 * (mu[k] + cfg.m2)), rtol=1e-12)

    def test_imex_explicit_richardson(self):
        # one-step difference between the schemes is O(dt^2)
        g = build_grid(1, 1.0, 3)
        rng = np.random.default_rng(6)
        u0 = 0.3 * rng.standard_normal(g.shape)
        errs = []
        for dt in (2e-4, 1e-4):
            cfg_i = SimConfig(d=1, L=1.0, N=3, dt=dt, t_end=dt, integrator="imex")
            cfg_e = SimConfig(d=1, L=1.0, N=3, dt=dt, t_end=dt, integrator="explicit")
            a = _Stepper(cfg_i, g).advance(u0.copy(), np.zeros(g.shape))
            b = _Stepper(cfg_e, g).advance(u0.copy(), np.zeros(g.shape))
            errs.append(np.max(np.abs(a - b)))
        assert errs[0] / errs[1] == pytest.approx(4.0, rel=0.15)

    def test_split_consistency(self):
        # split and imex converge to each other at O(dt^2) per step
        g = build_grid(1, 1.0, 3)
        rng = np.random.default_rng(7)
        u0 = 0.5 * rng.standard_normal(g.shape)
        errs = []
        for dt in (2e-4, 1e-4):
            cfg_i = SimConfig(d=1, L=1.0, N=3, dt=dt, t_end=dt, integrator="imex")
            cfg_s = SimConfig(d=1, L=1.0, N=3, dt=dt, t_end=dt, integrator="split")
            a = _Stepper(cfg_i, g).advance(u0.copy(), np.zeros(g.shape))
            b = _Stepper(cfg_s, g).advance(u0.copy(), np.zeros(g.shape))
            errs.append(np.max(np.abs(a - b)))
        assert errs[0] / errs[1] == pytest.approx(4.0, rel=0.2)

    def test_determinism(self):
        cfg = SimConfig(d=1, L=1.0, N=4, dt=1e-2, t_end=0.3, seed=77)
        a = run_chain(cfg).final_state.field.values
        b = run_chain(cfg).final_state.field.values
        assert a.tobytes() == b.tobytes()

    def test_step_reports_its_index(self):
        st = drift(dt=0.5)
        values = np.zeros((2,) + st.grid.shape)
        values[1] = 1e200
        values[1, 3] = -2e200
        with pytest.raises(BlowUpError) as err:
            step(st, values, np.zeros((2,) + st.grid.shape), 7)
        assert err.value.step_index == 7
        assert err.value.time == 7 * 0.5
        assert err.value.site == (1, 0)  # the transform spreads chain 1's overflow; chain 0 is finite
        assert err.value.max_abs == 2e200
        assert "step 7" in str(err.value) and "(1, 0)" in str(err.value)
        # the explicit step keeps the overflow at its site
        ex = drift(dt=1e-3, integrator="explicit")
        values = np.zeros((3,) + ex.grid.shape)
        values[2, 5] = 1e200
        with pytest.raises(BlowUpError) as err:
            step(ex, values, np.zeros_like(values), 2)
        assert (err.value.step_index, err.value.time, err.value.site) == (2, 2e-3, (2, 5))
        assert err.value.max_abs == 1e200 and values[2, 5] == 1e200
        u = np.ones(st.grid.shape)
        assert np.array_equal(step(st, u, np.zeros(st.grid.shape), 1),
                              st.advance(u, np.zeros(st.grid.shape)))

    def test_blow_up_reported(self):
        cfg = SimConfig(d=1, L=1.0, N=4, dt=0.5, t_end=5.0, seed=1)
        g = cfg.grid()
        huge = Field(g, np.full(g.shape, 1e6))
        with pytest.raises(BlowUpError) as err:
            run_chain(cfg, initial=huge)
        k = err.value.step_index
        assert k >= 1 and err.value.time == k * cfg.dt
        assert len(err.value.site) == 1 and 0 <= err.value.site[0] < g.sites_per_axis
        # the values the failing step started from: the initial field or a finite step's output
        assert math.isfinite(err.value.max_abs) and err.value.max_abs > 0.0
        if k == 1:
            assert err.value.max_abs == 1e6

    def test_split_survives_huge_data(self):
        cfg = SimConfig(d=1, L=1.0, N=4, dt=1e-3, t_end=0.1, seed=1, integrator="split")
        g = cfg.grid()
        huge = Field(g, np.full(g.shape, 1e6))
        res = run_chain(cfg, initial=huge)
        assert np.all(np.isfinite(res.final_state.field.values))
        assert np.max(np.abs(res.final_state.field.values)) < 1e3

    def test_quadratic_mode_rejects_tilt(self):
        with pytest.raises(ValueError, match="beta"):
            SimConfig(d=1, L=1.0, N=4, dt=1e-2, quadratic=True, beta=0.5)

    def test_cfl_validation(self):
        with pytest.raises(ValueError):
            SimConfig(d=1, L=1.0, N=4, dt=1e-2, t_end=1.0, integrator="explicit")
        # dt below the bound is accepted
        SimConfig(d=1, L=1.0, N=4, dt=1e-3, t_end=1.0, integrator="explicit")


OUT_CASES = [(i, mode) for i in ("imex", "split", "explicit") for mode in ("untilted", "tilted")]
OUT_CASES += [("imex", "quadratic"), ("split", "quadratic"), ("exact_gaussian", "quadratic")]


class TestOutBuffer:
    """``step(..., out=)`` gives the bytes of ``step(...)``, also when ``out`` is an input."""

    @staticmethod
    def _cfg(integrator, mode):
        extra = {"tilted": dict(beta=0.5, potential_n=3), "quadratic": dict(quadratic=True)}
        return SimConfig(d=2, L=1.0, N=3, dt=0.002, t_end=0.01, integrator=integrator,
                         **extra.get(mode, {}))

    @pytest.mark.parametrize("integrator, mode", OUT_CASES)
    def test_out_and_aliasing_byte_equal(self, integrator, mode):
        cfg = self._cfg(integrator, mode)
        grid = cfg.grid()
        shared = _Stepper(cfg, grid)  # its scratch is rebuilt as the shape changes
        rng = np.random.default_rng(12)
        # offsets that put the tilted pairings in the core, on the blend and on the plateau
        unit = grid.eps**grid.d * np.sum(shared.psi_eps) if mode == "tilted" else 1.0
        for pairings in ([3.5], [1.0, 3.5, 6.0], [6.0]):
            shape = (len(pairings),) + grid.shape if len(pairings) > 1 else grid.shape
            offsets = np.reshape(pairings, (-1,) + (1,) * grid.d) / unit
            values = (rng.standard_normal(shape) + offsets).reshape(shape)
            noise = shared.noise_scale * rng.standard_normal(shape)
            kept = values.copy(), noise.copy()
            want = step(_Stepper(cfg, grid), values, noise, 1)
            assert values.tobytes() == kept[0].tobytes()
            assert noise.tobytes() == kept[1].tobytes()
            assert step(shared, values, noise, 1).tobytes() == want.tobytes()
            buf = np.full(shape, np.nan)
            assert step(shared, values, noise, 1, out=buf) is buf
            assert buf.tobytes() == want.tobytes()
            into_noise = noise.copy()
            assert step(shared, values, into_noise, 1, out=into_noise).tobytes() == want.tobytes()
            into_values = values.copy()
            assert step(shared, into_values, noise, 1, out=into_values).tobytes() == want.tobytes()


class TestSymmetries:
    def test_beta_zero_reduction_bytewise(self):
        common = dict(d=1, L=1.0, N=4, dt=1e-2, t_end=0.3, seed=5)
        r_phi = run_chain(SimConfig(beta=0.0, **common))
        r_psi = run_chain(SimConfig(beta=0.0, potential_n=3, **common))
        assert r_phi.final_state.field.values.tobytes() == r_psi.final_state.field.values.tobytes()
        assert np.array_equal(r_phi.pairing, r_psi.pairing)

    def test_odd_symmetry_negated_noise(self):
        cfg = SimConfig(d=1, L=1.0, N=4, dt=1e-2, t_end=1.0, seed=9)
        g = cfg.grid()
        st = _Stepper(cfg, g)
        stream = NoiseStream(9, g)
        rng = np.random.default_rng(2)
        u = rng.standard_normal(g.shape)
        v = -u.copy()
        for _ in range(30):
            eta = st.noise_scale * stream.standard_normals()
            u = st.advance(u, eta)
            v = st.advance(v, -eta)
        assert np.array_equal(u, -v)


class TestRunChain:
    def test_thinning_count(self):
        cfg = SimConfig(d=1, L=1.0, N=4, dt=1e-2, t_end=1.0, seed=3, burn_in=20, thinning=7)
        res = run_chain(cfg)
        assert len(res.pairing) == (100 - 20) // 7

    def test_resume_identical(self):
        cfg = SimConfig(d=1, L=1.0, N=4, dt=1e-2, t_end=10.0, seed=31, snapshot_every=50,
                        beta=0.5)
        full = run_chain(cfg)
        half_cfg = SimConfig(d=1, L=1.0, N=4, dt=1e-2, t_end=6.0, seed=31, snapshot_every=50,
                             beta=0.5)
        half = run_chain(half_cfg)
        snap_step, snap_field = half.snapshots[-1]
        # the resume step falls inside the uninterrupted run's second block of records
        block = RECORD_BLOCK_SITES // cfg.grid().n_sites
        assert snap_step % block and block < snap_step < cfg.n_steps()
        stream = NoiseStream(31, cfg.grid())
        stream.counter = snap_step
        resumed = run_chain(
            cfg,
            resume_state=ChainState(field=snap_field.copy(), step=snap_step, stream=stream),
        )
        assert resumed.final_state.field.values.tobytes() == full.final_state.field.values.tobytes()
        for name in ("steps", "times", "pairing", "v_obs", "w_obs", "c_alpha_norm"):
            tail = getattr(full, name)[snap_step:]
            assert getattr(resumed, name).tobytes() == tail.tobytes(), name
        assert resumed.steps[0] == snap_step + 1 and np.all(full.w_obs > 0)

    def test_time_bookkeeping(self):
        cfg = SimConfig(d=1, L=1.0, N=4, dt=0.025, t_end=0.5, seed=4)
        res = run_chain(cfg)
        assert res.final_state.field.time == pytest.approx(0.5)
        assert res.final_state.step == cfg.n_steps()
        assert np.array_equal(res.times, res.steps * cfg.dt)


class TestGaussianMode:
    def test_stationary_site_variance(self):
        cfg = SimConfig(d=1, L=1.0, N=4, dt=0.5, t_end=1.0, seed=10,
                        quadratic=True, integrator="exact_gaussian")
        batch = BatchChain(cfg, n_chains=512, stationary_start=True)
        samples = [batch.values.copy()]
        for _ in range(30):
            batch.advance(2)
            samples.append(batch.values.copy())
        pooled = np.concatenate(samples)
        c1 = compute_c1(cfg.grid(), cfg.m2)
        per_draw = pooled.reshape(len(samples), -1).mean(axis=1)
        se = np.std(pooled**2) / math.sqrt(pooled.size / 2.0)
        assert abs(np.mean(pooled**2) - c1) < 4.0 * se

    def test_batch_matches_single_chain(self):
        cfg = SimConfig(d=1, L=1.0, N=4, dt=1e-2, t_end=0.2, seed=12)
        single = run_chain(cfg)
        batch = BatchChain(cfg, n_chains=1)
        batch.advance(cfg.n_steps())
        assert np.allclose(batch.values[0], single.final_state.field.values, rtol=1e-12)

    def test_dt_robustness_of_stationary_moment(self):
        # stationary mean of the squared pairing moves < 5% under dt -> dt/2
        moments = []
        for dt, stream_id in ((0.02, 1), (0.01, 2)):
            cfg = SimConfig(d=1, L=1.0, N=4, dt=dt, t_end=1.0, seed=100, stream_id=stream_id)
            batch = BatchChain(cfg, n_chains=256)
            batch.advance(int(5.0 / dt))
            recs = batch.sample_pairings(400, max(1, int(0.1 / dt)))
            moments.append(np.mean(recs**2))
        assert abs(moments[1] / moments[0] - 1.0) < 0.05
