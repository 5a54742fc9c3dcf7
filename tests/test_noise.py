import numpy as np
import pytest
from scipy import stats as sps

from phi4lattice import noise
from phi4lattice.lattice import GridError, LatticeGrid, LinearPropagator, build_grid
from phi4lattice.noise import NoiseStream, coarsen, draw_increment

from test_trees import NegatedStream


class TestDraw:
    def test_determinism_bytes(self):
        g = build_grid(2, 1.0, 3)
        a = NoiseStream(42, g).draw(0.01)
        b = NoiseStream(42, g).draw(0.01)
        assert a.tobytes() == b.tobytes()

    def test_counter_restores_mid_stream(self):
        g = build_grid(1, 1.0, 3)
        s = NoiseStream(7, g)
        first = [s.draw(0.1) for _ in range(5)]
        resumed = NoiseStream(7, g, counter=3)
        assert np.array_equal(resumed.draw(0.1), first[3])

    def test_variance_d3_example(self):
        # per-site variance dt * eps^-d: dt=0.01, eps=0.5, d=3 -> 0.08
        g = LatticeGrid(3, 2.0, 1)
        s = NoiseStream(1, g)
        draws = np.concatenate([s.draw(0.01).reshape(-1) for _ in range(16000)])
        var = draws.var()
        se = 0.08 * np.sqrt(2.0 / len(draws))
        assert abs(var - 0.08) < 3.0 * se

    def test_variance_unit_example(self):
        g = LatticeGrid(1, 4.0, 0)  # eps = 1
        s = NoiseStream(2, g)
        draws = np.concatenate([s.draw(1.0) for _ in range(250000)])
        var = draws.var()
        se = 1.0 * np.sqrt(2.0 / len(draws))
        assert abs(var - 1.0) < 3.0 * se

    def test_dt_positive(self):
        g = build_grid(1, 1.0, 3)
        with pytest.raises(ValueError):
            NoiseStream(0, g).draw(0.0)

    def test_distinct_streams_uncorrelated(self):
        g = build_grid(1, 1.0, 4)
        n = 200000 // g.n_sites
        a = np.concatenate([NoiseStream(1, g, counter=k).draw(1.0) for k in range(n)])
        b = np.concatenate([NoiseStream(2, g, counter=k).draw(1.0) for k in range(n)])
        corr = np.corrcoef(a, b)[0, 1]
        assert abs(corr) < 3.0 / np.sqrt(a.size)

    def test_substream_split(self):
        g = build_grid(1, 1.0, 3)
        s = NoiseStream(5, g)
        t = NoiseStream(s.seed, g, stream_id=9)
        assert t.seed == 5 and t.stream_id == 9 and t.counter == 0
        assert not np.array_equal(s.draw(0.1), t.draw(0.1))

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_draw_matches_chain_noise(self, d):
        # the chain drivers scale unit normals by the propagator's noise_scale; the
        # variance tests above hold for those increments only if the two laws agree
        g = build_grid(d, 1.0, 3)
        dt = 0.003
        drawn = NoiseStream(21, g, stream_id=4, counter=6).draw(dt)
        normals = NoiseStream(21, g, stream_id=4, counter=6).standard_normals()
        assert drawn.tobytes() == (LinearPropagator(g, 1.0, dt).noise_scale * normals).tobytes()


class TestPrefetch:
    """Draws above the prefetch size keep the bytes of a fresh stream at every counter."""

    BIG = (2, noise._PREFETCH_MIN)
    OTHER = (noise._PREFETCH_MIN + 5,)

    @staticmethod
    def draw_and_check(stream, shape):
        k = stream.counter
        got = stream.standard_normals(shape)
        fresh = type(stream)(stream.seed, stream.grid, stream.stream_id, counter=k)
        assert got.tobytes() == fresh.standard_normals(shape).tobytes(), (k, shape)

    def test_sequential_draws_prefetch(self):
        s = NoiseStream(11, build_grid(1, 1.0, 3), stream_id=2)
        for _ in range(6):
            self.draw_and_check(s, self.BIG)
            assert s._pending is not None  # the next draw is in flight
        small = NoiseStream(11, build_grid(1, 1.0, 3))
        small.standard_normals()
        assert small._pending is None

    def test_interleaved_shapes(self):
        s = NoiseStream(12, build_grid(2, 1.0, 3))
        for shape in (self.BIG, self.OTHER, self.OTHER, None, self.BIG, self.BIG, None):
            self.draw_and_check(s, shape)

    def test_counter_reset_mid_stream(self):
        # the resume pattern of ``phi4 run``: the counter is set back to a snapshot's step
        s = NoiseStream(13, build_grid(1, 1.0, 3))
        for counter in (None, None, None, 1, None, None, 0, 7, None):
            if counter is not None:
                s.counter = counter
            self.draw_and_check(s, self.BIG)

    def test_stream_id_changed_between_draws(self):
        s = NoiseStream(14, build_grid(1, 1.0, 3))
        for stream_id in (0, 0, 5, 5, 0, 9):
            s.stream_id = stream_id
            self.draw_and_check(s, self.BIG)

    def test_subclass(self):
        s = NegatedStream(15, build_grid(1, 1.0, 3))
        for shape in (self.BIG, self.BIG, self.OTHER, self.BIG):
            self.draw_and_check(s, shape)
        plain = NoiseStream(15, build_grid(1, 1.0, 3), counter=1)
        assert np.array_equal(NegatedStream(15, plain.grid, counter=1).standard_normals(self.BIG),
                              -plain.standard_normals(self.BIG))


class TestCoarsen:
    def test_constant_preserved(self):
        g = build_grid(2, 1.0, 3)
        c = coarsen(np.full(g.shape, 1.5))
        assert c.shape == build_grid(2, 1.0, 2).shape
        assert np.allclose(c, 1.5, rtol=1e-15)

    def test_two_child_mean(self):
        assert np.array_equal(coarsen(np.array([3.0, 5.0])), np.array([4.0]))

    def test_coarse_variance_law(self):
        # Var(mean of 2^d iid N(0, dt (eps/2)^-d)) = dt eps^-d
        g = build_grid(2, 1.0, 4)
        dt = 0.05
        s = NoiseStream(3, g)
        vals = []
        for _ in range(800):
            vals.append(coarsen(s.draw(dt)).reshape(-1))
        vals = np.concatenate(vals)
        target = dt * (2.0 ** (-3)) ** (-2)
        se = target * np.sqrt(2.0 / len(vals))
        assert abs(vals.var() - target) < 3.0 * se

    def test_coarse_vs_direct_law_ks(self):
        g_fine = build_grid(1, 1.0, 4)
        g_coarse = LatticeGrid(1, 1.0, 3)
        dt = 0.2
        sf = NoiseStream(10, g_fine)
        sc = NoiseStream(11, g_coarse)
        a = np.concatenate([coarsen(sf.draw(dt)) for _ in range(12500)])
        b = np.concatenate([sc.draw(dt) for _ in range(12500)])
        assert sps.ks_2samp(a, b).pvalue > 0.01

    def test_cross_covariance_structure(self):
        g = build_grid(1, 1.0, 3)
        s = NoiseStream(4, g)
        dt = 1.0
        fine, coarse = [], []
        for _ in range(40000):
            inc = s.draw(dt)
            fine.append(inc)
            coarse.append(coarsen(inc))
        fine = np.array(fine)
        coarse = np.array(coarse)
        n = len(fine)
        # descendant: coarse cell 0 = mean of fine cells {0,1} -> cov = Var_fine / 2
        desc = np.mean(coarse[:, 0] * fine[:, 0])
        target = dt * (0.125) ** (-1) / 2.0
        assert abs(desc - target) < 4.0 * target / np.sqrt(n) * 2
        # non-descendant: zero within 3 sigma
        non = np.mean(coarse[:, 0] * fine[:, 3])
        scale = np.std(coarse[:, 0] * fine[:, 3]) / np.sqrt(n)
        assert abs(non) < 3.0 * scale

    def test_non_nested_error(self):
        with pytest.raises(GridError):
            coarsen(np.array([1.0, 2.0]), levels=2)
        with pytest.raises(ValueError):
            coarsen(np.zeros(8), levels=0)
