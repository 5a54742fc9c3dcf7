import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from phi4lattice.lattice import (
    BoxRegion,
    Field,
    GridError,
    LatticeGrid,
    TestFunction as Bump,
    build_grid,
    iota_refine,
    laplacian,
    mu_symbol,
    project,
    read_snapshot,
    sample_test_function,
    spectrum,
    weighted_pairing,
    write_snapshot,
)

from oracles import dot_loops, laplacian_loops, torus_integral


def random_field(grid, seed=0, scale=1.0):
    rng = np.random.default_rng(seed)
    return Field(grid, scale * rng.standard_normal(grid.shape))


small_grids = st.sampled_from(
    [(1, 1.0, 2), (1, 1.0, 3), (1, 2.0, 2), (2, 1.0, 2), (2, 1.0, 3), (3, 1.0, 2)]
)


class TestBuildGrid:
    def test_examples(self):
        g = build_grid(1, 1.0, 3)
        assert g.n_sites == 8 and g.eps == 0.125
        assert build_grid(3, 1.0, 4).n_sites == 4096
        assert build_grid(2, 3.0, 2).sites_per_axis == 12

    def test_invariant_boundary(self):
        with pytest.raises(GridError):
            build_grid(2, 1.0, 1)

    def test_bad_inputs(self):
        with pytest.raises(GridError):
            build_grid(4, 1.0, 3)
        with pytest.raises(GridError):
            build_grid(1, 1.0 / 3.0, 3)
        with pytest.raises(GridError):
            build_grid(1, -1.0, 3)
        with pytest.raises(GridError):
            build_grid(3, 64.0, 8)  # site-count budget
        for L, N in ((1.0, 2000), (1e300, 5)):  # 2.0**N, L * 2^N overflow
            with pytest.raises(GridError):
                build_grid(1, L, N)

    @given(small_grids)
    def test_dyadic_consistency(self, spec):
        g = build_grid(*spec)
        assert g.eps * g.sites_per_axis == g.L
        assert g.sites_per_axis >= 4
        assert g.n_sites == g.sites_per_axis**g.d


class TestLaplacian:
    def test_constant_in_kernel(self):
        g = build_grid(2, 1.0, 3)
        f = Field(g, np.full(g.shape, 3.7))
        assert np.all(laplacian(f).values == 0.0)

    def test_hand_stencil(self):
        g = build_grid(1, 1.0, 2)
        f = Field(g, np.array([1.0, 0.0, 0.0, 0.0]))
        assert np.array_equal(laplacian(f).values, 16.0 * np.array([-2.0, 1.0, 0.0, 1.0]))

    @given(small_grids, st.integers(0, 6))
    @settings(max_examples=20, deadline=None)
    def test_plane_wave_eigenvalue(self, spec, k):
        g = build_grid(*spec)
        k = k % g.sites_per_axis
        x = g.axis_coords()
        wave = np.cos(2.0 * np.pi * k * x / g.L)
        shape = [1] * g.d
        shape[0] = g.sites_per_axis
        f = Field(g, np.broadcast_to(wave.reshape(shape), g.shape).copy())
        mu = mu_symbol(g)
        idx = (k,) + (0,) * (g.d - 1)
        assert np.allclose(laplacian(f).values, -mu[idx] * f.values, atol=1e-8)

    @given(small_grids, st.integers(0, 2**31))
    @settings(max_examples=15, deadline=None)
    def test_matches_loop_oracle(self, spec, seed):
        g = build_grid(*spec)
        f = random_field(g, seed)
        assert np.allclose(laplacian(f).values, laplacian_loops(f.values, g.eps), rtol=1e-12)

    @given(small_grids, st.integers(0, 2**31))
    @settings(max_examples=15, deadline=None)
    def test_self_adjoint_weighted(self, spec, seed):
        g = build_grid(*spec)
        f, h = random_field(g, seed), random_field(g, seed + 1)
        lhs = weighted_pairing(laplacian(f), h)
        rhs = weighted_pairing(f, laplacian(h))
        assert abs(lhs - rhs) <= 1e-12 * max(abs(lhs), abs(rhs), 1.0)

    @given(small_grids, st.integers(0, 2**31))
    @settings(max_examples=15, deadline=None)
    def test_discrete_conservation(self, spec, seed):
        g = build_grid(*spec)
        f = random_field(g, seed)
        total = np.sum(laplacian(f).values)
        assert abs(total) <= 1e-10 * np.max(np.abs(f.values)) * g.eps**-2


class TestSpectrum:
    @pytest.mark.parametrize("lead", [(), (3,)], ids=["field", "batch"])
    @pytest.mark.parametrize("d, N", [(1, 5), (2, 4), (3, 3)])
    def test_forward_transform_is_rfftn_bitwise(self, d, N, lead):
        g = build_grid(d, 1.0, N)
        sp = spectrum(g)
        values = np.random.default_rng(d).standard_normal(lead + g.shape)
        want = np.fft.rfftn(values, axes=tuple(range(-d, 0)))
        out = np.empty_like(want)
        assert sp.fft(values, out=out) is out
        assert sp.fft(values).tobytes() == want.tobytes()
        assert out.tobytes() == want.tobytes()


class TestPairings:
    def test_unit_example(self):
        g = build_grid(2, 1.0, 2)
        ones = Field(g, np.ones(g.shape))
        assert weighted_pairing(ones, ones.values) == pytest.approx(1.0, rel=1e-14)

    def test_scalar_product_oracle(self):
        g = build_grid(1, 1.0, 3)
        f, h = random_field(g, 5), random_field(g, 6)
        assert weighted_pairing(f, h.values) == pytest.approx(
            g.eps * dot_loops(f.values, h.values), rel=1e-12
        )

    def test_grid_mismatch(self):
        f = random_field(build_grid(1, 1.0, 3))
        h = random_field(build_grid(1, 1.0, 4))
        with pytest.raises(GridError):
            weighted_pairing(f, h)

    def test_weighted_equals_embed_through_samples(self):
        # <iota f, psi> by an independent midpoint rule on a 16x finer grid
        g = build_grid(2, 1.0, 3)
        psi = Bump.bump(2, center=(0.5, 0.5), radius=0.3)
        psi_eps = sample_test_function(psi, g)
        f = random_field(g, 7)
        fine = iota_refine(f, 4)
        psi_fine = psi(fine.grid.site_coords().reshape(-1, 2), L=g.L).reshape(fine.grid.shape)
        rhs = fine.grid.eps**2 * np.sum(fine.values * psi_fine)
        scale = weighted_pairing(Field(g, np.abs(f.values)), psi_eps)
        assert abs(weighted_pairing(f, psi_eps) - rhs) <= 1e-3 * scale


class TestEmbedPair:
    """``<iota f, psi>`` is ``weighted_pairing(f, psi_eps)`` with ``psi_eps`` the cell averages."""

    def test_zero_field(self):
        g = build_grid(1, 1.0, 3)
        psi_eps = sample_test_function(Bump.bump(1, center=(0.5,), radius=0.3), g)
        assert weighted_pairing(g.zero_field(), psi_eps) == 0.0

    def test_partition_of_unity(self):
        g = build_grid(1, 1.0, 4)
        psi = Bump.bump(1, center=(0.5,), radius=0.3)
        psi_eps = sample_test_function(psi, g)
        c = 2.5
        f = Field(g, np.full(g.shape, c))
        total_mass = weighted_pairing(Field(g, np.ones(g.shape)), psi_eps)
        assert weighted_pairing(f, psi_eps) == pytest.approx(c * total_mass, rel=1e-13)
        assert total_mass == pytest.approx(torus_integral(psi, g.L, n_points=2048), rel=1e-3)

    def test_single_site_box_volume(self):
        g = build_grid(3, 1.0, 2)
        v = np.zeros(g.shape)
        v[1, 2, 3] = 1.0
        f = Field(g, v)
        one_eps = project(lambda pts: np.ones(len(pts)), g).values
        assert weighted_pairing(f, one_eps) == pytest.approx(g.eps**3, rel=1e-13)


class TestProject:
    @given(small_grids, st.integers(1, 2), st.integers(0, 2**31))
    @settings(max_examples=15, deadline=None)
    def test_left_inverse_bitwise(self, spec, levels, seed):
        g = build_grid(*spec)
        if g.sites_per_axis**((levels + 0) * 0 + g.d) * (2 ** (levels * g.d)) > 2**20:
            levels = 1
        f = random_field(g, seed)
        back = project(iota_refine(f, levels), g)
        assert np.array_equal(back.values, f.values)

    def test_block_means_example(self):
        fine = Field(LatticeGrid(1, 1.0, 2), np.array([1.0, 3.0, 5.0, 7.0]))
        coarse = project(fine, LatticeGrid(1, 1.0, 1))
        assert np.array_equal(coarse.values, np.array([2.0, 6.0]))

    def test_constant_callable(self):
        g = build_grid(2, 1.0, 3)
        f = project(lambda pts: np.full(len(pts), 4.25), g)
        assert np.allclose(f.values, 4.25, rtol=1e-14)

    def test_incompatible_grids(self):
        f = random_field(build_grid(1, 1.0, 3))
        with pytest.raises(GridError):
            project(f, build_grid(1, 1.0, 4))
        with pytest.raises(GridError):
            project(f, build_grid(2, 1.0, 2))


class TestBumpFunction:
    def test_certificates_hold(self):
        psi = Bump.bump(2, center=(0.5, 0.5), radius=0.3)
        rng = np.random.default_rng(0)
        pts = rng.uniform(0, 1, size=(20000, 2))
        vals = psi(pts, L=1.0)
        assert np.max(np.abs(vals)) <= psi.sup_norm + 1e-12
        h = 1e-6
        for axis in range(2):
            shift = np.zeros(2)
            shift[axis] = h
            grad = (psi(pts + shift, L=1.0) - psi(pts - shift, L=1.0)) / (2 * h)
            assert np.max(np.abs(grad)) <= psi.grad_sup_norm + 1e-4
        assert psi.sup_norm <= 1.0 and psi.grad_sup_norm <= 1.0

    def test_sample_bounds_and_zero(self):
        g = build_grid(1, 1.0, 5)
        psi = Bump.bump(1, center=(0.5,), radius=0.25)
        samples = sample_test_function(psi, g)
        assert np.max(np.abs(samples)) <= psi.sup_norm + 1e-12
        zero = Bump((0.5,), 0.25, 0.0, 0.0, 0.0)
        assert np.all(sample_test_function(zero, g) == 0.0)

    def test_sampling_refinement_rate(self):
        psi = Bump.bump(1, center=(0.5,), radius=0.3)
        errs = []
        for n in (4, 5, 6, 7):
            g = build_grid(1, 1.0, n)
            samples = sample_test_function(psi, g)
            exact = psi(g.site_coords().reshape(-1, 1), L=g.L)
            errs.append(np.max(np.abs(samples - exact.reshape(g.shape))))
        rates = [errs[i] / errs[i + 1] for i in range(len(errs) - 1)]
        # cell averaging of a smooth function converges at least first order
        assert all(r > 1.8 for r in rates)

    def test_support_violation(self):
        psi = Bump.bump(1, center=(0.5,), radius=0.8, amplitude=0.2)
        with pytest.raises(GridError):
            sample_test_function(psi, build_grid(1, 1.0, 4))


class TestLocalize:
    """Localisation to a box is multiplication by ``BoxRegion.mask``."""

    def test_whole_torus_identity(self):
        g = build_grid(2, 1.0, 3)
        assert np.all(BoxRegion((-0.5, -0.5), (0.5, 0.5)).mask(g))

    def test_empty_region(self):
        g = build_grid(2, 1.0, 3)
        off_site = BoxRegion((0.001, 0.001), (0.002, 0.002))
        assert not np.any(off_site.mask(g))

    def test_mask_built_once_and_read_only(self):
        g = build_grid(2, 1.0, 3)
        mask = BoxRegion((-0.25, -0.25), (0.25, 0.25)).mask(g)
        assert BoxRegion((-0.25, -0.25), (0.25, 0.25)).mask(g) is mask
        assert not mask.flags.writeable

    @pytest.mark.parametrize("lo, hi", [((-0.5, -0.5, 5.0), (0.5, 0.5, 6.0)), ((-0.5,), (0.5,))])
    def test_box_dimension_must_match_grid(self, lo, hi):
        # neither drop a 3-d box's third bound nor index past a 1-d box's bounds
        with pytest.raises(GridError, match=rf"{len(lo)}-d lower .* 2-d grid"):
            BoxRegion(lo, hi).mask(build_grid(2, 1.0, 3))

    @given(st.data(), st.integers(1, 3), st.sampled_from([1.0, 2.0]))
    @settings(max_examples=40, deadline=None)
    def test_axis_sites_product_is_mask(self, data, d, L):
        g = build_grid(d, L, 2)
        # bounds anywhere, and bounds on a site coordinate, where the interval is closed
        on_site = g.to_symmetric_coords(g.axis_coords()).tolist()
        bound = st.one_of(st.floats(-0.6 * L, 0.6 * L), st.sampled_from(on_site))
        lo = tuple(data.draw(bound) for _ in range(d))
        hi = tuple(data.draw(bound) for _ in range(d))
        box = BoxRegion(lo, hi)
        product = np.zeros(g.shape, bool)
        product[np.ix_(*box.axis_sites(g))] = True
        coords = g.to_symmetric_coords(g.site_coords())
        inside = np.all((coords >= np.array(lo)) & (coords <= np.array(hi)), axis=-1)
        assert np.array_equal(product, inside)
        assert np.array_equal(box.mask(g), inside)

    def test_half_torus_mask_oracle(self):
        g = build_grid(1, 1.0, 4)
        got = BoxRegion((-0.5,), (0.0,)).mask(g)
        sym = g.to_symmetric_coords(g.axis_coords())
        assert np.array_equal(got, (sym >= -0.5) & (sym <= 0.0))


class TestSnapshot:
    def test_roundtrip(self, tmp_path):
        g = build_grid(2, 2.0, 3)
        f = random_field(g, 9)
        f.time = 0.625
        path = tmp_path / "field.snap"
        write_snapshot(path, f, seed=1234)
        back, seed = read_snapshot(path)
        assert seed == 1234
        assert back.grid == g and back.time == 0.625
        assert np.array_equal(back.values, f.values)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.snap"
        path.write_bytes(b"NOPE" + b"\x00" * 60)
        with pytest.raises(ValueError):
            read_snapshot(path)
