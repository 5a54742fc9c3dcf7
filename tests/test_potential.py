import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from phi4lattice.lattice import build_grid, mu_symbol
from phi4lattice.potential import TruncatedPotential, sobolev_norm_sq

from oracles import (
    central_difference,
    derivative_sup,
    sobolev_norm_sq_complex,
    truncated_potential_select,
)


class TestTruncatedPotential:
    def test_core_values(self):
        p5 = TruncatedPotential(5)
        assert p5.value(2.0) == 4.0
        assert TruncatedPotential(math.inf).value(2.0) == 4.0
        assert p5.value(10.0) == pytest.approx(5**4 / 4 + 1)
        assert p5.deriv(10.0) == 0.0

    def test_even_and_odd(self):
        p = TruncatedPotential(3)
        x = np.linspace(-5, 5, 1001)
        assert np.array_equal(p.value(x), p.value(-x))
        assert np.array_equal(p.deriv(x), -p.deriv(-x))
        assert p.deriv(0.0) == 0.0

    @pytest.mark.parametrize("n", [2, 3, 4, 8, 16])
    def test_derivative_cap(self, n):
        p = TruncatedPotential(n)
        assert derivative_sup(p) <= n**3 * (1 + 1e-12)

    def test_n1_cap_infeasible_but_bounded(self):
        # the n=1 boundary data force sup |F'| > 1; the blend stays below 1.52
        p = TruncatedPotential(1)
        sup = derivative_sup(p)
        assert 1.0 < sup < 1.52

    def test_central_difference(self):
        p = TruncatedPotential(4)
        x = np.linspace(-6.0, 6.0, 2001)
        fd = central_difference(p.value, x)
        # away from the C^1 seams the error is O(h^2) with |F'''| <= ~400
        seam = (np.abs(np.abs(x) - 4.0) < 1e-3) | (np.abs(np.abs(x) - 5.0) < 1e-3)
        assert np.max(np.abs(fd - p.deriv(x))[~seam]) <= 1e-8 * 400 * 2

    def test_agreement_below_truncation(self):
        grid = np.linspace(-3.0, 3.0, 100001)
        p3, p4, pinf = TruncatedPotential(3), TruncatedPotential(4), TruncatedPotential(math.inf)
        assert np.array_equal(p3.value(grid), pinf.value(grid))
        assert np.array_equal(p3.value(grid), p4.value(grid))

    def test_upper_envelope(self):
        x = np.linspace(-20.0, 20.0, 100001)
        for n in (1, 2, 5, 8):
            p = TruncatedPotential(n)
            assert np.all(p.value(x) <= 0.25 * x**4 + 1.0 + 1e-9)

    def test_monotone_in_n(self):
        x = np.linspace(0.0, 20.0, 100001)
        for n in (1, 2, 4, 8):
            a = TruncatedPotential(n).value(x)
            b = TruncatedPotential(n + 1).value(x)
            assert np.all(a <= b + 1e-9)

    def test_cap_grid_including_blend(self):
        for n in (2, 5):
            p = TruncatedPotential(n)
            x = np.linspace(0.0, n + 1.0, 100000)
            assert np.max(np.abs(p.deriv(x))) <= n**3 * (1 + 1e-12)

    @pytest.mark.parametrize("n", [1, 3, 5, math.inf])
    def test_select_oracle_bytewise(self, n):
        p = TruncatedPotential(n)
        seams = [0.0] if n == math.inf else [n, n + 1.0]
        edges = [np.nextafter(e, to) for e in seams for to in (-np.inf, np.inf)]
        x = np.concatenate([np.linspace(-8.0, 8.0, 4001), seams, edges, [0.0, -0.0, 1e3, 1e30]])
        x = np.concatenate([x, -x])
        value, deriv = truncated_potential_select(n, p._abc, x)
        assert p.value(x).tobytes() == value.tobytes()
        assert p.deriv(x).tobytes() == deriv.tobytes()
        for xi in x[::97].tolist() + seams + [-s for s in seams]:
            v, dv = truncated_potential_select(n, p._abc, xi)
            assert type(p.value(xi)) is float and type(p.deriv(xi)) is float
            assert p.value(xi) == float(v) and p.deriv(xi) == float(dv)
            assert math.copysign(1.0, p.deriv(xi)) == math.copysign(1.0, float(dv))

    def test_bad_index(self):
        with pytest.raises(ValueError):
            TruncatedPotential(0)
        with pytest.raises(ValueError):
            TruncatedPotential(2.5)


class TestObservables:
    """``sobolev_norm_sq``, squared and times beta/4, is the W column of ``phi4 run``."""

    def test_eval_w_constant_is_zero(self):
        g = build_grid(2, 1.0, 3)
        assert sobolev_norm_sq(np.full(g.shape, 2.0), g, alpha=0.8) == pytest.approx(0.0, abs=1e-20)

    def test_eval_w_single_mode(self):
        g = build_grid(1, 1.0, 4)
        alpha, a, k = 0.8, 1.7, 3
        x = g.axis_coords()
        f = a * np.cos(2 * np.pi * k * x)
        mu = mu_symbol(g)
        # |fhat|^2 at +-k: unitary-in-eps^d transform of a*cos: total power a^2 eps^d n / 2
        inner = a**2 / 2.0 * g.eps * g.sites_per_axis * mu[k] ** (-alpha)
        assert sobolev_norm_sq(f, g, alpha) == pytest.approx(inner, rel=1e-10)

    @pytest.mark.parametrize("d", [1, 2, 3])
    @pytest.mark.parametrize("L", [1.0, 2.0])
    def test_matches_complex_fft_oracle(self, d, L):
        g = build_grid(d, L, 3)
        f = np.random.default_rng(d).standard_normal(g.shape)
        for alpha in (0.0, 0.6, 1.3):
            assert sobolev_norm_sq(f, g, alpha) == pytest.approx(
                sobolev_norm_sq_complex(f, g.eps, alpha), rel=1e-12)

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_batch_equals_per_field_calls(self, d):
        g = build_grid(d, 1.0, 3)
        stack = np.random.default_rng(d).standard_normal((5,) + g.shape)
        stack[2].flat[7] = np.nan
        with np.errstate(invalid="ignore"):
            batch = sobolev_norm_sq(stack, g, 0.6)
            rows = [sobolev_norm_sq(row, g, 0.6) for row in stack]
        assert batch.shape == (5,) and all(type(r) is float for r in rows)
        assert np.isnan(batch[2]) and np.isfinite(np.delete(batch, 2)).all()
        assert batch.tobytes() == np.array(rows).tobytes()

    def test_parseval_alpha_zero(self):
        g = build_grid(2, 1.0, 3)
        rng = np.random.default_rng(1)
        f = rng.standard_normal(g.shape)
        inner = sobolev_norm_sq(f, g, alpha=0.0)
        centered = f - f.mean()
        assert inner == pytest.approx(g.eps**2 * np.sum(centered**2), abs=1e-10)


@given(st.integers(2, 12), st.floats(-8.0, 8.0, allow_nan=False))
@settings(max_examples=80, deadline=None)
def test_derivative_consistency_property(n, x):
    p = TruncatedPotential(n)
    h = 1e-5
    fd = (p.value(x + h) - p.value(x - h)) / (2 * h)
    assert fd == pytest.approx(p.deriv(x), abs=5e-4 * max(1.0, n**2))
