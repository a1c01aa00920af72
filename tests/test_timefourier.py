"""Symbol calculus on the periodized time window."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from maxreg.timefourier import (
    GridError,
    TimeGrid,
    TimeSignal,
    UniformGrid,
    fourier_multiplier,
    frac_derivative,
    frac_order,
    frac_symbol,
    hilbert_symbol,
    hilbert_transform,
    time_inner_product,
    time_norm,
    twist_inverse,
    twist_operator,
    twist_symbol,
)


def random_signal(grid, seed=0, mean_zero=False):
    rng = np.random.default_rng(seed)
    vals = rng.standard_normal(grid.n_points) + 1j * rng.standard_normal(grid.n_points)
    if mean_zero:
        vals -= vals.mean()
    return TimeSignal(grid, vals)


class TestTimeGrid:
    def test_rejects_non_power_of_two(self):
        with pytest.raises(GridError):
            TimeGrid(0.0, 1.0, 100)

    def test_rejects_tiny_grid(self):
        with pytest.raises(GridError):
            TimeGrid(0.0, 1.0, 4)

    def test_points_and_dt(self):
        g = TimeGrid(-1.0, 3.0, 8)
        assert g.period == 4.0
        assert g.dt == 0.5
        assert np.allclose(g.points, -1.0 + 0.5 * np.arange(8))

    def test_frequencies_match_fftfreq(self):
        g = TimeGrid(0.0, 2.0, 16)
        assert np.allclose(g.frequencies, 2 * np.pi * np.fft.fftfreq(16, d=g.dt))

    def test_refined_compatible(self):
        g = TimeGrid(0.0, 1.0, 64)
        assert not g.compatible(TimeGrid(0.0, 1.0, 128))
        assert g.compatible(TimeGrid(0.0, 1.0, 64))

    def test_uniform_grid_validates_without_power_of_two(self):
        g = UniformGrid(-1.0, 2.0, 3 * 64)
        assert g.dt == 3.0 / 192
        assert g.points[64] == 0.0
        with pytest.raises(GridError):
            UniformGrid(1.0, 1.0, 192)
        with pytest.raises(GridError):
            UniformGrid(0.0, 1.0, 1)


def same_bits(x, y):
    return x.dtype == y.dtype and x.shape == y.shape and x.tobytes() == y.tobytes()


class TestFourierMultiplier:
    @given(st.sampled_from([(), (3,), (2, 2, 2)]), st.booleans(),
           st.integers(0, 2**31 - 1))
    @settings(max_examples=40, deadline=None)
    def test_matches_explicit_formula(self, trailing, complex_symbol, seed):
        rng = np.random.default_rng(seed)
        n = 64
        x = rng.standard_normal((n, *trailing)) + 1j * rng.standard_normal((n, *trailing))
        m = rng.standard_normal(n)
        if complex_symbol:
            m = m + 1j * rng.standard_normal(n)
        if trailing == ():
            ref = np.fft.ifft(m * np.fft.fft(x))
        elif len(trailing) == 1:
            ref = np.fft.ifft(m[:, None] * np.fft.fft(x, axis=0), axis=0)
        else:
            ref = np.fft.ifft(m[:, None, None, None] * np.fft.fft(x, axis=0), axis=0)
        assert same_bits(fourier_multiplier(x, m), ref)

    def test_symbols_match_their_formulas(self):
        tau = TimeGrid(0.0, 1.0, 64).frequencies
        assert same_bits(frac_symbol(tau, 0.3), np.abs(tau) ** 0.3)
        assert same_bits(hilbert_symbol(tau), 1j * np.sign(tau))
        assert same_bits(twist_symbol(tau, 0.4), 1.0 + 0.4 * 1j * np.sign(tau))


class TestFracDerivative:
    def test_eigenfunction(self):
        # D^alpha e^{i tau0 t} = |tau0|^alpha e^{i tau0 t}
        g = TimeGrid(0.0, 1.0, 256)
        tau0 = 2 * np.pi * 7
        u = TimeSignal(g, np.exp(1j * tau0 * g.points))
        for alpha in (0.25, 0.5, 1.0):
            du = frac_derivative(u, alpha)
            err = np.abs(du.values - np.abs(tau0) ** alpha * u.values).max()
            assert err <= 1e-10 * np.abs(tau0) ** alpha

    def test_kills_constants(self):
        g = TimeGrid(0.0, 1.0, 64)
        u = TimeSignal(g, np.full(64, 3.0 + 1j))
        assert np.abs(frac_derivative(u, 0.5).values).max() <= 1e-14

    def test_rejects_alpha_out_of_range(self):
        with pytest.raises(ValueError):
            frac_order(0.0)
        with pytest.raises(ValueError):
            frac_order(1.5)

    @given(st.integers(0, 2**31 - 1))
    @settings(max_examples=25, deadline=None)
    def test_semigroup_half_half_is_one(self, seed):
        g = TimeGrid(0.0, 1.0, 1024)
        u = random_signal(g, seed, mean_zero=True)
        lhs = frac_derivative(frac_derivative(u, 0.5), 0.5)
        rhs = frac_derivative(u, 1.0)
        assert time_norm(TimeSignal(g, lhs.values - rhs.values)) <= 1e-10 * time_norm(rhs)

    @given(st.integers(0, 2**31 - 1))
    @settings(max_examples=25, deadline=None)
    def test_self_adjoint(self, seed):
        g = TimeGrid(0.0, 1.0, 256)
        u, v = random_signal(g, seed), random_signal(g, seed + 1)
        lhs = time_inner_product(frac_derivative(u, 0.5), v)
        rhs = time_inner_product(u, frac_derivative(v, 0.5))
        assert abs(lhs - rhs) <= 1e-12 * time_norm(u) * time_norm(v)


class TestHilbertTransform:
    def test_cos_to_minus_sin(self):
        # the sign convention i*sgn(tau): H cos = -sin; the solver's
        # coercivity identity depends on this sign
        g = TimeGrid(0.0, 1.0, 256)
        tau0 = 2 * np.pi * 3
        u = TimeSignal(g, np.cos(tau0 * g.points).astype(complex))
        hu = hilbert_transform(u)
        assert np.abs(hu.values - (-np.sin(tau0 * g.points))).max() <= 1e-12

    def test_kills_constants(self):
        g = TimeGrid(0.0, 1.0, 64)
        u = TimeSignal(g, np.ones(64, dtype=complex))
        assert np.abs(hilbert_transform(u).values).max() <= 1e-14

    @given(st.integers(0, 2**31 - 1))
    @settings(max_examples=100, deadline=None)
    def test_skew_adjoint(self, seed):
        g = TimeGrid(0.0, 1.0, 128)
        f = random_signal(g, seed)
        val = time_inner_product(f, hilbert_transform(f))
        assert abs(val.real) <= 1e-12 * time_norm(f) ** 2

    @given(st.integers(0, 2**31 - 1))
    @settings(max_examples=25, deadline=None)
    def test_commutes_with_frac_derivative(self, seed):
        g = TimeGrid(0.0, 1.0, 256)
        u = random_signal(g, seed)
        a = hilbert_transform(frac_derivative(u, 0.5))
        b = frac_derivative(hilbert_transform(u), 0.5)
        assert time_norm(TimeSignal(g, a.values - b.values)) <= 1e-12 * time_norm(u)


class TestTwist:
    def test_constant_unchanged(self):
        g = TimeGrid(0.0, 1.0, 64)
        u = TimeSignal(g, np.full(64, 2.0 + 0j))
        assert np.abs(twist_operator(u, 0.5).values - u.values).max() <= 1e-14

    def test_round_trip(self):
        g = TimeGrid(0.0, 1.0, 512)
        u = random_signal(g, 11)
        w = twist_inverse(twist_operator(u, 0.7), 0.7)
        assert time_norm(TimeSignal(g, w.values - u.values)) <= 1e-12 * time_norm(u)

    @pytest.mark.parametrize("delta", [0.0, 1.0, -0.5, 2.0])
    def test_rejects_delta_out_of_range(self, delta):
        g = TimeGrid(0.0, 1.0, 64)
        u = random_signal(g)
        with pytest.raises(ValueError):
            twist_operator(u, delta)


class TestInnerProduct:
    def test_constant(self):
        g = TimeGrid(0.0, 4.0, 128)
        one = TimeSignal(g, np.ones(128, dtype=complex))
        assert abs(time_inner_product(one, one) - 4.0) <= 1e-12

    def test_mode_orthogonality(self):
        g = TimeGrid(0.0, 1.0, 128)
        u = TimeSignal(g, np.exp(2j * np.pi * 3 * g.points))
        v = TimeSignal(g, np.exp(2j * np.pi * 5 * g.points))
        assert abs(time_inner_product(u, v)) <= 1e-12

    def test_conjugate_linear_second_slot(self):
        g = TimeGrid(0.0, 1.0, 64)
        u, v = random_signal(g, 1), random_signal(g, 2)
        lhs = time_inner_product(u, TimeSignal(g, 1j * v.values))
        assert abs(lhs + 1j * time_inner_product(u, v)) <= 1e-12

    @given(st.integers(0, 2**31 - 1))
    @settings(max_examples=25, deadline=None)
    def test_parseval(self, seed):
        g = TimeGrid(0.0, 1.0, 256)
        u = random_signal(g, seed)
        uhat = np.fft.fft(u.values) / g.n_points
        symbol_side = g.period * np.sum(np.abs(uhat) ** 2)
        assert abs(time_inner_product(u, u).real - symbol_side) <= 1e-12 * symbol_side

    def test_grid_mismatch_rejected(self):
        u = random_signal(TimeGrid(0.0, 1.0, 64))
        v = random_signal(TimeGrid(0.0, 2.0, 64))
        with pytest.raises(GridError):
            time_inner_product(u, v)

