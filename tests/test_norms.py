"""Function-space norms of discrete space-time fields and the
maximal-regularity ratio."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from maxreg.coefficients import generate_family
from maxreg.fem import SpaceMesh, grad_sq, h_inner, laplace_eigenpairs, mass_apply
from maxreg.norms import (
    SpaceTimeField,
    d_alpha,
    dual_norm_estar,
    energy_norm,
    l2h_norm,
    l2v_grad_norm,
    maxreg_ratio,
    sobolev_norm,
    zero_field,
)
from maxreg.timefourier import TimeGrid, fourier_multiplier, frac_symbol

MESH = SpaceMesh(0.0, 1.0, 32)
GRID = TimeGrid(-1.0, 3.0, 128)
# grids of the Parseval property tests, up to 256 time points; each sum runs
# over every mode, the Nyquist mode included
PARSEVAL_GRIDS = [(TimeGrid(-1.0, 3.0, 128), SpaceMesh(0.0, 1.0, 16)),
                  (TimeGrid(-1.0, 3.0, 256), SpaceMesh(0.0, 1.0, 32))]


def random_field(grid=GRID, mesh=MESH, seed=0):
    rng = np.random.default_rng(seed)
    vals = (rng.standard_normal((grid.n_points, mesh.n_dofs))
            + 1j * rng.standard_normal((grid.n_points, mesh.n_dofs)))
    return SpaceTimeField(grid, mesh, vals)


def time_derivative(u):
    """du/dt: the time multiplier i*tau."""
    return SpaceTimeField(u.time_grid, u.mesh,
                          fourier_multiplier(u.values, 1j * u.time_grid.frequencies))


def tensor_mode(grid=GRID, mesh=MESH, k_time=3, k_space=0):
    mu, Phi = laplace_eigenpairs(mesh, np.ones(mesh.n_cells))
    tau0 = 2 * np.pi * k_time / grid.period
    vals = np.exp(1j * tau0 * grid.points)[:, None] * Phi[:, k_space][None, :]
    return SpaceTimeField(grid, mesh, vals), tau0, mu[k_space], Phi[:, k_space]


def energy_norm_reference(u):
    """(||u||^2 + ||D^{1/2} u||^2 + ||grad u||^2)^{1/2}, each in time."""
    half = fourier_multiplier(u.values, frac_symbol(u.time_grid.frequencies, 0.5))
    sq = (h_inner(u.mesh, u.values, u.values).real + h_inner(u.mesh, half, half).real
          + grad_sq(u.mesh, u.values))
    return np.sqrt(u.time_grid.dt * np.sum(sq))


def sobolev_norm_reference(u, s, target):
    """|| (1 + tau^2)^{s/2} r || in L2(H) or L2(V) for the even reflection r
    of u, in time, with the doubled mass halved."""
    refl = np.concatenate([u.values, u.values[::-1]], axis=0)
    tau = 2 * np.pi * np.fft.fftfreq(refl.shape[0], d=u.time_grid.dt)
    m = fourier_multiplier(refl, (1.0 + tau**2) ** (s / 2))
    sq = h_inner(u.mesh, m, m).real
    if target == "V":
        sq = sq + grad_sq(u.mesh, m)
    return np.sqrt(0.5 * u.time_grid.dt * np.sum(sq))


def dual_norm_reference(f):
    """(int (f | z)_H dt)^{1/2} for the Riesz representer z of f, solved in
    the M-orthonormal eigenbasis of K_1 by one time multiplier per mode."""
    mu, Phi = laplace_eigenpairs(f.mesh, np.ones(f.mesh.n_cells))
    tau = np.abs(f.time_grid.frequencies)
    c = mass_apply(f.mesh, f.values) @ Phi  # (Phi_j | f)_H in time
    zc = np.column_stack([fourier_multiplier(c[:, j], 1.0 / (1.0 + tau + mu[j]))
                          for j in range(len(mu))])
    return np.sqrt(f.time_grid.dt * np.sum(c * np.conj(zc)).real)


class TestParsevalMatchesTimeDomain:
    """Each norm taken on the unitary time spectrum equals its time-domain
    formula."""

    @given(st.sampled_from(PARSEVAL_GRIDS), st.integers(0, 2**31 - 1))
    @settings(max_examples=10, deadline=None)
    def test_energy_norm(self, grid_mesh, seed):
        u = random_field(*grid_mesh, seed=seed)
        assert energy_norm(u) == pytest.approx(energy_norm_reference(u), rel=1e-12)

    @given(st.sampled_from(PARSEVAL_GRIDS), st.integers(0, 2**31 - 1),
           st.sampled_from([0.0, 0.25, 0.5, 1.0]), st.sampled_from(["H", "V"]))
    @settings(max_examples=20, deadline=None)
    def test_sobolev_norm(self, grid_mesh, seed, s, target):
        u = random_field(*grid_mesh, seed=seed)
        assert sobolev_norm(u, s, target) == pytest.approx(
            sobolev_norm_reference(u, s, target), rel=1e-12)

    @given(st.sampled_from(PARSEVAL_GRIDS), st.integers(0, 2**31 - 1))
    @settings(max_examples=10, deadline=None)
    def test_dual_norm_estar(self, grid_mesh, seed):
        f = random_field(*grid_mesh, seed=seed)
        assert dual_norm_estar(f) == pytest.approx(dual_norm_reference(f), rel=1e-12)


class TestEnergyNorm:
    def test_zero(self):
        assert energy_norm(zero_field(GRID, MESH)) == 0.0

    def test_single_tensor_mode_closed_form(self):
        u, tau0, mu, phi = tensor_mode()
        # ||u||_E^2 = period * (1 + |tau0| + mu) for an M-normalized mode
        expected = np.sqrt(GRID.period * (1.0 + abs(tau0) + mu))
        assert energy_norm(u) == pytest.approx(expected, rel=1e-10)

    @given(st.integers(0, 2**31 - 1))
    @settings(max_examples=10, deadline=None)
    def test_embedding_bound(self, seed):
        # ||u||_E <= C_grid (||u||_{H^1(V*)} + ||u||_{L^2(V)}); on the discrete
        # window the interpolation inequality holds with C = 1 in each mode
        u = random_field(seed=seed)
        du = time_derivative(u)
        h1_vstar_sq = 0.0
        l2v_sq = 0.0
        dt = u.time_grid.dt
        for j in range(u.time_grid.n_points):
            l2v_sq += dt * (h_inner(MESH, u.values[j], u.values[j]).real
                            + grad_sq(MESH, u.values[j]))
            h1_vstar_sq += dt * h_inner(MESH, du.values[j], du.values[j]).real
        bound = np.sqrt(h1_vstar_sq + l2v_sq) + np.sqrt(l2v_sq)
        assert energy_norm(u) <= 1.5 * bound


class TestSobolevNorm:
    def test_constant_field_is_l2_norm(self):
        vals = np.ones((GRID.n_points, MESH.n_dofs), dtype=complex)
        u = SpaceTimeField(GRID, MESH, vals)
        for s in (0.25, 0.5, 1.0):
            assert sobolev_norm(u, s, "H") == pytest.approx(l2h_norm(u), rel=1e-12)

    def test_single_mode_closed_form(self):
        u, tau0, mu, _ = tensor_mode()
        # even whole-sample reflection of e^{i tau0 t} splits over reflected
        # modes; with k_time even in the doubled window the norm is exact:
        got = sobolev_norm(u, 0.5, "H")
        # compare against direct symbol computation on the reflected signal
        refl = np.concatenate([u.values, u.values[::-1]], axis=0)
        uhat = np.fft.fft(refl, axis=0) / refl.shape[0]
        tau = 2 * np.pi * np.fft.fftfreq(refl.shape[0], d=GRID.dt)
        w = (1.0 + tau**2) ** 0.5
        total = 0.0
        for k in range(refl.shape[0]):
            total += w[k] * h_inner(MESH, uhat[k], uhat[k]).real
        expected = np.sqrt(0.5 * (2 * GRID.period) * total)
        assert got == pytest.approx(expected, rel=1e-12)

    def test_s1_matches_direct_quadrature(self):
        u = random_field(seed=3)
        direct_sq = 0.0
        refl = SpaceTimeField(
            TimeGrid(GRID.t_start, GRID.t_start + 2 * GRID.period, 2 * GRID.n_points),
            MESH, np.concatenate([u.values, u.values[::-1]], axis=0))
        du = time_derivative(refl)
        dt = GRID.dt
        for j in range(refl.time_grid.n_points):
            direct_sq += dt * (h_inner(MESH, refl.values[j], refl.values[j]).real
                               + h_inner(MESH, du.values[j], du.values[j]).real)
        assert sobolev_norm(u, 1.0, "H") == pytest.approx(
            np.sqrt(0.5 * direct_sq), rel=1e-8)

    def test_monotone_in_s(self):
        u = random_field(seed=4)
        values = [sobolev_norm(u, s, "H") for s in (0.1, 0.3, 0.5, 0.8, 1.0)]
        assert all(a <= b + 1e-12 for a, b in zip(values, values[1:]))

    @given(st.floats(0.1, 5.0), st.integers(0, 2**31 - 1))
    @settings(max_examples=10, deadline=None)
    def test_homogeneity_and_triangle(self, c, seed):
        u, v = random_field(seed=seed), random_field(seed=seed + 1)
        cu = SpaceTimeField(GRID, MESH, c * u.values)
        s = 0.5
        assert sobolev_norm(cu, s, "H") == pytest.approx(
            c * sobolev_norm(u, s, "H"), rel=1e-12)
        w = SpaceTimeField(GRID, MESH, u.values + v.values)
        assert sobolev_norm(w, s, "H") <= (
            sobolev_norm(u, s, "H") + sobolev_norm(v, s, "H") + 1e-12)


class TestDAlpha:
    def test_matches_eigen_symbol(self):
        u, tau0, _, _ = tensor_mode(k_time=5)
        du = d_alpha(u, 0.5)
        assert np.abs(du.values - abs(tau0) ** 0.5 * u.values).max() <= 1e-10


class TestMaxregRatio:
    def test_zero_f_rejected(self):
        u = random_field(seed=5)
        with pytest.raises(ValueError):
            maxreg_ratio(u, zero_field(GRID, MESH))

    def test_scaling_invariance(self):
        from maxreg.solver import cauchy_solve

        grid = TimeGrid(0.0, 1.0, 128)
        mesh = SpaceMesh(0.0, 1.0, 32)
        A = generate_family("sqrt_product", grid, mesh, amp=0.5)
        prof = np.sin(np.pi * mesh.nodes[mesh.free_mask])
        f = SpaceTimeField(grid, mesh,
                           np.broadcast_to(prof, (128, mesh.n_dofs)).astype(complex).copy())
        cf = SpaceTimeField(grid, mesh, 7.0 * f.values)
        r1 = maxreg_ratio(cauchy_solve(A, f).u, f)
        r2 = maxreg_ratio(cauchy_solve(A, cf).u, cf)
        assert r2 == pytest.approx(r1, rel=1e-6)

    def test_sqrt_product_stable_within_factor_two(self):
        from maxreg.solver import cauchy_solve

        mesh = SpaceMesh(0.0, 1.0, 64)
        ratios = []
        for n_t in (64, 128, 256):
            grid = TimeGrid(0.0, 1.0, n_t)
            A = generate_family("sqrt_product", grid, mesh, amp=0.5)
            prof = np.sin(np.pi * mesh.nodes[mesh.free_mask])
            f = SpaceTimeField(grid, mesh,
                               np.broadcast_to(prof, (n_t, mesh.n_dofs)).astype(complex).copy())
            ratios.append(maxreg_ratio(cauchy_solve(A, f).u, f))
        assert max(ratios) / min(ratios) <= 2.0


class TestDualNorm:
    def test_riesz_self_consistency(self):
        # ||f||_{E*} computed by the Riesz map satisfies
        # <f, z> = ||f||_{E*}^2 where z is the representer; check against a
        # dense single-mode computation
        u, tau0, mu, phi = tensor_mode(k_time=2)
        f = u
        got = dual_norm_estar(f)
        # single M-orthonormal eigenmode: ((1+|tau|) M + K) z = M f
        # => z = f/(1+|tau|+mu), ||f||^2_{E*} = period/(1+|tau|+mu)
        expected = np.sqrt(GRID.period / (1.0 + abs(tau0) + mu))
        assert got == pytest.approx(expected, rel=1e-10)

