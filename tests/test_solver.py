"""Hidden-coercivity space-time solver: line solves, the Cauchy pipeline,
and the time-stepping cross-checks."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from maxreg.coefficients import generate_family, mollify
from maxreg.fem import SpaceMesh, laplace_eigenpairs
from maxreg.norms import SpaceTimeField, energy_norm, l2h_norm, zero_field
from maxreg.solver import (
    FormParameters,
    SolverError,
    apply_L,
    autonomous_oracle,
    cauchy_solve,
    choose_delta,
    coercive_form,
    solve_line,
    timestep_reference,
)
from maxreg.timefourier import TimeGrid

MESH = SpaceMesh(0.0, 1.0, 64)
WGRID = TimeGrid(-1.0, 3.0, 512)


def sine_forcing(grid, mesh=MESH, mode=1):
    prof = np.sin(mode * np.pi * mesh.nodes[mesh.free_mask])
    vals = np.broadcast_to(prof, (grid.n_points, mesh.n_dofs)).astype(complex)
    return SpaceTimeField(grid, mesh, vals.copy())


class TestChooseDelta:
    def test_formula(self):
        assert choose_delta(1.0, 1.0, 1.0) == pytest.approx(0.5)
        assert choose_delta(1.0, 3.0, 1.0 + 10.0j) == pytest.approx(
            min(1.0 / 4.0, 1.0 / 11.0))

    def test_always_in_unit_interval(self):
        for lam, Lam, theta in ((0.1, 10.0, 0.01 + 100j), (1.0, 1.0, 5.0)):
            d = choose_delta(lam, Lam, theta)
            assert 0.0 < d < 1.0


class TestApplyL:
    def test_eigenfield(self):
        # L applied to e^{i tau0 t} Phi_k gives (i tau0 + theta + mu_k) times it
        A = generate_family("constant", WGRID, MESH)
        mu, Phi = laplace_eigenpairs(MESH, np.ones(MESH.n_cells))
        tau0 = 2 * np.pi * 5 / WGRID.period
        k = 2
        u = SpaceTimeField(WGRID, MESH,
                           np.exp(1j * tau0 * WGRID.points)[:, None] * Phi[:, k][None, :])
        theta = 1.0
        Lu = apply_L(u, A, theta)
        expected = (1j * tau0 + theta + mu[k]) * u.values
        assert np.abs(Lu.values - expected).max() <= 1e-10 * np.abs(expected).max()


class TestCoercivity:
    @pytest.mark.parametrize("theta", [1.0, 1.0 + 10.0j, 0.1])
    def test_lower_bound_random_fields(self, theta):
        # Re e(v,v) >= min(lam/(Lam+1), Re theta/(|Im theta|+1)) ||v||_E^2
        A = generate_family("sqrt_product", WGRID, MESH, amp=0.5)
        th = complex(theta)
        delta = choose_delta(A.lam, A.Lam, th)
        lower = min(A.lam / (A.Lam + 1), th.real / (abs(th.imag) + 1))
        params = FormParameters(theta=th, delta=delta, lam=A.lam, Lam=A.Lam)
        rng = np.random.default_rng(42)
        for _ in range(34):  # 3 thetas x 34 > the 100 of the criterion
            v = SpaceTimeField(WGRID, MESH,
                               rng.standard_normal((WGRID.n_points, MESH.n_dofs))
                               + 1j * rng.standard_normal((WGRID.n_points, MESH.n_dofs)))
            e = coercive_form(v, v, A, params)
            en2 = energy_norm(v) ** 2
            assert e.real >= lower * en2 * (1.0 - 1e-10)

    def test_rejects_nonpositive_theta(self):
        with pytest.raises(ValueError):
            FormParameters(theta=-1.0, delta=0.5, lam=1.0, Lam=1.0)


class TestSolveLine:
    def test_single_tensor_mode_exact(self):
        A = generate_family("constant", WGRID, MESH)
        mu, Phi = laplace_eigenpairs(MESH, np.ones(MESH.n_cells))
        tau0 = 2 * np.pi * 5 / WGRID.period
        k = 2
        uexact = np.exp(1j * tau0 * WGRID.points)[:, None] * Phi[:, k][None, :]
        theta = 1.0
        f = SpaceTimeField(WGRID, MESH, (1j * tau0 + theta + mu[k]) * uexact)
        u, diag = solve_line(A, f, theta=theta)
        assert np.abs(u.values - uexact).max() <= 1e-9
        assert diag.residual <= 1e-9

    def test_zero_rhs_zero_solution(self):
        A = generate_family("constant", WGRID, MESH)
        u, diag = solve_line(A, zero_field(WGRID, MESH))
        assert l2h_norm(u) == 0.0

    def test_energy_bound_holds(self):
        # ||u||_E <= sqrt(2) max((Lam+1)/lam, (|Im th|+1)/Re th) ||f||_{E*}
        A = generate_family("lipschitz", WGRID, MESH, seed=1)
        f = sine_forcing(WGRID)
        u, diag = solve_line(A, f, theta=1.0)
        assert diag.energy_norm <= diag.energy_bound * (1.0 + 1e-9)

    @pytest.mark.parametrize("kind", ["sqrt_product", "holder", "step"])
    def test_true_residual_small_for_rough_coefficients(self, kind):
        A = generate_family(kind, WGRID, MESH, seed=3)
        f = sine_forcing(WGRID)
        u, diag = solve_line(A, f, theta=1.0, tol=1e-9)
        Lu = apply_L(u, A, 1.0)
        rel = l2h_norm(SpaceTimeField(WGRID, MESH, Lu.values - f.values)) / l2h_norm(f)
        assert rel <= 1e-9

    def test_resolvent_bound(self):
        # ||u||_{L2(H)} <= (1/Re theta) ||f||_{L2(H)} (maximal accretivity)
        A = generate_family("sqrt_product", WGRID, MESH, amp=0.5)
        rng = np.random.default_rng(8)
        for i in range(20):
            theta = 0.3 + 2.0 * rng.random() + 1j * (4 * rng.random() - 2)
            f = SpaceTimeField(WGRID, MESH,
                               rng.standard_normal((WGRID.n_points, MESH.n_dofs))
                               + 1j * rng.standard_normal((WGRID.n_points, MESH.n_dofs)))
            u, _ = solve_line(A, f, theta=theta)
            assert l2h_norm(u) <= (1.0 / theta.real) * l2h_norm(f) * (1.0 + 1e-6)

    @pytest.mark.parametrize("theta", [1.0, 1.0 + 2.0j])
    def test_matches_dense_direct_solve(self, theta):
        # (theta + L) assembled column by column from apply_L on unit fields;
        # a transposed reshape of the solver's iterate, of f or of u fails this
        grid, mesh = TimeGrid(-1.0, 3.0, 16), SpaceMesh(0.0, 1.0, 6)
        A = generate_family("holder", grid, mesh, seed=2)
        nt, nd = grid.n_points, mesh.n_dofs
        unit = np.eye(nt * nd, dtype=complex).reshape(nt * nd, nt, nd)
        dense = np.column_stack([apply_L(SpaceTimeField(grid, mesh, e), A, theta).values.ravel()
                                 for e in unit])
        rng = np.random.default_rng(11)
        f = rng.standard_normal((nt, nd)) + 1j * rng.standard_normal((nt, nd))
        ref = np.linalg.solve(dense, f.ravel()).reshape(nt, nd)
        u, _ = solve_line(A, SpaceTimeField(grid, mesh, f), theta=theta)
        assert np.linalg.norm(u.values - ref) <= 1e-9 * np.linalg.norm(ref)

    def test_nonconvergence_raises_with_diagnostics(self):
        A = generate_family("step", WGRID, MESH, seed=3)
        f = sine_forcing(WGRID)
        with pytest.raises(SolverError) as exc:
            solve_line(A, f, theta=1.0, tol=1e-9, maxiter=1)
        assert "diagnostics" in dir(exc.value) or exc.value.diagnostics is not None


class TestCauchySolve:
    def test_matches_autonomous_oracle(self):
        grid = TimeGrid(0.0, 1.0, 256)
        A = generate_family("constant", grid, MESH)
        f = sine_forcing(grid)
        res = cauchy_solve(A, f, window_factor=4)
        ref = autonomous_oracle(np.ones(MESH.n_cells), f)
        rel = (np.linalg.norm(res.u.values - ref.values)
               / np.linalg.norm(ref.values))
        assert rel <= 1e-3

    def test_initial_value_small_and_decreasing(self):
        # forcing continuous across the zero-extension (vanishes at 0 and T):
        # the sampled v(0) then converges O(dt^2).  A forcing that jumps at
        # t = 0 leaves an O(dt) kink error in the truncated Fourier series,
        # which is a property of the data, not of the solver.
        vals = []
        for n_t in (256, 512):
            grid = TimeGrid(0.0, 1.0, n_t)
            A = generate_family("constant", grid, MESH)
            f = sine_forcing(grid)
            f = SpaceTimeField(grid, MESH,
                               np.sin(np.pi * grid.points)[:, None] * f.values)
            res = cauchy_solve(A, f)
            vals.append(res.v0_norm / l2h_norm(res.line_solution))
        assert vals[0] <= 1e-3
        assert vals[1] < vals[0]

    def test_guard_band_mass_negligible(self):
        grid = TimeGrid(0.0, 1.0, 256)
        A = generate_family("constant", grid, MESH)
        res = cauchy_solve(A, sine_forcing(grid))
        assert res.diagnostics.guard_mass_fraction <= 1e-6

    @pytest.mark.parametrize("kind", ["sqrt_product", "lipschitz", "step", "holder"])
    def test_crank_nicolson_agreement(self, kind):
        grid = TimeGrid(0.0, 1.0, 256)
        A = generate_family(kind, grid, MESH, seed=3)
        f = sine_forcing(grid)
        res = cauchy_solve(A, f)
        ref = timestep_reference(A, f)
        rel = np.linalg.norm(res.u.values - ref.values) / np.linalg.norm(ref.values)
        assert rel <= 1e-2

    def test_zero_forcing_zero_solution(self):
        grid = TimeGrid(0.0, 1.0, 128)
        A = generate_family("constant", grid, MESH)
        res = cauchy_solve(A, zero_field(grid, MESH))
        assert l2h_norm(res.u) == 0.0

    def test_linearity(self):
        grid = TimeGrid(0.0, 1.0, 128)
        A = generate_family("sqrt_product", grid, MESH, amp=0.5)
        f = sine_forcing(grid)
        u1 = cauchy_solve(A, f).u
        u2 = cauchy_solve(A, SpaceTimeField(grid, MESH, 3.0 * f.values)).u
        assert np.abs(u2.values - 3.0 * u1.values).max() <= 1e-7 * np.abs(u1.values).max()


class TestTimestepReference:
    def test_heat_equation_single_mode(self):
        # A = 1, f = Phi_0: u(t) = (1 - e^{-mu_0 t})/mu_0 * Phi_0; CN is
        # second order in dt
        grid = TimeGrid(0.0, 1.0, 512)
        A = generate_family("constant", grid, MESH)
        mu, Phi = laplace_eigenpairs(MESH, np.ones(MESH.n_cells))
        phi0 = Phi[:, 0].astype(complex)
        f = SpaceTimeField(grid, MESH,
                           np.broadcast_to(phi0, (512, MESH.n_dofs)).copy())
        u = timestep_reference(A, f)
        expected = ((1.0 - np.exp(-mu[0] * grid.points)) / mu[0])[:, None] * phi0
        assert np.abs(u.values - expected).max() <= 1e-4 * np.abs(expected).max()

    def test_oracle_matches_cn_for_variable_in_x_autonomous(self):
        grid = TimeGrid(0.0, 1.0, 512)
        a_cells = 1.0 + 0.5 * np.sin(np.pi * MESH.midpoints)
        vals = np.broadcast_to(
            a_cells[None, :, None, None], (grid.n_points, MESH.n_cells, 1, 1))
        from maxreg.coefficients import CoefficientField

        A = CoefficientField(grid, MESH, vals.astype(complex), T=1.0,
                             kind="autonomous_x", seed=0)
        f = sine_forcing(grid)
        cn = timestep_reference(A, f)
        orc = autonomous_oracle(a_cells, f)
        rel = np.linalg.norm(cn.values - orc.values) / np.linalg.norm(orc.values)
        assert rel <= 1e-3


class TestMollifiedSolve:
    def test_mollified_step_solves_and_agrees_with_cn(self):
        grid = TimeGrid(0.0, 1.0, 256)
        A = mollify(generate_family("step", grid, MESH), 8)
        f = sine_forcing(grid)
        res = cauchy_solve(A, f)
        ref = timestep_reference(A, f)
        rel = np.linalg.norm(res.u.values - ref.values) / np.linalg.norm(ref.values)
        assert rel <= 1e-2
