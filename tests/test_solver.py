"""Hidden-coercivity space-time solver: line solves, the Cauchy pipeline,
and the time-stepping cross-checks."""
import collections
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import maxreg.fem as fem
import maxreg.norms as norms
import maxreg.solver as solver
from maxreg.coefficients import CoefficientError, CoefficientField, generate_family, mollify
from maxreg.fem import SpaceMesh, laplace_eigenpairs
from maxreg.norms import SpaceTimeField, dual_norm_estar, energy_norm, l2h_norm, zero_field
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
from maxreg.timefourier import (TimeGrid, fourier_multiplier, frac_symbol, hilbert_symbol,
                                twist_symbol)

MESH = SpaceMesh(0.0, 1.0, 64)
WGRID = TimeGrid(-1.0, 3.0, 512)


def spy(monkeypatch, owner, name, record):
    """Replace owner.name by a wrapper that calls record(*args) first."""
    real = getattr(owner, name)

    def wrapper(*args, **kwargs):
        record(*args)
        return real(*args, **kwargs)

    monkeypatch.setattr(owner, name, wrapper)


class _Captured(Exception):
    """Stops a solve once its GMRES operator is captured."""


def captured_matvec(monkeypatch, A, f):
    """The matvec that solve_line hands to GMRES, taken without solving."""
    ops = []

    def capture(A, b, **kwargs):
        ops.append(A)
        raise _Captured

    monkeypatch.setattr(solver.spla, "gmres", capture)
    with pytest.raises(_Captured):
        solve_line(A, f)
    return ops[0].matvec


def dense_direct_solve(A, f, theta):
    """(theta + L)^{-1} f, with (theta + L) assembled column by column from
    apply_L on unit fields."""
    grid, mesh = f.time_grid, f.mesh
    n = grid.n_points * mesh.n_dofs
    unit = np.eye(n, dtype=complex).reshape(n, grid.n_points, mesh.n_dofs)
    dense = np.column_stack([apply_L(SpaceTimeField(grid, mesh, e), A, theta).values.ravel()
                             for e in unit])
    return np.linalg.solve(dense, f.values.ravel()).reshape(f.values.shape)


def sine_forcing(grid, mesh=MESH, mode=1):
    prof = np.sin(mode * np.pi * mesh.nodes[mesh.free_mask])
    vals = np.broadcast_to(prof, (grid.n_points, mesh.n_dofs)).astype(complex)
    return SpaceTimeField(grid, mesh, vals.copy())


def coercive_form_reference(v, w, A, params):
    """e(v, w) by four time-domain multipliers and per-slice quadrature:
    int -(D^{1/2} v | D^{1/2} H_t w') + ((theta + A(t)) v, w') dt with
    w' = (1 + delta H_t) w."""
    mesh, dt, tau = v.mesh, v.time_grid.dt, v.time_grid.frequencies
    half = frac_symbol(tau, 0.5)
    wt = fourier_multiplier(w.values, twist_symbol(tau, params.delta))
    dv = fourier_multiplier(v.values, half)
    dHwt = fourier_multiplier(fourier_multiplier(wt, hilbert_symbol(tau)), half)
    term_time = -dt * np.sum(fem.h_inner(mesh, dv, dHwt))
    term_theta = params.theta * dt * np.sum(fem.h_inner(mesh, v.values, wt))
    gv, gw = fem.gradient(mesh, v.values), fem.gradient(mesh, wt)
    term_stiff = dt * mesh.h * np.sum(A.scalar_cells() * gv * np.conj(gw))
    return term_time + term_theta + term_stiff


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
        params = FormParameters(theta=th, delta=delta)
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
            FormParameters(theta=-1.0, delta=0.5)

    @given(st.sampled_from([(TimeGrid(-1.0, 3.0, 128), SpaceMesh(0.0, 1.0, 16)),
                            (TimeGrid(-1.0, 3.0, 256), SpaceMesh(0.0, 1.0, 32))]),
           st.sampled_from([1.0, 1.0 + 10.0j]), st.integers(0, 2**31 - 1))
    @settings(max_examples=10, deadline=None)
    def test_parseval_form_matches_time_domain(self, grid_mesh, theta, seed):
        grid, mesh = grid_mesh
        A = generate_family("sqrt_product", grid, mesh, amp=0.5)
        params = FormParameters(theta=complex(theta), delta=choose_delta(A.lam, A.Lam, theta))
        rng = np.random.default_rng(seed)
        shape = (grid.n_points, mesh.n_dofs)
        v, w = (SpaceTimeField(grid, mesh, rng.standard_normal(shape)
                               + 1j * rng.standard_normal(shape)) for _ in range(2))
        ref = coercive_form_reference(v, w, A, params)
        assert abs(coercive_form(v, w, A, params) - ref) <= 1e-12 * abs(ref)

    def test_form_and_energy_norm_fft_counts(self, monkeypatch):
        # both are Parseval sums on the unitary time spectrum: the form takes
        # the spectra of its two arguments and one inverse FFT for the
        # stiffness quadrature; the energy norm takes one spectrum
        A = generate_family("sqrt_product", WGRID, MESH, amp=0.5)
        params = FormParameters(theta=1.0 + 10.0j, delta=choose_delta(A.lam, A.Lam, 1.0 + 10.0j))
        v = sine_forcing(WGRID)
        calls = collections.Counter()
        for name in ("fft", "ifft"):
            spy(monkeypatch, np.fft, name, lambda *a, name=name: calls.update([name]))
        coercive_form(v, v, A, params)
        assert calls == {"fft": 2, "ifft": 1}
        calls.clear()
        energy_norm(v)
        assert calls == {"fft": 1}


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
        theta = 1.0
        u, _ = solve_line(A, f, theta=theta)
        bound = np.sqrt(2.0) * max((A.Lam + 1) / A.lam,
                                   (abs(theta.imag) + 1) / theta.real) * dual_norm_estar(f)
        assert energy_norm(u) <= bound * (1.0 + 1e-9)

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

    def test_zero_forcing_factors_nothing(self, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("preconditioner factored for a zero forcing")
        monkeypatch.setattr(fem, "tridiag_factor", forbidden)
        A = generate_family("holder", WGRID, MESH, seed=3)
        u, diag = solve_line(A, zero_field(WGRID, MESH))
        assert not u.values.any()
        assert diag.iterations == 0

    def test_real_coefficient_reaches_stiffness_kernel_real(self, monkeypatch):
        dtypes = set()
        spy(monkeypatch, fem, "stiffness_apply", lambda mesh, a, u: dtypes.add(a.dtype))
        A = generate_family("holder", WGRID, MESH, seed=3)
        solve_line(A, sine_forcing(WGRID))
        assert dtypes == {np.dtype(np.float64)}

    def test_real_forcing_solution_bitwise_equal_to_complex_cast(self):
        # fft of a float64 array equals that of its complex128 cast bit for
        # bit, and so does the mass action, so GMRES takes the same iterates
        A = generate_family("holder", WGRID, MESH, seed=3)
        rng = np.random.default_rng(5)
        f = SpaceTimeField(WGRID, MESH, rng.standard_normal((WGRID.n_points, MESH.n_dofs)))
        fc = SpaceTimeField(WGRID, MESH, f.values)
        fc.values = f.values.astype(complex)    # past the storage rule
        assert f.values.dtype == np.float64
        u, diag = solve_line(A, f)
        uc, diag_c = solve_line(A, fc)
        assert u.values.tobytes() == uc.values.tobytes()
        assert diag.iterations == diag_c.iterations
        assert diag.residual == pytest.approx(diag_c.residual, rel=1e-12)

    def test_complex_coefficient_matches_dense_direct_solve(self, monkeypatch):
        grid, mesh = TimeGrid(-1.0, 3.0, 16), SpaceMesh(0.0, 1.0, 6)
        holder = generate_family("holder", grid, mesh, seed=2)
        A = CoefficientField(grid, mesh, (1.0 + 0.3j) * holder.scalar_cells(), T=holder.T)
        rng = np.random.default_rng(11)
        shape = (grid.n_points, mesh.n_dofs)
        f = SpaceTimeField(grid, mesh, rng.standard_normal(shape)
                           + 1j * rng.standard_normal(shape))
        dtypes = set()
        spy(monkeypatch, fem, "stiffness_apply", lambda mesh, a, u: dtypes.add(a.dtype))
        u, _ = solve_line(A, f, theta=1.0)
        ref = dense_direct_solve(A, f, 1.0)
        assert dtypes == {np.dtype(np.complex128)}
        assert np.linalg.norm(u.values - ref) <= 1e-9 * np.linalg.norm(ref)

    def test_iteration_makes_one_fft_pair_and_no_mass_solve(self, monkeypatch):
        # GMRES runs on the time spectrum: each matvec is one ifft, one
        # stiffness action and one fft, and a preconditioner application is
        # the factored mode solve alone.  Each iteration costs one matvec and
        # each restart cycle one more preconditioner solve, for its update
        calls = collections.Counter()
        for name in ("fft", "ifft"):
            spy(monkeypatch, np.fft, name, lambda *a: calls.update(["fft"]))
        for name in ("mass_apply", "mass_solve", "stiffness_apply"):
            spy(monkeypatch, fem, name, lambda *a, name=name: calls.update([name]))
        precond = []
        gmres = solver.spla.gmres

        def counting_gmres(A, b, *, M, **kwargs):
            def p_mv(x):
                before = calls.copy()
                out = M.matvec(x)
                precond.append(calls - before)
                return out

            def l_mv(x):
                calls.update(["matvec"])
                return A.matvec(x)
            return gmres(solver.spla.LinearOperator(A.shape, matvec=l_mv, dtype=A.dtype), b,
                         M=solver.spla.LinearOperator(M.shape, matvec=p_mv, dtype=M.dtype),
                         **kwargs)

        monkeypatch.setattr(solver.spla, "gmres", counting_gmres)
        A = generate_family("step", WGRID, MESH, seed=3)
        _, diag = solve_line(A, sine_forcing(WGRID))
        assert precond and not any(precond)
        assert calls["stiffness_apply"] > 0
        assert 0 <= calls["fft"] - 2 * calls["stiffness_apply"] <= 3
        assert calls["mass_solve"] <= 1
        cycles = -(-diag.iterations // solver.GMRES_RESTART)
        assert diag.iterations > solver.GMRES_RESTART
        assert calls["matvec"] == diag.iterations
        assert len(precond) == diag.iterations + cycles


class TestLineMatvec:
    ENDS = [("dirichlet", "dirichlet"), ("neumann", "dirichlet"),
            ("dirichlet", "neumann"), ("neumann", "neumann")]

    @pytest.mark.parametrize("ends", ENDS)
    @pytest.mark.parametrize("kind", ["step", "complex_holder"])
    def test_matches_unblocked_formula(self, monkeypatch, kind, ends):
        # 512 samples on 63 to 65 dofs make two or three blocks of dof rows.
        # A real coefficient gives the unblocked matvec bit for bit; a complex
        # one multiplies in a loop that rounds differently, by about one ulp
        mesh = SpaceMesh(0.0, 1.0, 64, *ends)
        A = generate_family("holder" if kind == "complex_holder" else kind, WGRID, mesh, seed=3)
        if kind == "complex_holder":
            A = CoefficientField(WGRID, mesh, (1.0 + 0.3j) * A.scalar_cells(), T=A.T)
        matvec = captured_matvec(monkeypatch, A, sine_forcing(WGRID, mesh))
        nt, nd = WGRID.n_points, mesh.n_dofs
        rng = np.random.default_rng(7)
        x = rng.standard_normal(nt * nd) + 1j * rng.standard_normal(nt * nd)
        xh = x.reshape(nd, nt)
        z = 1j * WGRID.frequencies + 1.0
        a = np.asfortranarray(A.scalar_cells())
        u = np.fft.ifft(xh, norm="ortho").T
        Ku = fem.gradient_adjoint(mesh, a * fem.gradient(mesh, u))
        ref = (z * fem.mass_apply(mesh, xh.T).T + np.fft.fft(Ku.T, norm="ortho")).ravel()
        got = matvec(x)
        if kind == "step":
            assert np.array_equal(got, ref)
        else:
            assert np.linalg.norm(got - ref) <= 1e-15 * np.linalg.norm(ref)

    def test_allocates_only_its_output(self, monkeypatch):
        # 2048 samples on 63 dofs make 8 blocks of dof rows: a matvec peaks at
        # its output and a few blocks, where an unblocked one held 3 vectors
        grid, mesh = TimeGrid(-1.0, 3.0, 2048), SpaceMesh(0.0, 1.0, 64)
        A = generate_family("step", grid, mesh, seed=3)
        matvec = captured_matvec(monkeypatch, A, sine_forcing(grid, mesh))
        x = np.random.default_rng(8).standard_normal(grid.n_points * mesh.n_dofs) + 0j
        matvec(x)
        tracemalloc.start()
        try:
            y = matvec(x)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert y.nbytes == 16 * x.size
        assert peak <= y.nbytes + 3 * 16 * fem.BLOCK_SAMPLES


def hard_case(name, n=128, n_cells=32):
    """Coefficient, forcing and window of a line solve that needs many
    iterations: the preconditioner's mean coefficient is far from A(t)."""
    grid = TimeGrid(0.0, 1.0, n)
    mesh = SpaceMesh(0.0, 1.0, n_cells, "neumann" if name == "neumann" else "dirichlet")
    if name == "complex_holder":
        holder = generate_family("holder", grid, mesh, amp=0.9, alpha=0.2, seed=3)
        A = CoefficientField(grid, mesh, (1.0 + 0.8j) * holder.scalar_cells(), T=holder.T)
    else:
        A = generate_family("step", grid, mesh, amp=1.9 if name == "step" else 1.5, seed=3)
    return A, sine_forcing(grid, mesh), 8 if name == "window8" else 4


class TestRestartedGmres:
    def test_line_solve_peak_is_a_few_krylov_vectors(self):
        # one vector of the time spectrum takes 16 * n_t * n_dofs bytes.  With
        # GMRES_RESTART = 6 the basis holds 7 of them and the whole solve
        # peaks near 15.3 (factors, operands, the iterate and a matvec's
        # output make the rest); scipy's loop on the same basis peaked near
        # 17.6, and its default 21-vector basis near 32
        A = generate_family("step", WGRID, MESH, seed=3)
        f = sine_forcing(WGRID)
        solve_line(A, f)
        tracemalloc.start()
        try:
            _, diag = solve_line(A, f)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert diag.iterations > solver.GMRES_RESTART
        assert peak <= 16 * 16 * WGRID.n_points * MESH.n_dofs

    @pytest.mark.filterwarnings("ignore:wrap-around guard band")
    @pytest.mark.parametrize("name", ["step", "complex_holder", "neumann", "window8"])
    def test_hard_cases_converge(self, name):
        # step: amp 1.9; complex_holder: (1 + 0.8j) times a rough holder field;
        # neumann: a Neumann left end; window8: an 8T line window
        A, f, window = hard_case(name)
        res = cauchy_solve(A, f, window_factor=window, tol=1e-9)
        assert res.diagnostics.iterations > 3 * solver.GMRES_RESTART
        assert res.diagnostics.residual <= 1e-9


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

    def test_window_below_four_is_extend_fulls_error(self, monkeypatch):
        # the window rule is extend_full's; it holds before any line solve
        def forbidden(*args, **kwargs):
            raise AssertionError("solve_line ran for a window below 4")
        monkeypatch.setattr(solver, "solve_line", forbidden)
        grid = TimeGrid(0.0, 1.0, 64)
        with pytest.raises(CoefficientError, match="window"):
            cauchy_solve(generate_family("constant", grid, MESH), sine_forcing(grid),
                         window_factor=2)

    def test_guard_band_mass_negligible(self):
        grid = TimeGrid(0.0, 1.0, 256)
        A = generate_family("constant", grid, MESH)
        res = cauchy_solve(A, sine_forcing(grid))
        assert res.guard_mass_fraction <= 1e-6

    def test_guard_band_warning_names_causality_leakage(self):
        # rough forcing on a coarse grid: most of the guard mass lies before
        # t = 0, where the line solution vanishes in theory
        grid, mesh = TimeGrid(0.0, 1.0, 256), SpaceMesh(0.0, 1.0, 64)
        A = generate_family("sqrt_product", grid, mesh, seed=0)
        rng = np.random.default_rng(0)
        f = SpaceTimeField(grid, mesh, rng.standard_normal((grid.n_points, mesh.n_dofs)))
        with pytest.warns(RuntimeWarning, match="refine time.n_points or smooth") as rec:
            res = cauchy_solve(A, f)
        v = res.line_solution.values
        vv = fem.h_inner(mesh, v, v).real
        guard = np.zeros(len(vv), dtype=bool)
        guard[:128] = guard[-128:] = True
        assert res.guard_mass_fraction == float(vv[guard].sum() / vv.sum())
        lead, trail = vv[:128].sum() / vv.sum(), vv[-128:].sum() / vv.sum()
        assert lead > trail
        (msg,) = [str(w.message) for w in rec]
        assert f"{lead:.2e}" in msg and f"{trail:.2e}" in msg

    def test_guard_band_warning_names_wrap_around(self):
        A, f, window = hard_case("neumann")
        with pytest.warns(RuntimeWarning, match="wrap-around guard band") as rec:
            res = cauchy_solve(A, f, window_factor=window)
        assert res.guard_mass_fraction > 1e-6
        assert "enlarge time.window_factor" in str(rec[0].message)

    def test_smooth_forcing_leaves_guard_bands_silent(self):
        grid, mesh = TimeGrid(0.0, 1.0, 256), SpaceMesh(0.0, 1.0, 64)
        A = generate_family("sqrt_product", grid, mesh, seed=0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            res = cauchy_solve(A, sine_forcing(grid, mesh))
        assert res.guard_mass_fraction <= 1e-6

    def test_solve_path_computes_no_certificate(self, monkeypatch):
        # the hidden-coercivity certificate is checked by the tests; a solve
        # evaluates no part of it
        def forbidden(*args, **kwargs):
            raise AssertionError("certificate evaluated on the solve path")
        for owner, name in ((solver, "coercive_form"), (norms, "energy_norm"),
                            (norms, "dual_norm_estar")):
            monkeypatch.setattr(owner, name, forbidden)
        grid = TimeGrid(0.0, 1.0, 64)
        A = generate_family("holder", grid, MESH, seed=3)
        res = cauchy_solve(A, sine_forcing(grid))
        assert res.diagnostics.residual <= 1e-9

    @pytest.mark.parametrize("kind", ["sqrt_product", "lipschitz", "step", "holder"])
    def test_crank_nicolson_agreement(self, kind):
        grid = TimeGrid(0.0, 1.0, 256)
        A = generate_family(kind, grid, MESH, seed=3)
        f = sine_forcing(grid)
        res = cauchy_solve(A, f)
        ref = timestep_reference(A, f)
        rel = np.linalg.norm(res.u.values - ref.values) / np.linalg.norm(ref.values)
        assert rel <= 1e-2

    def test_real_data_reach_the_line_solve_real_and_time_contiguous(self, monkeypatch):
        seen = []
        spy(monkeypatch, solver, "solve_line", lambda A, g, **kw: seen.append(g.values))
        grid = TimeGrid(0.0, 1.0, 64)
        cauchy_solve(generate_family("holder", grid, MESH, seed=1), sine_forcing(grid))
        (g,) = seen
        assert g.dtype == np.float64
        assert g.flags.f_contiguous

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


class TestAutonomousOracle:
    def test_real_data_and_theta_give_a_real_field(self):
        grid = TimeGrid(0.0, 1.0, 64)
        u = autonomous_oracle(np.ones(MESH.n_cells), sine_forcing(grid), theta=0.5)
        assert u.values.dtype == np.float64

    def test_complex_theta_stays_complex(self):
        # the per-mode update is complex even when the forcing is real
        grid = TimeGrid(0.0, 1.0, 64)
        a = np.ones(MESH.n_cells)
        f = sine_forcing(grid)
        fc = SpaceTimeField(grid, MESH, f.values)
        fc.values = f.values.astype(complex)    # past the storage rule
        u = autonomous_oracle(a, f, theta=0.5 + 3j)
        ref = autonomous_oracle(a, fc, theta=0.5 + 3j)
        assert f.values.dtype == np.float64
        assert u.values.dtype == np.complex128
        assert np.abs(u.values.imag).max() > 1e-3 * np.abs(u.values).max()
        assert np.allclose(u.values, ref.values, rtol=1e-12, atol=1e-14)


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
