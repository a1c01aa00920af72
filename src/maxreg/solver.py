"""Space-time solver for (theta + L)u = f on the periodized line, the
Cauchy-problem pipeline, a Crank-Nicolson reference solver, and the
autonomous eigen-expansion oracle.

All right-hand sides and solutions are H-representer fields: the equation
reads  u' + theta*u + Minv*K(t)*u = f  per time slice, with the time
derivative realized by the exact Fourier symbol i*tau.  The solve is
matrix-free GMRES, preconditioned by the mode-diagonal solve with the
time-averaged coefficient.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
import scipy.linalg.lapack
import scipy.sparse.linalg as spla

from . import fem, norms
from .coefficients import CoefficientField, extend_full
from .norms import SpaceTimeField, zero_field
from .timefourier import GridError, fourier_multiplier


class SolverError(RuntimeError):
    """Non-convergence or invalid solver input; carries diagnostics."""

    def __init__(self, message, diagnostics=None):
        super().__init__(message)
        self.diagnostics = diagnostics


@dataclass(frozen=True)
class FormParameters:
    theta: complex
    delta: float
    lam: float
    Lam: float

    def __post_init__(self):
        if self.theta.real <= 0:
            raise ValueError("need Re theta > 0")
        if not (0 < self.delta < 1):
            raise ValueError("need delta in (0, 1)")


@dataclass
class SolveDiagnostics:
    residual: float = np.inf
    iterations: int = 0
    coercivity_constant_observed: float = 0.0
    energy_norm: float = 0.0
    dual_norm_rhs: float = 0.0
    energy_bound: float = 0.0
    guard_mass_fraction: float = 0.0


def choose_delta(lam: float, Lam: float, theta: complex) -> float:
    """delta = min(lam/(Lam+1), Re(theta)/(|Im(theta)|+1)); guarantees that
    the three coefficients in the coercivity identity are all >= delta and
    that delta < 1."""
    theta = complex(theta)
    if theta.real <= 0:
        raise ValueError("need Re theta > 0")
    return min(lam / (Lam + 1.0), theta.real / (abs(theta.imag) + 1.0))


def _check_setup(u: SpaceTimeField, A: CoefficientField):
    if not u.time_grid.compatible(A.time_grid) or u.mesh != A.mesh:
        raise GridError("field and coefficient live on different grids")


def apply_L(u: SpaceTimeField, A: CoefficientField, theta: complex = 0.0) -> SpaceTimeField:
    """(theta + L)u in H-representer form: exact i*tau time symbol plus the
    per-slice stiffness action Minv K(t) u.  Matrix-free."""
    _check_setup(u, A)
    du = norms.field_symbol(u, 1j * u.time_grid.frequencies + complex(theta))
    Ku = fem.stiffness_apply(u.mesh, A.scalar_cells(), u.values)
    stiff = fem.mass_solve(u.mesh, Ku)
    return SpaceTimeField(u.time_grid, u.mesh, du.values + stiff)


def coercive_form(
    v: SpaceTimeField, w: SpaceTimeField, A: CoefficientField, params: FormParameters
) -> complex:
    """The twisted sesquilinear form

      e(v, w) = int -(D^{1/2} v | D^{1/2} H_t (1+delta H_t) w)
                 + <(theta + A(t)) v, (1+delta H_t) w> dt,

    evaluated by symbol calculus plus per-slice quadrature."""
    if not v.compatible(w):
        raise GridError("form arguments live on different grids")
    _check_setup(v, A)
    dt = v.time_grid.dt
    mesh = v.mesh
    wt = norms.twist(w, params.delta)
    dv = norms.d_alpha(v, 0.5)
    dHwt = norms.d_alpha(norms.hilbert(wt), 0.5)
    term_time = -dt * np.sum(fem.h_inner(mesh, dv.values, dHwt.values))
    term_theta = complex(params.theta) * dt * np.sum(fem.h_inner(mesh, v.values, wt.values))
    gv = fem.gradient(mesh, v.values)
    gw = fem.gradient(mesh, wt.values)
    a_cells = A.scalar_cells()
    term_stiff = dt * mesh.h * np.sum(a_cells * gv * np.conj(gw))
    return complex(term_time + term_theta + term_stiff)


def solve_line(
    A: CoefficientField,
    f: SpaceTimeField,
    theta: complex = 1.0,
    tol: float = 1e-9,
    maxiter: int = 400,
) -> tuple[SpaceTimeField, SolveDiagnostics]:
    """Unique solve of (theta + L)u = f on the periodized line.

    Matrix-free GMRES with the time-averaged constant-coefficient solve as a
    mode-diagonal preconditioner.  Fails loudly on non-convergence."""
    _check_setup(f, A)
    theta = complex(theta)
    if theta.real <= 0:
        raise SolverError("need Re theta > 0")
    if not np.all(np.isfinite(f.values)):
        raise SolverError("right-hand side contains non-finite samples")
    mesh, grid = f.mesh, f.time_grid
    nt, nd = grid.n_points, mesh.n_dofs
    # the GMRES iterate is held time-contiguous as (nd, nt): the (nt, nd)
    # views handed to the fem kernels are Fortran-ordered, and so is a_cells
    a_cells = np.asfortranarray(A.scalar_cells())
    z = 1j * grid.frequencies + theta
    # mode-diagonal preconditioner: (i*tau + theta) M + K(mean A) per mode,
    # factored once
    factors = fem.tridiag_factor(fem.shifted_bands(mesh, z, a_cells.mean(axis=0).real))

    def L_mv(x):
        u = x.reshape(nd, nt).T
        du = fourier_multiplier(u, z)
        Ku = fem.stiffness_apply(mesh, a_cells, u)
        return (du + fem.mass_solve(mesh, Ku)).T.ravel()

    def P_mv(x):
        r = x.reshape(nd, nt)
        rhat = np.fft.fft(fem.mass_apply(mesh, r.T).T, axis=-1)
        return np.fft.ifft(fem.batched_tridiag_solve(factors, rhat), axis=-1).ravel()

    N = nt * nd
    Lop = spla.LinearOperator((N, N), matvec=L_mv, dtype=complex)
    Pop = spla.LinearOperator((N, N), matvec=P_mv, dtype=complex)

    iters = [0]

    def cb(_):
        iters[0] += 1

    fnorm = norms.l2h_norm(f)
    if fnorm == 0.0:
        return zero_field(grid, mesh), SolveDiagnostics(residual=0.0, iterations=0)
    x, info = spla.gmres(Lop, f.values.T.ravel(), M=Pop, rtol=min(tol * 1e-2, 1e-10),
                         atol=0.0, maxiter=maxiter, callback=cb, callback_type="pr_norm")
    u = SpaceTimeField(grid, mesh, np.ascontiguousarray(x.reshape(nd, nt).T))
    res_field = SpaceTimeField(grid, mesh, L_mv(x).reshape(nd, nt).T - f.values)
    rel_res = norms.l2h_norm(res_field) / fnorm
    diag_out = SolveDiagnostics(residual=rel_res, iterations=iters[0])
    if info != 0 or rel_res > tol:
        raise SolverError(
            f"line solve failed: info={info}, relative residual {rel_res:.3e} > {tol:.1e} "
            f"after {iters[0]} iterations",
            diag_out,
        )
    # a posteriori energy bound and observed coercivity
    delta = choose_delta(A.lam, A.Lam, theta)
    params = FormParameters(theta=theta, delta=delta, lam=A.lam, Lam=A.Lam)
    e_u = norms.energy_norm(u)
    dual_f = norms.dual_norm_estar(f)
    bound = np.sqrt(2.0) * max((A.Lam + 1) / A.lam, (abs(theta.imag) + 1) / theta.real) * dual_f
    ee = coercive_form(u, u, A, params)
    diag_out.energy_norm = e_u
    diag_out.dual_norm_rhs = dual_f
    diag_out.energy_bound = bound
    diag_out.coercivity_constant_observed = ee.real / e_u**2 if e_u > 0 else 0.0
    return u, diag_out


@dataclass
class CauchyResult:
    u: SpaceTimeField               # solution restricted to [0, T)
    line_solution: SpaceTimeField   # v on the full window
    v0_norm: float                  # || v(0) ||_{L2(Omega)}; exactly 0 in theory
    diagnostics: SolveDiagnostics


def cauchy_solve(
    A: CoefficientField,
    f: SpaceTimeField,
    window_factor: int = 4,
    tol: float = 1e-9,
) -> CauchyResult:
    """Cauchy problem u' + A(t)u = f on [0, T), u(0) = 0, by reduction to the
    line: extend the coefficient, weight the zero-extended data by e^{-t},
    solve (1 + L)v = g, and return u = e^{t} v restricted to [0, T).

    The exponential weight is only ever evaluated on [0, T], so it cannot
    overflow.  v vanishes on (-inf, 0]; its sampled norm at t = 0 is reported
    as a discretization check.
    """
    if not f.time_grid.compatible(A.time_grid) or f.mesh != A.mesh:
        raise GridError("data and coefficient live on different grids")
    if window_factor < 4:
        raise SolverError("window must cover [-T, 3T] at least; refusing smaller")
    n = A.n_t
    T = A.T
    A_full = extend_full(A, window_factor)
    grid = A_full.time_grid
    mesh = A.mesh
    # time-contiguous, the layout solve_line's GMRES iterate takes without a copy
    g = np.zeros((grid.n_points, mesh.n_dofs), dtype=complex, order="F")
    t_rel = A.time_grid.points  # in [0, T)
    g[n : 2 * n] = np.exp(-t_rel)[:, None] * f.values
    g[n] *= 0.5  # half weight at the jump of the zero-extension
    g_field = SpaceTimeField(grid, mesh, g)
    v, diag = solve_line(A_full, g_field, theta=1.0, tol=tol)
    # wrap-around monitor: solution mass in the outer guard regions
    vv = fem.h_inner(mesh, v.values, v.values).real
    guard = np.zeros(grid.n_points, dtype=bool)
    guard[: n // 2] = True          # [-T, -T/2)
    guard[-(n // 2):] = True        # last half-T of the window
    total = vv.sum()
    frac = float(vv[guard].sum() / total) if total > 0 else 0.0
    diag.guard_mass_fraction = frac
    if frac > 1e-6:
        warnings.warn(
            f"wrap-around guard band holds {frac:.2e} of the solution mass "
            "(> 1e-6); enlarge the window", RuntimeWarning)
    u_vals = np.exp(t_rel)[:, None] * v.values[n : 2 * n]
    u = SpaceTimeField(A.time_grid, mesh, u_vals)
    v0 = float(np.sqrt(max(fem.h_inner(mesh, v.values[n], v.values[n]).real, 0.0)))
    return CauchyResult(u=u, line_solution=v, v0_norm=v0, diagnostics=diag)


def timestep_reference(
    A: CoefficientField,
    f: SpaceTimeField,
    theta: complex = 0.0,
    lipschitz_check: bool = True,
) -> SpaceTimeField:
    """Crank-Nicolson reference for u' + theta u + A(t)u = f on [0, T),
    u(0) = 0, same spatial discretization.  Intended for Lipschitz-in-time
    coefficients; mollify rough ones first."""
    if not f.time_grid.compatible(A.time_grid) or f.mesh != A.mesh:
        raise GridError("data and coefficient live on different grids")
    mesh, grid = f.mesh, f.time_grid
    nt, nd = grid.n_points, mesh.n_dofs
    dt = grid.dt
    mband = fem.mass_banded(mesh)[:, None]
    # midpoint bands of every step: lhs = M/dt + half, rhs = M/dt - half
    a_cells = A.scalar_cells()
    half = 0.5 * (fem.stiffness_banded(mesh, 0.5 * (a_cells[:-1] + a_cells[1:]))
                  + complex(theta) * mband)
    lhs = mband / dt + half
    explicit = mband / dt - half
    f_mid = fem.mass_apply(mesh, 0.5 * (f.values[:-1] + f.values[1:]))
    u = np.zeros((nt, nd), dtype=complex)
    fmax = float(np.sqrt(np.max(np.abs(fem.h_inner(mesh, f.values, f.values).real))))
    for j in range(nt - 1):
        rhs = fem.tridiag_apply(explicit[:, j], u[j]) + f_mid[j]
        off = lhs[1, j, :-1]
        *_, u[j + 1], info = scipy.linalg.lapack.zgtsv(off, lhs[0, j], off, rhs)
        if info != 0:
            raise SolverError(f"Crank-Nicolson step {j} is singular (zgtsv info={info})")
        if lipschitz_check:
            nj = np.sqrt(max(fem.h_inner(mesh, u[j], u[j]).real, 0.0))
            nj1 = np.sqrt(max(fem.h_inner(mesh, u[j + 1], u[j + 1]).real, 0.0))
            if nj1 > 1.0001 * (nj + dt * fmax):
                raise SolverError(
                    f"energy growth detected at step {j}: "
                    f"{nj1:.3e} > {nj:.3e} + dt*||f||; step size rejected")
    return SpaceTimeField(grid, mesh, u)


def autonomous_oracle(
    a_cells: np.ndarray,
    f: SpaceTimeField,
    theta: complex = 0.0,
) -> SpaceTimeField:
    """Exact solution of u' + theta u + A u = f, u(0) = 0, for a coefficient
    constant in time, via discrete eigen-expansion and per-mode Duhamel
    integrals (exponential integrator, exact for piecewise-linear data)."""
    mesh, grid = f.mesh, f.time_grid
    mu, Phi = fem.laplace_eigenpairs(mesh, a_cells)
    # M-orthonormal modes: coefficients c_k(t) = Phi_k^T M f(t)
    Mf = fem.mass_apply(mesh, f.values)
    fk = Mf @ Phi  # (nt, nmodes)
    dt = grid.dt
    z = mu.astype(complex) + complex(theta)  # decay rates per mode
    nt = grid.n_points
    uk = np.zeros_like(fk)
    ez = np.exp(-z * dt)
    # int_0^dt e^{-z(dt-s)} (a + (b-a) s/dt) ds, exact
    with np.errstate(invalid="ignore", divide="ignore"):
        w0 = (ez - 1.0 + z * dt) / (z**2 * dt)          # weight of the right sample f[j+1]
        w1 = (1.0 - ez - z * dt * ez) / (z**2 * dt)     # weight of the left sample f[j]
    small = np.abs(z) * dt < 1e-8
    w0[small] = dt / 2
    w1[small] = dt / 2
    for j in range(nt - 1):
        uk[j + 1] = ez * uk[j] + w1 * fk[j] + w0 * fk[j + 1]
    vals = uk @ Phi.T
    return SpaceTimeField(grid, mesh, vals.astype(complex))
