"""Space-time solver for (theta + L)u = f on the periodized line, the
Cauchy-problem pipeline, a Crank-Nicolson reference solver, and the
autonomous eigen-expansion oracle.

All right-hand sides and solutions are H-representer fields: the equation
reads  u' + theta*u + Minv*K(t)*u = f  per time slice, with the time
derivative realized by the exact Fourier symbol i*tau.  The solve is
matrix-free restarted GMRES (maxreg.krylov) on the time spectrum of the
Galerkin system (M times the equation), right-preconditioned by the
mode-diagonal solve with the time-averaged coefficient.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
import scipy.linalg.lapack

from . import fem, norms
# named spla: bench/tracing.py wraps `spla.gmres` and builds its operators
# with `spla.LinearOperator`; bench/selftest.py checks the binding is restored
from . import krylov as spla
from .coefficients import CoefficientField, extend_full
from .norms import SpaceTimeField, zero_field
from .timefourier import GridError, twist_symbol

# Krylov vectors per GMRES cycle in `solve_line`.  The preconditioner inverts
# the form with the time-mean coefficient, so the preconditioned operator is
# the identity plus the coefficient's deviation from its mean and the residual
# falls at a near-constant rate from the first step: a long basis buys almost
# nothing.  Restarted GMRES(m) converges for every m >= 1 when the operator's
# symmetric part is positive definite (Eisenstat, Elman & Schultz, SIAM J.
# Numer. Anal. 20, 1983).  A line solve on n_t samples then holds
# GMRES_RESTART + 1 basis vectors of 16 * n_t * n_dofs bytes.
GMRES_RESTART = 6


class SolverError(RuntimeError):
    """Non-convergence or invalid solver input; carries diagnostics."""

    def __init__(self, message, diagnostics=None):
        super().__init__(message)
        self.diagnostics = diagnostics


@dataclass(frozen=True)
class FormParameters:
    theta: complex
    delta: float

    def __post_init__(self):
        if self.theta.real <= 0:
            raise ValueError("need Re theta > 0")
        if not (0 < self.delta < 1):
            raise ValueError("need delta in (0, 1)")


@dataclass
class SolveDiagnostics:
    residual: float
    iterations: int


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

      e(v, w) = int ((d/dt + theta) v | (1 + delta H_t) w)
                 + (A(t) grad v | grad (1 + delta H_t) w) dt.

    D^{1/2} H_t D^{1/2} has the symbol i*tau, so with x = spectrum(v) and
    y = (1 + delta*i*sgn(tau)) spectrum(w) the time and theta terms are
    dt * sum_k (i*tau_k + theta) (M x_k | y_k).  The stiffness term is a
    per-slice quadrature on (1 + delta H_t) w = ifft(y)."""
    if not v.compatible(w):
        raise GridError("form arguments live on different grids")
    _check_setup(v, A)
    mesh, tau = v.mesh, v.time_grid.frequencies
    x = norms.spectrum(v)
    y = twist_symbol(tau, params.delta)[:, None] * norms.spectrum(w)
    term_time = np.sum((1j * tau + complex(params.theta)) * fem.h_inner(mesh, x, y))
    gv = fem.gradient(mesh, v.values)
    gw = fem.gradient(mesh, np.fft.ifft(y, axis=0, norm="ortho"))
    term_stiff = mesh.h * np.sum(A.scalar_cells() * gv * np.conj(gw))
    return complex(v.time_grid.dt * (term_time + term_stiff))


def solve_line(
    A: CoefficientField,
    f: SpaceTimeField,
    theta: complex = 1.0,
    tol: float = 1e-9,
    maxiter: int = 400,
) -> tuple[SpaceTimeField, SolveDiagnostics]:
    """Unique solve of (theta + L)u = f on the periodized line.

    Matrix-free GMRES(GMRES_RESTART) on the time spectrum x = fft(u,
    norm="ortho") of M(theta + L)u = Mf:  z_k M x_k + F K(A(t)) F^{-1} x =
    fft(Mf), with z_k = i*tau_k + theta, right-preconditioned by the
    mode-diagonal solve (z_k M + K(mean A))^{-1}.  The transform is unitary,
    so GMRES sees the time-domain system's Krylov spaces.  Right
    preconditioning makes the residual history that of the unpreconditioned
    system; each iteration costs one matvec, and each restart cycle one more
    preconditioner solve but no matvec (maxreg.krylov).  A matvec allocates
    only its result: the inverse FFT lands there, the stiffness action and
    the forward FFT overwrite it in place, and z_k M x_k is added over blocks
    of dof rows of fem.BLOCK_SAMPLES samples, which stay in cache.  Fails
    loudly when the L2(H) relative residual of (theta + L)u = f exceeds tol."""
    _check_setup(f, A)
    theta = complex(theta)
    if theta.real <= 0:
        raise SolverError("need Re theta > 0")
    if not np.all(np.isfinite(f.values)):
        raise SolverError("right-hand side contains non-finite samples")
    mesh, grid = f.mesh, f.time_grid
    nt, nd = grid.n_points, mesh.n_dofs
    fnorm = norms.l2h_norm(f)
    if fnorm == 0.0:
        return zero_field(grid, mesh), SolveDiagnostics(residual=0.0, iterations=0)
    # spectra are held time-contiguous as (nd, nt): their (nt, nd) views
    # handed to the fem kernels are Fortran-ordered, and so is a_cells
    a_cells = np.asfortranarray(A.scalar_cells())
    z = 1j * grid.frequencies + theta
    factors = fem.tridiag_factor(fem.shifted_bands(mesh, z, a_cells.mean(axis=0).real))
    diag_m, off_m = fem.mass_banded(mesh)[:, :, None]
    rows = max(1, fem.BLOCK_SAMPLES // nt)
    mx = np.empty((rows, nt), dtype=complex)
    tmp = np.empty_like(mx)

    def L_mv(x):
        # z * (M x) + fft(K(a) ifft(x)), in the one array the ifft allocates:
        # the stiffness action and the fft overwrite it, and the shifted mass
        # action is added a block of dof rows at a time, in the order of
        # fem.tridiag_apply, (d x_i + s x_{i+1}) + s x_{i-1}
        xh = x.reshape(nd, nt)
        y = np.fft.ifft(xh, norm="ortho")
        fem.stiffness_apply(mesh, a_cells, y.T, out=y.T)
        np.fft.fft(y, norm="ortho", out=y)
        for i0 in range(0, nd, rows):
            i1 = min(i0 + rows, nd)
            m, t = mx[: i1 - i0], tmp[: i1 - i0]
            np.multiply(diag_m[i0:i1], xh[i0:i1], out=m)
            hi = min(i1, nd - 1)
            np.multiply(off_m[i0:hi], xh[i0 + 1 : hi + 1], out=t[: hi - i0])
            m[: hi - i0] += t[: hi - i0]
            lo = max(i0, 1)
            np.multiply(off_m[lo - 1 : i1 - 1], xh[lo - 1 : i1 - 1], out=t[lo - i0 :])
            m[lo - i0 :] += t[lo - i0 :]
            np.multiply(z, m, out=m)
            y[i0:i1] += m
        return y.ravel()

    def P_mv(x):
        return fem.batched_tridiag_solve(factors, x.reshape(nd, nt)).ravel()

    N = nt * nd
    Lop = spla.LinearOperator((N, N), matvec=L_mv, dtype=complex)
    Pop = spla.LinearOperator((N, N), matvec=P_mv, dtype=complex)
    history = []
    b = np.fft.fft(fem.mass_apply(mesh, f.values).T, norm="ortho").ravel()
    # maxiter counts restart cycles
    x, info = spla.gmres(Lop, b, M=Pop, rtol=min(tol * 1e-2, 1e-10),
                         restart=GMRES_RESTART, maxiter=maxiter, callback=history.append)
    u = np.fft.ifft(x.reshape(nd, nt), norm="ortho").T
    # L_mv(x) - b is the spectrum of M(Lu - f); by Parseval the squared
    # L2(H) norm of Lu - f is dt times the sum of (M^{-1} r | r) over modes
    r = (L_mv(x) - b).reshape(nd, nt).T
    rel_res = float(np.sqrt(max(grid.dt * np.vdot(r, fem.mass_solve(mesh, r)).real, 0.0))) / fnorm
    diag_out = SolveDiagnostics(residual=rel_res, iterations=len(history))
    if info != 0 or rel_res > tol:
        raise SolverError(
            f"line solve failed: info={info}, relative residual {rel_res:.3e} > {tol:.1e} "
            f"after {len(history)} iterations",
            diag_out,
        )
    return SpaceTimeField(grid, mesh, np.ascontiguousarray(u)), diag_out


@dataclass
class CauchyResult:
    u: SpaceTimeField               # solution restricted to [0, T)
    line_solution: SpaceTimeField   # v on the full window
    v0_norm: float                  # || v(0) ||_{L2(Omega)}; exactly 0 in theory
    guard_mass_fraction: float      # share of the solution mass in the guard bands
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
    _check_setup(f, A)
    n = A.n_t
    T = A.T
    A_full = extend_full(A, window_factor)
    grid = A_full.time_grid
    mesh = A.mesh
    # time-contiguous, so that solve_line transforms it along contiguous rows
    g = np.zeros((grid.n_points, mesh.n_dofs), dtype=f.values.dtype, order="F")
    t_rel = A.time_grid.points  # in [0, T)
    g[n : 2 * n] = np.exp(-t_rel)[:, None] * f.values
    g[n] *= 0.5  # half weight at the jump of the zero-extension
    g_field = SpaceTimeField(grid, mesh, g)
    v, diag = solve_line(A_full, g_field, theta=1.0, tol=tol)
    # solution mass in the outer guard regions.  v vanishes before t = 0 in
    # theory, so mass in the leading band is leakage of the periodic spectral
    # derivative of rough data, which a longer window hardly moves; mass in
    # the trailing band is the periodic solve wrapping around
    vv = fem.h_inner(mesh, v.values, v.values).real
    guard = np.zeros(grid.n_points, dtype=bool)
    guard[: n // 2] = True          # [-T, -T/2)
    guard[-(n // 2):] = True        # last half-T of the window
    total = vv.sum()
    frac = float(vv[guard].sum() / total) if total > 0 else 0.0
    if frac > 1e-6:
        lead = float(vv[: n // 2].sum() / total)
        trail = float(vv[-(n // 2):].sum() / total)
        if lead > trail:
            warnings.warn(
                f"leading guard band [-T, -T/2) holds {lead:.2e} of the solution mass and "
                f"the wrap-around band {trail:.2e} (together > 1e-6): causality leakage of "
                "rough data; refine time.n_points or smooth the forcing", RuntimeWarning)
        else:
            warnings.warn(
                f"wrap-around guard band holds {trail:.2e} of the solution mass and the "
                f"leading band [-T, -T/2) {lead:.2e} (together > 1e-6); enlarge "
                "time.window_factor", RuntimeWarning)
    u_vals = np.exp(t_rel)[:, None] * v.values[n : 2 * n]
    u = SpaceTimeField(A.time_grid, mesh, u_vals)
    v0 = float(np.sqrt(max(fem.h_inner(mesh, v.values[n], v.values[n]).real, 0.0)))
    return CauchyResult(u=u, line_solution=v, v0_norm=v0, guard_mass_fraction=frac,
                        diagnostics=diag)


def timestep_reference(A: CoefficientField, f: SpaceTimeField,
                       theta: complex = 0.0) -> SpaceTimeField:
    """Crank-Nicolson reference for u' + theta u + A(t)u = f on [0, T),
    u(0) = 0, same spatial discretization.  Intended for Lipschitz-in-time
    coefficients; mollify rough ones first."""
    _check_setup(f, A)
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
    uk = np.zeros(fk.shape, dtype=complex)   # the decay rates z may be complex
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
    return SpaceTimeField(grid, mesh, vals)
