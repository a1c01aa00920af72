"""Commutators [a, D^alpha] of a multiplier with a fractional derivative:
application, the converged operator norm (largest singular value by
Lanczos iteration), and the exact factorization of the half derivative of
a line solution through the coefficient commutator.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.sparse.linalg import ArpackNoConvergence, LinearOperator, svds

from . import fem, norms
from .bmo import bmo_seminorm, dyadic_family
from .coefficients import CoefficientField
from .norms import SpaceTimeField
from .solver import SolverError, solve_line
from .timefourier import (TimeSignal, fourier_multiplier, frac_derivative, frac_order,
                          frac_symbol)


@dataclass
class CommutatorProbe:
    alpha: float
    estimate: float
    bmo_value: float | None = None
    ratio: float | None = None
    degenerate: bool = False

    def __post_init__(self):
        if self.estimate < 0:
            raise ValueError("operator norm estimate must be >= 0")


def commutator_kernel(a: np.ndarray, symbol: np.ndarray, u: np.ndarray) -> np.ndarray:
    """[a, m(D)]u = a * m(D)u - m(D)(a * u) on axis 0 for a multiplier a
    broadcast against u and a time symbol m.  For a real symbol the adjoint
    is -commutator_kernel(conj(a), symbol, .)."""
    return a * fourier_multiplier(u, symbol) - fourier_multiplier(a * u, symbol)


def commutator_norm_estimate(a: TimeSignal, alpha: float) -> CommutatorProbe:
    """||[a, D^alpha]|| on L2 of the window: the largest singular value,
    converged by implicitly restarted Lanczos on C*C (ARPACK, through
    scipy's svds) from a fixed start vector, so every run gives the same
    value.

    The ratio against ||D^alpha a||_BMO is recorded when the multiplier is
    not constant.  Raises ValueError for an order outside (0, 1], before
    any ARPACK work, and SolverError when ARPACK does not converge.
    """
    alpha_v = frac_order(alpha)
    if a.values.ndim != 1:
        raise ValueError("commutator probe needs a scalar multiplier signal")
    n = a.n
    osc = a.values - a.values.mean()
    degenerate = bool(np.max(np.abs(osc)) < 1e-14 * max(1.0, np.max(np.abs(a.values))))
    estimate = 0.0
    bmo_val = None
    ratio = None
    if not degenerate:
        symbol = frac_symbol(a.grid.frequencies, alpha_v)
        a_conj = np.conj(a.values)
        op = LinearOperator(
            (n, n), dtype=complex,
            matvec=lambda v: commutator_kernel(a.values, symbol, v.ravel()),
            # C* = -[conj(a), D^alpha] since D^alpha is self-adjoint
            rmatvec=lambda v: -commutator_kernel(a_conj, symbol, v.ravel()),
        )
        rng = np.random.default_rng(0)
        v0 = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        try:
            estimate = float(svds(op, k=1, tol=1e-12, v0=v0,
                                  return_singular_vectors=False)[0])
        except ArpackNoConvergence as exc:
            raise SolverError(f"commutator norm at n = {n} did not converge: {exc}") from exc
        da = frac_derivative(TimeSignal(a.grid, a.values), alpha_v)
        bmo_val = bmo_seminorm(da, dyadic_family(a.grid)).value
        ratio = estimate / bmo_val if bmo_val > 0 else None
    return CommutatorProbe(
        alpha=alpha_v,
        estimate=estimate,
        bmo_value=bmo_val,
        ratio=ratio,
        degenerate=degenerate,
    )


def factorization_check(
    A: CoefficientField,
    f: SpaceTimeField,
    theta: complex = 1.0,
    tol: float = 1e-9,
) -> float:
    """Residual of the exact factorization of the half derivative of the
    solution u = (theta + L)^{-1} f:

      D^{1/2} u = (theta+L)^{-1} grad^* [A, D^{1/2}] grad u
                  + (theta+L)^{-1} D^{1/2} f,

    returned as ||r||_E / ||D^{1/2} u||_E (0 for f = 0 by convention).
    The identity is exact symbol algebra, so the residual budget is set by
    the solver tolerance."""
    if not np.any(f.values):
        return 0.0
    mesh = f.mesh
    u, _ = solve_line(A, f, theta=theta, tol=tol)
    du = norms.d_alpha(u, 0.5)
    grad_u = fem.gradient(mesh, u.values)              # (nt, n_cells)
    comm = commutator_kernel(A.scalar_cells(),         # [A, D^{1/2}] grad u
                             frac_symbol(A.time_grid.frequencies, 0.5), grad_u)
    rhs_comm = fem.mass_solve(mesh, fem.gradient_adjoint(mesh, comm))
    comm_field = SpaceTimeField(u.time_grid, mesh, rhs_comm)
    t1, _ = solve_line(A, comm_field, theta=theta, tol=tol)
    t2, _ = solve_line(A, norms.d_alpha(f, 0.5), theta=theta, tol=tol)
    r = SpaceTimeField(u.time_grid, mesh, du.values - t1.values - t2.values)
    denom = norms.energy_norm(du)
    return float(norms.energy_norm(r) / denom) if denom > 0 else 0.0
