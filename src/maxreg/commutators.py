"""Commutators [a, D^alpha] of a multiplier with a fractional derivative:
application, randomized operator-norm probes, and the exact factorization
of the half derivative of a line solution through the coefficient
commutator.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import fem, norms
from .bmo import bmo_seminorm, dyadic_family
from .coefficients import CoefficientField
from .norms import SpaceTimeField
from .solver import solve_line
from .timefourier import (FracOrder, GridError, TimeSignal, fourier_multiplier,
                          frac_derivative, frac_symbol, time_norm)


@dataclass
class CommutatorProbe:
    alpha: float
    n_probes: int
    seed: int
    estimate: float
    bmo_value: float | None = None
    ratio: float | None = None
    degenerate: bool = False
    extra: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.n_probes < 16:
            raise ValueError("need at least 16 probes")
        if self.estimate < 0:
            raise ValueError("operator norm estimate must be >= 0")


def commutator_kernel(a: np.ndarray, symbol: np.ndarray, u: np.ndarray) -> np.ndarray:
    """[a, m(D)]u = a * m(D)u - m(D)(a * u) on axis 0 for a multiplier a
    broadcast against u and a time symbol m.  For a real symbol the adjoint
    is -commutator_kernel(conj(a), symbol, .)."""
    return a * fourier_multiplier(u, symbol) - fourier_multiplier(a * u, symbol)


def commutator_apply(a: TimeSignal, alpha: FracOrder | float, u: TimeSignal) -> TimeSignal:
    """[a, D^alpha]u = a * D^alpha u - D^alpha(a * u); products pointwise in
    time, the symbol in frequency."""
    if not a.grid.compatible(u.grid):
        raise GridError("multiplier and argument live on different grids")
    alpha_v = alpha.alpha if isinstance(alpha, FracOrder) else FracOrder(alpha).alpha
    a.check_finite()
    u.check_finite()
    symbol = frac_symbol(u.grid.frequencies, alpha_v)
    return TimeSignal(u.grid, commutator_kernel(a.values, symbol, u.values))


def commutator_norm_estimate(
    a: TimeSignal,
    alpha: FracOrder | float,
    n_probes: int = 32,
    seed: int = 0,
    n_power_steps: int = 60,
) -> CommutatorProbe:
    """Randomized lower bound for ||[a, D^alpha]|| on L2 of the window.

    Power iteration on C*C with random restarts; only a lower bound is
    certified by probing (reported with a +-20% disclaimer).  The ratio
    against ||D^{1/2} a||_BMO is recorded when the multiplier is not constant.
    """
    alpha_v = alpha.alpha if isinstance(alpha, FracOrder) else float(alpha)
    if a.values.ndim != 1:
        raise ValueError("commutator probe needs a scalar multiplier signal")
    n = a.n
    rng = np.random.default_rng(seed)
    symbol = frac_symbol(a.grid.frequencies, alpha_v)
    a_conj = np.conj(a.values)

    best = 0.0
    osc = a.values - a.values.mean()
    degenerate = bool(np.max(np.abs(osc)) < 1e-14 * max(1.0, np.max(np.abs(a.values))))
    if not degenerate:
        for _ in range(max(1, n_probes)):
            v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            v /= np.linalg.norm(v)
            lam = 0.0
            for _ in range(n_power_steps):
                # C* = -[conj(a), D^alpha] since D^alpha is self-adjoint
                w = -commutator_kernel(a_conj, symbol, commutator_kernel(a.values, symbol, v))
                nw = np.linalg.norm(w)
                if nw == 0.0:
                    break
                lam = nw
                v = w / nw
            best = max(best, np.sqrt(lam))
    bmo_val = None
    ratio = None
    if not degenerate:
        da = frac_derivative(TimeSignal(a.grid, a.values), alpha_v)
        bmo_val = bmo_seminorm(da, dyadic_family(a.grid)).value
        ratio = best / bmo_val if bmo_val > 0 else None
    return CommutatorProbe(
        alpha=alpha_v,
        n_probes=n_probes,
        seed=seed,
        estimate=float(best),
        bmo_value=bmo_val,
        ratio=ratio,
        degenerate=degenerate,
        extra={"resolution": n},
    )


def coordinatewise_commutator(
    A: CoefficientField, alpha: float, w: np.ndarray
) -> np.ndarray:
    """[A(., x), D^alpha] applied column-wise over x to cell data w (nt, nx)."""
    return commutator_kernel(A.scalar_cells(), frac_symbol(A.time_grid.frequencies, alpha), w)


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
    comm = coordinatewise_commutator(A, 0.5, grad_u)   # [A, D^{1/2}] grad u
    rhs_comm = fem.mass_solve(mesh, fem.gradient_adjoint(mesh, comm))
    comm_field = SpaceTimeField(u.time_grid, mesh, rhs_comm)
    t1, _ = solve_line(A, comm_field, theta=theta, tol=tol)
    t2, _ = solve_line(A, norms.d_alpha(f, 0.5), theta=theta, tol=tol)
    r = SpaceTimeField(u.time_grid, mesh, du.values - t1.values - t2.values)
    denom = norms.energy_norm(du)
    return float(norms.energy_norm(r) / denom) if denom > 0 else 0.0
