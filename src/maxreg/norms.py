"""Space-time fields and the norms of the function spaces in play.

A SpaceTimeField carries dof values (nt, ndof) over a time grid and a mesh.
Energy-space quantities treat the field's own grid as the periodized line.
Norms of fields living on [0, T) (Cauchy-problem solutions) are computed
after even whole-sample reflection onto a window of length 2T; reflection
(rather than zero-extension) is used because it does not inflate H^{1/2}
seminorms at the endpoints.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import fem
from .fem import SpaceMesh
from .timefourier import (GridError, TimeGrid, fourier_multiplier, frac_symbol,
                          hilbert_symbol, twist_symbol)


@dataclass
class SpaceTimeField:
    time_grid: TimeGrid
    mesh: SpaceMesh
    values: np.ndarray  # (nt, ndof) complex

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=complex)
        expect = (self.time_grid.n_points, self.mesh.n_dofs)
        if self.values.shape != expect:
            raise GridError(f"field values shape {self.values.shape} != {expect}")

    def compatible(self, other: "SpaceTimeField") -> bool:
        return self.time_grid.compatible(other.time_grid) and self.mesh == other.mesh


def zero_field(grid: TimeGrid, mesh: SpaceMesh) -> SpaceTimeField:
    return SpaceTimeField(grid, mesh, np.zeros((grid.n_points, mesh.n_dofs), dtype=complex))


def field_symbol(u: SpaceTimeField, symbol: np.ndarray) -> SpaceTimeField:
    """Apply a time Fourier multiplier to a field."""
    return SpaceTimeField(u.time_grid, u.mesh, fourier_multiplier(u.values, symbol))


def d_alpha(u: SpaceTimeField, alpha: float) -> SpaceTimeField:
    """Fractional time derivative |tau|^alpha of a field."""
    return field_symbol(u, frac_symbol(u.time_grid.frequencies, alpha))


def hilbert(u: SpaceTimeField) -> SpaceTimeField:
    return field_symbol(u, hilbert_symbol(u.time_grid.frequencies))


def twist(u: SpaceTimeField, delta: float) -> SpaceTimeField:
    return field_symbol(u, twist_symbol(u.time_grid.frequencies, delta))


def time_derivative(u: SpaceTimeField) -> SpaceTimeField:
    return field_symbol(u, 1j * u.time_grid.frequencies)


def l2h_inner(u: SpaceTimeField, v: SpaceTimeField) -> complex:
    """L2(time; L2(Omega)) inner product, conjugate-linear in v."""
    return complex(u.time_grid.dt * np.sum(fem.h_inner(u.mesh, u.values, v.values)))


def l2h_norm(u: SpaceTimeField) -> float:
    return float(np.sqrt(max(l2h_inner(u, u).real, 0.0)))


def l2v_grad_norm(u: SpaceTimeField) -> float:
    """|| grad u || in L2(time; L2)."""
    return float(np.sqrt(u.time_grid.dt * np.sum(fem.grad_sq(u.mesh, u.values)).real))


def energy_norm(u: SpaceTimeField) -> float:
    """Energy norm: (||u||^2 + ||D^{1/2} u||^2 + ||grad u||^2)^{1/2}."""
    half = d_alpha(u, 0.5)
    return float(np.sqrt(l2h_norm(u) ** 2 + l2h_norm(half) ** 2 + l2v_grad_norm(u) ** 2))


def _reflect(u: SpaceTimeField) -> SpaceTimeField:
    """Even whole-sample reflection onto a window of doubled length."""
    grid = TimeGrid(u.time_grid.t_start,
                    u.time_grid.t_start + 2 * u.time_grid.period,
                    2 * u.time_grid.n_points)
    vals = np.concatenate([u.values, u.values[::-1]], axis=0)
    return SpaceTimeField(grid, u.mesh, vals)


def sobolev_norm(u: SpaceTimeField, s: float, target: str = "H") -> float:
    """H^s(0, T; H) or H^s(0, T; V) norm via the symbol (1 + tau^2)^(s/2)
    on the even reflection of u.  s in (0, 1]; s = 0 gives the plain L2 norm.
    """
    if not (0.0 <= s <= 1.0):
        raise ValueError(f"Sobolev order must lie in [0, 1], got {s}")
    if target not in ("H", "V"):
        raise ValueError("target must be 'H' or 'V'")
    r = _reflect(u)
    tau = r.time_grid.frequencies
    uhat = np.fft.fft(r.values, axis=0) / r.time_grid.n_points
    weights = (1.0 + tau**2) ** s
    mass_sq = fem.h_inner(r.mesh, uhat, uhat).real  # ||uhat_k||_{L2(Omega)}^2
    total = float(np.sum(weights * mass_sq) * r.time_grid.period)
    if target == "V":
        total += float(np.sum(weights * fem.grad_sq(r.mesh, uhat).real) * r.time_grid.period)
    return float(np.sqrt(0.5 * total))  # reflection doubled the mass


def maxreg_ratio(u: SpaceTimeField, f: SpaceTimeField, alpha: float = 0.5) -> float:
    """(||u||_{H^{a+1/2}(H)} + ||u||_{H^a(V)}) / ||f||_{L2(H)} on [0, T)."""
    fn = l2h_norm(f)
    if fn == 0.0:
        raise ValueError("maximal-regularity ratio undefined for f = 0")
    return (sobolev_norm(u, alpha + 0.5, "H") + sobolev_norm(u, alpha, "V")) / fn


def dual_norm_estar(f: SpaceTimeField, theta_weight: float = 1.0) -> float:
    """Discrete dual norm ||f||_{E*} via the exact mode-diagonal Riesz solve.

    f is given in H-representer form (the functional w -> int (f | w)_H dt).
    Per mode: ((1 + |tau_k|) M + K_1) z_k = M fhat_k and
    ||f||_{E*}^2 = period * sum_k Re (M fhat_k | z_k).
    """
    mesh = f.mesh
    n = f.time_grid.n_points
    tau = np.abs(f.time_grid.frequencies)
    fhat = np.fft.fft(f.values, axis=0) / n
    rhs = fem.mass_apply(mesh, fhat).T
    factors = fem.tridiag_factor(
        fem.shifted_bands(mesh, theta_weight + tau, np.ones(mesh.n_cells)))
    z = fem.batched_tridiag_solve(factors, rhs)
    val = float(np.sum(np.conj(rhs) * z).real * f.time_grid.period)
    return float(np.sqrt(max(val, 0.0)))
