"""1-D P1 finite elements on a uniform interval mesh.

The mesh encodes the form domain V through its boundary tags: Dirichlet
ends have their node eliminated, Neumann ends keep it (natural condition).
Degrees of freedom are the remaining node values.  All operators act on
the LAST axis so that space-time arrays of shape (nt, ndof) vectorize over
time for free.
"""
from __future__ import annotations

from dataclasses import dataclass
from numbers import Integral

import numpy as np
import scipy.linalg


class MeshError(ValueError):
    """Malformed mesh specification."""


DIRICHLET = "dirichlet"
NEUMANN = "neumann"


@dataclass(frozen=True)
class SpaceMesh:
    x_lo: float
    x_hi: float
    n_cells: int
    bc_left: str = DIRICHLET
    bc_right: str = DIRICHLET

    def __post_init__(self):
        if not isinstance(self.n_cells, Integral) or isinstance(self.n_cells, bool):
            raise MeshError(f"n_cells must be an integer, got {self.n_cells!r}")
        if self.n_cells < 4:
            raise MeshError(f"need n_cells >= 4, got {self.n_cells}")
        if not self.x_hi > self.x_lo:
            raise MeshError("need x_hi > x_lo")
        for bc in (self.bc_left, self.bc_right):
            if bc not in (DIRICHLET, NEUMANN):
                raise MeshError(f"unknown boundary tag {bc!r}")

    @property
    def h(self) -> float:
        return (self.x_hi - self.x_lo) / self.n_cells

    @property
    def nodes(self) -> np.ndarray:
        return np.linspace(self.x_lo, self.x_hi, self.n_cells + 1)

    @property
    def midpoints(self) -> np.ndarray:
        return self.nodes[:-1] + 0.5 * self.h

    @property
    def free_mask(self) -> np.ndarray:
        mask = np.ones(self.n_cells + 1, dtype=bool)
        if self.bc_left == DIRICHLET:
            mask[0] = False
        if self.bc_right == DIRICHLET:
            mask[-1] = False
        return mask

    @property
    def n_dofs(self) -> int:
        return int(self.free_mask.sum())


def embed(mesh: SpaceMesh, u: np.ndarray) -> np.ndarray:
    """Dof array (..., ndof) -> full node array (..., n_cells+1), Dirichlet = 0."""
    full = np.zeros(u.shape[:-1] + (mesh.n_cells + 1,), dtype=u.dtype)
    full[..., mesh.free_mask] = u
    return full


def restrict(mesh: SpaceMesh, full: np.ndarray) -> np.ndarray:
    return full[..., mesh.free_mask]


def gradient(mesh: SpaceMesh, u: np.ndarray) -> np.ndarray:
    """Cell-wise gradient of a dof array, shape (..., n_cells)."""
    full = embed(mesh, u)
    return np.diff(full, axis=-1) / mesh.h


def gradient_adjoint(mesh: SpaceMesh, w: np.ndarray) -> np.ndarray:
    """Adjoint of `gradient` against the cell quadrature h*sum: returns the
    dof vector representing v -> sum_c h * w_c * conj(grad v)_c."""
    full = np.zeros(w.shape[:-1] + (mesh.n_cells + 1,), dtype=w.dtype)
    full[..., :-1] -= w
    full[..., 1:] += w
    return restrict(mesh, full)


def stiffness_apply(mesh: SpaceMesh, a_cells: np.ndarray, u: np.ndarray) -> np.ndarray:
    """K(a) u with per-cell coefficient a_cells, broadcast against u.

    a_cells: (n_cells,) or (..., n_cells); u: (..., ndof).
    """
    flux = a_cells * gradient(mesh, u)
    return gradient_adjoint(mesh, flux)


def _free_band(mesh: SpaceMesh, diag: np.ndarray, off: np.ndarray) -> np.ndarray:
    """Lower band (2, ndof) of the free-dof block of a nodal tridiagonal
    matrix with diagonal diag and off-diagonal off.  The free dofs are the
    contiguous nodes first..first+ndof-1, so the block is a slice."""
    first = 1 if mesh.bc_left == DIRICHLET else 0
    nd = mesh.n_dofs
    band = np.zeros((2, nd), dtype=diag.dtype)
    band[0] = diag[first : first + nd]
    band[1, :-1] = off[first : first + nd - 1]
    return band


def mass_banded(mesh: SpaceMesh) -> np.ndarray:
    """P1 mass matrix in lower banded form (2, ndof) for solveh_banded."""
    n_nodes = mesh.n_cells + 1
    h = mesh.h
    diag = np.full(n_nodes, 2 * h / 3)
    diag[0] = diag[-1] = h / 3
    return _free_band(mesh, diag, np.full(n_nodes - 1, h / 6))


def tridiag_dense(band_lower: np.ndarray) -> np.ndarray:
    """Lower banded (2, n) symmetric tridiagonal -> dense matrix."""
    d, sub = band_lower[0], band_lower[1, :-1]
    return np.diag(d) + np.diag(sub, -1) + np.diag(sub, 1)


def tridiag_apply(band_lower: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Lower banded (2, n) symmetric tridiagonal matrix times u on the last axis."""
    d, sub = band_lower[0], band_lower[1, :-1]
    out = d * u
    out[..., :-1] += sub * u[..., 1:]
    out[..., 1:] += sub * u[..., :-1]
    return out


def stiffness_banded(mesh: SpaceMesh, a_cells: np.ndarray) -> np.ndarray:
    """Stiffness matrix with cell coefficients in lower banded form (2, ndof)."""
    a = np.asarray(a_cells, dtype=complex if np.iscomplexobj(a_cells) else float)
    h = mesh.h
    n_nodes = mesh.n_cells + 1
    diag = np.zeros(n_nodes, dtype=a.dtype)
    diag[:-1] += a / h
    diag[1:] += a / h
    return _free_band(mesh, diag, -a / h)


def shifted_bands(mesh: SpaceMesh, z: np.ndarray, a_cells: np.ndarray) -> np.ndarray:
    """Lower bands (2, len(z), ndof) of z_k M + K(a) for a batch of shifts z,
    laid out for `batched_tridiag_solve`."""
    z = np.asarray(z)[:, None]
    return z * mass_banded(mesh)[:, None] + stiffness_banded(mesh, a_cells)[:, None]


def mass_apply(mesh: SpaceMesh, u: np.ndarray) -> np.ndarray:
    """M u on the last axis (P1 consistent mass, free dofs)."""
    return tridiag_apply(_mass_band_cached(mesh), u)


_MASS_CACHE: dict[SpaceMesh, np.ndarray] = {}


def _mass_band_cached(mesh: SpaceMesh) -> np.ndarray:
    band = _MASS_CACHE.get(mesh)
    if band is None:
        band = mass_banded(mesh)
        _MASS_CACHE[mesh] = band
    return band


def mass_solve(mesh: SpaceMesh, rhs: np.ndarray) -> np.ndarray:
    """M^{-1} rhs on the last axis."""
    band = _mass_band_cached(mesh)
    flat = rhs.reshape(-1, rhs.shape[-1])
    out = scipy.linalg.solveh_banded(band, flat.T, lower=True).T
    return out.reshape(rhs.shape)


def h_inner(mesh: SpaceMesh, u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """L2(Omega) inner product (u | v) on the last axis, conjugating v."""
    return np.sum(mass_apply(mesh, u) * np.conj(v), axis=-1)


def grad_sq(mesh: SpaceMesh, u: np.ndarray) -> np.ndarray:
    """|| grad u ||_{L2}^2 on the last axis."""
    g = gradient(mesh, u)
    return mesh.h * np.sum(np.abs(g) ** 2, axis=-1)


def laplace_eigenpairs(mesh: SpaceMesh, a_cells: np.ndarray | None = None):
    """Generalized eigenpairs K(a) phi = mu M phi on the dof space.

    Returns (mu, Phi) with M-orthonormal columns.
    """
    if a_cells is None:
        a_cells = np.ones(mesh.n_cells)
    K = tridiag_dense(stiffness_banded(mesh, np.real(a_cells)))
    M = tridiag_dense(mass_banded(mesh))
    mu, Phi = scipy.linalg.eigh(K, M)
    return mu, Phi


def batched_tridiag_solve(band: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve a batch of symmetric tridiagonal systems by the Thomas algorithm.

    band: lower bands (2, ..., n), the layout of `mass_banded` and
    `shifted_bands` (band[1, ..., -1] ignored); rhs: (..., n).  No pivoting;
    intended for shifted mass+stiffness matrices whose real part is positive
    definite.
    """
    diag, off = band[0], band[1]
    n = diag.shape[-1]
    c = np.empty_like(diag)
    d = np.empty_like(rhs)
    c[..., 0] = off[..., 0] / diag[..., 0]
    d[..., 0] = rhs[..., 0] / diag[..., 0]
    for k in range(1, n):
        denom = diag[..., k] - off[..., k - 1] * c[..., k - 1]
        c[..., k] = off[..., k] / denom if k < n - 1 else 0.0
        d[..., k] = (rhs[..., k] - off[..., k - 1] * d[..., k - 1]) / denom
    x = np.empty_like(rhs)
    x[..., -1] = d[..., -1]
    for k in range(n - 2, -1, -1):
        x[..., k] = d[..., k] - c[..., k] * x[..., k + 1]
    return x
