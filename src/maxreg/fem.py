"""1-D P1 finite elements on a uniform interval mesh.

The mesh encodes the form domain V through its boundary tags: Dirichlet
ends have their node eliminated, Neumann ends keep it (natural condition).
Degrees of freedom are the remaining node values.  All operators act on
the LAST axis so that space-time arrays of shape (nt, ndof) vectorize over
time for free; they keep the memory order of their input, so a
time-contiguous (Fortran-ordered) (nt, ndof) view stays time-contiguous.
The one exception is the batched tridiagonal factor and solve
(`shifted_bands`, `tridiag_factor`, `batched_tridiag_solve`): they act on
axis 0, so that a batch of one system per time mode is held as (ndof, nt)
and every step of the sweep is a contiguous row.  `stiffness_apply` works
through the dofs in blocks of `BLOCK_SAMPLES` samples, which a
time-contiguous field holds contiguously, and may write its result in place.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from numbers import Integral

import numpy as np
import scipy.linalg


class MeshError(ValueError):
    """Malformed mesh specification."""


DIRICHLET = "dirichlet"
NEUMANN = "neumann"

# Samples per block of dofs in `stiffness_apply` and the line solver's matvec:
# a block of (n_t, rows) complex samples takes 256 KiB, which stays in a core's
# L2 cache while the block's dozen passes run over it.
BLOCK_SAMPLES = 2**14


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
            raise MeshError(f"need x_hi > x_lo = {self.x_lo!r}, got {self.x_hi!r}")
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

    @property
    def free_slice(self) -> slice:
        """The free dofs are the contiguous nodes first..first+ndof-1."""
        first = 1 if self.bc_left == DIRICHLET else 0
        return slice(first, first + self.n_dofs)


def _node_zeros(mesh: SpaceMesh, like: np.ndarray) -> np.ndarray:
    """Zero node array (..., n_cells+1) in the memory order of `like`, so
    that a time-contiguous (Fortran-ordered) field stays time-contiguous."""
    order = "F" if like.ndim > 1 and like.flags.f_contiguous else "C"
    return np.zeros(like.shape[:-1] + (mesh.n_cells + 1,), dtype=like.dtype, order=order)


def embed(mesh: SpaceMesh, u: np.ndarray) -> np.ndarray:
    """Dof array (..., ndof) -> full node array (..., n_cells+1), Dirichlet = 0."""
    full = _node_zeros(mesh, u)
    full[..., mesh.free_slice] = u
    return full


def restrict(mesh: SpaceMesh, full: np.ndarray) -> np.ndarray:
    """Free-dof view (..., ndof) of a full node array."""
    return full[..., mesh.free_slice]


def gradient(mesh: SpaceMesh, u: np.ndarray) -> np.ndarray:
    """Cell-wise gradient of a dof array, shape (..., n_cells)."""
    full = embed(mesh, u)
    return np.diff(full, axis=-1) / mesh.h


def gradient_adjoint(mesh: SpaceMesh, w: np.ndarray) -> np.ndarray:
    """Adjoint of `gradient` against the cell quadrature h*sum: returns the
    dof vector representing v -> sum_c h * w_c * conj(grad v)_c."""
    full = _node_zeros(mesh, w)
    full[..., :-1] -= w
    full[..., 1:] += w
    return restrict(mesh, full)


def stiffness_apply(mesh: SpaceMesh, a_cells: np.ndarray, u: np.ndarray, *,
                    out: np.ndarray | None = None) -> np.ndarray:
    """K(a) u with per-cell coefficient a_cells, broadcast against u.

    a_cells: (n_cells,) or (..., n_cells); u: (..., ndof).  The result lands
    in `out`, which may be `u` itself, or in a new array in u's memory order.

    The dofs are worked through in blocks of `BLOCK_SAMPLES` samples, left to
    right, so that a block of a time-contiguous (Fortran-ordered) field stays
    in cache: node p gets (-flux_p) + flux_{p-1}, with flux_c =
    a_c ((u_{c+1} - u_c)/h), the operations and order of gradient, a times
    gradient and `gradient_adjoint`.  The flux of the cell left of a block is
    carried over from the block before, so a block reads u only up to its
    right neighbour, which is not yet overwritten."""
    lead = np.broadcast_shapes(np.shape(a_cells)[:-1], u.shape[:-1])
    nd = u.shape[-1]
    dtype = np.result_type(a_cells, u, mesh.h)
    order = "F" if u.ndim > 1 and u.flags.f_contiguous else "C"
    if out is None:
        out = np.empty(lead + (nd,), dtype=dtype, order=order)
    h, first, n_cells = mesh.h, mesh.free_slice.start, mesh.n_cells
    rows = max(1, BLOCK_SAMPLES // max(1, math.prod(lead)))
    # flux[..., 0] is the flux entering a block from the left, flux[..., 1 + i]
    # the flux leaving its node i to the right; a missing cell has flux 0
    flux = np.zeros(lead + (rows + 1,), dtype=dtype, order=order)
    if first:       # Dirichlet left end: cell 0 joins the eliminated node to dof 0
        np.divide(u[..., 0], h, out=flux[..., 0])
        np.multiply(a_cells[..., 0], flux[..., 0], out=flux[..., 0])
    for j0 in range(0, nd, rows):
        j1 = min(j0 + rows, nd)
        k = j1 - j0
        inner = min(j1, nd - 1) - j0        # nodes whose right neighbour is a dof
        np.subtract(u[..., j0 + 1 : j0 + 1 + inner], u[..., j0 : j0 + inner],
                    out=flux[..., 1 : 1 + inner])
        if inner < k:                       # the last dof
            if mesh.bc_right == DIRICHLET:
                np.subtract(0.0, u[..., nd - 1], out=flux[..., k])
            else:                           # Neumann right end: no cell
                flux[..., k] = 0.0
        cells = min(k, n_cells - first - j0)
        right = flux[..., 1 : 1 + cells]
        np.divide(right, h, out=right)
        np.multiply(a_cells[..., first + j0 : first + j0 + cells], right, out=right)
        block = out[..., j0:j1]
        np.subtract(0.0, flux[..., 1 : 1 + k], out=block)
        block += flux[..., :k]
        flux[..., 0] = flux[..., k]
    return out


def _free_band(mesh: SpaceMesh, diag: np.ndarray, off: np.ndarray) -> np.ndarray:
    """Lower band (2, ..., ndof) of the free-dof block of nodal tridiagonal
    matrices with diagonals diag (..., n_nodes) and off-diagonals off.  The
    free dofs are the contiguous nodes `mesh.free_slice`, so the block is a
    slice."""
    free = mesh.free_slice
    band = np.zeros((2,) + diag.shape[:-1] + (mesh.n_dofs,), dtype=diag.dtype)
    band[0] = diag[..., free]
    band[1, ..., :-1] = off[..., free.start : free.stop - 1]
    return band


def mass_banded(mesh: SpaceMesh) -> np.ndarray:
    """P1 mass matrix in lower banded form (2, ndof)."""
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
    """Stiffness matrices with cell coefficients a_cells (..., n_cells) in
    lower banded form (2, ..., ndof)."""
    a = np.asarray(a_cells, dtype=complex if np.iscomplexobj(a_cells) else float)
    h = mesh.h
    n_nodes = mesh.n_cells + 1
    diag = np.zeros(a.shape[:-1] + (n_nodes,), dtype=a.dtype)
    diag[..., :-1] += a / h
    diag[..., 1:] += a / h
    return _free_band(mesh, diag, -a / h)


def shifted_bands(mesh: SpaceMesh, z: np.ndarray, a_cells: np.ndarray) -> np.ndarray:
    """Lower bands (2, ndof, len(z)) of z_k M + K(a) for a batch of shifts z,
    laid out for `tridiag_factor`."""
    band = np.asarray(z) * mass_banded(mesh)[:, :, None]
    band += stiffness_banded(mesh, a_cells)[:, :, None]
    return band


def mass_apply(mesh: SpaceMesh, u: np.ndarray) -> np.ndarray:
    """M u on the last axis (P1 consistent mass, free dofs)."""
    return tridiag_apply(_mass_band_cached(mesh), u)


@functools.cache
def _mass_band_cached(mesh: SpaceMesh) -> np.ndarray:
    return mass_banded(mesh)


@functools.cache
def _mass_factors(mesh: SpaceMesh) -> np.ndarray:
    return tridiag_factor(_mass_band_cached(mesh).copy())


def mass_solve(mesh: SpaceMesh, rhs: np.ndarray) -> np.ndarray:
    """M^{-1} rhs on the last axis, by the sweep of `batched_tridiag_solve`
    on the cached LDL^T factors of M."""
    return np.moveaxis(_sweep(_mass_factors(mesh), np.moveaxis(rhs, -1, 0)), 0, -1)


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


def tridiag_factor(band: np.ndarray) -> np.ndarray:
    """Overwrite lower bands (2, n, ...) of symmetric tridiagonal matrices
    with their LDL^T factors and return them: band[0] becomes 1/D and
    band[1, k] the multiplier off_k / D_k (band[1, -1] is ignored).

    No pivoting; intended for shifted mass+stiffness matrices whose real
    part is positive definite.
    """
    inv_d, mult = band[0], band[1]
    for k in range(band.shape[1] - 1):
        inv_d[k] = 1.0 / inv_d[k]
        m = mult[k] * inv_d[k]
        inv_d[k + 1] -= m * mult[k]
        mult[k] = m
    inv_d[-1] = 1.0 / inv_d[-1]
    return band


def batched_tridiag_solve(factors: np.ndarray, rhs: np.ndarray, *,
                          out: np.ndarray | None = None) -> np.ndarray:
    """Solve the systems factored by `tridiag_factor` for rhs (n, ...),
    one system per trailing index: two bidiagonal sweeps along axis 0 and
    a diagonal scaling.  The solution lands in `out`, which may be `rhs`
    itself, or in a new C-ordered array."""
    return _sweep(factors, rhs, out)


def _sweep(factors: np.ndarray, rhs: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """The solve of `batched_tridiag_solve`, shared with `mass_solve` under a
    private name so that bench/tracing.py counts the mode-batched solves
    only.  factors (2, n, ...) broadcast against rhs (n, ...)."""
    pad = (1,) * (rhs.ndim + 1 - factors.ndim)
    inv_d, mult = factors.reshape(factors.shape + pad)
    if out is None:
        y = np.array(rhs, dtype=np.result_type(factors, rhs), order="C")
    else:
        y = out
        np.copyto(y, rhs)       # a no-op when they are the same memory
    row = np.empty_like(y[0])       # each row update lands here, not in a temporary
    for k in range(y.shape[0] - 1):
        np.multiply(mult[k], y[k], out=row)
        y[k + 1] -= row
    y *= inv_d
    for k in range(y.shape[0] - 2, -1, -1):
        np.multiply(mult[k], y[k + 1], out=row)
        y[k] -= row
    return y
