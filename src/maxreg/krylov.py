"""Restarted GMRES for the line solve (Saad-Schultz 1986; Saad, Iterative
Methods for Sparse Linear Systems, 2003, section 9.3).

Right-preconditioned GMRES(restart) on complex128 vectors: it solves
A M y = b and returns x = M y, so the residual it estimates and stops on is
that of A x = b itself.  Arnoldi runs modified Gram-Schmidt on BLAS level-1
calls, one `zdotc` and one in-place `zaxpy` per projection, and writes each
normalised vector straight into a preallocated basis of restart + 1 rows.
Givens rotations reduce the Hessenberg matrix H, and a new vector shorter
than eps times the vector it came from is a happy breakdown.  A restart
costs no matvec: the new residual is the combination V_{k+1} (beta e_1 - H y)
of stored vectors, by the Arnoldi relation.
"""
from __future__ import annotations

import numpy as np
from scipy.linalg import solve_triangular
from scipy.linalg.blas import zaxpy, zdotc
from scipy.linalg.lapack import zlartg


class LinearOperator:
    """A square operator known by its action `matvec`."""

    def __init__(self, shape, matvec, dtype):
        self.shape = tuple(shape)
        self.matvec = matvec
        self.dtype = np.dtype(dtype)


def _norm(v) -> float:
    return float(np.sqrt(zdotc(v, v).real))


def gmres(A, b, *, M, rtol, restart, maxiter, callback):
    """(x, info) with ||b - A x|| <= rtol ||b|| and info = 0, or
    info = maxiter once maxiter restart cycles have run out.

    A.matvec must return a new array: the loop orthogonalises it in place.
    callback(||r|| / ||b||) runs once per iteration, that is once per matvec,
    with the Arnoldi estimate of the unpreconditioned residual.  A cycle of k
    iterations costs k matvecs and k + 1 preconditioner solves, the last one
    for the update x += M (V_k y).  A happy breakdown ends its cycle early,
    and the next cycle restarts from the residual left, if that is above the
    tolerance.  The restart residual drifts from b - A x by rounding, so
    below the rounding floor of the system info = 0 does not guarantee the
    true residual: a caller that needs it measures it."""
    if restart < 1 or maxiter < 1:
        raise ValueError("restart and maxiter must be at least 1")
    precond = M.matvec
    b = np.asarray(b, dtype=complex)
    x = np.zeros_like(b)
    beta = b_norm = _norm(b)
    if b_norm == 0.0:
        return x, 0
    tol = rtol * b_norm
    eps = np.finfo(float).eps
    restart = min(restart, b.size)
    # zeros: a breakdown leaves its row unwritten, and the zero it puts in H
    # then multiplies zeros or an old basis vector, never uninitialised memory
    V = np.zeros((restart + 1, b.size), dtype=complex)
    H = np.zeros((restart + 1, restart), dtype=complex)   # A M V_k = V_{k+1} H
    R = np.zeros((restart, restart), dtype=complex)       # H after the rotations
    rotations = np.zeros((restart, 2), dtype=complex)
    np.multiply(b, 1.0 / beta, out=V[0])
    for _ in range(maxiter):
        g = np.zeros(restart + 1, dtype=complex)
        g[0] = beta
        for k in range(restart):
            w = A.matvec(precond(V[k]))
            w_norm = _norm(w)
            for i in range(k + 1):
                H[i, k] = h = zdotc(V[i], w)
                w = zaxpy(V[i], w, a=-h)
            H[k + 1, k] = h = _norm(w)
            breakdown = h <= eps * w_norm
            if breakdown:
                # A M V_k lies in V_k: x is exact on this space
                H[k + 1, k] = 0.0
            else:
                np.multiply(w, 1.0 / h, out=V[k + 1])
            del w       # free it before the next matvec allocates its output
            col = H[: k + 2, k].copy()
            for i, (c, s) in enumerate(rotations[:k]):
                top, bottom = col[i], col[i + 1]
                col[i], col[i + 1] = c * top + s * bottom, c * bottom - np.conj(s) * top
            c, s, R[k, k] = zlartg(col[k], col[k + 1])
            R[:k, k] = col[:k]
            rotations[k] = c, s
            g[k], g[k + 1] = c * g[k], -np.conj(s) * g[k]
            callback(abs(g[k + 1]) / b_norm)
            if abs(g[k + 1]) <= tol or breakdown:
                break
        k += 1
        # the least-squares solution, its update of x, and the residual
        # b - A x = V_{k+1} (beta e_1 - H y) of the Arnoldi relation
        y = solve_triangular(R[:k, :k], g[:k])
        x += precond(y @ V[:k])
        coef = -(H[: k + 1, :k] @ y)
        coef[0] += beta
        r = coef @ V[: k + 1]
        beta = _norm(r)
        if beta <= tol:
            break
        np.multiply(r, 1.0 / beta, out=V[0])
        del r           # V[0] holds it now
    return x, 0 if beta <= tol else maxiter
