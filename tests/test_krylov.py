"""Right-preconditioned restarted GMRES: solutions, residuals, counts and
memory of the in-repo Krylov loop."""
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from maxreg.krylov import LinearOperator, gmres


def near_identity(n, seed):
    """I + E with ||E||_2 = 0.3 and a diagonal D in [1, 1.3]: the symmetric
    part of (I + E) D is positive definite, so GMRES(m) converges for every
    m >= 1 (Eisenstat, Elman & Schultz 1983)."""
    rng = np.random.default_rng(seed)
    E = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    A = np.eye(n) + 0.3 * E / np.linalg.norm(E, 2)
    d = rng.uniform(1.0, 1.3, n)
    b = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    return A, d, b


class Counting(LinearOperator):
    """An operator that counts its applications."""

    def __init__(self, matvec, n):
        self.calls = 0

        def counted(v):
            self.calls += 1
            return matvec(v)

        super().__init__((n, n), matvec=counted, dtype=complex)


def identity(n):
    """The identity as a counting right preconditioner."""
    return Counting(lambda v: v, n)


def spread_diagonal(n):
    """A diagonal operator with eigenvalues spread over [1, 100]: restarted
    GMRES needs many cycles on it."""
    d = np.linspace(1.0, 100.0, n)
    return Counting(lambda v: d * v, n), d


class TestGmres:
    @given(st.integers(1, 40), st.integers(1, 8), st.sampled_from([1e-6, 1e-10]),
           st.integers(0, 2**31 - 1))
    @settings(max_examples=80, deadline=None)
    def test_matches_dense_solve(self, n, restart, rtol, seed):
        A, d, b = near_identity(n, seed)
        Aop = Counting(lambda v: A @ v, n)
        M = Counting(lambda v: d * v, n)
        history = []
        x, info = gmres(Aop, b, M=M, rtol=rtol, restart=restart, maxiter=1000,
                        callback=history.append)
        exact = np.linalg.solve(A, b)
        assert info == 0
        assert np.linalg.norm(x - exact) <= 10 * rtol * np.linalg.norm(exact)
        # the final true residual: the restart residuals come from the Arnoldi
        # relation, not from b - A x, so this bounds their drift
        assert np.linalg.norm(b - A @ x) <= 10 * rtol * np.linalg.norm(b)
        # one callback per matvec, and one more preconditioner solve per cycle
        assert Aop.calls == len(history) > 0
        cycles = math.ceil(len(history) / min(restart, n))
        assert M.calls == len(history) + cycles
        assert history[-1] <= rtol

    def test_many_restarts_keep_the_true_residual(self):
        # 2-vector cycles on a spread spectrum: dozens of restarts, each from
        # the Arnoldi relation
        Aop, d = spread_diagonal(200)
        b = np.random.default_rng(1).standard_normal(200) + 0j
        history = []
        x, info = gmres(Aop, b, M=identity(200), rtol=1e-10, restart=2, maxiter=100_000,
                        callback=history.append)
        assert info == 0
        assert len(history) > 50
        assert np.linalg.norm(b - d * x) <= 10 * 1e-10 * np.linalg.norm(b)

    def test_info_is_maxiter_when_cycles_run_out(self):
        Aop, d = spread_diagonal(100)
        b = np.ones(100, dtype=complex)
        history = []
        x, info = gmres(Aop, b, M=identity(100), rtol=1e-12, restart=3, maxiter=4,
                        callback=history.append)
        assert info == 4
        assert len(history) == Aop.calls == 12
        # the estimate each callback received is the true residual of x
        assert np.isclose(history[-1], np.linalg.norm(b - d * x) / np.linalg.norm(b),
                          rtol=1e-8)

    def test_zero_rhs_gives_zero_without_a_matvec(self):
        Aop, _ = spread_diagonal(10)
        x, info = gmres(Aop, np.zeros(10, dtype=complex), M=identity(10), rtol=1e-10,
                        restart=4, maxiter=5, callback=[].append)
        assert info == 0 and not x.any() and Aop.calls == 0

    def test_happy_breakdown_is_exact(self):
        # b = e_1 is an eigenvector: the Krylov space closes after one step
        Aop, _ = spread_diagonal(10)
        b = np.zeros(10, dtype=complex)
        b[0] = 2.0
        x, info = gmres(Aop, b, M=identity(10), rtol=0.0, restart=4, maxiter=5,
                        callback=[].append)
        assert info == 0 and Aop.calls == 1
        assert np.array_equal(x, b)

    def test_breakdown_below_the_rounding_floor_restarts(self):
        # b = 0.3 e_1 is an eigenvector of eigenvalue 1/3: the first iteration
        # breaks down, and rounding leaves a residual above rtol = 0, so the
        # loop restarts from it instead of reporting spent cycles
        d = np.array([1 / 3, 2.0, 3.0, 4.0])
        Aop, M = Counting(lambda v: d * v, 4), identity(4)
        b = np.array([0.3, 0, 0, 0], dtype=complex)
        history = []
        x, info = gmres(Aop, b, M=M, rtol=0.0, restart=4, maxiter=3, callback=history.append)
        assert history[0] == 0.0 and Aop.calls > 1
        assert len(history) == Aop.calls
        # info = maxiter only when every cycle ran, each with one more
        # preconditioner solve than matvecs
        assert info == 0 or M.calls == Aop.calls + 3
        assert np.linalg.norm(b - d * x) <= 4 * np.finfo(float).eps * np.linalg.norm(b)

    @pytest.mark.parametrize("restart", [2, 6])
    def test_basis_holds_restart_plus_one_vectors(self, restart):
        # five cycles; the basis, x and either a matvec's output or one
        # combination of basis vectors are all the loop holds at once (the
        # test operator's product adds a ufunc cast buffer)
        n = 2**15
        Aop, _ = spread_diagonal(n)
        M = identity(n)
        b = np.random.default_rng(2).standard_normal(n) + 0j
        gmres(Aop, b, M=M, rtol=1e-14, restart=restart, maxiter=1, callback=[].append)
        tracemalloc.start()
        try:
            _, info = gmres(Aop, b, M=M, rtol=1e-14, restart=restart, maxiter=5,
                            callback=[].append)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert info == 5
        assert peak <= (restart + 1 + 2) * b.nbytes + 2**18

    def test_rejects_empty_cycles(self):
        Aop, _ = spread_diagonal(4)
        with pytest.raises(ValueError):
            gmres(Aop, np.ones(4, dtype=complex), M=identity(4), rtol=1e-10, restart=0,
                  maxiter=5, callback=[].append)
