"""P1 finite elements on the uniform 1-D mesh."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import solve_banded

from maxreg.fem import (
    MeshError,
    SpaceMesh,
    batched_tridiag_solve,
    grad_sq,
    gradient,
    gradient_adjoint,
    h_inner,
    laplace_eigenpairs,
    mass_apply,
    mass_banded,
    mass_solve,
    shifted_bands,
    stiffness_apply,
    stiffness_banded,
    tridiag_apply,
    tridiag_dense,
)

BCS = st.sampled_from(["dirichlet", "neumann"])


def loop_band(mesh, diag, off):
    """Free-dof restriction as a per-row loop: the reference for the slice."""
    mask = mesh.free_mask
    idx = np.where(mask)[0]
    nd = len(idx)
    band = np.zeros((2, nd), dtype=diag.dtype)
    band[0] = diag[mask]
    for k in range(nd - 1):
        if idx[k + 1] == idx[k] + 1:
            band[1, k] = off[idx[k]]
    return band


def loop_mass_banded(mesh):
    n_nodes = mesh.n_cells + 1
    h = mesh.h
    diag = np.full(n_nodes, 2 * h / 3)
    diag[0] = diag[-1] = h / 3
    return loop_band(mesh, diag, np.full(n_nodes - 1, h / 6))


def loop_stiffness_banded(mesh, a_cells):
    a = np.asarray(a_cells, dtype=complex if np.iscomplexobj(a_cells) else float)
    h = mesh.h
    diag = np.zeros(mesh.n_cells + 1, dtype=a.dtype)
    diag[:-1] += a / h
    diag[1:] += a / h
    return loop_band(mesh, diag, -a / h)


def same_bits(x, y):
    return x.dtype == y.dtype and x.shape == y.shape and x.tobytes() == y.tobytes()


class TestSpaceMesh:
    def test_rejects_tiny_mesh(self):
        with pytest.raises(MeshError):
            SpaceMesh(0.0, 1.0, 2)

    def test_rejects_bad_bc(self):
        with pytest.raises(MeshError):
            SpaceMesh(0.0, 1.0, 16, "periodic", "dirichlet")

    def test_dof_counts(self):
        assert SpaceMesh(0.0, 1.0, 16).n_dofs == 15                       # both Dirichlet
        assert SpaceMesh(0.0, 1.0, 16, "neumann", "dirichlet").n_dofs == 16
        assert SpaceMesh(0.0, 1.0, 16, "neumann", "neumann").n_dofs == 17

    def test_midpoints(self):
        m = SpaceMesh(0.0, 1.0, 4)
        assert np.allclose(m.midpoints, [0.125, 0.375, 0.625, 0.875])


class TestMassMatrix:
    def test_total_mass(self):
        # int of 1 against 1 over [0,1] with Neumann bcs is 1
        m = SpaceMesh(0.0, 1.0, 32, "neumann", "neumann")
        one = np.ones(m.n_dofs)
        assert abs(one @ mass_apply(m, one) - 1.0) <= 1e-14

    def test_mass_solve_round_trip(self):
        m = SpaceMesh(0.0, 1.0, 32)
        rng = np.random.default_rng(0)
        u = rng.standard_normal(m.n_dofs)
        assert np.abs(mass_solve(m, mass_apply(m, u)) - u).max() <= 1e-12

    def test_banded_matches_apply(self):
        m = SpaceMesh(0.0, 1.0, 16, "neumann", "dirichlet")
        dense = tridiag_dense(mass_banded(m))
        rng = np.random.default_rng(1)
        u = rng.standard_normal(m.n_dofs)
        assert np.abs(dense @ u - mass_apply(m, u)).max() <= 1e-14


class TestBandBuilders:
    @given(st.integers(4, 40), BCS, BCS, st.booleans(), st.integers(0, 2**31 - 1))
    @settings(max_examples=60, deadline=None)
    def test_match_loop_reference(self, n_cells, bc_left, bc_right, complex_a, seed):
        m = SpaceMesh(0.0, 1.5, n_cells, bc_left, bc_right)
        rng = np.random.default_rng(seed)
        a = 0.5 + rng.random(n_cells)
        if complex_a:
            a = a + 1j * rng.standard_normal(n_cells)
        assert same_bits(mass_banded(m), loop_mass_banded(m))
        assert same_bits(stiffness_banded(m, a), loop_stiffness_banded(m, a))

    @given(st.integers(4, 40), BCS, BCS, st.booleans(), st.integers(0, 2**31 - 1))
    @settings(max_examples=60, deadline=None)
    def test_tridiag_apply_matches_dense(self, n_cells, bc_left, bc_right, batched, seed):
        m = SpaceMesh(0.0, 1.0, n_cells, bc_left, bc_right)
        rng = np.random.default_rng(seed)
        a = 0.5 + rng.random(n_cells) + 1j * rng.standard_normal(n_cells)
        band = stiffness_banded(m, a)
        shape = (3, m.n_dofs) if batched else (m.n_dofs,)
        u = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        ref = (tridiag_dense(band) @ u.T).T
        assert np.abs(tridiag_apply(band, u) - ref).max() <= 1e-13 * np.abs(ref).max()

    @given(BCS, BCS, st.booleans(), st.integers(0, 2**31 - 1))
    @settings(max_examples=20, deadline=None)
    def test_shifted_bands_match_per_shift_formula(self, bc_left, bc_right, complex_z, seed):
        m = SpaceMesh(0.0, 1.0, 12, bc_left, bc_right)
        rng = np.random.default_rng(seed)
        a = 0.5 + rng.random(m.n_cells)
        z = 1.0 + rng.random(5)
        if complex_z:
            z = z + 1j * rng.standard_normal(5)
        band = shifted_bands(m, z, a)
        mband, kband = mass_banded(m), stiffness_banded(m, a)
        assert band.shape == (2, 5, m.n_dofs)
        for k in range(5):
            assert same_bits(band[:, k], z[k] * mband + kband)


class TestStiffness:
    def test_linear_function_in_kernel_neumann(self):
        # with a = 1 and Neumann bcs, K applied to a constant is zero
        m = SpaceMesh(0.0, 1.0, 32, "neumann", "neumann")
        c = np.ones(m.n_dofs)
        assert np.abs(stiffness_apply(m, np.ones(m.n_cells), c)).max() <= 1e-13

    def test_quadratic_form_is_weighted_h1_seminorm(self):
        m = SpaceMesh(0.0, 1.0, 64)
        rng = np.random.default_rng(2)
        u = rng.standard_normal(m.n_dofs)
        a = 1.0 + rng.random(m.n_cells)
        lhs = u @ stiffness_apply(m, a, u)
        gu = gradient(m, u)
        assert abs(lhs - m.h * np.sum(a * gu**2)) <= 1e-12 * abs(lhs)

    def test_gradient_adjoint_flux_pairing(self):
        m = SpaceMesh(0.0, 1.0, 32)
        rng = np.random.default_rng(3)
        v = rng.standard_normal(m.n_dofs)
        w = rng.standard_normal(m.n_cells)
        lhs = m.h * np.sum(w * gradient(m, v))
        rhs = v @ gradient_adjoint(m, w)
        assert abs(lhs - rhs) <= 1e-13

    def test_banded_matches_apply(self):
        m = SpaceMesh(0.0, 1.0, 16)
        a = 1.0 + np.linspace(0, 1, m.n_cells)
        dense = tridiag_dense(stiffness_banded(m, a))
        rng = np.random.default_rng(4)
        u = rng.standard_normal(m.n_dofs)
        assert np.abs(dense @ u - stiffness_apply(m, a, u)).max() <= 1e-13


class TestEigenpairs:
    def test_dirichlet_laplacian_spectrum(self):
        # continuum eigenvalues (k pi)^2 on (0,1); P1 converges O(h^2)
        m = SpaceMesh(0.0, 1.0, 128)
        mu, _ = laplace_eigenpairs(m, np.ones(m.n_cells))
        for k in (1, 2, 3):
            exact = (k * np.pi) ** 2
            assert abs(mu[k - 1] - exact) <= 5e-3 * exact

    def test_m_orthonormal(self):
        m = SpaceMesh(0.0, 1.0, 32)
        _, Phi = laplace_eigenpairs(m, np.ones(m.n_cells))
        G = Phi.T @ np.column_stack([mass_apply(m, Phi[:, j]) for j in range(Phi.shape[1])])
        assert np.abs(G - np.eye(Phi.shape[1])).max() <= 1e-10

    def test_h_inner_consistent_with_mass(self):
        m = SpaceMesh(0.0, 1.0, 32)
        rng = np.random.default_rng(5)
        u = rng.standard_normal(m.n_dofs) + 1j * rng.standard_normal(m.n_dofs)
        assert abs(h_inner(m, u, u) - np.vdot(mass_apply(m, u), u).conjugate()) <= 1e-12

    def test_grad_sq_nonnegative(self):
        m = SpaceMesh(0.0, 1.0, 32)
        rng = np.random.default_rng(6)
        u = rng.standard_normal(m.n_dofs) + 1j * rng.standard_normal(m.n_dofs)
        assert grad_sq(m, u) >= 0.0


class TestBatchedTridiag:
    def test_matches_scipy_per_system(self):
        m = SpaceMesh(0.0, 1.0, 32)
        a = 1.0 + np.linspace(0, 1, m.n_cells)
        rng = np.random.default_rng(7)
        shifts = 1.0 + 1j * np.array([0.0, 5.0, -40.0])
        ndof = m.n_dofs
        rhs = rng.standard_normal((3, ndof)) + 1j * rng.standard_normal((3, ndof))
        # symmetric tridiagonal (z M + K) per shift, as lower bands
        band = shifted_bands(m, shifts, a)
        got = batched_tridiag_solve(band, rhs)
        for i in range(3):
            diag, off = band[:, i]
            ab = np.zeros((3, ndof), dtype=complex)
            ab[1] = diag
            ab[0, 1:] = off[:-1]
            ab[2, :-1] = off[:-1]
            ref = solve_banded((1, 1), ab, rhs[i])
            assert np.abs(got[i] - ref).max() <= 1e-11 * max(np.abs(ref).max(), 1.0)
