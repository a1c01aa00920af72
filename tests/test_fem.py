"""P1 finite elements on the uniform 1-D mesh."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import solve_banded

import maxreg.fem as fem
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
    tridiag_factor,
)

BCS = st.sampled_from(["dirichlet", "neumann"])


def stiffness_reference(mesh, a_cells, u):
    """`stiffness_apply` as it was written before it worked through blocks of
    dofs in place: the gradient, a times the gradient, and its adjoint."""
    return gradient_adjoint(mesh, a_cells * gradient(mesh, u))


def sweep_reference(factors, rhs):
    """The sweep of `batched_tridiag_solve` as it was written before its row
    updates went through one preallocated buffer: one temporary per row."""
    pad = (1,) * (rhs.ndim + 1 - factors.ndim)
    inv_d, mult = factors.reshape(factors.shape + pad)
    y = np.array(rhs, dtype=np.result_type(factors, rhs), order="C")
    for k in range(y.shape[0] - 1):
        y[k + 1] -= mult[k] * y[k]
    y *= inv_d
    for k in range(y.shape[0] - 2, -1, -1):
        y[k] -= mult[k] * y[k + 1]
    return y


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
        assert band.shape == (2, m.n_dofs, 5)
        for k in range(5):
            assert same_bits(band[:, :, k], z[k] * mband + kband)


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


    @given(st.integers(4, 40), BCS, BCS, st.sampled_from(["1-D", "C", "F"]),
           st.booleans(), st.booleans(), st.booleans(), st.booleans(),
           st.sampled_from(["one dof", "ragged", "single"]), st.integers(0, 2**31 - 1))
    @settings(max_examples=200, deadline=None)
    def test_blocked_kernel_matches_reference(self, n_cells, bc_left, bc_right, layout,
                                              per_slice, complex_a, complex_u, in_place,
                                              blocks, seed):
        # bitwise equal for a real coefficient; a complex one multiplies in a
        # loop that rounds differently, by about one ulp
        m = SpaceMesh(0.0, 1.3, n_cells, bc_left, bc_right)
        rng = np.random.default_rng(seed)
        nd, nt = m.n_dofs, 1 if layout == "1-D" else 5
        shape = (nd,) if layout == "1-D" else (nt, nd)
        u = rng.standard_normal(shape)
        if complex_u or (complex_a and in_place):
            u = u + 1j * rng.standard_normal(shape)
        a = 0.5 + rng.random((nt, n_cells) if per_slice and layout != "1-D" else n_cells)
        if complex_a:
            a = a + 1j * rng.standard_normal(a.shape)
        if layout == "F":
            u, a = np.asfortranarray(u), np.asfortranarray(a)
        rows = {"one dof": 1, "ragged": nd // 2 + 1, "single": nd}[blocks]
        ref = stiffness_reference(m, a, u)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(fem, "BLOCK_SAMPLES", rows * nt)
            got = stiffness_apply(m, a, u, out=u if in_place else None)
        order = "F_CONTIGUOUS" if layout == "F" else "C_CONTIGUOUS"
        assert got is u if in_place else got.flags[order]
        if complex_a:
            assert np.linalg.norm(got - ref) <= 1e-15 * np.linalg.norm(ref)
        else:
            assert got.dtype == ref.dtype and np.array_equal(got, ref)

    def test_kernels_keep_time_contiguous_layout(self):
        # a Fortran-ordered (nt, ndof) view, as the line solver hands over
        m = SpaceMesh(0.0, 1.0, 16, "neumann", "dirichlet")
        rng = np.random.default_rng(9)
        u = (rng.standard_normal((m.n_dofs, 32)) + 1j * rng.standard_normal((m.n_dofs, 32))).T
        a = np.asfortranarray(1.0 + rng.random((32, m.n_cells)))
        uc, ac = np.ascontiguousarray(u), np.ascontiguousarray(a)
        for got, ref in ((stiffness_apply(m, a, u), stiffness_apply(m, ac, uc)),
                         (mass_apply(m, u), mass_apply(m, uc)),
                         (mass_solve(m, u), mass_solve(m, uc))):
            assert got.flags.f_contiguous
            assert np.abs(got - ref).max() <= 1e-14 * np.abs(ref).max()


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
        rhs = rng.standard_normal((ndof, 3)) + 1j * rng.standard_normal((ndof, 3))
        # symmetric tridiagonal (z M + K) per shift, as lower bands
        band = shifted_bands(m, shifts, a)
        got = batched_tridiag_solve(tridiag_factor(band.copy()), rhs)
        for i in range(3):
            diag, off = band[:, :, i]
            ab = np.zeros((3, ndof), dtype=complex)
            ab[1] = diag
            ab[0, 1:] = off[:-1]
            ab[2, :-1] = off[:-1]
            ref = solve_banded((1, 1), ab, rhs[:, i])
            assert np.abs(got[:, i] - ref).max() <= 1e-11 * max(np.abs(ref).max(), 1.0)

    @given(st.integers(4, 24), BCS, BCS, st.integers(1, 8), st.integers(0, 2**31 - 1))
    @settings(max_examples=60, deadline=None)
    def test_factored_solve_matches_dense(self, n_cells, bc_left, bc_right, batch, seed):
        m = SpaceMesh(0.0, 1.0, n_cells, bc_left, bc_right)
        rng = np.random.default_rng(seed)
        a = 0.1 + rng.random(n_cells)
        z = rng.uniform(0.01, 2.0, batch) + 1j * rng.uniform(-50.0, 50.0, batch)
        rhs = rng.standard_normal((m.n_dofs, batch)) + 1j * rng.standard_normal((m.n_dofs, batch))
        got = batched_tridiag_solve(tridiag_factor(shifted_bands(m, z, a)), rhs)
        M, K = tridiag_dense(mass_banded(m)), tridiag_dense(stiffness_banded(m, a))
        for k in range(batch):
            ref = np.linalg.solve(z[k] * M + K, rhs[:, k])
            assert np.abs(got[:, k] - ref).max() <= 1e-12 * np.abs(ref).max()

    @given(st.integers(4, 24), BCS, BCS, st.integers(1, 8), st.integers(0, 2**31 - 1))
    @settings(max_examples=60, deadline=None)
    def test_sweep_bitwise_equal_to_temporaries(self, n_cells, bc_left, bc_right, batch,
                                                seed):
        # the mode-batched solve: one factored system per trailing index
        m = SpaceMesh(0.0, 1.0, n_cells, bc_left, bc_right)
        rng = np.random.default_rng(seed)
        a = 0.1 + rng.random(n_cells)
        z = rng.uniform(0.01, 2.0, batch) + 1j * rng.uniform(-50.0, 50.0, batch)
        factors = tridiag_factor(shifted_bands(m, z, a))
        rhs = rng.standard_normal((m.n_dofs, batch)) + 1j * rng.standard_normal((m.n_dofs, batch))
        got = batched_tridiag_solve(factors, rhs)
        assert np.array_equal(got, sweep_reference(factors, rhs))
        assert got.dtype == np.complex128
        # into another array, and in place: the same solution bit for bit
        out = np.empty_like(rhs)
        assert batched_tridiag_solve(factors, rhs, out=out) is out
        assert np.array_equal(out, got)
        own = rhs.copy()
        assert batched_tridiag_solve(factors, own, out=own) is own
        assert np.array_equal(own, got)

    @given(st.integers(4, 24), BCS, BCS,
           st.sampled_from([(), (5,), (3, 4)]), st.booleans(), st.booleans(),
           st.integers(0, 2**31 - 1))
    @settings(max_examples=60, deadline=None)
    def test_mass_solve_bitwise_equal_to_temporaries(self, n_cells, bc_left, bc_right, lead,
                                                     complex_rhs, fortran, seed):
        # mass_solve broadcasts one factored system over every leading index
        m = SpaceMesh(0.0, 1.0, n_cells, bc_left, bc_right)
        rng = np.random.default_rng(seed)
        rhs = rng.standard_normal(lead + (m.n_dofs,))
        if complex_rhs:
            rhs = rhs + 1j * rng.standard_normal(rhs.shape)
        if fortran:
            rhs = np.asfortranarray(rhs)
        factors = tridiag_factor(mass_banded(m))
        ref = np.moveaxis(sweep_reference(factors, np.moveaxis(rhs, -1, 0)), 0, -1)
        got = mass_solve(m, rhs)
        assert got.dtype == ref.dtype
        assert np.array_equal(got, ref)
