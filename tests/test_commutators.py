"""Commutators of a time multiplier with the fractional derivative:
pointwise application, the converged operator norm, the vector lift
over space columns, and the factorization identity for line solutions."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import spearmanr

import maxreg.commutators as commutators
from maxreg.bmo import refinement_verdict
from maxreg.coefficients import generate_family, mollify
from maxreg.commutators import (
    commutator_kernel,
    commutator_norm_estimate,
    factorization_check,
)
from maxreg.fem import SpaceMesh
from maxreg.norms import SpaceTimeField, zero_field
from maxreg.timefourier import (
    TimeGrid,
    TimeSignal,
    frac_derivative,
    frac_symbol,
    time_inner_product,
    time_norm,
)

GRID = TimeGrid(-1.0, 1.0, 256)
MESH8 = SpaceMesh(0.0, 1.0, 8)


def multiplier(kind="sqrt_product", n=256, seed=7, **kw):
    grid = TimeGrid(-1.0, 1.0, n)
    return generate_family(kind, grid, MESH8, seed=seed, **kw).column(0)


def rough_signal(grid, seed=0):
    rng = np.random.default_rng(seed)
    vals = rng.standard_normal(grid.n_points) + 1j * rng.standard_normal(grid.n_points)
    return TimeSignal(grid, vals)


def commutator_apply(a, alpha, u):
    """[a, D^alpha]u of two signals on one grid."""
    return TimeSignal(u.grid, commutator_kernel(
        a.values, frac_symbol(u.grid.frequencies, alpha), u.values))


class TestCommutatorApply:
    def test_constant_multiplier_commutes_exactly(self):
        a = TimeSignal(GRID, np.full(GRID.n_points, 2.5 + 0.5j))
        u = rough_signal(GRID)
        for alpha in (0.25, 0.5, 0.75):
            out = commutator_apply(a, alpha, u)
            assert np.abs(out.values).max() <= 1e-12 * time_norm(u)

    def test_constant_argument_gives_minus_derivative(self):
        # D^alpha annihilates constants, so [a, D^alpha]c = -c D^alpha a
        a = multiplier()
        c = 3.0 - 1.0j
        u = TimeSignal(a.grid, np.full(a.n, c))
        out = commutator_apply(a, 0.5, u)
        expected = -c * frac_derivative(a, 0.5).values
        assert np.abs(out.values - expected).max() <= 1e-10

    def test_bilinearity_in_the_multiplier(self):
        a = multiplier()
        u = rough_signal(a.grid, seed=1)
        s = -2.0 + 0.25j
        scaled = commutator_apply(TimeSignal(a.grid, s * a.values), 0.5, u)
        base = commutator_apply(a, 0.5, u)
        assert np.abs(scaled.values - s * base.values).max() <= 1e-12 * np.abs(
            base.values).max()

    def test_adjoint_relation(self):
        # <[a, D^a]u, v> = <u, -[conj(a), D^a]v>
        a = TimeSignal(GRID, multiplier().values * (1.0 + 0.3j))
        u = rough_signal(GRID, seed=2)
        v = rough_signal(GRID, seed=3)
        lhs = time_inner_product(commutator_apply(a, 0.5, u), v)
        a_bar = TimeSignal(GRID, np.conj(a.values))
        rhs = time_inner_product(
            u, TimeSignal(GRID, -commutator_apply(a_bar, 0.5, v).values))
        assert abs(lhs - rhs) <= 1e-12 * max(abs(lhs), 1.0)

    @given(st.sampled_from([(), (5,)]), st.floats(0.1, 1.0), st.integers(0, 2**31 - 1))
    @settings(max_examples=30, deadline=None)
    def test_kernel_adjoint_is_minus_conjugate_kernel(self, trailing, alpha, seed):
        # <C u, v> = <u, C* v> with C* = -kernel(conj a), summed over all axes
        rng = np.random.default_rng(seed)
        shape = (GRID.n_points, *trailing)
        a, u, v = (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
                   for _ in range(3))
        m = frac_symbol(GRID.frequencies, alpha)
        lhs = np.vdot(v, commutator_kernel(a, m, u))
        rhs = np.vdot(-commutator_kernel(np.conj(a), m, v), u)
        assert abs(lhs - rhs) <= 1e-12 * np.linalg.norm(u) * np.linalg.norm(v) * np.abs(a).max()


class TestNormEstimate:
    def test_constant_multiplier_degenerate(self):
        a = TimeSignal(GRID, np.full(GRID.n_points, 4.0 + 0.0j))
        probe = commutator_norm_estimate(a, 0.5)
        assert probe.degenerate
        assert probe.estimate == 0.0
        assert probe.ratio is None

    @pytest.mark.parametrize("alpha", [-0.5, 0.0, 1.5])
    def test_rejects_order_out_of_range_before_arpack(self, monkeypatch, alpha):
        def forbidden(*args, **kwargs):
            raise AssertionError("svds ran for an invalid order")
        monkeypatch.setattr(commutators, "svds", forbidden)
        with pytest.raises(ValueError, match="fractional order"):
            commutator_norm_estimate(multiplier(), alpha)

    @pytest.mark.parametrize("n", [256, 512])
    @pytest.mark.parametrize("kind, kw", [
        ("sqrt_product", {}), ("holder", {"alpha": 0.45}), ("holder", {"alpha": 0.05}),
        ("lipschitz", {}), ("step", {})])
    def test_estimate_is_dense_two_norm(self, kind, kw, n):
        a = multiplier(kind=kind, n=n, **kw)
        C = commutator_kernel(a.values[:, None], frac_symbol(a.grid.frequencies, 0.5),
                              np.eye(n))
        probe = commutator_norm_estimate(a, 0.5)
        assert probe.estimate == pytest.approx(np.linalg.norm(C, 2), rel=1e-12)

    def test_homogeneity_exact(self):
        a = multiplier()
        base = commutator_norm_estimate(a, 0.5)
        scaled = commutator_norm_estimate(TimeSignal(a.grid, -3.0 * a.values), 0.5)
        assert scaled.estimate == pytest.approx(3.0 * base.estimate, rel=1e-9)

    def test_sqrt_multiplier_stable_under_refinement(self):
        # |t - t0|^{1/2} keeps D^{1/2}a in BMO; the norm probe settles.
        # Frozen run: 0.29525, 0.29363, 0.29224 at n = 256, 512, 1024.
        vals = [
            commutator_norm_estimate(multiplier(n=n), 0.5).estimate
            for n in (256, 512, 1024)
        ]
        assert vals[0] == pytest.approx(0.295250, rel=1e-3)
        for coarse, fine in zip(vals, vals[1:]):
            assert 0.8 <= fine / coarse <= 1.2

    def test_low_regularity_multiplier_flagged_divergent(self):
        # A barely-Holder lacunary sample drives the estimate up by more
        # than 25% per dyadic refinement once the scales resolve it.
        vals = [
            commutator_norm_estimate(
                multiplier(kind="holder", alpha=0.05, n=n), 0.5).estimate
            for n in (2048, 4096, 8192)
        ]
        verdict = refinement_verdict(vals)
        assert verdict.divergent
        assert all(g >= 1.25 for g in verdict.growth_factors)

    def test_ratio_against_bmo_recorded(self):
        probe = commutator_norm_estimate(multiplier(), 0.5)
        assert probe.bmo_value is not None and probe.bmo_value > 0
        assert probe.ratio == pytest.approx(probe.estimate / probe.bmo_value)

    def test_monotone_link_with_bmo(self):
        # Ranking by ||D^{1/2}a||_BMO tracks ranking by the probe estimate
        # across the family-by-amplitude sweep (frozen Spearman 0.965).
        grid = TimeGrid(-1.0, 1.0, 512)
        ests, bmos = [], []
        for kind, kw in (("sqrt_product", {}), ("holder", {"alpha": 0.45}),
                         ("lipschitz", {}), ("step", {})):
            for amp in (0.2, 0.5, 0.8):
                A = generate_family(kind, grid, MESH8, seed=7, amp=amp, **kw)
                if kind == "step":
                    A = mollify(A, 8)
                p = commutator_norm_estimate(A.column(0), 0.5)
                ests.append(p.estimate)
                bmos.append(p.bmo_value)
        assert spearmanr(ests, bmos).statistic >= 0.9


class TestVectorLift:
    def test_columnwise_aggregate_bounded_by_worst_column(self):
        grid = TimeGrid(-1.0, 1.0, 512)
        A = generate_family("sqrt_product", grid, MESH8, seed=7)
        est = commutator_norm_estimate(A.column(0), 0.5).estimate
        rng = np.random.default_rng(3)
        shape = (grid.n_points, MESH8.n_cells)
        w = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        cw = commutator_kernel(A.scalar_cells(), frac_symbol(grid.frequencies, 0.5), w)
        assert np.linalg.norm(cw) <= est * np.linalg.norm(w)


class TestFactorization:
    MESH = SpaceMesh(0.0, 1.0, 32)
    GRID = TimeGrid(-1.0, 3.0, 512)

    def forcing(self):
        prof = np.sin(np.pi * self.MESH.nodes[self.MESH.free_mask])
        mod = np.cos(2 * np.pi * self.GRID.points / self.GRID.period)
        return SpaceTimeField(self.GRID, self.MESH,
                              (mod[:, None] * prof[None, :]).astype(complex))

    def test_autonomous_commutator_term_vanishes(self):
        A = generate_family("constant", self.GRID, self.MESH)
        assert factorization_check(A, self.forcing(), tol=1e-9) <= 1e-8

    def test_mollified_sqrt_product_identity(self):
        # Frozen residual 1.9e-11; budget from the solver tolerance.
        A = mollify(generate_family("sqrt_product", self.GRID, self.MESH,
                                    seed=7), 8)
        assert factorization_check(A, self.forcing(), tol=1e-9) <= 1e-6

    def test_lipschitz_identity(self):
        # Frozen residual 3.0e-12.
        A = generate_family("lipschitz", self.GRID, self.MESH, seed=7)
        assert factorization_check(A, self.forcing(), tol=1e-9) <= 1e-6

    def test_zero_forcing_convention(self):
        A = generate_family("lipschitz", self.GRID, self.MESH, seed=7)
        assert factorization_check(A, zero_field(self.GRID, self.MESH)) == 0.0
