"""Coefficient families, ellipticity certification, the storage rule of
coefficients and space-time fields, the extension algorithm with its proven
constants, and mollification."""
import json
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import maxreg.coefficients as coefficients
from maxreg.bmo import bmo_seminorm, dyadic_family, scale_invariant_half_sobolev
from maxreg.coefficients import (
    FAMILY_KINDS,
    CoefficientField,
    CoefficientError,
    FamilyError,
    NotElliptic,
    certify_ellipticity,
    check_family,
    cutoff_profile,
    extend_full,
    extend_reflect,
    generate_family,
    load_field,
    mollify,
    save_field,
)
import maxreg.cli as cli
from maxreg.cli import FORCING_KINDS, bundled_config_path, load_config, run_analyze
from maxreg.fem import SpaceMesh
from maxreg.norms import SpaceTimeField, zero_field
from maxreg.timefourier import TimeGrid, frac_derivative

MESH = SpaceMesh(0.0, 1.0, 16)
GRID = TimeGrid(0.0, 1.0, 256)


class TestCertification:
    def test_identity(self):
        A = generate_family("constant", GRID, MESH, value=1.0)
        lam, Lam = certify_ellipticity(A)
        assert lam == pytest.approx(1.0, abs=1e-14)
        assert Lam == pytest.approx(1.0, abs=1e-14)

    def test_diag_2_3(self):
        vals = np.zeros((GRID.n_points, MESH.n_cells, 2, 2), dtype=complex)
        vals[..., 0, 0] = 2.0
        vals[..., 1, 1] = 3.0
        lam, Lam = certify_ellipticity(vals)
        assert lam == pytest.approx(2.0, abs=1e-14)
        assert Lam == pytest.approx(3.0, abs=1e-14)

    def test_scalar_sine_extrema(self):
        A = generate_family("lipschitz", GRID, MESH, amp=1.0)  # 1 + sin(2 pi t)/2
        lam, Lam = certify_ellipticity(A)
        assert lam == pytest.approx(0.5, abs=1e-3)
        assert Lam == pytest.approx(1.5, abs=1e-3)

    def test_non_elliptic_rejected(self):
        vals = np.full((GRID.n_points, MESH.n_cells, 1, 1), -1.0 + 0j)
        with pytest.raises(NotElliptic):
            CoefficientField(GRID, MESH, vals, T=1.0)

    @given(st.integers(0, 2**32 - 1),
           st.sampled_from(["real", "imaginary", "complex", "mixed"]))
    @settings(max_examples=60, deadline=None)
    def test_scalar_closed_form_is_bitwise_eigvalsh_svd(self, seed, kind):
        # Signed samples; "mixed" spreads each part over 1e-100..1e100.  LAPACK
        # rescales a sample of modulus outside about 1e-130..1e130 before its
        # SVD, so bitwise agreement is pinned inside that range.
        rng = np.random.default_rng(seed)
        re, im = rng.standard_normal((2, 64))
        if kind == "real":
            im[:] = 0.0
        elif kind == "imaginary":
            re[:] = 0.0
        elif kind == "mixed":
            re *= 10.0 ** rng.uniform(-100, 100, 64)
            im *= 10.0 ** rng.uniform(-100, 100, 64)
        a = re + 1j * im
        for mats in [a.reshape(-1, 1, 1), *a.reshape(-1, 1, 1, 1)]:  # stack, each sample
            lam = np.linalg.eigvalsh(0.5 * (mats + mats.conj()))[:, 0].min()
            Lam = np.linalg.svd(mats, compute_uv=False)[:, 0].max()
            assert certify_ellipticity(mats) == (lam, Lam)

    @given(st.lists(st.one_of(st.floats(allow_nan=False, allow_infinity=False),
                              st.sampled_from([0.0, -0.0, -1.0])), min_size=1, max_size=64))
    @settings(max_examples=100, deadline=None)
    def test_real_samples_certify_bitwise_as_complex(self, samples):
        # the real 1x1 form min(a), max|a| is the closed form at Im a = 0
        x = np.array(samples).reshape(-1, 1, 1)
        real, cplx = certify_ellipticity(x), certify_ellipticity(x.astype(complex))
        assert np.array(real).tobytes() == np.array(cplx).tobytes()

    def test_certificate_is_not_an_argument(self):
        with pytest.raises(TypeError):
            CoefficientField(GRID, MESH, np.ones((GRID.n_points, MESH.n_cells)),
                             lam=5.0, Lam=6.0, T=1.0)

    def test_quadratic_form_bounds_on_probe_directions(self):
        rng = np.random.default_rng(0)
        A = generate_family("holder", GRID, MESH, seed=2, alpha=0.4)
        for _ in range(50):
            xi = rng.standard_normal(1) + 1j * rng.standard_normal(1)
            sample = A.values[rng.integers(GRID.n_points), rng.integers(MESH.n_cells)]
            quad = np.real(np.conj(xi) @ sample @ xi)
            assert quad >= A.lam * np.abs(xi @ np.conj(xi)).real - 1e-12
            assert np.abs(sample @ xi).max() <= A.Lam * np.linalg.norm(xi) + 1e-12


class TestStorage:
    """Samples whose imaginary parts are all zero are stored as float64, all
    others as complex128."""

    @pytest.mark.parametrize("kind", FAMILY_KINDS)
    def test_families_are_float64(self, kind):
        assert generate_family(kind, GRID, MESH).values.dtype == np.float64

    def test_complex_samples_stay_complex(self):
        holder = generate_family("holder", GRID, MESH, seed=2)
        A = CoefficientField(GRID, MESH, (1.0 + 0.3j) * holder.values, T=1.0)
        assert A.values.dtype == np.complex128
        assert np.array_equal(A.values, (1.0 + 0.3j) * holder.values)

    @pytest.mark.parametrize("dtype", [complex, np.int64])
    def test_real_input_is_float64(self, dtype):
        vals = np.arange(1, GRID.n_points + 1)[:, None] * np.ones((1, MESH.n_cells))
        A = CoefficientField(GRID, MESH, vals.astype(dtype), T=1.0)
        assert A.values.dtype == np.float64
        assert np.array_equal(A.values[:, :, 0, 0], vals)

    def test_real_field_round_trip(self, tmp_path):
        # the file format stays complex128; the loaded field is real again
        A = generate_family("sqrt_product", GRID, MESH, amp=0.4, space_profile="cosine")
        prefix = str(tmp_path / "field")
        _, bpath = save_field(A, prefix)
        assert os.path.getsize(bpath) == 16 * A.values.size
        B = load_field(prefix)
        assert B.values.dtype == np.float64
        assert B.values.tobytes() == A.values.tobytes()
        assert np.array([B.lam, B.Lam]).tobytes() == np.array([A.lam, A.Lam]).tobytes()

    def test_complex_field_round_trip(self, tmp_path):
        holder = generate_family("holder", GRID, MESH, seed=2)
        A = CoefficientField(GRID, MESH, (1.0 + 0.3j) * holder.values, T=1.0)
        prefix = str(tmp_path / "field")
        save_field(A, prefix)
        B = load_field(prefix)
        assert B.values.dtype == np.complex128
        assert B.values.tobytes() == A.values.tobytes()

    def test_mollified_real_field_is_real(self):
        A = generate_family("holder", GRID, MESH, seed=4, alpha=0.35)
        assert mollify(A, 8).values.dtype == np.float64
        C = CoefficientField(GRID, MESH, (1.0 + 0.3j) * A.values, T=1.0)
        assert mollify(C, 8).values.dtype == np.complex128


class TestFieldStorage:
    """Space-time fields follow the coefficients' storage rule."""

    SHAPE = (GRID.n_points, MESH.n_dofs)

    @pytest.mark.parametrize("kind", FORCING_KINDS)
    def test_forcings_are_float64(self, kind):
        cfg = load_config(bundled_config_path("sqrt-product"), [f'forcing.kind="{kind}"'])
        assert cli._build_forcing(cfg, GRID, MESH).values.dtype == np.float64

    def test_zero_field_is_float64(self):
        assert zero_field(GRID, MESH).values.dtype == np.float64

    def test_complex_samples_stay_complex(self):
        vals = np.full(self.SHAPE, 1.0 + 0.3j)
        u = SpaceTimeField(GRID, MESH, vals)
        assert u.values.dtype == np.complex128
        assert np.array_equal(u.values, vals)

    def test_real_complex_input_is_copied_to_float64(self):
        vals = np.arange(np.prod(self.SHAPE)).reshape(self.SHAPE) + 0j
        u = SpaceTimeField(GRID, MESH, vals)
        assert u.values.dtype == np.float64
        assert not np.shares_memory(u.values, vals)
        assert np.array_equal(u.values, vals.real)

    @pytest.mark.parametrize("fill, dtype", [(1.0, np.float64), (1.0 + 0j, np.float64),
                                             (1.0 + 0.3j, np.complex128)])
    def test_fortran_order_kept(self, fill, dtype):
        u = SpaceTimeField(GRID, MESH, np.full(self.SHAPE, fill, order="F"))
        assert u.values.dtype == dtype
        assert u.values.flags.f_contiguous


def slice_reflection(v):
    """Reference even reflection of samples v on [0, T) to [-T, 2T), by
    slice assignment."""
    n = len(v)
    out = np.empty((3 * n,) + v.shape[1:], dtype=v.dtype)
    out[n:2 * n] = v                      # [0, T)
    out[1:n] = v[1:][::-1]                # (-T, 0): A(-t)
    out[0] = v[n - 1]                     # t = -T
    out[2 * n + 1:] = v[1:][::-1]         # (T, 2T): A(2T - t)
    out[2 * n] = v[n - 1]                 # t = T
    return out


class TestExtensionStorage:
    @pytest.mark.parametrize("scale", [1.0, 1.0 + 0.3j])
    def test_dtype_kept_and_reflection_bitwise(self, scale):
        holder = generate_family("holder", GRID, MESH, seed=5, alpha=0.4)
        A = CoefficientField(GRID, MESH, scale * holder.values, T=1.0)
        flat, full = extend_reflect(A), extend_full(A)
        assert flat.values.dtype == full.values.dtype == A.values.dtype
        ref = slice_reflection(A.values)
        assert flat.values.tobytes() == ref.tobytes()
        padded = np.zeros_like(full.values)
        padded[:len(ref)] = ref
        phi = cutoff_profile(full.time_grid, A.T)[:, None, None, None]
        blended = padded * phi + (1.0 - phi) * (A.lam * np.eye(1))
        assert full.values.tobytes() == blended.tobytes()

    @pytest.mark.parametrize("extend", [extend_reflect, extend_full])
    def test_each_extension_certified_once(self, monkeypatch, extend):
        A = generate_family("step", GRID, MESH)
        certified = []
        real = coefficients.certify_ellipticity
        monkeypatch.setattr(coefficients, "certify_ellipticity",
                            lambda v: certified.append(v.shape) or real(v))
        ext = extend(A)
        assert certified == [ext.values.shape]


class TestCutoffProfile:
    def test_shape(self):
        A = generate_family("constant", GRID, MESH)
        grid = extend_full(A).time_grid
        phi, t = cutoff_profile(grid, A.T), grid.points
        assert np.all(phi[(t >= 0.0) & (t <= 1.0)] == 1.0)
        assert np.all(phi[(t <= -0.5) | (t >= 1.5)] == 0.0)
        assert phi.min() >= 0.0 and phi.max() <= 1.0

    def test_lipschitz_constant(self):
        A = generate_family("constant", GRID, MESH)
        grid = extend_full(A).time_grid
        slope = np.abs(np.diff(cutoff_profile(grid, A.T))) / grid.dt
        assert slope.max() <= 2.0 / A.T + 1e-12


class TestExtendReflect:
    def test_constant_stays_constant(self):
        A = generate_family("constant", GRID, MESH, value=2.0)
        flat = extend_reflect(A)
        assert np.abs(flat.values - 2.0).max() <= 1e-15

    def test_linear_reflection_formula(self):
        # A(t) = t on [0,1] -> |t| on [-1,1] and 2-t on [1,2]
        vals = (GRID.points[:, None, None, None]
                * np.ones((1, MESH.n_cells, 1, 1))).astype(complex) + 1.0
        A = CoefficientField(GRID, MESH, vals, T=1.0, kind="linear", seed=0)
        flat = extend_reflect(A)
        t = flat.time_grid.points
        expected = np.where(t < 0, -t, np.where(t <= 1.0, t, 2.0 - t)) + 1.0
        # reflection about a sample convention: compare away from the pivots
        interior = (np.abs(t) > 2 * GRID.dt) & (np.abs(t - 1) > 2 * GRID.dt) \
            & (np.abs(t - 2) > 2 * GRID.dt)
        got = flat.values[:, 0, 0, 0].real
        assert np.abs(got[interior] - expected[interior]).max() <= 2 * GRID.dt

    def test_even_symmetry(self):
        A = generate_family("holder", GRID, MESH, seed=5, alpha=0.4)
        flat = extend_reflect(A)
        n = GRID.n_points
        # A_flat(-t) = A_flat(t) for t in (0, T)
        left = flat.values[1:n][::-1]
        right = flat.values[n + 1:2 * n]
        assert np.abs(left - right).max() <= 1e-15

    def test_certificate_preserved(self):
        A = generate_family("sqrt_product", GRID, MESH, amp=0.5)
        flat = extend_reflect(A)
        assert flat.lam == pytest.approx(A.lam, abs=1e-12)
        assert flat.Lam == pytest.approx(A.Lam, abs=1e-12)


class TestExtendFull:
    def test_lambda_identity_fixed_point(self):
        A = generate_family("constant", GRID, MESH, value=0.7)
        An = extend_full(A)
        assert np.abs(An.values - 0.7).max() <= 1e-14

    def test_lambda_outside_support(self):
        A = generate_family("sqrt_product", GRID, MESH, amp=0.5)
        An = extend_full(A)
        t = An.time_grid.points
        outside = (t < -0.5 - An.time_grid.dt) | (t > 1.5 + An.time_grid.dt)
        got = An.values[outside][..., 0, 0]
        assert np.abs(got - A.lam).max() <= 1e-12

    def test_identity_on_original_window(self):
        A = generate_family("holder", GRID, MESH, seed=9, alpha=0.35)
        An = extend_full(A)
        n = A.n_t
        assert np.allclose(An.time_grid.points[n:2 * n], GRID.points, rtol=0.0, atol=1e-12)
        assert np.array_equal(An.values[n:2 * n], A.values)

    def test_certificate_preserved(self):
        A = generate_family("step", GRID, MESH)
        An = extend_full(A)
        assert An.lam == pytest.approx(A.lam, abs=1e-12)
        assert An.Lam == pytest.approx(A.Lam, abs=1e-12)


class TestExtensionConstants:
    """The proven bounds: value on [-T,T] <= 3M, on [-T,2T] <= 9M, and the
    full-window value <= 9M + 8 Lam^2/T + 6(Lam^2+lam^2)/T.  Upper bounds
    only — never asserted as equalities."""

    @pytest.mark.parametrize(
        "kind", ["constant", "sqrt_product", "holder", "lipschitz", "step"])
    def test_bounds_for_family(self, kind):
        from maxreg.timefourier import TimeSignal

        grid = TimeGrid(0.0, 1.0, 512)
        A = generate_family(kind, grid, MESH, seed=7)
        a = A.column(0)
        M = scale_invariant_half_sobolev(a, dyadic_family(a.grid)).value
        flat = extend_reflect(A)
        af = flat.column(0)
        n = grid.n_points
        two = TimeGrid(-1.0, 1.0, 2 * n)
        v2 = scale_invariant_half_sobolev(
            TimeSignal(two, af.values[:2 * n]), dyadic_family(two)).value
        v3 = scale_invariant_half_sobolev(af, dyadic_family(af.grid)).value
        an = extend_full(A).column(0)
        m_nat = scale_invariant_half_sobolev(an, dyadic_family(an.grid)).value
        bound = 9 * M + 8 * A.Lam**2 / A.T + 6 * (A.Lam**2 + A.lam**2) / A.T
        assert v2 <= 3 * M + 1e-12
        assert v3 <= 9 * M + 1e-12
        assert m_nat <= bound + 1e-12


class TestMollify:
    def test_constant_unchanged(self):
        A = generate_family("constant", GRID, MESH, value=1.5)
        Am = mollify(A, 8)
        assert np.abs(Am.values - A.values).max() <= 1e-14

    def test_certificate_preserved(self):
        A = generate_family("step", GRID, MESH)
        Am = mollify(A, 16)
        lam, Lam = certify_ellipticity(Am)
        assert lam >= A.lam - 1e-12
        assert Lam <= A.Lam + 1e-12

    def test_reports_certificate_of_its_own_samples(self):
        A = generate_family("holder", GRID, MESH, seed=4, alpha=0.35)
        Am = mollify(A, 8)
        assert (Am.lam, Am.Lam) == certify_ellipticity(Am.values)
        assert Am.lam > A.lam + 0.05  # smoothing lifts the rough field's minimum
        outside = extend_full(Am).values[0, 0, 0, 0]  # t = -T: cutoff is 0
        assert outside == Am.lam

    def test_bmo_contraction_of_half_derivative(self):
        A = generate_family("holder", GRID, MESH, seed=4, alpha=0.35)
        Am = mollify(A, 8)
        fam = dyadic_family(GRID)
        raw = bmo_seminorm(frac_derivative(A.column(0), 0.5), fam).value
        smooth = bmo_seminorm(frac_derivative(Am.column(0), 0.5), fam).value
        assert smooth <= raw + 1e-8

    def test_rejects_nonpositive_width(self):
        A = generate_family("constant", GRID, MESH)
        with pytest.raises(ValueError):
            mollify(A, 0)


class TestFamilies:
    def test_constant_identity_field(self):
        A = generate_family("constant", GRID, MESH, value=1.0)
        assert np.abs(A.values[..., 0, 0] - 1.0).max() == 0.0

    def test_unknown_kind_rejected(self):
        with pytest.raises(CoefficientError):
            generate_family("quilted", GRID, MESH)

    def test_sqrt_product_needs_small_amp(self):
        with pytest.raises(CoefficientError):
            generate_family("sqrt_product", GRID, MESH, amp=1.5)

    @pytest.mark.parametrize("kind, params, param", [
        ("fractal", {}, "kind"),
        ("holder", {"space_profile": "wavy"}, "space_profile"),
        ("step", {"value": [[1.0, 2.0]]}, "value"),
        ("sqrt_product", {"amp": 1.0}, "amp"),
        ("holder", {"amp": 0.0}, "amp"),
        ("holder", {"alpha": 1.0}, "alpha"),
        ("step", {"amp": 2.0}, "amp"),
        ("constant", {"value": -1.0}, "value"),
        ("constant", {"value": [[1.0, 3.0], [3.0, 1.0]]}, "value"),
    ])
    def test_family_ranges_name_the_parameter(self, kind, params, param):
        # generate_family asks the same check first, so nothing is sampled
        with pytest.raises(FamilyError) as err:
            check_family(kind, **params)
        assert err.value.param == param
        with pytest.raises(FamilyError):
            generate_family(kind, GRID, MESH, **params)

    @pytest.mark.parametrize("kind, params", [
        ("lipschitz", {"amp": 1.5}), ("step", {"amp": 1.9}),
        ("constant", {"value": [[2.0, 0.5], [0.0, 3.0]]}), ("holder", {"value": [[1.0]]})])
    def test_family_ranges_accept(self, kind, params):
        check_family(kind, **params)

    def test_deterministic_in_seed(self):
        A = generate_family("holder", GRID, MESH, seed=13)
        B = generate_family("holder", GRID, MESH, seed=13)
        assert np.array_equal(A.values, B.values)

    def test_holder_refinement_consistent(self):
        # refining the grid keeps the shared octaves: coarse samples are
        # close to the fine field evaluated at the same times
        A = generate_family("holder", GRID, MESH, seed=13, alpha=0.45)
        B = generate_family("holder", TimeGrid(GRID.t_start, GRID.t_end, 2 * GRID.n_points), MESH, seed=13, alpha=0.45)
        coarse_on_fine = B.values[::2]
        # the fine field has one extra octave of amplitude 2^(-0.45 J)
        extra = 2.0 ** (-0.45 * (np.log2(GRID.n_points) - 2))
        assert np.abs(coarse_on_fine - A.values).max() <= 2 * extra

    def test_sqrt_product_behaviors(self):
        # finite, refinement-stable (Ass A); Dini(q=1) divergent
        from maxreg.bmo import dini_integral, dini_verdict

        vals = []
        for n in (256, 1024):
            g = TimeGrid(0.0, 1.0, n)
            A = generate_family("sqrt_product", g, MESH, amp=0.5)
            vals.append(scale_invariant_half_sobolev(
                A.column(0), dyadic_family(g)).value)
        assert 0.9 <= vals[1] / vals[0] <= 1.1
        g = TimeGrid(0.0, 1.0, 1024)
        A = generate_family("sqrt_product", g, MESH, amp=0.5)
        assert dini_verdict(dini_integral(A.column(0), q=1)).divergent

    def test_holder_03_half_sobolev_divergent(self):
        from maxreg.bmo import holder_constant, refinement_verdict

        vals, hold = [], []
        for n in (2048, 4096, 8192):
            g = TimeGrid(0.0, 1.0, n)
            A = generate_family("holder", g, MESH, seed=7, alpha=0.3)
            a = A.column(0)
            vals.append(scale_invariant_half_sobolev(a, dyadic_family(g)).value)
            hold.append(holder_constant(a, 0.3).value)
        assert refinement_verdict(vals).divergent
        assert max(hold) <= 1.25 * min(hold)  # Hoelder constant stays stable


# The generate_family keys each built-in kind reads; it ignores the others,
# which the README's config schema lists as kind-specific.
KIND_READS = {"constant": {"value"}, "sqrt_product": {"amp", "t0", "space_profile"},
              "holder": {"seed", "alpha", "amp"}, "lipschitz": {"amp"}, "step": {"amp"}}
KEY_CHANGES = {"seed": 1, "alpha": 0.3, "amp": 0.3, "t0": 0.25, "value": 2.0,
               "space_profile": "cosine"}


@pytest.mark.parametrize("key", sorted(KEY_CHANGES))
@pytest.mark.parametrize("kind", FAMILY_KINDS)
def test_kind_specific_keys(kind, key):
    # a key the kind ignores leaves its samples bitwise equal; one it reads
    # changes them
    assert set(KIND_READS) == set(FAMILY_KINDS)
    grid, mesh = TimeGrid(0.0, 1.0, 64), SpaceMesh(0.0, 1.0, 8)
    base = generate_family(kind, grid, mesh).values
    changed = generate_family(kind, grid, mesh, **{key: KEY_CHANGES[key]}).values
    assert np.array_equal(base, changed) == (key not in KIND_READS[kind])


@pytest.mark.parametrize("key", sorted(KEY_CHANGES))
@pytest.mark.parametrize("kind", FAMILY_KINDS)
def test_kind_specific_keys_reach_the_analyze_report(tmp_path, kind, key):
    # at small n, a key the kind reads changes its analyze report, and one it
    # ignores leaves every measured number as it was
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"coefficient": {"kind": kind}, "mesh": {"n_cells": 8},
                                "time": {"n_points": 64}}))

    def report(*overrides):
        # every report names the configured seed: compare only what is measured
        rep = run_analyze(load_config(str(path), list(overrides))).to_dict()
        for entry in [rep["coefficient"], *rep["seminorms"]]:
            del entry["seed"]
        return rep

    changed = report(f"coefficient.{key}={json.dumps(KEY_CHANGES[key])}")
    assert (report() == changed) == (key not in KIND_READS[kind])


class TestColumn:
    @pytest.mark.parametrize("value", [1.5, [[2.0, 0.5], [0.0, 3.0]]])
    def test_column_is_a_copy(self, value):
        # a held column must not pin the whole field
        A = generate_family("constant", GRID, MESH, value=value)
        col = A.column(0)
        assert not np.shares_memory(A.values, col.values)
        np.testing.assert_array_equal(col.values, A.values[:, 0].reshape(col.values.shape))


class TestSerialization:
    def test_round_trip(self, tmp_path):
        A = generate_family("sqrt_product", GRID, MESH, amp=0.4, seed=3)
        prefix = str(tmp_path / "field")
        save_field(A, prefix)
        B = load_field(prefix)
        assert np.array_equal(A.values, B.values)
        assert B.time_grid.compatible(A.time_grid)
        assert (B.lam, B.Lam, B.T, B.kind, B.seed) == (A.lam, A.Lam, A.T, A.kind, A.seed)

    def test_header_certificate_is_not_read_back(self, tmp_path):
        A = generate_family("sqrt_product", GRID, MESH, amp=0.4, seed=3)
        prefix = str(tmp_path / "field")
        jpath, _ = save_field(A, prefix)
        with open(jpath) as fh:
            header = json.load(fh)
        header["lambda"], header["Lambda"] = 5.0, 0.1
        with open(jpath, "w") as fh:
            json.dump(header, fh)
        B = load_field(prefix)
        assert (B.lam, B.Lam) == (A.lam, A.Lam)
