"""Time-regularity functionals: BMO, scale-invariant half-Sobolev, Hölder,
Dini, and the divergence detectors."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import maxreg.bmo as bmo
from maxreg.bmo import (
    FamilyError,
    IntervalFamily,
    bmo_seminorm,
    dini_integral,
    dini_verdict,
    dyadic_family,
    holder_constant,
    refinement_verdict,
    scale_invariant_half_sobolev,
)
from maxreg.coefficients import mollifier_kernel, mollify
from maxreg.timefourier import TimeGrid, TimeSignal, UniformGrid


def sig(grid, fn):
    return TimeSignal(grid, np.asarray(fn(grid.points), dtype=complex))


def const(grid, c=2.0):
    return TimeSignal(grid, np.full(grid.n_points, c, dtype=complex))


def sliding_family(grid, lengths=None):
    """All offsets of a set of interval lengths (defaults to dyadic lengths)."""
    n = grid.n_points
    if lengths is None:
        lengths = []
        size = 2
        while size <= n:
            lengths.append(size)
            size *= 2
    return IntervalFamily(grid, tuple((a, a + m) for m in lengths for a in range(n - m + 1)))


def tuple_loop_dyadic(n, shifted, min_len):
    """The dyadic family as the tuple loop that `dyadic_family` replaced
    builds it: the reference for its interval order."""
    intervals = []
    size = n
    while size >= min_len:
        for a in range(0, n - size + 1, size):
            intervals.append((a, a + size))
        if shifted and size < n:
            for a in range(size // 2, n - size + 1, size):
                intervals.append((a, a + size))
        size //= 2
    return tuple(intervals)


class TestIntervalFamily:
    def test_rejects_empty(self):
        g = TimeGrid(0.0, 1.0, 64)
        with pytest.raises(FamilyError):
            IntervalFamily(g, ())

    def test_rejects_single_point_interval(self):
        g = TimeGrid(0.0, 1.0, 64)
        with pytest.raises(FamilyError):
            IntervalFamily(g, ((3, 4),))

    def test_dyadic_covers_all_scales(self):
        g = TimeGrid(0.0, 1.0, 64)
        fam = dyadic_family(g)
        lengths = {b - a for a, b in fam.intervals}
        assert lengths == {2, 4, 8, 16, 32, 64}

    @pytest.mark.parametrize("n", [8, 16, 64, 512, 4096, 16384])
    @pytest.mark.parametrize("shifted", [True, False])
    @pytest.mark.parametrize("min_len", [2, 3, 8, 64])
    def test_dyadic_matches_tuple_loop(self, n, shifted, min_len):
        g = TimeGrid(0.0, 1.0, n)
        want = tuple_loop_dyadic(n, shifted, min_len)
        if not want:
            with pytest.raises(FamilyError, match="empty"):
                dyadic_family(g, shifted, min_len)
            return
        fam = dyadic_family(g, shifted, min_len)
        assert fam.intervals.tolist() == [list(iv) for iv in want]

    def test_bad_interval_error_names_the_first_bad_pair(self):
        g = TimeGrid(0.0, 1.0, 64)
        for bad in [((0, 4), (3, 4), (-1, 5)), ((0, 4), (-1, 5), (3, 4)),
                    ((0, 64), (60, 65))]:
            with pytest.raises(FamilyError, match=r"\(%d, %d\)" % bad[1]):
                IntervalFamily(g, bad)

    @pytest.mark.parametrize("bad", [((0, 4, 8),), ((0, 4), (8,)), ((0.0, 4.0),), [0, 4]])
    def test_rejects_malformed_pairs(self, bad):
        with pytest.raises(FamilyError):
            IntervalFamily(TimeGrid(0.0, 1.0, 64), bad)

    def test_pairs_and_array_give_equal_read_only_bounds(self):
        g = TimeGrid(0.0, 1.0, 64)
        pairs = ((0, 64), (0, 32), (32, 64), (16, 48))
        array = np.array(pairs)
        from_pairs, from_array = IntervalFamily(g, pairs), IntervalFamily(g, array)
        for a, b in zip(from_pairs.bounds, from_array.bounds):
            np.testing.assert_array_equal(a, b)
        array[0] = (1, 2)               # the family keeps its own copy
        assert from_array.intervals[0].tolist() == [0, 64]
        with pytest.raises(ValueError):
            from_array.intervals[0, 0] = 3


class TestBmoSeminorm:
    def test_constant_is_zero(self):
        g = TimeGrid(0.0, 1.0, 128)
        assert bmo_seminorm(const(g), dyadic_family(g)).value == 0.0

    def test_linear_quarter_length(self):
        # mean oscillation of f(t)=t over an interval of length l is l/4
        g = TimeGrid(0.0, 1.0, 1024)
        res = bmo_seminorm(sig(g, lambda t: t), dyadic_family(g))
        assert abs(res.value - 0.25) <= 1e-3
        assert res.achieving_interval == (0.0, 1.0)

    def test_log_is_bmo(self):
        # value stable within +-10% under refinement 256 -> 1024
        vals = []
        for n in (256, 1024):
            g = TimeGrid(-1.0, 1.0, n)
            vals.append(bmo_seminorm(
                sig(g, lambda t: np.log(np.abs(t + g.dt / 2))),
                dyadic_family(g)).value)
        assert 0.9 <= vals[1] / vals[0] <= 1.1

    def test_matrix_valued_entrywise_max(self):
        g = TimeGrid(0.0, 1.0, 128)
        vals = np.zeros((128, 2, 2), dtype=complex)
        vals[:, 0, 0] = g.points          # oscillation l/4
        vals[:, 1, 1] = 3.0 * g.points    # dominates
        res = bmo_seminorm(TimeSignal(g, vals), dyadic_family(g))
        assert abs(res.value - 0.75) <= 3e-3


class TestScaleInvariantHalfSobolev:
    def test_constant_is_zero(self):
        g = TimeGrid(0.0, 1.0, 128)
        assert scale_invariant_half_sobolev(const(g), dyadic_family(g)).value == 0.0

    def test_matches_brute_force_double_quadrature(self):
        g = TimeGrid(0.0, 1.0, 128)
        f = np.sqrt(np.abs(g.points - 0.5))
        t = g.points
        d = t[:, None] - t[None, :]
        np.fill_diagonal(d, np.inf)
        brute = (np.abs(f[:, None] - f[None, :]) ** 2 / d**2).sum() * g.dt**2
        fam = IntervalFamily(g, ((0, g.n_points),))
        res = scale_invariant_half_sobolev(sig(g, lambda t: np.sqrt(np.abs(t - 0.5))), fam)
        assert abs(res.value - brute) <= 1e-12 * brute

    def test_sqrt_is_admissible(self):
        # |t|^(1/2): finite and refinement-stable
        vals = []
        for n in (256, 1024):
            g = TimeGrid(-1.0, 1.0, n)
            vals.append(scale_invariant_half_sobolev(
                sig(g, lambda t: np.sqrt(np.abs(t))), dyadic_family(g)).value)
        assert 0.9 <= vals[1] / vals[0] <= 1.1

    def test_lipschitz_linear_in_length(self):
        # value for f = s0*t on an interval of length l is s0^2 * l * C;
        # C approaches 1 (frozen brute-force value at n=512: 0.998046875)
        g = TimeGrid(0.0, 1.0, 512)
        s0 = 3.0
        res = scale_invariant_half_sobolev(sig(g, lambda t: s0 * t), dyadic_family(g))
        assert abs(res.value - s0**2 * 0.998046875) <= 1e-12 * s0**2
        assert res.achieving_interval == (0.0, 1.0)

    def test_definitional_identity_with_frac_sobolev(self):
        # full-window (Ass A) value == the fractional Sobolev (1/2) double
        # integral over the window / l exactly
        g = TimeGrid(0.0, 1.0, 512)
        f = sig(g, lambda t: np.sin(2 * np.pi * t) + t**2)
        fam = IntervalFamily(g, ((0, g.n_points),))
        lhs = scale_invariant_half_sobolev(f, fam).value
        rhs = dense_frac_sobolev(f, 0.5, 0, g.n_points) / g.period
        assert abs(lhs - rhs) <= 1e-12 * max(lhs, 1.0)


class TestHolderConstant:
    def test_constant_is_zero(self):
        g = TimeGrid(0.0, 1.0, 128)
        assert holder_constant(const(g), 0.5).value == 0.0

    def test_sqrt_has_half_holder_constant_one(self):
        g = TimeGrid(-1.0, 1.0, 512)
        res = holder_constant(sig(g, lambda t: np.sqrt(np.abs(t))), 0.5)
        assert abs(res.value - 1.0) <= 1e-9

    def test_sqrt_at_alpha_0_6_diverges(self):
        # grows >= 2^0.1 per dyadic refinement near 0
        vals = []
        for n in (256, 512, 1024):
            g = TimeGrid(-1.0, 1.0, n)
            vals.append(holder_constant(sig(g, lambda t: np.sqrt(np.abs(t))), 0.6).value)
        assert vals[1] / vals[0] >= 2**0.1 - 1e-9
        assert vals[2] / vals[1] >= 2**0.1 - 1e-9


class TestDiniIntegral:
    def test_constant_is_zero(self):
        g = TimeGrid(0.0, 1.0, 128)
        assert dini_integral(const(g), q=1).value == 0.0

    def test_sqrt_q1_log_divergent(self):
        # value grows like log(1/dt); flagged divergent at every resolution
        vals = []
        for n in (512, 1024, 2048):
            g = TimeGrid(-1.0, 1.0, n)
            res = dini_integral(sig(g, lambda t: np.sqrt(np.abs(t))), q=1)
            assert dini_verdict(res).divergent
            vals.append(res.value)
        diffs = np.diff(vals)  # log growth: equal jumps per doubling
        assert abs(diffs[1] / diffs[0] - 1.0) <= 0.1

    def test_holder_above_half_converges(self):
        for n in (512, 4096):
            g = TimeGrid(-1.0, 1.0, n)
            res = dini_integral(sig(g, lambda t: np.abs(t) ** 0.6), q=1)
            assert not dini_verdict(res).divergent

    def test_step_strongly_divergent(self):
        g = TimeGrid(-1.0, 1.0, 1024)
        res = dini_integral(sig(g, lambda t: (t > 0).astype(float)), q=1)
        assert dini_verdict(res).divergent

    def test_too_few_octaves_give_no_verdict(self):
        # n = 32 has five lag octaves, one short of the fit's six; a
        # constant's increments are all zero, so its verdict stays measured
        g = TimeGrid(-1.0, 1.0, 32)
        res = dini_integral(sig(g, lambda t: np.sqrt(np.abs(t))), q=1)
        assert len(res.extra["octave_increments"]) == 5
        assert dini_verdict(res).divergent is None
        assert dini_verdict(dini_integral(const(g), q=1)).divergent is False
        g = TimeGrid(-1.0, 1.0, 64)
        assert dini_verdict(dini_integral(sig(g, lambda t: np.sqrt(np.abs(t))), q=1)).divergent

    def test_rejects_q_out_of_range(self):
        g = TimeGrid(0.0, 1.0, 128)
        with pytest.raises(ValueError):
            dini_integral(const(g), q=0.5)


class TestDivergenceDetectors:
    def test_refinement_rule(self):
        assert refinement_verdict([1.0, 1.3, 1.7]).divergent
        assert not refinement_verdict([1.0, 1.2, 1.5]).divergent
        assert not refinement_verdict([1.0, 1.3, 1.3]).divergent

    def test_refinement_rule_custom_threshold(self):
        assert refinement_verdict([1.0, 1.06, 1.13], threshold=1.03).divergent
        assert not refinement_verdict([1.0, 1.01, 1.02], threshold=1.03).divergent


class TestSeminormProperties:
    @given(st.floats(0.1, 10.0), st.integers(0, 2**31 - 1))
    @settings(max_examples=25, deadline=None)
    def test_homogeneity(self, c, seed):
        g = TimeGrid(0.0, 1.0, 128)
        rng = np.random.default_rng(seed)
        f = TimeSignal(g, rng.standard_normal(128).astype(complex))
        cf = TimeSignal(g, c * f.values)
        fam = dyadic_family(g)
        # p = 1 for BMO / Hoelder, p = 2 for the quadratic functionals, p = q for Dini
        assert bmo_seminorm(cf, fam).value == pytest.approx(
            c * bmo_seminorm(f, fam).value, rel=1e-12)
        assert holder_constant(cf, 0.5).value == pytest.approx(
            c * holder_constant(f, 0.5).value, rel=1e-12)
        assert scale_invariant_half_sobolev(cf, fam).value == pytest.approx(
            c**2 * scale_invariant_half_sobolev(f, fam).value, rel=1e-12)
        q = 1.5
        assert dini_integral(cf, q).value == pytest.approx(
            c**q * dini_integral(f, q).value, rel=1e-12)

    def test_translation_invariance_sliding(self):
        g = TimeGrid(0.0, 1.0, 256)
        f = sig(g, lambda t: np.sin(2 * np.pi * t) ** 2)
        shifted = TimeSignal(g, np.roll(f.values, 64))
        fam = sliding_family(g, [64])
        a = bmo_seminorm(f, fam).value
        b = bmo_seminorm(shifted, fam).value
        assert abs(a - b) <= 1e-12 * max(a, 1.0)

    def test_monotone_in_family(self):
        g = TimeGrid(0.0, 1.0, 256)
        f = sig(g, lambda t: np.sin(2 * np.pi * t) + t)
        small = dyadic_family(g, shifted=False)
        large = dyadic_family(g, shifted=True)
        assert len(large) > len(small)
        assert (bmo_seminorm(f, large).value
                >= bmo_seminorm(f, small).value - 1e-15)

    def test_mollification_contracts_bmo(self):
        from maxreg.coefficients import generate_family
        from maxreg.fem import SpaceMesh

        g = TimeGrid(0.0, 1.0, 512)
        mesh = SpaceMesh(0.0, 1.0, 8)
        A = generate_family("holder", g, mesh, seed=3, alpha=0.4)
        Am = mollify(A, 8)
        fam = dyadic_family(g)
        raw = bmo_seminorm(A.column(0), fam).value
        smooth = bmo_seminorm(Am.column(0), fam).value
        assert smooth <= raw + 1e-8

    def test_ordering_probe(self):
        # finite Dini => finite (Ass A) => finite 1/2-Hoelder constant:
        # each "left stable" sample is also "right stable"
        g1, g2 = TimeGrid(-1.0, 1.0, 256), TimeGrid(-1.0, 1.0, 1024)
        for fn in (lambda t: np.abs(t) ** 0.8, lambda t: np.sin(np.pi * t)):
            pairs = []
            for g in (g1, g2):
                f = sig(g, fn)
                pairs.append((
                    dini_integral(f, 1.0).value,
                    scale_invariant_half_sobolev(f, dyadic_family(g)).value,
                    holder_constant(f, 0.5).value,
                ))
            for i in range(3):
                assert pairs[1][i] <= 1.25 * pairs[0][i] + 1e-12


class TestMollifierKernel:
    def test_unit_mass(self):
        g = TimeGrid(0.0, 1.0, 256)
        k = mollifier_kernel(g, 16)
        assert abs(k.sum() * g.dt - 1.0) <= 1e-12


# ---------------------------------------------------------------------------
# The lag-blocked functionals against the dense n x n evaluation they replace.
# The reference below is the former dense implementation, kept only here.


def _dense_ratios(f, exponent):
    """R[i, j] = max_entries |f_i - f_j|^2 / |t_i - t_j|^exponent, diag 0."""
    v = np.asarray(f.values)
    g = v.reshape(v.shape[0], -1)
    t = f.grid.points
    dt_gap = np.abs(t[:, None] - t[None, :])
    np.fill_diagonal(dt_gap, 1.0)
    num = np.zeros((f.n, f.n))
    for k in range(g.shape[1]):
        col = g[:, k]
        np.maximum(num, np.abs(col[:, None] - col[None, :]) ** 2, out=num)
    R = num / dt_gap**exponent
    np.fill_diagonal(R, 0.0)
    return R


def dense_half_sobolev(f, fam):
    S = _dense_ratios(f, 2.0).cumsum(axis=0).cumsum(axis=1)
    dt = f.grid.dt
    best, best_iv = 0.0, None
    for a, b in fam.intervals:
        tot = S[b - 1, b - 1]
        if a > 0:
            tot -= S[a - 1, b - 1] + S[b - 1, a - 1] - S[a - 1, a - 1]
        val = tot * dt * dt / ((b - a) * dt)
        if val > best:
            best, best_iv = float(val), fam.seconds((a, b))
    return best, best_iv


def dense_frac_sobolev(f, alpha, i0, i1):
    dt = f.grid.dt
    return float(_dense_ratios(f, 2.0 * alpha + 1.0)[i0:i1, i0:i1].sum() * dt * dt)


def dense_holder(f, alpha):
    R = _dense_ratios(f, 2.0 * alpha)
    i, j = np.unravel_index(int(np.argmax(R)), R.shape)
    t = f.grid.points
    return float(np.sqrt(R[i, j])), (min(t[i], t[j]), max(t[i], t[j]))


def dense_dini(f, q):
    v = np.asarray(f.values)
    g = v.reshape(v.shape[0], -1)
    n, dt = f.n, f.grid.dt
    m_max = min(n - 1, int(round(f.grid.period / dt)))
    lags = np.arange(1, m_max + 1)
    sup = np.array([np.abs(g[m:] - g[:-m]).max() for m in lags])
    terms = sup**q * dt / ((lags * dt) ** (1.0 + q / 2.0))
    incs, j = [], 0
    while (1 << j) <= m_max:
        incs.append(float(terms[(1 << j) - 1:min((1 << (j + 1)) - 1, m_max)].sum()))
        j += 1
    return float(terms.sum()), incs


def dense_bmo(f, fam):
    v = np.asarray(f.values)
    g = v.reshape(v.shape[0], -1)
    best = 0.0
    for a, b in fam.intervals:
        seg = g[a:b]
        best = max(best, float(np.abs(seg - seg.mean(axis=0)).mean(axis=0).max()))
    return best


def close(got, want, rel=1e-12):
    return abs(got - want) <= rel * abs(want)


@st.composite
def signals(draw):
    """Scalar or 2x2, real or complex signals on power-of-two and 3n grids:
    random, constant, or steps (many tied ratios)."""
    n = draw(st.sampled_from([8, 12, 16, 24, 32, 48, 64, 96, 128]))
    if n & (n - 1) == 0 and draw(st.booleans()):
        grid = TimeGrid(0.0, 1.0, n)
    else:                                # the 3n reflection grid of extend_reflect
        grid = UniformGrid(-1.0, 2.0, n)
    shape = (n,) if draw(st.booleans()) else (n, 2, 2)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["random", "random", "constant", "step"]))
    if kind == "random":
        vals = rng.standard_normal(shape) * draw(st.sampled_from([1e-3, 1.0, 1e3]))
        if draw(st.booleans()):
            vals = vals + 1j * rng.standard_normal(shape)
    elif kind == "constant":
        vals = np.full(shape, 2.5 + 0.5j)
    else:
        vals = rng.integers(0, 3, shape).astype(float)
    return TimeSignal(grid, np.asarray(vals, dtype=complex))


@st.composite
def families(draw, grid):
    style = draw(st.sampled_from(["dyadic", "unshifted", "sliding"]))
    if style == "sliding":
        return sliding_family(grid)
    return dyadic_family(grid, shifted=style == "dyadic")


class TestLagKernelMatchesDense:
    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_half_sobolev(self, data):
        f = data.draw(signals())
        fam = data.draw(families(f.grid))
        res = scale_invariant_half_sobolev(f, fam)
        value, interval = dense_half_sobolev(f, fam)
        assert close(res.value, value)
        assert res.achieving_interval == interval

    @given(st.data(), st.sampled_from([0.1, 0.25, 0.3, 0.5, 0.6, 1.0]))
    @settings(max_examples=80, deadline=None)
    def test_holder_bitwise(self, data, alpha):
        f = data.draw(signals())
        res = holder_constant(f, alpha)
        value, interval = dense_holder(f, alpha)
        assert res.value == value
        assert res.achieving_interval == interval

    @given(st.data(), st.sampled_from([1.0, 1.5, 2.0]))
    @settings(max_examples=60, deadline=None)
    def test_dini_value_and_increments(self, data, q):
        f = data.draw(signals())
        res = dini_integral(f, q)
        value, incs = dense_dini(f, q)
        assert close(res.value, value)
        assert len(res.extra["octave_increments"]) == len(incs)
        assert all(close(a, b) for a, b in zip(res.extra["octave_increments"], incs))

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_bmo(self, data):
        f = data.draw(signals())
        fam = data.draw(families(f.grid))
        res = bmo_seminorm(f, fam)
        assert close(res.value, dense_bmo(f, fam))
        assert (res.achieving_interval is None) == (res.value == 0.0)

    def test_holder_ties_keep_dense_choice(self):
        # a unit step every 8 samples: every jump gives the same Hoelder
        # ratio, and the earliest pair wins as in the dense row-major argmax
        g = TimeGrid(0.0, 1.0, 64)
        f = TimeSignal(g, (np.arange(64) // 8).astype(complex))
        res = holder_constant(f, 0.5)
        assert (res.value, res.achieving_interval) == dense_holder(f, 0.5)
        assert res.achieving_interval[0] == g.points[7]

    @pytest.mark.parametrize("n", [64, 256, 1024])
    @pytest.mark.parametrize("seed", [3, 1225396541])
    def test_half_sobolev_ties_keep_dense_choice(self, n, seed):
        # the lacunary holder series has period T/2, so the largest interval
        # value ties with its copy half a window on and only rounding tells
        # them apart: the tie must go where the dense prefix sums sent it
        from maxreg.coefficients import generate_family
        from maxreg.fem import SpaceMesh

        g = TimeGrid(0.0, 1.0, n)
        f = generate_family("holder", g, SpaceMesh(0.0, 1.0, 4), seed=seed, alpha=0.5).column(0)
        fam = dyadic_family(g)
        res = scale_invariant_half_sobolev(f, fam)
        assert (res.value, res.achieving_interval) == dense_half_sobolev(f, fam)

    def test_all_zero_signal_has_no_achieving_interval(self):
        g = TimeGrid(0.0, 1.0, 32)
        assert bmo_seminorm(const(g), sliding_family(g)).achieving_interval is None
        assert scale_invariant_half_sobolev(const(g), dyadic_family(g)).achieving_interval is None
        res = holder_constant(const(g), 0.5)
        assert res.achieving_interval == (g.points[0], g.points[0])


@st.composite
def long_scalar_signals(draw):
    """Scalar signals longer than the autocorrelation cutoff, real or complex,
    on power-of-two and 3n-style grids: random, steps (many ties), a square
    root cusp, and a Lipschitz ramp on a large offset (cancellation)."""
    n = draw(st.sampled_from([33, 48, 64, 96, 128, 256, 512, 1024, 2048]))
    grid = TimeGrid(0.0, 1.0, n) if n & (n - 1) == 0 else UniformGrid(-1.0, 2.0, n)
    t = grid.points
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["random", "step", "cusp", "offset_lipschitz"]))
    if kind == "random":
        vals = rng.standard_normal(n) * draw(st.sampled_from([1e-3, 1.0, 1e3]))
    elif kind == "step":
        vals = rng.integers(0, 3, n).astype(float)
    elif kind == "cusp":
        vals = np.sqrt(np.abs(t - t[draw(st.integers(0, n - 1))]))
    else:
        vals = 1e3 + draw(st.floats(0.5, 5.0)) * t
    if draw(st.booleans()):
        vals = vals + 1j * vals[::-1]
    return TimeSignal(grid, np.asarray(vals, dtype=complex))


class TestAutocorrelationPath:
    """Scalar samples take lags >= _FFT_MIN_LAG from autocorrelation."""

    @given(st.data())
    @settings(max_examples=40, deadline=None)
    def test_matches_dense(self, data):
        f = data.draw(long_scalar_signals())
        fam = data.draw(families(f.grid))
        res = scale_invariant_half_sobolev(f, fam)
        value, interval = dense_half_sobolev(f, fam)
        assert close(res.value, value)
        assert res.achieving_interval == interval

    @pytest.mark.parametrize("c", [0.1, 0.7 + 0.3j])
    def test_constant_is_exactly_zero(self, c):
        g = TimeGrid(0.0, 1.0, 4096)
        res = scale_invariant_half_sobolev(const(g, c), dyadic_family(g))
        assert res.value == 0.0
        assert res.achieving_interval is None

    @pytest.mark.parametrize("shape", [(512,), (512, 2, 2)])
    def test_lag_blocks_cover_small_lags_of_scalars_only(self, monkeypatch, shape):
        asked = []

        def spy(g, t, exponent, max_lag=None):
            for lags, R in lag_blocks(g, t, exponent, max_lag):
                asked.extend(lags.tolist())
                yield lags, R

        lag_blocks = bmo._lag_blocks
        monkeypatch.setattr(bmo, "_lag_blocks", spy)
        g = TimeGrid(0.0, 1.0, 512)
        rng = np.random.default_rng(5)
        f = TimeSignal(g, rng.standard_normal(shape).astype(complex))
        scale_invariant_half_sobolev(f, dyadic_family(g))
        if len(shape) == 1:
            assert sorted(asked) == list(range(1, bmo._FFT_MIN_LAG))
        else:
            assert sorted(asked) == list(range(1, 512))


@st.composite
def prunable_signals(draw):
    """Signals whose Hoelder search stops early: steps, plateaus and monotone
    ramps, scalar or complex 2x2, on power-of-two and 3n grids."""
    n = draw(st.sampled_from([8, 16, 33, 48, 64, 96, 128, 256]))
    grid = TimeGrid(0.0, 1.0, n) if n & (n - 1) == 0 else UniformGrid(-1.0, 2.0, n)
    shape = (n,) if draw(st.booleans()) else (n, 2, 2)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["step", "plateaus", "ramp"]))
    if kind == "step":
        jumps = rng.integers(0, n, draw(st.integers(1, 3)))
        vals = (np.arange(n)[:, None] >= jumps[None, :]).sum(axis=1).astype(float)
        vals = vals.reshape((n,) + (1,) * (len(shape) - 1)) * rng.standard_normal(shape[1:])
    elif kind == "plateaus":
        run = draw(st.sampled_from([2, 4, 8, 16]))
        vals = np.repeat(rng.standard_normal((n // run + 1,) + shape[1:]), run, axis=0)[:n]
    else:
        vals = np.cumsum(np.abs(rng.standard_normal(shape)), axis=0)
    if draw(st.booleans()):
        vals = vals + 1j * np.repeat(rng.standard_normal((n // 4 + 1,) + shape[1:]), 4,
                                     axis=0)[:n]
    return TimeSignal(grid, np.asarray(vals, dtype=complex))


def count_blocks(monkeypatch):
    """The number of lag blocks evaluated, by a spy on `bmo._ratio_kernel`."""
    visited = []
    kernel = bmo._ratio_kernel

    def spy(g, t, exponent):
        ratios = kernel(g, t, exponent)

        def counted(lo, hi):
            visited.append((lo, hi))
            return ratios(lo, hi)
        return counted

    monkeypatch.setattr(bmo, "_ratio_kernel", spy)
    return visited


class TestHolderPruning:
    """holder_constant visits lag blocks by decreasing bound and stops early;
    its value and achieving pair stay bitwise the exhaustive ones."""

    @given(st.data(), st.sampled_from([0.1, 0.25, 0.5, 0.75, 1.0]))
    @settings(max_examples=80, deadline=None)
    def test_prunable_signals_match_dense_bitwise(self, data, alpha):
        f = data.draw(prunable_signals())
        res = holder_constant(f, alpha)
        assert (res.value, res.achieving_interval) == dense_holder(f, alpha)

    def test_step_visits_fewer_blocks(self, monkeypatch):
        visited = count_blocks(monkeypatch)
        g = TimeGrid(0.0, 1.0, 1024)
        f = sig(g, lambda t: (t >= 0.3).astype(float))
        res = holder_constant(f, 0.5)
        assert (res.value, res.achieving_interval) == dense_holder(f, 0.5)
        assert 0 < len(visited) < len(bmo._lag_partition(1024, 1023))

    def test_constant_visits_no_block(self, monkeypatch):
        visited = count_blocks(monkeypatch)
        g = TimeGrid(0.0, 1.0, 256)
        res = holder_constant(const(g), 0.5)
        assert (res.value, res.achieving_interval) == (0.0, (g.points[0], g.points[0]))
        assert visited == []

    @pytest.mark.parametrize("n", [256, 1024])
    def test_sqrt_rounding_level_ties_match_dense(self, monkeypatch, n):
        # |sqrt(t - t0)|^2 / (t - t0) is 1 for every t > t0: the maximum is
        # tied across lags and blocks up to rounding
        visited = count_blocks(monkeypatch)
        g = TimeGrid(-1.0, 1.0, n)
        f = sig(g, lambda t: np.sqrt(np.abs(t - g.points[n // 3])))
        res = holder_constant(f, 0.5)
        assert (res.value, res.achieving_interval) == dense_holder(f, 0.5)
        assert visited


class TestLagKernelMemory:
    def test_n8192_peak_below_128_mib(self):
        # the dense n x n evaluation needed about 2 GB at this size
        import tracemalloc

        g = TimeGrid(0.0, 1.0, 8192)
        f = sig(g, lambda t: np.abs(t - 0.5) ** 0.3)
        fam = dyadic_family(g)
        tracemalloc.start()
        try:
            scale_invariant_half_sobolev(f, fam)
            holder_constant(f, 0.5)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 128 * 2**20
