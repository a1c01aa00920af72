"""Time-regularity functionals for coefficients.

Implements the comparison ladder: BMO seminorm, the scale-invariant
half-Sobolev functional (the solvability condition of the toolkit),
Hoelder constants, and Dini integrals, plus divergence detection under grid
refinement.

The pairwise functionals (half-Sobolev, Hoelder, Dini) share one
lag-blocked kernel, `_lag_blocks`: the ratios |f(t+m) - f(t)|^2 / m^p come a
block of lags at a time, so memory is O(n) and no n x n matrix is ever
formed.  Matrix-valued inputs are reduced pointwise with the maximum
over entries.  Double integrals omit the diagonal cell; for Lipschitz samples
the omitted mass is O(dt).

The half-Sobolev functional of scalar samples takes only the lags
m < _FFT_MIN_LAG (= 32) from that kernel.  Its larger lags come from the
autocorrelation identity: on an interval of L samples, with x the segment
minus its own mean and Q_k the sum of |x_i|^2 over i < k,

    sum_i |x[i+m] - x[i]|^2 = (Q_L - Q_m) + Q_{L-m} - 2 Re c(m),

where c is the autocorrelation of x from one zero-padded FFT of length 2L.
All intervals of one length share one transform call, so a dyadic family
costs O(n log^2 n) instead of O(n^2).  The mean subtraction and the direct
small lags keep the identity's cancellation off smooth data.  Matrix samples
keep the lag-blocked path for every lag.  On either path, intervals tied to
within _TIE_RTOL are re-evaluated by `_prefix_box_sums`.

The Hoelder constant is a maximum, so most lag blocks need not be evaluated.
Before any is, each block [lo, hi) gets the upper bound W_j / gmin(lo)^(2a):
W_j is the largest squared range of the real and imaginary parts over a
window of 2^(j+1) samples, which bounds every squared increment of a lag in
octave j, and gmin(lo) is the least computed gap t[i+lo] - t[i].  Blocks are
visited by decreasing bound, and the search stops at the first whose bound,
times 1 + 1e-9, is below the largest ratio found.  Rounding is monotone, so
a bound exceeds each computed ratio of its block by at most a few ulps,
which the 1e-9 margin covers: a block that stops the search can neither
reach nor tie the maximum.  Ties go to the earliest pair by index, whatever
the visit order, so value and pair are bitwise the exhaustive search's.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .timefourier import TimeGrid, TimeSignal, frac_order


class FamilyError(ValueError):
    """Empty or malformed interval family."""


class IntervalFamily:
    """Family of subintervals of the grid window.

    `intervals` is a read-only (k, 2) integer array of index pairs, built
    from any sequence of (start, end) pairs or (k, 2) array: each interval is
    [start, end) in sample indices and contains >= 2 points.
    """

    def __init__(self, grid: TimeGrid, intervals):
        try:
            pairs = np.asarray(intervals)
        except ValueError:      # ragged input
            raise FamilyError("intervals must be (start, end) index pairs") from None
        if pairs.size == 0:
            raise FamilyError("interval family is empty")
        if pairs.ndim != 2 or pairs.shape[1] != 2 or pairs.dtype.kind not in "iu":
            raise FamilyError(f"intervals must be (start, end) integer index pairs, "
                              f"got an array of shape {pairs.shape} and dtype {pairs.dtype}")
        pairs = pairs.astype(np.intp)      # a copy, so no caller can write to it
        a, b = pairs.T
        bad = np.flatnonzero((b - a < 2) | (a < 0) | (b > grid.n_points))
        if len(bad):
            raise FamilyError(f"bad interval indices ({a[bad[0]]}, {b[bad[0]]})")
        pairs.flags.writeable = False
        self.grid = grid
        self.intervals = pairs

    def __len__(self) -> int:
        return len(self.intervals)

    @property
    def bounds(self) -> tuple[np.ndarray, np.ndarray]:
        """(starts, ends) of the intervals as index arrays, in family order."""
        return self.intervals[:, 0], self.intervals[:, 1]

    def seconds(self, iv) -> tuple[float, float]:
        a, b = int(iv[0]), int(iv[1])
        return (self.grid.t_start + a * self.grid.dt, self.grid.t_start + b * self.grid.dt)


def dyadic_family(grid: TimeGrid, shifted: bool = True, min_len: int = 2) -> IntervalFamily:
    """Dyadic intervals at all scales from min_len points to the full window,
    plus (by default) the half-shifted dyadic copies.

    The true supremum over all intervals is infeasible; dyadic + half shift
    approximates the sliding supremum to within a factor <= 2 in interval
    length, hence is the standard surrogate for sup-type seminorms.  Longest
    first; within a length, the unshifted intervals come before the shifted.
    """
    n = grid.n_points
    pieces = [np.empty((0, 2), dtype=np.intp)]
    size = n
    while size >= min_len:
        for first in ((0, size // 2) if shifted and size < n else (0,)):
            a = np.arange(first, n - size + 1, size)
            pieces.append(np.column_stack([a, a + size]))
        size //= 2
    return IntervalFamily(grid, np.concatenate(pieces))


@dataclass
class SeminormValue:
    """A measured seminorm plus provenance."""

    value: float
    achieving_interval: tuple[float, float] | None = None
    extra: dict = field(default_factory=dict)


# Elements per block of _lag_blocks and per vectorised gather: 512 KiB of
# float64, small enough to stay in cache, large enough that numpy call
# overhead is negligible.  Working memory is O(n) however fine the grid.
_BLOCK_ELEMENTS = 1 << 16


def _lag_partition(n: int, max_lag: int) -> list[tuple[int, int]]:
    """The lag blocks [lo, hi) that cover the lags 1..max_lag of n samples:
    one octave [2^j, 2^(j+1)) at a time, split where an octave's ratio rows
    would exceed _BLOCK_ELEMENTS, so numpy works on few large arrays while
    memory stays O(n)."""
    blocks = []
    octave = 1
    while octave <= max_lag:
        lo, octave_end = octave, min(2 * octave, max_lag + 1)
        while lo < octave_end:
            hi = min(octave_end, lo + max(1, _BLOCK_ELEMENTS // (n - lo)))
            blocks.append((lo, hi))
            lo = hi
        octave *= 2
    return blocks


def _ratio_kernel(g: np.ndarray, t: np.ndarray, exponent: float):
    """The block evaluator of the samples g (n, n_entries) at times t.

    Returns ratios(lo, hi), the (hi - lo, n - lo) array R with, for m = lo + k,

        R[k, i] = max_entries |g[i+m] - g[i]|^2 / |t[i+m] - t[i]|^exponent,  i < n - m,

    and R[k, i] = 0 for i >= n - m.  Every ratio is bitwise the (i, i+m)
    entry of the dense n x n ratio matrix: the same differences, the same gap
    computed from t, the same operations.

    R lives in a buffer that the next call overwrites: reduce it before
    asking for the next block.
    """
    n, n_entries = g.shape
    # Row k of a block reads samples lo + k + i, past the end for the last
    # rows: pad with zeros at infinite times, and zero those ratios.
    pad = np.zeros((n, n_entries), dtype=g.dtype)
    windows = sliding_window_view(np.concatenate([g, pad]), n - 1, axis=0)
    t_windows = sliding_window_view(np.concatenate([t, np.full(n, np.inf)]), n - 1)
    size = max(_BLOCK_ELEMENTS, n)
    ratio_buf, gap_buf = np.empty(size), np.empty(size)
    sq_buf = np.empty(size) if n_entries > 1 else None
    diff_buf = np.empty(size, dtype=g.dtype) if np.iscomplexobj(g) else None

    def ratios(lo: int, hi: int) -> np.ndarray:
        width, rows = n - lo, hi - lo
        R = ratio_buf[:rows * width].reshape(rows, width)
        for e in range(n_entries):
            sq = R if e == 0 else sq_buf[:rows * width].reshape(rows, width)
            if diff_buf is None:     # x * x == |x|^2 for real x
                np.subtract(windows[lo:hi, e, :width], g[:width, e], out=sq)
                np.multiply(sq, sq, out=sq)
            else:
                diff = diff_buf[:rows * width].reshape(rows, width)
                np.subtract(windows[lo:hi, e, :width], g[:width, e], out=diff)
                np.abs(diff, out=sq)
                np.multiply(sq, sq, out=sq)
            if e > 0:
                np.maximum(R, sq, out=R)
        if exponent:        # gap^0 == 1: nothing to divide by
            gap = gap_buf[:rows * width].reshape(rows, width)
            np.subtract(t_windows[lo:hi, :width], t[:width], out=gap)   # > 0
            gap **= exponent    # the operator's fast paths, as in gap ** exponent
            R /= gap
        if rows > 1:        # row k is valid for i < width - k
            tail = R[:, width - rows + 1:]
            tail[np.add.outer(np.arange(rows), np.arange(rows - 1)) >= rows - 1] = 0.0
        return R

    return ratios


def _lag_blocks(g: np.ndarray, t: np.ndarray, exponent: float, max_lag: int | None = None):
    """Pairwise ratios of the samples g (n, n_entries) at times t, by lag:
    yields (lags, R) for each block of `_lag_partition` of the lags
    1..max_lag, with R the block's `_ratio_kernel` ratios (row k is lag
    lags[k]).  R is overwritten by the next block."""
    n = g.shape[0]
    max_lag = n - 1 if max_lag is None else min(max_lag, n - 1)
    ratios = _ratio_kernel(g, t, exponent)
    for lo, hi in _lag_partition(n, max_lag):
        yield np.arange(lo, hi), ratios(lo, hi)


def _family_sup(values: np.ndarray, fam: IntervalFamily) -> SeminormValue:
    """The largest positive value over the family; the first in family order wins."""
    k = int(np.argmax(values))
    best = float(values[k])
    return SeminormValue(
        best if best > 0 else 0.0,
        achieving_interval=fam.seconds(fam.intervals[k]) if best > 0 else None,
    )


def bmo_seminorm(f: TimeSignal, fam: IntervalFamily) -> SeminormValue:
    """sup over the family of the mean of |f - f_I| on I.

    Matrix values: per-entry mean oscillation, then max over entries.
    Intervals of one length are evaluated together; ties go to the first
    interval in family order.
    """
    if not f.grid.compatible(fam.grid):
        raise FamilyError("family grid does not match signal grid")
    cols = np.ascontiguousarray(f.values.reshape(f.n, -1).T)
    starts, ends = fam.bounds
    lengths = ends - starts
    osc = np.empty(len(fam))
    for ell in np.unique(lengths):
        which = np.flatnonzero(lengths == ell)
        windows = sliding_window_view(cols, ell, axis=1)
        step = max(1, _BLOCK_ELEMENTS // (ell * cols.shape[0]))
        for k in range(0, len(which), step):
            part = which[k:k + step]
            seg = windows[:, starts[part]]                   # (entries, intervals, ell)
            dev = np.abs(seg - seg.mean(axis=2, keepdims=True)).mean(axis=2)
            osc[part] = dev.max(axis=0)
    return _family_sup(osc, fam)


# Relative distance below which two half-Sobolev values count as tied: far
# above the rounding of either summation order, far below any real gap.
_TIE_RTOL = 1e-10

# First lag that `scale_invariant_half_sobolev` takes from the autocorrelation
# identity on scalar samples.  The identity gets |x[i+m] - x[i]|^2 as a
# difference of sums of |x|^2, which cancels badly where the increments are
# small against the samples: at small lags of smooth data.  Below this lag the
# increments are summed pair by pair; at 32, a Lipschitz signal at n = 4096
# agrees with the pairwise sums to 2e-14 relative (1.5e-12 with no direct lags).
_FFT_MIN_LAG = 32


def scale_invariant_half_sobolev(f: TimeSignal, fam: IntervalFamily) -> SeminormValue:
    """sup_I (1/len(I)) * iint_{IxI} |f(t)-f(s)|^2 / |t-s|^2 ds dt.

    The double quadrature excludes the diagonal cell, so the box sum over
    I x I is twice the sum over lags m >= 1 of the lag sums
    S_I(m) = sum_i |f[i+m] - f[i]|^2, weighted by 1/(m dt)^2.

    Lags m < _FFT_MIN_LAG (every lag, for matrix samples) come from
    `_lag_blocks`: each lag's ratio row is prefix-summed once, and an
    interval [a, b) longer than m gets P_m[b - m] - P_m[a] from it.  Matrix
    samples take the maximum over entries of each pair, which no
    autocorrelation expresses, so they stay on this path, O(n^2) per family.

    Lags m >= _FFT_MIN_LAG of scalar samples come from the autocorrelation
    identity, see `_autocorrelation_lag_sums`: with x the segment on I minus
    its own mean and Q_k the sum of |x_i|^2 over i < k,

        S_I(m) = (Q_L - Q_m) + Q_{L-m} - 2 Re c(m),    L = len(I),

    where c is the autocorrelation of x from one zero-padded transform of
    length 2L.  Intervals of one length are transformed together, so a dyadic
    family costs O(n log^2 n).  Mean subtraction and the direct small lags
    keep the cancellation of the identity off smooth data.  Memory is O(n)
    on either path.

    Intervals whose values tie with the largest to within _TIE_RTOL (shifted
    copies of a periodic signal, say) are told apart by rounding alone; they
    are re-evaluated in the summation order of `_prefix_box_sums`, so a tie
    always goes to the same interval.
    """
    if not f.grid.compatible(fam.grid):
        raise FamilyError("family grid does not match signal grid")
    g, t, dt = f.values.reshape(f.n, -1), f.grid.points, f.grid.dt
    starts, ends = fam.bounds
    order = np.argsort(starts - ends, kind="stable")     # longest first
    a, b = starts[order], ends[order]
    longest = b[0] - a[0]
    cutoff = min(_FFT_MIN_LAG, longest) if g.shape[1] == 1 else longest
    box = np.zeros(len(fam))
    prefix_buf = np.empty(_BLOCK_ELEMENTS + 2 * f.n)
    for lags, R in _lag_blocks(g, t, 2.0, max_lag=cutoff - 1):
        P = prefix_buf[:R.size + len(lags)].reshape(len(lags), R.shape[1] + 1)
        P[:, 0] = 0.0
        np.cumsum(R, axis=1, out=P[:, 1:])
        c = int(np.count_nonzero(b - a > lags[0]))
        step = max(1, _BLOCK_ELEMENTS // c)
        for k in range(0, len(lags), step):
            m = lags[k:k + step, None]
            Pk = P[k:k + step]
            top = b[:c] - m
            inside = top > a[:c]
            part = (np.take_along_axis(Pk, np.where(inside, top, 0), axis=1)
                    - Pk[:, a[:c]])
            box[:c] += np.where(inside, part, 0.0).sum(axis=0)
    if cutoff < longest:
        box += _autocorrelation_lag_sums(g[:, 0], a, b - a, cutoff, dt)
    vals = np.empty(len(fam))
    vals[order] = 2.0 * box * dt * dt / ((b - a) * dt)
    tied = np.flatnonzero(vals >= vals.max() * (1.0 - _TIE_RTOL))
    if len(tied) > 1 and vals[tied[0]] > 0:
        s, e = starts[tied], ends[tied]
        vals = np.zeros(len(fam))
        vals[tied] = _prefix_box_sums(g, t, s, e) * dt * dt / ((e - s) * dt)
    return _family_sup(vals, fam)


def _autocorrelation_lag_sums(v: np.ndarray, starts: np.ndarray, lengths: np.ndarray,
                              lo: int, dt: float) -> np.ndarray:
    """sum_{lo <= m < L} S(m) / (m dt)^2 on each interval [a, a + L) of the
    scalar samples v, with S(m) = sum_i |v[a+i+m] - v[a+i]|^2 taken from the
    autocorrelation identity of `scale_invariant_half_sobolev`.

    c(m) = sum_i x_{i+m} conj(x_i) comes from a transform zero-padded to 2L
    (rfft for real samples, fft for complex ones), so no circular term wraps
    in.  The mean is taken relative to the first sample, which makes x
    exactly 0 on a constant segment.  S(m) is clipped at 0 against rounding.
    """
    out = np.zeros(len(starts))
    real = not np.iscomplexobj(v)
    for ell in np.unique(lengths[lengths > lo]):
        which = np.flatnonzero(lengths == ell)
        lags = np.arange(lo, ell)
        weights = 1.0 / (lags * dt) ** 2
        windows = sliding_window_view(v, ell)
        size = 2 * ell
        step = max(1, _BLOCK_ELEMENTS // size)
        for k in range(0, len(which), step):
            part = which[k:k + step]
            seg = windows[starts[part]]                          # (intervals, ell)
            first = seg[:, :1]
            x = seg - (first + (seg - first).mean(axis=1, keepdims=True))
            sq = x * x if real else x.real ** 2 + x.imag ** 2
            Q = np.zeros((len(part), ell + 1))
            np.cumsum(sq, axis=1, out=Q[:, 1:])
            if real:
                X = np.fft.rfft(x, size)
                corr = np.fft.irfft(X.real ** 2 + X.imag ** 2, size)[:, lo:ell]
            else:
                X = np.fft.fft(x, size)
                corr = np.fft.ifft(X.real ** 2 + X.imag ** 2)[:, lo:ell].real
            S = Q[:, ell:] - Q[:, lo:ell] + Q[:, ell - lo:0:-1] - 2.0 * corr
            np.maximum(S, 0.0, out=S)
            out[part] = S @ weights
    return out


def _prefix_box_sums(g: np.ndarray, t: np.ndarray, starts: np.ndarray,
                     ends: np.ndarray) -> np.ndarray:
    """Box sums of the ratio matrix R (exponent 2) over [a, b) x [a, b), each
    rounded as a 2-D prefix sum S = R.cumsum(0).cumsum(1) gives it:
    S[b-1, b-1] - (S[a-1, b-1] + S[b-1, a-1] - S[a-1, a-1]).

    Rows of R are streamed a block at a time, so memory is O(n), but every
    entry of the leading (max b) x (max b) corner is visited: this is the
    tie-breaker of `scale_invariant_half_sobolev`, not its main path.
    """
    n = int(ends.max())
    rows = np.concatenate([ends, starts, ends, starts]) - 1
    cols = np.concatenate([ends, ends, starts, starts]) - 1
    corner = np.zeros(len(rows))
    wanted = np.flatnonzero(cols >= 0)          # S[-1, .] and S[., -1] are 0
    wanted = wanted[np.argsort(rows[wanted], kind="stable")]
    wanted_rows = rows[wanted]
    column_sums = np.zeros(n)                   # R[:k].sum(axis=0), in row order
    step = max(1, _BLOCK_ELEMENTS // n)
    for k0 in range(0, n, step):
        k1 = min(n, k0 + step)
        diag = (np.arange(k1 - k0), np.arange(k0, k1))
        R = np.zeros((k1 - k0, n))
        for col in g[:n].T:
            np.maximum(R, np.abs(col[k0:k1, None] - col[None, :]) ** 2, out=R)
        gap = np.abs(t[k0:k1, None] - t[None, :n])
        gap[diag] = 1.0
        R /= gap ** 2.0
        R[diag] = 0.0
        R[0] += column_sums
        C = np.cumsum(R, axis=0)
        column_sums = C[-1]
        S = np.cumsum(C, axis=1)
        lo, hi = np.searchsorted(wanted_rows, [k0, k1])
        pick = wanted[lo:hi]
        corner[pick] = S[rows[pick] - k0, cols[pick]]
    s_bb, s_ab, s_ba, s_aa = corner.reshape(4, -1)
    return np.where(starts > 0, s_bb - (s_ab + s_ba - s_aa), s_bb)


# Relative margin on the block bounds of `holder_constant`: far above the few
# ulps by which a computed ratio can exceed its bound (|.| of a complex
# difference and the power are each rounded once), far below any real gap.
_BOUND_RTOL = 1e-9


def _block_bounds(g: np.ndarray, t: np.ndarray, exponent: float,
                  blocks: list[tuple[int, int]]) -> np.ndarray:
    """For each lag block [lo, hi), an upper bound on its `_ratio_kernel`
    ratios: W_j / gmin(lo)^exponent, for the octave j of lo.

    Every pair (i, i+m) with m < 2^(j+1) lies in a window of 2^(j+1)
    samples, so |g[i+m] - g[i]|^2 <= W_j, the largest squared range of the
    real and imaginary parts of an entry over such a window.  The windowed
    maxima and minima double once per octave, in place, so memory is O(n).
    gmin(lo) is the least gap t[i+lo] - t[i], computed as the kernel computes
    it; t increases, and rounding is monotone, so it is at most every gap of
    the block.
    """
    n = len(t)
    parts = [g.real, g.imag] if np.iscomplexobj(g) else [g]
    highs, lows = [p.copy() for p in parts], [p.copy() for p in parts]
    W, width = [], 1       # highs/lows: extremes over [i, i + width) of each entry
    while width <= n - 1:
        for top, bottom in zip(highs, lows):
            top[:n - width] = np.maximum(top[:n - width], top[width:])
            bottom[:n - width] = np.minimum(bottom[:n - width], bottom[width:])
        width *= 2
        W.append(sum((top - bottom) ** 2 for top, bottom in zip(highs, lows)).max())
    gmin = np.array([(t[lo:] - t[:n - lo]).min() for lo, _ in blocks])
    octave = [lo.bit_length() - 1 for lo, _ in blocks]
    return np.asarray(W)[octave] / gmin ** exponent


def holder_constant(f: TimeSignal, a: float) -> SeminormValue:
    """max over grid pairs of |f(t)-f(s)| / |t-s|^alpha.

    Ties go to the pair (s, t) with the earliest s, then the earliest t.

    The lag blocks of `_lag_partition` are visited in decreasing order of
    the bound W_j / gmin(lo)^(2 alpha) on their ratios (see `_block_bounds`),
    and the search stops at the first block whose bound, times
    1 + _BOUND_RTOL (1e-9), lies below the largest ratio found so far.  The
    result is bitwise the exhaustive one.  Rounding is monotone, so a
    computed ratio exceeds its block's bound by a few ulps at most (the
    rounded |.| of a complex difference and the rounded power), far inside
    the margin: a block that stops the search can neither reach nor tie the
    maximum.  And the tie rule compares index pairs, never the visit order.
    A step stops after one block; a signal whose ratio is near its maximum
    at every lag, like sqrt|t - t0| at alpha = 1/2, visits nearly all.
    """
    alpha = frac_order(a)
    if f.n < 2:
        raise FamilyError("degenerate grid")
    g, t, exponent = f.values.reshape(f.n, -1), f.grid.points, 2.0 * alpha
    blocks = _lag_partition(f.n, f.n - 1)
    bounds = _block_bounds(g, t, exponent, blocks)
    ratios = _ratio_kernel(g, t, exponent)
    best, (i, j) = 0.0, (0, 0)      # all ratios zero: the pair (t_0, t_0)
    for k in np.argsort(-bounds, kind="stable"):
        if bounds[k] == 0.0 or bounds[k] * (1.0 + _BOUND_RTOL) < best:
            break
        lo, hi = blocks[k]
        R = ratios(lo, hi)
        top = R.max()
        if top == 0.0 or top < best:
            continue
        rows, starts = np.nonzero(R == top)
        first = starts.min()
        pair = (first, first + lo + rows[starts == first].min())
        if top > best or pair < (i, j):
            best, (i, j) = top, pair
    iv = (min(t[i], t[j]), max(t[i], t[j]))
    return SeminormValue(float(np.sqrt(best)), achieving_interval=iv)


def check_dini_exponent(q: float) -> None:
    """Raise ValueError unless q lies in [1, 2], the exponents the Dini
    condition is stated for."""
    if not (1.0 <= q <= 2.0):
        raise ValueError(f"Dini exponent must lie in [1, 2], got {q}")


def dini_integral(f: TimeSignal, q: float) -> SeminormValue:
    """int_0^T sup_s |f(t+s)-f(s)|^q dt / t^(1+q/2), truncated below at one
    cell: the lags m = 1 .. n - 1.

    The per-octave increments of the lag sum are stored in extra["octave_increments"]
    (finest lag octave first); they drive the divergence detector.
    """
    check_dini_exponent(q)
    dt, m_max = f.grid.dt, f.n - 1
    sup = np.empty(m_max)
    for lags, R in _lag_blocks(f.values.reshape(f.n, -1), f.grid.points, 0.0):
        sup[lags - 1] = np.sqrt(R.max(axis=1))
    lags = np.arange(1, m_max + 1)
    weights = dt / ((lags * dt) ** (1.0 + q / 2.0))
    terms = sup**q * weights
    value = float(terms.sum())
    # octave increments: contribution of lags in [2^j, 2^(j+1)) cells
    incs = []
    j = 0
    while (1 << j) <= m_max:
        lo, hi = (1 << j) - 1, min((1 << (j + 1)) - 1, m_max)
        incs.append(float(terms[lo:hi].sum()))
        j += 1
    best = int(np.argmax(terms))
    return SeminormValue(
        value,
        achieving_interval=(0.0, float((best + 1) * dt)),
        extra={"octave_increments": incs},
    )


# ---------------------------------------------------------------------------
# divergence detection


@dataclass
class DivergenceVerdict:
    divergent: bool | None      # None: not measurable on this grid
    growth_factors: list[float]


def refinement_verdict(values: list[float], threshold: float = 1.25) -> DivergenceVerdict:
    """Declare a functional infinite when it grows by >= (threshold-1) per
    dyadic refinement across at least three consecutive resolutions."""
    if len(values) < 3:
        raise ValueError("need values at >= 3 consecutive dyadic resolutions")
    vals = [float(v) for v in values]
    factors = [b / a if a > 0 else np.inf for a, b in zip(vals, vals[1:])]
    return DivergenceVerdict(all(f >= threshold for f in factors), factors)


def dini_verdict(sem: SeminormValue) -> DivergenceVerdict:
    """Divergence verdict for a dini_integral result via its octave increments.

    Octave j covers lags in [2^j, 2^(j+1)) grid cells, finest first; grid
    refinement extends the list at the fine end, so the integral converges
    under refinement iff the increments decay toward the fine end, i.e. iff
    log2(increment) grows in the octave index.  Logarithmic divergence shows
    up as a flat profile.  We fit log2(increment) against octave index over
    the finest octaves — skipping the two finest, which carry the one-cell
    quadrature-truncation spike — and flag divergence when the slope is
    <= 0.05.  Fewer than six octaves (n < 64) cannot be fitted: the verdict
    is then None, unless every increment is zero (the integral is exactly 0).
    """
    inc = np.asarray([max(v, 0.0) for v in sem.extra.get("octave_increments", [])],
                     dtype=float)
    if not inc.any():
        return DivergenceVerdict(False, [])
    # the two skipped octaves and at least 4 fitted ones, all positive
    if len(inc) < 6:
        return DivergenceVerdict(None, [])
    if not np.all(inc[:6] > 0):
        return DivergenceVerdict(False, [])
    k = max(6, (len(inc) * 2) // 3)  # finest two thirds; coarse lags saturate
    head = inc[2:k]
    head = head[head > 0]
    x = np.arange(len(head), dtype=float)
    y = np.log2(head)
    slope = float(np.polyfit(x, y, 1)[0])
    return DivergenceVerdict(slope <= 0.05, [slope])
