"""Periodized time line: grids, signals, and Fourier-symbol operators.

All fractional-calculus operators in this package act on a uniform,
periodized time window.  Symbols are exact on the torus; experiments are
responsible for keeping their data supported well inside the window
(default guard band: data in the middle 50%).

Conventions, fixed once and for all:
  * frequencies are tau_k = 2*pi*k/period for k = -n/2 .. n/2-1,
  * the half derivative has symbol |tau|**alpha with the zero mode mapped
    to 0 (calculus modulo constants on the torus),
  * the Hilbert transform has symbol i*sgn(tau).  The coercivity identity
    of the space-time solver depends on this sign; do not flip it.
"""
from __future__ import annotations

from dataclasses import dataclass
from numbers import Integral

import numpy as np


class GridError(ValueError):
    """Incompatible or malformed time grid."""


class SignalError(ValueError):
    """Malformed signal data (non-finite samples, shape mismatch...)."""


def _is_pow2(n: int) -> bool:
    return n >= 1 and (n & (n - 1)) == 0


@dataclass(frozen=True)
class UniformGrid:
    """Uniform grid with n_points samples on [t_start, t_end)."""

    t_start: float
    t_end: float
    n_points: int

    def __post_init__(self):
        if not self.t_end > self.t_start:
            raise GridError(f"need t_end > t_start, got [{self.t_start}, {self.t_end}]")
        if not isinstance(self.n_points, Integral) or isinstance(self.n_points, bool):
            raise GridError(f"n_points must be an integer, got {self.n_points!r}")
        if self.n_points < 2:
            raise GridError(f"n_points must be >= 2, got {self.n_points}")

    @property
    def period(self) -> float:
        return self.t_end - self.t_start

    @property
    def dt(self) -> float:
        return self.period / self.n_points

    @property
    def points(self) -> np.ndarray:
        return self.t_start + self.dt * np.arange(self.n_points)

    def compatible(self, other: "UniformGrid") -> bool:
        return (
            self.n_points == other.n_points
            and np.isclose(self.t_start, other.t_start)
            and np.isclose(self.t_end, other.t_end)
        )


@dataclass(frozen=True)
class TimeGrid(UniformGrid):
    """Uniform power-of-two grid on [t_start, t_end), periodized: an FFT carrier."""

    def __post_init__(self):
        super().__post_init__()
        if self.n_points < 8 or not _is_pow2(self.n_points):
            raise GridError(f"n_points must be a power of two >= 8, got {self.n_points}")

    @property
    def frequencies(self) -> np.ndarray:
        """Angular frequencies 2*pi*k/period in FFT order."""
        return 2.0 * np.pi * np.fft.fftfreq(self.n_points, d=self.dt)


def frac_order(alpha: float) -> float:
    """alpha as a float, once it is a fractional differentiation order: in (0, 1]."""
    if not (0.0 < alpha <= 1.0):
        raise ValueError(f"fractional order must lie in (0, 1], got {alpha}")
    return float(alpha)


@dataclass
class TimeSignal:
    """Samples of a (possibly vector/matrix valued) function of time.

    values has shape (n_points, ...); the leading axis is time.
    """

    grid: UniformGrid
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values)
        if self.values.shape[0] != self.grid.n_points:
            raise SignalError(
                f"values leading axis {self.values.shape[0]} != n_points {self.grid.n_points}"
            )

    @property
    def n(self) -> int:
        return self.grid.n_points

    def check_finite(self):
        if not np.all(np.isfinite(self.values)):
            raise SignalError("signal contains non-finite samples")


def fourier_multiplier(values: np.ndarray, symbol: np.ndarray) -> np.ndarray:
    """ifft(symbol * fft(values)) along axis 0, broadcasting the (n,) symbol
    over any trailing axes of values."""
    shape = (values.shape[0],) + (1,) * (values.ndim - 1)
    return np.fft.ifft(symbol.reshape(shape) * np.fft.fft(values, axis=0), axis=0)


def frac_symbol(tau: np.ndarray, alpha: float) -> np.ndarray:
    """Symbol |tau|**alpha of D_t^alpha; the zero mode maps to 0."""
    return np.abs(tau) ** alpha


def hilbert_symbol(tau: np.ndarray) -> np.ndarray:
    """Symbol i*sgn(tau) of H_t; the zero mode maps to 0."""
    return 1j * np.sign(tau)


def twist_symbol(tau: np.ndarray, delta: float) -> np.ndarray:
    """Symbol 1 + delta*i*sgn(tau) of the twist 1 + delta*H_t."""
    return 1.0 + delta * hilbert_symbol(tau)


def _apply_symbol(u: TimeSignal, symbol: np.ndarray) -> TimeSignal:
    u.check_finite()
    return TimeSignal(u.grid, fourier_multiplier(u.values, symbol))


def frac_derivative(u: TimeSignal, a: float) -> TimeSignal:
    """D_t^alpha: Fourier multiplier |tau|^alpha, zero mode annihilated."""
    return _apply_symbol(u, frac_symbol(u.grid.frequencies, frac_order(a)))


def hilbert_transform(u: TimeSignal) -> TimeSignal:
    """H_t: Fourier multiplier i*sgn(tau), zero mode annihilated."""
    return _apply_symbol(u, hilbert_symbol(u.grid.frequencies))


def twist_operator(u: TimeSignal, delta: float) -> TimeSignal:
    """(1 + delta*H_t)u.  Requires 0 < delta < 1 so the twist is invertible."""
    if not (0.0 < delta < 1.0):
        raise ValueError(f"twist parameter must lie in (0, 1), got {delta}")
    return _apply_symbol(u, twist_symbol(u.grid.frequencies, delta))


def twist_inverse(u: TimeSignal, delta: float) -> TimeSignal:
    """Inverse of (1 + delta*H_t) by symbol division."""
    if not (0.0 < delta < 1.0):
        raise ValueError(f"twist parameter must lie in (0, 1), got {delta}")
    return _apply_symbol(u, 1.0 / twist_symbol(u.grid.frequencies, delta))


def time_inner_product(u: TimeSignal, v: TimeSignal) -> complex:
    """Quadrature-exact inner product dt * sum u * conj(v), conjugate-linear
    in the second slot.  Vector values are contracted over all trailing axes."""
    if not u.grid.compatible(v.grid):
        raise GridError("inner product requires matching grids")
    if u.values.shape != v.values.shape:
        raise SignalError("inner product requires matching value shapes")
    return complex(np.sum(u.values * np.conj(v.values)) * u.grid.dt)


def time_norm(u: TimeSignal) -> float:
    return float(np.sqrt(max(time_inner_product(u, u).real, 0.0)))
