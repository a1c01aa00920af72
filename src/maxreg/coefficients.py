"""Coefficient fields A(t, x): generation, certification, extension, smoothing.

Fields are sampled on a time grid (axis 0) and at the spatial cell midpoints
of a mesh (axis 1), with matrix dimension d per sample (d = 1 for the 1-D
solver).  The extension machinery reproduces, sample-exactly, the two-step
construction that turns a coefficient on [0, T] into one on the whole
(periodized) line: even reflection to [-T, 2T], then a linear cutoff blend
against the constant lower-bound matrix.
"""
from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .fem import SpaceMesh
from .timefourier import TimeGrid, TimeSignal, UniformGrid, fourier_multiplier, stored_samples


class CoefficientError(ValueError):
    """Bad coefficient data or parameters."""


class NotElliptic(CoefficientError):
    """Certified lower bound is non-positive; field rejected for solver use."""


@dataclass
class CoefficientField:
    """Samples of A(t, x).  `lam`/`Lam` are the certificate of these samples,
    computed at every construction (`dataclasses.replace` included); a field
    whose certified lower bound is not positive cannot be built.

    `values` are stored C-contiguous by the rule of `stored_samples`:
    float64 when every imaginary part is zero (integer input included), and
    complex128 otherwise."""

    time_grid: UniformGrid
    mesh: SpaceMesh
    values: np.ndarray  # (nt, nx, d, d) float64 or complex128
    T: float
    kind: str = "custom"
    seed: int | None = None
    lam: float = field(init=False)
    Lam: float = field(init=False)

    def __post_init__(self):
        self.values = np.ascontiguousarray(stored_samples(self.values))
        if self.values.ndim == 2:  # scalar field shorthand
            self.values = self.values[:, :, None, None]
        nt, nx, d1, d2 = self.values.shape
        if nt != self.time_grid.n_points or nx != self.mesh.n_cells or d1 != d2:
            raise CoefficientError(
                f"values shape {self.values.shape} inconsistent with grid/mesh"
            )
        self.lam, self.Lam = certify_ellipticity(self.values)
        if self.lam <= 0:
            raise NotElliptic(f"certified lower bound {self.lam} <= 0")

    @property
    def dim(self) -> int:
        return self.values.shape[-1]

    @property
    def n_t(self) -> int:
        return self.time_grid.n_points

    def column(self, ix: int) -> TimeSignal:
        """A(., x) at spatial sample ix as a time signal.

        Scalar (1x1) coefficients come back as a plain (n,) signal so they
        compose directly with the multiplier-based operators; matrix-valued
        ones keep their trailing (d, d) axes.  The samples are a copy, so a
        held column does not pin the whole field.
        """
        col = self.values[:, ix]
        if self.dim == 1:
            col = col[:, 0, 0]
        return TimeSignal(self.time_grid, col.copy())

    def scalar_cells(self) -> np.ndarray:
        """(nt, nx) scalar samples; requires dim == 1 (the solver's case)."""
        if self.dim != 1:
            raise CoefficientError("solver path requires scalar (1x1) coefficients")
        return self.values[:, :, 0, 0]


def certify_ellipticity(A: CoefficientField | np.ndarray) -> tuple[float, float]:
    """Largest lambda and smallest Lambda valid over all samples.

    lambda_hat = min eigenvalue of the Hermitian part, Lambda_hat = max
    spectral norm; both over every (t, x) sample.  A 1x1 sample a has the
    closed form Re a and |a|, with |a| = w sqrt(1 + (v/w)^2), w >= v the
    moduli of Re a and Im a: LAPACK's rounding, so it is bitwise the svd's.
    For real 1x1 samples that form is min(a) and max|a|, bit for bit.
    """
    vals = A.values if isinstance(A, CoefficientField) else np.asarray(A)
    mats = vals.reshape(-1, vals.shape[-2], vals.shape[-1])
    if not np.all(np.isfinite(mats)):
        raise CoefficientError("coefficient contains non-finite samples")
    if mats.shape[-1] == 1:
        a = mats[:, 0, 0]
        if not np.iscomplexobj(a):
            return float(a.min()), float(np.abs(a).max())
        # in place: at most three real arrays of the sample count at once
        v, im = np.abs(a.real), np.abs(a.imag)
        w = np.maximum(v, im)
        np.minimum(v, im, out=v)
        del im
        np.divide(v, w, out=v, where=w > 0)  # v = 0 where w = 0
        v *= v
        v += 1.0
        np.sqrt(v, out=v)
        v *= w
        return float(a.real.min()), float(v.max())
    herm = 0.5 * (mats + np.conj(np.swapaxes(mats, -1, -2)))
    lam_hat = float(np.linalg.eigvalsh(herm)[:, 0].min())
    Lam_hat = float(np.linalg.svd(mats, compute_uv=False)[:, 0].max())
    return lam_hat, Lam_hat


def cutoff_profile(grid: UniformGrid, T: float) -> np.ndarray:
    """Linear cutoff on the grid's points: 1 on [0, T], 0 outside
    [-T/2, 3T/2], Lipschitz 2/T."""
    t = grid.points
    left = 1.0 + 2.0 * t / T          # ramp on [-T/2, 0]
    right = 1.0 - 2.0 * (t - T) / T   # ramp on [T, 3T/2]
    return np.clip(np.minimum(left, right), 0.0, 1.0)


def _check_base_window(A: CoefficientField):
    if abs(A.time_grid.t_start) > 1e-12 * A.T or not np.isclose(A.time_grid.period, A.T):
        raise CoefficientError("extension expects a coefficient sampled on [0, T)")


def _reflect(v: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Samples v on [0, T) reflected evenly to [-T, 2T): A(-t) on (-T, 0) and
    A(2T - t) on (T, 2T); the t = -T and t = T endpoints take the last
    available sample (half-open grid convention)."""
    return np.concatenate((v[-1:], v[:0:-1], v, v[-1:], v[:0:-1]), out=out)


def extend_reflect(A: CoefficientField) -> CoefficientField:
    """Even reflection of A from [0, T) to [-T, 2T): first about t = 0, then
    about t = T (the only pivot that reaches [-T, 2T]).  Ellipticity
    certificate is unchanged."""
    _check_base_window(A)
    # 3n is never a power of two: the reflected block is a sample container
    # on a plain uniform grid, never an FFT carrier.
    return replace(
        A,
        time_grid=UniformGrid(-A.T, 2 * A.T, 3 * A.n_t),
        values=_reflect(A.values),
        kind=A.kind + "+reflect",
    )


def extend_full(A: CoefficientField, window_factor: int = 4) -> CoefficientField:
    """Blend the reflected extension against the constant field lam * I:
    full = cutoff * reflected + (1 - cutoff) * lam * I on [-T, (wf-1) T).

    Restricted to [0, T) this is the identity on the input samples, bit exact.
    window_factor >= 4 keeps [-T, 2T] inside the window.
    """
    _check_base_window(A)
    if window_factor < 4:
        raise CoefficientError("window must cover [-T, 3T] at least")
    grid = TimeGrid(-A.T, (window_factor - 1) * A.T, window_factor * A.n_t)
    out = np.zeros((grid.n_points,) + A.values.shape[1:], dtype=A.values.dtype)
    _reflect(A.values, out=out[: 3 * A.n_t])   # zero beyond the reflected block
    # blended in place, so the certificate's scratch is the only copy made
    phi = cutoff_profile(grid, A.T)[:, None, None, None]
    out *= phi
    out += (1.0 - phi) * (A.lam * np.eye(A.dim))
    return replace(A, time_grid=grid, values=out, kind=A.kind + "+extend")


def mollifier_kernel(grid: TimeGrid, n: int) -> np.ndarray:
    """Discrete rho_n(t) = n*rho(n*t) on the periodized grid, unit discrete mass.

    rho is the standard smooth bump exp(-1/(1-t^2)) on (-1, 1).
    """
    if n < 1:
        raise CoefficientError(f"mollifier index must be >= 1, got {n}")
    dt = grid.dt
    m = grid.n_points
    offset = dt * np.arange(m)
    offset[m // 2 :] -= grid.period  # centered offsets
    s = n * offset
    w = np.zeros(m)
    inside = np.abs(s) < 1.0
    w[inside] = np.exp(-1.0 / (1.0 - s[inside] ** 2))
    total = w.sum() * dt
    if total == 0.0:
        w[0] = 1.0 / dt  # kernel narrower than one cell: identity
        return w
    return w / total


def mollify(A: CoefficientField, n: int) -> CoefficientField:
    """Circular convolution in time with the unit-mass bump rho_n.

    A convex average of samples, so its own certificate is at least as tight
    as A's.  Real samples give real samples: the real part of the transform.
    """
    kern = mollifier_kernel(A.time_grid, n)
    smoothed = fourier_multiplier(A.values, np.fft.fft(kern)) * A.time_grid.dt
    if not np.iscomplexobj(A.values):
        smoothed = smoothed.real
    return replace(A, values=smoothed, kind=A.kind + f"+mollify{n}")


# ---------------------------------------------------------------------------
# built-in families

FAMILY_KINDS = ("constant", "sqrt_product", "holder", "lipschitz", "step")
SPACE_PROFILES = ("constant", "cosine")     # the x-profiles of sqrt_product


def _holder_series(grid: TimeGrid, alpha: float, seed: int) -> np.ndarray:
    """Seeded lacunary (Weierstrass-type) series with Hoelder exponent alpha.

    Octave phases are drawn in fixed order, so refining the grid keeps the
    shared low octaves identical and appends finer ones.
    """
    rng = np.random.default_rng(seed)
    t = (grid.points - grid.t_start) / grid.period
    J = int(np.log2(grid.n_points)) - 2
    w = np.zeros(grid.n_points)
    norm = sum(2.0 ** (-j * alpha) for j in range(1, J + 1))
    for j in range(1, J + 1):
        phase = rng.uniform(0, 2 * np.pi)
        w += 2.0 ** (-j * alpha) * np.cos(2 * np.pi * (2**j) * t + phase)
    return w / norm  # sup norm <= 1


def generate_family(
    kind: str,
    time_grid: TimeGrid,
    mesh: SpaceMesh,
    *,
    seed: int = 0,
    amp: float = 0.5,
    alpha: float = 0.5,
    t0: float | None = None,
    value: float | np.ndarray = 1.0,
    space_profile: str = "constant",
) -> CoefficientField:
    """Certified coefficient field of one of the built-in kinds.

    constant      A = value (scalar or d x d matrix), time/space independent
    sqrt_product  A(t, x) = 1 + |t - t0|^(1/2) a(x), ||a||_inf = amp < 1
    holder        A(t) = 1 + amp * W_alpha(t), W a seeded lacunary series
    lipschitz     A(t) = 1 + (amp/2) * sin(2 pi t / period)
    step          A(t) = 1 - amp/2 on the first half window, 1 + amp/2 after
    """
    nt, nx = time_grid.n_points, mesh.n_cells
    t = time_grid.points
    if kind == "constant":
        prof = np.atleast_2d(value)                  # (d, d) at every (t, x)
    elif kind == "sqrt_product":
        if not (0.0 < amp < 1.0):
            raise CoefficientError("sqrt_product needs 0 < amp < 1 for ellipticity")
        if t0 is None:
            t0 = 0.5 * (time_grid.t_start + time_grid.t_end)
        if space_profile == "constant":
            a_x = np.full(nx, amp)
        elif space_profile == "cosine":
            xm = (mesh.midpoints - mesh.x_lo) / (mesh.x_hi - mesh.x_lo)
            a_x = amp * np.cos(np.pi * xm)
        else:
            raise CoefficientError(f"unknown space_profile {space_profile!r}")
        root = np.sqrt(np.abs(t - t0))
        prof = (1.0 + root[:, None] * a_x[None, :])[:, :, None, None]
        if prof.min() <= 0:
            raise CoefficientError("sqrt_product parameters violate ellipticity")
    elif kind == "holder":
        if not (0.0 < alpha < 1.0):
            raise CoefficientError("holder kind needs alpha in (0, 1)")
        if not (0.0 < amp < 1.0):
            raise CoefficientError("holder kind needs 0 < amp < 1 for ellipticity")
        w = _holder_series(time_grid, alpha, seed)
        prof = (1.0 + amp * w)[:, None, None, None]
    elif kind == "lipschitz":
        prof = 1.0 + 0.5 * amp * np.sin(2 * np.pi * (t - time_grid.t_start) / time_grid.period)
        prof = prof[:, None, None, None]
    elif kind == "step":
        if not (0.0 < amp < 2.0):
            raise CoefficientError("step kind needs 0 < amp < 2 for ellipticity")
        mid = time_grid.t_start + 0.5 * time_grid.period
        prof = np.where(t < mid, 1.0 - 0.5 * amp, 1.0 + 0.5 * amp)[:, None, None, None]
    else:
        raise CoefficientError(f"unknown family kind {kind!r}; choose from {FAMILY_KINDS}")
    return CoefficientField(
        time_grid=time_grid,
        mesh=mesh,
        values=np.broadcast_to(prof, (nt, nx) + prof.shape[-2:]).copy(),
        T=time_grid.period,
        kind=kind,
        seed=seed,
    )


# ---------------------------------------------------------------------------
# serialization: JSON header + little-endian complex128 binary block


def save_field(A: CoefficientField, path_prefix: str) -> tuple[str, str]:
    """Write <prefix>.json (header) and <prefix>.bin (little-endian complex128,
    C order, shape in the header), real fields too: `load_field` stores
    them as float64 again.  Returns the two paths."""
    import json

    header = {
        "schema": "maxreg.coefficient/1",
        "time_grid": {
            "t_start": A.time_grid.t_start,
            "t_end": A.time_grid.t_end,
            "n_points": A.time_grid.n_points,
        },
        "mesh": {
            "x_lo": A.mesh.x_lo,
            "x_hi": A.mesh.x_hi,
            "n_cells": A.mesh.n_cells,
            "bc_left": A.mesh.bc_left,
            "bc_right": A.mesh.bc_right,
        },
        "lambda": A.lam,
        "Lambda": A.Lam,
        "T": A.T,
        "kind": A.kind,
        "seed": A.seed,
        "shape": list(A.values.shape),
        "dtype": "<c16",
    }
    jpath, bpath = path_prefix + ".json", path_prefix + ".bin"
    with open(jpath, "w") as fh:
        json.dump(header, fh, indent=2)
    A.values.astype("<c16").tofile(bpath)
    return jpath, bpath


def load_field(path_prefix: str) -> CoefficientField:
    import json

    with open(path_prefix + ".json") as fh:
        header = json.load(fh)
    tg = header["time_grid"]
    ms = header["mesh"]
    vals = np.fromfile(path_prefix + ".bin", dtype="<c16").reshape(header["shape"])
    return CoefficientField(
        time_grid=TimeGrid(tg["t_start"], tg["t_end"], tg["n_points"]),
        mesh=SpaceMesh(ms["x_lo"], ms["x_hi"], ms["n_cells"], ms["bc_left"], ms["bc_right"]),
        values=vals,
        T=header["T"],
        kind=header["kind"],
        seed=header["seed"],
    )
