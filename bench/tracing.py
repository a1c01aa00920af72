"""Spans around the calls into maxreg's layers, recorded from outside the package.

`Tracer.install` replaces every public module-level function of the maxreg
layers with a timing wrapper in *every* `maxreg.*` namespace that binds it
(`cli`, `commutators` and `solver` import functions by name, so patching only
the defining module would miss their calls).  It also wraps the `gmres` that
`maxreg.solver` calls together with the two operators it hands over, and
`numpy.fft.fft`/`ifft` for callers inside maxreg.  The wrappers only observe:
arguments and results pass through untouched.

Spans live in memory (name, start, end, parent, case, thread) and parent links
are kept per thread, because sweeps run their points on a thread pool.
"""
from __future__ import annotations

import functools
import inspect
import itertools
import os
import sys
import threading
import time
import tracemalloc

LAYERS = ("timefourier", "bmo", "coefficients", "fem", "norms", "solver",
          "commutators", "report", "cli")
# tracemalloc runs only while one of these is open: tracing every allocation
# of a pass would slow the FFT-heavy probes several-fold.
PEAK_TRACKED = {"coefficients.extend_full", "bmo.scale_invariant_half_sobolev",
                "bmo.holder_constant"}
BMO_FUNCTIONALS = {"bmo_seminorm", "scale_invariant_half_sobolev",
                   "frac_sobolev_seminorm", "holder_constant", "dini_integral"}
MB = 2.0**20


class Span:
    __slots__ = ("id", "name", "start", "end", "parent", "case", "thread",
                 "extra", "_peak")

    def __init__(self, id, name, start, end=None, parent=None, case=None,
                 thread=0, extra=None):
        self.id, self.name, self.start, self.end = id, name, start, end
        self.parent, self.case, self.thread = parent, case, thread
        self.extra = extra if extra is not None else {}
        self._peak = None

    def to_dict(self) -> dict:
        return {"id": self.id, "name": self.name, "start": self.start,
                "end": self.end, "parent": self.parent, "case": self.case,
                "thread": self.thread, **({"extra": self.extra} if self.extra else {})}


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span id -> duration minus the part of [start, end] its children cover."""
    children: dict[int, list[Span]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append(s)
    out = {}
    for s in spans:
        covered, reach = 0.0, s.start
        for c in sorted(children.get(s.id, ()), key=lambda c: c.start):
            lo, hi = max(c.start, reach), min(c.end, s.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out[s.id] = (s.end - s.start) - covered
    return out


class _Namespace:
    """A module stand-in that overrides some attributes and forwards the rest."""

    def __init__(self, real, **overrides):
        self._real = real
        self.__dict__.update(overrides)

    def __getattr__(self, name):
        return getattr(self._real, name)


def _bytes_written(_args, _kwargs, path):
    return {"bytes": os.path.getsize(path)}


def _samples(args, _kwargs, _out):
    vals = getattr(args[0], "values", args[0])
    return {"samples": int(vals.size // (vals.shape[-1] * vals.shape[-2]))}


def _signal_points(args, _kwargs, _out):
    return {"points": int(args[0].values.shape[0])}


def _quantity(layer: str, name: str):
    """What a call of `layer.name` counts besides its time, if anything."""
    if (layer, name) == ("report", "emit_report"):
        return _bytes_written
    if (layer, name) == ("coefficients", "certify_ellipticity"):
        return _samples
    if layer == "bmo" and name in BMO_FUNCTIONALS:
        return _signal_points
    return None


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.case = None
        self._ids = itertools.count()
        self._local = threading.local()
        self._peak_lock = threading.Lock()
        self._open_peaks: list[Span] = []
        self._undo: list[tuple[object, str, object]] = []

    # -- spans -------------------------------------------------------------
    def open(self, name: str) -> Span:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        span = Span(next(self._ids), name, 0.0,
                    parent=stack[-1].id if stack else None, case=self.case,
                    thread=threading.get_ident())
        if name in PEAK_TRACKED:
            with self._peak_lock:
                if not self._open_peaks:
                    tracemalloc.start()
                current, peak = tracemalloc.get_traced_memory()
                for outer in self._open_peaks:
                    outer._peak = max(outer._peak, peak)
                tracemalloc.reset_peak()
                span._peak = current
                span.extra["base"] = current
                self._open_peaks.append(span)
        stack.append(span)
        span.start = time.perf_counter()
        return span

    def close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._local.stack.pop()
        if span._peak is not None:
            with self._peak_lock:
                _, peak = tracemalloc.get_traced_memory()
                self._open_peaks.remove(span)
                for outer in self._open_peaks:
                    outer._peak = max(outer._peak, peak)
                if not self._open_peaks:
                    tracemalloc.stop()
                span.extra["peak_mb"] = (max(span._peak, peak) - span.extra.pop("base")) / MB
        self.spans.append(span)

    def wrap(self, name: str, fn, quantity=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = tracer.open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer.close(span)
            if quantity is not None:
                span.extra.update(quantity(args, kwargs, out))
            return out

        return traced

    # -- installation ------------------------------------------------------
    def _patch(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _gmres(self, gmres, linear_operator):
        tracer = self

        def operator(op, name):
            return linear_operator(op.shape, matvec=tracer.wrap(name, op.matvec),
                                   dtype=op.dtype)

        @functools.wraps(gmres)
        def traced_gmres(A, b, *args, M=None, callback=None, **kwargs):
            count = [0]

            def counting(arg):
                count[0] += 1
                if callback is not None:
                    callback(arg)

            span = tracer.open("solver.gmres")
            try:
                return gmres(operator(A, "solver.matvec"), b, *args,
                             M=None if M is None else operator(M, "solver.precond"),
                             callback=counting, **kwargs)
            finally:
                tracer.close(span)
                span.extra["iterations"] = count[0]

        return traced_gmres

    def _fft(self, name: str, fn):
        traced = self.wrap(f"numpy.fft.{name}", fn,
                           lambda args, _kw, _out: {"points": int(args[0].size)})

        @functools.wraps(fn)
        def dispatch(a, *args, **kwargs):
            if sys._getframe(1).f_globals.get("__name__", "").startswith("maxreg"):
                return traced(a, *args, **kwargs)
            return fn(a, *args, **kwargs)

        return dispatch

    def install(self) -> None:
        import numpy
        import maxreg.cli  # noqa: F401 - loads every layer

        wrappers = {}
        for layer in LAYERS:
            mod = sys.modules[f"maxreg.{layer}"]
            for name, obj in vars(mod).items():
                if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                        and not name.startswith("_")):
                    wrappers[obj] = self.wrap(f"{layer}.{name}", obj, _quantity(layer, name))
        for modname, mod in list(sys.modules.items()):
            if modname == "maxreg" or modname.startswith("maxreg."):
                for attr, obj in list(vars(mod).items()):
                    if inspect.isfunction(obj) and obj in wrappers:
                        self._patch(mod, attr, wrappers[obj])
        solver = sys.modules["maxreg.solver"]
        spla = solver.spla
        self._patch(solver, "spla", _Namespace(
            spla, gmres=self._gmres(spla.gmres, spla.LinearOperator)))
        for name in ("fft", "ifft"):
            self._patch(numpy.fft, name, self._fft(name, getattr(numpy.fft, name)))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    # -- metrics -----------------------------------------------------------
    def metrics(self, passes: int, sweep_cases: set) -> dict:
        """Per-layer metrics, per pass of the workload."""
        by_name: dict[str, list[Span]] = {}
        for s in self.spans:
            by_name.setdefault(s.name, []).append(s)
        own = self_times(self.spans)

        def named(name):
            if name == "numpy.fft":
                return by_name.get("numpy.fft.fft", []) + by_name.get("numpy.fft.ifft", [])
            return by_name.get(name, [])

        def busy(name):
            return sum(s.end - s.start for s in named(name)) / passes

        def calls(name):
            return len(named(name)) / passes

        def self_s(name):
            return sum(own[s.id] for s in named(name)) / passes

        def total(name, key):
            return sum(s.extra.get(key, 0) for s in named(name)) / passes

        def peak(name):
            return max((s.extra["peak_mb"] for s in named(name) if "peak_mb" in s.extra),
                       default=0.0)

        sweep_s = busy("cli.run_sweep")
        point_s = sum(s.end - s.start for s in named("cli.run_solve")
                      if s.case in sweep_cases) / passes
        bmo = [s for s in self.spans if s.name.startswith("bmo.")]
        return {
            "solver.cauchy_solve.s": busy("solver.cauchy_solve"),
            "solver.solve_line.s": busy("solver.solve_line"),
            "solver.solve_line.self_s": self_s("solver.solve_line"),
            "solver.gmres.s": busy("solver.gmres"),
            "solver.gmres.self_s": self_s("solver.gmres"),
            "solver.gmres.iterations": total("solver.gmres", "iterations"),
            "solver.matvec.calls": calls("solver.matvec"),
            "solver.matvec.s": busy("solver.matvec"),
            "solver.precond.calls": calls("solver.precond"),
            "solver.precond.s": busy("solver.precond"),
            "solver.coercive_form.s": busy("solver.coercive_form"),
            "solver.autonomous_oracle.s": busy("solver.autonomous_oracle"),
            "fem.batched_tridiag_solve.calls": calls("fem.batched_tridiag_solve"),
            "fem.batched_tridiag_solve.s": busy("fem.batched_tridiag_solve"),
            "fem.mass_solve.s": busy("fem.mass_solve"),
            "fem.mass_apply.s": busy("fem.mass_apply"),
            "fem.stiffness_apply.s": busy("fem.stiffness_apply"),
            "fem.band_builds.calls": calls("fem.mass_banded") + calls("fem.stiffness_banded"),
            "numpy.fft.calls": calls("numpy.fft"),
            "numpy.fft.s": busy("numpy.fft"),
            "numpy.fft.points": total("numpy.fft", "points"),
            "coefficients.certify_ellipticity.calls": calls("coefficients.certify_ellipticity"),
            "coefficients.certify_ellipticity.s": busy("coefficients.certify_ellipticity"),
            "coefficients.certify_ellipticity.samples":
                total("coefficients.certify_ellipticity", "samples"),
            "coefficients.generate_family.s": busy("coefficients.generate_family"),
            "coefficients.extend_full.s": busy("coefficients.extend_full"),
            "coefficients.extend_full.peak_mb": peak("coefficients.extend_full"),
            "norms.energy_norm.s": busy("norms.energy_norm"),
            "norms.dual_norm_estar.s": busy("norms.dual_norm_estar"),
            "norms.sobolev_norm.s": busy("norms.sobolev_norm"),
            "bmo.calls": len(bmo) / passes,
            "bmo.signal_points": sum(s.extra.get("points", 0) for s in bmo) / passes,
            "bmo.scale_invariant_half_sobolev.s": busy("bmo.scale_invariant_half_sobolev"),
            "bmo.scale_invariant_half_sobolev.peak_mb": peak("bmo.scale_invariant_half_sobolev"),
            "bmo.holder_constant.s": busy("bmo.holder_constant"),
            "bmo.holder_constant.peak_mb": peak("bmo.holder_constant"),
            "bmo.bmo_seminorm.s": busy("bmo.bmo_seminorm"),
            "bmo.dini_integral.s": busy("bmo.dini_integral"),
            "timefourier.frac_derivative.s": busy("timefourier.frac_derivative"),
            "commutators.commutator_norm_estimate.calls":
                calls("commutators.commutator_norm_estimate"),
            "commutators.commutator_norm_estimate.s":
                busy("commutators.commutator_norm_estimate"),
            "report.emit_report.s": busy("report.emit_report"),
            "report.bytes_written": total("report.emit_report", "bytes"),
            "cli.run_solve.s": busy("cli.run_solve"),
            "cli.run_analyze.s": busy("cli.run_analyze"),
            "cli.run_commutator.s": busy("cli.run_commutator"),
            "cli.run_sweep.s": sweep_s,
            "cli.run_sweep.busy_ratio": point_s / sweep_s if sweep_s > 0 else 0.0,
        }
