"""Experiment runner: solve | analyze | extend | commutator | sweep.

Each subcommand reads a JSON experiment config, runs the requested pipeline,
and writes a self-describing report.  `DEFAULT_CONFIG` is the schema: an
unknown key, or a value of another JSON type than its default's, is an error,
not a warning.  Exit codes: 0 success, 2 config or input validation failure,
3 solver non-convergence, 4 I/O failure.

The default output directory is the current directory, overridable by the
MAXREG_OUTPUT_DIR environment variable or the config's output.directory.
Flags of the form `--set dotted.key=json_value` merge into the config, so
every entry is reachable from the command line.
"""
from __future__ import annotations

import argparse
import concurrent.futures
import copy
import dataclasses
import functools
import json
import os
import sys

import numpy as np

from .bmo import (
    bmo_seminorm,
    check_dini_exponent,
    dini_integral,
    dini_verdict,
    dyadic_family,
    holder_constant,
    refinement_verdict,
    scale_invariant_half_sobolev,
)
from .coefficients import (
    FAMILY_KINDS,
    CoefficientField,
    FamilyError,
    NotElliptic,
    check_family,
    extend_full,
    extend_reflect,
    generate_family,
    load_field,
    mollify,
    save_field,
)
from .commutators import commutator_norm_estimate
from .fem import SpaceMesh
from .norms import SpaceTimeField, l2h_norm, l2v_grad_norm, maxreg_ratio, sobolev_norm
from .report import RegularityReport, SeminormRow, emit_report
from .solver import SolverError, autonomous_oracle, cauchy_solve
from .timefourier import TimeGrid, TimeSignal, frac_derivative, frac_order

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_SOLVER = 3
EXIT_IO = 4
SEMINORMS = ("bmo", "half_sobolev", "holder", "dini")
FORCING_KINDS = ("sine", "zero", "random")
# Most points on any time grid: the native grid, the solve's extended line
# grid and every ladder rung.  64 times the largest ladder rung and 128 times
# the largest line window that the tests and the benchmark run.
MAX_GRID_POINTS = 2**20
# Most space-time points of a field on any of those grids: its size times
# mesh.n_cells + 1.  8 times the largest product that the benchmark or CI
# runs (4096 x 257, 16384 x 65); a line solve holds about 18 complex vectors
# of this many points, some 2.2 GiB at the bound.  Both bounds are checked
# at load, before anything is allocated.
MAX_FIELD_POINTS = 2**23

# One sweep pool per worker count for the whole process.  A fresh pool per sweep
# may start its threads before the last pool's have released their malloc
# arenas; each extra arena then keeps ~30 MB of freed solver buffers resident.
_sweep_pool = functools.cache(concurrent.futures.ThreadPoolExecutor)

DEFAULT_CONFIG = {
    "experiment_id": "experiment",
    "coefficient": {
        "kind": "constant",        # or a field file prefix via "file"
        "file": None,
        "seed": 0,
        "amp": 0.5,
        "alpha": 0.5,
        "t0": None,
        "value": 1.0,
        "space_profile": "constant",
        "mollify_width": 0,        # cells; 0 = no mollification
    },
    "mesh": {
        "x_lo": 0.0,
        "x_hi": 1.0,
        "n_cells": 64,
        "bc_left": "dirichlet",
        "bc_right": "dirichlet",
    },
    "time": {
        "T": 1.0,
        "n_points": 256,
        "window_factor": 4,
    },
    "solver": {
        "tolerance": 1e-9,
    },
    "forcing": {
        "kind": "sine",            # one of FORCING_KINDS
        "seed": 0,
        "mode": 1,
    },
    "analysis": {
        "seminorms": list(SEMINORMS),
        "alphas": [0.5],
        "dini_q": [1.0],
        "holder_alpha": 0.5,
        "resolutions": [],          # extra n_t values for divergence detection
        "extension_constants": False,
        "divergence_threshold": 1.25,
    },
    "output": {
        "directory": None,
        "format": "json",
    },
}


# Leaves whose default does not show every JSON type they take: each takes
# the type of any one of its examples.
_LEAF_EXAMPLES = {
    "coefficient.t0": (None, 0.0),
    "coefficient.file": (None, ""),
    "coefficient.value": (0.0, [[0.0]]),    # a number or a d x d matrix
    "analysis.resolutions": ([0],),
    "output.directory": (None, ""),
}
_TYPE_NAMES = {bool: ("a boolean", "booleans"), int: ("an integer", "integers"),
               float: ("a finite number", "finite numbers"), str: ("a string", "strings"),
               type(None): ("null", "nulls")}


class ConfigError(ValueError):
    pass


def _fits(example, value) -> bool:
    """Whether `value` has the JSON type of `example`: a float takes any
    finite number (not the Infinity, NaN or 1e400 that `json` reads), a list
    takes lists whose entries fit its first entry, and every other type takes
    only itself, so a boolean is never a number."""
    if isinstance(example, list):
        return isinstance(value, list) and all(_fits(example[0], v) for v in value)
    if isinstance(example, float):
        return type(value) in (int, float) and abs(value) <= sys.float_info.max
    return type(value) is type(example)


def _type_name(example, plural: bool = False) -> str:
    if isinstance(example, list):
        return ("lists" if plural else "a list") + " of " + _type_name(example[0], True)
    return _TYPE_NAMES[type(example)][plural]


def _merge_checked(defaults: dict, *layers: dict, path: str = "") -> dict:
    """Defaults overlaid with each layer in turn; the outermost call (empty
    path) returns a deep copy, sharing nothing with either.  A key absent
    from defaults is an error (no silent typo tolerance), a section merges
    key by key, and a leaf must have the JSON type of its default, or of one
    of its `_LEAF_EXAMPLES`."""
    out = dict(defaults)
    for given in layers:
        if not isinstance(given, dict):
            raise ConfigError(f"{path[:-1] or 'config'} must be an object, got {given!r}")
        for key, val in given.items():
            name = path + key
            if key not in defaults:
                raise ConfigError(f"unknown config key {name!r}")
            if isinstance(defaults[key], dict):
                out[key] = _merge_checked(defaults[key], out[key], val, path=name + ".")
                continue
            examples = _LEAF_EXAMPLES.get(name, (defaults[key],))
            if not any(_fits(e, val) for e in examples):
                raise ConfigError(f"{name} must be {' or '.join(map(_type_name, examples))}, "
                                  f"got {json.dumps(val)}")
            out[key] = val
    return out if path else copy.deepcopy(out)


def _check_ranges(cfg: dict) -> dict:
    """cfg itself, once each value lies in the range its use needs; the JSON
    types are `_merge_checked`'s, and solve's orders `run_solve`'s.  A range
    that a layer owns is asked of that layer, under the value's dotted key."""
    c, m = cfg["coefficient"], cfg["mesh"]
    for key, value, allowed in (
            ("output.format", cfg["output"]["format"], ("json", "csv")),
            ("forcing.kind", cfg["forcing"]["kind"], FORCING_KINDS)):
        if value not in allowed:
            raise ConfigError(f"{key} must be one of {', '.join(allowed)}; got {value!r}")
    for key, value in (("coefficient.mollify_width", c["mollify_width"]),
                       ("coefficient.seed", c["seed"]),
                       ("forcing.seed", cfg["forcing"]["seed"])):
        if value < 0:
            raise ConfigError(f"{key} must be >= 0, got {value!r}")
    try:
        check_family(c["kind"], amp=c["amp"], alpha=c["alpha"], value=c["value"],
                     space_profile=c["space_profile"])
    except FamilyError as exc:
        raise ConfigError(f"coefficient.{exc.param}: {exc}") from None
    wf = cfg["time"]["window_factor"]
    if wf < 4 or wf & (wf - 1):
        raise ConfigError(f"time.window_factor must be an integer power of two >= 4, "
                          f"got {wf!r}")
    a = cfg["analysis"]
    n = cfg["time"]["n_points"]
    grids = (("time.n_points", n, n), ("time.window_factor", n * wf, wf),
             *(("analysis.resolutions", r, r) for r in a["resolutions"]))
    for key, size, value in grids:
        if size > MAX_GRID_POINTS:
            raise ConfigError(f"{key}: {value!r} makes a grid of {size} points; "
                              f"at most {MAX_GRID_POINTS} are allowed")
    for key, size, value in grids:
        if size * (m["n_cells"] + 1) > MAX_FIELD_POINTS:
            raise ConfigError(f"{key}: {value!r} with mesh.n_cells = {m['n_cells']!r} "
                              f"makes a field of {size} x {m['n_cells'] + 1} points; "
                              f"at most {MAX_FIELD_POINTS} are allowed")
    if any(s not in SEMINORMS for s in a["seminorms"]):
        raise ConfigError(f"analysis.seminorms must name only {', '.join(SEMINORMS)}; "
                          f"got {a['seminorms']!r}")
    for key, value in (("solver.tolerance", cfg["solver"]["tolerance"]),
                       ("analysis.divergence_threshold", a["divergence_threshold"])):
        if value <= 0.0:
            raise ConfigError(f"{key} must be a positive number, got {value!r}")
    for key, valid, values in (
            ("mesh.n_cells", lambda k: SpaceMesh(0.0, 1.0, k), [m["n_cells"]]),
            ("mesh.x_hi", lambda x: SpaceMesh(m["x_lo"], x, m["n_cells"]), [m["x_hi"]]),
            *((f"mesh.{end}", lambda bc: SpaceMesh(0.0, 1.0, m["n_cells"], bc, bc), [m[end]])
              for end in ("bc_left", "bc_right")),
            ("analysis.holder_alpha", frac_order, [a["holder_alpha"]]),
            ("analysis.dini_q", check_dini_exponent, a["dini_q"]),
            ("time.n_points", lambda k: TimeGrid(0.0, 1.0, k), [n]),
            ("time.T", lambda T: TimeGrid(0.0, T, n), [cfg["time"]["T"]]),
            ("analysis.resolutions", lambda k: TimeGrid(0.0, 1.0, k), a["resolutions"])):
        for v in values:
            try:
                valid(v)
            except ValueError as exc:
                raise ConfigError(f"{key}: {exc}") from None
    return cfg


def load_config(path: str, overrides: list[str] | None = None) -> dict:
    """The config in the JSON file at `path`, with each `dotted.key=json_value`
    of `overrides` merged on top in turn, checked."""
    with open(path) as fh:
        layers = [json.load(fh)]
    for item in overrides or []:
        dotted, eq, raw = item.partition("=")
        if not eq:
            raise ConfigError(f"--set expects dotted.key=json_value, got {item!r}")
        try:
            value = json.loads(raw)
        except json.JSONDecodeError:
            value = raw
        for key in reversed(dotted.split(".")):
            value = {key: value}
        layers.append(value)
    return _check_ranges(_merge_checked(DEFAULT_CONFIG, *layers))


def _setup(cfg: dict) -> tuple[TimeGrid, SpaceMesh, CoefficientField]:
    """The time grid, mesh and coefficient that the config describes."""
    m = cfg["mesh"]
    mesh = SpaceMesh(m["x_lo"], m["x_hi"], m["n_cells"], m["bc_left"], m["bc_right"])
    grid = TimeGrid(0.0, cfg["time"]["T"], cfg["time"]["n_points"])
    return grid, mesh, _build_coefficient(cfg, grid, mesh)


def _descriptor(A: CoefficientField) -> dict:
    return {"kind": A.kind, "seed": A.seed, "lambda": A.lam, "Lambda": A.Lam, "T": A.T}


def _build_coefficient(cfg: dict, grid: TimeGrid, mesh: SpaceMesh) -> CoefficientField:
    c = cfg["coefficient"]
    if c["file"]:
        A = load_field(c["file"])
        if not A.time_grid.compatible(grid):
            raise ConfigError("coefficient file grid does not match the time spec")
        if A.mesh != mesh:
            raise ConfigError("coefficient file mesh does not match the mesh spec")
        return A
    try:
        A = generate_family(
            c["kind"], grid, mesh,
            seed=c["seed"], amp=c["amp"], alpha=c["alpha"], t0=c["t0"],
            value=c["value"], space_profile=c["space_profile"],
        )
        if c["mollify_width"]:
            A = mollify(A, c["mollify_width"])
    except NotElliptic as exc:
        # `check_family` passed, so only the sampled field's certificate sees
        # it: amp, T and t0 decide it together (see coefficients._AMP_BOUNDS)
        raise ConfigError(
            f"coefficient.amp: {c['kind']} with amp {c['amp']!r} is not elliptic for "
            f"time.T = {cfg['time']['T']!r} and coefficient.t0 = {json.dumps(c['t0'])}: "
            f"{exc}") from None
    return A


def _build_forcing(cfg: dict, grid: TimeGrid, mesh: SpaceMesh) -> SpaceTimeField:
    f = cfg["forcing"]
    x = mesh.nodes[mesh.free_mask]
    span = mesh.x_hi - mesh.x_lo
    if f["kind"] == "zero":
        vals = np.zeros((grid.n_points, mesh.n_dofs))
    elif f["kind"] == "sine":
        prof = np.sin(f["mode"] * np.pi * (x - mesh.x_lo) / span)
        vals = np.broadcast_to(prof, (grid.n_points, mesh.n_dofs)).copy()
    else:                           # "random"; `_check_ranges` allows no other
        rng = np.random.default_rng(f["seed"])
        vals = rng.standard_normal((grid.n_points, mesh.n_dofs))
    return SpaceTimeField(grid, mesh, vals)


def _output_path(cfg: dict, suffix: str) -> str:
    directory = (cfg["output"]["directory"]
                 or os.environ.get("MAXREG_OUTPUT_DIR")
                 or ".")
    os.makedirs(directory, exist_ok=True)
    return os.path.join(directory, f"{cfg['experiment_id']}{suffix}")


def _ladder_rungs(cfg: dict, A: CoefficientField) -> tuple[list[TimeSignal], dict]:
    """Column 0 of the coefficient at each ladder resolution, coarsest first,
    and the ladder's diagnostics.

    The native rung is read off A; every other rung is built afresh by
    `_build_coefficient`.  Only a generated family can be sampled afresh at
    other resolutions: a coefficient file or a mollified field (whose
    mollifier would narrow with n) has the native rung only, and a
    `ladder` note in the diagnostics says why its refinement flags are null.
    """
    native = A.time_grid.n_points
    if cfg["coefficient"]["file"] or A.kind not in FAMILY_KINDS:
        return [A.column(0)], {"ladder": (
            f"coefficient kind {A.kind!r} cannot be regenerated at other resolutions: "
            "measured at the native resolution only, refinement flags null")}
    return [(A if n == native else _build_coefficient(
                 cfg, dataclasses.replace(A.time_grid, n_points=n), A.mesh)).column(0)
            for n in sorted({native, *cfg["analysis"]["resolutions"]})], {}


def _refinement_flag(cfg: dict, values: list[float]) -> bool | None:
    """Divergence flag of values measured up the ladder: null below 3 rungs,
    since growth cannot be told from fewer."""
    if len(values) < 3:
        return None
    return refinement_verdict(
        values, threshold=cfg["analysis"]["divergence_threshold"]).divergent


def _ladder_row(A: CoefficientField, rungs: list[TimeSignal], functional: str, order,
                value: float, divergent: bool | None, interval=None) -> SeminormRow:
    """The row of a functional of A measured on the finest of `rungs`."""
    return SeminormRow(functional, order, value, interval, rungs[-1].n, divergent, A.seed)


def _seminorm_ladder(cfg: dict, A: CoefficientField) -> tuple[list[SeminormRow], dict]:
    """All requested time-regularity functionals of A(., x_0) up the ladder,
    with the refinement-based divergence flags (Dini keeps its one-grid
    verdict on the finest rung), and the ladder's diagnostics."""
    want = set(cfg["analysis"]["seminorms"])
    if not want:
        return [], {}
    rungs, diagnostics = _ladder_rungs(cfg, A)
    rows = []

    def ladder(label, order, evaluate):
        results = [evaluate(s) for s in rungs]
        rows.append(_ladder_row(A, rungs, label, order, results[-1].value,
                                _refinement_flag(cfg, [r.value for r in results]),
                                results[-1].achieving_interval))

    if "bmo" in want:
        ladder("bmo", None,
               lambda s: bmo_seminorm(frac_derivative(s, 0.5), dyadic_family(s.grid)))
    if "half_sobolev" in want:
        ladder("scale_invariant_half_sobolev", 0.5,
               lambda s: scale_invariant_half_sobolev(s, dyadic_family(s.grid)))
    if "holder" in want:
        ha = cfg["analysis"]["holder_alpha"]
        ladder("holder", ha, lambda s: holder_constant(s, ha))
    if "dini" in want:
        for q in cfg["analysis"]["dini_q"]:
            last = dini_integral(rungs[-1], q=q)
            rows.append(_ladder_row(A, rungs, "dini", q, last.value,
                                    dini_verdict(last).divergent, last.achieving_interval))
    return rows, diagnostics


def _extension_rows(A: CoefficientField) -> tuple[list[SeminormRow], dict]:
    """Measured extension constants, and the three proven bound checks."""
    a = A.column(0)
    M = scale_invariant_half_sobolev(a, dyadic_family(a.grid)).value
    flat = extend_reflect(A)
    af = flat.column(0)
    n = A.time_grid.n_points
    T = A.T
    two = TimeGrid(A.time_grid.t_start - T, A.time_grid.t_start + T, 2 * n)
    v2 = scale_invariant_half_sobolev(TimeSignal(two, af.values[:2 * n]),
                                      dyadic_family(two)).value
    v3 = scale_invariant_half_sobolev(af, dyadic_family(af.grid)).value
    an = extend_full(A).column(0)
    m_nat = scale_invariant_half_sobolev(an, dyadic_family(an.grid)).value
    bound = 9 * M + 8 * A.Lam ** 2 / T + 6 * (A.Lam ** 2 + A.lam ** 2) / T
    rows = [SeminormRow("extension_M", 0.5, M, None, n),
            SeminormRow("extension_reflected_2T", 0.5, v2, None, 2 * n),
            SeminormRow("extension_reflected_3T", 0.5, v3, None, 3 * n),
            SeminormRow("extension_M_natural", 0.5, m_nat, None, 3 * n)]
    return rows, {"reflected_2T_le_3M": bool(v2 <= 3 * M + 1e-12),
                  "reflected_3T_le_9M": bool(v3 <= 9 * M + 1e-12),
                  "M_natural_le_bound": bool(m_nat <= bound + 1e-12),
                  "M_natural_bound": bound}


def run_solve(cfg: dict) -> RegularityReport:
    # maxreg_ratio measures u in H^(alpha + 1/2), so solve needs alpha in (0, 1/2]
    for alpha in cfg["analysis"]["alphas"]:
        if not 0.0 < alpha <= 0.5:
            raise ConfigError(f"analysis.alphas: solve needs orders in (0, 1/2], got {alpha!r}")
    grid, mesh, A = _setup(cfg)
    f = _build_forcing(cfg, grid, mesh)
    res = cauchy_solve(A, f, window_factor=cfg["time"]["window_factor"],
                       tol=cfg["solver"]["tolerance"])

    norms = {
        "l2h_u": l2h_norm(res.u),
        "l2v_grad_u": l2v_grad_norm(res.u),
        "h1_half_h_u": sobolev_norm(res.u, 1.0, "H"),
        "l2h_f": l2h_norm(f),
        "v0": res.v0_norm,
    }
    ratios = {}
    if norms["l2h_f"] > 0:
        for alpha in cfg["analysis"]["alphas"]:
            ratios[f"maxreg_alpha_{alpha}"] = maxreg_ratio(res.u, f, alpha)
    diagnostics = {**dataclasses.asdict(res.diagnostics),
                   "guard_mass_fraction": res.guard_mass_fraction}
    if A.kind == "constant" and A.dim == 1 and norms["l2h_f"] > 0:
        ref = autonomous_oracle(A.scalar_cells()[0].real, f, theta=0.0)
        dev = float(np.linalg.norm(res.u.values - ref.values)
                    / max(np.linalg.norm(ref.values), 1e-300))
        diagnostics["oracle_relative_deviation"] = dev

    rows, notes = _seminorm_ladder(cfg, A)
    diagnostics.update(notes)
    if cfg["analysis"]["extension_constants"]:
        extension, checks = _extension_rows(A)
        rows += extension
        diagnostics.update(checks)

    return RegularityReport(
        experiment_id=cfg["experiment_id"],
        coefficient=_descriptor(A),
        resolutions={"n_t": grid.n_points, "n_x": mesh.n_cells,
                     "window_factor": cfg["time"]["window_factor"]},
        norms=norms, ratios=ratios, seminorms=rows, diagnostics=diagnostics,
    )


def run_analyze(cfg: dict) -> RegularityReport:
    """Coefficient-only: the full regularity ladder plus extension constants.
    No solve is performed."""
    grid, mesh, A = _setup(cfg)
    rows, notes = _seminorm_ladder(cfg, A)
    extension, checks = _extension_rows(A)
    return RegularityReport(
        experiment_id=cfg["experiment_id"],
        coefficient=_descriptor(A),
        resolutions={"n_t": grid.n_points, "n_x": mesh.n_cells},
        seminorms=rows + extension, diagnostics={**notes, **checks},
    )


def run_extend(cfg: dict) -> RegularityReport:
    """Materialize the full extension A-natural and save it next to the report."""
    grid, mesh, A = _setup(cfg)
    An = extend_full(A, window_factor=cfg["time"]["window_factor"])
    prefix = _output_path(cfg, ".extended")
    save_field(An, prefix)
    rows, checks = _extension_rows(A)
    return RegularityReport(
        experiment_id=cfg["experiment_id"],
        coefficient=_descriptor(A),
        resolutions={"n_t": grid.n_points, "n_x": mesh.n_cells,
                     "window_factor": cfg["time"]["window_factor"]},
        seminorms=rows, diagnostics={"extended_field": prefix, **checks},
    )


def run_commutator(cfg: dict) -> RegularityReport:
    """[a, D^alpha] probe up the ladder's rungs with the refinement-based
    divergence flag."""
    _, mesh, A = _setup(cfg)
    rungs, diagnostics = _ladder_rungs(cfg, A)
    diagnostics["resolutions"] = [s.n for s in rungs]
    rows = []
    for alpha in cfg["analysis"]["alphas"]:
        probes = [commutator_norm_estimate(s, alpha) for s in rungs]
        estimates = [p.estimate for p in probes]
        probe = probes[-1]
        rows.append(_ladder_row(A, rungs, "commutator_norm", alpha, probe.estimate,
                                _refinement_flag(cfg, estimates)))
        diagnostics[f"alpha_{alpha}"] = {
            "estimates": estimates,
            "bmo_value": probe.bmo_value,
            "ratio": probe.ratio,
            "degenerate": probe.degenerate,
        }
    return RegularityReport(
        experiment_id=cfg["experiment_id"],
        coefficient={"kind": A.kind, "seed": A.seed},
        resolutions={"n_t": rungs[-1].n, "n_x": mesh.n_cells},
        seminorms=rows, diagnostics=diagnostics,
    )


def _sweep_point(cfg: dict, axis: str, value) -> dict:
    """The report of one sweep point as a dict, or its error: a failing
    point is recorded and the sweep continues."""
    try:
        if axis == "resolution":
            change, suffix = {"time": {"n_points": int(value)}}, f".n{int(value)}"
        elif axis == "alpha":
            change, suffix = {"analysis": {"alphas": [float(value)]}}, f".a{value}"
        elif axis == "family":
            change, suffix = {"coefficient": {"kind": str(value)}}, f".{value}"
        else:
            raise ConfigError(f"unknown sweep axis {axis!r}")
        point = _merge_checked(DEFAULT_CONFIG, cfg, change,
                               {"experiment_id": cfg["experiment_id"] + suffix})
        return run_solve(_check_ranges(point)).to_dict()
    except Exception as exc:  # noqa: BLE001 - per-point isolation
        return {"error": str(exc), "error_type": type(exc).__name__}


def run_sweep(cfg: dict, axis: str, values: list, workers: int = 2) -> dict:
    """One run_solve per point on `workers` threads, written in `values`
    order.  Sweep output is JSON only."""
    if cfg["output"]["format"] != "json":
        raise ConfigError(f"sweep output is JSON only, got output.format "
                          f"{cfg['output']['format']!r}")
    points = _sweep_pool(workers).map(lambda v: _sweep_point(cfg, axis, v), values)
    return {"axis": axis, "points": dict(zip(map(str, values), points))}


def _write(cfg: dict, report: RegularityReport) -> str:
    fmt = cfg["output"]["format"]
    return emit_report(report, _output_path(cfg, ".report." + fmt), format=fmt)


def bundled_config_path(name: str) -> str:
    return os.path.join(os.path.dirname(__file__), "configs", name + ".json")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="maxreg",
        description="Parabolic maximal-regularity laboratory: solve the "
                    "Cauchy problem, analyze coefficient regularity, extend "
                    "coefficients, probe commutators, and run sweeps.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("solve", "analyze", "extend", "commutator", "sweep"):
        p = sub.add_parser(name)
        p.add_argument("config", help="experiment config JSON, or the name of "
                                      "a bundled config (autonomous-dirichlet, "
                                      "sqrt-product)")
        p.add_argument("--set", action="append", default=[], dest="overrides",
                       metavar="KEY=VALUE",
                       help="override a config entry, e.g. --set time.n_points=512")
        p.add_argument("--output-dir", default=None)
        if name == "sweep":
            p.add_argument("--axis", required=True,
                           choices=("resolution", "alpha", "family"))
            p.add_argument("--values", required=True,
                           help="comma-separated sweep values")
            p.add_argument("--workers", type=int, default=2)
    args = parser.parse_args(argv)

    try:
        path = args.config
        if not os.path.exists(path) and os.path.exists(bundled_config_path(path)):
            path = bundled_config_path(path)
        cfg = load_config(path, args.overrides)
        if args.output_dir:
            cfg["output"]["directory"] = args.output_dir
        if args.command == "sweep":
            values = [v.strip() for v in args.values.split(",") if v.strip()]
            if not values or len(set(values)) < len(values):
                raise ConfigError(f"--values must name one or more distinct sweep values, "
                                  f"got {args.values!r}")
            if args.workers < 1:
                raise ConfigError(f"--workers must be >= 1, got {args.workers}")
    except (OSError, json.JSONDecodeError) as exc:
        print(f"error: cannot read config: {exc}", file=sys.stderr)
        return EXIT_IO
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION

    try:
        if args.command == "sweep":
            results = run_sweep(cfg, args.axis, values, workers=args.workers)
            out = _output_path(cfg, ".sweep.json")
            with open(out, "w") as fh:
                json.dump(results, fh, indent=2)
        else:
            runner = {"solve": run_solve, "analyze": run_analyze,
                      "extend": run_extend, "commutator": run_commutator}[args.command]
            out = _write(cfg, runner(cfg))
        print(out)
        return EXIT_OK
    except SolverError as exc:
        print(f"error: solver did not converge: {exc}", file=sys.stderr)
        record = {"error": str(exc)}
        if exc.diagnostics is not None:
            record.update(dataclasses.asdict(exc.diagnostics))
        print(json.dumps(record, default=str), file=sys.stderr)
        return EXIT_SOLVER
    except ValueError as exc:   # ConfigError and every layer's input errors
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except OSError as exc:
        print(f"error: I/O failure: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
