"""Seeded workloads for the maxreg benchmark, and the checks on their outputs.

A workload is a fixed list of `maxreg` command lines (a "pass").  The workload
seed only chooses `coefficient.seed` (the holder phases and the commutator
probes), `forcing.seed`, the `sqrt_product` kink `coefficient.t0` and the
sampled sweep alphas; grid sizes and kinds are fixed per workload, so the time
of a pass does not depend on the seed.  The program receives nothing but the
generated argv.

Every case keeps the configs' sine forcing, so `forcing.seed` is recorded but
inert: random forcing leaves more than 1e-6 of the solution mass in the guard
band (2.1e-6 measured at 1024x128), which the solve check rejects.
"""
from __future__ import annotations

import hashlib
import json
import math
import random
import re

WORKLOADS = ("solve-large", "analyze-ladder", "sweep-small")
DEFAULT_SEED = 0
SOLVER_TOLERANCE = 1e-9        # maxreg's default solver.tolerance, never overridden
GUARD_MASS_LIMIT = 1e-6        # cauchy_solve's wrap-around warning threshold
ORACLE_LIMIT = 1e-3            # acceptance criterion 06 ...
ORACLE_MIN_NT = 256            # ... which is stated at n_t = 256; below it the
                               # deviation is discretisation error (4e-3 at 64)
COEFFICIENT_RTOL = 1e-12       # kernel rule: coefficient-only numbers
SWEEP_ALPHAS = (0.125, 0.25, 0.375, 0.5)   # maxreg_ratio needs alpha <= 1/2


def _set(key: str, value) -> list[str]:
    return ["--set", f"{key}={json.dumps(value)}"]


def _seeds(rng: random.Random, kind: str) -> list[str]:
    argv = _set("coefficient.seed", rng.randrange(2**31))
    argv += _set("forcing.seed", rng.randrange(2**31))
    if kind == "sqrt_product":
        argv += _set("coefficient.t0", round(rng.uniform(0.25, 0.75), 6))
    return argv


def _case(case_id: str, argv: list[str]) -> dict:
    return {"id": case_id, "command": argv[0], "argv": argv}


def _solve_large(rng: random.Random) -> list[dict]:
    # Largest grids the CLI runs in a few seconds; no ladder, so bmo and
    # commutators do no work here.
    fixed = (_set("analysis.seminorms", []) + _set("analysis.resolutions", [])
             + _set("analysis.extension_constants", False)
             + _set("time.window_factor", 4))
    cases = []
    for kind, n_t, n_cells in (("holder", 1024, 256), ("step", 2048, 128),
                               ("sqrt_product", 1024, 128)):
        argv = (["solve", "sqrt-product"] + fixed + _set("coefficient.kind", kind)
                + _set("time.n_points", n_t) + _set("mesh.n_cells", n_cells)
                + _seeds(rng, kind))
        cases.append(_case(f"solve-{kind}-{n_t}x{n_cells}", argv))
    return cases


def _analyze_ladder(rng: random.Random) -> list[dict]:
    # Coefficient-only: the dense pairwise functionals up to n = 4096 and the
    # FFT power iterations of the commutator probe; no solver call.
    cases = []
    for kind in ("step", "holder", "sqrt_product", "lipschitz"):
        argv = (["analyze", "sqrt-product"] + _set("coefficient.kind", kind)
                + _set("time.n_points", 512)
                + _set("analysis.resolutions", [1024, 2048, 4096])
                + _seeds(rng, kind))
        cases.append(_case(f"analyze-{kind}-512to4096", argv))
    cases.append(_case("commutator-sqrt_product-256to2048",
                       ["commutator", "sqrt-product"] + _set("time.n_points", 256)
                       + _set("analysis.resolutions", [512, 1024, 2048])
                       + _seeds(rng, "sqrt_product")))
    # The bundled config as shipped (256 to 1024): the baseline's own case.
    cases.append(_case("commutator-sqrt_product-bundled",
                       ["commutator", "sqrt-product"] + _seeds(rng, "sqrt_product")))
    return cases


def _sweep_small(rng: random.Random) -> list[dict]:
    # Many small run_solve calls on the CLI's default 2-worker pool, where
    # per-call set-up dominates.
    cases = []
    for repeat in range(2):
        for config in ("autonomous-dirichlet", "sqrt-product"):
            alphas = rng.sample(SWEEP_ALPHAS, 3)
            groups = {
                "resolution": ["64,128", "256"],
                "family": ["constant,sqrt_product,holder", "lipschitz,step"],
                "alpha": [",".join(map(str, alphas[:2])), str(alphas[2])],
            }
            for axis, value_groups in groups.items():
                for k, values in enumerate(value_groups):
                    argv = (["sweep", config, "--axis", axis, "--values", values]
                            + _set("mesh.n_cells", 64) + _seeds(rng, "sweep"))
                    cases.append(_case(f"sweep-{repeat}-{config}-{axis}-{k}", argv))
    return cases


_BUILDERS = {"solve-large": _solve_large, "analyze-ladder": _analyze_ladder,
             "sweep-small": _sweep_small}


def workload_cases(workload: str, seed: int) -> list[dict]:
    """The pass of `workload` for `seed`: the same seed gives the same cases."""
    return _BUILDERS[workload](random.Random(f"{workload}:{seed}"))


def case_list_sha256(cases: list[dict]) -> str:
    return hashlib.sha256(json.dumps(cases, sort_keys=True).encode()).hexdigest()


# ---------------------------------------------------------------------------
# output checks


def _finite(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool) and math.isfinite(x)


def _check_solve(rep: dict, where: str) -> list[str]:
    problems = []
    diag = rep.get("diagnostics", {})
    residual = diag.get("residual")
    if not (_finite(residual) and residual <= SOLVER_TOLERANCE):
        problems.append(f"{where}residual {residual} > {SOLVER_TOLERANCE}")
    guard = diag.get("guard_mass_fraction")
    if not (_finite(guard) and guard <= GUARD_MASS_LIMIT):
        problems.append(f"{where}guard_mass_fraction {guard} > {GUARD_MASS_LIMIT}")
    values = {**rep.get("norms", {}), **rep.get("ratios", {})}
    if not values:
        problems.append(f"{where}no norms reported")
    for key, val in values.items():
        if not _finite(val):
            problems.append(f"{where}norm {key} = {val} is not finite")
    if (rep.get("coefficient", {}).get("kind") == "constant"
            and rep.get("resolutions", {}).get("n_t", 0) >= ORACLE_MIN_NT):
        dev = diag.get("oracle_relative_deviation")
        if not (_finite(dev) and dev <= ORACLE_LIMIT):
            problems.append(f"{where}oracle_relative_deviation {dev} > {ORACLE_LIMIT}")
    return problems


_EXTENSION_CHECKS = ("reflected_2T_le_3M", "reflected_3T_le_9M", "M_natural_le_bound")


def check_output(command: str, output: dict) -> list[str]:
    """Invariants that hold for every seed; an empty list means the case passed."""
    if command == "solve":
        return _check_solve(output, "")
    if command == "analyze":
        diag = output.get("diagnostics", {})
        return [f"extension check {key} is {diag.get(key)!r}"
                for key in _EXTENSION_CHECKS if diag.get(key) is not True]
    if command == "commutator":
        rows = output.get("seminorms", [])
        if not rows:
            return ["no commutator estimate reported"]
        return [f"commutator estimate {r.get('value')!r} is not finite and positive"
                for r in rows if not (_finite(r.get("value")) and r["value"] > 0)]
    if command == "sweep":
        points = output.get("points", {})
        if not points:
            return ["sweep reported no points"]
        problems = []
        for value, point in sorted(points.items()):
            if "error" in point:
                problems.append(f"point {value}: {point.get('error_type')}: {point['error']}")
            else:
                problems += _check_solve(point, f"point {value}: ")
        return problems
    raise ValueError(f"unknown command {command!r}")


# ---------------------------------------------------------------------------
# reference values recorded at the default seed

# Solver internals that a correct rewrite may change; never compared.
_UNCOMPARED = {"residual", "iterations", "guard_mass_fraction", "theta",
               "oracle_relative_deviation"}


def reference_values(output: dict, prefix: str = "") -> dict:
    """Flatten a report (or sweep result) to {dotted path: leaf}."""
    if "points" in output:
        flat = {}
        for value, point in output["points"].items():
            flat.update(reference_values(point, f"{prefix}points.{value}."))
        return flat
    flat = {}

    def walk(node, path):
        if isinstance(node, dict):
            for key, val in node.items():
                if not (path == "diagnostics." and key in _UNCOMPARED):
                    walk(val, f"{path}{key}.")
        elif isinstance(node, list):
            for i, val in enumerate(node):
                walk(val, f"{path}{i}.")
        else:
            flat[prefix + path[:-1]] = node

    walk(output, "")
    return flat


_SOLVER_DERIVED = re.compile(r"(^|\.)(norms|ratios)\.")


def _tolerance(path: str) -> float:
    # norms and ratios come out of the GMRES solve; everything else depends
    # on the coefficient alone.  (Sweep values such as "0.25" contain dots,
    # so the path is searched, not split.)
    return SOLVER_TOLERANCE if _SOLVER_DERIVED.search(path) else COEFFICIENT_RTOL


def compare_reference(output: dict, expected: dict) -> list[str]:
    """Differences between a report and its recorded reference leaves."""
    got = reference_values(output)
    problems = [f"{path} missing" for path in expected if path not in got]
    problems += [f"{path} unexpected" for path in got if path not in expected]
    for path, want in expected.items():
        if path not in got:
            continue
        have = got[path]
        if _finite(want) and _finite(have) and isinstance(want, float):
            tol = _tolerance(path)
            if abs(have - want) > tol * max(abs(have), abs(want)):
                problems.append(f"{path} = {have!r}, recorded {want!r} (rtol {tol:g})")
        elif have != want:
            problems.append(f"{path} = {have!r}, recorded {want!r}")
    return problems
