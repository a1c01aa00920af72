"""One workload in one fresh interpreter: set up, run the pass, check outputs.

Started by `run.py` with BLAS pinned to one thread and `src/` of the checkout
on PYTHONPATH.  Cases run in-process through `maxreg.cli.main`, one after the
other (a closed loop with a single client).  Writes its result as JSON to
`--result`.
"""
from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import cases as workloads  # noqa: E402
from tracing import Tracer  # noqa: E402

REFERENCE_FILE = os.path.join(HERE, "reference_seed0.json")
WARMUP_ARGV = ["solve", "autonomous-dirichlet", "--set", "time.n_points=64",
               "--set", "mesh.n_cells=8"]


def now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def environment(maxreg) -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "maxreg": maxreg.__version__,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "blas_threads": {k: os.environ.get(k) for k in
                         ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "platform": platform.platform(),
    }


def run_case(main, case: dict, out_dir: str) -> tuple[float, dict | None, list[str]]:
    """Time one CLI invocation; return (seconds, parsed output, problems)."""
    argv = case["argv"] + ["--output-dir", os.path.join(out_dir, case["id"])]
    stdout, stderr = io.StringIO(), io.StringIO()
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = main(argv)
    except Exception:  # noqa: BLE001 - a raising case is a failed case
        return time.perf_counter() - t0, None, ["raised:\n" + traceback.format_exc()]
    seconds = time.perf_counter() - t0
    if code != 0:
        return seconds, None, [f"exit code {code}: {stderr.getvalue().strip()}"]
    with open(stdout.getvalue().strip()) as fh:
        output = json.load(fh)
    return seconds, output, workloads.check_output(case["command"], output)


class Runner:
    def __init__(self, main, out_dir, reference):
        self.main, self.out_dir, self.reference = main, out_dir, reference
        self.first_output: dict[str, dict] = {}
        self.executions: list[dict] = []

    def run(self, case: dict, phase: str) -> float:
        seconds, output, problems = run_case(self.main, case, self.out_dir)
        if output is not None:
            first = self.first_output.setdefault(case["id"], output)
            if output != first:
                problems.append("output differs from the first execution of this case")
            if self.reference is not None:
                problems += workloads.compare_reference(output, self.reference[case["id"]])
        for p in problems:
            print(f"[{case['id']}] {p}", file=sys.stderr)
        self.executions.append({"case": case["id"], "phase": phase,
                                "seconds": seconds, "ok": not problems})
        return seconds


def main() -> int:
    t_launch_default = now()
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--out", required=True)
    p.add_argument("--result", required=True)
    p.add_argument("--t-launch", type=float, default=t_launch_default)
    p.add_argument("--setup-only", action="store_true")
    args = p.parse_args()

    import maxreg
    from maxreg.cli import main as maxreg_main

    src = os.path.join(os.path.dirname(HERE), "src")
    if not os.path.abspath(maxreg.__file__).startswith(src + os.sep):
        print(f"maxreg imported from {maxreg.__file__}, not from {src}", file=sys.stderr)
        return 2
    cases = workloads.workload_cases(args.workload, args.seed)
    digest = workloads.case_list_sha256(cases)
    reference = None
    if args.seed == workloads.DEFAULT_SEED:
        with open(REFERENCE_FILE) as fh:
            recorded = json.load(fh)[args.workload]
        if recorded["case_list_sha256"] != digest:
            print("case list differs from the one the reference was recorded on",
                  file=sys.stderr)
            return 2
        reference = recorded["cases"]
    with contextlib.redirect_stdout(io.StringIO()):
        if maxreg_main(WARMUP_ARGV + ["--output-dir", os.path.join(args.out, "warmup")]):
            print("warm-up solve failed", file=sys.stderr)
            return 2
    setup_s = now() - args.t_launch
    result = {"setup_s": setup_s}
    if not args.setup_only:
        result.update(measure(args, maxreg_main, cases, reference))
        result.update(environment=environment(maxreg), seed=args.seed,
                      case_list_sha256=digest, cases=[c["id"] for c in cases],
                      peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)
    with open(args.result, "w") as fh:
        json.dump(result, fh)
    return 0


def measure(args, maxreg_main, cases, reference) -> dict:
    """Untraced: cycle through the pass, case by case, until --seconds have
    passed and every case ran at least once.  Traced: one untraced pass,
    then whole traced passes until --seconds have passed."""
    runner = Runner(maxreg_main, os.path.join(args.out, "reports"), reference)
    t0 = time.perf_counter()
    if not args.trace:
        i = 0
        while i < len(cases) or time.perf_counter() - t0 < args.seconds:
            runner.run(cases[i % len(cases)], "untraced")
            i += 1
        return {"executions": runner.executions}

    untraced = sum(runner.run(c, "untraced") for c in cases)
    tracer = Tracer()
    tracer.install()
    traced, passes = 0.0, 0
    try:
        while passes == 0 or time.perf_counter() - t0 < args.seconds:
            for case in cases:
                tracer.case = case["id"]
                traced += runner.run(case, "traced")
            passes += 1
    finally:
        tracer.uninstall()
    with open(os.path.join(args.out, "spans.json"), "w") as fh:
        json.dump([s.to_dict() for s in tracer.spans], fh)
    sweep_cases = {c["id"] for c in cases if c["command"] == "sweep"}
    per_layer = tracer.metrics(passes, sweep_cases)
    per_layer["trace.overhead_s"] = traced / passes - untraced
    return {"executions": runner.executions, "per_layer": per_layer,
            "traced_passes": passes, "baseline": baseline(tracer, runner.executions)}


def baseline(tracer: Tracer, executions: list[dict]) -> dict:
    """Order-of-magnitude comparison with the figures ROADMAP item 1 quotes.

    Whole cases are timed from their untraced runs; the half-Sobolev call
    from its span, which holds no nested wrapper.
    """
    out = {}
    half = [s for s in tracer.spans if s.name == "bmo.scale_invariant_half_sobolev"
            and s.extra.get("points") == 4096]
    if half:
        out["half_sobolev_n4096"] = {
            "s": min(s.end - s.start for s in half),
            "peak_mb": max(s.extra["peak_mb"] for s in half),
            "roadmap": {"s": 1.2, "peak_mb": 0.58 * 1024}}
    for key, case, seconds in (("solve_holder_1024x256", "solve-holder-1024x256", 5.8),
                               ("run_commutator_sqrt_product",
                                "commutator-sqrt_product-bundled", 0.92)):
        runs = [e["seconds"] for e in executions
                if e["case"] == case and e["phase"] == "untraced"]
        if runs:
            out[key] = {"s": min(runs), "roadmap": {"s": seconds}}
    return out


if __name__ == "__main__":
    sys.exit(main())
