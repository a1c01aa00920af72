"""Self-tests of the benchmark's own logic.  Run from the root of a checkout:

    python3 bench/selftest.py

(or `python3 -m pytest bench/selftest.py`).  Each test runs tiny maxreg
problems only, so the file finishes in seconds.
"""
from __future__ import annotations

import contextlib
import copy
import io
import json
import math
import os
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [HERE, os.path.join(os.path.dirname(HERE), "src")]

import numpy  # noqa: E402

import cases as workloads  # noqa: E402
from run import tail  # noqa: E402
from tracing import Span, Tracer, self_times  # noqa: E402

TINY_SOLVE = ["solve", "autonomous-dirichlet", "--set", "time.n_points=256",
              "--set", "mesh.n_cells=8"]
TINY_SWEEP = ["sweep", "sqrt-product", "--axis", "family", "--values",
              "constant,holder", "--set", "mesh.n_cells=8",
              "--set", "analysis.resolutions=[]"]


def cli_output(argv: list[str]) -> dict:
    from maxreg.cli import main

    with tempfile.TemporaryDirectory() as tmp:
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            assert main(argv + ["--output-dir", tmp]) == 0
        with open(stdout.getvalue().strip()) as fh:
            return json.load(fh)


def test_solve_check_rejects_perturbed_reports():
    report = cli_output(TINY_SOLVE)
    assert workloads.check_output("solve", report) == []
    for path, value in ((("diagnostics", "residual"), 1e-6),
                        (("diagnostics", "guard_mass_fraction"), 1e-3),
                        (("diagnostics", "oracle_relative_deviation"), 1e-2),
                        (("norms", "l2h_u"), math.nan),
                        (("ratios", "maxreg_alpha_0.5"), math.inf)):
        bad = copy.deepcopy(report)
        bad[path[0]][path[1]] = value
        assert workloads.check_output("solve", bad), path


def test_other_checks_reject_perturbed_outputs():
    analyze = {"diagnostics": {"reflected_2T_le_3M": True, "reflected_3T_le_9M": True,
                               "M_natural_le_bound": True}}
    assert workloads.check_output("analyze", analyze) == []
    analyze["diagnostics"]["reflected_3T_le_9M"] = False
    assert workloads.check_output("analyze", analyze)
    assert workloads.check_output("commutator", {"seminorms": [{"value": 0.7}]}) == []
    for value in (0.0, -1.0, math.nan, None):
        assert workloads.check_output("commutator", {"seminorms": [{"value": value}]})
    sweep = cli_output(TINY_SWEEP)
    assert workloads.check_output("sweep", sweep) == []
    sweep["points"]["holder"] = {"error": "boom", "error_type": "ValueError"}
    assert workloads.check_output("sweep", sweep)


def test_reference_comparison_tolerances():
    sweep = cli_output(TINY_SWEEP)
    expected = workloads.reference_values(sweep)
    assert workloads.compare_reference(sweep, expected) == []
    point = sweep["points"]["holder"]
    point["norms"]["l2h_u"] *= 1 + 1e-12          # within the solver tolerance
    assert workloads.compare_reference(sweep, expected) == []
    point["norms"]["l2h_u"] *= 1 + 1e-6
    assert workloads.compare_reference(sweep, expected)
    sweep = cli_output(TINY_SWEEP)
    sweep["points"]["holder"]["diagnostics"]["iterations"] += 3     # not compared
    assert workloads.compare_reference(sweep, expected) == []
    sweep["points"]["holder"]["seminorms"][0]["value"] *= 1 + 1e-10  # coefficient-only
    assert workloads.compare_reference(sweep, expected)
    dotted = {"points": {"0.25": {"norms": {"l2h_u": 2.0}}}}    # alpha sweep key
    expected = workloads.reference_values(dotted)
    dotted["points"]["0.25"]["norms"]["l2h_u"] *= 1 + 1e-12
    assert workloads.compare_reference(dotted, expected) == []


def test_self_time_of_nested_spans():
    spans = [Span(0, "root", 0.0, 10.0),
             Span(1, "a", 1.0, 4.0, parent=0),
             Span(2, "b", 3.0, 6.0, parent=0),           # overlaps a (other thread)
             Span(3, "a.child", 1.5, 2.5, parent=1),
             Span(4, "late", 9.0, 12.0, parent=0),        # runs past its parent
             Span(5, "other", 20.0, 21.0)]
    own = self_times(spans)
    assert math.isclose(own[0], 10.0 - (6.0 - 1.0) - (10.0 - 9.0))
    assert math.isclose(own[1], 3.0 - 1.0)
    assert math.isclose(own[2], 3.0)
    assert math.isclose(own[3], 1.0)
    assert math.isclose(own[5], 1.0)


def test_tracing_observes_without_changing_outputs():
    import maxreg.cli
    import maxreg.solver

    untraced = cli_output(TINY_SWEEP)
    original = maxreg.cli.run_solve, maxreg.solver.spla, numpy.fft.fft
    tracer = Tracer()
    tracer.install()
    try:
        assert maxreg.cli.run_solve is not original[0]
        traced = cli_output(TINY_SWEEP)
    finally:
        tracer.uninstall()
    assert (maxreg.cli.run_solve, maxreg.solver.spla, numpy.fft.fft) == original
    assert traced == untraced
    names = {s.name for s in tracer.spans}
    assert {"cli.run_sweep", "cli.run_solve", "solver.cauchy_solve", "solver.gmres",
            "solver.matvec", "solver.precond", "numpy.fft.fft",
            "bmo.scale_invariant_half_sobolev"} <= names
    by_id = {s.id: s for s in tracer.spans}
    for s in tracer.spans:
        if s.parent is not None:           # parents are on the same thread
            assert by_id[s.parent].thread == s.thread
            assert by_id[s.parent].start <= s.start <= s.end <= by_id[s.parent].end
    metrics = tracer.metrics(1, sweep_cases={None})
    assert metrics["solver.gmres.iterations"] > 0
    assert metrics["bmo.scale_invariant_half_sobolev.peak_mb"] > 0
    assert metrics["cli.run_sweep.busy_ratio"] > 0


def test_workload_generator_is_seeded():
    for workload in workloads.WORKLOADS:
        a = workloads.workload_cases(workload, 7)
        assert a == workloads.workload_cases(workload, 7)
        assert len({c["id"] for c in a}) == len(a) >= 2
        assert (workloads.case_list_sha256(a)
                != workloads.case_list_sha256(workloads.workload_cases(workload, 8)))


def test_tail_percentile():
    assert tail([1.0] * 19) is None
    p, value, beyond = tail([float(i) for i in range(20)])
    assert (p, value, beyond) == (50, 9.0, 10)
    p, value, beyond = tail([float(i) for i in range(49)])
    assert (p, beyond) == (79, 10) and value == 38.0


if __name__ == "__main__":
    tests = [(n, f) for n, f in sorted(globals().items()) if n.startswith("test_")]
    for name, fn in tests:
        fn()
        print(f"ok  {name}")
    print(f"{len(tests)} passed")
