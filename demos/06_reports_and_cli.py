"""
Reports and the command line
============================

Every experiment ends in a machine-readable report: schema-versioned
JSON (bit-exact round-trips) or CSV with a fixed column order, plus
two-column plot-data companions.  The same pipelines are scripted behind
the `maxreg` command with five subcommands (solve, analyze, extend,
commutator, sweep) driven by a validated JSON config.  This script
builds a small report by hand, round-trips it, and then runs the bundled
configs through the command-line entry point in-process.
"""
import json
import tempfile
from pathlib import Path

import numpy as np

from maxreg.cli import main
from maxreg.report import (
    RegularityReport,
    SeminormRow,
    emit_plot_data,
    emit_report,
    load_report,
)

# the reports go to a temporary directory, removed with everything in it
# when the demo ends
with tempfile.TemporaryDirectory(prefix="maxreg-demo-") as tmp:
    workdir = Path(tmp)

    report = RegularityReport(
        experiment_id="demo",
        coefficient={"kind": "sqrt_product", "seed": 7},
        resolutions={"n_t": 512, "n_x": 64},
        norms={"u_E": 0.25, "f_L2_H": 1.0},
        ratios={"maxreg": 0.51},
        seminorms=[SeminormRow("bmo", 0.5, 0.3394, (-0.25, 0.25), 512)],
    )
    path = emit_report(report, str(workdir / "demo.json"))
    again = load_report(path)
    print("JSON round-trip exact:", again.to_dict() == report.to_dict())

    emit_plot_data(str(workdir / "demo-plot.csv"),
                   np.linspace(0, 1, 4), np.linspace(0, 1, 4) ** 2,
                   header=("t", "norm_u"))
    print("plot companion written:", (workdir / "demo-plot.csv").exists())

    print()
    print("running the bundled configs through the CLI")
    print("-" * 60)
    code = main(["solve", "autonomous-dirichlet", "--output-dir", str(workdir)])
    rep = load_report(str(workdir / "autonomous-dirichlet.report.json"))
    print("exit code:", code)
    print("deviation from the exact eigen-oracle:",
          f"{rep.diagnostics['oracle_relative_deviation']:.2e}")

    code = main(["analyze", "sqrt-product",
                 "--set", "analysis.resolutions=[512]",
                 "--output-dir", str(workdir)])
    rep = load_report(str(workdir / "sqrt-product.report.json"))
    print("exit code:", code)
    for row in rep.seminorms:
        flag = "" if row.divergent_flag is None else f"  divergent={row.divergent_flag}"
        print(f"  {row.functional:32s} = {row.value:.4f}{flag}")
    print("extension bound checks:",
          {k: v for k, v in rep.diagnostics.items() if k.endswith(("3M", "9M", "bound"))})
