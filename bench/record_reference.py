"""Record every case's report leaves at the default seed into reference_seed0.json.

Run from the root of a checkout whose numbers are to become the reference:

    PYTHONPATH=src OPENBLAS_NUM_THREADS=1 python3 bench/record_reference.py

Re-recording is only right when a change is meant to alter these numbers.
"""
from __future__ import annotations

import json
import os
import sys

from worker import REFERENCE_FILE, run_case

import cases as workloads
from maxreg.cli import main


def record() -> dict:
    out_dir = os.path.join(".bench_out", "reference")
    recorded = {}
    for workload in workloads.WORKLOADS:
        cases = workloads.workload_cases(workload, workloads.DEFAULT_SEED)
        leaves = {}
        for case in cases:
            _, output, problems = run_case(main, case, out_dir)
            if problems:
                raise SystemExit(f"{case['id']}: {problems}")
            leaves[case["id"]] = workloads.reference_values(output)
        recorded[workload] = {"case_list_sha256": workloads.case_list_sha256(cases),
                              "cases": leaves}
    return recorded


if __name__ == "__main__":
    recorded = record()
    with open(REFERENCE_FILE, "w") as fh:
        json.dump(recorded, fh, indent=0, sort_keys=True)
    print(REFERENCE_FILE, file=sys.stderr)
