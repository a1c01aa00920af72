"""maxreg benchmark: seeded CLI workloads, end-to-end metrics, traced layers.

Usage, from the root of a source checkout:

    python3 bench/run.py --workload solve-large --seed 0 --seconds 25 --trace 0

Each workload runs in a fresh interpreter (`worker.py`) with the BLAS thread
count pinned to 1, so that peak RSS does not leak between workloads and the
sweep's 2-worker pool plus BLAS stay within the machine's cores.  With
`--trace 0` it prints the end-to-end metrics; with `--trace 1` the per-layer
metrics of a separate traced run.  The last line of standard output is one
JSON object: {"correct", "attempted", "failed", "metrics"}.  Spans, the
environment record and every report land under `.bench_out/`.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, HERE)

from cases import WORKLOADS  # noqa: E402

SETUP_PROBES = 4          # extra set-ups per run; setup_s is the median of 5
WORKER_TIMEOUT_S = 170    # the whole run must end within 180 s
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def run_worker(args, out: str, result: str, setup_only: bool) -> dict:
    env = {**os.environ, **BLAS_ENV,
           "PYTHONPATH": os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])),
           "PYTHONDONTWRITEBYTECODE": "1"}
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out", out, "--result", result,
           "--t-launch", repr(time.clock_gettime(time.CLOCK_MONOTONIC))]
    if setup_only:
        cmd.append("--setup-only")
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=sys.stderr)
    try:
        code = proc.wait(timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise SystemExit(f"worker exceeded {WORKER_TIMEOUT_S} s")
    if code != 0:
        raise SystemExit(f"worker exited with code {code}")
    with open(result) as fh:
        return json.load(fh)


def tail(samples: list[float]) -> tuple[float, float, int] | None:
    """Highest percentile (multiple of 1 %) with at least ten samples beyond it."""
    n = len(samples)
    if n < 20:
        return None
    ordered = sorted(samples)
    p = max(q for q in range(1, 100) if n - (q * n + 99) // 100 >= 10)
    k = (p * n + 99) // 100          # samples at or below the p-th percentile
    return p, ordered[k - 1], n - k


def source_sha256() -> str:
    """Digest of the package sources, which identifies the code without git."""
    digest = hashlib.sha256()
    for base, dirs, files in sorted(os.walk(os.path.join(SRC, "maxreg"))):
        dirs[:] = sorted(d for d in dirs if d != "__pycache__")
        for name in sorted(files):
            path = os.path.join(base, name)
            digest.update(os.path.relpath(path, SRC).encode())
            with open(path, "rb") as fh:
                digest.update(fh.read())
    return digest.hexdigest()


def git_revision() -> str | None:
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                         capture_output=True, text=True, check=False)
    return out.stdout.strip() or None


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=int, default=25)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()
    if not os.path.isfile(os.path.join(SRC, "maxreg", "cli.py")):
        print(f"no maxreg source tree at {SRC}", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        declared = json.load(fh)["per_layer" if args.trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}

    out = os.path.join(ROOT, ".bench_out", f"{args.workload}-seed{args.seed}-trace{args.trace}")
    shutil.rmtree(out, ignore_errors=True)
    os.makedirs(out)
    setups = []
    if not args.trace:
        for k in range(SETUP_PROBES):
            probe = run_worker(args, os.path.join(out, f"setup{k}"),
                               os.path.join(out, f"setup{k}.json"), setup_only=True)
            setups.append(probe["setup_s"])
    res = run_worker(args, out, os.path.join(out, "worker.json"), setup_only=False)

    attempted = len(res["executions"])
    failed = sum(not e["ok"] for e in res["executions"])
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "case_list_sha256": res["case_list_sha256"],
        "git_revision": git_revision(), "source_sha256": source_sha256(),
        "environment": res["environment"],
        "cases": len(res["cases"]), "executions": attempted, "failed": failed,
        "failed_fraction": failed / attempted,
    }
    if args.trace:
        values = res["per_layer"]
        record["traced_passes"] = res["traced_passes"]
        record["baseline"] = res["baseline"]
    else:
        setups.append(res["setup_s"])
        runs = res["executions"]
        case_medians = [statistics.median(e["seconds"] for e in runs if e["case"] == c)
                        for c in res["cases"]]
        values = {
            "setup_s": statistics.median(setups),
            # time to all results of one pass, each case at its median
            "wall_s": sum(case_medians),
            "case_s.p50": statistics.median(case_medians),
            "peak_rss_mb": res["peak_rss_mb"],
        }
        record["setup_samples_s"] = setups
        t = tail([e["seconds"] for e in runs])
        record["case_s.tail"] = (None if t is None else
                                 {"percentile": t[0], "value": t[1], "unit": "s",
                                  "beyond": t[2], "samples": len(runs)})
    if set(values) != set(units):
        print(f"measured {sorted(values)} but BENCHMARK.json declares {sorted(units)}",
              file=sys.stderr)
        return 2
    metrics = {k: {"value": values[k], "unit": units[k]} for k in units}
    record["metrics"] = metrics
    with open(os.path.join(out, "record.json"), "w") as fh:
        json.dump(record, fh, indent=1)

    for name, m in metrics.items():
        print(f"{args.workload:15s} {name:45s} {m['value']:.6g} {m['unit']}")
    print(f"{args.workload:15s} {'failed_fraction':45s} {failed / attempted:.6g} ratio "
          f"({failed} of {attempted} case runs; {len(res['cases'])} cases per pass)")
    if not args.trace:
        t = record["case_s.tail"]
        print(f"{args.workload:15s} {'case_s.tail':45s} " +
              ("n/a s (fewer than 20 case runs)" if t is None else
               f"{t['value']:.6g} s (p{t['percentile']}, {t['beyond']} of "
               f"{t['samples']} beyond)"))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
