"""reidapt benchmark: one command for every workload and metric.

Run from the repository root:

    python3 perfbench/run.py [--workload panel|label-5k|train-long|all]
        [--seed N] [--seconds S] [--trace 0|1]

Each workload runs in a fresh child process (``perfbench/workloads.py``), so
its peak resident set is its own. The child's BLAS thread pool is capped at
``BLAS_THREADS``. The metric names and units come from ``BENCHMARK.json``.
Every metric is printed by name with its unit; the last line of stdout is
one JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
With ``--workload all`` the metric names carry a ``<workload>.`` prefix.

Exit status is 0 whenever a result is printed, failed operations included;
it is 2, with nothing printed on stdout, when the library or
``BENCHMARK.json`` is missing.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ("panel", "label-5k", "train-long")
OUT_DIR = ".perfbench-out"  # work files and traces, inside the checkout
BLAS_THREADS = 1            # the single-threaded baseline
CHILD_TIMEOUT_S = 170.0
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def child_env(root: Path) -> dict:
    env = dict(os.environ)
    env.update({var: str(BLAS_THREADS) for var in THREAD_VARS})
    env["PYTHONPATH"] = str(root / "src")
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env


def run_child(root: Path, workload: str, args) -> dict:
    """One workload in a fresh process; a crash or timeout is a failed run."""
    cmd = [sys.executable, str(HERE / "workloads.py"), "--workload", workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--out", str(root / OUT_DIR)]
    if args.tiny:
        cmd.append("--tiny")
    try:
        proc = subprocess.run(cmd, cwd=root, env=child_env(root), capture_output=True,
                              text=True, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired as err:  # subprocess.run kills and reaps it
        return {"attempted": 1, "failed": 1,
                "errors": [f"timed out after {err.timeout:.0f} s"]}
    lines = proc.stdout.strip().splitlines()
    try:
        doc = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        doc = None
    if proc.returncode != 0 or not isinstance(doc, dict):
        tail = proc.stderr.strip().splitlines()[-5:]
        return {"attempted": 1, "failed": 1,
                "errors": [f"child exited {proc.returncode}"] + tail}
    if proc.stderr.strip() and doc.get("failed"):
        print(proc.stderr, file=sys.stderr, end="")
    return doc


def collect(doc: dict, metrics: list, prefix: str) -> tuple[dict, list]:
    """Pick the declared metrics out of a child's result.

    A metric the child could not produce is reported as 0 and named in the
    second return value. For a per-layer metric that means its function no
    longer exists, or its count was not produced on this workload: it is
    'absent', which is not an error.
    """
    values = doc.get("layers") if "layers" in doc else doc.get("e2e", {})
    out, missing = {}, []
    for m in metrics:
        value = (values or {}).get(m["name"])
        if value is None:
            missing.append(m["name"])
            value = 0.0
        out[prefix + m["name"]] = {"value": value, "unit": m["unit"]}
    return out, missing


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="reidapt benchmark")
    parser.add_argument("--workload", default="all", choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--seconds", type=int, default=None,
                        help="body time to measure per run (default: run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="small sizes, for the benchmark's own smoke tests")
    args = parser.parse_args(argv)
    args.seed %= 2**32  # the library takes nonnegative seeds

    root = Path.cwd()
    if not (root / "src" / "reidapt" / "__init__.py").is_file():
        return fail(f"no reidapt sources under {root / 'src'}; run from the repository root")
    try:
        catalog = json.loads((root / "BENCHMARK.json").read_text())
    except (OSError, json.JSONDecodeError) as err:
        return fail(f"cannot read BENCHMARK.json: {err}")
    if args.seconds is None:
        args.seconds = catalog["run_seconds"]
    metrics = catalog["per_layer"] if args.trace else catalog["end_to_end"]

    env = {"python": platform.python_version(), "nproc": os.cpu_count(),
           "affinity": len(os.sched_getaffinity(0)), "load_start": os.getloadavg()}
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    result = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in workloads:
        t0 = time.perf_counter()
        doc = run_child(root, workload, args)
        prefix = f"{workload}." if args.workload == "all" else ""
        values, missing = collect(doc, metrics, prefix)
        result["metrics"].update(values)
        result["attempted"] += doc["attempted"]
        result["failed"] += doc["failed"]
        env.update(doc.get("env", {}))
        print(f"== {workload} (seed {args.seed}, trace {args.trace}, "
              f"{time.perf_counter() - t0:.1f} s): "
              f"{doc['failed']} failed of {doc['attempted']} attempted")
        for error in doc.get("errors", []):
            print(f"   error: {error}")
        label = "  (absent)" if args.trace else "  (not produced)"
        for name, entry in values.items():
            note = label if name[len(prefix):] in missing else ""
            print(f"   {name:<48} {entry['value']:>14.6g} {entry['unit']}{note}")
        if "samples" in doc:
            print(f"   samples: {json.dumps(doc['samples'])}")
        if doc.get("trace_file"):
            print(f"   spans written to {doc['trace_file']}")
        if doc.get("observer_errors"):
            print(f"   count observers that failed: {doc['observer_errors']}")
        # an end-to-end metric the child could not produce is a failure;
        # an absent per-layer name is not
        if doc["failed"] or (missing and not args.trace):
            result["correct"] = False
    env["load_end"] = os.getloadavg()
    print(f"env: {json.dumps(env)}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
