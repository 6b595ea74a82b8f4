"""The benchmark's count observers still read what the library passes them.

``perfbench/counts.py`` reads named arguments and result fields of traced
calls (``joint_loss_and_grads``' ``coarse``, ``refined`` and ``cfg``, the
``labels`` of the two metric losses, ``build_distance_graph``'s result and
more). An observer that raises never breaks the traced call, so a rename in
the library only blanks a layer count; the benchmark's own tests cannot see
it. Each workload runs here once, tiny and traced, and must report no failed
operation and no observer error.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("workload", ["panel", "label-5k", "train-long"])
def test_traced_workload_has_no_observer_errors(workload, tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    env.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "workloads.py"), "--workload", workload,
         "--seed", "3", "--seconds", "1", "--trace", "1", "--tiny", "--out", str(tmp_path)],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(proc.stdout.strip().splitlines()[-1])
    assert doc["failed"] == 0, doc["errors"]
    assert doc["observer_errors"] == []
