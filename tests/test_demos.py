"""The first three demos run to completion as scripts.

Demo 03 is the only runnable example of the memory-bank API. Demos 04 and
05 repeat the panel adaptation run and stay out of this suite.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("name", ["01_synthetic_data.py", "02_offline_labels.py",
                                  "03_spread_out_bank.py"])
def test_demo_exits_zero(name):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, str(ROOT / "demos" / name)], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
