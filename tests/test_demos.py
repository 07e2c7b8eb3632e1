"""Smoke test: the quick demos run to completion from a fresh interpreter.

Demos 01, 02 and 04 take about 3 s together and import the public names of
geometry, symmetry, models and the chiral pairings; each runs in a temporary
working directory with `src/` on the path and must exit 0.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("demo", ["01_point_sets.py", "02_tenfold_classification.py",
                                  "04_winding_and_zero_modes.py"])
def test_demo_exits_0(tmp_path, demo):
    path = os.pathsep.join(p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, str(ROOT / "demos" / demo)], cwd=tmp_path,
                          env={**os.environ, "PYTHONPATH": path},
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert proc.stdout
