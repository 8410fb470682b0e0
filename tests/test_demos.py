"""Every demo prints the same bytes: the sha256 of its stdout is pinned.

Each demo runs in a fresh interpreter on the package these tests import.
The digests were taken with numpy 2.4 on x86-64, like those of
``test_golden.py``; demo 04's was taken when it still ran one
``run_trial`` call per trial.
"""

from __future__ import annotations

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import biasrank

DEMOS = Path(__file__).resolve().parent.parent / "demos"

DEMO_DIGESTS = {
    "01_bias_and_optimal_constraints.py": "1e530b8d07a976dc3d33b7458eae977a6ecfa1003234e6913be10b4bc8909961",
    "02_order_statistics.py": "c46dc2b7209632edb2e35e8f914ecf873a75b45671fa1294e14ba9c84a6887ee",
    "03_alpha_sweep.py": "42af72305b3bcdc8dde54ebd535e79f6d756384bcf41b472c522e5a06a48399f",
    "04_closed_form_utilities.py": "ba8cfddbfa9a3ba39039ddc7b2b4eebe4ba7cee564329ac8a12527040ee23d07",
    "05_supernumerary_seats.py": "1d2a978ef4e08cd0ea4cd8020035f8b7e6ec13dc7500fdfb7debacc839fe9cbc",
}


def test_every_demo_is_pinned():
    assert sorted(p.name for p in DEMOS.glob("*.py")) == sorted(DEMO_DIGESTS)


@pytest.mark.parametrize("demo", sorted(DEMO_DIGESTS))
def test_stdout_digest(tmp_path, demo):
    env = dict(os.environ, PYTHONPATH=str(Path(biasrank.__file__).resolve().parent.parent))
    proc = subprocess.run([sys.executable, str(DEMOS / demo)], capture_output=True, cwd=tmp_path, env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr.decode()
    assert hashlib.sha256(proc.stdout).hexdigest() == DEMO_DIGESTS[demo]
