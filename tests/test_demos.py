"""Smoke test of the demo scripts: each runs in a fresh interpreter against
the package source, exits 0 and prints something."""
import os
import subprocess
import sys
from pathlib import Path

import pytest

import gasgeometry

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_demos_are_found():
    assert DEMOS


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.name)
def test_demo_runs(path, tmp_path):
    src = str(Path(gasgeometry.__file__).parents[1])
    proc = subprocess.run([sys.executable, str(path)], cwd=tmp_path,
                          env=dict(os.environ, PYTHONPATH=src),
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip()
