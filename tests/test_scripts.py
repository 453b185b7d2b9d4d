"""Smoke test: the experiment scripts run against the current package, from
the repo root or any other directory."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def run_script(*argv, cwd=ROOT):
    return subprocess.run(
        [sys.executable, *argv], cwd=cwd, capture_output=True, text=True, timeout=60
    )


def test_knot_table_runs():
    proc = run_script("scripts/knot_table.py")
    assert proc.returncode == 0, proc.stderr
    trefoil = next(line for line in proc.stdout.splitlines() if line.startswith("trefoil"))
    assert trefoil.endswith("nabla = s^-2 - 1 + s^2")


def test_kz_convergence_runs():
    proc = run_script("scripts/kz_convergence.py", "--n", "3", "--m", "2")
    assert proc.returncode == 0, proc.stderr
    row = next(line.split() for line in proc.stdout.splitlines() if line.split()[:1] == ["1e-09"])
    full_residual, nullspace_residual = float(row[1]), float(row[3])
    assert full_residual <= 1e-6 and nullspace_residual <= 1e-6


def test_scripts_run_from_another_directory(tmp_path):
    proc = run_script(str(ROOT / "scripts" / "kz_convergence.py"), "--n", "3", "--m", "1", cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert "nullspace residual" in proc.stdout
