"""Every demo exits 0 and prints exactly its recorded output."""

import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted(p.stem for p in (ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("name", DEMOS)
def test_demo_output_matches_golden(name):
    # Like test_trace_logging: the child runs this checkout's src whether
    # or not tensoralg is installed.
    result = subprocess.run(
        [sys.executable, str(ROOT / "demos" / f"{name}.py")],
        capture_output=True, cwd=ROOT,
        env={"PATH": "/usr/bin:/bin", "PYTHONPATH": str(ROOT / "src")},
    )
    assert result.returncode == 0, result.stderr.decode()
    golden = ROOT / "tests" / "golden" / "demos" / f"{name}.out"
    assert result.stdout == golden.read_bytes()
