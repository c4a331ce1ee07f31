"""Every demo exits 0 and prints exactly its recorded output, and so does
every python code block of the README."""

import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted(p.stem for p in (ROOT / "demos").glob("*.py"))
README_BLOCKS = re.findall(r"^```python\n(.*?)^```",
                          (ROOT / "README.md").read_text(), re.M | re.S)


def _run(argv):
    # Like test_trace_logging: the child runs this checkout's src whether
    # or not tensoralg is installed.
    return subprocess.run(
        argv, capture_output=True, cwd=ROOT,
        env={"PATH": "/usr/bin:/bin", "PYTHONPATH": str(ROOT / "src")})


@pytest.mark.parametrize("name", DEMOS)
def test_demo_output_matches_golden(name):
    result = _run([sys.executable, str(ROOT / "demos" / f"{name}.py")])
    assert result.returncode == 0, result.stderr.decode()
    golden = ROOT / "tests" / "golden" / "demos" / f"{name}.out"
    assert result.stdout == golden.read_bytes()


@pytest.mark.parametrize("block", README_BLOCKS, ids=[
    f"block{i}" for i in range(len(README_BLOCKS))])
def test_readme_block_prints_its_output_comments(block):
    # a line that is only a comment, "# D", is the output the block prints
    result = _run([sys.executable, "-c", block])
    assert result.returncode == 0, result.stderr.decode()
    expected = "".join(line[2:] + "\n" for line in block.splitlines()
                       if line.startswith("# "))
    assert result.stdout.decode() == expected
