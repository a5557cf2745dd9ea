"""Each demo script prints exactly its golden output.

The goldens under tests/golden/demos/ are the demos' stdout; a change
that moves any printed byte must regenerate them deliberately.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.stem)
def test_demo_stdout_matches_golden(demo):
    path = [str(ROOT / "src"), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    run = subprocess.run([sys.executable, str(demo)], env=env,
                         capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    golden = ROOT / "tests" / "golden" / "demos" / (demo.stem + ".txt")
    assert run.stdout == golden.read_text(encoding="utf-8")
