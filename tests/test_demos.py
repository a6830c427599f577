"""Every script in demos/ runs to completion against the current API and
prints exactly the output recorded in tests/demo_output/.

The demos are deterministic (fixed graphs, ranks and seeds), so any
change to what they print is a change in ranks, tuples or embeddings.
To record a demo's output on purpose, run it from the repository root:

    PYTHONPATH=src python3 demos/NAME.py > tests/demo_output/NAME.txt
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))
EXPECTED = Path(__file__).resolve().parent / "demo_output"


def test_demos_found():
    assert DEMOS
    assert sorted(p.stem for p in EXPECTED.glob("*.txt")) == [p.stem for p in DEMOS]


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_runs(demo):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, str(demo)],
        cwd=ROOT, env=env, capture_output=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr.decode()
    assert proc.stdout == (EXPECTED / f"{demo.stem}.txt").read_bytes()
