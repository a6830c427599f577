"""Every Python file parses as the declared minimum version's syntax.

pyproject.toml declares Python 3.10, and an interpreter of a later version
accepts syntax that 3.10 rejects (``except*``, for one).  ``ast.parse``
with ``feature_version`` catches that on any newer interpreter too.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MINIMUM = (3, 10)  # requires-python in pyproject.toml


def test_every_file_parses_as_the_minimum_version():
    files = sorted(p for d in ("src", "tests", "perfbench", "demos")
                   for p in (ROOT / d).rglob("*.py"))
    assert len(files) > 20
    for path in files:
        ast.parse(path.read_text(), filename=str(path), feature_version=MINIMUM)
