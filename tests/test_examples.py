"""Smoke tests: every shipped example runs to completion.

Each example ends with internal assertions about its own output, so a
clean exit is a meaningful check, not just an import test.  The examples
drive the public API end to end, so a change to it (an outcome's
fields, a removed method) shows here.  Each runs in a fresh interpreter
from a temporary directory, with the package under test on ``PYTHONPATH``
whatever the caller's environment holds.
"""

from __future__ import annotations

import os
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
EXAMPLES_DIR = ROOT / "examples"

EXAMPLES = sorted(p.name for p in EXAMPLES_DIR.glob("*.py"))


def test_examples_directory_is_populated():
    assert len(EXAMPLES) >= 3, "the library ships at least three examples"
    assert "quickstart.py" in EXAMPLES


@pytest.mark.parametrize("script", EXAMPLES)
def test_example_runs_cleanly(script, tmp_path):
    result = subprocess.run(
        [sys.executable, str(EXAMPLES_DIR / script)],
        capture_output=True,
        text=True,
        timeout=180,
        cwd=tmp_path,
        env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
    )
    assert result.returncode == 0, (
        f"{script} failed:\n{result.stdout}\n{result.stderr}"
    )
    assert result.stdout.strip(), f"{script} produced no output"
