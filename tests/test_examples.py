"""Every script under ``examples/`` runs to completion (exit 0)."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).parents[1]
EXAMPLES = sorted((ROOT / "examples").glob("*.py"))


def test_the_examples_are_found():
    assert EXAMPLES


@pytest.mark.parametrize("script", EXAMPLES, ids=lambda p: p.name)
def test_example_runs(script, tmp_path):
    env = {
        **os.environ,
        "PYTHONPATH": str(ROOT / "src"),
        "REPRO_ARTIFACT_CACHE": str(tmp_path / "kernels"),
    }
    env.pop("REPRO_SKELETON_CACHE", None)
    done = subprocess.run(
        [sys.executable, str(script)], cwd=tmp_path, env=env,
        capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stdout[-2000:] + done.stderr[-2000:]
