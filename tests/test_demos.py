"""Every demo script runs to completion from a copy of the demos directory."""

import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import radiofront

DEMOS = Path(__file__).resolve().parent.parent / "demos"
SRC = Path(radiofront.__file__).resolve().parent.parent


@pytest.mark.parametrize("script", sorted(p.name for p in DEMOS.glob("*.py")))
def test_demo_runs(tmp_path, script):
    # a copy, so the demos' own demo_out/ is left alone
    shutil.copytree(DEMOS, tmp_path / "demos", ignore=shutil.ignore_patterns("demo_out", "__pycache__"))
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    run = subprocess.run(
        [sys.executable, str(tmp_path / "demos" / script)],
        cwd=tmp_path,
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert run.returncode == 0, run.stderr
