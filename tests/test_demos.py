"""The demo scripts print what they printed when their golden output was written.

Each script runs in a fresh process with its default arguments; its stdout
must equal ``tests/data/<script>.out`` byte for byte.  A change that means
to alter what a demo prints rewrites the file in the same change.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import bnrefine

ROOT = Path(__file__).parent.parent
DATA = Path(__file__).parent / "data"


@pytest.mark.parametrize("script", ["recovery_demo", "model_scores_demo"])
def test_demo_prints_its_golden_output(script):
    env = dict(os.environ, PYTHONPATH=str(Path(bnrefine.__file__).parent.parent))
    result = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / f"{script}.py")],
        env=env,
        capture_output=True,
        check=True,
    )
    assert result.stdout == (DATA / f"{script}.out").read_bytes()
