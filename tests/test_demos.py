"""The narrative demos run to completion."""
import os
import subprocess
import sys
from pathlib import Path

import pytest

import eacsim

DEMOS = Path(__file__).resolve().parents[1] / "demos"


@pytest.mark.parametrize("name", [
    "01_contention_resolution.py", "02_epr_extraction.py", "03_noisy_distribution.py",
    "04_figure_datasets.py",
])
def test_demo_exits_zero(tmp_path, name):
    src = str(Path(eacsim.__file__).resolve().parents[1])
    env = dict(os.environ, TMPDIR=str(tmp_path),
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, str(DEMOS / name)], cwd=tmp_path, env=env,
                          capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
