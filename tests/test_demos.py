"""The narrative demos and the README's commands run to completion."""
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

import eacsim
from eacsim.cli import main

DEMOS = Path(__file__).resolve().parents[1] / "demos"
README = DEMOS.parent / "README.md"


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


def test_readme_commands_exit_zero(tmp_path, monkeypatch, capsys):
    # every `eacsim ...` line of the README's shell blocks, with its TOML block as sweep.cfg
    blocks = re.findall(r"^```(\w+)\n(.*?)^```", README.read_text(), re.M | re.S)
    (config,) = [body for lang, body in blocks if lang == "toml"]
    commands = [shlex.split(line, comments=True)[1:] for lang, body in blocks if lang == "bash"
                for line in body.splitlines() if line.startswith("eacsim ")]
    assert {argv[0] for argv in commands} == {"encode", "contend", "analytics", "reproduce",
                                              "sweep"}
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("EACSIM_OUT_DIR", raising=False)
    (tmp_path / "sweep.cfg").write_text(config)
    for argv in commands:
        assert main(argv) == 0, (argv, capsys.readouterr().err)
