"""Smoke tests of the demo scripts and the README's library example.

Each runs a small ensemble cleanly. Both use only the public API, so a
change that narrows it, or that makes a run warn, fails here.
"""

import os
import re
import subprocess
import sys
import types
from pathlib import Path

import pytest

import beamlife

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def readme_library_block():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Library use", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)


@pytest.mark.parametrize("demo", DEMOS, ids=[d.stem for d in DEMOS])
def test_demo_runs_cleanly(demo):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, str(demo), "--runs", "2"], capture_output=True, text=True, env=env, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
    assert proc.stdout


def test_readme_library_block_runs(capsys):
    small, cuts = re.subn(r"\bruns=\d+", "runs=3", readme_library_block())
    assert cuts, "the example sets no run count to cut"
    exec(compile(small, "README.md", "exec"), {})
    assert capsys.readouterr().out


def test_public_api_is_what_the_readme_and_demos_use():
    # Geometry the engine never reads stays importable from beamlife.geometry
    # but is not part of the package's API.
    used = set(re.findall(r"\bbl\.(\w+)", readme_library_block()))
    for demo in DEMOS:
        for names in re.findall(r"^from beamlife import (.+)$", demo.read_text(encoding="utf-8"), re.MULTILINE):
            used.update(name.strip() for name in names.split(","))
    assert {"preset", "run_lifetime", "run_ensemble", "compare_strategies"} <= used
    assert used <= set(beamlife.__all__)
    hidden = {"Destination", "FarFieldWarning", "PolarPoint", "carrier_phase", "deploy_cluster", "far_field_distance"}
    assert not hidden & set(beamlife.__all__)
    # `from beamlife import *` binds no submodule, such as `config`
    assert not [name for name in beamlife.__all__ if isinstance(getattr(beamlife, name), types.ModuleType)]
