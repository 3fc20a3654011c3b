"""Smoke tests of the demo scripts and the README's library example.

Each runs a small ensemble cleanly. Both use only the public API, so a
change that narrows it, or that makes a run warn, fails here.
"""

import importlib
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
    # The root exports what the README block and the demos call, plus the scenario
    # loader and the scenario, result and error types that they hand around; every
    # other helper is imported from its submodule, such as beamlife.allocation.
    used = set(re.findall(r"\bbl\.(\w+)", readme_library_block()))
    for demo in DEMOS:
        for names in re.findall(r"^from beamlife import (.+)$", demo.read_text(encoding="utf-8"), re.MULTILINE):
            used.update(name.strip() for name in names.split(","))
    assert {"preset", "run_lifetime", "run_ensemble", "compare_strategies"} <= used
    named = {
        "load_config", "ScenarioConfig", "EnergySpec", "StrategySpec", "DeathSpec",
        "LifetimeTrace", "EnsembleResult", "ComparisonResult", "ConfigError", "InfeasibleAllocationError",
    }
    assert sorted(beamlife.__all__) == sorted(used | named)
    # `from beamlife import *` binds no submodule, such as `config`
    assert not [name for name in beamlife.__all__ if isinstance(getattr(beamlife, name), types.ModuleType)]


# The lower-level helpers: public in their submodules, not re-exported by the root.
SUBMODULE_HELPERS = {
    "allocation": [
        "ChannelStats", "ReiStats", "analytic_average_snr", "cbepa_weight", "cbpa_normalized_weights",
        "compute_wmax", "lognormal_channel_stats", "quantize_weights", "solve_max_gain", "solve_min_power",
    ],
    "config": ["preset_description", "preset_names"],
    "energy": ["sample_initial_energies"],
    "geometry": ["db_to_linear", "linear_to_db", "sample_channel", "sample_phase_errors"],
    "lifetime": ["bit_rate", "evaluate_death"],
}
HELPERS = [(module, name) for module, names in SUBMODULE_HELPERS.items() for name in names]


@pytest.mark.parametrize("module, name", HELPERS, ids=[f"{module}.{name}" for module, name in HELPERS])
def test_helper_is_imported_from_its_submodule(module, name):
    submodule = importlib.import_module(f"beamlife.{module}")
    assert name in submodule.__all__
    assert callable(getattr(submodule, name))
    assert name not in beamlife.__all__
    assert not hasattr(beamlife, name)
