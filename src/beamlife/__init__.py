"""Monte Carlo lifetime simulator for beamforming wireless sensor clusters.

Compares energy-aware power allocation (per-node weights proportional to
residual battery energy, scaled in closed form to hold a target average
SNR) against equal power allocation and centralized optimal baselines,
under log-normal shadowing, carrier phase errors, weight quantization and
multi-destination operation.

The package root holds the scenario, the runs and their results; the
lower-level helpers are imported from their submodules, such as
``beamlife.allocation`` and ``beamlife.geometry``.
"""

__version__ = "0.1.0"

from .allocation import InfeasibleAllocationError
from .config import ConfigError, DeathSpec, EnergySpec, ScenarioConfig, StrategySpec, load_config, preset
from .ensemble import ComparisonResult, EnsembleResult, compare_strategies, run_ensemble
from .lifetime import LifetimeTrace, run_lifetime

__all__ = [
    "preset",
    "load_config",
    "ScenarioConfig",
    "EnergySpec",
    "StrategySpec",
    "DeathSpec",
    "run_lifetime",
    "LifetimeTrace",
    "run_ensemble",
    "EnsembleResult",
    "compare_strategies",
    "ComparisonResult",
    "ConfigError",
    "InfeasibleAllocationError",
]
