"""Monte Carlo lifetime simulator for beamforming wireless sensor clusters.

Compares energy-aware power allocation (per-node weights proportional to
residual battery energy, scaled in closed form to hold a target average
SNR) against equal power allocation and centralized optimal baselines,
under log-normal shadowing, carrier phase errors, weight quantization and
multi-destination operation.
"""

__version__ = "0.1.0"

from types import ModuleType as _ModuleType

from .allocation import (
    ChannelStats,
    InfeasibleAllocationError,
    ReiStats,
    analytic_average_snr,
    cbepa_weight,
    cbpa_normalized_weights,
    compute_wmax,
    lognormal_channel_stats,
    quantize_weights,
    solve_max_gain,
    solve_min_power,
)
from .config import (
    ConfigError,
    DeathSpec,
    EnergySpec,
    ScenarioConfig,
    StrategySpec,
    load_config,
    preset,
    preset_description,
    preset_names,
)
from .energy import (
    LinkBudget,
    required_tx_power_db,
    sample_initial_energies,
)
from .ensemble import ComparisonResult, EnsembleResult, compare_strategies, run_ensemble
from .geometry import db_to_linear, linear_to_db, sample_channel, sample_phase_errors
from .lifetime import LifetimeTrace, bit_rate, evaluate_death, run_lifetime

# the names imported above, not the submodules that importing them bound
__all__ = sorted(name for name, value in globals().items() if not (name[0] == "_" or isinstance(value, _ModuleType)))
