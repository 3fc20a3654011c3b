"""Monte Carlo lifetime simulator for beamforming wireless sensor clusters.

Compares energy-aware power allocation (per-node weights proportional to
residual battery energy, scaled in closed form to hold a target average
SNR) against equal power allocation and centralized optimal baselines,
under log-normal shadowing, carrier phase errors, weight quantization and
multi-destination operation.
"""

__version__ = "0.1.0"

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
    DestinationsSpec,
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
from .geometry import (
    Destination,
    FarFieldWarning,
    PolarPoint,
    carrier_phase,
    db_to_linear,
    deploy_cluster,
    far_field_distance,
    linear_to_db,
    sample_channel,
    sample_phase_errors,
)
from .lifetime import (
    LifetimeTrace,
    bit_rate,
    evaluate_death,
    partition_cluster,
    run_lifetime,
)

__all__ = [name for name in dir() if not name.startswith("_")]
