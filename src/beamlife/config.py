"""Scenario configuration: schema, validation, JSON loading, presets.

Config files are JSON with the same nesting as the dataclasses below.
Unknown keys are rejected with the offending key path. An empty file
resolves to the defaults, which equal the ``pa-uniform`` preset.
"""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import dataclass, field, fields, replace

from .allocation import lognormal_channel_stats

__all__ = [
    "ConfigError",
    "EnergySpec",
    "StrategySpec",
    "DeathSpec",
    "ScenarioConfig",
    "load_config",
    "preset",
    "preset_names",
    "preset_description",
]

STRATEGY_KINDS = ("cb_epa", "cb_pa", "centralized_min_power", "centralized_max_gain")

# One-shot allocation: a reallocation period no practical run ever reaches.
NEVER_REALLOCATE = 10**9


class ConfigError(ValueError):
    """A configuration file or dictionary failed validation."""


@dataclass(frozen=True)
class EnergySpec:
    kind: str = "uniform"        # uniform | gaussian
    e_max: float = 1.0           # battery capacity, joules
    mean: float = 0.5            # distribution mean, joules
    sigma: float = 0.15          # gaussian standard deviation, joules


@dataclass(frozen=True)
class StrategySpec:
    kind: str = "cb_pa"
    levels: int = 8              # weight quantization levels, 0 = continuous
    period: int = 1              # slots between weight recomputations


@dataclass(frozen=True)
class DeathSpec:
    max_dead_fraction: float = 0.9
    snr_drop_db: float = 3.0     # below the link's first-round realized SNR


@dataclass(frozen=True)
class ScenarioConfig:
    """Complete description of one simulation scenario.

    Exactly one of ``target_snr_db`` / ``target_rate_bits`` is set; the
    other is derived through the log2(1 + snr) rate relation.
    """

    n: int = 100
    links: int = 1               # destinations served; node i serves link i % links
    target_snr_db: float = 11.76
    target_rate_bits: float = None
    noise_db: float = -100.0
    shadowing_sigma2_db: float = 16.0
    phase_error_deg_bound: float = 5.0
    energy: EnergySpec = field(default_factory=EnergySpec)
    strategy: StrategySpec = field(default_factory=StrategySpec)
    death: DeathSpec = field(default_factory=DeathSpec)
    runs: int = 200
    master_seed: int = 20231
    t_slot_s: float = 2.0e10
    p_max: float = 1.2e-11
    max_rounds: int = 1_000_000

    def __post_init__(self):
        validate(self)

    def target_snr_linear(self):
        if self.target_rate_bits is not None:
            return 2.0 ** self.target_rate_bits - 1.0
        return 10.0 ** (self.target_snr_db / 10.0)

    def resolved_target_snr_db(self):
        snr = self.target_snr_linear()
        return 10.0 * math.log10(snr) if snr > 0 else -math.inf


_SECTIONS = {
    "energy": EnergySpec,
    "strategy": StrategySpec,
    "death": DeathSpec,
}


def _reject_unknown(data, known, path):
    for key in data:
        if key not in known:
            raise ConfigError(f"{path}{key}: unknown key")


def _section(cls, data, path):
    known = {f.name for f in fields(cls)}
    _reject_unknown(data, known, path)
    return cls(**data)


def from_dict(data):
    """Build a ScenarioConfig from a (possibly partial) plain dictionary."""
    if not isinstance(data, dict):
        raise ConfigError("top level must be a JSON object")
    top_known = {f.name for f in fields(ScenarioConfig)}
    _reject_unknown(data, top_known, "")
    kwargs = dict(data)
    for name, cls in _SECTIONS.items():
        if name in kwargs:
            if not isinstance(kwargs[name], dict):
                raise ConfigError(f"{name}: must be an object")
            kwargs[name] = _section(cls, kwargs[name], f"{name}.")
    has_snr = kwargs.get("target_snr_db") is not None
    has_rate = kwargs.get("target_rate_bits") is not None
    if has_snr and has_rate:
        raise ConfigError("target_snr_db/target_rate_bits: set exactly one, not both")
    if has_rate:
        kwargs["target_snr_db"] = None
    try:
        return ScenarioConfig(**kwargs)
    except TypeError as exc:
        raise ConfigError(str(exc)) from exc


def _check(cond, path, message):
    if not cond:
        raise ConfigError(f"{path}: {message}")


def _is_finite_number(value):
    if not isinstance(value, numbers.Real) or isinstance(value, bool):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:  # an integer too large for a float
        return False


def _check_types(spec, path):
    """Floats must be finite numbers, ints integers and each section its
    spec class; ``bool`` and ``str`` are not numbers."""
    for f in fields(spec):
        key, value = path + f.name, getattr(spec, f.name)
        if value is None and f.name in ("target_snr_db", "target_rate_bits"):
            continue  # validate requires exactly one of the two
        if f.type == "int":
            _check(isinstance(value, numbers.Integral) and not isinstance(value, bool), key,
                   f"must be an integer, got {value!r}")
        elif f.type == "float":
            _check(_is_finite_number(value), key, f"must be a finite number, got {value!r}")
        elif f.name in _SECTIONS:
            _check(isinstance(value, _SECTIONS[f.name]), key, "must be an object")
            _check_types(value, key + ".")


def _channel_moments_finite(cfg):
    """The gain moments and the closed-form denominator n·var + n²·mean² are finite."""
    try:
        ch = lognormal_channel_stats(cfg.shadowing_sigma2_db)
        return math.isfinite(cfg.n * ch.variance + cfg.n**2 * ch.mean**2)
    except OverflowError:
        return False


def validate(cfg):
    """Raise ConfigError with a key path on the first violated constraint."""
    _check_types(cfg, "")
    _check(cfg.n >= 1, "n", f"must be at least 1, got {cfg.n}")
    _check(1 <= cfg.links <= cfg.n, "links", f"must lie in [1, n={cfg.n}], got {cfg.links}")
    if (cfg.target_snr_db is None) == (cfg.target_rate_bits is None):
        raise ConfigError("target_snr_db/target_rate_bits: exactly one must be set")
    if cfg.target_rate_bits is not None:
        _check(cfg.target_rate_bits >= 0, "target_rate_bits", "must be non-negative")
    _check(cfg.shadowing_sigma2_db >= 0, "shadowing_sigma2_db", "must be non-negative")
    _check(_channel_moments_finite(cfg), "shadowing_sigma2_db",
           f"too large: the channel gain moments overflow at n={cfg.n}")
    _check(cfg.phase_error_deg_bound >= 0, "phase_error_deg_bound", "must be non-negative")
    _check(cfg.energy.kind in ("uniform", "gaussian"), "energy.kind", f"unknown kind {cfg.energy.kind!r}")
    _check(cfg.energy.e_max > 0, "energy.e_max", "must be positive")
    _check(0 < cfg.energy.mean <= cfg.energy.e_max, "energy.mean", "must lie in (0, e_max]")
    if cfg.energy.kind == "uniform":
        _check(
            math.isclose(cfg.energy.mean, cfg.energy.e_max / 2, rel_tol=1e-9),
            "energy.mean",
            "uniform draws span [0, e_max]; mean must be e_max/2",
        )
    _check(cfg.energy.sigma >= 0, "energy.sigma", "must be non-negative")
    _check(cfg.strategy.kind in STRATEGY_KINDS, "strategy.kind", f"unknown kind {cfg.strategy.kind!r}")
    levels = cfg.strategy.levels
    _check(levels >= 0 and (levels == 0 or levels & (levels - 1) == 0), "strategy.levels",
           f"must be 0 or a power of two, got {levels}")
    _check(cfg.strategy.period >= 1, "strategy.period", "must be at least 1")
    _check(0 < cfg.death.max_dead_fraction <= 1, "death.max_dead_fraction", "must lie in (0, 1]")
    _check(cfg.death.snr_drop_db > 0, "death.snr_drop_db", "must be positive")
    _check(cfg.runs >= 1, "runs", "must be at least 1")
    _check(cfg.master_seed >= 0, "master_seed", "must be non-negative")
    _check(cfg.t_slot_s > 0, "t_slot_s", "must be positive")
    _check(cfg.p_max > 0, "p_max", "must be positive")
    _check(cfg.max_rounds >= 1, "max_rounds", "must be at least 1")
    return cfg


def load_config(path):
    """Load and validate a scenario config (or a run manifest) from JSON."""
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    if not text.strip():
        return from_dict({})
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: not valid JSON ({exc})") from exc
    if isinstance(data, dict) and "config" in data and "artifact_version" in data:
        data = data["config"]  # a run manifest round-trips as a config
    return from_dict(data)


_DEFAULT = ScenarioConfig()

_EPA = StrategySpec(kind="cb_epa", levels=0, period=NEVER_REALLOCATE)
_GAUSSIAN = EnergySpec(kind="gaussian", e_max=1.0, mean=0.5, sigma=0.15)

_PRESETS = {
    "pa-uniform": (
        "residual-proportional allocation, uniform initial energy (the defaults)",
        _DEFAULT,
    ),
    "epa-uniform": (
        "equal power allocation benchmark, uniform initial energy",
        replace(_DEFAULT, strategy=_EPA),
    ),
    "pa-gaussian": (
        "residual-proportional allocation, gaussian initial energy",
        replace(_DEFAULT, energy=_GAUSSIAN),
    ),
    "epa-gaussian": (
        "equal power allocation benchmark, gaussian initial energy",
        replace(_DEFAULT, energy=_GAUSSIAN, strategy=_EPA),
    ),
    "single-link": (
        "single link at 4 bits/s/Hz, gaussian energy",
        replace(_DEFAULT, energy=_GAUSSIAN, target_snr_db=None, target_rate_bits=4.0),
    ),
    "multi-link": (
        "two links at 2 bits/s/Hz each, gaussian energy",
        replace(_DEFAULT, energy=_GAUSSIAN, target_snr_db=None, target_rate_bits=2.0, links=2),
    ),
    "rate-4bit": (
        "single link targeting 4 bits/s/Hz, uniform energy",
        replace(_DEFAULT, target_snr_db=None, target_rate_bits=4.0),
    ),
    "rate-3bit": (
        "single link targeting 3 bits/s/Hz, uniform energy",
        replace(_DEFAULT, target_snr_db=None, target_rate_bits=3.0),
    ),
    "quant-2": (
        "weight quantization with 2 levels, uniform energy",
        replace(_DEFAULT, strategy=StrategySpec(kind="cb_pa", levels=2, period=1)),
    ),
    "quant-4": (
        "weight quantization with 4 levels, uniform energy",
        replace(_DEFAULT, strategy=StrategySpec(kind="cb_pa", levels=4, period=1)),
    ),
    "quant-8": (
        "weight quantization with 8 levels, uniform energy",
        replace(_DEFAULT, strategy=StrategySpec(kind="cb_pa", levels=8, period=1)),
    ),
}


def preset(name):
    """Return the named preset ScenarioConfig."""
    try:
        return _PRESETS[name][1]
    except KeyError:
        raise ConfigError(f"unknown preset {name!r}; available: {', '.join(_PRESETS)}") from None


def preset_names():
    return list(_PRESETS)


def preset_description(name):
    try:
        return _PRESETS[name][0]
    except KeyError:
        raise ConfigError(f"unknown preset {name!r}") from None
