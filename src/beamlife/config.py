"""Scenario configuration: schema, validation, JSON loading, presets.

Config files are JSON with the same nesting as the dataclasses below.
Unknown keys are rejected with the offending key path. An empty file
resolves to the defaults, which equal the ``pa-uniform`` preset.
"""

from __future__ import annotations

import json
import math
import numbers
import reprlib
from dataclasses import dataclass, field, fields, replace

from .allocation import _scale_denominator, lognormal_channel_stats
from .geometry import db_to_linear

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


# An error echoes a rejected value's repr cut in the middle to about 40
# characters, so its line stays short whatever the input. An int too long
# for ``repr`` (Python's int-to-str digit limit) is echoed as its size.
class _Echo(reprlib.Repr):
    def repr_int(self, x, level):
        try:
            return super().repr_int(x, level)
        except ValueError:
            return f"<{x.bit_length()}-bit int>"


_ECHO = _Echo()
_ECHO.maxstring = _ECHO.maxlong = _ECHO.maxother = 40
_echo = _ECHO.repr


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
    snr_drop_db: float = 3.0     # below the link's first-round SNR, or its target if that is -inf


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


def _reject_unknown(data, cls, path):
    known = {f.name for f in fields(cls)}
    for key in data:
        if key not in known:  # the key's repr, cut and unquoted
            raise ConfigError(f"{path}{_echo(str(key))[1:-1]}: unknown key")


def from_dict(data):
    """Build a ScenarioConfig from a (possibly partial) plain dictionary."""
    if not isinstance(data, dict):
        raise ConfigError("top level must be a JSON object")
    _reject_unknown(data, ScenarioConfig, "")
    kwargs = dict(data)
    for name, cls in _SECTIONS.items():
        if name in kwargs:
            if not isinstance(kwargs[name], dict):
                raise ConfigError(f"{name}: must be an object")
            _reject_unknown(kwargs[name], cls, f"{name}.")
            kwargs[name] = cls(**kwargs[name])
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
                   f"must be an integer, got {_echo(value)}")
        elif f.type == "float":
            _check(_is_finite_number(value), key, f"must be a finite number, got {_echo(value)}")
        elif f.name in _SECTIONS:
            _check(isinstance(value, _SECTIONS[f.name]), key, "must be an object")
            _check_types(value, key + ".")


def _channel_moments_finite(cfg):
    """The gain moments and CB-EPA's closed-form denominator are finite."""
    try:
        ch = lognormal_channel_stats(cfg.shadowing_sigma2_db)
        return math.isfinite(_scale_denominator(cfg.n, 1.0, 0.0, ch))
    except (OverflowError, ValueError):  # ValueError: ChannelStats rejects an infinite variance
        return False


def _linear_or_inf(compute):
    """``compute()``, a power converted from dB, or inf where it overflows."""
    try:
        return compute()
    except OverflowError:
        return math.inf


def validate(cfg):
    """Raise ConfigError with a key path on the first violated constraint."""
    _check_types(cfg, "")
    n = _echo(cfg.n)
    _check(cfg.n >= 1, "n", f"must be at least 1, got {n}")
    _check(1 <= cfg.links <= cfg.n, "links", f"must lie in [1, n={n}], got {_echo(cfg.links)}")
    if (cfg.target_snr_db is None) == (cfg.target_rate_bits is None):
        raise ConfigError("target_snr_db/target_rate_bits: exactly one must be set")
    if cfg.target_rate_bits is not None:
        _check(cfg.target_rate_bits >= 0, "target_rate_bits", "must be non-negative")
    target_key = "target_snr_db" if cfg.target_rate_bits is None else "target_rate_bits"
    _check(math.isfinite(_linear_or_inf(cfg.target_snr_linear)), target_key,
           "too large: the linear target SNR overflows")
    noise = _linear_or_inf(lambda: db_to_linear(cfg.noise_db))
    _check(0 < noise < math.inf, "noise_db",
           f"the linear noise power of {cfg.noise_db} dB must be finite and positive, got {noise}")
    # 2**64 of headroom below the float maximum for the realized received power
    _check(cfg.target_snr_linear() * noise <= 2.0**960, target_key,
           "too large: the target received power, target SNR times noise power, exceeds 2**960")
    _check(cfg.shadowing_sigma2_db >= 0, "shadowing_sigma2_db", "must be non-negative")
    _check(_channel_moments_finite(cfg), "shadowing_sigma2_db",
           f"too large: the channel gain moments overflow at n={n}")
    _check(cfg.phase_error_deg_bound >= 0, "phase_error_deg_bound", "must be non-negative")
    _check(cfg.energy.kind in ("uniform", "gaussian"), "energy.kind", f"unknown kind {_echo(cfg.energy.kind)}")
    _check(cfg.energy.e_max > 0, "energy.e_max", "must be positive")
    _check(0 < cfg.energy.mean <= cfg.energy.e_max, "energy.mean", "must lie in (0, e_max]")
    if cfg.energy.kind == "uniform":
        _check(
            math.isclose(cfg.energy.mean, cfg.energy.e_max / 2, rel_tol=1e-9),
            "energy.mean",
            "uniform draws span [0, e_max]; mean must be e_max/2",
        )
    _check(cfg.energy.sigma >= 0, "energy.sigma", "must be non-negative")
    _check(cfg.strategy.kind in STRATEGY_KINDS, "strategy.kind", f"unknown kind {_echo(cfg.strategy.kind)}")
    # n * levels <= 2**53 keeps level sums exact integers, and a normal e_max / levels
    # is exact (lifetime docstring); an n past 2**53 fails at any levels, under n
    _check(cfg.n <= 2**53, "n", f"must be at most 2**53, got {n}")
    levels = cfg.strategy.levels
    _check(levels == 0 or (0 < levels <= 2**53 // cfg.n and levels & (levels - 1) == 0
                           and cfg.energy.e_max >= levels * 2.0**-1022), "strategy.levels",
           f"must be 0 (continuous weights) or a power of two with n * levels <= 2**53 and "
           f"e_max >= levels * 2**-1022, got {_echo(levels)}")
    _check(cfg.strategy.period >= 1, "strategy.period", "must be at least 1")
    _check(0 < cfg.death.max_dead_fraction <= 1, "death.max_dead_fraction", "must lie in (0, 1]")
    _check(cfg.death.snr_drop_db > 0, "death.snr_drop_db", "must be positive")
    _check(cfg.runs >= 1, "runs", "must be at least 1")
    _check(cfg.master_seed >= 0, "master_seed", "must be non-negative")
    _check(cfg.t_slot_s > 0, "t_slot_s", "must be positive")
    _check(cfg.p_max > 0, "p_max", "must be positive")
    cap = math.sqrt(cfg.p_max)  # no weight exceeds it; gate_and_charge charges w * w * t_slot_s
    _check(math.isfinite(cap * cap * cfg.t_slot_s), "p_max",
           f"too large for t_slot_s={_echo(cfg.t_slot_s)}: the slot energy at the cap overflows")
    _check(cfg.max_rounds >= 1, "max_rounds", "must be at least 1")
    return cfg


def load_config(path):
    """Load and validate a scenario config (or a run manifest) from JSON."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: not valid UTF-8 ({exc})") from exc
    if not text.strip():
        return from_dict({})
    try:
        data = json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:  # the latter: nested past the recursion limit
        raise ConfigError(f"{path}: not valid JSON ({exc})") from exc
    except ValueError as exc:  # an integer past Python's int-from-string digit limit
        raise ConfigError(f"{path}: integer too long to read ({exc})") from exc
    if isinstance(data, dict) and "config" in data and "artifact_version" in data:
        data = data["config"]  # a run manifest round-trips as a config
        _check(isinstance(data, dict), "config", "must be an object")
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
    preset(name)  # rejects an unknown name
    return _PRESETS[name][0]
