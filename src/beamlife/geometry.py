"""Far-field geometry, carrier phasing and the shadowed channel.

All distances are expressed in carrier wavelengths, so the wavelength drops
out of every phase expression. Per-node channel gains model shadowing only
and have 0 dB (log-)mean; deterministic path loss is accounted for in the
link budget instead (see :mod:`beamlife.energy`).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

TWO_PI = 2.0 * math.pi

# Destination ranges below this multiple of a node radius stretch the
# first-order path-length expansion noticeably.
FAR_FIELD_MIN_RATIO = 10.0

# Shadowing is a power figure in dB, so the amplitude gain is 10**(A / 20).
AMPLITUDE_DB_DIVISOR = 20

__all__ = [
    "PolarPoint",
    "Destination",
    "FarFieldWarning",
    "db_to_linear",
    "linear_to_db",
    "deploy_cluster",
    "far_field_distance",
    "carrier_phase",
    "propagation_phase",
    "sample_channel",
    "sample_phase_errors",
]


class FarFieldWarning(UserWarning):
    """Destination range is not comfortably larger than the node radius."""


def db_to_linear(value_db):
    """Convert a power quantity from dB to linear scale."""
    return 10.0 ** (value_db / 10.0)


def linear_to_db(value):
    """Convert a linear power quantity to dB. Zero maps to -inf."""
    with np.errstate(divide="ignore"):
        return 10.0 * np.log10(value)


# The library's argument rules, each defined once. Every comparison fails on
# NaN, and ``message`` names the argument.
def _at_least(value, lo, message):
    if not lo <= value < math.inf:
        raise ValueError(f"{message}, got {value}")


def _positive(value, message):
    if not 0 < value < math.inf:
        raise ValueError(f"{message}, got {value}")


def _finite(values, message, lo=-math.inf, hi=math.inf):
    """``values`` as a float array, rejected unless all finite and in [lo, hi]."""
    values = np.asarray(values, dtype=float)
    if not np.all(np.isfinite(values) & (lo <= values) & (values <= hi)):
        raise ValueError(message)
    return values


def _gains(gains):
    """``gains`` as a float vector, rejected unless 1-D, non-empty, positive
    and finite with normal squares of finite sum; two reductions, as the
    solvers run it."""
    gains = np.asarray(gains, dtype=float)
    if gains.ndim != 1 or gains.size == 0:
        raise ValueError("gains must be a non-empty 1-D vector")
    lo, hi = float(gains.min()), float(gains.max())
    if not (0 < lo and hi < math.inf):  # NaN fails the first test
        raise ValueError("all channel gains must be positive and finite")
    # the solvers divide by sums of squared gains; 2**-1022 is the smallest normal float
    if not (lo * lo >= 2.0**-1022 and hi * hi * gains.size < math.inf):
        raise ValueError(f"channel gains must have normal squares of finite sum, got gains from {lo} to {hi}")
    return gains


@dataclass(frozen=True)
class PolarPoint:
    """Planar position: radius in carrier wavelengths, azimuth in radians.

    The azimuth is wrapped into [0, 2*pi).
    """

    rho: float
    phi: float

    def __post_init__(self):
        if self.rho < 0:
            raise ValueError(f"rho must be non-negative, got {self.rho}")
        object.__setattr__(self, "rho", float(self.rho))
        object.__setattr__(self, "phi", float(self.phi) % TWO_PI)


@dataclass(frozen=True)
class Destination:
    """A remote receiver location plus its link index."""

    location: PolarPoint
    index: int = 0


def deploy_cluster(n, disk_radius, rng):
    """Place ``n`` nodes uniformly (in area) over a disk of the given radius.

    Parameters
    ----------
    n : int
        Number of nodes, at least 1.
    disk_radius : float
        Disk radius in wavelengths. A zero radius collapses all nodes
        onto the origin.
    rng : numpy.random.Generator
        Seeded stream; identical seeds give bit-identical layouts.

    Returns
    -------
    list of PolarPoint
    """
    if n < 1:
        raise ValueError(f"cluster size must be at least 1, got {n}")
    if disk_radius < 0:
        raise ValueError(f"disk radius must be non-negative, got {disk_radius}")
    # uniform over area: radius is R*sqrt(U), azimuth uniform
    rho = disk_radius * np.sqrt(rng.random(n))
    phi = TWO_PI * rng.random(n)
    return [PolarPoint(r, p) for r, p in zip(rho, phi)]


def far_field_distance(node, direction, dest_rho):
    """First-order path length from a node toward a point at ``dest_rho``.

    Uses the usual far-field expansion: range minus the projection of the
    node position onto the look direction. Warns when the range is less
    than ``FAR_FIELD_MIN_RATIO`` times the node radius.
    """
    if node.rho > 0 and dest_rho < FAR_FIELD_MIN_RATIO * node.rho:
        warnings.warn(
            f"destination range {dest_rho:g} is below {FAR_FIELD_MIN_RATIO:g}x "
            f"the node radius {node.rho:g}; far-field expansion degrades",
            FarFieldWarning,
            stacklevel=2,
        )
    return dest_rho - node.rho * math.cos(direction - node.phi)


def propagation_phase(node, direction, dest_rho):
    """Phase accumulated over the propagation path, in radians (lambda = 1)."""
    return TWO_PI * far_field_distance(node, direction, dest_rho)


def carrier_phase(node, dest):
    """Initial carrier phase that makes the node combine coherently at ``dest``.

    Exactly cancels :func:`propagation_phase` toward the destination.
    """
    return -propagation_phase(node, dest.location.phi, dest.location.rho)


def sample_channel(n, sigma2_db, rng):
    """Draw per-node amplitude gains from log-normal shadowing.

    Shadowing in dB is a zero-mean Gaussian power figure A with variance
    ``sigma2_db``; the amplitude is ``10**(A / 20)``. A spread quoted on
    the amplitude itself, ``10**(A / 10)``, is the same channel at four
    times the variance.
    """
    _at_least(n, 1, "need at least 1 node")
    _at_least(sigma2_db, 0, "shadowing variance must be non-negative")
    shadow_db = rng.normal(0.0, math.sqrt(sigma2_db), n)
    gains = 10.0 ** (shadow_db / AMPLITUDE_DB_DIVISOR)
    if not np.all(gains > 0):
        raise ValueError("all channel gains must be positive")
    return gains


def sample_phase_errors(n, bound_rad, rng):
    """Draw per-node phase errors uniformly from [-bound_rad, bound_rad]."""
    _at_least(n, 1, "need at least 1 node")
    _at_least(bound_rad, 0, "phase error bound must be non-negative")
    if bound_rad == 0:
        return np.zeros(n)
    return rng.uniform(-bound_rad, bound_rad, n)
