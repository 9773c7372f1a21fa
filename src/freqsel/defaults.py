"""Default parameters and the cutoff rule, without numpy.

The CLI builds its parser and ``select --curve`` builds its report from
these, so neither has to import the array modules that re-export them.
"""
from __future__ import annotations

import math

from .errors import NonPositiveCutoff

__all__ = ["DEFAULT_CUTOFF", "DEFAULT_TOTAL_TIMESTEPS", "MAX_TIMESTEPS", "checked_cutoff"]

# published default for the Gaussian high-pass cutoff D0
DEFAULT_CUTOFF = 30.0

# T of the default linear noise schedule
DEFAULT_TOTAL_TIMESTEPS = 1000

# the most timesteps a command line may ask for, as T or as one range of
# its grid: a thousand times the default T, far above any published
# schedule, so that a typo is a usage error and not every value built first
MAX_TIMESTEPS = 1_000_000


def checked_cutoff(cutoff: float) -> float:
    """`cutoff` as a float, or NonPositiveCutoff unless it is finite and > 0."""
    if not (math.isfinite(cutoff) and cutoff > 0.0):
        raise NonPositiveCutoff(f"cutoff must be finite and > 0, got {cutoff}")
    return float(cutoff)
