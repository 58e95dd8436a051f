"""Percentiles that report their sample count and refuse unsupported tails.

A percentile estimated from a sample is only meaningful when enough
samples lie beyond it: the p99 of 200 latencies is the second-largest
value, i.e. noise.  :func:`percentile` therefore refuses (raises
:class:`TooFewSamples`) unless at least ``min_beyond`` samples lie above
the requested rank, and every result carries the sample count it came
from, so a printed figure can always be judged by its support.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

__all__ = [
    "MIN_BEYOND",
    "Percentile",
    "TooFewSamples",
    "percentile",
    "samples_beyond",
]

#: Samples that must lie beyond a percentile for it to be reported.
MIN_BEYOND = 10


class TooFewSamples(ValueError):
    """The sample is too small to support the requested percentile."""

    def __init__(self, q: float, samples: int, beyond: int, needed: int) -> None:
        super().__init__(
            f"p{q:g} of {samples} samples has {beyond} samples beyond it; "
            f"at least {needed} are required"
        )
        self.q = q
        self.samples = samples
        self.beyond = beyond


@dataclass(frozen=True)
class Percentile:
    """One percentile estimate with its support."""

    q: float
    value: float
    samples: int


def samples_beyond(samples: int, q: float) -> int:
    """Number of samples ranked strictly above the ``q``-th percentile."""
    return samples - math.ceil(samples * q / 100.0)


def percentile(values: Sequence[float], q: float, min_beyond: int = MIN_BEYOND) -> Percentile:
    """The ``q``-th percentile of ``values`` (linear interpolation).

    Raises :class:`TooFewSamples` when fewer than ``min_beyond`` samples
    lie beyond the percentile, and :class:`ValueError` for ``q`` outside
    ``[0, 100]``.
    """
    if not 0.0 <= q <= 100.0:
        raise ValueError(f"percentile must be in [0, 100]; got {q}")
    data = np.asarray(values, dtype=float)
    beyond = samples_beyond(data.size, q)
    if data.size == 0 or beyond < min_beyond:
        raise TooFewSamples(q, data.size, max(beyond, 0), min_beyond)
    return Percentile(q=q, value=float(np.percentile(data, q)), samples=int(data.size))

