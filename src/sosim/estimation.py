"""Rolling-window estimation of per-path delay parameters.

The sender watches inter-packet delivery gaps (one per ACK) and keeps the
last `capacity` samples per path.  A snapshot turns the window into the
parameters the schedulers consume: mean, minimum, 95th percentile
(nearest-rank) and the Hoeffding weight w derived from them.
"""

from __future__ import annotations

import math
from collections import deque

import numpy as np

from .errors import NoDataError, ValidationError
from .scheduler_core import PathParams, compute_w

DEFAULT_WINDOW = 5000


def nearest_rank(values: np.ndarray, p: float) -> float:
    """Nearest-rank percentile: element at index ceil(p * size) of the sorted data."""
    size = len(values)
    if size == 0:
        raise NoDataError("percentile of empty data")
    idx = max(0, math.ceil(p * size) - 1)
    idx = min(idx, size - 1)
    return float(np.partition(np.asarray(values, dtype=float), idx)[idx])


class RollingWindow:
    """Fixed-capacity FIFO of delay samples, most recent last."""

    def __init__(self, capacity: int = DEFAULT_WINDOW):
        if capacity < 1:
            raise ValidationError("window capacity must be positive")
        self.capacity = capacity
        self._samples: deque[float] = deque(maxlen=capacity)

    def __len__(self) -> int:
        return len(self._samples)

    @property
    def samples(self) -> tuple[float, ...]:
        return tuple(self._samples)

    def record(self, delay_ms: float) -> None:
        if delay_ms < 0:
            raise ValidationError(f"negative delay sample {delay_ms}")
        self._samples.append(float(delay_ms))

    def extend(self, delays) -> None:
        arr = np.asarray(delays, dtype=float)
        if arr.size and float(arr.min()) < 0:
            raise ValidationError("negative delay sample")
        self._samples.extend(arr.tolist())

    def as_array(self) -> np.ndarray:
        if not self._samples:
            raise NoDataError("window is empty")
        return np.fromiter(self._samples, dtype=float, count=len(self._samples))

    def mean(self) -> float:
        return float(self.as_array().mean())

    def minimum(self) -> float:
        return float(self.as_array().min())

    def percentile(self, p: float = 0.95) -> float:
        return nearest_rank(self.as_array(), p)

    def stddev(self) -> float:
        return float(self.as_array().std())


def snapshot_params(
    window: RollingWindow,
    epsilon_j: float,
    prop_ms: float = 0.0,
    in_flight: int = 0,
) -> PathParams:
    """Pure function of the window contents: (mean, min, p95) plus the w weight."""
    if len(window) == 0:
        raise NoDataError("cannot snapshot an empty window; supply priors instead")
    arr = window.as_array()
    mu = float(arr.mean())
    a = float(arr.min())
    b = nearest_rank(arr, 0.95)
    return PathParams(
        mu_ms=mu,
        a_ms=a,
        b_ms=b,
        w=compute_w(epsilon_j, a, b),
        prop_ms=prop_ms,
        in_flight=in_flight,
    )
