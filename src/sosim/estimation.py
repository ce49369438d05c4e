"""Rolling-window estimation of per-path delay parameters.

The sender watches inter-packet delivery gaps (one per ACK) and keeps the
last `capacity` samples per path.  A snapshot turns the window into the
parameters the schedulers consume: the mean and the variability weight w,
which comes from the window's standard deviation alone (sub-Gaussian
Chernoff form, see :func:`~sosim.scheduler_core.variance_w`).
"""

from __future__ import annotations

import math

import numpy as np

from .errors import NoDataError, ValidationError, require_count, require_finite
from .scheduler_core import PathParams, variance_w

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
    """Fixed-capacity FIFO of delay samples, most recent last.

    The samples live in a preallocated ring buffer; writes go in place and
    a full window overwrites its oldest sample.  The mean and stddev come
    from one `as_array()` copy and are kept until the next write.
    """

    def __init__(self, capacity: int = DEFAULT_WINDOW):
        require_count("window capacity", capacity, 1, ValidationError)
        self.capacity = capacity
        self._buf = np.empty(capacity)
        self._head = 0  # slot of the next write, which is the oldest sample once full
        self._size = 0
        # as_array() and _moments() caches, reset by every write.
        self._array: np.ndarray | None = None
        self._stats: tuple[float, float] | None = None

    def __len__(self) -> int:
        return self._size

    def record(self, delay_ms: float) -> None:
        require_finite("delay sample", delay_ms, ValidationError)
        head = self._head
        self._buf[head] = delay_ms
        head += 1
        self._head = 0 if head == self.capacity else head
        if self._size < self.capacity:
            self._size += 1
        self._array = self._stats = None

    def extend(self, delays) -> None:
        arr = np.asarray(delays, dtype=float)
        count = arr.size
        if count == 0:
            return
        if not (0.0 <= arr.min() and arr.max() < math.inf):
            raise ValidationError("delay samples must be finite and nonnegative")
        cap, head = self.capacity, self._head
        if count >= cap:
            self._buf[:] = arr[count - cap :]
            self._head = 0
        else:
            first = min(count, cap - head)
            self._buf[head : head + first] = arr[:first]
            self._buf[: count - first] = arr[first:]
            self._head = (head + count) % cap
        self._size = min(self._size + count, cap)
        self._array = self._stats = None

    def as_array(self) -> np.ndarray:
        """The samples, oldest first, as a read-only copy kept until the next write."""
        if self._size == 0:
            raise NoDataError("window is empty")
        if self._array is None:
            # Until the buffer first fills, _head == _size and the first part is empty.
            arr = np.concatenate((self._buf[self._head : self._size], self._buf[: self._head]))
            arr.flags.writeable = False
            self._array = arr
        return self._array

    def _moments(self) -> tuple[float, float]:
        """(mean, population stddev), kept until the next write; the float
        operations of numpy's `mean()` and `std()`, so bit-identical to them."""
        if self._stats is None:
            arr = self.as_array()
            size = arr.size
            mean = np.add.reduce(arr) / size
            dev = arr - mean
            np.multiply(dev, dev, out=dev)
            self._stats = (float(mean), math.sqrt(np.add.reduce(dev) / size))
        return self._stats

    def mean(self) -> float:
        return self._moments()[0]

    def stddev(self) -> float:
        """Population standard deviation."""
        return self._moments()[1]


def snapshot_params(
    window: RollingWindow,
    epsilon_j: float,
    prop_ms: float = 0.0,
    in_flight: int = 0,
) -> PathParams:
    """Pure function of the window contents: the mean and the w weight.

    w is :func:`variance_w` of the window's (population) standard deviation;
    the mean and stddev come from one cached pass over the window.
    """
    if len(window) == 0:
        raise NoDataError("cannot snapshot an empty window; supply priors instead")
    return PathParams(
        mu_ms=window.mean(),
        w=variance_w(epsilon_j, window.stddev()),
        prop_ms=prop_ms,
        in_flight=in_flight,
    )
