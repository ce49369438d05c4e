"""Rolling-window estimation of per-path delay parameters.

The sender watches inter-packet delivery gaps (one per ACK) and keeps the
last `capacity` samples per path, as one contiguous run of a buffer.  A
snapshot turns the window into the parameters the schedulers consume: the
mean and the variability weight w, which comes from the window's standard
deviation alone (sub-Gaussian Chernoff form, see
:func:`~sosim.scheduler_core.variance_w`).  Both moments come from one pass
over the run in place, with no copy of the samples.
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

    The samples are one contiguous run in a preallocated buffer of twice the
    capacity.  Writes go after the run; a full window drops its oldest
    samples from the run's front.  When a write would pass the buffer's end,
    the newest samples that stay first move to the buffer's front, so a move
    copies at most `capacity - 1` samples once per `capacity` or so writes.
    The mean and stddev are computed on the run in place, with no copy, and
    are kept until the next write.
    """

    def __init__(self, capacity: int = DEFAULT_WINDOW):
        require_count("window capacity", capacity, 1, ValidationError)
        self.capacity = capacity
        self._buf = np.empty(2 * capacity)
        self._start = 0  # the run is _buf[_start:_end], oldest first
        self._end = 0
        # as_array() and _moments() caches, reset by every write.
        self._array: np.ndarray | None = None
        self._stats: tuple[float, float] | None = None

    def __len__(self) -> int:
        return self._end - self._start

    def _to_front(self, count: int) -> int:
        """Move the newest samples that stay after `count` more to the buffer's
        front, and return the run's new end.  At most `capacity - count`
        samples move, from past slot `capacity`, so the two ranges never overlap."""
        end = self._end
        keep = min(end - self._start, self.capacity - count)
        self._buf[:keep] = self._buf[end - keep : end]
        self._start, self._end = 0, keep
        return keep

    def record(self, delay_ms: float) -> None:
        require_finite("delay sample", delay_ms, ValidationError)
        end = self._end
        if end == self._buf.size:
            end = self._to_front(1)
        self._buf[end] = delay_ms
        self._end = end = end + 1
        if end - self._start > self.capacity:
            self._start += 1
        self._array = self._stats = None

    def extend(self, delays) -> None:
        arr = np.asarray(delays, dtype=float)
        count = arr.size
        if count == 0:
            return
        if not (0.0 <= arr.min() and arr.max() < math.inf):
            raise ValidationError("delay samples must be finite and nonnegative")
        cap = self.capacity
        if count >= cap:
            self._buf[:cap] = arr[count - cap :]
            self._start, self._end = 0, cap
        else:
            end = self._end
            if end + count > self._buf.size:
                end = self._to_front(count)
            self._buf[end : end + count] = arr
            self._end = end = end + count
            self._start = max(self._start, end - cap)
        self._array = self._stats = None

    def as_array(self) -> np.ndarray:
        """The samples, oldest first, as a read-only copy kept until the next write."""
        if self._end == self._start:
            raise NoDataError("window is empty")
        if self._array is None:
            arr = self._buf[self._start : self._end].copy()
            arr.flags.writeable = False
            self._array = arr
        return self._array

    def _moments(self) -> tuple[float, float]:
        """(mean, population stddev) of the run, read in place and kept until
        the next write; the float operations of numpy's `mean()` and `std()`,
        so bit-identical to them."""
        if self._stats is None:
            run = self._buf[self._start : self._end]
            size = run.size
            if size == 0:
                raise NoDataError("window is empty")
            mean = np.add.reduce(run) / size
            dev = run - mean
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
    the mean and stddev come from one cached pass over the window, read once.
    """
    if len(window) == 0:
        raise NoDataError("cannot snapshot an empty window; supply priors instead")
    mean, stddev = window._moments()
    return PathParams(
        mu_ms=mean,
        w=variance_w(epsilon_j, stddev),
        prop_ms=prop_ms,
        in_flight=in_flight,
    )
