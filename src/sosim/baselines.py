"""Greedy baseline schedulers: EDF and SEDPF.

Both assign packets one at a time, each to the best path given the packets
already assigned; a call plans a whole object and returns the path of every
packet in order.  Both read the parameter feed's snapshot as it comes: the
per-path `PathParams` (mean, propagation delay, in-flight backlog) and the
per-path delay stddevs.

EDF sends each packet to the path with the earliest expected delivery,
(in_flight + 1) * mean + propagation; it is the optimal greedy rule when
delays are fixed and known.

SEDPF models each path's delivery time of the packet-plus-backlog as a
Gaussian (mean scaling linearly with the queue, variance with the queue size
times sigma^2), folds all paths into the distribution of their maximum via
Clark's first/second-moment recursion, and sends the packet to the candidate
path minimizing the expected maximum.
"""

from __future__ import annotations

import heapq
from math import erf, exp, isfinite, sqrt, tau

from .errors import ValidationError

_SQRT2 = sqrt(2.0)
_SQRT_TAU = sqrt(tau)


def edf_assign(params, stddevs, n: int) -> tuple[int, ...]:
    """Paths of n packets, each sent where it is expected earliest; ties go low.

    Path j's k-th further packet costs (in_flight_j + k) * mu_j + prop_j,
    so the greedy sequence is a heap merge of the per-path cost sequences
    keyed (cost, j): O(n log m).  EDF does not read `stddevs`; it takes them
    so that both assigners share one signature.
    """
    mean_ms = [p.mu_ms for p in params]
    prop_ms = [p.prop_ms for p in params]
    heap = [
        ((p.in_flight + 1) * p.mu_ms + p.prop_ms, j, p.in_flight + 1)
        for j, p in enumerate(params)
    ]
    heapq.heapify(heap)
    order = []
    for _ in range(n):
        _, j, load = heap[0]
        order.append(j)
        load += 1
        heapq.heapreplace(heap, (load * mean_ms[j] + prop_ms[j], j, load))
    return tuple(order)


def clark_max(m1: float, v1: float, m2: float, v2: float) -> tuple[float, float]:
    """Moment-matched mean and variance of max(X, Y) for independent Gaussians.

    The standard normal cdf and pdf are written out; they are the same float
    operations as `statistics.NormalDist().cdf/pdf`.
    """
    a2 = v1 + v2
    if a2 <= 0.0:
        return (m1, v1) if m1 >= m2 else (m2, v2)
    a = sqrt(a2)
    alpha = (m1 - m2) / a
    cdf = 0.5 * (1.0 + erf(alpha / _SQRT2))
    ccdf = 1.0 - cdf
    pdf = exp(alpha * alpha / -2.0) / _SQRT_TAU
    mean = m1 * cdf + m2 * ccdf + a * pdf
    second = (m1 * m1 + v1) * cdf + (m2 * m2 + v2) * ccdf + (m1 + m2) * a * pdf
    var = second - mean * mean
    return mean, (0.0 if 0.0 > var else var)  # same as max(var, 0.0), -0.0 and NaN too


def sedpf_assign(params, stddevs, n: int) -> tuple[int, ...]:
    """Paths of n packets, each sent to the candidate minimizing the expected
    max delivery time over all paths.

    Each candidate's Clark fold runs in path order.  Candidates share the
    fold of the paths before them, so one packet costs m(m-1)/2 + 2m - 3
    `clark_max` calls instead of m(m-1).  Ties are broken first by the EDF
    cost and then by index, so the all-zero stddev case reduces to
    edf_assign exactly.
    """
    m = len(params)
    # A NaN cost compares false both ways, which no greedy order can rank;
    # PathParams already refuses non-finite means and propagation delays.
    if len(stddevs) != m or not all(map(isfinite, stddevs)):
        raise ValidationError(f"need one finite stddev per path, got {list(stddevs)}")
    mean_ms = [p.mu_ms for p in params]
    prop_ms = [p.prop_ms for p in params]
    var_ms = [s ** 2 for s in stddevs]
    loads = [p.in_flight for p in params]
    means = [u * mu + p for u, mu, p in zip(loads, mean_ms, prop_ms)]
    variances = [u * v for u, v in zip(loads, var_ms)]
    order = []
    for _ in range(n):
        best = 0
        best_key: tuple[float, float] | None = None
        for cand in range(m):
            load = loads[cand] + 1
            cand_mean = load * mean_ms[cand] + prop_ms[cand]  # also its EDF cost
            cand_var = load * var_ms[cand]
            if cand == 0:
                mean, var = cand_mean, cand_var
            else:
                mean, var = clark_max(pre_mean, pre_var, cand_mean, cand_var)
            for m2, v2 in zip(means[cand + 1 :], variances[cand + 1 :]):
                mean, var = clark_max(mean, var, m2, v2)
            key = (mean, cand_mean)
            if best_key is None or key < best_key:
                best, best_key = cand, key
            # fold of paths 0..cand for the next candidate (none after the last)
            if cand == 0:
                pre_mean, pre_var = means[0], variances[0]
            elif cand + 1 < m:
                pre_mean, pre_var = clark_max(pre_mean, pre_var, means[cand], variances[cand])
        order.append(best)
        loads[best] = u = loads[best] + 1
        means[best] = u * mean_ms[best] + prop_ms[best]
        variances[best] = u * var_ms[best]
    return tuple(order)
