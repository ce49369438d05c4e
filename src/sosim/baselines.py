"""Greedy baseline schedulers: EDF and SEDPF.

Both assign packets one at a time, each to the best path given the packets
already assigned; a call plans a whole object.  Both read the parameter
feed's snapshot as it comes: the per-path `PathParams` (mean, propagation
delay, in-flight backlog) and the per-path delay stddevs.

EDF sends each packet to the path with the earliest expected delivery,
(in_flight + 1) * mean + propagation; it is the optimal greedy rule when
delays are fixed and known.  It returns per-path counts, which the engine
sends in `dispatch_order`; SEDPF returns the path of every packet.

SEDPF models each path's delivery time of the packet-plus-backlog as a
Gaussian (mean scaling linearly with the queue, variance with the queue size
times sigma^2), folds all paths into the distribution of their maximum via
Clark's first/second-moment recursion, and sends the packet to the candidate
path minimizing the expected maximum.  A packet changes one path's moments,
so the next packet refolds only from that path on: at most
m(m-1)/2 + 2m - 3 Clark steps per packet, and m after a packet sent to the
last path.
"""

from __future__ import annotations

from math import erf, exp, inf, isfinite, sqrt, tau

from .errors import ValidationError
from .scheduler_core import take_cheapest

_SQRT2 = sqrt(2.0)
_SQRT_TAU = sqrt(tau)


def edf_assign(params, stddevs, n: int) -> tuple[int, ...]:
    """Per-path counts of n packets, each sent where it is expected earliest.

    The picks are :func:`take_cheapest` with w = 0, started from the level
    where the shares (level - start_j) / mu_j sum to n, solved over the sorted
    breakpoints start_j = in_flight_j * mu_j + prop_j.  A path with mu = 0
    costs prop_j per packet, so the first one caps the level and takes the
    rest.  EDF reads neither `stddevs` nor w.
    """
    starts = [p.in_flight * p.mu_ms + p.prop_ms for p in params]
    level, flat = inf, None
    rate = offset = 0.0
    for start, mu, j in sorted(zip(starts, (p.mu_ms for p in params), range(len(params)))):
        if start >= level:
            break
        if mu == 0.0:
            level, flat = start, j
            break
        rate += 1.0 / mu
        offset += start / mu
        level = (n + offset) / rate
    counts = [  # a NaN level starts every path at 0
        int(min((level - s) / p.mu_ms, n)) if p.mu_ms > 0.0 and level > s else 0
        for s, p in zip(starts, params)
    ]
    if flat is not None:
        counts[flat] = max(0, n - sum(counts))
    return take_cheapest(n, [(p.in_flight, p.mu_ms, 0.0, p.prop_ms) for p in params], counts)


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

    Each candidate's Clark fold runs in path order, so its state after path j
    depends only on paths 0..j.  Candidate c > 0 extends the shared fold of
    the unbumped paths 0..c-1.  The fold states are kept between packets:
    after a packet goes to path b, candidate c resumes its fold at path
    max(c, b), and the shared fold is extended again from path b.  The first
    packet, and each one after a packet sent to path 0 or 1, costs
    m(m-1)/2 + 2m - 3 `clark_max` calls; after a packet sent to path b >= 1
    the next one costs b(m-b) + (m-b)(m-b+1)/2 + m-1-b.  Every fold state is
    the same `clark_max` call on the same inputs as a fold from scratch, so
    the plan is bit for bit the one that refolds everything per packet.
    Ties are broken first by the EDF cost and then by index, so the all-zero
    stddev case reduces to EDF's order exactly.
    """
    m = len(params)
    # A NaN cost compares false both ways, which no greedy order can rank;
    # PathParams already refuses non-finite means and propagation delays.
    if len(stddevs) != m or not all(map(isfinite, stddevs)):
        raise ValidationError(f"need one finite stddev per path, got {list(stddevs)}")
    mean_ms, prop_ms, var_ms, loads = [], [], [], []
    # each path's moments now and with one more packet; a bumped mean is also
    # the path's EDF cost
    means, variances, bumped_means, bumped_vars = [], [], [], []
    for p, s in zip(params, stddevs):
        u, mu, prop, v = p.in_flight, p.mu_ms, p.prop_ms, s ** 2
        mean_ms.append(mu)
        prop_ms.append(prop)
        var_ms.append(v)
        loads.append(u)
        means.append(u * mu + prop)
        variances.append(u * v)
        bumped_means.append((u + 1) * mu + prop)
        bumped_vars.append((u + 1) * v)
    # folds[c][j] is candidate c's (mean, var) after paths 0..j, for j >= c;
    # shared[j] is the fold of the unbumped paths 0..j, for j < m - 1
    folds = [[None] * m for _ in range(m)]
    fold0 = folds[0]
    fold0[0] = bumped_means[0], bumped_vars[0]
    shared = [None] * m
    shared[0] = means[0], variances[0]
    tails = [range(j + 1, m) for j in range(m)]
    others = tails[0]
    order = []
    last = 0  # fold states up to this path are current
    for _ in range(n):
        # candidates up to `last` resume their own fold after it; the others
        # restart theirs from the shared fold, which is extended as they go
        mean, var = fold0[last]
        rest = tails[last]
        for j in rest:
            mean, var = fold0[j] = clark_max(mean, var, means[j], variances[j])
        best, best_mean, best_cost = 0, mean, bumped_means[0]
        for cand in others:
            fold = folds[cand]
            if cand <= last:
                mean, var = fold[last]
                path_after = rest
            else:
                pre_mean, pre_var = shared[cand - 1]
                mean, var = fold[cand] = clark_max(
                    pre_mean, pre_var, bumped_means[cand], bumped_vars[cand]
                )
                if cand + 1 < m:
                    shared[cand] = clark_max(pre_mean, pre_var, means[cand], variances[cand])
                path_after = tails[cand]
            for j in path_after:
                mean, var = fold[j] = clark_max(mean, var, means[j], variances[j])
            cand_mean = bumped_means[cand]
            # (mean, cand_mean) < (best_mean, best_cost) as tuples compare, NaN included
            if mean < best_mean or (
                (mean == best_mean or mean is best_mean) and cand_mean < best_cost
            ):
                best, best_mean, best_cost = cand, mean, cand_mean
        order.append(best)
        means[best] = bumped_means[best]
        variances[best] = bumped_vars[best]
        loads[best] = u = loads[best] + 1
        bumped_means[best] = (u + 1) * mean_ms[best] + prop_ms[best]
        bumped_vars[best] = (u + 1) * var_ms[best]
        if best:
            last = best - 1
        else:
            fold0[0] = bumped_means[0], bumped_vars[0]
            shared[0] = means[0], variances[0]
            last = 0
    return tuple(order)
