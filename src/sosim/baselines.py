"""Greedy baseline schedulers: EDF and SEDPF.

Both assign packets one at a time, each to the best path given the packets
already assigned; a call plans a whole object.  Both read the parameter
feed's snapshot as it comes: the per-path `PathParams` (mean, propagation
delay, in-flight backlog) and the per-path delay stddevs.

EDF sends each packet to the path with the earliest expected delivery,
(in_flight + 1) * mean + propagation; it is the optimal greedy rule when
delays are fixed and known.  It returns per-path counts, picked by SOS's
selection from the same Newton level, which the engine sends in
`dispatch_order`; SEDPF returns the path of every packet.

SEDPF models each path's delivery time of the packet-plus-backlog as a
Gaussian (mean scaling linearly with the queue, variance with the queue size
times sigma^2), folds all paths into the distribution of their maximum via
Clark's first/second-moment recursion, and sends the packet to the candidate
path minimizing the expected maximum.  A packet changes one path's moments,
so the next packet refolds only from that path on: at most
m(m-1)/2 + 2m - 3 Clark steps per packet, and m after a packet sent to the
last path.  No fold resumes after the last path, so each candidate's step
onto it computes only the mean.
"""

from __future__ import annotations

from math import erf, exp, sqrt, tau

from .errors import ValidationError, require_finite
from .scheduler_core import _select, _terms

_SQRT2 = sqrt(2.0)
_SQRT_TAU = sqrt(tau)


def edf_assign(params, stddevs, n: int) -> tuple[int, ...]:
    """Per-path counts of n packets, each sent where it is expected earliest.

    Packet x on path j is expected at (in_flight_j + x) * mu_j + prop_j, the
    item b_j(x) with w = 0, so the counts are the n cheapest items, picked as
    SOS picks its split.  EDF reads neither `stddevs` nor w.
    """
    return _select(n, [(u, mu, 0.0, prop) for u, mu, w, prop in _terms(n, params)])


def clark_max(m1: float, v1: float, m2: float, v2: float, second: bool = True):
    """Moment-matched mean and variance of max(X, Y) for independent Gaussians
    (C. E. Clark, Operations Research 9(2), 1961).

    With `second` false the call stops after the first moment and returns
    the mean alone, bit for bit the mean of the full call.  The standard
    normal cdf and pdf are written out; they are the same float operations
    as `statistics.NormalDist().cdf/pdf`.
    """
    a2 = v1 + v2
    if a2 <= 0.0:
        top = (m1, v1) if m1 >= m2 else (m2, v2)
        return top if second else top[0]
    a = sqrt(a2)
    alpha = (m1 - m2) / a
    cdf = 0.5 * (1.0 + erf(alpha / _SQRT2))
    ccdf = 1.0 - cdf
    pdf = exp(alpha * alpha / -2.0) / _SQRT_TAU
    mean = m1 * cdf + m2 * ccdf + a * pdf
    if not second:
        return mean
    moment2 = (m1 * m1 + v1) * cdf + (m2 * m2 + v2) * ccdf + (m1 + m2) * a * pdf
    var = moment2 - mean * mean
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
    the next one costs b(m-b) + (m-b)(m-b+1)/2 + m-1-b.  Folds resume at path
    b - 1 <= m - 2 at the latest, so no fold state after the last path is
    ever read: each candidate's step onto the last path is a mean-only
    `clark_max` call, m of them per packet at m >= 2.  Every fold state is
    the same `clark_max` call on the same inputs as a fold from scratch, and
    a mean-only call returns the full call's mean, so the plan is bit for
    bit the one that refolds everything per packet.
    Ties are broken first by the EDF cost and then by index, so the all-zero
    stddev case reduces to EDF's order exactly.
    """
    m = len(_terms(n, params))
    if len(stddevs) != m:
        raise ValidationError(f"need one stddev per path, got {list(stddevs)}")
    mean_ms, prop_ms, var_ms, loads = [], [], [], []
    # each path's moments now and with one more packet; a bumped mean is also
    # the path's EDF cost
    means, variances, bumped_means, bumped_vars = [], [], [], []
    for p, s in zip(params, stddevs):
        # A NaN cost compares false both ways, which no greedy order can rank;
        # PathParams already refuses non-finite means and propagation delays.
        require_finite("delay stddev", s, ValidationError)
        u, mu, prop, v = p.in_flight, p.mu_ms, p.prop_ms, s ** 2
        mean_ms.append(mu)
        prop_ms.append(prop)
        var_ms.append(v)
        loads.append(u)
        means.append(u * mu + prop)
        variances.append(u * v)
        bumped_means.append((u + 1) * mu + prop)
        bumped_vars.append((u + 1) * v)
    # folds[c][j] is candidate c's (mean, var) after paths 0..j, for c <= j < m - 1;
    # shared[j] is the fold of the unbumped paths 0..j, for j < m - 1
    folds = [[None] * m for _ in range(m)]
    shared = [None] * m
    top = m - 1
    tails = [range(j + 1, top) for j in range(m)]
    order = []
    last = -1  # fold states up to this path are current
    for _ in range(n):
        # candidates up to `last` resume their own fold after it; the others
        # restart theirs from the shared fold, which is extended as they go
        best = None
        for cand in range(m):
            fold = folds[cand]
            if cand <= last:
                mean, var = fold[last]
                path_after = tails[last]
            elif not cand:
                mean, var = fold[0] = bumped_means[0], bumped_vars[0]
                shared[0] = means[0], variances[0]
                path_after = tails[0]
            elif cand < top:
                pre_mean, pre_var = shared[cand - 1]
                mean, var = fold[cand] = clark_max(
                    pre_mean, pre_var, bumped_means[cand], bumped_vars[cand]
                )
                shared[cand] = clark_max(pre_mean, pre_var, means[cand], variances[cand])
                path_after = tails[cand]
            else:  # the last path's own bumped step ends its fold
                pre_mean, pre_var = shared[cand - 1]
                mean = clark_max(pre_mean, pre_var, bumped_means[cand], bumped_vars[cand], False)
                path_after = ()
            for j in path_after:
                mean, var = fold[j] = clark_max(mean, var, means[j], variances[j])
            if cand < top:
                mean = clark_max(mean, var, means[top], variances[top], False)
            cand_mean = bumped_means[cand]
            # (mean, cand_mean) < (best_mean, best_cost) as tuples compare, NaN included
            if best is None or mean < best_mean or (
                (mean == best_mean or mean is best_mean) and cand_mean < best_cost
            ):
                best, best_mean, best_cost = cand, mean, cand_mean
        order.append(best)
        means[best] = bumped_means[best]
        variances[best] = bumped_vars[best]
        loads[best] = u = loads[best] + 1
        bumped_means[best] = (u + 1) * mean_ms[best] + prop_ms[best]
        bumped_vars[best] = (u + 1) * var_ms[best]
        last = best - 1
    return tuple(order)
