"""Walk through the split optimizer: bounds, relaxed solution, integer split.

Two paths: a fast one with fluctuating delay and a slower, steadier one.
The optimizer balances the high-probability completion bound, not the mean.
"""

import math

from sosim import (
    PathParams,
    SolveStats,
    compute_w,
    d_upper,
    solve_integer,
    solve_relaxed,
)

EPSILON = 0.05  # overall tail budget, split evenly over the two paths
eps_j = EPSILON / 2

# Hand-built paths: a mean delay and a known delay range [a, b] per path,
# weighted with Hoeffding's form over that range.
fast = PathParams(mu_ms=10.0, w=compute_w(eps_j, 2.0, 35.0))
steady = PathParams(mu_ms=12.0, w=compute_w(eps_j, 9.0, 15.0))
print(f"variability weights: fast w={fast.w:.2f}, steady w={steady.w:.2f}")

for n in (1, 10, 100, 1000):
    xs = solve_relaxed(n, [fast, steady])
    stats = SolveStats()
    split = solve_integer(n, [fast, steady], stats=stats)
    bound = d_upper(split, [fast, steady])
    budget = 2 * math.ceil(math.log2(n + 1)) + 4
    print(
        f"n={n:5d}  relaxed=({xs[0]:8.2f},{xs[1]:8.2f})  integer={split}"
        f"  bound={bound:9.2f}ms  evals={stats.d_upper_evals}/{budget}"
    )

# Small objects shun the fluctuating path; statistical multiplexing lets large
# objects use it heavily while keeping the same tail guarantee.
