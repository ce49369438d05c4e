"""Monte-Carlo check of the tail guarantee.

With inter-packet delays uniform on known [a, b] ranges, the fraction of
objects finishing later than the optimizer's bound must stay below epsilon.
"""

import numpy as np

from sosim import PathParams, compute_w, d_upper, solve_integer

EPSILON = 0.05
N_PACKETS = 100
N_OBJECTS = 20_000

rng = np.random.default_rng(2)
ranges = [(1.0, 5.0), (2.0, 4.0)]
paths = [
    PathParams(mu_ms=(a + b) / 2, w=compute_w(EPSILON / 2, a, b))
    for a, b in ranges
]

split = solve_integer(N_PACKETS, paths)
bound = d_upper(split, paths)
print(f"split={split}, bound={bound:.2f}ms")

worst = np.zeros(N_OBJECTS)
for (a, b), count in zip(ranges, split):
    if count:
        worst = np.maximum(worst, rng.uniform(a, b, size=(N_OBJECTS, count)).sum(axis=1))

violations = float((worst > bound).mean())
print(f"P(completion > bound) = {violations:.4f}  (budget epsilon = {EPSILON})")
print(f"typical completion: mean={worst.mean():.2f}ms, p95={np.quantile(worst, 0.95):.2f}ms")
