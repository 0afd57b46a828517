"""Range shrinking and type-of-bias change in sparse coding.

Two reparameterizations of the code in a dictionary regression:

* u^(2k) - v^(2k): the reachable dual range contracts as strength accumulates,
  so the l1 norm of the code freezes -- earlier for larger k.
* log u - log v: here regularization pushes the bias from l1 toward l2, so
  stronger penalties make the code's l1 norm grow faster instead.
"""

import numpy as np

from mirrorlab import (DiffPowers, LogRatio, Schedule, SparseCodingConfig,
                       make_dictionary, make_rng, sparse_coding_run)

rng = make_rng(7)
D = make_dictionary(200, 50, seed=3)
code_star = np.zeros(50)
code_star[rng.choice(50, 8, replace=False)] = rng.standard_normal(8)
target = D @ code_star + 0.05 * rng.standard_normal(200)
x_init = rng.standard_normal(50)

print("== difference of powers: l1 freezes earlier for larger k ==")
sched = Schedule("constant", 1e-3, t_end=1e9)
for k in (1, 2, 3):
    u0 = (0.5 * (np.sqrt(x_init**2 + 1.0) + x_init)) ** (1.0 / (2 * k))
    v0 = (0.5 * (np.sqrt(x_init**2 + 1.0) - x_init)) ** (1.0 / (2 * k))
    rep = sparse_coding_run(D, target, DiffPowers(k, u0, v0), sched,
                            SparseCodingConfig(steps=300))
    print(f"  k={k}: l1 {rep.metrics['l1'][0]:.2f} -> {rep.summary['final_l1']:.2f}, "
          f"stationary from step {rep.summary['stationarity_step']}")

print("\n== log ratio: stronger penalties push l1 up faster ==")
# g(w0) = log u0 - log v0 = 0.1 per coordinate, from factors inside the
# u, v > 1 region, as `mirrorlab run sparse-coding --variant log-ratio` starts
u0 = np.full(50, 2.0 * np.exp(0.05))
v0 = np.full(50, 2.0 * np.exp(-0.05))
for alpha in (0.0, 1e-3, 1e-1, 1.0):
    rep = sparse_coding_run(D, target, LogRatio(u0, v0),
                            Schedule("constant", alpha, t_end=1e9),
                            SparseCodingConfig(steps=300))
    flag = " (left u,v > 1 region)" if rep.flags["left_unit_region"] else ""
    print(f"  alpha={alpha:<6}: final l1 {rep.summary['final_l1']:.3f}{flag}")
