"""Choosing which tips to measure: tree-aware beats random, quickly.

With the tree known in advance but traits expensive to collect, pick the
subset of tips that maximizes the scaled effective sample size 1'V^{-1}1 of
the restricted tree.  The optimal subsets of all sizes are nested, so
stepwise search reads them off one merge up the tree and sweeps only the
subsets on its path; random subsets lag far behind, and a modest number of
well-chosen tips already captures nearly all of the full tree's
information.
"""

from treegls import (
    ess_intercept,
    exhaustive_design,
    random_design_bands,
    stepwise_design,
)
from treegls.simlab import random_tree

tree = random_tree(49, seed=90, ultrametric=True)
full = ess_intercept(tree)
print(f"49 tips, full-tree n_e = {full.n_e:.3f}")

print(f"\n{'k':>3} {'random q2.5':>12} {'median':>9} {'q97.5':>9} {'stepwise':>9}")
for k in (5, 10, 15, 20, 30):
    band = random_design_bands(tree, k, reps=400, seed=1000 + k)
    best = stepwise_design(tree, k, "forward")
    print(f"{k:>3} {band.q025:>12.3f} {band.median:>9.3f} "
          f"{band.q975:>9.3f} {best.n_e:>9.3f}")

traj = stepwise_design(tree, 49, "forward").trajectory
k_star = next(k for k, s in traj if s >= 0.99 * full.scaled_ess)
print(f"\nforward search reaches 99% of the full-tree value at k* = {k_star}")

# On small instances the stepwise searches can be checked against brute force.
small = random_tree(11, seed=3, ultrametric=True)
for k in (3, 5):
    exact = exhaustive_design(small, k)
    fwd = stepwise_design(small, k, "forward")
    bwd = stepwise_design(small, k, "backward")
    print(f"11 tips, k={k}: exhaustive {exact.score:.4f} "
          f"({exact.evaluations} subsets), forward {fwd.score:.4f}, "
          f"backward {bwd.score:.4f}")
