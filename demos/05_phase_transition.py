"""When does adding tips actually help estimate the root state?

Replicating branches ever closer to the root (keep a proportion q of each
root branch, duplicate the rest d-fold per level) makes the intercept
estimable, but the variance decay rate switches regimes at q = 1/d:

    q < 1/d : var ~ 1/n            (the i.i.d. rate)
    q = 1/d : var ~ ln(n)/n        (logarithmic drag)
    q > 1/d : var ~ n^(ln q/ln d)  (polynomially slower)

The closed form below is cross-checked against the single-traversal value up
to n = 2^16, which one sweep of the largest member, M = 16, gives for every
member: member m is d copies of a level-(M - m + 1) clade of member M, whose
root-to-clade path telescopes,

    q^(M-1) + (1-q)(q^(M-2) + ... + q^(m-1)) = q^(m-1),

to member m's first level length.
"""

import math

from treegls import (
    log_corrected_slope,
    phase_transition_curve,
    power_law_slope,
)

D = 2
for q, label in ((0.3, "q < 1/d"), (0.5, "q = 1/d"), (0.8, "q > 1/d")):
    curve = phase_transition_curve(D, q, m_max=20)
    agree = max(
        abs(p.var_closed - p.var_pruning) / p.var_closed
        for p in curve
        if p.var_pruning is not None
    )
    ns = [p.n for p in curve if p.m >= 8]
    vs = [p.var_closed for p in curve if p.m >= 8]
    slope = power_law_slope(ns, vs)
    print(f"{label} (q={q}): fitted ln var / ln n slope = {slope:+.4f}, "
          f"closed-vs-traversal gap {agree:.1e}")

print(f"\nexpected slow-regime exponent ln(0.8)/ln(2) = "
      f"{math.log(0.8) / math.log(2):+.4f}")

curve = phase_transition_curve(D, 0.5, m_max=20)
ns = [p.n for p in curve if p.m >= 8]
vs = [p.var_closed for p in curve if p.m >= 8]
print(f"critical regime: slope of ln(n var) vs ln ln n = "
      f"{log_corrected_slope(ns, vs):+.3f} (1 means var ~ ln(n)/n)")

print("\nfirst few rungs of the q = 0.8 family:")
print(f"{'n':>8} {'variance':>12}")
for p in phase_transition_curve(D, 0.8, m_max=10):
    print(f"{p.n:>8} {p.var_closed:>12.6f}")
