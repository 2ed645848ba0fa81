"""
Splitting a survival gap into causal pathways
=============================================

Two groups differ in survival.  How much of that gap is carried by each
causal route?  This script builds a small discrete structural model where
the answer is computable exactly, samples a cohort from it, and splits the
group gap into

- a *direct* effect (group -> outcome, everything else held fixed),
- an *indirect* effect (group -> mediator -> outcome), and
- a *spurious* effect (a confounder that shifts both group and outcome),

first with the plug-in estimator, then with the cross-fitted doubly robust
estimator, and checks both against enumeration over the model's tables.
"""

import math

import numpy as np

from fairsurv import (
    FoldPlan,
    Functional,
    SCMSpec,
    crossfit_dr_many,
    decompose_difference,
    oracle_decomposition,
    sample_cohort,
)

# ---------------------------------------------------------------------------
# A fully tabulated model: group x, confounder z, mediator w, and discrete
# event/censoring laws per (x, z, w) stratum.  Constant per-step hazards
# keep every table a few lines long.
# ---------------------------------------------------------------------------


def hazard_law(grid, hazard, tail=math.inf):
    law, alive = {}, 1.0
    for t in grid:
        law[t] = alive * hazard
        alive *= 1.0 - hazard
    law[tail] = 1.0 - sum(law.values())
    return law


EVENT_TIMES = [1.0, 2.0, 3.0, 4.0]
CENSOR_TIMES = [0.5, 1.5, 2.5, 3.5]

spec = SCMSpec(
    z_support=[0, 1],
    w_support=[0, 1],
    # z is a confounder: it shifts group membership...
    p_xz={(0, 0): 0.25, (0, 1): 0.20, (1, 0): 0.25, (1, 1): 0.30},
    # ...and w is a mediator: the group shifts its distribution.
    p_w_given_xz={
        (0, 0): {0: 0.7, 1: 0.3},
        (0, 1): {0: 0.5, 1: 0.5},
        (1, 0): {0: 0.4, 1: 0.6},
        (1, 1): {0: 0.2, 1: 0.8},
    },
    # all three routes are live: x, w and z each raise the event hazard
    event_laws={
        (x, z, w): hazard_law(EVENT_TIMES, 0.10 + 0.12 * x + 0.10 * w + 0.06 * z)
        for x in (0, 1) for z in (0, 1) for w in (0, 1)
    },
    censor_law={
        (x, z, w): hazard_law(CENSOR_TIMES, 0.08 + 0.04 * w, tail=4.5)
        for x in (0, 1) for z in (0, 1) for w in (0, 1)
    },
)

cohort = sample_cohort(spec, 40_000, seed=7)
print(f"sampled cohort: n={cohort.n}, "
      f"events={int((cohort.delta > 0).sum())}, "
      f"censored={int((cohort.delta == 0).sum())}")

# ---------------------------------------------------------------------------
# Cross-fitted doubly robust decomposition of the survival gap.  The four
# potential-outcome curves behind the decomposition share one grid and one
# fold plan (the folds and their nuisance fits), so the additive identity
# holds exactly row by row.
# ---------------------------------------------------------------------------

grid = np.asarray(EVENT_TIMES)
functional = Functional("survival")
queries = [(1, 1, 1), (1, 1, 0), (1, 0, 0), (0, 0, 0)]

po = crossfit_dr_many(FoldPlan(cohort, seed=0), queries, functional,
                      grid=grid)
series = decompose_difference(po, x0=0, x1=1, functional=functional,
                              grid=grid)

print("\ncross-fitted doubly robust decomposition "
      "(survival scale, group 1 minus group 0)")
print(f"{'t':>4} {'effect':>9} {'estimate':>10} {'se':>8} "
      f"{'95% interval':>20}")
for name in ("tv", "direct", "indirect", "spurious"):
    eff = series.effect(name)
    for i, t in enumerate(series.grid):
        print(f"{t:>4g} {name:>9} {eff.estimate[i]:>10.4f} "
              f"{eff.se[i]:>8.4f}     [{eff.lo[i]:+.4f}, {eff.hi[i]:+.4f}]")

# the decomposition is exact arithmetic, not an approximation:
gap = np.max(np.abs(
    series.effect("tv").estimate
    - (series.effect("direct").estimate
       - series.effect("indirect").estimate
       - series.effect("spurious").estimate)))
print(f"\nidentity  tv = direct - indirect - spurious : max gap {gap:.2e}")

# ---------------------------------------------------------------------------
# The model is small enough to enumerate, so the truth is available.
# ---------------------------------------------------------------------------

truth = oracle_decomposition(spec, grid, functional, x0=0, x1=1)
print("\nestimate vs enumeration truth (sup distance over the grid)")
for name in ("tv", "direct", "indirect", "spurious"):
    true_curve = np.asarray(truth[name].evaluate(grid), dtype=float)
    sup = np.max(np.abs(series.effect(name).estimate - true_curve))
    print(f"  {name:>9}: {sup:.4f}")
