"""
When censoring is informative: sensitivity, not faith
=====================================================

Standard survival estimators assume that censoring tells you nothing
about the event time.  When sicker people leave the study earlier, that
assumption quietly bends every curve.  This script couples the event and
censoring times with a Clayton dependence (Kendall's tau = 0.5), then

1. shows the product-limit estimate missing the latent truth,
2. reconstructs the latent survival from the two observable incidence
   curves under the matched dependence assumption, and
3. sweeps the assumed dependence to show how the group gap would move —
   with envelopes that propagate estimation uncertainty in the incidence
   inputs (sensitivity bands, not confidence intervals).
"""

import math

import numpy as np

from fairsurv import (
    CopulaSpec,
    FoldPlan,
    Functional,
    PotentialOutcomeQuery,
    SCMSpec,
    incidence_estimates,
    kaplan_meier,
    oracle_po_curve,
    route2_population,
    sample_cohort,
)

# ---------------------------------------------------------------------------
# The same tabulated world as the first demo, except event and censoring
# times are now drawn from a Clayton copula within each stratum: people
# about to fail are also more likely to leave.
# ---------------------------------------------------------------------------


def hazard_law(grid, hazard, tail=math.inf):
    law, alive = {}, 1.0
    for t in grid:
        law[t] = alive * hazard
        alive *= 1.0 - hazard
    law[tail] = 1.0 - sum(law.values())
    return law


TRUE_TAU = 0.5

spec = SCMSpec(
    z_support=[0, 1],
    w_support=[0, 1],
    p_xz={(0, 0): 0.25, (0, 1): 0.20, (1, 0): 0.25, (1, 1): 0.30},
    p_w_given_xz={
        (0, 0): {0: 0.7, 1: 0.3},
        (0, 1): {0: 0.5, 1: 0.5},
        (1, 0): {0: 0.4, 1: 0.6},
        (1, 1): {0: 0.2, 1: 0.8},
    },
    event_laws={
        (x, z, w): hazard_law([1.0, 2.0, 3.0, 4.0],
                              0.10 + 0.12 * x + 0.08 * w + 0.05 * z)
        for x in (0, 1) for z in (0, 1) for w in (0, 1)
    },
    censor_law={
        (x, z, w): hazard_law([0.5, 1.5, 2.5, 3.5], 0.10 + 0.05 * w,
                              tail=4.5)
        for x in (0, 1) for z in (0, 1) for w in (0, 1)
    },
    coupling=CopulaSpec("clayton", TRUE_TAU),
)

cohort = sample_cohort(spec, 30_000, seed=5)
functional = Functional("survival")

# ---------------------------------------------------------------------------
# 1. The product-limit curve is not estimating the latent survival here.
# ---------------------------------------------------------------------------

print("group-wise survival at t = 3 (latent truth vs independence-faith "
      "product limit)")
naive_gap = {}
for g in (0, 1):
    mask = cohort.x == g
    km = kaplan_meier(cohort.m[mask], (cohort.delta[mask] > 0).astype(int))
    truth = oracle_po_curve(spec, PotentialOutcomeQuery.observational(g),
                            functional, np.array([3.0]))
    t_val = float(np.asarray(truth.evaluate([3.0]), dtype=float)[0])
    k_val = float(np.asarray(km.evaluate([3.0]), dtype=float)[0])
    naive_gap[g] = k_val - t_val
    print(f"  group {g}: truth {t_val:.4f}, product-limit {k_val:.4f} "
          f"(bias {k_val - t_val:+.4f})")

# ---------------------------------------------------------------------------
# 2. Reconstruction from the two observable incidence curves.  Censoring is
# recoded as a second competing cause, both incidences are estimated with
# the cross-fitted doubly robust machinery on shared folds, and the latent
# survival is rebuilt step by step under the assumed copula.
#
# The grid stops short of the largest observed time: that final atom
# exhausts the observable mass (everyone has failed or left by then), and
# at exhaustion the reconstruction honestly reports an identification
# band collapsing to [0, S] rather than a point — survival past the end
# of follow-up is not a quantity the data can pin down.
# ---------------------------------------------------------------------------

grid = np.unique(cohort.m)[:-1]
plan = FoldPlan(cohort.censoring_as_cause())
queries = {g: PotentialOutcomeQuery.observational(g) for g in (0, 1)}
estimates = {g: incidence_estimates(plan, queries[g], grid) for g in (0, 1)}
print(f"\nreconstruction under the matched assumption (tau = {TRUE_TAU})")
for g in (0, 1):
    (result,) = route2_population(
        estimates[g], [CopulaSpec("clayton", TRUE_TAU)], n_samples=60)
    truth = np.asarray(
        oracle_po_curve(spec, queries[g], functional, result.grid)
        .evaluate(result.grid), dtype=float)
    sup = float(np.max(np.abs(result.central - truth)))
    print(f"  group {g}: sup |reconstructed - truth| = {sup:.4f} "
          f"(product-limit bias at t=3 was {naive_gap[g]:+.4f})")

# ---------------------------------------------------------------------------
# 3. The dependence strength is not identified from observed data, so
# treat it as a sensitivity knob.  The report is a band per assumption:
# centrals move smoothly with tau, envelopes carry the incidence
# uncertainty through the reconstruction.
# ---------------------------------------------------------------------------

print("\ngroup gap in survival at t = 3 under a range of assumed "
      "dependence strengths")
print(f"{'tau':>6} {'gap':>9} {'envelope':>22}")
taus = (0.1, 0.3, 0.5, 0.8)
# the incidence pairs and envelope draws do not depend on tau: one call
# per group reconstructs it under every assumed strength
sweeps = {g: route2_population(
    estimates[g], [CopulaSpec("clayton", tau) for tau in taus], n_samples=60)
    for g in (0, 1)}
for i, tau in enumerate(taus):
    res = {g: sweeps[g][i] for g in (0, 1)}
    i3 = {g: int(np.searchsorted(res[g].grid, 3.0)) for g in (0, 1)}
    gap = res[1].central[i3[1]] - res[0].central[i3[0]]
    # interval arithmetic: worst pairing of the two envelopes
    lo = res[1].env_lo[i3[1]] - res[0].env_hi[i3[0]]
    hi = res[1].env_hi[i3[1]] - res[0].env_lo[i3[0]]
    tag = "  <- matched" if tau == TRUE_TAU else ""
    print(f"{tau:>6.1f} {gap:>+9.4f}     [{lo:+.4f}, {hi:+.4f}]{tag}")

print("\nthe sign of the gap is stable across the sweep; its size is not —"
      "\nwhich is exactly what an honest report under informative"
      "\ncensoring should say.")
