"""Acceptance gate: the nine release criteria, one test (and one
pass/fail line) each.

Each criterion states its own tolerance; tests print a summary line with
the measured quantity so a log shows how much margin remains.  Seeds are
fixed, so every number here is reproducible.
"""

import time
from importlib import resources

import numpy as np
import pytest

from fairsurv.cge import cge_bounded, incidence_estimates, \
    route2_population
from fairsurv.cli import main
from fairsurv.copulas import CopulaSpec
from fairsurv.curves import StepCurve, aalen_johansen_cif, kaplan_meier
from fairsurv.decompose import decompose_cr, decompose_difference, \
    decompose_ratio
from fairsurv.dr import (
    DRNuisances,
    FoldPlan,
    crossfit_dr_many,
    evaluate_influence,
)
from fairsurv.identify import fit_plugin_nuisances
from fairsurv.queries import Functional, PotentialOutcomeQuery
from fairsurv.scm import sample_cohort

from testkit import (
    brute_po,
    cge_classical,
    crossfit_dr,
    dr_nuisances_from_spec,
    empirical_cif_pair,
    make_adversarial,
    make_cr_two_cause,
    make_ic_clayton,
    make_indirect_only,
    make_nic_balanced,
    make_severed,
    model_from_curves,
    plugin_po,
    propensity_from_spec,
    spec_of,
    survival_model_from_spec,
)

SURVIVAL = Functional("survival")
GRID = [1.0, 2.0, 3.0, 4.0]
QUERIES = [PotentialOutcomeQuery(*q)
           for q in ((0, 0, 0), (1, 0, 0), (1, 1, 0), (1, 1, 1))]


def report(number, passed, detail):
    print(f"ACCEPTANCE {number:02d} {'PASS' if passed else 'FAIL'} — {detail}")
    assert passed, detail


def oracle_curve(raw, query, grid=GRID, **kw):
    return np.array([brute_po(raw, *query.as_tuple(), t, **kw)
                     for t in grid])


# ---------------------------------------------------------------------------
# 1. plugin and cross-fitted estimates against the enumeration oracle
# ---------------------------------------------------------------------------

def test_acceptance_01_estimates_match_enumeration_oracle():
    scms = [("balanced", make_nic_balanced(), 1001),
            ("severed", make_severed(), 1002),
            ("indirect-only", make_indirect_only(), 1003)]
    worst = 0.0
    slowest = 0.0
    for name, raw, seed in scms:
        start = time.perf_counter()
        cohort = sample_cohort(spec_of(raw), 100_000, seed=seed)
        nuisances = fit_plugin_nuisances(cohort, SURVIVAL)
        dr = crossfit_dr_many(FoldPlan(cohort, seed=seed), QUERIES, SURVIVAL,
                              grid=GRID)
        sup = 0.0
        for query in QUERIES:
            oracle = oracle_curve(raw, query)
            plug = np.asarray(
                plugin_po(nuisances, cohort, query, SURVIVAL, GRID).values,
                dtype=float)
            sup = max(sup, float(np.max(np.abs(plug - oracle))))
            sup = max(sup,
                      float(np.max(np.abs(dr[query].estimate - oracle))))
        elapsed = time.perf_counter() - start
        worst = max(worst, sup)
        slowest = max(slowest, elapsed)
        assert elapsed <= 120.0, f"{name}: {elapsed:.0f}s per SCM"
    report(1, worst <= 0.02,
           f"3 SCMs at n=1e5: worst sup-distance {worst:.4f} (bound 0.02), "
           f"slowest {slowest:.0f}s (bound 120s)")


# ---------------------------------------------------------------------------
# 2. difference- and ratio-scale decomposition identities
# ---------------------------------------------------------------------------

def test_acceptance_02_decomposition_identities_exact():
    cohort = sample_cohort(spec_of(make_nic_balanced()), 8000, seed=1011)
    grid = [1.0, 2.0, 3.0]  # interior: ratios need positive curves
    nuisances = fit_plugin_nuisances(cohort, SURVIVAL)
    po_plugin = {q: plugin_po(nuisances, cohort, q, SURVIVAL, grid)
                 for q in QUERIES}
    po_dr = crossfit_dr_many(FoldPlan(cohort, seed=1011), QUERIES, SURVIVAL,
                             grid=grid)
    gap = 0.0
    for po in (po_plugin, po_dr):
        diff = decompose_difference(po, 0, 1, functional=SURVIVAL, grid=grid)
        lhs = diff.effect("tv").estimate
        rhs = (diff.effect("direct").estimate
               - diff.effect("indirect").estimate
               - diff.effect("spurious").estimate)
        gap = max(gap, float(np.max(np.abs(lhs - rhs))))
        ratio = decompose_ratio(po, 0, 1, functional=SURVIVAL, grid=grid)
        lhs = ratio.effect("tv").estimate
        rhs = (ratio.effect("direct").estimate
               / ratio.effect("indirect").estimate
               / ratio.effect("spurious").estimate)
        gap = max(gap, float(np.max(np.abs(lhs - rhs))))
    report(2, gap <= 1e-12,
           f"difference + ratio identities on plugin and cross-fitted "
           f"outputs: max gap {gap:.2e} (bound 1e-12)")


# ---------------------------------------------------------------------------
# 3. robustness to single-nuisance misspecification
# ---------------------------------------------------------------------------

def _constant_hazard_curve(grid, hazard):
    vals = np.cumprod(np.full(len(grid), 1.0 - hazard))
    return StepCurve(grid, vals, 1.0, kind="survival")


def _bundle_with(spec, outcome=None, censoring=None):
    return DRNuisances(
        outcome=outcome or survival_model_from_spec(spec, "event"),
        censoring=censoring or survival_model_from_spec(spec, "censoring"),
        propensity_zw=propensity_from_spec(spec, "zw"),
        propensity_z=propensity_from_spec(spec, "z"),
        mediator_table=dict(spec.p_w_given_xz),
    )


def _fixed_bundle_bias(raw, bundle, seed):
    cohort = sample_cohort(spec_of(raw), 100_000, seed=seed)
    query = PotentialOutcomeQuery(1, 0, 0)
    est = crossfit_dr(FoldPlan(cohort, nuisances=bundle), query, SURVIVAL,
                      grid=GRID)
    return float(np.max(np.abs(est.estimate - oracle_curve(raw, query))))


def test_acceptance_03_single_misspecification_tolerated():
    raw = make_nic_balanced()
    spec = spec_of(raw)
    wrong_outcome = model_from_curves(
        {(): _constant_hazard_curve([1.0, 2.0, 3.0, 4.0], 0.18)}, "event")
    wrong_censoring = model_from_curves(
        {(): _constant_hazard_curve([0.5, 1.5, 2.5, 3.5], 0.10)},
        "censoring")
    bias_s = _fixed_bundle_bias(
        raw, _bundle_with(spec, outcome=wrong_outcome), seed=1021)
    bias_g = _fixed_bundle_bias(
        raw, _bundle_with(spec, censoring=wrong_censoring), seed=1022)

    adv = make_adversarial()
    adv_spec = spec_of(adv)
    no_censoring = model_from_curves(
        {(): StepCurve([], [], 1.0, kind="survival")}, "censoring")
    bias_both = _fixed_bundle_bias(
        adv, _bundle_with(adv_spec, outcome=wrong_outcome,
                          censoring=no_censoring), seed=1023)
    ok = bias_s <= 0.02 and bias_g <= 0.02 and bias_both > 0.05
    report(3, ok,
           f"wrong outcome model: bias {bias_s:.4f}; wrong censoring "
           f"model: bias {bias_g:.4f} (bound 0.02 each); both wrong: "
           f"bias {bias_both:.4f} (must exceed 0.05)")


# ---------------------------------------------------------------------------
# 4. influence function centred at the true nuisances
# ---------------------------------------------------------------------------

def test_acceptance_04_influence_mean_zero_over_replicates():
    raw = make_nic_balanced()
    spec = spec_of(raw)
    bundle = dr_nuisances_from_spec(spec, SURVIVAL)
    query = (1, 0, 0)
    psi = np.array([brute_po(raw, *query, t) for t in GRID])
    p_cond = spec.group_probability(query[2])
    means = np.empty((200, len(GRID)))
    for rep in range(200):
        cohort = sample_cohort(spec, 2000, seed=20_000 + rep)
        ev = evaluate_influence(cohort, bundle, query, SURVIVAL, GRID,
                                psi=psi, p_condition=p_cond)
        means[rep] = ev.values.mean(axis=0)
    grand = means.mean(axis=0)
    se = means.std(axis=0, ddof=1) / np.sqrt(means.shape[0])
    ratios = np.abs(grand) / se
    report(4, bool(np.all(ratios <= 3.0)),
           f"influence mean over 200 replicates: worst |mean|/SE "
           f"{float(np.max(ratios)):.2f} (bound 3)")


# ---------------------------------------------------------------------------
# 5. confidence-interval coverage of the oracle
# ---------------------------------------------------------------------------

def test_acceptance_05_interval_coverage():
    raw = make_nic_balanced()
    spec = spec_of(raw)
    oracles = {q: oracle_curve(raw, q) for q in QUERIES}
    start = time.perf_counter()
    hits = total = 0
    for rep in range(200):
        cohort = sample_cohort(spec, 20_000, seed=50_000 + rep)
        estimates = crossfit_dr_many(FoldPlan(cohort, seed=rep), QUERIES,
                                     SURVIVAL, grid=GRID)
        for q in QUERIES:
            est = estimates[q]
            inside = (est.lo <= oracles[q]) & (oracles[q] <= est.hi)
            hits += int(np.count_nonzero(inside))
            total += inside.size
    elapsed = time.perf_counter() - start
    coverage = hits / total
    ok = coverage >= 0.90 and elapsed <= 1800.0
    report(5, ok,
           f"95% intervals cover the oracle in {coverage:.1%} of "
           f"{total} grid-by-replicate cells (bound 90%), {elapsed:.0f}s "
           f"(bound 1800s)")


# ---------------------------------------------------------------------------
# 6. competing-risks normalization and disparity balance
# ---------------------------------------------------------------------------

def test_acceptance_06_competing_risks_normalization():
    cohort = sample_cohort(spec_of(make_cr_two_cause()), 6000, seed=1061)
    # empirical incidence/survival stack at its own breakpoints
    stack_gap = 0.0
    for g in (0, 1):
        sub = cohort.subset(cohort.x == g)
        km = kaplan_meier(sub.m, (sub.delta > 0).astype(int))
        bp = np.asarray(km.breakpoints, dtype=float)
        total = np.asarray(km.evaluate(bp), dtype=float).copy()
        for k in (1, 2):
            cif = aalen_johansen_cif(sub.m, sub.delta, k, n_causes=2)
            total += np.asarray(cif.evaluate(bp), dtype=float)
        stack_gap = max(stack_gap, float(np.max(np.abs(total - 1.0))))
    # plugin potential-outcome stack on a grid
    grid = [1.0, 2.0, 3.0]
    query = PotentialOutcomeQuery(1, 0, 0)
    po_total = np.zeros(len(grid))
    for fn in (Functional("cif", cause=1), Functional("cif", cause=2),
               Functional("all_cause_survival")):
        nuis = fit_plugin_nuisances(cohort, fn)
        po_total += np.asarray(
            plugin_po(nuis, cohort, query, fn, grid).values, dtype=float)
    stack_gap = max(stack_gap, float(np.max(np.abs(po_total - 1.0))))

    # per-cause disparities balance the all-cause one under shared nuisances
    series = decompose_cr(cohort, 0, 1, estimator="plugin", grid=grid)
    tv_sum = np.zeros(len(grid))
    for s in series[:-1]:
        tv_sum += s.effect("tv").estimate
    balance_gap = float(np.max(np.abs(
        tv_sum + series[-1].effect("tv").estimate)))
    ok = stack_gap <= 1e-12 and balance_gap <= 1e-6
    report(6, ok,
           f"incidence+survival stacks sum to one within {stack_gap:.2e} "
           f"(bound 1e-12); per-cause disparities balance all-cause within "
           f"{balance_gap:.2e} (bound 1e-6)")


# ---------------------------------------------------------------------------
# 7. latent-survival reconstruction correctness
# ---------------------------------------------------------------------------

def test_acceptance_07_reconstruction_reduces_and_tightens():
    cohort = sample_cohort(spec_of(make_ic_clayton(0.5)), 4000, seed=1071)
    # the largest observed time is a pure censoring atom that exhausts the
    # remaining mass (cif_t + cif_c reaches 1 there); at that point the
    # sharp lower bound collapses to zero and the band midpoint departs
    # from the point recursion by design, so compare inside follow-up only
    jumps = np.unique(cohort.m)
    jumps = jumps[jumps < jumps.max()]
    cif_t, cif_c = empirical_cif_pair(cohort.m, cohort.delta, jumps)

    # independence recursion reproduces the product-limit curve
    indep = CopulaSpec("independence", 0.0)
    s_indep, _ = cge_classical(cif_t, cif_c, indep)
    km = kaplan_meier(cohort.m, (cohort.delta > 0).astype(int))
    km_gap = float(np.max(np.abs(
        np.asarray(s_indep.evaluate(jumps), dtype=float)
        - np.asarray(km.evaluate(jumps), dtype=float))))

    # bounds collapse onto the recursion when jumps never coincide
    clayton = CopulaSpec("clayton", 0.5)
    s_cl, _ = cge_classical(cif_t, cif_c, clayton)
    state = cge_bounded(cif_t, cif_c, clayton, jumps)
    collapse_gap = float(np.max(np.abs(
        state.s_hat - np.asarray(s_cl.evaluate(jumps), dtype=float))))
    max_width = float(np.max(state.s_hi - state.s_lo))

    # smooth curves: widths shrink strictly under refinement
    widths = []
    for n_points in (20, 40, 80, 160):
        grid = np.linspace(3.0 / n_points, 3.0, n_points)
        ct = StepCurve(grid, 0.5 * (1.0 - np.exp(-grid)), 0.0, kind="cif")
        cc = StepCurve(grid, 0.3 * (1.0 - np.exp(-0.8 * grid)), 0.0,
                       kind="cif")
        widths.append(cge_bounded(ct, cc, clayton, grid).max_width())
    shrinks = all(b < a for a, b in zip(widths, widths[1:]))
    ok = (km_gap <= 1e-8 and collapse_gap <= 1e-10
          and max_width <= 1e-10 and shrinks and widths[-1] < 1e-3)
    report(7, ok,
           f"independence vs product-limit {km_gap:.1e} (bound 1e-8); "
           f"bounds vs recursion {collapse_gap:.1e} (bound 1e-10); "
           f"refinement widths {['%.1e' % w for w in widths]} "
           f"(monotone, final < 1e-3)")


# ---------------------------------------------------------------------------
# 8. sensitivity reconstruction against the latent oracle
# ---------------------------------------------------------------------------

def test_acceptance_08_latent_reconstruction_and_envelopes():
    raw = make_ic_clayton(0.5)
    cohort = sample_cohort(spec_of(raw), 50_000, seed=1081)
    plan = FoldPlan(cohort.censoring_as_cause())
    specs = [CopulaSpec("clayton", tau) for tau in (0.1, 0.5, 0.8)]
    sup = 0.0
    contained = True
    for g in (0, 1):
        query = PotentialOutcomeQuery.observational(g)
        # default grid: reconstruction needs every censoring jump resolved,
        # so the estimator derives the grid from the recoded cohort
        results = route2_population(incidence_estimates(plan, query), specs,
                                    n_samples=60, seed=0)
        matched = results[1]
        oracle = oracle_curve(raw, query, grid=matched.grid)
        sup = max(sup, float(np.max(np.abs(matched.central - oracle))))
        for result in results:
            contained &= bool(
                np.all(result.env_lo <= result.central + 1e-12)
                and np.all(result.central <= result.env_hi + 1e-12))
    ok = sup <= 0.05 and contained
    report(8, ok,
           f"central reconstruction within {sup:.4f} of the latent oracle "
           f"at n=50000 (bound 0.05); envelopes contain their centrals "
           f"for tau in {{0.1, 0.5, 0.8}}: {contained}")


# ---------------------------------------------------------------------------
# 9. command-line determinism
# ---------------------------------------------------------------------------

def test_acceptance_09_cli_reruns_byte_identical(tmp_path):
    cohort_path = tmp_path / "cohort.csv"
    cohort_path.write_text(
        sample_cohort(spec_of(make_ic_clayton(0.5)), 5000, seed=1091)
        .to_csv())
    commands = {
        "simulate": ["simulate", "--spec", "example", "--n", "2000",
                     "--seed", "7"],
        "curves": ["curves", "--cohort", str(cohort_path), "--grid",
                   "1,2,3"],
        "decompose": ["decompose", "--cohort", str(cohort_path), "--mode",
                      "ic", "--tau", "0.3,0.6", "--estimator", "dr",
                      "--envelope-samples", "25", "--grid", "1,2,3"],
    }
    identical = True
    n_files = 0
    for name, args in commands.items():
        out_a, out_b = tmp_path / f"{name}_a", tmp_path / f"{name}_b"
        assert main(args + ["--outdir", str(out_a)]) == 0
        assert main(args + ["--outdir", str(out_b)]) == 0
        files_a = sorted(p.name for p in out_a.iterdir())
        files_b = sorted(p.name for p in out_b.iterdir())
        identical &= files_a == files_b
        for fname in files_a:
            n_files += 1
            identical &= ((out_a / fname).read_bytes()
                          == (out_b / fname).read_bytes())
    report(9, identical,
           f"all three subcommands byte-identical across reruns "
           f"({n_files} files compared)")
