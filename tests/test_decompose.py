"""Decomposition series: identities, bands, and the competing-cause sweep."""

import json
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from fairsurv.decompose import (
    EFFECT_NAMES,
    DecompositionSeries,
    decompose_cr,
    decompose_difference,
    decompose_ratio,
)
from fairsurv.curves import StepCurve
from fairsurv.dr import FoldPlan, assign_folds, crossfit_dr_many
from fairsurv.errors import DataError, RatioUndefinedError
from fairsurv.identify import fit_plugin_nuisances, outcome_target, \
    plugin_po_many
from fairsurv.nuisance import fit_conditional_survival
from fairsurv.queries import Functional, PotentialOutcomeQuery, \
    effect_contrasts, role_queries
from fairsurv.scm import (
    Cohort,
    oracle_decomposition,
    oracle_potential_outcome,
    sample_cohort,
)

from testkit import (
    brute_po,
    count_fits,
    make_cr_severed,
    make_cr_two_cause,
    make_indirect_only,
    make_nic_balanced,
    reference_crossfit,
    spec_of,
)

GRID = np.array([1.0, 2.0, 3.0, 4.0])

ROLE_TUPLES = ((0, 0, 0), (1, 0, 0), (1, 1, 0), (1, 1, 1))


def queries_for(x0, x1):
    return [PotentialOutcomeQuery(*(x1 if r else x0 for r in roles))
            for roles in ROLE_TUPLES]


def brute_po_map(raw, grid, kind="survival", cause=1, arms=(0, 1)):
    """All eight query arrays from the enumeration oracle."""
    out = {}
    for a in (0, 1):
        for b in (0, 1):
            for c in (0, 1):
                out[(a, b, c)] = np.array(
                    [brute_po(raw, a, b, c, t, kind=kind, cause=cause)
                     for t in grid])
    return out


def brute_effects(raw, grid, kind="survival", cause=1):
    po = brute_po_map(raw, grid, kind=kind, cause=cause)
    return {
        "direct": po[(1, 0, 0)] - po[(0, 0, 0)],
        "indirect": po[(1, 0, 0)] - po[(1, 1, 0)],
        "spurious": po[(1, 1, 0)] - po[(1, 1, 1)],
        "tv": po[(1, 1, 1)] - po[(0, 0, 0)],
    }


# ---------------------------------------------------------------------------
# Difference scale on exact curves
# ---------------------------------------------------------------------------

def test_difference_effects_match_definitions():
    raw = make_nic_balanced()
    po = brute_po_map(raw, GRID)
    series = decompose_difference(po, 0, 1, grid=GRID, estimator="oracle")
    truth = brute_effects(raw, GRID)
    for name in EFFECT_NAMES:
        assert_allclose(series.effect(name).estimate, truth[name],
                        rtol=0.0, atol=1e-15)
    tv = series.effect("tv").estimate
    recomposed = (series.effect("direct").estimate
                  - series.effect("indirect").estimate
                  - series.effect("spurious").estimate)
    assert np.max(np.abs(tv - recomposed)) <= 1e-12
    assert series.scale == "difference"
    assert series.estimator == "oracle"


def test_difference_matches_internal_oracle_curves():
    spec = spec_of(make_nic_balanced())
    truth = oracle_decomposition(spec, GRID, Functional("survival"))
    po = brute_po_map(make_nic_balanced(), GRID)
    series = decompose_difference(po, 0, 1, grid=GRID)
    for name in EFFECT_NAMES:
        assert_allclose(series.effect(name).estimate, truth[name].values,
                        rtol=0.0, atol=1e-12)


def test_role_queries_layout():
    # baseline, direct shift, full shift, target: the four decomposition
    # queries, in the order every table lists them
    assert [q.as_tuple() for q in role_queries(0, 1)] == [
        (0, 0, 0), (1, 0, 0), (1, 1, 0), (1, 1, 1)]
    assert [q.as_tuple() for q in role_queries(1, 0)] == [
        (1, 1, 1), (0, 1, 1), (0, 0, 1), (0, 0, 0)]
    # each effect contrasts a positive and a negative query of the four
    roles = {q: q.as_tuple() for q in role_queries(0, 1)}
    pairs = effect_contrasts(roles, 0, 1, lambda pos, neg: (pos, neg))
    assert list(pairs) == list(EFFECT_NAMES)
    assert pairs == {"tv": ((1, 1, 1), (0, 0, 0)),
                     "direct": ((1, 0, 0), (0, 0, 0)),
                     "indirect": ((1, 0, 0), (1, 1, 0)),
                     "spurious": ((1, 1, 0), (1, 1, 1))}


@pytest.mark.parametrize("x0, x1", [(0, 1), (1, 0)])
def test_oracle_decomposition_is_the_difference_decomposition(x0, x1):
    spec = spec_of(make_nic_balanced())
    functional = Functional("survival")
    truth = oracle_decomposition(spec, GRID, functional, x0=x0, x1=x1)
    po = {q: oracle_potential_outcome(spec, q, functional, GRID)
          for q in role_queries(x0, x1)}
    series = decompose_difference(po, x0, x1, grid=GRID, estimator="oracle")
    assert set(truth) == set(EFFECT_NAMES)
    for name in EFFECT_NAMES:
        assert np.array_equal(truth[name].values,
                              series.effect(name).estimate)


def test_identical_curves_give_zero_effects():
    curve = StepCurve(GRID, [0.9, 0.7, 0.5, 0.4], value_at_zero=1.0,
                      kind="survival")
    po = {q: curve for q in queries_for(0, 1)}
    series = decompose_difference(po, 0, 1)
    for name in EFFECT_NAMES:
        assert np.all(series.effect(name).estimate == 0.0)
        assert series.effect(name).se is None


def test_indirect_only_channels_vanish_exactly():
    # Outcome law ignores x and z is independent of x, so only the
    # mediator channel can carry signal; values frozen from the
    # enumeration oracle.
    raw = make_indirect_only()
    po = brute_po_map(raw, GRID)
    series = decompose_difference(po, 0, 1, grid=GRID)
    assert np.all(series.effect("direct").estimate == 0.0)
    assert np.all(series.effect("spurious").estimate == 0.0)
    frozen_indirect = [0.024000000000000132, 0.042432000000000025,
                       0.056314080000000044, 0.066491328000000016]
    assert_allclose(series.effect("indirect").estimate, frozen_indirect,
                    rtol=0.0, atol=1e-15)
    assert np.array_equal(series.effect("tv").estimate,
                          -series.effect("indirect").estimate)


def test_antisymmetry_under_group_swap():
    raw = make_nic_balanced()
    po = brute_po_map(raw, GRID)
    forward = decompose_difference(po, 0, 1, grid=GRID)
    backward = decompose_difference(po, 1, 0, grid=GRID)
    assert np.array_equal(backward.effect("tv").estimate,
                          -forward.effect("tv").estimate)
    # every direction satisfies its own telescoping identity
    for series in (forward, backward):
        gap = (series.effect("tv").estimate
               - series.effect("direct").estimate
               + series.effect("indirect").estimate
               + series.effect("spurious").estimate)
        assert np.max(np.abs(gap)) <= 1e-12
    # the swapped direct effect follows its definition with roles reversed
    manual = po[(0, 1, 1)] - po[(1, 1, 1)]
    assert_allclose(backward.effect("direct").estimate, manual,
                    rtol=0.0, atol=0.0)


# ---------------------------------------------------------------------------
# Input validation
# ---------------------------------------------------------------------------

def test_missing_query_curve_raises():
    po = brute_po_map(make_nic_balanced(), GRID)
    del po[(1, 1, 0)]
    with pytest.raises(DataError, match=r"\(1, 1, 0\)"):
        decompose_difference(po, 0, 1, grid=GRID)


def test_grid_mismatch_raises():
    curve = StepCurve(GRID, [0.9, 0.7, 0.5, 0.4], value_at_zero=1.0,
                      kind="survival")
    other = StepCurve([1.0, 2.0], [0.9, 0.7], value_at_zero=1.0,
                      kind="survival")
    po = {q: curve for q in queries_for(0, 1)}
    po[PotentialOutcomeQuery(1, 1, 1)] = other
    with pytest.raises(DataError, match="different grid"):
        decompose_difference(po, 0, 1)


def test_plain_arrays_need_explicit_grid():
    po = {q: np.array([0.9, 0.8, 0.7, 0.6]) for q in queries_for(0, 1)}
    with pytest.raises(DataError, match="grid"):
        decompose_difference(po, 0, 1)
    series = decompose_difference(po, 0, 1, grid=GRID)
    assert np.all(series.effect("tv").estimate == 0.0)


def test_wrong_length_array_raises():
    po = {q: np.array([0.9, 0.8, 0.7, 0.6]) for q in queries_for(0, 1)}
    po[PotentialOutcomeQuery(0, 0, 0)] = np.array([0.9, 0.8])
    with pytest.raises(DataError, match="grid has 4 points"):
        decompose_difference(po, 0, 1, grid=GRID)


def test_group_arm_validation():
    po = brute_po_map(make_nic_balanced(), GRID)
    with pytest.raises(DataError, match="must differ"):
        decompose_difference(po, 1, 1, grid=GRID)
    with pytest.raises(DataError, match="0 or 1"):
        decompose_difference(po, 0, 2, grid=GRID)


def test_unknown_effect_name_raises():
    po = brute_po_map(make_nic_balanced(), GRID)
    series = decompose_difference(po, 0, 1, grid=GRID)
    with pytest.raises(DataError, match="unknown effect"):
        series.effect("total")


def test_explicit_dr_estimator_without_influence_raises():
    po = brute_po_map(make_nic_balanced(), GRID)
    with pytest.raises(DataError, match="influence"):
        decompose_difference(po, 0, 1, grid=GRID, estimator="doubly_robust")
    with pytest.raises(DataError, match="estimator"):
        decompose_difference(po, 0, 1, grid=GRID, estimator="bayes")


# ---------------------------------------------------------------------------
# Cross-fitted series: bands from influence differences
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def dr_series():
    spec = spec_of(make_nic_balanced())
    cohort = sample_cohort(spec, 4000, seed=11)
    estimates = crossfit_dr_many(
        FoldPlan(cohort, seed=11), queries_for(0, 1), Functional("survival"),
        grid=GRID)
    return cohort, estimates, decompose_difference(estimates, 0, 1)


def test_dr_series_metadata(dr_series):
    _, _, series = dr_series
    assert series.estimator == "doubly_robust"
    assert series.functional.kind == "survival"
    assert series.diagnostics["n_rows"] == 4000


def test_composite_se_comes_from_influence_difference(dr_series):
    cohort, estimates, series = dr_series
    n = cohort.n
    a = estimates[PotentialOutcomeQuery(1, 0, 0)]
    b = estimates[PotentialOutcomeQuery(0, 0, 0)]
    ref = reference_crossfit(FoldPlan(cohort, seed=11), queries_for(0, 1),
                             Functional("survival"), GRID)
    if_a = ref[PotentialOutcomeQuery(1, 0, 0)].if_matrix
    if_b = ref[PotentialOutcomeQuery(0, 0, 0)].if_matrix
    manual = (if_a - if_b).std(axis=0, ddof=1) / np.sqrt(n)
    eff = series.effect("direct")
    assert_allclose(eff.se, manual, rtol=0.0, atol=1e-14)
    assert np.array_equal(eff.lo, eff.estimate - 1.959963984540054 * eff.se)
    assert np.array_equal(eff.hi, eff.estimate + 1.959963984540054 * eff.se)
    # ignoring the cross-query covariance would give a visibly different band
    naive = np.sqrt(a.se ** 2 + b.se ** 2)
    assert np.max(np.abs(eff.se - naive) / naive) > 1e-3


def test_dr_effects_match_enumeration_oracle():
    raw = make_nic_balanced()
    cohort = sample_cohort(spec_of(raw), 20000, seed=13)
    estimates = crossfit_dr_many(
        FoldPlan(cohort, seed=13), queries_for(0, 1), Functional("survival"),
        grid=GRID)
    series = decompose_difference(estimates, 0, 1)
    truth = brute_effects(raw, GRID)
    for name in EFFECT_NAMES:
        assert np.max(np.abs(series.effect(name).estimate - truth[name])) \
            <= 0.04


def test_mixed_fold_assignments_raise():
    spec = spec_of(make_nic_balanced())
    cohort = sample_cohort(spec, 1200, seed=17)
    qs = queries_for(0, 1)
    first = crossfit_dr_many(FoldPlan(cohort, seed=1), qs[:2],
                             Functional("survival"), grid=GRID)
    second = crossfit_dr_many(FoldPlan(cohort, seed=2), qs[2:],
                              Functional("survival"), grid=GRID)
    assert not np.array_equal(first[qs[0]].fold_ids, second[qs[2]].fold_ids)
    merged = {**first, **second}
    with pytest.raises(DataError, match="fold"):
        decompose_difference(merged, 0, 1)


def test_rmst_tv_is_the_integral_of_survival_tv():
    spec = spec_of(make_nic_balanced())
    cohort = sample_cohort(spec, 5000, seed=19)
    fold = assign_folds(cohort, 2, seed=0)
    qs = queries_for(0, 1)
    surv = crossfit_dr_many(FoldPlan(cohort, fold_ids=fold), qs,
                            Functional("survival"), grid=GRID)
    rmst = crossfit_dr_many(FoldPlan(cohort, fold_ids=fold), qs,
                            Functional("rmst"), grid=GRID)
    tv_s = decompose_difference(surv, 0, 1).effect("tv").estimate
    tv_r = decompose_difference(rmst, 0, 1).effect("tv").estimate
    integral = np.zeros_like(tv_r)
    for j in range(1, GRID.size):
        integral[j] = integral[j - 1] + tv_s[j - 1] * (GRID[j] - GRID[j - 1])
    assert np.max(np.abs(tv_r - integral)) <= 1e-8


# ---------------------------------------------------------------------------
# Ratio scale
# ---------------------------------------------------------------------------

def test_ratio_multiplicative_identity_and_quotient():
    # On the cumulative-hazard scale the total ratio is the direct
    # quotient of the two observational hazards; frozen from the
    # enumeration oracle.
    raw = make_nic_balanced()
    po = brute_po_map(raw, GRID, kind="cumulative_hazard")
    series = decompose_ratio(po, 0, 1, grid=GRID,
                             functional=Functional("cumulative_hazard"))
    tv = series.effect("tv").estimate
    recomposed = (series.effect("direct").estimate
                  / (series.effect("indirect").estimate
                     * series.effect("spurious").estimate))
    assert np.max(np.abs(tv - recomposed)) <= 1e-12
    quotient = po[(1, 1, 1)] / po[(0, 0, 0)]
    assert np.max(np.abs(tv - quotient)) <= 1e-10
    assert_allclose(tv, 1.9548505186089076, rtol=0.0, atol=1e-12)
    assert series.scale == "ratio"


def test_ratio_rejects_nonpositive_values_naming_the_time():
    po = {q: np.array([0.5, 0.4, 0.3]) for q in queries_for(0, 1)}
    po[PotentialOutcomeQuery(0, 0, 0)] = np.array([0.5, 0.0, 0.3])
    with pytest.raises(RatioUndefinedError, match=r"t=2.*positive"):
        decompose_ratio(po, 0, 1, grid=np.array([1.0, 2.0, 3.0]))
    po[PotentialOutcomeQuery(0, 0, 0)] = np.array([0.5, 0.4, -0.1])
    with pytest.raises(RatioUndefinedError, match=r"\(0, 0, 0\)"):
        decompose_ratio(po, 0, 1, grid=np.array([1.0, 2.0, 3.0]))


def test_ratio_dr_band_follows_delta_method(dr_series):
    cohort, estimates, _ = dr_series
    series = decompose_ratio(estimates, 0, 1)
    a = estimates[PotentialOutcomeQuery(1, 1, 1)]
    b = estimates[PotentialOutcomeQuery(0, 0, 0)]
    ref = reference_crossfit(FoldPlan(cohort, seed=11), queries_for(0, 1),
                             Functional("survival"), GRID)
    if_a = ref[PotentialOutcomeQuery(1, 1, 1)].if_matrix
    if_b = ref[PotentialOutcomeQuery(0, 0, 0)].if_matrix
    ratio = a.estimate / b.estimate
    if_eff = (if_a - ratio[None, :] * if_b) / b.estimate[None, :]
    manual = if_eff.std(axis=0, ddof=1) / np.sqrt(cohort.n)
    eff = series.effect("tv")
    assert_allclose(eff.estimate, ratio, rtol=0.0, atol=0.0)
    assert_allclose(eff.se, manual, rtol=0.0, atol=1e-14)


# ---------------------------------------------------------------------------
# Competing causes
# ---------------------------------------------------------------------------

def test_cr_plugin_series_identity_and_oracle():
    raw = make_cr_two_cause()
    cohort = sample_cohort(spec_of(raw), 40000, seed=31)
    series = decompose_cr(cohort, 0, 1)
    assert [s.functional.kind for s in series] == [
        "cif", "cif", "all_cause_survival"]
    assert [s.functional.cause for s in series] == [1, 2, None]
    grid = series[0].grid
    tv = [s.effect("tv").estimate for s in series]
    # shared weights make the per-time sum identity exact
    assert np.max(np.abs(tv[0] + tv[1] + tv[2])) <= 1e-10
    frozen = {
        0: [0.12965656565656564, 0.18456490909090911, 0.20054866250585851],
        1: [0.034545656565656571, 0.043169047313131315,
            0.039217060112994001],
        2: [-0.16420222222222225, -0.22773395640404026,
            -0.23976572261885248],
    }
    assert np.array_equal(grid, [1.0, 2.0, 3.0])
    for i, values in frozen.items():
        assert np.max(np.abs(tv[i] - values)) <= 0.025
    for s in series:
        assert s.estimator == "plugin"
        assert s.effect("tv").se is None
        gap = (s.effect("tv").estimate - s.effect("direct").estimate
               + s.effect("indirect").estimate
               + s.effect("spurious").estimate)
        assert np.max(np.abs(gap)) <= 1e-12


def test_cr_severed_spec_gives_null_series():
    cohort = sample_cohort(spec_of(make_cr_severed()), 30000, seed=37)
    series = decompose_cr(cohort, 0, 1)
    for s in series:
        for name in EFFECT_NAMES:
            assert np.max(np.abs(s.effect(name).estimate)) <= 0.02
    tv = [s.effect("tv").estimate for s in series]
    assert np.max(np.abs(tv[0] + tv[1] + tv[2])) <= 1e-10


def test_cr_zero_incidence_cause_is_identically_zero():
    rng = np.random.default_rng(7)
    n = 400
    x = rng.integers(0, 2, size=n)
    z = rng.integers(0, 2, size=n)
    w = rng.integers(0, 2, size=n)
    m = rng.choice([1.0, 2.0, 3.0], size=n)
    delta = rng.choice([0, 1], size=n)
    cohort = Cohort(x, z, w, m, delta, n_causes=2)
    series = decompose_cr(cohort, 0, 1, grid=[1.0, 2.0, 3.0])
    dead = series[1]
    assert dead.functional.cause == 2
    for name in EFFECT_NAMES:
        assert np.all(dead.effect(name).estimate == 0.0)


def test_cr_doubly_robust_smoke():
    raw = make_cr_two_cause()
    cohort = sample_cohort(spec_of(raw), 6000, seed=41)
    series = decompose_cr(cohort, 0, 1, estimator="doubly_robust", seed=3)
    grid = series[0].grid
    truth = np.array([
        brute_po(raw, 1, 1, 1, t, kind="cif", cause=1)
        - brute_po(raw, 0, 0, 0, t, kind="cif", cause=1) for t in grid])
    tv1 = series[0].effect("tv")
    assert np.max(np.abs(tv1.estimate - truth)) <= 0.06
    assert tv1.se is not None and np.all(tv1.se > 0.0)
    assert series[0].estimator == "doubly_robust"
    # shared folds across the per-cause sweeps
    tv = [s.effect("tv").estimate for s in series]
    assert np.max(np.abs(tv[0] + tv[1] + tv[2])) <= 0.05


def test_cr_doubly_robust_fits_each_nuisance_once_per_fold_and_target(
        monkeypatch):
    cohort = sample_cohort(spec_of(make_cr_two_cause()), 3000, seed=45)
    fits = count_fits(monkeypatch)
    series = decompose_cr(cohort, 0, 1, estimator="doubly_robust",
                          grid=GRID, n_folds=2, seed=7)
    # per fold: one censoring model, one outcome model for each of the
    # three targets (cause 1, cause 2, any event), and both propensities
    assert fits == {"survival": 8, "propensity": 4}
    # sharing the fits changes nothing: each series equals one built from
    # its own plan on the same fold labels
    fold = assign_folds(cohort, 2, seed=7)
    for shared in series:
        alone = decompose_difference(
            crossfit_dr_many(FoldPlan(cohort, seed=7, fold_ids=fold),
                             queries_for(0, 1), shared.functional, grid=GRID),
            0, 1, functional=shared.functional, estimator="doubly_robust",
            grid=GRID)
        for name in EFFECT_NAMES:
            for field in ("estimate", "se", "lo", "hi"):
                assert np.array_equal(getattr(shared.effect(name), field),
                                      getattr(alone.effect(name), field))


def test_cr_cause_selection_and_validation():
    raw = make_cr_two_cause()
    cohort = sample_cohort(spec_of(raw), 2000, seed=43)
    only_two = decompose_cr(cohort, 0, 1, causes=[2])
    assert [s.functional.kind for s in only_two] == [
        "cif", "all_cause_survival"]
    assert only_two[0].functional.cause == 2
    with pytest.raises(DataError, match="at least two"):
        single = sample_cohort(spec_of(make_nic_balanced()), 500, seed=1)
        decompose_cr(single, 0, 1)
    with pytest.raises(DataError, match="outside"):
        decompose_cr(cohort, 0, 1, causes=[3])
    with pytest.raises(DataError, match="repeat"):
        decompose_cr(cohort, 0, 1, causes=[1, 1])
    with pytest.raises(DataError, match="at least one"):
        decompose_cr(cohort, 0, 1, causes=[])
    with pytest.raises(DataError, match="estimator"):
        decompose_cr(cohort, 0, 1, estimator="oracle")
    # one learner dict serves both estimators
    for estimator in ("plugin", "doubly_robust"):
        with pytest.raises(DataError, match="unknown learner"):
            decompose_cr(cohort, 0, 1, estimator=estimator,
                         learners={"outcome_learner": "bogus"})
        with pytest.raises(DataError, match="unknown propensity learner"):
            decompose_cr(cohort, 0, 1, estimator=estimator,
                         learners={"propensity_learner": "bogus"})


def test_unknown_learner_key_is_a_data_error_before_any_fit(monkeypatch):
    cohort = sample_cohort(spec_of(make_cr_two_cause()), 2000, seed=43)
    fits = count_fits(monkeypatch)
    misspelt = {"outcome_lerner": "logrank_tree_ensemble"}
    for estimator in ("plugin", "doubly_robust"):
        with pytest.raises(DataError, match="unknown learner keys"):
            decompose_cr(cohort, 0, 1, estimator=estimator,
                         learners=misspelt)
    with pytest.raises(DataError, match="unknown learner keys"):
        FoldPlan(cohort, learners=misspelt)
    assert fits == {"survival": 0, "propensity": 0}


def test_cr_plugin_reads_outcome_params():
    cohort = sample_cohort(spec_of(make_cr_two_cause()), 2000, seed=43)
    learners = {"outcome_learner": "logrank_tree_ensemble",
                "outcome_params": {"n_trees": 3},
                "propensity_learner": "logistic_irls"}
    series = decompose_cr(cohort, 0, 1, grid=GRID, learners=learners)
    # the same series by hand, from three-tree outcome models
    for shared in series:
        functional = shared.functional
        nuisances = replace(
            fit_plugin_nuisances(cohort, functional,
                                 propensity_learner="logistic_irls"),
            outcome=fit_conditional_survival(
                cohort, target=outcome_target(functional),
                learner="logrank_tree_ensemble", n_trees=3))
        po = {q: curve for q, (curve, _) in plugin_po_many(
            nuisances, cohort, queries_for(0, 1), functional, GRID).items()}
        alone = decompose_difference(po, 0, 1, functional=functional,
                                     estimator="plugin", grid=GRID)
        for name in EFFECT_NAMES:
            assert np.array_equal(shared.effect(name).estimate,
                                  alone.effect(name).estimate)


def test_cr_plugin_fits_each_propensity_once_and_one_outcome_per_series(
        monkeypatch):
    cohort = sample_cohort(spec_of(make_cr_two_cause()), 2000, seed=43)
    fits = count_fits(monkeypatch)
    series = decompose_cr(cohort, 0, 1, grid=GRID)
    # two propensities (zw, z) and an outcome model for each series:
    # cause 1, cause 2 and any event
    assert len(series) == 3
    assert fits == {"survival": 3, "propensity": 2}


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------

def test_csv_layout_difference_and_bands(dr_series):
    _, _, series = dr_series
    text = series.to_csv(header_comment="run 7")
    lines = text.strip().split("\n")
    assert lines[0] == "# run 7"
    assert lines[1] == "t,effect,estimate,se,lo,hi"
    assert len(lines) == 2 + 4 * GRID.size
    first = lines[2].split(",")
    assert first[0] == "1" and first[1] == "tv"
    assert all(cell != "" for cell in first)
    # effect-major blocks in declaration order
    labels = [line.split(",")[1] for line in lines[2:]]
    assert labels == [n for n in EFFECT_NAMES for _ in range(GRID.size)]


def test_csv_leaves_band_cells_empty_without_influence():
    po = brute_po_map(make_nic_balanced(), GRID)
    series = decompose_difference(po, 0, 1, grid=GRID)
    lines = series.to_csv().strip().split("\n")
    assert lines[0] == "t,effect,estimate,se,lo,hi"
    cells = lines[1].split(",")
    assert len(cells) == 6
    assert cells[3] == cells[4] == cells[5] == ""


def test_json_round_trip(dr_series):
    _, _, series = dr_series
    payload = json.loads(series.to_json())
    assert payload["scale"] == "difference"
    assert payload["estimator"] == "doubly_robust"
    assert payload["x0"] == 0 and payload["x1"] == 1
    assert payload["functional"]["kind"] == "survival"
    assert payload["grid"] == [float(t) for t in GRID]
    assert set(payload["effects"]) == set(EFFECT_NAMES)
    eff = payload["effects"]["tv"]
    assert_allclose(eff["estimate"], series.effect("tv").estimate)
    assert_allclose(eff["se"], series.effect("tv").se)

    plain = decompose_difference(
        brute_po_map(make_nic_balanced(), GRID), 0, 1, grid=GRID)
    payload = json.loads(plain.to_json())
    assert payload["effects"]["tv"]["se"] is None
    assert payload["estimator"] == "plugin"


# ---------------------------------------------------------------------------
# Identities on arbitrary inputs
# ---------------------------------------------------------------------------

@st.composite
def po_tables(draw, low, high):
    n_t = draw(st.integers(min_value=1, max_value=6))
    grid = np.arange(1.0, n_t + 1.0)
    values = {}
    for roles in ((0, 0, 0), (1, 0, 0), (1, 1, 0), (1, 1, 1),
                  (0, 1, 1), (0, 0, 1), (1, 1, 1), (0, 1, 0)):
        values[roles] = np.array(draw(st.lists(
            st.floats(min_value=low, max_value=high,
                      allow_nan=False, allow_infinity=False),
            min_size=n_t, max_size=n_t)))
    return grid, values


@settings(max_examples=40, deadline=None)
@given(po_tables(low=-4.0, high=4.0))
def test_difference_identity_property(table):
    grid, values = table
    series = decompose_difference(values, 0, 1, grid=grid)
    gap = (series.effect("tv").estimate - series.effect("direct").estimate
           + series.effect("indirect").estimate
           + series.effect("spurious").estimate)
    assert np.max(np.abs(gap)) <= 1e-12
    back = decompose_difference(values, 1, 0, grid=grid)
    assert np.array_equal(back.effect("tv").estimate,
                          -series.effect("tv").estimate)


@settings(max_examples=40, deadline=None)
@given(po_tables(low=0.05, high=4.0))
def test_ratio_identity_property(table):
    grid, values = table
    series = decompose_ratio(values, 0, 1, grid=grid)
    recomposed = (series.effect("direct").estimate
                  / (series.effect("indirect").estimate
                     * series.effect("spurious").estimate))
    assert np.max(np.abs(series.effect("tv").estimate - recomposed)) <= 1e-12
