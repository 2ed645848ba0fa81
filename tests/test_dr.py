"""Cross-fitted one-step estimator and its influence-function pieces."""

from dataclasses import replace
from fractions import Fraction as F

import numpy as np
import pytest
from numpy.testing import assert_allclose
from hypothesis import given, settings
from hypothesis import strategies as st

from fairsurv.curves import StepCurve, restricted_means, running_rmst
from fairsurv.dr import (
    COMPONENT_NAMES,
    DRNuisances,
    FoldPlan,
    assign_folds,
    crossfit_dr_many,
    evaluate_influence,
    fit_dr_nuisances,
)
from fairsurv.decompose import decompose_difference, decompose_ratio
from fairsurv.errors import (
    DataError,
    DegenerateGroupError,
    FoldAssignmentError,
)
from fairsurv.identify import cell_weights, fit_plugin_nuisances
from fairsurv.nuisance import PropensityModel
from fairsurv.queries import Functional, PotentialOutcomeQuery, \
    effect_contrasts, role_queries
from fairsurv.scm import Cohort, sample_cohort

from testkit import (
    ReferenceContributions,
    _by_cell,
    brute_po,
    component_gap,
    continuous_confounder_cohort,
    count_curves,
    count_fits,
    count_propensity_calls,
    count_predictions,
    crossfit_dr,
    dr_nuisances_from_spec,
    influence_cif,
    influence_survival,
    make_adversarial,
    make_cr_two_cause,
    make_nic_balanced,
    make_no_censoring,
    model_from_curves,
    propensity_from_spec,
    reference_crossfit,
    reference_influence,
    spec_of,
    survival_model_from_spec,
)

SURVIVAL = Functional("survival")


# ---------------------------------------------------------------------------
# Hand-evaluated four-row case (exact fractions)
# ---------------------------------------------------------------------------
#
# Four rows, one confounder level, two mediator levels, injected step
# curves with easy rational values.  The oracle below transliterates the
# three-term influence expression scalar-by-scalar with Fractions; the
# frozen literals at the bottom were produced by that oracle and agree
# with a pencil-and-paper pass.

HAND_S = {
    (1, 0, 0): [(F(3, 2), F(1, 2)), (F(3), F(2, 5))],
    (1, 0, 1): [(F(5, 2), F(3, 5))],
    (0, 0, 0): [(F(1), F(1, 2)), (F(4), F(1, 10))],
    (0, 0, 1): [(F(4), F(3, 10))],
}
HAND_G = {1: [(F(1), F(9, 10)), (F(2), F(3, 5))], 0: []}
HAND_P1_ZW = {(0, 0): F(5, 8), (0, 1): F(1, 2)}
HAND_P1_Z = {0: F(3, 5)}
HAND_MEDIATOR = {
    (0, 0): {0: F(1, 4), 1: F(3, 4)},
    (1, 0): {0: F(2, 3), 1: F(1, 3)},
}
HAND_ROWS = [
    dict(x=1, z=0, w=0, m=F(2), delta=0),
    dict(x=1, z=0, w=1, m=F(3), delta=1),
    dict(x=0, z=0, w=0, m=F(1), delta=1),
    dict(x=0, z=0, w=1, m=F(4), delta=1),
]
HAND_P_COND = F(1, 2)
HAND_QUERY = (1, 0, 0)


def _hand_eval(curve, t):
    v = F(1)
    for bp, val in curve:
        if bp <= t:
            v = val
    return v


def _hand_left(curve, t):
    v = F(1)
    for bp, val in curve:
        if bp < t:
            v = val
    return v


def _hand_group(table, key, x):
    p1 = table[key]
    return p1 if x == 1 else 1 - p1


def _hand_influence(row, t, psi):
    x_y, x_w, x_z = HAND_QUERY
    z, w = row["z"], row["w"]
    nu = sum(
        p * _hand_eval(HAND_S[(x_y, z, wv)], t)
        for wv, p in HAND_MEDIATOR[(x_w, z)].items()
    )
    total = F(0)
    if row["x"] == x_y:
        lam_zw = (_hand_group(HAND_P1_ZW, (z, w), x_y)
                  / _hand_group(HAND_P1_ZW, (z, w), x_w))
        lam_z = (_hand_group(HAND_P1_Z, z, x_z)
                 / _hand_group(HAND_P1_Z, z, x_w))
        w1 = lam_z / (HAND_P_COND * lam_zw)
        curve_s = HAND_S[(x_y, z, w)]
        curve_g = HAND_G[x_y]
        core = (F(1) / _hand_eval(curve_g, t)) if row["m"] > t else F(0)
        xi1 = F(0)
        if row["delta"] == 0 and row["m"] <= t:
            xi1 = _hand_eval(curve_s, t) / (
                _hand_eval(curve_s, row["m"]) * _hand_eval(curve_g, row["m"]))
        xi2 = F(0)
        prev = F(1)
        for u, val in curve_g:
            lam = 1 - val / prev
            prev = val
            if u <= min(row["m"], t):
                xi2 += lam / (_hand_left(curve_s, u) * _hand_eval(curve_g, u))
        xi2 *= _hand_eval(curve_s, t)
        total += w1 * (core + xi1 - xi2 - _hand_eval(curve_s, t))
    if row["x"] == x_w:
        w2 = _hand_group(HAND_P1_Z, z, x_z) / (
            HAND_P_COND * _hand_group(HAND_P1_Z, z, x_w))
        total += w2 * (_hand_eval(HAND_S[(x_y, z, w)], t) - nu)
    if row["x"] == x_z:
        total += (nu - psi) / HAND_P_COND
    return total


def _hand_bundle():
    def curve(atoms):
        return StepCurve([float(b) for b, _ in atoms],
                         [float(v) for _, v in atoms], 1.0, kind="survival")

    outcome = model_from_curves(
        {k: curve(v) for k, v in HAND_S.items()}, target="event")
    censoring = model_from_curves(
        {(x,): curve(v) for x, v in HAND_G.items()}, target="censoring")
    p_zw = PropensityModel(
        "frequency_table", "zw", 0.0, {"source": "hand"},
        table={k: float(v) for k, v in HAND_P1_ZW.items()}, marginal=0.5)
    p_z = PropensityModel(
        "frequency_table", "z", 0.0, {"source": "hand"},
        table={(k,): float(v) for k, v in HAND_P1_Z.items()}, marginal=0.5)
    mediator = {
        key: {w: float(p) for w, p in law.items()}
        for key, law in HAND_MEDIATOR.items()
    }
    return DRNuisances(
        outcome=outcome, censoring=censoring, propensity_zw=p_zw,
        propensity_z=p_z, mediator_table=mediator)


def _hand_cohort():
    return Cohort(
        x=[r["x"] for r in HAND_ROWS],
        z=[r["z"] for r in HAND_ROWS],
        w=[r["w"] for r in HAND_ROWS],
        m=[float(r["m"]) for r in HAND_ROWS],
        delta=[r["delta"] for r in HAND_ROWS],
    )


def test_hand_case_matches_fraction_oracle():
    bundle = _hand_bundle()
    psi = 0.3
    ev = evaluate_influence(
        _hand_cohort(), bundle, HAND_QUERY, SURVIVAL, [1.75, 3.5],
        psi=psi, p_condition=0.5)
    oracle = np.array([
        [float(_hand_influence(row, F(t), F(3, 10))) for t in (F(7, 4), F(7, 2))]
        for row in HAND_ROWS
    ])
    assert np.max(np.abs(ev.values - oracle)) <= 1e-12
    # frozen output of the fraction oracle
    assert np.allclose(
        oracle,
        np.array([
            [2.0 / 3.0, 8.0 / 15.0],
            [0.0, -2.0],
            [2.0 / 5.0, 1.0 / 5.0],
            [7.0 / 5.0, 3.0 / 5.0],
        ]),
        atol=1e-15,
    )


def test_hand_case_row_level_op_agrees():
    bundle = _hand_bundle()
    for i, row in enumerate(HAND_ROWS):
        plain = {k: (float(v) if k == "m" else v) for k, v in row.items()}
        got = influence_survival(
            plain, bundle, HAND_QUERY, 3.5, psi=0.3, p_condition=0.5)
        want = float(_hand_influence(row, F(7, 2), F(3, 10)))
        assert got == pytest.approx(want, abs=1e-12)


def test_row_outside_every_arm_contributes_nothing():
    # X=0 row against the (1,1,1) query: every indicator vanishes, so the
    # value is exactly zero whatever the centering constant.
    bundle = _hand_bundle()
    row = dict(x=0, z=0, w=0, m=2.0, delta=1)
    assert influence_survival(
        row, bundle, (1, 1, 1), 2.5, psi=0.37, p_condition=0.75) == 0.0


def test_uncensored_row_before_first_event_reduces_to_core_form():
    # No censoring atoms, t before the first event of the row's stratum:
    # the bracket is (1 - S(t|.)) and the weight is the lambda ratio over
    # P(x_z); centering terms follow the plain formulas.
    curve = StepCurve([0.5, 2.0], [0.7, 0.25], 1.0, kind="survival")
    outcome = model_from_curves({(): curve}, "event")
    censoring = model_from_curves(
        {(): StepCurve([], [], 1.0, kind="survival")}, "censoring")
    p_zw = PropensityModel("frequency_table", "zw", 0.0, {},
                           table={(0, 0): 0.6}, marginal=0.6)
    p_z = PropensityModel("frequency_table", "z", 0.0, {},
                          table={(0,): 0.6}, marginal=0.6)
    bundle = DRNuisances(
        outcome=outcome, censoring=censoring, propensity_zw=p_zw,
        propensity_z=p_z, mediator_table={(1, 0): {0: 1.0}})
    row = dict(x=1, z=0, w=0, m=2.0, delta=1)
    cohort = Cohort(x=[1], z=[0], w=[0], m=[2.0], delta=[1])
    ev = evaluate_influence(
        cohort, bundle, (1, 1, 1), SURVIVAL, [1.0], psi=0.0,
        p_condition=0.6)
    s_t = 0.7  # t=1.0 sits before the row's event at 2.0, after one atom
    assert ev.components["ipcw_core"][0, 0] == pytest.approx(
        (1.0 - s_t) / 0.6, abs=1e-14)
    assert ev.components["xi_one"][0, 0] == 0.0
    assert ev.components["xi_two"][0, 0] == 0.0
    assert ev.components["mediator_centering"][0, 0] == pytest.approx(
        (s_t - s_t) / 0.6, abs=1e-14)
    assert ev.components["conditioning_centering"][0, 0] == pytest.approx(
        s_t / 0.6, abs=1e-14)
    assert ev.values[0, 0] == pytest.approx(1.0 / 0.6, abs=1e-12)


def test_cif_core_with_no_cause_events_is_minus_model_cif():
    cif = StepCurve([1.0], [0.3], 0.0, kind="cif")
    outcome = model_from_curves(
        {(): cif}, target=2, n_causes=2)
    censoring = model_from_curves(
        {(): StepCurve([], [], 1.0, kind="survival")}, "censoring",
        n_causes=2)
    half_zw = PropensityModel("frequency_table", "zw", 0.0, {},
                              table={(0, 0): 0.5}, marginal=0.5)
    half_z = PropensityModel("frequency_table", "z", 0.0, {},
                             table={(0,): 0.5}, marginal=0.5)
    bundle = DRNuisances(
        outcome=outcome, censoring=censoring, propensity_zw=half_zw,
        propensity_z=half_z, mediator_table={(1, 0): {0: 1.0}})
    cohort = Cohort(x=[1], z=[0], w=[0], m=[2.0], delta=[1], n_causes=2)
    ev = evaluate_influence(
        cohort, bundle, (1, 1, 1), Functional("cif", cause=2), [1.5],
        psi=0.0, p_condition=0.5)
    assert ev.components["ipcw_core"][0, 0] == pytest.approx(-0.6, abs=1e-12)
    assert np.all(ev.components["xi_one"] == 0.0)
    assert np.all(ev.components["xi_two"] == 0.0)


def test_influence_cif_row_op_runs():
    bundle = _hand_bundle()
    # survival bundle refuses a cif query: the outcome model is on the
    # wrong scale, which should surface as an estimation error.
    from fairsurv.errors import EstimationError

    row = dict(x=1, z=0, w=0, m=2.0, delta=0)
    with pytest.raises(EstimationError):
        influence_cif(row, bundle, HAND_QUERY, 1, 2.5, p_condition=0.5)


# ---------------------------------------------------------------------------
# Component structure
# ---------------------------------------------------------------------------

def _nic_setup(n, seed):
    raw = make_nic_balanced()
    spec = spec_of(raw)
    return raw, spec, sample_cohort(spec, n, seed=seed)


def test_components_sum_to_values():
    _, spec, cohort = _nic_setup(2500, 17)
    bundle = fit_dr_nuisances(cohort, SURVIVAL)
    ev = evaluate_influence(
        cohort, bundle, (1, 0, 0), SURVIVAL, [1.0, 2.0, 3.0], psi=0.4)
    assert set(ev.components) == set(COMPONENT_NAMES)
    assert component_gap(ev) <= 1e-10
    assert np.all(np.isfinite(ev.values))


def test_single_row_ops_match_vectorized_matrix():
    _, spec, cohort = _nic_setup(400, 19)
    bundle = dr_nuisances_from_spec(spec, SURVIVAL)
    grid = [2.0, 3.0]
    ev = evaluate_influence(
        cohort, bundle, (1, 0, 0), SURVIVAL, grid, psi=0.2,
        p_condition=0.45)
    for i in (0, 7, 131, 399):
        row = dict(x=int(cohort.x[i]), z=cohort.z_items[i],
                   w=cohort.w_items[i], m=float(cohort.m[i]),
                   delta=int(cohort.delta[i]))
        for j, t in enumerate(grid):
            got = influence_survival(
                row, bundle, (1, 0, 0), t, psi=0.2, p_condition=0.45)
            assert got == pytest.approx(float(ev.values[i, j]), abs=1e-12)


# ---------------------------------------------------------------------------
# Mean-zero at the true nuisances
# ---------------------------------------------------------------------------

def test_mean_zero_at_true_nuisances_survival():
    raw, spec, cohort = _nic_setup(20000, 101)
    bundle = dr_nuisances_from_spec(spec, SURVIVAL)
    grid = [1.0, 2.0, 3.0, 4.0]
    for query in ((1, 0, 0), (0, 1, 1)):
        x_z = query[2]
        psi = np.array([brute_po(raw, *query, t) for t in grid])
        ev = evaluate_influence(
            cohort, bundle, query, SURVIVAL, grid, psi=psi,
            p_condition=spec.group_probability(x_z))
        mean = ev.values.mean(axis=0)
        se = ev.values.std(axis=0, ddof=1) / np.sqrt(cohort.n)
        assert np.all(np.abs(mean) <= 3.0 * se)


def test_mean_zero_at_true_nuisances_cif():
    raw = make_cr_two_cause()
    spec = spec_of(raw)
    cohort = sample_cohort(spec, 20000, seed=103)
    functional = Functional("cif", cause=2)
    bundle = dr_nuisances_from_spec(spec, functional)
    grid = [1.0, 2.0, 3.0]
    psi = np.array([
        brute_po(raw, 1, 0, 0, t, kind="cif", cause=2) for t in grid])
    ev = evaluate_influence(
        cohort, bundle, (1, 0, 0), functional, grid, psi=psi,
        p_condition=spec.group_probability(0))
    mean = ev.values.mean(axis=0)
    se = ev.values.std(axis=0, ddof=1) / np.sqrt(cohort.n)
    assert np.all(np.abs(mean) <= 3.0 * se)


def test_censoring_martingale_terms_balance():
    # With a correctly specified censoring model the xi_1 and xi_2
    # components cancel on average.
    _, spec, cohort = _nic_setup(20000, 107)
    bundle = dr_nuisances_from_spec(spec, SURVIVAL)
    ev = evaluate_influence(
        cohort, bundle, (1, 0, 0), SURVIVAL, [2.0, 4.0], psi=0.0,
        p_condition=spec.group_probability(0))
    xi = ev.components["xi_one"] + ev.components["xi_two"]
    mean = xi.mean(axis=0)
    se = xi.std(axis=0, ddof=1) / np.sqrt(cohort.n)
    assert np.any(ev.components["xi_one"] != 0.0)
    assert np.all(np.abs(mean) <= 3.0 * se)


# ---------------------------------------------------------------------------
# Exact identities of the cross-fitted estimator
# ---------------------------------------------------------------------------

def test_saturated_no_censoring_equals_group_survival():
    spec = spec_of(make_no_censoring())
    cohort = sample_cohort(spec, 4000, seed=5)
    assert np.all(cohort.delta == 1)
    grid = np.array([1.0, 2.0, 3.0, 4.0])
    est = crossfit_dr(FoldPlan(cohort, seed=5), (1, 1, 1), SURVIVAL,
                      grid=grid)
    sel = cohort.x == 1
    empirical = np.array([(cohort.m[sel] > t).mean() for t in grid])
    assert np.max(np.abs(est.estimate - empirical)) <= 1e-6


def test_cif_complement_identity_without_censoring():
    spec = spec_of(make_no_censoring())
    cohort = sample_cohort(spec, 3000, seed=7)
    grid = np.array([1.0, 2.0, 3.0, 4.0])
    surv = crossfit_dr(FoldPlan(cohort, seed=11), (1, 0, 0), SURVIVAL,
                       grid=grid)
    cif = crossfit_dr(FoldPlan(cohort, seed=11), (1, 0, 0),
                      Functional("cif", cause=1), grid=grid)
    assert np.max(np.abs(cif.estimate - (1.0 - surv.estimate))) <= 1e-8


def test_row_permutation_with_fixed_folds_is_invariant():
    _, spec, cohort = _nic_setup(900, 23)
    fold = assign_folds(cohort, 2, seed=3)
    base_plan = FoldPlan(cohort, fold_ids=fold)
    base = crossfit_dr(base_plan, (1, 0, 0), SURVIVAL, grid=[1.0, 2.0, 3.0])
    rng = np.random.default_rng(9)
    perm = rng.permutation(cohort.n)
    shuffled_plan = FoldPlan(cohort.subset(perm), fold_ids=fold[perm])
    shuffled = crossfit_dr(shuffled_plan, (1, 0, 0), SURVIVAL,
                           grid=[1.0, 2.0, 3.0])
    assert np.max(np.abs(base.estimate - shuffled.estimate)) <= 1e-10
    base_if, shuffled_if = (
        reference_crossfit(plan, [(1, 0, 0)], SURVIVAL, [1.0, 2.0, 3.0])[
            PotentialOutcomeQuery(1, 0, 0)].if_matrix
        for plan in (base_plan, shuffled_plan))
    assert np.max(np.abs(base_if[perm] - shuffled_if)) <= 1e-10


# ---------------------------------------------------------------------------
# Double robustness
# ---------------------------------------------------------------------------

def _constant_hazard_curve(grid, hazard):
    vals = np.cumprod(np.full(len(grid), 1.0 - hazard))
    return StepCurve(grid, vals, 1.0, kind="survival")


def _wrong_outcome():
    return model_from_curves(
        {(): _constant_hazard_curve([1.0, 2.0, 3.0, 4.0], 0.18)}, "event")


def _wrong_censoring():
    return model_from_curves(
        {(): _constant_hazard_curve([0.5, 1.5, 2.5, 3.5], 0.10)},
        "censoring")


def _ignore_censoring():
    return model_from_curves(
        {(): StepCurve([], [], 1.0, kind="survival")}, "censoring")


def _bundle_with(spec, outcome=None, censoring=None):
    return DRNuisances(
        outcome=outcome or survival_model_from_spec(spec, "event"),
        censoring=censoring or survival_model_from_spec(spec, "censoring"),
        propensity_zw=propensity_from_spec(spec, "zw"),
        propensity_z=propensity_from_spec(spec, "z"),
        mediator_table=dict(spec.p_w_given_xz),
    )


def _fixed_bundle_sup_error(raw, bundle, n, seed, query=(1, 0, 0)):
    spec = spec_of(raw)
    cohort = sample_cohort(spec, n, seed=seed)
    grid = [1.0, 2.0, 3.0, 4.0]
    est = crossfit_dr(FoldPlan(cohort, nuisances=bundle), query, SURVIVAL,
                      grid=grid)
    oracle = np.array([brute_po(raw, *query, t) for t in grid])
    return float(np.max(np.abs(est.estimate - oracle)))


def test_case1_correct_censoring_survives_wrong_outcome():
    raw = make_nic_balanced()
    spec = spec_of(raw)
    bundle = _bundle_with(spec, outcome=_wrong_outcome())
    assert _fixed_bundle_sup_error(raw, bundle, 100000, 211) <= 0.02


def test_case2_correct_outcome_survives_wrong_censoring():
    raw = make_nic_balanced()
    spec = spec_of(raw)
    bundle = _bundle_with(spec, censoring=_wrong_censoring())
    assert _fixed_bundle_sup_error(raw, bundle, 100000, 223) <= 0.02


def test_both_nuisances_wrong_is_visibly_biased():
    raw = make_adversarial()
    spec = spec_of(raw)
    bundle = _bundle_with(
        spec, outcome=_wrong_outcome(), censoring=_ignore_censoring())
    assert _fixed_bundle_sup_error(raw, bundle, 100000, 227) > 0.05


def test_crossfit_recovers_oracle_when_fitted():
    raw, spec, cohort = _nic_setup(20000, 301)
    grid = [1.0, 2.0, 3.0, 4.0]
    est = crossfit_dr(FoldPlan(cohort, seed=301), (1, 0, 0), SURVIVAL,
                      grid=grid)
    oracle = np.array([brute_po(raw, 1, 0, 0, t) for t in grid])
    assert float(np.max(np.abs(est.estimate - oracle))) <= 0.03


def test_crossfit_with_tree_learner_plumbs_through():
    raw, spec, cohort = _nic_setup(1500, 307)
    plan = FoldPlan(cohort, seed=307, learners={
        "outcome_learner": "logrank_tree_ensemble",
        "outcome_params": {"n_trees": 8},
    })
    est = crossfit_dr(plan, (1, 0, 0), SURVIVAL, grid=[2.0])
    oracle = brute_po(raw, 1, 0, 0, 2.0)
    assert abs(float(est.estimate[0]) - oracle) <= 0.15


# ---------------------------------------------------------------------------
# Cross-fitting mechanics
# ---------------------------------------------------------------------------

def test_assign_folds_stratifies_both_axes():
    _, spec, cohort = _nic_setup(1200, 29)
    fold = assign_folds(cohort, 3, seed=0)
    for f in range(3):
        sel = fold == f
        assert set(np.unique(cohort.x[sel])) == {0, 1}
        assert 396 <= sel.sum() <= 404  # four cells, each off by at most 1
    # cells are split as evenly as the counts allow
    for xv in (0, 1):
        for ev in (False, True):
            cell = (cohort.x == xv) & ((cohort.delta > 0) == ev)
            sizes = [int(np.sum(cell & (fold == f))) for f in range(3)]
            assert max(sizes) - min(sizes) <= 1


def test_fold_validation_errors(monkeypatch):
    _, spec, cohort = _nic_setup(300, 31)
    fits = count_fits(monkeypatch)
    with pytest.raises(DataError):
        crossfit_dr(FoldPlan(cohort, n_folds=1), (1, 1, 1), SURVIVAL,
                    grid=[2.0])
    with pytest.raises(DataError):
        assign_folds(cohort, cohort.n + 1)
    bad = np.where(cohort.x == 1, 0, 1)
    with pytest.raises(FoldAssignmentError):
        crossfit_dr(FoldPlan(cohort, fold_ids=bad), (1, 1, 1), SURVIVAL,
                    grid=[2.0])
    single = cohort.subset(cohort.x == 1)
    with pytest.raises(FoldAssignmentError):
        crossfit_dr(FoldPlan(single), (1, 1, 1), SURVIVAL, grid=[2.0])
    with pytest.raises(DegenerateGroupError):
        crossfit_dr(FoldPlan(single, fold_ids=None, nuisances=_hand_bundle()),
                    (1, 1, 0), SURVIVAL, grid=[2.0])
    # labels must be whole numbers in 0..k-1, checked before any fit
    fold = assign_folds(cohort, 3, seed=0)
    with pytest.raises(DataError, match="whole numbers"):
        crossfit_dr(FoldPlan(cohort, fold_ids=fold + 0.7), (1, 1, 1),
                    SURVIVAL, grid=[2.0])
    with pytest.raises(DataError, match=r"0\.\.k-1"):
        crossfit_dr(FoldPlan(cohort, fold_ids=np.where(fold == 0, -1, fold)),
                    (1, 1, 1), SURVIVAL, grid=[2.0])
    assert fits == {"survival": 0, "propensity": 0}


def test_centered_influence_has_zero_mean_and_matching_se():
    _, spec, cohort = _nic_setup(2000, 37)
    plan = FoldPlan(cohort, seed=37)
    est = crossfit_dr(plan, (1, 0, 0), SURVIVAL, grid=[1.0, 3.0])
    if_matrix = reference_crossfit(plan, [(1, 0, 0)], SURVIVAL, [1.0, 3.0])[
        PotentialOutcomeQuery(1, 0, 0)].if_matrix
    col_means = if_matrix.mean(axis=0)
    assert np.max(np.abs(col_means)) <= 1e-12
    manual_se = if_matrix.std(axis=0, ddof=1) / np.sqrt(cohort.n)
    assert np.allclose(est.se, manual_se, atol=0.0)
    assert np.all(est.se >= 0.0)
    assert np.all(est.lo <= est.estimate + 1e-15)
    assert np.all(est.estimate <= est.hi + 1e-15)


def test_shared_nuisance_multi_query_call():
    _, spec, cohort = _nic_setup(2000, 41)
    queries = [PotentialOutcomeQuery(1, 0, 0), PotentialOutcomeQuery(0, 0, 0)]
    results = crossfit_dr_many(
        FoldPlan(cohort, seed=41), queries, SURVIVAL, grid=[2.0, 3.0])
    assert set(results) == set(queries)
    solo = crossfit_dr(FoldPlan(cohort, seed=41), queries[0], SURVIVAL,
                       grid=[2.0, 3.0])
    assert np.allclose(
        results[queries[0]].estimate, solo.estimate, atol=1e-12)
    assert np.array_equal(results[queries[0]].fold_ids,
                          results[queries[1]].fold_ids)


# ---------------------------------------------------------------------------
# Restricted-mean transport
# ---------------------------------------------------------------------------

def test_rmst_is_exact_step_integral_of_survival_estimate():
    _, spec, cohort = _nic_setup(1500, 43)
    grid = np.array([1.0, 2.0, 3.0, 4.0])
    plan = FoldPlan(cohort, seed=43)
    surv = crossfit_dr(plan, (1, 0, 0), SURVIVAL, grid=grid)
    rmst = crossfit_dr(plan, (1, 0, 0), Functional("rmst"), grid=grid)
    surv_if, rmst_if = (
        reference_crossfit(plan, [(1, 0, 0)], functional, grid)[
            PotentialOutcomeQuery(1, 0, 0)].if_matrix
        for functional in (SURVIVAL, Functional("rmst")))
    s = surv.estimate
    manual = np.array([
        1.0,
        1.0 + s[0],
        1.0 + s[0] + s[1],
        1.0 + s[0] + s[1] + s[2],
    ])
    assert np.max(np.abs(rmst.estimate - manual)) <= 1e-12
    widths = np.diff(grid)
    manual_if = np.zeros_like(surv_if)
    for j in range(1, grid.size):
        manual_if[:, j] = surv_if[:, :j] @ widths[:j]
    assert np.max(np.abs(rmst_if - manual_if)) <= 1e-12


def _rmst_weights_loop(grid, horizon):
    """The rmst map as an entry-by-entry grid x grid weight matrix, kept
    verbatim as the oracle of the rmst map of a doubly robust estimate:
    `restricted_means` of the step curve that equals one before the
    first grid time, and `running_rmst` for its influence values."""
    n_t = grid.size
    shift = np.zeros(n_t)
    weights = np.zeros((n_t, n_t))
    cap = float("inf") if horizon is None else float(horizon)
    for j in range(n_t):
        t_eff = min(float(grid[j]), cap)
        shift[j] = min(t_eff, float(grid[0]))
        for l in range(j):
            left = float(grid[l])
            right = min(float(grid[l + 1]), t_eff) if l + 1 < n_t else t_eff
            right = min(right, t_eff)
            if right > left:
                weights[j, l] = right - left
    return shift, weights


def test_rmst_weights_equal_the_loop_oracle_exactly():
    rng = np.random.default_rng(17)
    for _ in range(300):
        size = int(rng.integers(1, 40))
        grid = np.unique(np.round(rng.exponential(2.0, size), 3) + 1e-3)
        inside = float(rng.uniform(grid[0] / 2, grid[-1] * 1.2))
        for horizon in (None, inside, float(rng.choice(grid))):
            want_shift, want_weights = _rmst_weights_loop(grid, horizon)
            # the running sum maps each unit curve to its weight column
            assert np.array_equal(
                running_rmst(grid, np.eye(grid.size), horizon).T,
                want_weights)
            for l, unit in enumerate(np.eye(grid.size)):
                estimate = StepCurve(grid, unit, 1.0, "generic")
                assert np.array_equal(
                    restricted_means(estimate, grid, horizon),
                    want_shift + want_weights[:, l])


def test_rmst_horizon_caps_integration():
    _, spec, cohort = _nic_setup(1500, 47)
    grid = np.array([1.0, 2.0, 3.0, 4.0])
    surv = crossfit_dr(FoldPlan(cohort, seed=47), (1, 0, 0), SURVIVAL,
                       grid=grid)
    capped = crossfit_dr(FoldPlan(cohort, seed=47), (1, 0, 0),
                         Functional("rmst", horizon=2.5), grid=grid)
    s = surv.estimate
    expect_at_4 = 1.0 + s[0] + 0.5 * s[1]
    assert capped.estimate[-1] == pytest.approx(expect_at_4, abs=1e-12)
    assert capped.estimate[-1] == pytest.approx(
        capped.estimate[2], abs=1e-12)


def test_cumulative_hazard_not_offered():
    _, spec, cohort = _nic_setup(300, 53)
    with pytest.raises(DataError):
        crossfit_dr(FoldPlan(cohort), (1, 0, 0),
                    Functional("cumulative_hazard"), grid=[2.0])


# ---------------------------------------------------------------------------
# Streamed cross-fitting against the per-row oracle
# ---------------------------------------------------------------------------
#
# `crossfit_dr_many` evaluates rows in blocks and keeps running sums and
# per-group moments; `testkit.reference_crossfit` builds the full rows x
# grid influence matrices.  Estimates must agree bit for bit, standard
# errors (of queries and of contrasts) to rounding, diagnostics exactly.

def _with_unpaired_confounder(cohort, n_extra, seed):
    """The cohort plus `n_extra` rows of group 0 at a confounder value (2)
    that group 1 never shows, shuffled in: queries whose mediator arm is
    group 1 fall back to the pooled mediator average there, and their
    weights hit the propensity floor."""
    rng = np.random.default_rng(seed)
    x = np.concatenate([cohort.x, np.zeros(n_extra, dtype=int)])
    z = list(cohort.z_items) + [2] * n_extra
    w = list(cohort.w_items) + rng.integers(0, 2, n_extra).tolist()
    m = np.concatenate([cohort.m, rng.choice([1.0, 2.0, 3.0], n_extra)])
    delta = np.concatenate([cohort.delta, rng.integers(0, 2, n_extra)])
    grown = Cohort(x, z, w, m, delta)
    return grown.subset(rng.permutation(grown.n))


def _oracle_effects(reference, n, scale):
    def difference(pos, neg):
        return pos[0] - neg[0], pos[1] - neg[1]

    def ratio(pos, neg):
        r = pos[0] / neg[0]
        return r, (pos[1] - r[None, :] * neg[1]) / neg[0][None, :]

    curves = {q: (ref.estimate, ref.if_matrix) for q, ref in reference.items()}
    contrast = ratio if scale == "ratio" else difference
    return {name: (estimate, if_eff.std(axis=0, ddof=1) / np.sqrt(n))
            for name, (estimate, if_eff) in effect_contrasts(
                curves, 0, 1, contrast).items()}


def _streamed_case(name):
    _, spec, cohort = _nic_setup(1500, 71)
    grid = [1.0, 2.0, 3.0, 4.0]
    if name == "survival":
        return FoldPlan(cohort, seed=3), SURVIVAL, grid
    if name == "one_point_grid":
        return FoldPlan(cohort, seed=3), SURVIVAL, [2.5]
    if name == "cap_trimmed":
        return FoldPlan(cohort, seed=3, cap=1.2), SURVIVAL, grid
    if name == "rmst":
        return FoldPlan(cohort, seed=3), Functional("rmst"), grid
    if name == "rmst_horizon":
        return (FoldPlan(cohort, seed=3), Functional("rmst", horizon=2.5),
                grid)
    if name == "mediator_fallback":
        return (FoldPlan(_with_unpaired_confounder(cohort, 60, 5), seed=3),
                SURVIVAL, grid)
    if name == "fixed_nuisances":
        return (FoldPlan(cohort, nuisances=dr_nuisances_from_spec(
            spec, SURVIVAL)), SURVIVAL, grid)
    if name == "distinct_rows":  # continuous times: no row class repeats
        return (FoldPlan(Cohort(cohort.x, cohort.z_items, cohort.w_items,
                                cohort.m + np.random.default_rng(6).uniform(
                                    0.0, 1e-3, cohort.n), cohort.delta),
                         seed=3), SURVIVAL, grid)
    cr = sample_cohort(spec_of(make_cr_two_cause()), 1500, seed=73)
    if name == "cif":
        return FoldPlan(cr, seed=3), Functional("cif", cause=2), [1.0, 2.0,
                                                                  3.0]
    assert name == "all_cause_survival"
    return FoldPlan(cr, seed=3), Functional("all_cause_survival"), [1.0, 2.0,
                                                                    3.0]


STREAMED_CASES = ["survival", "one_point_grid", "cap_trimmed", "rmst",
                  "rmst_horizon", "mediator_fallback", "fixed_nuisances",
                  "distinct_rows", "cif", "all_cause_survival"]


@pytest.mark.parametrize("rows_per_block, rows_per_chunk",
                         [(None, None), (37, None), (None, 5), (37, 5)],
                         ids=["None", "37", "None-5", "37-5"])
@pytest.mark.parametrize("case", STREAMED_CASES)
def test_streamed_crossfit_matches_the_per_row_oracle(monkeypatch, case,
                                                     rows_per_block,
                                                     rows_per_chunk):
    # row blocks, and gathered chunks of rows, carry the running sums
    import fairsurv.dr

    plan, functional, grid = _streamed_case(case)
    queries = role_queries(0, 1)
    if rows_per_block is not None:
        monkeypatch.setattr(fairsurv.dr, "_BLOCK_ELEMENTS",
                            rows_per_block * len(grid) * len(queries))
    if rows_per_chunk is not None:
        monkeypatch.setattr(fairsurv.dr, "_PIECE_ELEMENTS",
                            rows_per_chunk * len(grid) * len(queries))
    streamed = crossfit_dr_many(plan, queries, functional, grid)
    reference = reference_crossfit(plan, queries, functional, grid)
    for q in queries:
        got, want = streamed[q], reference[q]
        assert np.array_equal(got.estimate, want.estimate)
        assert_allclose(got.se, want.se, rtol=0.0, atol=1e-14)
        assert got.diagnostics["n_flagged"] == want.n_flagged
        assert got.diagnostics["n_mediator_fallback"] \
            == want.n_mediator_fallback
    scales = ["difference"]
    if all(np.all(reference[q].estimate > 0.0) for q in queries):
        scales.append("ratio")
    for scale in scales:
        decompose = decompose_ratio if scale == "ratio" \
            else decompose_difference
        series = decompose(streamed, 0, 1)
        for name, (estimate, se) in _oracle_effects(
                reference, plan.cohort.n, scale).items():
            assert np.array_equal(series.effect(name).estimate, estimate)
            assert_allclose(series.effect(name).se, se, rtol=0.0, atol=1e-14)


@pytest.mark.parametrize("epsilon", [0.0, 0.5, float("nan")])
def test_a_clip_bound_outside_zero_to_half_fails_before_any_fit(monkeypatch,
                                                               epsilon):
    _, _, cohort = _nic_setup(300, 5)
    fits = count_fits(monkeypatch)
    with pytest.raises(DataError, match="clip bound must lie strictly"):
        crossfit_dr_many(FoldPlan(cohort, epsilon=epsilon),
                         role_queries(0, 1), SURVIVAL, [1.0, 2.0])
    assert fits == {"survival": 0, "propensity": 0}


def test_streamed_cases_exercise_their_safeguards():
    queries = role_queries(0, 1)
    for case, key in (("cap_trimmed", "n_flagged"),
                      ("mediator_fallback", "n_mediator_fallback")):
        plan, functional, grid = _streamed_case(case)
        found = crossfit_dr_many(plan, queries, functional, grid)
        assert sum(found[q].diagnostics[key] for q in queries) > 0
    # a confounder value with no group-1 rows falls back once per fold
    # that holds it, however many row blocks it spans
    plan, functional, grid = _streamed_case("mediator_fallback")
    found = crossfit_dr_many(plan, queries, functional, grid)
    assert found[PotentialOutcomeQuery(1, 1, 0)].diagnostics[
        "n_mediator_fallback"] == 2


def test_row_stream_holds_its_slots_and_one_chunk_not_every_row(
        monkeypatch):
    # one row block of all 1,500 rows, a few hundred (fold, row class)
    # slots on a 40-point grid, and chunks of 3 rows: a copy of every
    # row's values would alone take rows x queries x grid floats
    import tracemalloc

    import fairsurv.dr

    plan, functional, _ = _streamed_case("survival")
    grid = np.linspace(0.1, 4.0, 40)
    queries = role_queries(0, 1)
    n, width = plan.cohort.n, grid.size * len(queries)
    monkeypatch.setattr(fairsurv.dr, "_BLOCK_ELEMENTS", n * width)
    monkeypatch.setattr(fairsurv.dr, "_PIECE_ELEMENTS", 3 * width)
    stream, peaks = fairsurv.dr._stream_rows, []

    def traced(*args):
        tracemalloc.start()
        try:
            return stream(*args)
        finally:
            peaks.append(tracemalloc.get_traced_memory()[1])
            tracemalloc.stop()

    monkeypatch.setattr(fairsurv.dr, "_stream_rows", traced)
    crossfit_dr_many(plan, queries, functional, grid)
    classes = plan.cohort.cells("xzwdm")[0]
    assert len(set(zip(plan.fold_ids.tolist(), classes.tolist()))) < n // 4
    assert len(peaks) == 1 and peaks[0] < n * width * 8 / 4


def test_row_blocks_leave_estimates_unchanged(monkeypatch):
    import fairsurv.dr

    plan, functional, grid = _streamed_case("survival")
    queries = role_queries(0, 1)
    whole = crossfit_dr_many(plan, queries, functional, grid)
    for rows_per_block in (1, 7, 700):
        monkeypatch.setattr(fairsurv.dr, "_BLOCK_ELEMENTS",
                            rows_per_block * len(grid) * len(queries))
        blocked = crossfit_dr_many(plan, queries, functional, grid)
        for q in queries:
            assert np.array_equal(blocked[q].estimate, whole[q].estimate)
            assert_allclose(blocked[q].se, whole[q].se, rtol=0.0, atol=1e-15)


@pytest.mark.parametrize("rows_per_block", [None, 500])
def test_moments_take_one_entry_per_fold_and_row_class(monkeypatch,
                                                       rows_per_block):
    # discrete times repeat every (fold, row class) many times in a row
    # block; the moments see each of the block's pairs once, not its rows
    import fairsurv.dr

    plan, functional, grid = _streamed_case("survival")
    queries = role_queries(0, 1)
    step = plan.cohort.n if rows_per_block is None else rows_per_block
    monkeypatch.setattr(fairsurv.dr, "_BLOCK_ELEMENTS",
                        step * len(grid) * len(queries))
    moments, seen = fairsurv.dr._moments, []

    def spy(values, *args):
        seen.append(values.shape[1])
        return moments(values, *args)

    monkeypatch.setattr(fairsurv.dr, "_moments", spy)
    crossfit_dr_many(plan, queries, functional, grid)
    classes = plan.cohort.cells("xzwdm")[0]
    pairs = [len(set(zip(plan.fold_ids[lo:lo + step].tolist(),
                         classes[lo:lo + step].tolist())))
             for lo in range(0, plan.cohort.n, step)]
    assert len(seen) == 2 * len(pairs)  # each block holds both groups
    assert all(a + b <= n for a, b, n in zip(seen[::2], seen[1::2], pairs))
    assert max(pairs) < step // 2


def test_queries_of_one_call_share_every_prediction(monkeypatch):
    # four role queries, tree learners and a continuous confounder in one
    # row block: each model predicts each covariate triple exactly once
    cohort = continuous_confounder_cohort(400, 13)
    plan = FoldPlan(cohort, seed=5, learners={
        "outcome_learner": "logrank_tree_ensemble",
        "censoring_learner": "logrank_tree_ensemble",
        "propensity_learner": "logistic_irls",
        "outcome_params": {"n_trees": 4},
        "censoring_params": {"n_trees": 4}})
    queries = role_queries(0, 1)
    calls = count_predictions(monkeypatch)
    crossfit_dr_many(plan, queries, SURVIVAL, [1.0, 2.0, 4.0, 6.0])
    # per row: the outcome curves of both groups and the censoring curve
    # of its own group; per (outcome, mediator) group pair, the pooled
    # nu(z) over the mediator group's rows of the other fold
    pairs = {(q.x_outcome, q.x_mediator) for q in queries}
    pooled = sum(int(np.sum(cohort.x == x_w)) for _, x_w in pairs)
    assert len(pairs) == 3
    assert len(calls) == 3 * cohort.n + pooled
    assert max(calls.values()) == 1


def test_each_propensity_model_predicts_once_per_row_block(monkeypatch):
    # one call per row block and fold predicts every (z, w) cell of the
    # block's rows of that fold, both groups at once
    import fairsurv.dr

    plan, functional, grid = _streamed_case("survival")
    queries = role_queries(0, 1)
    rows_per_block = 100
    monkeypatch.setattr(fairsurv.dr, "_BLOCK_ELEMENTS",
                        rows_per_block * len(grid) * len(queries))
    calls = count_propensity_calls(monkeypatch)
    crossfit_dr_many(plan, queries, functional, grid)
    n_blocks = -(-plan.cohort.n // rows_per_block)
    bundles = [bundle for fold in plan._bundles for bundle in fold.values()]
    assert len(bundles) == 2 and n_blocks == 15
    assert {model: len(asked) for model, asked in calls.items()} == {
        id(model): n_blocks for bundle in bundles
        for model in (bundle.propensity_z, bundle.propensity_zw)}


def _recoded(cohort, order):
    """The rows ``order`` of ``cohort`` as a cohort of their own, whose
    covariate codes number the values in their new order of first
    appearance."""
    return Cohort(cohort.x[order], [cohort.z_items[i] for i in order],
                  [cohort.w_items[i] for i in order], cohort.m[order],
                  cohort.delta[order], cohort.n_causes)


@pytest.mark.parametrize("learner", ["stratified", "logrank_tree_ensemble"])
def test_influence_joins_covariates_by_value_across_value_tables(learner):
    # a bundle fitted on one cohort, evaluated on the same rows shuffled
    # into a cohort whose value tables list the covariates in another
    # order: every row's values are unchanged, bit for bit
    if learner == "stratified":
        _, _, cohort = _nic_setup(600, 41)
        learners = {}
    else:
        cohort = continuous_confounder_cohort(300, 7)
        learners = dict(outcome_learner=learner, censoring_learner=learner,
                        propensity_learner="logistic_irls",
                        outcome_params={"n_trees": 4},
                        censoring_params={"n_trees": 4})
    bundle = fit_dr_nuisances(cohort, SURVIVAL, **learners)
    perm = np.random.default_rng(2).permutation(cohort.n)
    # lead with a row whose z and w codes are not 0: they become code 0
    lead = np.flatnonzero((cohort.z_codes[perm] != 0)
                          & (cohort.w_codes[perm] != 0))[0]
    perm[[0, lead]] = perm[[lead, 0]]
    shuffled = _recoded(cohort, perm)
    assert not np.array_equal(shuffled.z_codes, cohort.z_codes[perm])
    assert not np.array_equal(shuffled.w_codes, cohort.w_codes[perm])
    grid = [1.0, 2.0, 4.0]
    for query in role_queries(0, 1):
        own = evaluate_influence(cohort, bundle, query, SURVIVAL, grid)
        other = evaluate_influence(shuffled, bundle, query, SURVIVAL, grid)
        assert other.values.tobytes() == own.values[perm].tobytes()
        for name in COMPONENT_NAMES:
            assert (other.components[name].tobytes()
                    == own.components[name][perm].tobytes())
        assert other.n_flagged == own.n_flagged


def test_tree_prediction_blocks_do_not_grow_with_a_short_grid(monkeypatch):
    # one grid point makes each fold one row block; the tree learner
    # still predicts in blocks of at most _BLOCK_ELEMENTS curve values,
    # and the estimates do not move
    import fairsurv.nuisance
    from fairsurv.nuisance import _Forest

    cohort = continuous_confounder_cohort(400, 13)
    plan = FoldPlan(cohort, seed=5, learners={
        "outcome_learner": "logrank_tree_ensemble",
        "censoring_learner": "logrank_tree_ensemble",
        "propensity_learner": "logistic_irls",
        "outcome_params": {"n_trees": 4},
        "censoring_params": {"n_trees": 4}})
    queries = role_queries(0, 1)
    whole = crossfit_dr_many(plan, queries, SURVIVAL, [2.0])
    monkeypatch.setattr(fairsurv.nuisance, "_BLOCK_ELEMENTS", 2000)
    blocks = []
    predict = _Forest.predict

    def recorded(self, feats, kind):
        blocks.append((len(feats), self.grid.size))
        return predict(self, feats, kind)
    monkeypatch.setattr(_Forest, "predict", recorded)
    blocked = crossfit_dr_many(plan, queries, SURVIVAL, [2.0])
    assert all(rows <= max(1, 2000 // width) for rows, width in blocks)
    assert max(rows for rows, _ in blocks) < cohort.n // 4
    for q in queries:
        assert np.array_equal(blocked[q].estimate, whole[q].estimate)
        assert np.array_equal(blocked[q].se, whole[q].se)


# ---------------------------------------------------------------------------
# Block evaluation against the per-cell oracle
# ---------------------------------------------------------------------------
#
# `_Contributions.evaluate` reads every curve off the models' block values
# and evaluates all cells of a run at once; `testkit.ReferenceContributions`
# is the per-cell evaluation it replaced.  Values, components, trimming
# counts and the streamed row-block output must agree bit for bit.

TREE_LEARNERS = dict(outcome_learner="logrank_tree_ensemble",
                     censoring_learner="logrank_tree_ensemble",
                     propensity_learner="logistic_irls",
                     outcome_params={"n_trees": 5},
                     censoring_params={"n_trees": 5})


def _two_halves(cohort):
    even = np.arange(cohort.n) % 2 == 0
    return cohort.subset(even), cohort.subset(~even)


def _oracle_case(name):
    """(evaluated cohort, bundle fitted on other rows, functional, grid,
    cap) of one block-path case."""
    if name.startswith("tree"):
        cohort = continuous_confounder_cohort(400, 5)
        functional, grid = SURVIVAL, [0.5, 1.0, 2.0, 4.0, 6.0]
        if name == "tree_cif":
            causes = np.random.default_rng(1).integers(1, 3, cohort.n)
            cohort = Cohort(cohort.x, cohort.z_items, cohort.w_items,
                            cohort.m, np.where(cohort.delta == 1, causes, 0))
            functional = Functional("cif", cause=2)
        fit, evaluated = _two_halves(cohort)
        bundle = fit_dr_nuisances(fit, functional, **TREE_LEARNERS)
        if name == "tree_non_finite":
            bundle.outcome._forest.steps[5] = np.nan
        if name == "tree_censoring_past_grid":
            grid = [0.3, 0.6]
        return evaluated, bundle, functional, grid, 2.0
    if name == "cif":
        fit, evaluated = _two_halves(
            sample_cohort(spec_of(make_cr_two_cause()), 1200, seed=7))
        functional = Functional("cif", cause=2)
        return (evaluated, fit_dr_nuisances(fit, functional), functional,
                [1.0, 2.0, 3.0], 50.0)
    _, _, cohort = _nic_setup(1200, 3)
    fit, evaluated = _two_halves(cohort)
    if name == "mediator_fallback":
        evaluated = _with_unpaired_confounder(evaluated, 30, 5)
    if name == "distinct_rows":
        # continuous times: every row is a class of its own
        evaluated = Cohort(evaluated.x, evaluated.z_items, evaluated.w_items,
                           evaluated.m + np.random.default_rng(4).uniform(
                               0.0, 1e-3, evaluated.n), evaluated.delta)
    if name == "no_censored_cell":
        cell = (np.array(evaluated.z_items) == 0) & (
            np.array(evaluated.w_items) == 0)
        evaluated = Cohort(evaluated.x, evaluated.z_items, evaluated.w_items,
                           evaluated.m, np.where(cell, 1, evaluated.delta))
    grid = [2.5] if name == "one_point_grid" else [1.0, 2.0, 3.0, 4.0]
    bundle = fit_dr_nuisances(fit, SURVIVAL)
    if name == "swapped_mediator_cohort":
        # nu(z) averages over the cells of the bundle's own mediator rows
        bundle = replace(bundle, mediator_cohort=evaluated)
    return (evaluated, bundle, SURVIVAL, grid,
            1.2 if name == "cap_trimmed" else 50.0)


ORACLE_CASES = ["survival", "cif", "cap_trimmed", "one_point_grid",
                "mediator_fallback", "no_censored_cell",
                "swapped_mediator_cohort", "distinct_rows", "tree_survival",
                "tree_cif", "tree_non_finite", "tree_censoring_past_grid"]


@pytest.mark.parametrize("pieces", ["default", "few_rows"])
@pytest.mark.parametrize("case", ORACLE_CASES)
def test_block_influence_matches_the_per_cell_oracle(monkeypatch, case,
                                                     pieces):
    import fairsurv.dr
    import fairsurv.nuisance
    from fairsurv.dr import _Contributions, _trim
    from fairsurv.scm import _first_appearance

    cohort, bundle, functional, grid, cap = _oracle_case(case)
    queries = role_queries(0, 1)
    if pieces == "few_rows":
        # pieces of at most 5 rows of every query: most hold part of one
        # cell, whose per-cell values broadcast over its rows
        monkeypatch.setattr(fairsurv.dr, "_PIECE_ELEMENTS",
                            len(queries) * len(grid) * 5)
    ids, classes = cohort.cells("zw")[0], cohort.cells("xzwdm")[0]
    flagged = 0
    for query in queries:
        got = evaluate_influence(cohort, bundle, query, functional, grid,
                                 cap=cap)
        want = reference_influence(cohort, bundle, query, functional, grid,
                                   cap=cap)
        assert got.values.tobytes() == want.values.tobytes()
        for name in COMPONENT_NAMES:
            assert (got.components[name].tobytes()
                    == want.components[name].tobytes()), name
        assert got.n_flagged == want.n_flagged
        flagged += got.n_flagged
        if case == "cap_trimmed":
            # a trimmed row peaks at the cap; rows of a trimmed class are
            # each counted
            trimmed = np.isclose(np.abs(got.values).max(axis=1), cap,
                                 rtol=1e-12, atol=0.0)
            assert got.n_flagged == np.sum(trimmed)
            assert np.unique(classes[trimmed]).size < got.n_flagged
    # streamed row blocks that split cells, and (trees) runs of a few
    # cells each
    monkeypatch.setattr(fairsurv.nuisance, "_BLOCK_ELEMENTS", 7 * max(
        bundle.outcome.grid.size, bundle.censoring.grid.size))
    grid = np.asarray(grid, dtype=float)
    p = [float(np.mean(cohort.x == q.x_condition)) for q in queries]
    everything = np.arange(cohort.n)
    args = (cohort, bundle, queries, functional, grid, p, 0.01)
    block = _Contributions(*args, everything)
    oracle = ReferenceContributions(*args, cap, everything)
    for lo, hi in ((0, 37), (37, 150), (150, cohort.n)):
        rows = everything[lo:hi]
        # each class of the block at its first row, read by its rows
        slot, first = _first_appearance(classes[rows])
        heads = np.zeros((len(queries), first.size, grid.size))
        want = np.zeros((len(queries), rows.size, grid.size))
        block.evaluate(rows[first], heads, np.arange(first.size))
        assert np.array_equal(
            _trim(heads, np.bincount(slot), cap),
            oracle.evaluate(rows, _by_cell(ids, rows), want, rows - lo))
        assert heads[:, slot].tobytes() == want.tobytes()
    # each case exercises what it is named after; the discrete cohorts'
    # rows repeat, within the three row blocks and both groups
    n_classes = np.unique(classes).size
    if case == "distinct_rows" or case.startswith("tree"):
        assert n_classes == cohort.n
    else:
        assert n_classes < cohort.n // 4
        assert all(np.unique(classes[lo:hi]).size < hi - lo
                   for lo, hi in ((37, 150), (150, cohort.n)))
        assert all(np.unique(classes[cohort.x == g]).size
                   < np.sum(cohort.x == g) for g in (0, 1))
    if case in ("cap_trimmed", "tree_non_finite"):
        assert flagged > 0
    if case == "mediator_fallback":
        assert sum(block.n_fallback) > 0
    if case == "no_censored_cell":
        cell = (np.array(cohort.z_items) == 0) & (
            np.array(cohort.w_items) == 0)
        assert cell.any() and not np.any(cohort.delta[cell] == 0)
    if case == "tree_censoring_past_grid":
        assert bundle.censoring.grid[-1] > grid[-1]


def test_trimming_evaluates_each_piece_once(monkeypatch):
    # rows are trimmed after evaluation: a piece with trimmed rows runs
    # its terms once, like every other piece
    from fairsurv.dr import _CellRun

    cohort, bundle, functional, grid, cap = _oracle_case("cap_trimmed")
    pieces, terms = [], []
    split, evaluate = _CellRun._pieces, _CellRun._terms

    def counted_pieces(self, step):
        for piece in split(self, step):
            pieces.append(piece)
            yield piece

    def counted_terms(self, *args):
        terms.append(args)
        return evaluate(self, *args)

    monkeypatch.setattr(_CellRun, "_pieces", counted_pieces)
    monkeypatch.setattr(_CellRun, "_terms", counted_terms)
    found = evaluate_influence(cohort, bundle, (1, 0, 0), functional, grid,
                               cap=cap)
    assert found.n_flagged > 0
    assert len(pieces) == 2 and len(terms) == len(pieces)


def test_trim_caps_each_flagged_row_and_its_components():
    from fairsurv.dr import _trim

    cap, nan, inf = 2.0, float("nan"), float("inf")
    values = np.array([
        [[nan, 1.5, 0.0], [inf, -inf, -2.0], [1.9, -2.0, 0.0]],
        [[0.5, -0.5, 1.0], [5.0, -7.0, 2.0], [3.0, 0.0, -0.25]]])
    first = np.array([
        [[1.0, 0.5, 0.0], [inf, 1.0, -1.0], [1.0, -1.0, 0.0]],
        [[0.25, 0.0, 0.5], [3.0, -4.0, 1.0], [1.0, 0.0, -0.25]]])
    with np.errstate(invalid="ignore"):
        second = values - first
    second[0, 0, 0], second[0, 1, 1] = inf, -inf
    kept_values, kept_first, kept_second = (values.copy(), first.copy(),
                                            second.copy())
    counts = np.array([3, 5, 7])
    n_flagged = _trim(values, counts, cap, (first, second))
    # query 0 trims rows 0 and 1, query 1 rows 1 and 2, each counted as
    # the rows its class stands for
    assert n_flagged.tolist() == [3 + 5, 5 + 7]
    # non-finite entries go to zero with their components
    for q, r, t in ((0, 0, 0), (0, 1, 0), (0, 1, 1)):
        assert values[q, r, t] == first[q, r, t] == second[q, r, t] == 0.0
    # entries above the cap end at the cap, their components scaled by
    # the entry's own factor
    for q, r, t in ((1, 1, 0), (1, 1, 1), (1, 2, 0)):
        kept = kept_values[q, r, t]
        scale = cap / abs(kept)
        assert_allclose(values[q, r, t], np.sign(kept) * cap, rtol=1e-15)
        assert first[q, r, t] == kept_first[q, r, t] * scale
        assert second[q, r, t] == kept_second[q, r, t] * scale
    # entries at or below the cap, zeros among them, keep their bits in
    # flagged rows and in the rows left alone
    alone = np.ones(values.shape, dtype=bool)
    alone[0, 0, 0] = alone[0, 1, :2] = alone[1, 1, :2] = False
    alone[1, 2, 0] = False
    for got, kept in ((values, kept_values), (first, kept_first),
                      (second, kept_second)):
        assert got[alone].tobytes() == kept[alone].tobytes()
    assert kept_values[alone].min() >= -cap and \
        kept_values[alone].max() <= cap
    assert np.sum(kept_values[alone] == 0.0) == 3


def test_influence_pieces_hold_step_rows_of_one_group(monkeypatch):
    # per group, a cell of 2,500 rows x 4 grid points (at least 2^13
    # values) between cells of 123 and 77 rows; continuous times make
    # every row a class of its own
    import fairsurv.dr

    sizes = (123, 2500, 77)
    z = np.tile(np.repeat([0, 1, 2], sizes), 2)
    x = np.repeat([0, 1], sum(sizes))
    rng = np.random.default_rng(3)
    cohort = Cohort(x, z, np.zeros_like(z), rng.exponential(3.0, x.size),
                    rng.integers(0, 2, x.size))
    grid = [1.0, 2.0, 3.0, 4.0]
    assert sizes[1] * len(grid) >= 1 << 13
    bundle = fit_dr_nuisances(cohort, SURVIVAL)
    want = evaluate_influence(cohort, bundle, (1, 0, 0), SURVIVAL, grid)
    step = 1000
    monkeypatch.setattr(fairsurv.dr, "_PIECE_ELEMENTS", len(grid) * step)
    pieces = []
    cut = fairsurv.dr._CellRun._pieces

    def recorded(self, size):
        for g, at in cut(self, size):
            pieces.append((g, at.start, at.stop))
            yield g, at
    monkeypatch.setattr(fairsurv.dr._CellRun, "_pieces", recorded)
    got = evaluate_influence(cohort, bundle, (1, 0, 0), SURVIVAL, grid)
    # one run of the three cells: consecutive pieces of ``step`` rows per
    # group, only the last one shorter
    n_group = sum(sizes)
    assert pieces == [(g, g * n_group + lo, g * n_group + min(lo + step,
                                                              n_group))
                      for g in (0, 1) for lo in range(0, n_group, step)]
    assert got.values.tobytes() == want.values.tobytes()


def test_doubly_robust_evaluation_builds_no_step_curves(monkeypatch):
    # tree learners: every curve is read off block values, none is built
    cohort = continuous_confounder_cohort(300, 9)
    plan = FoldPlan(cohort, seed=2, learners=TREE_LEARNERS)
    queries = role_queries(0, 1)
    want = crossfit_dr_many(plan, queries, SURVIVAL, [0.5, 1.0, 2.0, 4.0])
    built = count_curves(monkeypatch)
    got = crossfit_dr_many(plan, queries, SURVIVAL, [0.5, 1.0, 2.0, 4.0])
    assert built == []
    for q in queries:
        assert got[q].estimate.tobytes() == want[q].estimate.tobytes()


@pytest.mark.parametrize("corruption", ["falling_hazard",
                                        "incidence_above_one", "nan"])
def test_a_corrupted_leaf_fails_the_block_checks_as_a_curve(corruption):
    # one leaf value of the outcome forest is corrupted: the block path
    # raises DataError exactly where building the curve does
    cohort = continuous_confounder_cohort(300, 9)
    functional = SURVIVAL
    if corruption == "incidence_above_one":
        cohort = Cohort(cohort.x, cohort.z_items, cohort.w_items, cohort.m,
                        np.where(cohort.delta == 1, 1 + cohort.x, 0))
        functional = Functional("cif", cause=1)
    plan = FoldPlan(cohort, seed=2, learners=TREE_LEARNERS)
    bundle, rows = next(plan.parts(functional))
    forest = bundle.outcome._forest
    # the values of a leaf the first evaluated row reaches, from its last
    # (from its first, for a NaN)
    row = [float(cohort.x[rows[0]]), float(cohort.z_items[rows[0]]),
           float(cohort.w_items[rows[0]])]
    leaf = int(forest.leaf_sets(np.array([row]))[0, 0])
    start = forest.bounds[leaf] if corruption == "nan" else \
        forest.bounds[leaf + 1] - 1
    forest.steps[start:forest.bounds[leaf + 1]] = {
        "falling_hazard": -1e3, "nan": np.nan,
        "incidence_above_one": 1e3}[corruption]
    queries = role_queries(0, 1)
    if corruption == "nan":
        # a NaN passes a step curve's checks; its rows are trimmed
        assert np.isnan(bundle.outcome.predict(*row).values).any()
        found = crossfit_dr_many(plan, queries, functional, [0.5, 1.0, 2.0])
        assert sum(found[q].diagnostics["n_flagged"] for q in queries) > 0
        return
    with pytest.raises(DataError):
        bundle.outcome.predict(*row)
    with pytest.raises(DataError):
        crossfit_dr_many(plan, queries, functional, [0.5, 1.0, 2.0])


@pytest.mark.parametrize("estimator", ["dr", "plugin"])
@pytest.mark.parametrize("mode", ["nic", "cr", "ic"])
def test_each_cell_key_is_numbered_once_per_cohort(monkeypatch, tmp_path,
                                                   mode, estimator):
    # a whole decompose run, whichever module asks: `Cohort.cells`
    # numbers each (cohort, key) pair at most once, fold complements and
    # recoded cohorts being cohorts of their own
    import sys

    import fairsurv.scm

    number = fairsurv.scm._first_appearance
    cohorts, numbered = [], []

    def counted(key):
        frame = sys._getframe(1)
        if frame.f_code is Cohort.cells.__code__:
            cohort = frame.f_locals["self"]
            cohorts.append(cohort)  # alive, so no id is reused
            numbered.append((id(cohort), frame.f_locals["by"]))
        return number(key)
    monkeypatch.setattr(fairsurv.scm, "_first_appearance", counted)
    spec = make_cr_two_cause() if mode == "cr" else make_nic_balanced()
    cohort = sample_cohort(spec_of(spec), 2000, seed=0)
    (tmp_path / "cohort.csv").write_text(cohort.to_csv())
    args = ["--mode", mode, "--estimator", estimator]
    if mode == "ic":
        args += ["--tau", "0.2,0.5,0.8"]
    from fairsurv.cli import main
    assert main(["decompose", *args, "--cohort", str(tmp_path / "cohort.csv"),
                 "--outdir", str(tmp_path / "out")]) == 0
    assert numbered and len(numbered) == len(set(numbered))


@pytest.mark.parametrize("times", ["discrete", "continuous"])
def test_cell_runs_evaluate_each_row_class_once_per_call(monkeypatch, times):
    # rows equal in group, (z, w), label and time reach the cell runs of
    # an evaluation call once; the discrete cohort's classes repeat
    # across folds, row blocks and both groups, the continuous one's
    # rows are classes of their own
    import fairsurv.dr
    from fairsurv.dr import _CellRun, _Contributions

    if times == "discrete":
        plan = FoldPlan(_nic_setup(1500, 71)[2], seed=3)
    else:
        plan = FoldPlan(continuous_confounder_cohort(300, 9), seed=2,
                        learners=TREE_LEARNERS)
    cohort, grid, queries = plan.cohort, [1.0, 2.0, 3.0, 4.0], \
        role_queries(0, 1)
    keys = list(zip(cohort.x.tolist(), cohort.z_items, cohort.w_items,
                    cohort.delta.tolist(), cohort.m.tolist()))
    calls = []
    evaluate, run = _Contributions.evaluate, _CellRun.__init__

    def evaluating(contrib, rows, *args, **kwargs):
        calls.append(([keys[i] for i in rows.tolist()], []))
        return evaluate(contrib, rows, *args, **kwargs)

    def running(cell_run, contrib, first, p_z, p_zw, rows, *args):
        calls[-1][1].extend(keys[i] for i in rows.tolist())
        run(cell_run, contrib, first, p_z, p_zw, rows, *args)
    monkeypatch.setattr(_Contributions, "evaluate", evaluating)
    monkeypatch.setattr(_CellRun, "__init__", running)
    monkeypatch.setattr(fairsurv.dr, "_BLOCK_ELEMENTS",
                        400 * len(grid) * len(queries))
    crossfit_dr_many(plan, queries, SURVIVAL, grid)
    assert len(calls) == 2 * -(-cohort.n // 400)
    for wanted, evaluated in calls:
        assert sorted(evaluated) == sorted(set(wanted))
    n_evaluated = sum(len(evaluated) for _, evaluated in calls)
    if times == "continuous":
        assert n_evaluated == len(set(keys)) == cohort.n
        return
    # a class spans folds and blocks: evaluated once in each call it has
    # rows in
    assert len(set(keys)) < n_evaluated < cohort.n // 2
    assert all(len({key for key in keys if key[0] == g}) < np.sum(
        cohort.x == g) for g in (0, 1))


# ---------------------------------------------------------------------------
# Trimming safeguards
# ---------------------------------------------------------------------------

def test_extreme_weights_are_capped_and_reported():
    outcome = model_from_curves(
        {(): StepCurve([1.0], [0.4], 1.0, kind="survival")}, "event")
    censoring = model_from_curves(
        {(): StepCurve([], [], 1.0, kind="survival")}, "censoring")
    p_zw = PropensityModel("frequency_table", "zw", 0.0, {},
                           table={(0, 0): 0.999}, marginal=0.999)
    p_z = PropensityModel("frequency_table", "z", 0.0, {},
                          table={(0,): 0.999}, marginal=0.999)
    bundle = DRNuisances(
        outcome=outcome, censoring=censoring, propensity_zw=p_zw,
        propensity_z=p_z, mediator_table={(1, 0): {0: 1.0}})
    cohort = Cohort(x=[0, 1], z=[0, 0], w=[0, 0], m=[2.0, 2.0],
                    delta=[1, 1])
    ev = evaluate_influence(
        cohort, bundle, (0, 1, 1), SURVIVAL, [2.0], psi=0.0,
        p_condition=0.5)
    assert ev.n_flagged >= 1
    assert np.max(np.abs(ev.values)) <= 50.0 + 1e-9
    assert component_gap(ev) <= 1e-10


@pytest.mark.parametrize("cap", [0.0, -5.0, np.inf, np.nan])
def test_cap_must_be_positive_and_finite(cap):
    _, spec, cohort = _nic_setup(300, 61)
    with pytest.raises(DataError):
        crossfit_dr(FoldPlan(cohort, cap=cap), (1, 0, 0), SURVIVAL,
                    grid=[2.0])
    with pytest.raises(DataError):
        evaluate_influence(cohort, dr_nuisances_from_spec(spec, SURVIVAL),
                           (1, 0, 0), SURVIVAL, [2.0], cap=cap)


# ---------------------------------------------------------------------------
# The conditioning fraction P(x), one rule per entry
# ---------------------------------------------------------------------------

def test_each_entry_reads_its_own_conditioning_fraction():
    # group 1 is 20 of 4,000 rows, 5 in each (z, w) cell: its raw fraction
    # 0.005 is under the default epsilon 0.01, so the clipped group
    # fractions (0.99, 0.01) differ from the raw ones (0.995, 0.005)
    rng = np.random.default_rng(5)
    n = 4000
    z, w = np.repeat([0, 0, 1, 1], 1000), np.repeat([0, 1, 0, 1], 1000)
    x = np.zeros(n, dtype=int)
    for cell in range(4):
        x[1000 * cell + rng.choice(1000, 5, replace=False)] = 1
    cohort = Cohort(x, z.tolist(), w.tolist(),
                    np.round(rng.exponential(2.0, n), 1) + 0.1,
                    rng.integers(0, 2, n))
    raw = {0: 0.995, 1: 0.005}
    assert {g: float(np.mean(x == g)) for g in (0, 1)} == raw
    queries, grid = role_queries(0, 1), [1.0, 2.0, 4.0]
    conditions = {q.x_condition for q in queries}
    assert conditions == {0, 1}

    # cross-fitting: the cohort's exact fraction
    estimates = crossfit_dr_many(FoldPlan(cohort, seed=3), queries,
                                 SURVIVAL, grid)
    for q, est in estimates.items():
        assert est.diagnostics["p_condition"] == raw[q.x_condition], q

    # the plug-in and Route I weights: the z model's clipped fraction
    nuis = fit_plugin_nuisances(cohort, SURVIVAL)
    assert nuis.propensity_z.group_fractions.tolist() == [0.99, 0.01]
    rows = np.arange(n)
    p_zw, p_z = (model.predict_many(cohort, rows)
                 for model in (nuis.propensity_zw, nuis.propensity_z))
    weights = cell_weights(nuis, queries, cohort, rows)
    for qi, q in enumerate(queries):
        clipped = 0.01 if q.x_condition == 1 else 0.99
        np.testing.assert_array_equal(
            weights[:, qi], (p_zw[:, q.x_mediator] / p_z[:, q.x_mediator])
            * (p_z[:, q.x_condition] / clipped))

    # per-row influence values: the bundle's unclipped marginal by default
    bundle = fit_dr_nuisances(cohort, SURVIVAL)
    assert bundle.propensity_z.marginal == raw[1]
    for q in queries:
        default = evaluate_influence(cohort, bundle, q, SURVIVAL, grid)
        for p_condition, same in ((raw[q.x_condition], True),
                                  (0.01 if q.x_condition else 0.99, False)):
            given = evaluate_influence(cohort, bundle, q, SURVIVAL, grid,
                                       p_condition=p_condition)
            assert np.array_equal(default.values, given.values) is same, q


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------

def test_estimate_serializes_to_csv_and_json():
    import json

    _, spec, cohort = _nic_setup(800, 59)
    est = crossfit_dr(FoldPlan(cohort, seed=59), (1, 0, 0), SURVIVAL,
                      grid=[1.0, 2.0])
    text = est.to_csv(header_comment="run abc123")
    lines = text.strip().split("\n")
    assert lines[0] == "# run abc123"
    assert lines[1] == "t,estimate,se,lo,hi"
    assert len(lines) == 4
    first = [float(tok) for tok in lines[2].split(",")]
    assert first[0] == 1.0
    assert first[1] == pytest.approx(float(est.estimate[0]), rel=1e-10)

    payload = json.loads(est.to_json())
    assert payload["query"] == [1, 0, 0]
    assert payload["functional"]["kind"] == "survival"
    assert payload["diagnostics"]["n_rows"] == 800
    assert payload["diagnostics"]["n_folds"] == 2
    assert len(payload["estimate"]) == 2
    assert np.all(np.asarray(payload["lo"]) <= np.asarray(payload["hi"]))


# ---------------------------------------------------------------------------
# Property: structure holds on arbitrary small cohorts
# ---------------------------------------------------------------------------

@settings(deadline=None, max_examples=25)
@given(
    seed=st.integers(0, 10_000),
    n=st.integers(60, 200),
    arm=st.tuples(st.integers(0, 1), st.integers(0, 1), st.integers(0, 1)),
)
def test_component_sum_and_centering_property(seed, n, arm):
    rng = np.random.default_rng(seed)
    x = rng.integers(0, 2, n)
    if x.min() == x.max():  # both groups must appear
        x[0], x[1] = 0, 1
    z = rng.integers(0, 2, n)
    w = rng.integers(0, 2, n)
    m = rng.choice([0.5, 1.0, 1.5, 2.0, 3.0], n)
    delta = rng.integers(0, 2, n)
    if not np.any(delta > 0):
        delta[0] = 1
    cohort = Cohort(x=x, z=z, w=w, m=m, delta=delta)
    bundle = fit_dr_nuisances(cohort, SURVIVAL)
    grid = [1.0, 2.5]
    ev = evaluate_influence(cohort, bundle, arm, SURVIVAL, grid, psi=0.0)
    assert component_gap(ev) <= 1e-10
    assert np.all(np.isfinite(ev.values))
    est = ev.values.mean(axis=0)
    centered = evaluate_influence(
        cohort, bundle, arm, SURVIVAL, grid, psi=est,
        p_condition=float(np.mean(cohort.x == arm[2])))
    assert np.max(np.abs(centered.values.mean(axis=0))) <= 1e-10
