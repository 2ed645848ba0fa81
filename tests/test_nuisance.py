"""Conditional survival/censoring learners and propensity models."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fairsurv.curves import (
    StepCurve,
    aalen_johansen_cif,
    kaplan_meier,
    nelson_aalen,
)
from fairsurv.errors import (
    CohortSchemaError,
    DataError,
    DegenerateGroupError,
    EstimationError,
)
from fairsurv.nuisance import (
    PropensityModel,
    _candidate_splits,
    _expit,
    _expit_array,
    _logrank_scores,
    fit_conditional_survival,
    fit_propensity,
)
from fairsurv.scm import Cohort, sample_cohort
from fairsurv.specs import bundled_scenario

from testkit import (
    censor_hazard_increments,
    continuous_confounder_cohort,
    count_curves,
    event_support,
    make_cr_two_cause,
    make_light_hazard_balanced,
    make_nic_balanced,
    model_from_curves,
    predict_censoring_hazard_increments,
    predict_cif,
    predict_rows,
    predict_survival,
    predict_triples,
    propensity_from_spec,
    reference_forest,
    reference_predict_values,
    reference_propensities,
    spec_of,
    stratum_curve,
    survival_model_from_spec,
)


def _const_cov(n, value=0):
    return [value] * n


# ---------------------------------------------------------------------------
# Stratified learner
# ---------------------------------------------------------------------------

def test_single_stratum_prediction_is_the_marginal_km():
    m = np.array([1.0, 2.0, 2.0, 3.0, 5.0, 6.0])
    d = np.array([1, 0, 1, 1, 0, 1])
    cohort = Cohort([0] * 6, _const_cov(6), _const_cov(6), m, d)
    model = fit_conditional_survival(cohort, target="event")
    pred = model.predict(0, 0, 0)
    km = kaplan_meier(m, d)
    np.testing.assert_array_equal(pred.breakpoints, km.breakpoints)
    np.testing.assert_array_equal(pred.values, km.values)


def test_per_stratum_prediction_equals_subset_km():
    m = np.array([1.0, 2.0, 3.0, 1.5, 2.5, 3.5, 4.5])
    d = np.array([1, 1, 0, 1, 0, 1, 1])
    x = np.array([0, 0, 0, 1, 1, 1, 1])
    cohort = Cohort(x, _const_cov(7), _const_cov(7), m, d)
    model = fit_conditional_survival(cohort, target="event")
    for g in (0, 1):
        km = kaplan_meier(m[x == g], d[x == g])
        pred = model.predict(g, 0, 0)
        np.testing.assert_array_equal(pred.breakpoints, km.breakpoints)
        np.testing.assert_array_equal(pred.values, km.values)


def test_stratified_recovers_generative_curves():
    raw = make_light_hazard_balanced()
    spec = spec_of(raw)
    cohort = sample_cohort(spec, 20000, seed=11)
    model = fit_conditional_survival(cohort, target="event")
    grid = event_support(spec)
    for x, z, w in spec.strata():
        true = spec.conditional_survival(x, z, w).evaluate(grid)
        est = model.predict(x, z, w).evaluate(grid)
        assert np.max(np.abs(est - true)) <= 0.05


def test_tree_ensemble_recovers_generative_curves():
    raw = make_light_hazard_balanced()
    spec = spec_of(raw)
    cohort = sample_cohort(spec, 20000, seed=11)
    model = fit_conditional_survival(
        cohort, target="event", learner="logrank_tree_ensemble", seed=5
    )
    grid = event_support(spec)
    for x, z, w in spec.strata():
        true = spec.conditional_survival(x, z, w).evaluate(grid)
        est = model.predict(x, z, w).evaluate(grid)
        assert np.max(np.abs(est - true)) <= 0.05


def test_tree_on_identical_rows_gives_exp_of_mean_chf():
    # Every bootstrap resample of identical rows has the same risk table,
    # so the ensemble is exp(-d/n) regardless of seed.
    cohort = Cohort([1] * 40, _const_cov(40), _const_cov(40),
                    [2.0] * 40, [1] * 40)
    model = fit_conditional_survival(
        cohort, target="event", learner="logrank_tree_ensemble"
    )
    assert model.predict(1, 0, 0).evaluate(2.0) == pytest.approx(
        math.exp(-1.0), abs=1e-12
    )


def test_censoring_target_flips_the_indicator():
    m = np.array([1.0, 2.0, 3.0, 4.0])
    d = np.array([1, 0, 0, 1])
    cohort = Cohort([0] * 4, _const_cov(4), _const_cov(4), m, d)
    model = fit_conditional_survival(cohort, target="censoring")
    km = kaplan_meier(m, (d == 0).astype(int))
    pred = model.predict(0, 0, 0)
    np.testing.assert_array_equal(pred.breakpoints, km.breakpoints)
    np.testing.assert_array_equal(pred.values, km.values)


def test_missing_cell_falls_back_to_parent_stratum():
    # No rows at (x=1, z=1, w=1); its prediction must be the (x=1, z=1)
    # curve and the fit report must name the hole.
    x = [0, 0, 0, 0, 1, 1, 1, 1]
    z = [0, 0, 1, 1, 0, 0, 1, 1]
    w = [0, 1, 0, 1, 0, 1, 0, 0]
    m = [1.0, 2.0, 3.0, 4.0, 1.0, 2.0, 3.0, 4.0]
    d = [1, 1, 1, 0, 1, 0, 1, 1]
    cohort = Cohort(x, z, w, m, d)
    model = fit_conditional_survival(cohort, target="event")
    parent = kaplan_meier(np.array(m)[6:], np.array(d)[6:])
    pred = model.predict(1, 1, 1)
    np.testing.assert_array_equal(pred.breakpoints, parent.breakpoints)
    np.testing.assert_array_equal(pred.values, parent.values)
    assert model.fit_report["n_fallback_cells"] == 1
    assert "(1, 1, 1)" in model.fit_report["fallback_cells"]


def test_stratified_rejects_continuous_covariates():
    rng = np.random.default_rng(0)
    n = 300
    cohort = Cohort(
        rng.integers(0, 2, n), rng.random(n), _const_cov(n),
        rng.random(n) + 0.5, [1] * n,
    )
    with pytest.raises(CohortSchemaError):
        fit_conditional_survival(cohort, target="event")


def test_stratified_learner_takes_no_params():
    # at most 128 distinct z values, a limit no option changes
    rng = np.random.default_rng(1)
    for n_values in (128, 129):
        z = np.arange(2 * n_values) % n_values
        cohort = Cohort(np.arange(z.size) % 2, z, _const_cov(z.size),
                        rng.random(z.size) + 0.5, [1] * z.size)
        if n_values == 128:
            fit_conditional_survival(cohort, target="event")
            for limit in (1, 128, 1000):
                with pytest.raises(DataError,
                                   match="unknown stratified params"):
                    fit_conditional_survival(cohort, target="event",
                                             max_categories=limit)
        else:
            with pytest.raises(CohortSchemaError,
                               match="more than 128 distinct values"):
                fit_conditional_survival(cohort, target="event")


@pytest.mark.parametrize("name", ["z", "w"])
def test_stratified_learner_counts_the_values_its_rows_hold(name):
    # 129 values in the rows raise; a subset holding 128 of them fits,
    # though it shares the cohort's table of 129
    rng = np.random.default_rng(2)
    values = np.arange(2 * 129) % 129
    covariates = {"z": _const_cov(values.size), "w": _const_cov(values.size),
                  name: values}
    cohort = Cohort(np.arange(values.size) % 2, covariates["z"],
                    covariates["w"], rng.random(values.size) + 0.5,
                    [1] * values.size)
    with pytest.raises(CohortSchemaError,
                       match=f"^{name} has more than 128 distinct values"):
        fit_conditional_survival(cohort, target="event")
    part = cohort.subset(values < 128)
    assert len(getattr(part, f"{name}_values")) == 129
    fit_conditional_survival(part, target="event")


def test_stratified_fit_is_row_order_invariant():
    raw = make_nic_balanced()
    cohort = sample_cohort(spec_of(raw), 2000, seed=3)
    perm = np.random.default_rng(1).permutation(cohort.n)
    a = fit_conditional_survival(cohort, target="event")
    b = fit_conditional_survival(cohort.subset(perm), target="event")
    assert a.fit_report == b.fit_report
    for x in (0, 1):
        for z in (0, 1):
            for w in (0, 1):
                np.testing.assert_array_equal(
                    a.predict(x, z, w).values, b.predict(x, z, w).values
                )


def test_cif_target_equals_subset_aalen_johansen():
    raw = make_cr_two_cause()
    spec = spec_of(raw)
    cohort = sample_cohort(spec, 3000, seed=7)
    model = fit_conditional_survival(cohort, target=2)
    assert model.curve_kind == "cif"
    sel = (cohort.x == 1) & (np.array(cohort.z_items) == 0) & (
        np.array(cohort.w_items) == 1)
    sub = cohort.subset(sel)
    from fairsurv.curves import aalen_johansen_cif

    aj = aalen_johansen_cif(sub.m, sub.delta, cause=2, n_causes=2)
    pred = model.predict(1, 0, 1)
    np.testing.assert_array_equal(pred.breakpoints, aj.breakpoints)
    np.testing.assert_array_equal(pred.values, aj.values)


@pytest.mark.parametrize("target", ["event", "censoring", 1, 2])
def test_stratified_curves_equal_stratum_curve_bit_for_bit(target):
    # every stratum of every level, (), (x,), (x, z) and (x, z, w), is the
    # product-limit curve of its rows alone; times tie within strata and
    # one (x, z, w) combination has no rows, so predictions back off
    cohort = sample_cohort(spec_of(make_cr_two_cause()), 1500, seed=5)
    z, w = np.array(cohort.z_items), np.array(cohort.w_items)
    cohort = cohort.subset(~((cohort.x == 1) & (z == 1) & (w == 0)))
    model = fit_conditional_survival(cohort, target=target)
    assert model.fit_report["n_fallback_cells"] == 1
    assert np.unique(cohort.m).size < cohort.n // 10
    columns = (cohort.x, np.array(cohort.z_items), np.array(cohort.w_items))
    full = set(zip(*(column.tolist() for column in columns)))
    assert set(model._curves) == {key[:k] for key in full for k in range(4)}
    for key, curve in model._curves.items():
        rows = np.ones(cohort.n, dtype=bool)
        for column, value in zip(columns, key):
            rows &= column == value
        want = stratum_curve(cohort.m[rows], cohort.delta[rows], target,
                             cohort.n_causes)
        assert curve.breakpoints.tobytes() == want.breakpoints.tobytes()
        assert curve.values.tobytes() == want.values.tobytes()
        assert (curve.value_at_zero, curve.kind) == (want.value_at_zero,
                                                     want.kind)


def test_stratified_fit_makes_one_product_limit_pass_per_level(
        monkeypatch):
    # no estimator call per stratum: one grouped pass per level (the
    # one-cohort estimators all run `curves._estimate`)
    import fairsurv.curves
    import fairsurv.nuisance

    estimators = []
    monkeypatch.setattr(fairsurv.curves, "_estimate",
                        lambda *args, **kwargs: estimators.append(args))
    passes = []
    steps = fairsurv.nuisance.product_limit_steps

    def counted(*args, **kwargs):
        passes.append(args[3])
        return steps(*args, **kwargs)
    monkeypatch.setattr(fairsurv.nuisance, "product_limit_steps", counted)
    cohort = sample_cohort(spec_of(make_cr_two_cause()), 1000, seed=2)
    for target in ("event", "censoring", 1, 2):
        fit_conditional_survival(cohort, target=target)
    assert estimators == []
    assert passes == ["survival"] * 8 + ["cif"] * 8


def test_cause_label_beyond_cohort_causes_is_rejected():
    cohort = Cohort([0, 1], [0, 0], [0, 0], [1.0, 2.0], [1, 1])
    with pytest.raises(DataError):
        fit_conditional_survival(cohort, target=2)


def test_predict_survival_and_cif_guard_each_other():
    raw = make_cr_two_cause()
    cohort = sample_cohort(spec_of(raw), 500, seed=2)
    surv = fit_conditional_survival(cohort, target="event")
    cif = fit_conditional_survival(cohort, target=1)
    with pytest.raises(EstimationError):
        predict_cif(surv, 0, 0, 0)
    with pytest.raises(EstimationError):
        predict_survival(cif, 0, 0, 0)


# ---------------------------------------------------------------------------
# Tree learner guards
# ---------------------------------------------------------------------------

def test_tree_leaf_and_depth_limits_hold():
    raw = make_nic_balanced()
    cohort = sample_cohort(spec_of(raw), 4000, seed=13)
    model = fit_conditional_survival(
        cohort, target="event", learner="logrank_tree_ensemble",
        n_trees=20, min_leaf=25, max_depth=4, seed=1,
    )
    assert model.fit_report["min_leaf_size_observed"] >= 25
    assert model.fit_report["max_depth_observed"] <= 4


def test_tree_params_are_validated():
    cohort = Cohort([0, 1] * 20, _const_cov(40), _const_cov(40),
                    np.arange(1.0, 41.0), [1] * 40)
    with pytest.raises(DataError):
        fit_conditional_survival(
            cohort, learner="logrank_tree_ensemble", min_leaf=5
        )
    with pytest.raises(DataError):
        fit_conditional_survival(
            cohort, learner="logrank_tree_ensemble", max_depth=7
        )
    for bad in (0, -3):
        with pytest.raises(DataError):
            fit_conditional_survival(
                cohort, learner="logrank_tree_ensemble", max_thresholds=bad
            )
    with pytest.raises(DataError):
        fit_conditional_survival(cohort, learner="nonesuch")


def test_tree_rejects_non_numeric_covariates():
    cohort = Cohort([0, 1] * 20, ["a", "b"] * 20, _const_cov(40),
                    np.arange(1.0, 41.0), [1] * 40)
    with pytest.raises(CohortSchemaError):
        fit_conditional_survival(cohort, learner="logrank_tree_ensemble")


def test_tree_same_seed_reproduces_predictions():
    raw = make_nic_balanced()
    cohort = sample_cohort(spec_of(raw), 1500, seed=4)
    kws = dict(learner="logrank_tree_ensemble", n_trees=10, seed=42)
    a = fit_conditional_survival(cohort, target="event", **kws)
    b = fit_conditional_survival(cohort, target="event", **kws)
    ca, cb = a.predict(1, 1, 0), b.predict(1, 1, 0)
    np.testing.assert_array_equal(ca.breakpoints, cb.breakpoints)
    np.testing.assert_array_equal(ca.values, cb.values)


# ---------------------------------------------------------------------------
# Log-rank splitting
# ---------------------------------------------------------------------------

def logrank_oracle(t_left, e_left, t_right, e_right):
    """Reference: the two-sample log-rank chi-square of one split, scored
    one candidate at a time, as the tree learner did before it scored all
    candidates of a node at once."""
    ev = np.unique(np.concatenate((t_left[e_left > 0], t_right[e_right > 0])))
    if ev.size == 0:
        return 0.0
    sl, sr = np.sort(t_left), np.sort(t_right)
    n_l = (t_left.size - np.searchsorted(sl, ev, side="left")).astype(float)
    n_r = (t_right.size - np.searchsorted(sr, ev, side="left")).astype(float)
    el = np.sort(t_left[e_left > 0])
    er = np.sort(t_right[e_right > 0])
    d_l = (
        np.searchsorted(el, ev, "right") - np.searchsorted(el, ev, "left")
    ).astype(float)
    d_r = (
        np.searchsorted(er, ev, "right") - np.searchsorted(er, ev, "left")
    ).astype(float)
    n = n_l + n_r
    d = d_l + d_r
    observed_minus_expected = float(np.sum(d_l - n_l * d / n))
    multi = n > 1
    var = np.sum(
        (n_l * n_r * d * (n - d))[multi] / (n[multi] ** 2 * (n[multi] - 1.0))
    )
    if var <= 0.0:
        return 0.0
    return observed_minus_expected**2 / var


_TARGET_INDICATORS = {
    "event": lambda delta: delta >= 1,
    "censoring": lambda delta: delta == 0,
    1: lambda delta: delta == 1,
    2: lambda delta: delta == 2,
}


def _oracle_scores(left, m, ind):
    return np.array([logrank_oracle(m[row], ind[row], m[~row], ind[~row])
                     for row in left])


def test_logrank_scores_equal_the_one_split_oracle_exactly():
    rng = np.random.default_rng(2024)
    n_positive = 0
    for trial in range(300):
        n = int(rng.integers(1, 300))
        if trial % 2:  # integer times: heavy ties
            m = rng.integers(1, int(rng.integers(2, 40)), n).astype(float)
        else:
            m = np.round(rng.exponential(size=n), int(rng.integers(1, 5)))
        delta = rng.choice(3, size=n, p=rng.dirichlet(np.ones(3)))
        target = list(_TARGET_INDICATORS)[trial % 4]
        ind = _TARGET_INDICATORS[target](delta).astype(int)
        if trial % 7 == 0:
            ind[:] = 0  # all censored: no event times
        if trial % 5 == 0:
            # the last event time has a single row at risk
            last = int(rng.integers(n))
            m[last] = m.max() + 1.0
            ind[last] = 1
        col = rng.normal(size=n)
        # thresholds outside the range and next to the extremes send no
        # row or a single row to one side, as min_leaf would refuse
        thresholds = np.concatenate((
            [col.min() - 1.0, col.max() + 1.0],
            np.sort(col)[[0, -1]],
            np.sort(rng.normal(size=int(rng.integers(1, 40)))),
        ))
        left = col <= thresholds[:, None]
        # the scorer takes a node's rows in ascending time order
        order = np.argsort(m, kind="stable")
        m, ind, left = m[order], ind[order], left[:, order]
        got = _logrank_scores(left, m, ind)
        want = _oracle_scores(left, m, ind)
        assert got.shape == want.shape
        assert np.array_equal(got, want), (trial, np.flatnonzero(got != want))
        n_positive += int(np.count_nonzero(want > 0.0))
    assert n_positive > 1000


def _reference_thresholds(col, max_thresholds):
    """Candidate thresholds of one feature, from its own np.unique and
    np.quantile calls."""
    uniq = np.unique(col)
    if uniq.size < 2:
        return uniq[:0]
    thresholds = (uniq[:-1] + uniq[1:]) / 2.0
    if thresholds.size > max_thresholds:
        levels = np.linspace(0.0, 1.0, max_thresholds + 2)
        thresholds = np.unique(np.quantile(col, levels[1:-1]))
    return thresholds


def test_candidate_splits_equal_the_per_feature_reference():
    rng = np.random.default_rng(5)
    for trial in range(600):
        n, p = int(rng.integers(20, 300)), int(rng.integers(1, 5))
        feats = rng.normal(size=(n, p))
        if trial % 3 == 1:  # ties, signed zeros and NaNs
            feats = np.round(feats, 1)
            feats[rng.random((n, p)) < 0.1] = -0.0
            feats[rng.random((n, p)) < 0.05] = np.nan
        elif trial % 3 == 2:
            feats = rng.integers(0, 4, size=(n, p)).astype(float)
        max_thresholds = int(rng.integers(1, 40))
        wants = [_reference_thresholds(feats[:, j], max_thresholds)
                 for j in range(p)]
        levels = np.linspace(0.0, 1.0, max_thresholds + 2)[1:-1]
        feature, threshold = _candidate_splits(feats, max_thresholds, levels)
        assert feature.tolist() == [j for j, want in enumerate(wants)
                                    for _ in want]
        assert threshold.tobytes() == np.concatenate(wants).tobytes()


def _reference_tree(feats, m, ind, depth, params):
    """Preorder (feature, threshold) / leaf-size sequence of the tree the
    scalar search grows: every threshold scored alone by the oracle, the
    first strictly largest statistic wins."""
    n = m.size
    if depth < params["max_depth"] and n >= 2 * params["min_leaf"]:
        best_stat, best = 0.0, None
        for j in range(feats.shape[1]):
            col = feats[:, j]
            for thr in _reference_thresholds(col, params["max_thresholds"]):
                mask = col <= thr
                n_left = int(mask.sum())
                if min(n_left, n - n_left) < params["min_leaf"]:
                    continue
                stat = logrank_oracle(m[mask], ind[mask], m[~mask], ind[~mask])
                if stat > best_stat:
                    best_stat, best = stat, (j, float(thr))
        if best is not None:
            mask = feats[:, best[0]] <= best[1]
            return ([best]
                    + _reference_tree(feats[mask], m[mask], ind[mask],
                                      depth + 1, params)
                    + _reference_tree(feats[~mask], m[~mask], ind[~mask],
                                      depth + 1, params))
    return [n]


def _fitted_tree(forest, node):
    if forest.leaf[node] < 0:
        return ([(int(forest.feature[node]), float(forest.threshold[node]))]
                + _fitted_tree(forest, forest.left[node])
                + _fitted_tree(forest, forest.right[node]))
    return [int(forest.n_rows[forest.leaf[node]])]


def test_tree_structure_matches_the_scalar_reference_grower():
    rng = np.random.default_rng(31)
    n = 160
    x = rng.integers(0, 2, n)
    z = np.round(rng.normal(size=(n, 2)), 3)
    w = x.copy()  # every split on w ties with the same split on x
    m = np.round(rng.exponential(1.0 / np.exp(0.6 * z[:, 0] + 0.4 * x)), 1)
    delta = rng.choice(3, size=n, p=[0.3, 0.45, 0.25])
    cohort = Cohort(x, [tuple(r) for r in z.tolist()], w.tolist(), m, delta)
    feats = np.column_stack([x, z, w]).astype(float)
    params = dict(n_trees=4, min_leaf=10, max_depth=4, max_thresholds=8)
    features = []
    for target in ("event", "censoring", 1):
        model = fit_conditional_survival(
            cohort, target=target, learner="logrank_tree_ensemble",
            seed=7, **params,
        )
        ind = _TARGET_INDICATORS[target](delta).astype(int)
        rng_boot = np.random.default_rng(7)
        for root in model._forest.roots:
            boot = rng_boot.integers(0, n, n)
            want = _reference_tree(feats[boot], m[boot], ind[boot], 0, params)
            assert _fitted_tree(model._forest, root) == want
            features += [item[0] for item in want if isinstance(item, tuple)]
    # the first maximum wins: x, never its copy w
    assert len(features) >= 12 and 0 in features and 3 not in features
    assert {1, 2} <= set(features)


def test_tree_cif_without_splits_is_the_bootstrap_mean_aalen_johansen():
    rng = np.random.default_rng(8)
    n, seed, n_trees = 90, 11, 6
    m = rng.integers(1, 15, n).astype(float)
    delta = rng.choice(3, size=n, p=[0.3, 0.4, 0.3])
    cohort = Cohort([1] * n, _const_cov(n), _const_cov(n), m, delta)
    model = fit_conditional_survival(
        cohort, target=1, learner="logrank_tree_ensemble",
        n_trees=n_trees, seed=seed,
    )
    assert model.fit_report["mean_leaves_per_tree"] == 1.0
    draws = np.random.default_rng(seed)
    cifs = []
    for _ in range(n_trees):
        boot = draws.integers(0, n, n)
        cifs.append(aalen_johansen_cif(m[boot], delta[boot], cause=1,
                                       n_causes=cohort.n_causes))
    grid = np.unique(np.concatenate([c.breakpoints for c in cifs]))
    want = np.mean([c.evaluate(grid) for c in cifs], axis=0)
    got = predict_cif(model, 1, 0, 0)
    np.testing.assert_array_equal(got.breakpoints, grid)
    np.testing.assert_allclose(got.values, want, rtol=0, atol=1e-12)


_FOREST_ARRAYS = ("roots", "feature", "threshold", "left", "right", "leaf",
                  "grid", "bounds", "steps", "runs", "n_rows")


def _same_forest(got, want):
    for name in _FOREST_ARRAYS:
        a, b = getattr(got, name), getattr(want, name)
        assert (a.dtype, a.shape) == (b.dtype, b.shape), name
        assert a.tobytes() == b.tobytes(), name
    assert got.depth == want.depth


def _awkward_cohort(n=300, seed=23):
    """Integer times (heavy ties), two causes, and three confounder
    columns: one rounded to a tenth, its zeros all -0.0 (where a column
    holds both signed zeros, the zero a quantile lands on keeps the sign
    that numpy's partition leaves there, which depends on row order), one
    with 10 % NaN and one continuous."""
    rng = np.random.default_rng(seed)
    x = rng.integers(0, 2, n)
    z = rng.normal(size=(n, 3))
    z[:, 0] = np.round(z[:, 0], 1)
    z[z[:, 0] == 0.0, 0] = -0.0
    z[rng.random(n) < 0.1, 1] = np.nan
    w = rng.integers(0, 2, n)
    rate = np.exp(0.6 * np.nan_to_num(z[:, 0]) + 0.4 * x - 0.3 * w)
    m = np.ceil(4.0 * rng.exponential(1.0 / rate))
    delta = rng.choice(3, size=n, p=[0.3, 0.45, 0.25])
    return Cohort(x, [tuple(r) for r in z.tolist()], w.tolist(), m, delta)


@pytest.mark.parametrize("max_thresholds", [1, 10**6])
@pytest.mark.parametrize("max_depth", [0, 6])
@pytest.mark.parametrize("target", ["event", "censoring", 1])
def test_forest_equals_the_recursive_reference_grower_bytewise(
        target, max_depth, max_thresholds):
    cohort = _awkward_cohort()
    params = dict(n_trees=4, seed=9, max_depth=max_depth,
                  max_thresholds=max_thresholds)
    model = fit_conditional_survival(
        cohort, target=target, learner="logrank_tree_ensemble", **params)
    want = reference_forest(cohort, target, **params)
    _same_forest(model._forest, want)
    assert (want.leaf >= 0).sum() > (4 if max_depth else 3)


def test_tree_fit_makes_no_estimator_or_quantile_call_per_leaf(monkeypatch):
    import fairsurv.curves
    import fairsurv.nuisance

    calls = []

    def counted(name, fn):
        def call(*args, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)
        return call
    for module in (fairsurv.curves, fairsurv.nuisance):
        for name in ("kaplan_meier", "nelson_aalen", "aalen_johansen_cif"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name,
                                    counted(name, getattr(module, name)))
    monkeypatch.setattr(np, "quantile", counted("quantile", np.quantile))
    cohort = _tree_cohort()
    for target in ("event", "censoring", 1):
        # 4 thresholds: the continuous columns split at quantiles
        model = fit_conditional_survival(
            cohort, target=target, learner="logrank_tree_ensemble",
            n_trees=3, max_thresholds=4)
        assert model._forest.n_rows.size > 6
    assert calls == []


def test_candidate_scoring_is_bounded_whatever_max_thresholds():
    import tracemalloc

    rng = np.random.default_rng(3)
    n = 4000
    x = rng.integers(0, 2, n)
    z = rng.normal(size=(n, 2))
    w = rng.integers(0, 2, n)
    m = np.round(rng.exponential(1.0 / np.exp(0.5 * z[:, 0] + 0.4 * x)), 3)
    delta = rng.choice(3, size=n, p=[0.3, 0.45, 0.25])
    cohort = Cohort(x, [tuple(r) for r in z.tolist()], w.tolist(), m, delta)
    # max_thresholds = rows: every midpoint is a candidate
    every = fit_conditional_survival(
        cohort, learner="logrank_tree_ensemble", n_trees=1,
        max_thresholds=n)
    tracemalloc.start()
    try:
        unbounded = fit_conditional_survival(
            cohort, learner="logrank_tree_ensemble", n_trees=1,
            max_thresholds=10**6)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    _same_forest(unbounded._forest, every._forest)
    assert peak < 64 * 2**20


# ---------------------------------------------------------------------------
# Batch prediction
# ---------------------------------------------------------------------------

def _tree_cohort(n=240, seed=17):
    """Two continuous confounder columns, a binary mediator and two
    causes."""
    rng = np.random.default_rng(seed)
    x = rng.integers(0, 2, n)
    z = np.round(rng.normal(size=(n, 2)), 3)
    w = rng.integers(0, 2, n)
    m = np.round(rng.exponential(1.0 / np.exp(0.5 * z[:, 0] + 0.4 * x)), 2)
    delta = rng.choice(3, size=n, p=[0.3, 0.45, 0.25])
    return Cohort(x, [tuple(r) for r in z.tolist()], w.tolist(), m + 0.01,
                  delta)


def _row_triples(cohort, n):
    return list(zip(cohort.x.tolist()[:n], cohort.z_items[:n],
                    cohort.w_items[:n]))


def _same_curve(a, b):
    return (a.kind == b.kind and a.value_at_zero == b.value_at_zero
            and a.breakpoints.tobytes() == b.breakpoints.tobytes()
            and a.values.tobytes() == b.values.tobytes())


def _walked_curve(forest, feats, kind):
    """(leaf set, times, values) of one feature row: each tree walked
    node by node, and the leaves' step functions summed one after
    another on the union of their jump times."""
    leaves = []
    for node in forest.roots.tolist():
        while forest.leaf[node] < 0:
            go_left = feats[forest.feature[node]] <= forest.threshold[node]
            node = forest.left[node] if go_left else forest.right[node]
        leaves.append(int(forest.leaf[node]))
    steps = []
    for j in leaves:
        runs = slice(forest.bounds[j], forest.bounds[j + 1])
        steps.append((forest.grid[np.cumsum(forest.runs[runs])[:-1]],
                      forest.steps[runs]))
    grid = np.unique(np.concatenate([times for times, _ in steps]))
    total = np.zeros(grid.size)
    for times, values in steps:
        total += values[np.searchsorted(times, grid, side="right")]
    mean = total / len(leaves)
    return tuple(leaves), grid, mean if kind == "cif" else np.exp(-mean)


def _triple_curves(model, triples, **kwargs):
    """Each triple's curve read off its row of ``predict_values``: the
    values at its jumps, and its value at zero; None where unserved."""
    out = []
    for values, jumps, index in predict_triples(model, triples, **kwargs):
        for i in index.tolist():
            out.append(None if i < 0 else StepCurve(
                model.grid[jumps[i]], values[i, 1:][jumps[i]], values[i, 0],
                model.curve_kind))
    return out


def _feats(triple):
    x, z, w = triple
    return [float(x)] + [float(v) for v in z] + [float(w)]


@pytest.mark.parametrize("n_trees", [1, 7])
@pytest.mark.parametrize("target", ["event", "censoring", 1, 2])
def test_predict_many_equals_predict_per_triple(target, n_trees):
    cohort = _tree_cohort()
    model = fit_conditional_survival(
        cohort, target=target, learner="logrank_tree_ensemble",
        n_trees=n_trees, seed=3)
    triples = _row_triples(cohort, 60)
    # the other group, repeated triples and a NaN confounder (routed
    # right at every split on it)
    triples += [(1 - x, z, w) for x, z, w in triples[:20]] + triples[:15]
    triples.append((1, (float("nan"), 0.2), 0))
    many = _triple_curves(model, triples)
    assert len(many) == len(triples)
    for triple, curve in zip(triples, many):
        assert _same_curve(curve, model.predict(*triple))
        _, times, values = _walked_curve(model._forest, _feats(triple),
                                         model.curve_kind)
        assert times.tobytes() == curve.breakpoints.tobytes()
        assert values.tobytes() == curve.values.tobytes()


def test_predict_many_serves_leaves_without_events():
    # events only at z > 0: a row at z = -0.9 reaches, in every tree, a
    # leaf without events, and its curve has no jumps
    n = 200
    z = np.linspace(-1.0, 1.0, n)
    cohort = Cohort([0, 1] * (n // 2), z.tolist(), [0] * n,
                    1.0 + np.arange(n) % 7, (z > 0).astype(int))
    model = fit_conditional_survival(
        cohort, target="event", learner="logrank_tree_ensemble",
        n_trees=5, seed=2)
    triples = [(0, -0.9, 0), (1, 0.9, 0), (1, -0.9, 0), (0, -0.9, 0)]
    many = _triple_curves(model, triples)
    for triple, curve in zip(triples, many):
        assert _same_curve(curve, model.predict(*triple))
    empty = many[0]
    assert empty.breakpoints.size == 0 and empty.value_at_zero == 1.0
    assert many[1].breakpoints.size > 0
    assert _triple_curves(model, []) == []
    # no leaf of the ensemble has a jump
    censored = Cohort([0, 1] * (n // 2), z.tolist(), [0] * n,
                      1.0 + np.arange(n) % 7, [0] * n)
    for target in ("event", 1):
        model = fit_conditional_survival(
            censored, target=target, learner="logrank_tree_ensemble",
            n_trees=3, seed=2)
        for curve in _triple_curves(model, triples):
            assert curve.breakpoints.size == 0
            assert curve.value_at_zero == (0.0 if target == 1 else 1.0)


def test_predict_many_refuses_a_group_label_outside_0_1():
    cohort = _tree_cohort()
    model = fit_conditional_survival(
        cohort, learner="logrank_tree_ensemble", n_trees=2)
    propensity = fit_propensity(cohort, "zw", learner="logistic_irls")
    triples = _row_triples(cohort, 3)
    for bad in (0.5, 2, -1, math.nan):
        with pytest.raises(DataError):
            _triple_curves(model, triples + [(bad,) + triples[0][1:]])
        with pytest.raises(DataError):
            model.predict(bad, *triples[0][1:])
        with pytest.raises(DataError):
            propensity.predict_group(bad, *triples[0][1:])


def test_block_values_hold_one_row_per_leaf_set(monkeypatch):
    cohort = _tree_cohort()
    model = fit_conditional_survival(
        cohort, target="censoring", learner="logrank_tree_ensemble",
        n_trees=4, max_depth=2, seed=5)
    triples = _row_triples(cohort, cohort.n)
    triples += [(1 - x, z, w) for x, z, w in triples]
    sets = [_walked_curve(model._forest, _feats(t), model.curve_kind)[0]
            for t in triples]
    built = count_curves(monkeypatch)
    ((values, jumps, index),) = predict_triples(model, triples)
    # far fewer leaf sets than triples, one row of values for each, and
    # no curve built
    assert built == []
    assert len(values) == len(jumps) == len(set(sets)) < len(triples) // 4
    first = {}
    for leaf_set, row in zip(sets, index.tolist()):
        assert first.setdefault(leaf_set, row) == row


def test_predict_many_blocks_are_bounded_by_the_forest_grid(monkeypatch):
    import fairsurv.nuisance

    cohort = _tree_cohort()
    model = fit_conditional_survival(
        cohort, target="event", learner="logrank_tree_ensemble",
        n_trees=6, seed=4)
    triples = _row_triples(cohort, 100)
    whole = _triple_curves(model, triples)
    forest = model._forest
    # at most 7 triples' curves of union-grid length per block
    monkeypatch.setattr(fairsurv.nuisance, "_BLOCK_ELEMENTS",
                        7 * forest.grid.size + 3)
    blocks = []
    predict = type(forest).predict

    def recorded(self, feats, kind):
        blocks.append(len(feats))
        return predict(self, feats, kind)
    monkeypatch.setattr(type(forest), "predict", recorded)
    blocked = _triple_curves(model, triples)
    assert blocks == [7] * 14 + [2]
    assert all(_same_curve(a, b) for a, b in zip(whole, blocked))
    assert all(curve.breakpoints.size <= forest.grid.size
               for curve in blocked)


def _block_reads(model, x, cohort, rows, times, side):
    """Every row's curve read off ``predict_values`` at ``times``."""
    out = []
    for values, _, index in model.predict_values(x, cohort, rows):
        out.append(values[index[:, None], np.searchsorted(
            model.grid, times, side=side)[None, :]])
    return np.concatenate(out)


@pytest.mark.parametrize("learner, target", [
    ("logrank_tree_ensemble", "event"), ("logrank_tree_ensemble", "censoring"),
    ("logrank_tree_ensemble", 2), ("stratified", 1)])
def test_block_values_read_like_the_curves_bit_for_bit(monkeypatch, learner,
                                                       target):
    # the dense (curves x union grid) values, with the value at zero in
    # front, read at searchsorted(grid, t, side) equal each predicted
    # curve's evaluate (side "right") and left_limit (side "left")
    import fairsurv.nuisance

    if learner == "stratified":
        fitted = sample_cohort(spec_of(make_cr_two_cause()), 600, seed=5)
        model = fit_conditional_survival(fitted, target=target)
        jitter = np.random.default_rng(1).uniform(0.0, 0.5, fitted.n)
        cohort = Cohort(fitted.x, fitted.z_items, fitted.w_items,
                        fitted.m + jitter, fitted.delta)
    else:
        cohort = _tree_cohort()
        model = fit_conditional_survival(
            cohort, target=target, learner=learner, n_trees=6, seed=3)
    # several blocks, and (stratified) many rows sharing one curve
    monkeypatch.setattr(fairsurv.nuisance, "_BLOCK_ELEMENTS",
                        17 * max(model.grid.size, 1))
    rows = np.arange(cohort.n)
    x = np.tile((0, 1), cohort.n)[:cohort.n]
    curves = list(predict_rows(model, x, cohort, rows))
    grid = model.grid
    rng = np.random.default_rng(11)
    times = {
        "union grid": grid,
        "random": np.sort(rng.uniform(0.0, 1.2 * grid[-1], 3000)),
        "observed": cohort.m,
        "below the first jump": np.array([0.0, grid[0] / 2, grid[0]]),
        "past the last jump": grid[-1] + np.array([0.0, 1e-9, 1.0, 1e6]),
    }
    for label, t in times.items():
        for side, read in (("right", "evaluate"), ("left", "left_limit")):
            block = _block_reads(model, x, cohort, rows, t, side)
            want = np.stack([getattr(curve, read)(t) for curve in curves])
            assert block.tobytes() == want.tobytes(), (label, side)
    if learner == "stratified":
        assert len({id(curve) for curve in curves}) < cohort.n // 10


def test_predict_many_can_skip_triples_outside_the_schema():
    cohort = _tree_cohort()
    tree = fit_conditional_survival(
        cohort, learner="logrank_tree_ensemble", n_trees=3, seed=1)
    triples = _row_triples(cohort, 4)
    bad = [(0, ("a", 0.1), 0), (1, (0.2,), 1)]  # non-numeric, too narrow
    table = model_from_curves(
        {(0, 1, 0): tree.predict(*triples[0])}, target="event")
    for model, served, unserved in ((tree, triples, bad),
                                    (table, [(0, 1, 0)], [(1, 1, 0)])):
        got = _triple_curves(model, served[:1] + unserved + served[1:],
                             skip_unserved=True)
        assert got[1:1 + len(unserved)] == [None] * len(unserved)
        kept = got[:1] + got[1 + len(unserved):]
        assert all(_same_curve(curve, model.predict(*triple))
                   for curve, triple in zip(kept, served))
        with pytest.raises(CohortSchemaError):
            list(predict_triples(model, served + unserved))


def test_a_table_model_predicts_its_stored_curve():
    # the stored curve itself, kind and all, not one rebuilt from values
    stored = StepCurve([1.0, 2.0], [0.2, 0.7], 0.0, "generic")
    model = model_from_curves({(1, "a"): stored}, "event")
    assert model.predict(1, "a", 3) is stored
    ((values, jumps, index),) = predict_triples(model, [(1, "a", 3)])
    assert jumps[index[0]].tolist() == [True, True]
    assert values[index[0]].tolist() == [0.0, 0.2, 0.7]


# ---------------------------------------------------------------------------
# One covariate conversion: the columnar model inputs against the per-row
# oracle
# ---------------------------------------------------------------------------

def _multicolumn_cohort(n=200, seed=6):
    """Integer and decimal confounder columns z1, z2 read from a CSV."""
    rng = np.random.default_rng(seed)
    lines = ["x,z1,z2,w,m,delta"] + [
        f"{rng.integers(0, 2)},{rng.integers(0, 3)},"
        f"{rng.integers(0, 40) / 8},{rng.integers(0, 2)},"
        f"{rng.integers(1, 60) / 4},{rng.integers(0, 2)}" for _ in range(n)]
    return Cohort.from_csv("\n".join(lines) + "\n")


def _restyled(cohort, z_of, w_of):
    """``cohort`` with each row's z and w entries mapped by ``z_of`` and
    ``w_of`` (of the row index and the entry)."""
    return Cohort(cohort.x, [z_of(i, v) for i, v in enumerate(cohort.z_items)],
                  [w_of(i, v) for i, v in enumerate(cohort.w_items)],
                  cohort.m, cohort.delta, cohort.n_causes)


def _as_strings(i, v):
    """An entry as numeric strings: " 1" on odd rows, "1.0" on even."""
    text = (lambda u: f" {u}" if i % 2 else repr(float(u)))
    return tuple(map(text, v)) if isinstance(v, tuple) else text(v)


def _partly_unserved(i, v):
    """Every 5th entry not numeric, every 7th of another width."""
    if i % 5 == 0:
        return "abc"
    if i % 7 == 0:
        return v[:1] if isinstance(v, tuple) else (v, v)
    return v


def _conversion_cases(fitted):
    """The cohorts each model of ``fitted`` predicts: itself, string-coded,
    numeric-string, partly unserved, discrete and continuous."""
    return {
        "same": fitted,
        "string-coded": _restyled(fitted, lambda i, v: f"z{v}",
                                  lambda i, v: f"w{v}"),
        "numeric-string": _restyled(fitted, _as_strings, _as_strings),
        "partly unserved": _restyled(fitted, _partly_unserved,
                                     lambda i, v: None if i % 9 == 4 else v),
        "discrete": sample_cohort(spec_of(make_nic_balanced()), 150, seed=3),
        "continuous-z": continuous_confounder_cohort(150, seed=4),
    }


def _conversion_models(fitted):
    """Every learner fitted on ``fitted``; the stratified learner only
    where the covariates are discrete."""
    tree = fit_conditional_survival(fitted, "censoring",
                                    learner="logrank_tree_ensemble",
                                    n_trees=3, seed=2)
    # a table of three strata and no () stratum, so that it serves only
    # some rows of group 1
    first = _row_triples(fitted, 2)
    curves = {first[0]: tree.predict(*first[0]),
              first[1][:2]: tree.predict(*first[1]),
              (0,): tree.predict(0, *first[0][1:])}
    survival = {
        "tree": tree,
        "tree cif": fit_conditional_survival(
            fitted, 1, learner="logrank_tree_ensemble", n_trees=2, seed=5),
        "curve table": model_from_curves(curves, "event"),
    }
    if np.unique(fitted.z_codes).size <= 128:
        survival["stratified"] = fit_conditional_survival(fitted, "event")
    propensity = {
        f"{learner} {conditioning}": fit_propensity(
            fitted, conditioning, learner=learner)
        for learner in ("frequency_table", "logistic_irls")
        for conditioning in ("z", "zw")}
    return survival, propensity


def _outcome(call):
    """What ``call()`` returns, or the class and message it raises."""
    try:
        return call()
    except (CohortSchemaError, DataError) as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize("fitted", ["discrete", "multi-column",
                                    "continuous-z"])
def test_model_inputs_equal_the_per_row_oracle_bytewise(monkeypatch, fitted):
    import fairsurv.nuisance

    fitted = {
        "discrete": lambda: sample_cohort(spec_of(make_nic_balanced()), 300,
                                          seed=2),
        "multi-column": _multicolumn_cohort,
        "continuous-z": lambda: continuous_confounder_cohort(300, seed=9),
    }[fitted]()
    survival, propensity = _conversion_models(fitted)
    raised, skipped = set(), set()
    for case, cohort in _conversion_cases(fitted).items():
        rng = np.random.default_rng(len(case))
        rows = rng.integers(0, cohort.n, cohort.n + 40)  # repeats, any order
        for x in (rng.integers(0, 2, rows.size), 1):
            for name, model in survival.items():
                # several blocks of a few dozen rows
                monkeypatch.setattr(fairsurv.nuisance, "_BLOCK_ELEMENTS",
                                    37 * max(model.grid.size, 1))
                for skip in (False, True):
                    got, want = (_outcome(lambda: list(predict(
                        model, x, cohort, rows, skip_unserved=skip)))
                        for predict in (type(model).predict_values,
                                        reference_predict_values))
                    label = (case, name, skip)
                    if isinstance(want, tuple):
                        assert got == want, label
                        raised.add(name)
                        continue
                    assert len(got) == len(want) > 1, label
                    for block, oracle in zip(got, want):
                        for a, b in zip(block, oracle):
                            assert a.dtype == b.dtype, label
                            assert a.shape == b.shape, label
                            assert a.tobytes() == b.tobytes(), label
                    if any((index < 0).any() for _, _, index in got):
                        skipped.add(name)
        for name, model in propensity.items():
            got = _outcome(lambda: model.predict_many(cohort, rows))
            want = _outcome(lambda: reference_propensities(model, cohort,
                                                           rows))
            if isinstance(want, tuple):
                assert got == want, (case, name)
                raised.add(name)
            else:
                assert got.dtype == want.dtype, (case, name)
                assert got.shape == want.shape == (rows.size, 2), (case, name)
                assert got.tobytes() == want.tobytes(), (case, name)
    # the cases reach every unserved path
    assert {"tree", "tree cif", "curve table", "logistic_irls z",
            "logistic_irls zw"} <= raised
    assert {"tree", "tree cif", "curve table"} <= skipped


def test_each_prediction_converts_each_distinct_entry_once(monkeypatch):
    import fairsurv.nuisance

    rng = np.random.default_rng(8)
    n = 1000
    x = rng.integers(0, 2, n)
    cohort = Cohort(x, rng.choice([-0.5, 0.25, 1.5], n).tolist(),
                    rng.integers(0, 2, n).tolist(),
                    np.round(rng.exponential(1.0, n), 2) + 0.01,
                    rng.integers(0, 2, n))
    tree = fit_conditional_survival(cohort, learner="logrank_tree_ensemble",
                                    n_trees=2, seed=1)
    logistic = fit_propensity(cohort, "zw", learner="logistic_irls")
    calls = []
    convert = fairsurv.nuisance._numeric_vector

    def counted(item, *args, **kwargs):
        calls.append(item)
        return convert(item, *args, **kwargs)
    monkeypatch.setattr(fairsurv.nuisance, "_numeric_vector", counted)
    monkeypatch.setattr(fairsurv.nuisance, "_BLOCK_ELEMENTS",
                        300 * tree.grid.size)
    rows = np.arange(n)
    blocks = 0
    for _ in tree.predict_values(x, cohort, rows):
        assert 0 < len(calls) <= 5  # 3 z entries and 2 w entries
        calls.clear()
        blocks += 1
    assert blocks == 4
    logistic.predict_many(cohort, rows)
    assert 0 < len(calls) <= 5


def _logistic_rows(rng, n, width):
    """Random feature rows of ``width`` columns, a share of them scaled
    past exp's overflow cutoff under a unit-scale beta."""
    scale = rng.choice([0.5, 4.0, 60.0, 900.0], size=(n, 1))
    return np.round(rng.normal(size=(n, width)) * scale, 3)


@pytest.mark.parametrize("split", [(1, 0), (2, 0), (3, 0), (4, 0), (5, 0),
                                   (6, 0), (2, 3), (1, 5)])
def test_logistic_probability_is_the_per_row_dot_bit_for_bit(split):
    # every row's probability is _expit(np.dot(beta, row)) as bits, for
    # design rows (1, z, w) of widths 2 to 7; epsilon 0 clips nothing
    n, width = 20_000, sum(split)
    rng = np.random.default_rng(width * 10 + split[1])
    feats = _logistic_rows(rng, n, width)
    beta = rng.normal(size=width + 1)
    z, w = feats[:, :split[0]], feats[:, split[0]:]
    entries = (lambda block: block[:, 0].tolist() if block.shape[1] == 1
               else list(map(tuple, block.tolist())))
    cohort = Cohort([0] * n, entries(z), entries(w) if split[1] else [0] * n,
                    [1.0] * n, [0] * n)
    model = PropensityModel("logistic_irls", "zw" if split[1] else "z", 0.0,
                            {}, beta=beta, marginal=0.5,
                            widths=split if split[1] else split[:1])
    got = model.predict_many(cohort, np.arange(n))[:, 1]
    dots = [float(np.dot(beta, [1.0] + row)) for row in feats.tolist()]
    assert min(dots) < -709.0 and max(dots) > 709.0
    assert got.tobytes() == np.array([_expit(v) for v in dots]).tobytes()


# ---------------------------------------------------------------------------
# Censoring-hazard increments
# ---------------------------------------------------------------------------

def test_single_censoring_among_four_at_risk_gives_one_quarter():
    m = np.array([2.0, 3.0, 3.0, 3.0])
    d = np.array([0, 1, 1, 1])
    cohort = Cohort([0] * 4, _const_cov(4), _const_cov(4), m, d)
    model = fit_conditional_survival(cohort, target="censoring")
    inc = predict_censoring_hazard_increments(model, (0, 0, 0), [5.0])
    assert inc == [(2.0, 0.25)]


def test_increments_resum_to_the_nelson_aalen_curve():
    raw = make_nic_balanced()
    cohort = sample_cohort(spec_of(raw), 800, seed=19)
    model = fit_conditional_survival(cohort, target="censoring")
    sel = (cohort.x == 0) & (np.array(cohort.z_items) == 1) & (
        np.array(cohort.w_items) == 0)
    sub = cohort.subset(sel)
    na = nelson_aalen(sub.m, (sub.delta == 0).astype(int))
    pairs = predict_censoring_hazard_increments(
        model, (0, 1, 0), [float(sub.m.max())]
    )
    times = np.array([t for t, _ in pairs])
    cum = np.cumsum([v for _, v in pairs])
    np.testing.assert_array_equal(times, na.breakpoints)
    np.testing.assert_allclose(cum, na.values, atol=1e-12)


def test_no_censoring_means_no_increments():
    cohort = Cohort([0] * 5, _const_cov(5), _const_cov(5),
                    [1.0, 2.0, 3.0, 4.0, 5.0], [1] * 5)
    model = fit_conditional_survival(cohort, target="censoring")
    assert predict_censoring_hazard_increments(model, (0, 0, 0), [9.0]) == []


def test_increments_capped_at_grid_maximum():
    m = np.array([1.0, 2.0, 3.0, 4.0])
    d = np.array([0, 0, 0, 0])
    cohort = Cohort([0] * 4, _const_cov(4), _const_cov(4), m, d)
    model = fit_conditional_survival(cohort, target="censoring")
    pairs = predict_censoring_hazard_increments(model, (0, 0, 0), [2.5])
    assert [t for t, _ in pairs] == [1.0, 2.0]


def test_increments_require_a_censoring_model():
    cohort = Cohort([0] * 3, _const_cov(3), _const_cov(3),
                    [1.0, 2.0, 3.0], [1, 0, 1])
    model = fit_conditional_survival(cohort, target="event")
    with pytest.raises(EstimationError):
        predict_censoring_hazard_increments(model, (0, 0, 0), [3.0])


def test_spec_table_increments_match_the_generative_hazard():
    spec = spec_of(make_nic_balanced())
    model = survival_model_from_spec(spec, "censoring")
    for x, z, w in spec.strata():
        times, incs = censor_hazard_increments(spec, x, z, w)
        pairs = predict_censoring_hazard_increments(
            model, (x, z, w), [float(np.max(times))]
        )
        np.testing.assert_allclose([t for t, _ in pairs], times, atol=0)
        np.testing.assert_allclose([v for _, v in pairs], incs, atol=1e-12)


# ---------------------------------------------------------------------------
# Exact tables read off a generative spec
# ---------------------------------------------------------------------------

def test_spec_table_model_reproduces_the_laws():
    spec = spec_of(make_nic_balanced())
    model = survival_model_from_spec(spec, "event")
    grid = event_support(spec)
    for x, z, w in spec.strata():
        np.testing.assert_allclose(
            model.predict(x, z, w).evaluate(grid),
            spec.conditional_survival(x, z, w).evaluate(grid),
            atol=0,
        )


def test_curve_table_without_marginal_rejects_unknown_strata():
    curve = StepCurve([1.0], [0.5])
    model = model_from_curves({(0, 0, 0): curve}, "event")
    with pytest.raises(CohortSchemaError):
        model.predict(1, 1, 1)


# ---------------------------------------------------------------------------
# Propensities
# ---------------------------------------------------------------------------

def test_frequency_table_equals_stratum_fraction():
    x = [1, 1, 0, 1, 0, 0, 0, 1]
    z = [0, 0, 0, 0, 1, 1, 1, 1]
    cohort = Cohort(x, z, _const_cov(8), [1.0] * 8, [1] * 8)
    model = fit_propensity(cohort, "z", epsilon=0.01)
    assert model.predict(z=0) == pytest.approx(0.75, abs=0)
    assert model.predict(z=1) == pytest.approx(0.25, abs=0)


def test_joint_conditioning_uses_both_columns():
    x = [1, 0, 1, 1, 0, 0]
    z = [0, 0, 0, 0, 1, 1]
    w = [0, 0, 1, 1, 0, 0]
    cohort = Cohort(x, z, w, [1.0] * 6, [1] * 6)
    model = fit_propensity(cohort, "zw", epsilon=0.01)
    assert model.predict(z=0, w=0) == pytest.approx(0.5, abs=0)
    assert model.predict(z=0, w=1) == pytest.approx(0.99, abs=0)  # clipped 1.0
    assert model.predict_group(0, z=0, w=1) == pytest.approx(0.01, abs=1e-12)


def test_group_probabilities_sum_to_one_exactly():
    raw = make_nic_balanced()
    cohort = sample_cohort(spec_of(raw), 500, seed=23)
    for learner in ("frequency_table", "logistic_irls"):
        model = fit_propensity(cohort, "zw", learner=learner)
        for z in (0, 1):
            for w in (0, 1):
                total = model.predict_group(0, z, w) + model.predict_group(1, z, w)
                assert total == pytest.approx(1.0, abs=0)


def test_independent_groups_predict_near_half():
    rng = np.random.default_rng(29)
    n = 4000
    cohort = Cohort(
        rng.integers(0, 2, n), rng.integers(0, 2, n), rng.integers(0, 2, n),
        np.ones(n), [1] * n,
    )
    model = fit_propensity(cohort, "z", epsilon=1e-9)
    for z in (0, 1):
        assert abs(model.predict(z=z) - 0.5) < 2.0 * math.sqrt(0.25 / (n / 2))


def test_marginal_prediction_matches_bundled_imbalance():
    spec = bundled_scenario()
    cohort = sample_cohort(spec, 100000, seed=31)
    model = fit_propensity(cohort, "z", epsilon=0.001)
    assert abs(model.group_fractions[0] - 0.042) <= 0.005


def test_spec_table_propensities_are_exact():
    spec = bundled_scenario()
    model_z = propensity_from_spec(spec, "z")
    assert model_z.predict(z=0) == pytest.approx(0.52 / 0.545, abs=1e-15)
    assert model_z.predict(z=1) == pytest.approx(0.438 / 0.455, abs=1e-15)
    model_zw = propensity_from_spec(spec, "zw")
    # joint masses by Bayes: P(x=1, w=1 | z=0) = 0.52/0.545 * 0.60
    expect = (0.52 * 0.60) / (0.52 * 0.60 + 0.025 * 0.25)
    assert model_zw.predict(z=0, w=1) * (1 + 0) == pytest.approx(
        expect, rel=1e-12
    )
    assert model_z.group_fractions[1] == pytest.approx(0.958, abs=1e-15)


def test_logistic_irls_matches_reference_mle():
    # Reference fit computed with a general-purpose optimizer; the
    # probabilities below are frozen from that run.
    z = [0, 0, 0, 0, 1, 1, 1, 1, 2, 2, 2, 2]
    w = [0, 0, 1, 1, 0, 0, 1, 1, 0, 0, 1, 1]
    x = [0, 0, 0, 1, 0, 1, 1, 1, 0, 1, 1, 1]
    cohort = Cohort(x, z, w, [1.0] * 12, [1] * 12)
    model = fit_propensity(cohort, "zw", learner="logistic_irls", epsilon=1e-6)
    assert model.predict(z=0, w=0) == pytest.approx(0.0550230781, abs=1e-6)
    assert model.predict(z=1, w=1) == pytest.approx(0.9054582955, abs=1e-6)
    assert model.predict(z=2, w=0) == pytest.approx(0.6832924441, abs=1e-6)
    assert model.predict(z=2, w=1) == pytest.approx(0.9831361632, abs=1e-6)
    assert model.fit_report["converged"]


def test_expit_helper_matches_scipy_bit_for_bit():
    from scipy.special import expit

    rng = np.random.default_rng(4)
    v = np.concatenate(
        [rng.normal(scale=s, size=20_000) for s in (0.5, 2.0, 10.0, 40.0)]
        + [[709.0, -709.0, -709.5, 710.0, -710.0, 800.0, -800.0, 0.0,
            -0.0, np.nan]])
    got = np.array([_expit(item) for item in v.tolist()])
    assert got.tobytes() == expit(v).tobytes()
    assert _expit_array(v).tobytes() == expit(v).tobytes()


def _logistic_cohort(z=None, w=None):
    n = 40
    z = [(i * 7 % 11) / 10 for i in range(n)] if z is None else z
    w = [i % 3 for i in range(n)] if w is None else w
    return Cohort(x=[int(i * 5 % 7 < 3) for i in range(n)], z=z, w=w,
                  m=[1.0 + i % 4 for i in range(n)], delta=[1] * n)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_logistic_learner_refuses_non_finite_covariates(bad):
    z = [(i * 7 % 11) / 10 for i in range(40)]
    w = [float(i % 3) for i in range(40)]
    z[5], w[6] = bad, bad
    for cohort, conditioning in ((_logistic_cohort(z=z), "z"),
                                 (_logistic_cohort(w=w), "zw")):
        with pytest.raises(CohortSchemaError):
            fit_propensity(cohort, conditioning, learner="logistic_irls")
    # a non-finite column the model does not condition on is not read
    fit_propensity(_logistic_cohort(w=w), "z", learner="logistic_irls")
    model = fit_propensity(_logistic_cohort(), "zw", learner="logistic_irls")
    for z_value, w_value in ((bad, 1), (0.5, bad)):
        with pytest.raises(CohortSchemaError):
            model.predict(z_value, w_value)
        with pytest.raises(CohortSchemaError):
            model.predict_group(0, z_value, w_value)


def test_logistic_predict_accepts_numeric_strings():
    z = [0, 0, 0, 0, 1, 1, 1, 1, 2, 2, 2, 2]
    w = [0, 0, 1, 1, 0, 0, 1, 1, 0, 0, 1, 1]
    x = [0, 0, 0, 1, 0, 1, 1, 1, 0, 1, 1, 1]
    cohort = Cohort(x, z, w, [1.0] * 12, [1] * 12)
    model = fit_propensity(cohort, "zw", learner="logistic_irls", epsilon=1e-6)
    assert model.predict(z="1.5", w="1") == model.predict(z=1.5, w=1)
    with pytest.raises(CohortSchemaError):
        model.predict(z="abc", w=1)


def test_unseen_stratum_backs_off_to_the_marginal():
    x = [1, 0, 1, 0]
    z = [0, 0, 1, 1]
    cohort = Cohort(x, z, _const_cov(4), [1.0] * 4, [1] * 4)
    model = fit_propensity(cohort, "z", epsilon=0.01)
    assert model.predict(z=9) == pytest.approx(0.5, abs=0)


def test_propensity_validation_errors():
    cohort = Cohort([1, 1, 1], [0, 1, 0], _const_cov(3), [1.0] * 3, [1] * 3)
    with pytest.raises(DegenerateGroupError):
        fit_propensity(cohort, "z")
    both = Cohort([0, 1], [0, 1], [0, 0], [1.0, 1.0], [1, 1])
    with pytest.raises(DataError):
        fit_propensity(both, "z", epsilon=0.0)
    with pytest.raises(DataError):
        fit_propensity(both, "z", epsilon=0.5)
    for conditioning in ("q", "marginal", ""):
        with pytest.raises(DataError, match="conditioning must be 'z' or "
                                            "'zw'"):
            fit_propensity(both, conditioning)
    with pytest.raises(DataError):
        fit_propensity(both, "z", learner="nonesuch")
    model = fit_propensity(both, "zw")
    with pytest.raises(DataError):
        model.predict()  # conditioning columns missing


# ---------------------------------------------------------------------------
# Properties
# ---------------------------------------------------------------------------

@st.composite
def tiny_cohorts(draw):
    n = draw(st.integers(min_value=4, max_value=40))
    x = draw(
        st.lists(st.integers(0, 1), min_size=n, max_size=n).filter(
            lambda v: 0 < sum(v) < len(v)
        )
    )
    z = draw(st.lists(st.integers(0, 2), min_size=n, max_size=n))
    w = draw(st.lists(st.integers(0, 1), min_size=n, max_size=n))
    m = draw(
        st.lists(
            st.floats(0.1, 50.0, allow_nan=False, allow_infinity=False),
            min_size=n, max_size=n,
        )
    )
    d = draw(st.lists(st.integers(0, 1), min_size=n, max_size=n))
    return Cohort(x, z, w, m, d)


@given(tiny_cohorts())
@settings(max_examples=40, deadline=None)
def test_stratified_predictions_are_valid_curves(cohort):
    model = fit_conditional_survival(cohort, target="event")
    for i in range(cohort.n):
        curve = model.predict(cohort.x[i], cohort.z_items[i], cohort.w_items[i])
        vals = np.concatenate(([curve.value_at_zero], curve.values))
        assert np.all(vals >= -1e-12) and np.all(vals <= 1.0 + 1e-12)
        assert np.all(np.diff(vals) <= 1e-12)


@given(tiny_cohorts())
@settings(max_examples=20, deadline=None)
def test_propensity_predictions_stay_clipped(cohort):
    model = fit_propensity(cohort, "zw", epsilon=0.05)
    for i in range(cohort.n):
        p = model.predict(cohort.z_items[i], cohort.w_items[i])
        assert 0.05 <= p <= 0.95
