"""Weighted plug-in and direct-summation potential-outcome estimators."""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fairsurv.cge import route1_conditional
from fairsurv.copulas import CopulaSpec
from fairsurv.curves import StepCurve
from fairsurv.dr import (
    FoldPlan,
    crossfit_dr_many,
    evaluate_influence,
    fit_dr_nuisances,
)
from fairsurv.errors import DataError
from fairsurv.cli import _resolve_grid
from fairsurv.identify import (
    default_grid,
    fit_plugin_nuisances,
    plugin_po_many,
    time_quantiles,
)
from fairsurv.queries import Functional, PotentialOutcomeQuery, role_queries
from fairsurv.scm import Cohort, SCMSpec, oracle_po_curve, sample_cohort

from testkit import (
    CohortTables,
    continuous_confounder_cohort,
    count_curves,
    count_predictions,
    count_propensity_calls,
    empirical_tables,
    event_support,
    exact_plugin_po,
    functional_from_curve,
    make_nic_balanced,
    make_severed,
    model_from_curves,
    plugin_po,
    reference_plugin_po_many,
    restricted_mean,
    spec_of,
)

SURVIVAL = Functional("survival")


def _nic_cohort(n, seed):
    return spec_of(make_nic_balanced()), sample_cohort(
        spec_of(make_nic_balanced()), n, seed=seed
    )


def _unclipped_nuisances(cohort, functional=SURVIVAL):
    return fit_plugin_nuisances(cohort, functional, epsilon=1e-12)


# ---------------------------------------------------------------------------
# Telescoping and oracle agreement
# ---------------------------------------------------------------------------

def test_observational_query_is_the_conditional_mean():
    spec, cohort = _nic_cohort(4000, seed=41)
    nuis = _unclipped_nuisances(cohort)
    grid = event_support(spec)
    for x in (0, 1):
        curve = plugin_po(
            nuis, cohort, PotentialOutcomeQuery.observational(x), SURVIVAL, grid
        )
        rows = np.flatnonzero(cohort.x == x)
        direct = np.zeros(grid.size)
        for i in rows:
            f = functional_from_curve(
                nuis.outcome.predict(x, cohort.z_items[i], cohort.w_items[i]),
                SURVIVAL,
                grid,
            )
            direct += f
        direct /= rows.size
        assert np.max(np.abs(curve.evaluate(grid) - direct)) <= 1e-10


def test_severed_pathways_make_all_queries_agree():
    spec = spec_of(make_severed())
    cohort = sample_cohort(spec, 50000, seed=43)
    nuis = _unclipped_nuisances(cohort)
    grid = event_support(spec)
    reference = None
    for xo in (0, 1):
        for xm in (0, 1):
            for xc in (0, 1):
                curve = plugin_po(
                    nuis, cohort, PotentialOutcomeQuery(xo, xm, xc),
                    SURVIVAL, grid,
                ).evaluate(grid)
                if reference is None:
                    reference = curve
                else:
                    assert np.max(np.abs(curve - reference)) <= 0.03


def test_plugin_tracks_enumeration_oracle_at_scale():
    spec, cohort = _nic_cohort(100000, seed=47)
    nuis = fit_plugin_nuisances(cohort, SURVIVAL)
    grid = event_support(spec)
    for q in (
        PotentialOutcomeQuery(1, 0, 0),
        PotentialOutcomeQuery(0, 1, 1),
        PotentialOutcomeQuery(1, 1, 0),
    ):
        est = plugin_po(nuis, cohort, q, SURVIVAL, grid).evaluate(grid)
        truth = oracle_po_curve(spec, q, SURVIVAL, grid).evaluate(grid)
        assert np.max(np.abs(est - truth)) <= 0.02


# ---------------------------------------------------------------------------
# Direct summation form
# ---------------------------------------------------------------------------

def test_exact_summation_matches_weighted_plugin():
    spec, cohort = _nic_cohort(3000, seed=53)
    nuis = _unclipped_nuisances(cohort)
    tables = empirical_tables(cohort)
    grid = event_support(spec)
    for q in (
        PotentialOutcomeQuery(1, 0, 0),
        PotentialOutcomeQuery(0, 0, 1),
        PotentialOutcomeQuery.observational(0),
    ):
        a = plugin_po(nuis, cohort, q, SURVIVAL, grid).evaluate(grid)
        b = exact_plugin_po(nuis.outcome, tables, q, SURVIVAL, grid).evaluate(grid)
        assert np.max(np.abs(a - b)) <= 1e-10


def test_uniform_tables_average_the_functional():
    levels = {(0, 0): 0.9, (0, 1): 0.7, (1, 0): 0.6, (1, 1): 0.2}
    curves = {
        (0, z, w): StepCurve([1.0], [v]) for (z, w), v in levels.items()
    }
    model = model_from_curves(curves, "event")
    tables = CohortTables(
        group={0: 0.5, 1: 0.5},
        confounder={x: {0: 0.5, 1: 0.5} for x in (0, 1)},
        mediator={(x, z): {0: 0.5, 1: 0.5} for x in (0, 1) for z in (0, 1)},
    )
    curve = exact_plugin_po(
        model, tables, PotentialOutcomeQuery(0, 1, 1), SURVIVAL, [1.0]
    )
    assert curve.evaluate(1.0) == pytest.approx(0.6, abs=1e-15)


def test_exact_summation_agrees_with_generic_oracle_on_same_tables():
    # Rebuild a generative spec whose laws ARE the fitted tables; its
    # enumeration oracle must then match the summation to rounding.
    spec, cohort = _nic_cohort(3000, seed=59)
    nuis = _unclipped_nuisances(cohort)
    tables = empirical_tables(cohort)
    event_laws = {}
    for x in (0, 1):
        for z in spec.z_support:
            for w in spec.w_support:
                km = nuis.outcome.predict(x, z, w)
                law = {}
                prev = km.value_at_zero
                for t, v in zip(km.breakpoints, km.values):
                    law[float(t)] = prev - v
                    prev = v
                law[math.inf] = prev
                event_laws[(x, z, w)] = law
    rebuilt = SCMSpec(
        z_support=spec.z_support,
        w_support=spec.w_support,
        p_xz={
            (x, z): tables.group[x] * pz
            for x in (0, 1)
            for z, pz in tables.confounder[x].items()
        },
        p_w_given_xz=tables.mediator,
        event_laws=event_laws,
        censor_law={key: {99.0: 1.0} for key in event_laws},
    )
    grid = event_support(spec)
    for q in (PotentialOutcomeQuery(1, 0, 0), PotentialOutcomeQuery(0, 1, 1)):
        a = exact_plugin_po(nuis.outcome, tables, q, SURVIVAL, grid).evaluate(grid)
        b = oracle_po_curve(rebuilt, q, SURVIVAL, grid).evaluate(grid)
        assert np.max(np.abs(a - b)) <= 1e-12


def test_exact_summation_reports_missing_strata():
    tables = CohortTables(
        group={0: 0.5, 1: 0.5},
        confounder={0: {0: 1.0}, 1: {0: 1.0}},
        mediator={(0, 0): {0: 1.0}},
    )
    model = model_from_curves(
        {(): StepCurve([1.0], [0.5])}, "event"
    )
    with pytest.raises(DataError):
        exact_plugin_po(
            model, tables, PotentialOutcomeQuery(0, 1, 0), SURVIVAL, [1.0]
        )


# ---------------------------------------------------------------------------
# Weights, projection, bookkeeping
# ---------------------------------------------------------------------------

def test_weight_mean_is_one_with_unclipped_tables():
    _, cohort = _nic_cohort(5000, seed=61)
    nuis = _unclipped_nuisances(cohort)
    for q in (
        PotentialOutcomeQuery(0, 1, 0),
        PotentialOutcomeQuery(1, 0, 1),
        PotentialOutcomeQuery(1, 1, 1),
    ):
        _, report = plugin_po(
            nuis, cohort, q, SURVIVAL, [1.0, 2.0], return_report=True
        )
        assert report["mean_weight"] == pytest.approx(1.0, abs=1e-9)
        assert report["n_excluded"] == 0


def test_rmst_equals_integrated_survival_curve():
    spec, cohort = _nic_cohort(2500, seed=67)
    nuis = _unclipped_nuisances(cohort)
    grid = np.unique(cohort.m[cohort.delta > 0])
    q = PotentialOutcomeQuery(1, 0, 0)
    surv = plugin_po(nuis, cohort, q, SURVIVAL, grid)
    rmst = plugin_po(nuis, cohort, q, Functional("rmst", horizon=3.0), grid)
    for t in grid:
        direct = restricted_mean(surv, min(float(t), 3.0))
        assert rmst.evaluate(t) == pytest.approx(direct, abs=1e-10)


def test_rmst_without_horizon_integrates_up_to_each_grid_time():
    curve = StepCurve([1.0, 2.5, 4.0], [0.8, 0.5, 0.1])
    grid = np.array([0.5, 1.0, 2.0, 3.0, 6.0])
    values = functional_from_curve(curve, Functional("rmst"), grid)
    want = [restricted_mean(curve, t) for t in grid]
    np.testing.assert_allclose(values, want, rtol=0, atol=1e-15)
    np.testing.assert_allclose(values, [0.5, 1.0, 1.8, 2.45, 3.15],
                               rtol=0, atol=1e-12)


def test_cumulative_hazard_matches_oracle_shape():
    spec, cohort = _nic_cohort(60000, seed=71)
    nuis = fit_plugin_nuisances(cohort, Functional("cumulative_hazard"))
    grid = event_support(spec)
    q = PotentialOutcomeQuery(1, 1, 1)
    est = plugin_po(nuis, cohort, q, Functional("cumulative_hazard"), grid)
    truth = oracle_po_curve(spec, q, Functional("cumulative_hazard"), grid)
    assert est.kind == "hazard"
    assert np.max(np.abs(est.evaluate(grid) - truth.evaluate(grid))) <= 0.05


def test_projection_distance_reported_when_clipping_inflates():
    cohort = Cohort([1, 1, 1, 0], [0, 0, 1, 1], [0, 0, 0, 0],
                    [1.0] * 4, [1] * 4)
    model = model_from_curves(
        {(): StepCurve([1.0], [1.0])}, "event"
    )
    nuis = fit_plugin_nuisances(cohort, SURVIVAL, epsilon=0.3)
    nuis = type(nuis)(
        outcome=model,
        propensity_zw=nuis.propensity_zw,
        propensity_z=nuis.propensity_z,
    )
    curve, report = plugin_po(
        nuis, cohort, PotentialOutcomeQuery(0, 0, 0), SURVIVAL, [1.0],
        return_report=True,
    )
    assert report["mean_weight"] == pytest.approx(4.0 / 3.0, abs=1e-12)
    assert report["projection_distance"] == pytest.approx(1.0 / 3.0, abs=1e-12)
    assert curve.evaluate(1.0) == 1.0


def test_rows_outside_model_schema_are_dropped_and_counted():
    x = [0, 0, 1, 1, 0, 1]
    z = [0, 0, 0, 0, 1, 1]
    w = [0, 1, 0, 1, 1, 1]
    cohort = Cohort(x, z, w, [1.0] * 6, [1] * 6)
    curves = {
        (0, 0, 0): StepCurve([1.0], [0.8]),
        (0, 0, 1): StepCurve([1.0], [0.6]),
    }
    model = model_from_curves(curves, "event")
    nuis = fit_plugin_nuisances(cohort, SURVIVAL, epsilon=1e-12)
    nuis = type(nuis)(
        outcome=model,
        propensity_zw=nuis.propensity_zw,
        propensity_z=nuis.propensity_z,
    )
    _, report = plugin_po(
        nuis, cohort, PotentialOutcomeQuery(0, 0, 0), SURVIVAL, [1.0],
        return_report=True,
    )
    assert report["n_excluded"] == 2  # the two (z=1, w=1) rows


def test_clipped_propensities_keep_every_mean_weight_at_one():
    # group 1 is 21 of 4,000 rows, at most 6 in each of four (z, w) cells
    # of 1,000: P(X = 1) is under epsilon = 0.01 in every cell and in the
    # cohort, so every propensity clips and each weight is a ratio of
    # equal clipped values
    rng = np.random.default_rng(5)
    n = 4000
    z, w = np.repeat([0, 0, 1, 1], 1000), np.repeat([0, 1, 0, 1], 1000)
    x = np.zeros(n, dtype=int)
    x[np.concatenate([rng.choice(np.flatnonzero(cell), size, replace=False)
                      for cell, size in zip(
                          ((z == a) & (w == b) for a in (0, 1)
                           for b in (0, 1)), (6, 5, 5, 5))])] = 1
    cohort = Cohort(x, z.tolist(), w.tolist(),
                    np.round(rng.exponential(2.0, n), 1) + 0.1,
                    rng.integers(0, 2, n))
    assert x.sum() == 21
    nuis = fit_plugin_nuisances(cohort, SURVIVAL)
    for model in (nuis.propensity_zw, nuis.propensity_z):
        assert model.fit_report["clip_rate"] == 1.0
    queries, grid = role_queries(0, 1), [1.0, 2.0, 4.0]
    for q, (curve, report) in plugin_po_many(nuis, cohort, queries, SURVIVAL,
                                             grid).items():
        assert report["mean_weight"] == 1.0, q
        assert report["max_weight"] == 1.0, q
        assert np.all(np.isfinite(curve.evaluate(grid)))
    (curves,) = route1_conditional(
        cohort, [CopulaSpec("clayton", 0.5)],
        replace(nuis, outcome=None), queries, grid)
    for curve in curves.values():
        values = curve.evaluate(grid)
        assert np.all((values >= 0.0) & (values <= 1.0))


def _partly_served(cohort):
    """Plug-in nuisances of `cohort` whose outcome model serves group 1
    everywhere but group 0 only at z = 0."""
    model = model_from_curves({
        (0, 0, 0): StepCurve([1.0, 2.0], [0.8, 0.5]),
        (0, 0, 1): StepCurve([1.5], [0.6]),
        (1,): StepCurve([0.5, 2.5], [0.9, 0.3]),
    }, "event")
    return replace(fit_plugin_nuisances(cohort, SURVIVAL), outcome=model)


@pytest.mark.parametrize("functional", [
    SURVIVAL, Functional("rmst", horizon=2.0),
    Functional("cumulative_hazard")])
def test_plugin_po_many_equals_one_query_calls(functional):
    _, cohort = _nic_cohort(600, seed=29)
    grid = [0.5, 1.0, 2.0, 3.0]
    queries = role_queries(0, 1)
    for nuis in (fit_plugin_nuisances(cohort, SURVIVAL),
                 _partly_served(cohort)):
        many = plugin_po_many(nuis, cohort, queries, functional, grid)
        assert list(many) == queries
        for q in queries:
            curve, report = plugin_po(nuis, cohort, q, functional, grid,
                                      return_report=True)
            assert np.array_equal(many[q][0].values, curve.values)
            assert many[q][1] == report
    # group 0 cannot be served at z = 1, so the rows there are dropped
    excluded = {q: many[q][1]["n_excluded"] for q in queries}
    assert all((n > 0) == (q.x_outcome == 0) for q, n in excluded.items())


def _learner_nuisances(learner, functional):
    """A cohort and its plug-in nuisances for ``functional``: stratified
    on a discrete cohort, trees with logistic propensities on a continuous
    confounder, or `_partly_served`."""
    if learner == "tree":
        cohort = continuous_confounder_cohort(200, 4)
        return cohort, fit_plugin_nuisances(
            cohort, functional, outcome_learner="logrank_tree_ensemble",
            outcome_params={"n_trees": 4, "seed": 1},
            propensity_learner="logistic_irls")
    _, cohort = _nic_cohort(600, seed=29)
    if learner == "partly_served":
        return cohort, _partly_served(cohort)
    return cohort, fit_plugin_nuisances(cohort, functional)


@pytest.mark.parametrize("functional", [
    SURVIVAL, Functional("cif", cause=1), Functional("all_cause_survival"),
    Functional("cumulative_hazard"), Functional("rmst")])
@pytest.mark.parametrize("learner", ["stratified", "tree", "partly_served"])
def test_plugin_po_many_equals_the_per_cell_oracle(learner, functional):
    # the block functionals add the same terms in the same order as the
    # per-cell loop, on grids and horizons before, between, on and past
    # the model's jump times; a one-point grid is where np.add.reduce
    # would sum the cells pairwise
    cohort, nuis = _learner_nuisances(learner, functional)
    t = nuis.outcome.grid
    between = (t[t.size // 2] + t[t.size // 2 + 1]) / 2
    grids = [[between], [0.0, t[0] / 2, t[0], between, t[-1], t[-1] + 1.0]]
    functionals = [functional]
    if functional.kind == "rmst":
        functionals += [Functional("rmst", horizon=h)
                        for h in (t[0] / 2, between, t[-1] + 1.0)]
    queries = role_queries(0, 1)
    for grid in grids:
        for f in functionals:
            got = plugin_po_many(nuis, cohort, queries, f, grid)
            want = reference_plugin_po_many(nuis, cohort, queries, f, grid)
            for q in queries:
                assert got[q][0].values.tobytes() == \
                    want[q][0].values.tobytes(), (grid, f, q)
                assert got[q][1] == want[q][1]
    if learner == "partly_served":
        assert any(got[q][1]["n_excluded"] > 0 for q in queries)


def test_plugin_po_many_builds_no_step_curve(monkeypatch):
    # tree learner: the functional is read off block values, so no cell's
    # curve is built
    cohort, nuis = _learner_nuisances("tree", SURVIVAL)
    built = count_curves(monkeypatch)
    plugin_po_many(nuis, cohort, role_queries(0, 1), SURVIVAL, [0.5, 1.0])
    assert built == []


def test_plugin_po_many_predicts_each_group_and_cell_once(monkeypatch):
    _, cohort = _nic_cohort(600, seed=31)
    nuis = fit_plugin_nuisances(cohort, SURVIVAL)
    calls = count_predictions(monkeypatch)
    plugin_po_many(nuis, cohort, role_queries(0, 1), SURVIVAL, [1.0, 2.0])
    assert len(calls) == 2 * len(cohort.cells("zw")[1])
    assert max(calls.values()) == 1


def test_plugin_po_many_calls_each_propensity_model_once(monkeypatch):
    _, cohort = _nic_cohort(600, seed=31)
    nuis = fit_plugin_nuisances(cohort, SURVIVAL)
    calls = count_propensity_calls(monkeypatch)
    plugin_po_many(nuis, cohort, role_queries(0, 1), SURVIVAL, [1.0, 2.0])
    assert {model: len(asked) for model, asked in calls.items()} == {
        id(model): 1 for model in (nuis.propensity_zw, nuis.propensity_z)}


@pytest.mark.parametrize("estimator", ["plugin", "route1", "influence",
                                       "crossfit"])
def test_each_propensity_model_is_asked_each_cell_once_per_call(
        monkeypatch, estimator):
    # one prediction gives both groups of a cell: no call asks for a
    # cell twice, as the (cell, group) rows of one call per group did
    _, cohort = _nic_cohort(600, seed=31)
    queries, grid = role_queries(0, 1), [1.0, 2.0]
    nuis = (fit_plugin_nuisances(cohort, SURVIVAL)
            if estimator in ("plugin", "route1")
            else fit_dr_nuisances(cohort, SURVIVAL))
    # the rows each model is asked about: a fold's bundle evaluates the fold
    rows = {id(model): range(cohort.n)
            for model in (nuis.propensity_zw, nuis.propensity_z)}
    if estimator == "crossfit":
        plan = FoldPlan(cohort)
        rows = {id(getattr(bundle, key)): np.flatnonzero(plan.fold_ids == f)
                for f, (bundle, _) in enumerate(plan.parts(SURVIVAL))
                for key in ("propensity_zw", "propensity_z")}
    calls = count_propensity_calls(monkeypatch)
    if estimator == "plugin":
        plugin_po_many(nuis, cohort, queries, SURVIVAL, grid)
    elif estimator == "route1":
        route1_conditional(cohort, [CopulaSpec("clayton", 0.5)], nuis,
                           queries, grid)
    elif estimator == "influence":
        evaluate_influence(cohort, nuis, queries[0], SURVIVAL, grid)
    else:
        crossfit_dr_many(plan, queries, SURVIVAL, grid)

    def cells(rows):
        return {(cohort.z_items[i], cohort.w_items[i]) for i in rows}
    for asked in calls.values():
        for keys in asked:
            assert len(keys) == len(set(keys)) > 0
    assert set(calls) == set(rows)
    for model, asked in calls.items():
        assert set().union(*asked) == cells(rows[model])
        if estimator != "crossfit":
            assert len(asked) == 1


def test_default_grid_caps_at_percentile():
    cohort = Cohort([0, 1, 0, 1, 0], [0] * 5, [0] * 5,
                    [1.0, 2.0, 3.0, 4.0, 100.0], [1, 1, 0, 1, 1])
    grid = default_grid(cohort)
    np.testing.assert_array_equal(grid, [1.0, 2.0, 4.0])


def _numpy_grids(cohort, grid_points):
    """The default and the --grid-points grid, as np.percentile and
    np.quantile draw them from the raw times; None for an empty grid."""
    event_times = cohort.m_times[np.bincount(
        cohort.m_codes[cohort.delta > 0], minlength=cohort.m_times.size) > 0]
    default = event_times[event_times <= np.percentile(cohort.m, 95.0)]
    spaced = np.unique(np.quantile(
        cohort.m, np.linspace(0.05, 0.95, grid_points)))
    spaced = spaced[spaced > 0.0]
    return [g.tobytes() if g.size else None for g in (default, spaced)]


def _grids(cohort, grid_points):
    got = []
    for config in ({}, {"grid_points": grid_points}):
        try:
            got.append(_resolve_grid(config, cohort).tobytes())
        except DataError:  # EmptyCohortError or an empty --grid-points grid
            got.append(None)
    return got


@pytest.mark.parametrize("m, delta", [
    ([2.0] * 7, [1] * 7),
    ([1.0, 1.0, 2.0, 2.0, 2.0, 3.0, 3.0, 9.0], [1, 0] * 4),
    ([4.5], [1]),
    ([-0.0, 0.0, -0.0, 1.5, 1.5], [1, 1, 0, 1, 0]),
    ([-0.0] * 3, [1] * 3),
    ([0.5, -0.0, 2.0, 0.0], [0, 1, 1, 1]),
], ids=["ties", "cap_between_ties", "one_row", "negative_zeros",
        "negative_zeros_only", "zeros_first"])
def test_grids_read_numpys_quantiles_off_the_time_codes(m, delta):
    # the 95th percentile and the --grid-points quantiles of the coded
    # times, where -0.0 reads 0.0, give numpy's grids to the bit
    cohort = Cohort([0, 1] * (len(m) // 2) + [0] * (len(m) % 2),
                    [0] * len(m), [0] * len(m), m, delta)
    levels = np.linspace(0.05, 0.95, 7)
    got, want = time_quantiles(cohort, levels), np.quantile(cohort.m, levels)
    assert np.array_equal(got, want)
    assert np.array_equal(np.signbit(got[got != 0]),
                          np.signbit(want[want != 0]))
    for grid_points in (1, 2, 7):
        assert _grids(cohort, grid_points) == _numpy_grids(cohort,
                                                           grid_points)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.sampled_from([-0.0, 0.0, 0.1, 0.2, 0.3, 1.0, 1.5, 7.25]),
                min_size=1, max_size=40),
       st.integers(1, 20), st.randoms(use_true_random=False))
def test_grids_match_numpys_on_random_cohorts(m, grid_points, random):
    delta = [random.randint(0, 2) for _ in m]
    cohort = Cohort([random.randint(0, 1) for _ in m], [0] * len(m),
                    [0] * len(m), m, delta)
    assert _grids(cohort, grid_points) == _numpy_grids(cohort, grid_points)


def test_grid_validation_errors():
    _, cohort = _nic_cohort(200, seed=73)
    nuis = _unclipped_nuisances(cohort)
    q = PotentialOutcomeQuery(0, 0, 0)
    with pytest.raises(DataError):
        plugin_po(nuis, cohort, q, SURVIVAL, [])
    with pytest.raises(DataError):
        plugin_po(nuis, cohort, q, SURVIVAL, [2.0, 1.0])
    with pytest.raises(DataError):
        plugin_po(nuis, cohort, q, SURVIVAL, [-1.0, 2.0])


# ---------------------------------------------------------------------------
# Properties
# ---------------------------------------------------------------------------

@st.composite
def mixed_cohorts(draw):
    n = draw(st.integers(min_value=6, max_value=60))
    x = draw(
        st.lists(st.integers(0, 1), min_size=n, max_size=n).filter(
            lambda v: 0 < sum(v) < len(v)
        )
    )
    z = draw(st.lists(st.integers(0, 1), min_size=n, max_size=n))
    w = draw(st.lists(st.integers(0, 1), min_size=n, max_size=n))
    m = draw(
        st.lists(
            st.floats(0.5, 20.0, allow_nan=False, allow_infinity=False),
            min_size=n, max_size=n,
        )
    )
    d = draw(st.lists(st.integers(0, 1), min_size=n, max_size=n))
    return Cohort(x, z, w, m, d)


@given(mixed_cohorts(), st.tuples(st.integers(0, 1), st.integers(0, 1), st.integers(0, 1)))
@settings(max_examples=30, deadline=None)
def test_weight_mean_one_property(cohort, arms):
    nuis = _unclipped_nuisances(cohort)
    curve, report = plugin_po(
        nuis, cohort, PotentialOutcomeQuery(*arms), SURVIVAL, [1.0, 5.0],
        return_report=True,
    )
    assert report["mean_weight"] == pytest.approx(1.0, abs=1e-9)
    vals = np.concatenate(([curve.value_at_zero], curve.values))
    assert np.all(np.diff(vals) <= 1e-12)
    assert np.all((vals >= -1e-12) & (vals <= 1.0 + 1e-12))
