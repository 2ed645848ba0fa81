"""Shared test fixtures, the independent brute-force oracle, and the
package's test-only helpers (prediction counters, guarded prediction
wrappers, the per-row oracles of the models' covariate conversion, the
per-curve functional and the per-cell and direct-summation plug-in
oracles, single-row influence values, the one-query, one-horizon,
per-stratum and spec-table entry points only tests call, table models
built from explicit curves, and the single-jump latent-survival
recursion that the bounded one must reproduce on disjoint jumps).

`brute_po` enumerates every (z, w, latent-time) configuration with plain
Python loops over the raw probability tables.  It deliberately shares no
code with the package's oracle or estimators; expected values in the test
suite are frozen from (or checked live against) this implementation.
"""

import itertools
import math
from dataclasses import dataclass

import numpy as np

from fairsurv.cge import (
    _SUM_SLACK,
    _check_cif_inputs,
    _invert_nonneg,
    _jump_times,
)
from fairsurv.copulas import CopulaSpec, generator, generator_inverse
from fairsurv.curves import (
    StepCurve,
    _increments,
    aalen_johansen_cif,
    kaplan_meier,
    restricted_means,
)
from fairsurv.dr import (
    COMPONENT_NAMES,
    DRNuisances,
    InfluenceEvaluation,
    _as_query,
    _Contributions,
    _dr_target,
    crossfit_dr_many,
)
from fairsurv.errors import DataError, DegenerateGroupError, EstimationError
from fairsurv.identify import _validate_grid, plugin_po_many
from fairsurv.nuisance import (
    _CONDITIONING,
    ConditionalSurvivalModel,
    PropensityModel,
    _indicator,
    _normalize_target,
    _target_label,
)
from fairsurv.scm import Cohort, SCMSpec, _canonical_item, cell_members

# ---------------------------------------------------------------------------
# Raw-table builders.  Each returns kwargs for SCMSpec; tests may also feed
# the raw dicts straight into brute_po.
# ---------------------------------------------------------------------------

P_XZ = {(0, 0): 0.25, (0, 1): 0.20, (1, 0): 0.25, (1, 1): 0.30}
P_W = {
    (0, 0): {0: 0.7, 1: 0.3},
    (0, 1): {0: 0.5, 1: 0.5},
    (1, 0): {0: 0.4, 1: 0.6},
    (1, 1): {0: 0.2, 1: 0.8},
}


def geometric_law(grid, hazard, tail=math.inf):
    """Discrete law with constant per-step hazard; leftover mass sits at
    `tail` (infinity for events, an administrative atom for censoring)."""
    law, alive = {}, 1.0
    for t in grid:
        law[t] = alive * hazard
        alive *= 1.0 - hazard
    law[tail] = 1.0 - sum(law.values())
    return law


def _laws(grid, hazard_fn, tail=math.inf):
    return {
        (x, z, w): geometric_law(grid, hazard_fn(x, z, w), tail=tail)
        for x in (0, 1)
        for z in (0, 1)
        for w in (0, 1)
    }


def make_nic_balanced():
    """Independent censoring, balanced groups, disjoint event/censor grids."""
    return dict(
        z_support=[0, 1],
        w_support=[0, 1],
        p_xz=dict(P_XZ),
        p_w_given_xz={k: dict(v) for k, v in P_W.items()},
        event_laws=_laws([1.0, 2.0, 3.0, 4.0], lambda x, z, w: 0.10 + 0.12 * x + 0.10 * w + 0.06 * z),
        censor_law=_laws([0.5, 1.5, 2.5, 3.5], lambda x, z, w: 0.08 + 0.05 * x + 0.03 * z + 0.04 * w, tail=4.5),
        coupling=None,
    )


def make_light_hazard_balanced():
    """Uniform strata and gentle hazards: per-stratum recovery checks
    keep a wide margin to their error bounds on this generative model."""
    return dict(
        z_support=[0, 1],
        w_support=[0, 1],
        p_xz={(0, 0): 0.25, (0, 1): 0.25, (1, 0): 0.25, (1, 1): 0.25},
        p_w_given_xz={
            (x, z): {0: 0.5, 1: 0.5} for x in (0, 1) for z in (0, 1)
        },
        event_laws=_laws([1.0, 2.0, 3.0, 4.0], lambda x, z, w: 0.03 + 0.035 * x + 0.025 * w + 0.015 * z),
        censor_law=_laws([0.5, 1.5, 2.5, 3.5], lambda x, z, w: 0.04, tail=4.5),
        coupling=None,
    )


def make_severed():
    """Every X-pathway cut: all eight query arms share one true curve."""
    return dict(
        z_support=[0, 1],
        w_support=[0, 1],
        p_xz={(0, 0): 0.30, (0, 1): 0.20, (1, 0): 0.30, (1, 1): 0.20},
        p_w_given_xz={
            (x, z): {0: 0.7 - 0.2 * z, 1: 0.3 + 0.2 * z}
            for x in (0, 1)
            for z in (0, 1)
        },
        event_laws=_laws([1.0, 2.0, 3.0, 4.0], lambda x, z, w: 0.08 + 0.07 * w + 0.05 * z),
        censor_law=_laws([0.5, 1.5, 2.5, 3.5], lambda x, z, w: 0.06 + 0.03 * z, tail=4.5),
        coupling=None,
    )


def make_indirect_only():
    """Only the mediator channel reacts to X: the outcome law ignores x,
    and z is drawn independently of x, so direct and spurious effects
    vanish identically."""
    return dict(
        z_support=[0, 1],
        w_support=[0, 1],
        p_xz={(0, 0): 0.30, (0, 1): 0.20, (1, 0): 0.30, (1, 1): 0.20},
        p_w_given_xz={
            (x, z): {0: 0.8 - 0.4 * x - 0.1 * z, 1: 0.2 + 0.4 * x + 0.1 * z}
            for x in (0, 1)
            for z in (0, 1)
        },
        event_laws=_laws([1.0, 2.0, 3.0, 4.0], lambda x, z, w: 0.07 + 0.06 * w + 0.04 * z),
        censor_law=_laws([0.5, 1.5, 2.5, 3.5], lambda x, z, w: 0.05 + 0.02 * z, tail=4.5),
        coupling=None,
    )


def make_cr_severed():
    """Two competing causes, every X-pathway cut."""
    return dict(
        z_support=[0, 1],
        w_support=[0, 1],
        p_xz={(0, 0): 0.30, (0, 1): 0.20, (1, 0): 0.30, (1, 1): 0.20},
        p_w_given_xz={
            (x, z): {0: 0.7 - 0.2 * z, 1: 0.3 + 0.2 * z}
            for x in (0, 1)
            for z in (0, 1)
        },
        event_laws=[
            _laws([1.0, 2.0, 3.0], lambda x, z, w: 0.09 + 0.06 * w + 0.03 * z),
            _laws([1.0, 2.0, 3.0], lambda x, z, w: 0.05 + 0.04 * w + 0.04 * z),
        ],
        censor_law=_laws([0.5, 1.5, 2.5], lambda x, z, w: 0.05 + 0.03 * z, tail=3.5),
        coupling=None,
    )


def make_no_censoring():
    """Every subject observed to an event: the event law is proper (its
    leftover mass is an event atom at 5.0) and censoring sits at 99."""
    return dict(
        z_support=[0, 1],
        w_support=[0, 1],
        p_xz=dict(P_XZ),
        p_w_given_xz={k: dict(v) for k, v in P_W.items()},
        event_laws=_laws([1.0, 2.0, 3.0, 4.0], lambda x, z, w: 0.15 + 0.10 * x + 0.08 * w + 0.05 * z, tail=5.0),
        censor_law=_laws([], lambda x, z, w: 0.0, tail=99.0),
        coupling=None,
    )


def make_cr_two_cause():
    """Two competing causes on a shared grid (cause ties exercised)."""
    return dict(
        z_support=[0, 1],
        w_support=[0, 1],
        p_xz=dict(P_XZ),
        p_w_given_xz={k: dict(v) for k, v in P_W.items()},
        event_laws=[
            _laws([1.0, 2.0, 3.0], lambda x, z, w: 0.10 + 0.10 * x + 0.08 * w + 0.04 * z),
            _laws([1.0, 2.0, 3.0], lambda x, z, w: 0.06 + 0.05 * x + 0.03 * w + 0.05 * z),
        ],
        censor_law=_laws([0.5, 1.5, 2.5], lambda x, z, w: 0.06 + 0.04 * x + 0.03 * w, tail=3.5),
        coupling=None,
    )


def make_ic_clayton(tau=0.5):
    """Informative censoring: (T, C) coupled by a Clayton copula."""
    return dict(
        z_support=[0, 1],
        w_support=[0, 1],
        p_xz=dict(P_XZ),
        p_w_given_xz={k: dict(v) for k, v in P_W.items()},
        event_laws=_laws([1.0, 2.0, 3.0, 4.0], lambda x, z, w: 0.12 + 0.10 * x + 0.08 * w + 0.05 * z),
        censor_law=_laws([0.5, 1.5, 2.5, 3.5], lambda x, z, w: 0.10 + 0.04 * x + 0.03 * z + 0.03 * w, tail=4.5),
        coupling=CopulaSpec("clayton", tau),
    )


def make_symmetric_null():
    """No disparity by construction: neither the covariate mix nor any law
    depends on x, so every decomposition effect is exactly zero."""
    return dict(
        z_support=[0, 1],
        w_support=[0, 1],
        p_xz={(0, 0): 0.24, (0, 1): 0.26, (1, 0): 0.24, (1, 1): 0.26},
        p_w_given_xz={
            (x, z): {0: 0.55 - 0.1 * z, 1: 0.45 + 0.1 * z}
            for x in (0, 1) for z in (0, 1)
        },
        event_laws=_laws([1.0, 2.0, 3.0, 4.0], lambda x, z, w: 0.08 + 0.05 * w + 0.04 * z),
        censor_law=_laws([0.5, 1.5, 2.5, 3.5], lambda x, z, w: 0.05, tail=4.5),
        coupling=None,
    )


def make_adversarial():
    """Strong covariate-driven censoring and event heterogeneity, so models
    that ignore covariates are badly misspecified."""
    return dict(
        z_support=[0, 1],
        w_support=[0, 1],
        p_xz=dict(P_XZ),
        p_w_given_xz={k: dict(v) for k, v in P_W.items()},
        event_laws=_laws([1.0, 2.0, 3.0, 4.0], lambda x, z, w: 0.08 + 0.15 * w + 0.10 * x + 0.05 * z),
        censor_law=_laws([0.5, 1.5, 2.5, 3.5], lambda x, z, w: 0.05 + 0.25 * w + 0.10 * x, tail=4.5),
        coupling=None,
    )


def spec_of(raw):
    return SCMSpec(**raw)


# ---------------------------------------------------------------------------
# Brute-force oracle
# ---------------------------------------------------------------------------

def _event_tables(raw):
    laws = raw["event_laws"]
    return laws if isinstance(laws, list) else [laws]


def brute_po(raw, x_out, x_med, x_cond, t, kind="survival", cause=1, horizon=None):
    """Exhaustive enumeration of the potential-outcome functional."""
    p_xz = raw["p_xz"]
    px = sum(p for (x, _), p in p_xz.items() if x == x_cond)
    tables = _event_tables(raw)
    acc = 0.0
    for z in raw["z_support"]:
        pz = p_xz.get((x_cond, z), 0.0) / px
        if pz == 0.0:
            continue
        for w, pw in raw["p_w_given_xz"][(x_med, z)].items():
            if pw == 0.0:
                continue
            if kind == "cumulative_hazard":
                acc += pz * pw * _brute_cum_hazard(tables[0][(x_out, z, w)], t)
                continue
            atom_lists = [sorted(tab[(x_out, z, w)].items()) for tab in tables]
            for combo in itertools.product(*atom_lists):
                pr = math.prod(p for _, p in combo)
                if pr == 0.0:
                    continue
                times = [tt for tt, _ in combo]
                tmin = min(times)
                if kind == "survival":
                    val = 1.0 if times[0] > t else 0.0
                elif kind == "all_cause_survival":
                    val = 1.0 if tmin > t else 0.0
                elif kind == "cif":
                    wins = times.index(tmin) == cause - 1
                    val = 1.0 if (wins and math.isfinite(tmin) and tmin <= t) else 0.0
                elif kind == "rmst":
                    cap = t if horizon is None else min(t, horizon)
                    val = min(times[0], cap)
                else:
                    raise ValueError(kind)
                acc += pz * pw * pr * val
    return acc


def _brute_cum_hazard(law, t):
    total = 0.0
    alive = 1.0
    for u in sorted(k for k in law if math.isfinite(k)):
        if u > t:
            break
        p = law[u]
        total += p / alive
        alive -= p
    return total


def count_fits(monkeypatch):
    """Count the nuisance fits the estimators make.

    Wraps `fit_conditional_survival` and `fit_propensity` wherever a
    fairsurv module binds them, so each fit is counted once whichever
    module makes it, and returns the live tally
    {"survival": n, "propensity": n}.
    """
    import sys

    import fairsurv.nuisance

    counts = {"survival": 0, "propensity": 0}
    for key, name in (("survival", "fit_conditional_survival"),
                      ("propensity", "fit_propensity")):
        fit = getattr(fairsurv.nuisance, name)

        def counted(*args, _fit=fit, _key=key, **kwargs):
            counts[_key] += 1
            return _fit(*args, **kwargs)
        for module in list(sys.modules.values()):
            if getattr(module, "__name__", "").split(".")[0] == "fairsurv" \
                    and getattr(module, name, None) is fit:
                monkeypatch.setattr(module, name, counted)
    return counts


def count_predictions(monkeypatch):
    """Count the curve predictions of every `ConditionalSurvivalModel`.

    Wraps the class's batch entry `predict_values` (through which the
    tree learner's `predict` also goes), and returns the live tally
    {(id(model), x, z, w): predictions}, with z and w read off the rows
    of the cohort each call predicts.
    """
    from collections import Counter

    from fairsurv.nuisance import ConditionalSurvivalModel

    calls = Counter()
    entry = ConditionalSurvivalModel.predict_values

    def counted(model, x, cohort, rows, **kwargs):
        for triple in _row_triples(x, cohort, rows):
            calls[(id(model), *triple)] += 1
        return entry(model, x, cohort, rows, **kwargs)
    monkeypatch.setattr(ConditionalSurvivalModel, "predict_values", counted)
    return calls


def count_propensity_calls(monkeypatch):
    """Record the `predict_many` calls of every `PropensityModel`, through
    which `predict` and `predict_group` also go; returns the live tally
    {id(model): [the (z, w) values of each row asked, per call]}."""
    from collections import defaultdict

    from fairsurv.nuisance import PropensityModel

    calls = defaultdict(list)
    predict_many = PropensityModel.predict_many

    def counted(model, *args, **kwargs):
        cohort, rows = args[-2:]  # the batch entry's last two arguments
        calls[id(model)].append([
            (z, w) for _, z, w in _row_triples(0, cohort, rows)])
        return predict_many(model, *args, **kwargs)
    monkeypatch.setattr(PropensityModel, "predict_many", counted)
    return calls


def predict_triples(model, triples, **kwargs):
    """``model.predict_values`` of covariate triples (x, z, w): the
    triples' (z, w) go into a cohort, one row each, and x into the group
    labels.  No triples predict the rows of a one-row cohort that are
    none."""
    import numpy as np

    from fairsurv.scm import Cohort

    triples = list(triples)
    x, z, w = zip(*triples) if triples else ([], [0], [0])
    n = len(z)
    cohort = Cohort([0] * n, list(z), list(w), [0.0] * n, [0] * n)
    return model.predict_values(list(x), cohort, np.arange(len(x)), **kwargs)


def _row_triples(x, cohort, rows):
    """(x, z, w) of every row of ``rows`` of ``cohort`` under its group
    label in ``x`` (one, or one per row), in order."""
    import numpy as np

    rows = np.asarray(rows, dtype=np.intp).reshape(-1)
    return zip(np.broadcast_to(x, rows.shape).tolist(),
               cohort.z_values[cohort.z_codes[rows]].tolist(),
               cohort.w_values[cohort.w_codes[rows]].tolist())


def predict_rows(model, x, cohort, rows):
    """``model.predict`` of every row of ``rows`` of ``cohort`` under its
    group label in ``x`` (one, or one per row), in order."""
    return (model.predict(*triple) for triple in _row_triples(x, cohort, rows))


def count_curves(monkeypatch):
    """Count the step curves `fairsurv.nuisance` constructs.

    Wraps the module's `StepCurve` binding, checked construction and
    `StepCurve._checked` alike, and returns the live list of the curves
    built through it.
    """
    import fairsurv.nuisance

    built = []
    cls = fairsurv.nuisance.StepCurve

    def counted(*args, **kwargs):
        built.append(cls(*args, **kwargs))
        return built[-1]

    def checked(*fields):
        built.append(cls._checked(*fields))
        return built[-1]
    counted._checked = checked
    monkeypatch.setattr(fairsurv.nuisance, "StepCurve", counted)
    return built


def predict_survival(model, x, z, w):
    """`model.predict`, refused unless the model predicts survival."""
    from fairsurv.errors import EstimationError

    if model.curve_kind != "survival":
        raise EstimationError(
            "model predicts cumulative incidence, not survival")
    return model.predict(x, z, w)


def predict_cif(model, x, z, w):
    """`model.predict`, refused unless the model predicts incidence."""
    from fairsurv.errors import EstimationError

    if model.curve_kind != "cif":
        raise EstimationError(
            "model predicts survival, not cumulative incidence")
    return model.predict(x, z, w)


def predict_censoring_hazard_increments(model, covariates, grid):
    """Discrete censoring-hazard increments up to max(grid).

    Returns (time, increment) pairs at the model's jump locations, with
    increments read off the predicted censoring-survival curve through
    the product identity 1 - G(u)/G(u-); on a per-stratum product-limit
    fit these equal the raw d/n increments exactly.
    """
    import numpy as np

    from fairsurv.curves import _increments
    from fairsurv.errors import DataError, EstimationError

    if model.target != "censoring":
        raise EstimationError(
            "hazard increments require a model fitted with target='censoring'"
        )
    g = np.asarray(grid, dtype=float)
    if g.size == 0 or np.any(~np.isfinite(g)):
        raise DataError("grid must be nonempty and finite")
    curve = model.predict(*covariates)
    inc = _increments(np.concatenate(([curve.value_at_zero], curve.values)))
    keep = (inc > 0.0) & (curve.breakpoints <= g.max())
    return list(zip(curve.breakpoints[keep].tolist(), inc[keep].tolist()))


def continuous_confounder_cohort(n, seed):
    """Rows with a continuous confounder, a binary mediator and censored
    exponential times; group, mediator, event and censoring all depend
    on the confounder, and almost every row is its own (z, w) cell."""
    import numpy as np

    from fairsurv.scm import Cohort

    rng = np.random.default_rng(seed)
    z = np.round(rng.normal(size=n), 6)
    x = (rng.random(n) < 1.0 / (1.0 + np.exp(-0.6 * z))).astype(int)
    w = (rng.random(n) < 0.3 + 0.4 * x).astype(int)
    t = rng.exponential(1.0 / (0.2 * np.exp(0.5 * x + 0.4 * w + 0.3 * z)))
    c = rng.exponential(1.0 / (0.1 * np.exp(0.2 * z)))
    return Cohort(x, z.tolist(), w, np.round(np.minimum(t, c), 4),
                  (t <= c).astype(int))


def reference_crossfit(plan, queries, functional, grid):
    """The per-row cross-fitting `crossfit_dr_many` streams, kept as its
    oracle: every fold's rows are evaluated cell by cell with
    `reference_influence`, every row on its own, into one rows x grid
    matrix per query, whose column means are the estimates and whose
    centred columns give the standard errors.

    Returns {query: namespace(estimate, se, if_matrix, n_flagged,
    n_mediator_fallback)}.  It fits through `plan`, so it can share the
    fits of a `crossfit_dr_many` call on the same plan.
    """
    from types import SimpleNamespace

    import numpy as np

    from fairsurv.curves import StepCurve, restricted_means, running_rmst
    from fairsurv.dr import _as_query, _nu_values
    from fairsurv.queries import Functional

    cohort = plan.cohort
    grid = np.asarray(grid, dtype=float)
    base = functional
    if functional.kind == "rmst":
        base = Functional("survival" if cohort.n_causes == 1
                          else "all_cause_survival")
    parts = list(plan.parts(base))
    out = {}
    for query in queries:
        query = _as_query(query)
        p = float(np.mean(cohort.x == query.x_condition))
        unc = np.zeros((cohort.n, grid.size))
        n_flagged = n_fallback = 0
        for bundle, rows in parts:
            part = cohort.subset(rows)
            ev = reference_influence(part, bundle, query, base, grid,
                                     p_condition=p, epsilon=plan.epsilon,
                                     cap=plan.cap)
            unc[rows] = ev.values
            n_flagged += ev.n_flagged
            n_fallback += _nu_values(bundle, query, grid, part,
                                     np.unique(part.z_codes).tolist())[1]
        estimate = unc.mean(axis=0)
        ind_z = (cohort.x == query.x_condition).astype(float)
        if_matrix = unc - np.outer(ind_z / p, estimate)
        if functional.kind == "rmst":
            estimate = restricted_means(
                StepCurve(grid, estimate, 1.0, "generic"), grid,
                functional.horizon)
            if_matrix = running_rmst(grid, if_matrix, functional.horizon)
        out[query] = SimpleNamespace(
            estimate=estimate,
            se=if_matrix.std(axis=0, ddof=1) / np.sqrt(cohort.n),
            if_matrix=if_matrix, n_flagged=n_flagged,
            n_mediator_fallback=n_fallback)
    return out


def empirical_cif_pair(m, delta, grid):
    """Sub-distribution incidence curves of observed rows on a grid, one
    `np.mean` of the indicators per grid time: the reference of Route
    I's cell incidence (`cge._incidence`)."""
    import numpy as np

    from fairsurv.curves import StepCurve

    ct = np.array([np.mean((m <= t) & (delta == 1)) for t in grid])
    cc = np.array([np.mean((m <= t) & (delta == 0)) for t in grid])
    return (StepCurve(grid, ct, value_at_zero=0.0, kind="cif"),
            StepCurve(grid, cc, value_at_zero=0.0, kind="cif"))


def reference_envelope_draws(grid, lo_t, hi_t, lo_c, hi_c, n_samples,
                             sample_seed):
    """Route II's envelope sampler drawing one attempt at a time, kept as
    the oracle of `cge._draw_trajectories`, which draws attempts in
    batches from the same stream.

    Returns the accepted event and censoring trajectories (lists of
    arrays, in attempt order), the accepted count and the attempt count.
    """
    import numpy as np

    from fairsurv.cge import _SUM_SLACK

    members_t, members_c = [], []
    rng = np.random.default_rng(sample_seed)
    accepted = 0
    attempts = 0
    max_attempts = max(500 * n_samples, 1)
    while accepted < n_samples and attempts < max_attempts:
        attempts += 1
        draw_t = np.sort(lo_t + rng.random(grid.size) * (hi_t - lo_t))
        draw_c = np.sort(lo_c + rng.random(grid.size) * (hi_c - lo_c))
        ok = (np.all(draw_t >= lo_t) and np.all(draw_t <= hi_t)
              and np.all(draw_c >= lo_c) and np.all(draw_c <= hi_c)
              and np.all(draw_t + draw_c <= 1.0 + _SUM_SLACK))
        if not ok:
            continue
        members_t.append(draw_t)
        members_c.append(draw_c)
        accepted += 1
    return members_t, members_c, accepted, attempts


# ---------------------------------------------------------------------------
# The recursive log-rank grower: the oracle of the tree learner
# ---------------------------------------------------------------------------

def reference_logrank_scores(left, m, ind):
    """Two-sample log-rank chi-square of every candidate split of a node
    whose rows come in any order: sorts the node's times and gathers the
    columns of ``left`` in time order."""
    import numpy as np

    from fairsurv.nuisance import _row_sums

    events = ind > 0
    ev, d = np.unique(m[events], return_counts=True)
    chi = np.zeros(left.shape[0])
    if ev.size == 0:
        return chi
    ascending = np.argsort(m, kind="stable")
    n = m.size - np.searchsorted(m[ascending], ev, side="left")
    n_l = np.cumsum(left[:, ascending[::-1]], axis=1)[:, n - 1]
    ev_rows = np.flatnonzero(events)
    ev_rows = ev_rows[np.argsort(m[ev_rows], kind="stable")]
    starts = np.concatenate(([0], np.cumsum(d)[:-1]))
    d_l = np.add.reduceat(left[:, ev_rows], starts, axis=1, dtype=np.intp)

    n_l, d_l = n_l.astype(float), d_l.astype(float)
    n, d = n.astype(float), d.astype(float)
    n_r = n - n_l
    observed_minus_expected = _row_sums(d_l - n_l * d / n)
    multi = n > 1
    var = _row_sums(
        (n_l * n_r * d * (n - d))[:, multi] / (n[multi] ** 2 * (n[multi] - 1.0))
    )
    squared = np.array([o**2 for o in observed_minus_expected.tolist()])
    np.divide(squared, var, out=chi, where=var > 0.0)
    return chi


def reference_candidate_splits(feats, max_thresholds):
    """Candidate splits of a node, the quantiles from ``np.quantile``."""
    import numpy as np

    from fairsurv.nuisance import _run_starts

    ordered = np.sort(feats, axis=0)
    starts = _run_starts(ordered)
    many = starts.sum(axis=0) - 1 > max_thresholds
    if many.any():
        levels = np.linspace(0.0, 1.0, max_thresholds + 2)[1:-1]
        q = np.sort(np.quantile(feats[:, many], levels, axis=0), axis=0)
        q_starts = _run_starts(q)
        quantiles = (q[q_starts[:, k], k] for k in range(q.shape[1]))
    features, thresholds = [np.empty(0, dtype=int)], [np.empty(0)]
    for j in range(feats.shape[1]):
        uniq = ordered[starts[:, j], j]
        if uniq.size < 2:
            continue
        thr = next(quantiles) if many[j] else (uniq[:-1] + uniq[1:]) / 2.0
        features.append(np.full(thr.size, j))
        thresholds.append(thr)
    return np.concatenate(features), np.concatenate(thresholds)


def reference_leaf_payload(m, delta, target, n_causes, depth):
    """A leaf's (jump times, values before and from each jump, rows,
    depth), from one estimator call on its rows."""
    import numpy as np

    from fairsurv.curves import aalen_johansen_cif, nelson_aalen
    from fairsurv.nuisance import _indicator

    if isinstance(target, int):
        curve = aalen_johansen_cif(m, delta, cause=target, n_causes=n_causes)
    else:
        curve = nelson_aalen(m, _indicator(delta, target))
    return (curve.breakpoints,
            np.concatenate(([curve.value_at_zero], curve.values)), m.size,
            depth)


def reference_grow_tree(feats, m, delta, ind, target, n_causes, depth,
                        params, nodes, leaves):
    """The tree grown on these rows, in bootstrap order, appended to
    ``nodes`` in preorder and its leaf payloads to ``leaves``."""
    import numpy as np

    index = len(nodes)
    nodes.append(None)
    n = m.size
    if depth < params["max_depth"] and n >= 2 * params["min_leaf"]:
        feature, threshold = reference_candidate_splits(
            feats, params["max_thresholds"])
        left = feats[:, feature].T <= threshold[:, None]
        n_left = left.sum(axis=1)
        fits = np.minimum(n_left, n - n_left) >= params["min_leaf"]
        left, feature, threshold = left[fits], feature[fits], threshold[fits]
        scores = reference_logrank_scores(left, m, ind)
        if scores.size and scores.max() > 0.0:
            k = int(np.argmax(scores))  # the first maximum wins
            mask = left[k]
            lo = reference_grow_tree(
                feats[mask], m[mask], delta[mask], ind[mask], target,
                n_causes, depth + 1, params, nodes, leaves)
            hi = reference_grow_tree(
                feats[~mask], m[~mask], delta[~mask], ind[~mask], target,
                n_causes, depth + 1, params, nodes, leaves)
            nodes[index] = (int(feature[k]), float(threshold[k]), lo, hi, -1)
            return index
    nodes[index] = (0, 0.0, index, index, len(leaves))
    leaves.append(reference_leaf_payload(m, delta, target, n_causes, depth))
    return index


def reference_forest(cohort, target, n_trees=50, min_leaf=10, max_depth=6,
                     seed=0, max_thresholds=32):
    """The flat arrays of the tree ensemble grown one tree at a time on
    its bootstrap rows in draw order, every node's times sorted anew,
    every leaf's step function from its own estimator call: the oracle
    of the tree learner's `_Forest` (a namespace of the same arrays)."""
    from types import SimpleNamespace

    import numpy as np

    from fairsurv.nuisance import _indicator, _numeric_covariates

    params = dict(min_leaf=min_leaf, max_depth=max_depth,
                  max_thresholds=max_thresholds)
    feats = _numeric_covariates(cohort, np.arange(cohort.n), "zw",
                                cohort.x)[0]
    ind = _indicator(cohort.delta, target)
    rng = np.random.default_rng(seed)
    roots, nodes, leaves = [], [], []
    for _ in range(n_trees):
        boot = rng.integers(0, cohort.n, cohort.n)
        roots.append(reference_grow_tree(
            feats[boot], cohort.m[boot], cohort.delta[boot], ind[boot],
            target, cohort.n_causes, 0, params, nodes, leaves))
    out = SimpleNamespace(roots=np.array(roots))
    out.feature, out.threshold, out.left, out.right, out.leaf = (
        np.array(column) for column in zip(*nodes))
    times, steps, n_rows, depths = zip(*leaves)
    out.grid = np.unique(np.concatenate(times))
    pos = np.searchsorted(out.grid, np.concatenate(times))
    ends = np.cumsum([t.size for t in times])
    out.bounds = np.concatenate(([0], ends + np.arange(1, ends.size + 1)))
    out.steps = np.concatenate(steps)
    out.runs = (np.insert(pos, ends, out.grid.size)
                - np.insert(pos, np.concatenate(([0], ends[:-1])), 0))
    out.n_rows = np.array(n_rows)
    out.depth = max(depths)
    return out


# ---------------------------------------------------------------------------
# Per-row model inputs: the oracle of the models' one covariate conversion
# ---------------------------------------------------------------------------

def _reference_numeric_vector(value, width, name):
    """One covariate entry as floats; numeric strings are accepted."""
    from fairsurv.errors import CohortSchemaError
    from fairsurv.scm import _canonical_item

    item = _canonical_item(value)
    vals = item if isinstance(item, tuple) else (item,)
    if len(vals) != width:
        raise CohortSchemaError(
            f"{name} has width {len(vals)}, expected {width}")
    try:
        return [float(v) for v in vals]
    except (TypeError, ValueError):
        raise CohortSchemaError(f"{name} must be numeric for this learner")


def reference_per_row(predict, x, cohort, rows, skip_unserved=False):
    """``predict(x, z, w)`` of every row of ``rows`` under its label in
    ``x`` (arrays), with z and w read off the cohort's code columns and
    value tables, one row at a time.  None, for covariates outside the
    fitted schema, is a CohortSchemaError unless ``skip_unserved``."""
    from fairsurv.errors import CohortSchemaError

    z = cohort.z_values[cohort.z_codes[rows]].tolist()
    w = cohort.w_values[cohort.w_codes[rows]].tolist()
    out = list(map(predict, x.tolist(), z, w))
    if None in out and not skip_unserved:
        i = out.index(None)
        raise CohortSchemaError(f"covariates {(int(x[i]), z[i], w[i])!r} "
                                "outside the fitted schema")
    return out


def reference_served(model):
    """A survival model's per-row predicate: the tree learner's feature
    list, or the table learner's stored curve with backoff to (x, z),
    (x,) and (); None for a row the model does not serve."""
    from fairsurv.errors import CohortSchemaError

    def lookup(x, z, w):
        for probe in ((x, z, w), (x, z), (x,), ()):
            if probe in model._curves:
                return model._curves[probe]
        return None

    def features(x, z, w):
        try:
            return ([float(x)]
                    + _reference_numeric_vector(z, model._widths[0], "z")
                    + _reference_numeric_vector(w, model._widths[1], "w"))
        except CohortSchemaError:
            return None
    return lookup if model._forest is None else features


def reference_predict_values(model, x, cohort, rows, skip_unserved=False):
    """The blocks of ``model.predict_values`` built from the per-row
    predicate of each block's rows, as a list."""
    import numpy as np

    from fairsurv.nuisance import _labelled

    x, rows = _labelled(x, rows)
    blocks, step = [], model.block_rows
    for start in range(0, rows.size, step):
        found = reference_per_row(
            reference_served(model), x[start:start + step], cohort,
            rows[start:start + step], skip_unserved)
        served = [item for item in found if item is not None]
        if model._forest is not None:
            feats = np.array(served, dtype=float).reshape(
                len(served), 1 + sum(model._widths))
            values, jumps, sets = model._forest.predict(feats,
                                                        model.curve_kind)
        else:
            ids = list(map(id, served))
            table = dict(zip(ids, served))
            keys, sets = np.unique(ids, return_inverse=True)
            values = np.empty((keys.size, model.grid.size + 1))
            jumps = np.zeros((keys.size, model.grid.size), dtype=bool)
            for k, curve in enumerate(map(table.get, keys.tolist())):
                values[k, 0] = curve.value_at_zero
                values[k, 1:] = curve.evaluate(model.grid)
                jumps[k, np.searchsorted(model.grid, curve.breakpoints)] = True
        index = np.full(len(found), -1, dtype=np.intp)
        index[[item is not None for item in found]] = sets
        blocks.append((values, jumps, index))
    return blocks


def reference_propensities(model, cohort, rows):
    """``model.predict_many(cohort, rows)`` of a `PropensityModel`, one
    row at a time: a table lookup, or the logistic learner's `_expit` of
    ``np.dot(beta, row)``, clipped, and one minus that for group 0."""
    import numpy as np

    from fairsurv.errors import CohortSchemaError
    from fairsurv.nuisance import _expit, _labelled

    def predict(x, z, w):
        if model.learner == "frequency_table":
            key = (z,) if model.conditioning == "z" else (z, w)
            raw = model._table.get(key, model.marginal)
        else:
            feats = [1.0, *_reference_numeric_vector(z, model._widths[0], "z")]
            if model.conditioning == "zw":
                feats += _reference_numeric_vector(w, model._widths[1], "w")
            if not np.all(np.isfinite(feats)):
                raise CohortSchemaError("z and w must be finite for the "
                                        "logistic propensity learner")
            raw = _expit(float(np.dot(model._beta, feats)))
        p1 = float(min(max(raw, model.epsilon), 1.0 - model.epsilon))
        return [1.0 - p1, p1]

    x, rows = _labelled(0, rows)
    return np.array(reference_per_row(predict, x, cohort, rows),
                    dtype=float).reshape(-1, 2)


# ---------------------------------------------------------------------------
# Direct summation over discrete tables: the oracle of `plugin_po`
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CohortTables:
    """Empirical frequency tables of a discrete cohort."""

    group: dict          # {x: P(x)}
    confounder: dict     # {x: {z: P(z | x)}}
    mediator: dict       # {(x, z): {w: P(w | x, z)}}


def empirical_tables(cohort):
    import numpy as np

    n_x = np.bincount(cohort.x, minlength=2).tolist()
    group = {x: n_x[x] / cohort.n for x in (0, 1)}
    confounder = {x: {} for x in (0, 1)}
    n_xz = {}
    z_items, w_items = cohort.z_items, cohort.w_items
    ids, first = cohort.cells("xz")
    for i, c in zip(first.tolist(), np.bincount(ids).tolist()):
        x, z = int(cohort.x[i]), z_items[i]
        confounder[x][z] = c / n_x[x]
        n_xz[(x, z)] = c
    mediator = {}
    ids, first = cohort.cells("xzw")
    for i, c in zip(first.tolist(), np.bincount(ids).tolist()):
        x, z = int(cohort.x[i]), z_items[i]
        mediator.setdefault((x, z), {})[w_items[i]] = c / n_xz[(x, z)]
    return CohortTables(group=group, confounder=confounder, mediator=mediator)


def functional_from_curve(curve, functional, grid):
    """A structural functional of one conditional curve at ``grid``, kept
    as the per-curve oracle of the plug-in's block functionals."""
    import numpy as np

    from fairsurv.curves import StepCurve, restricted_means
    from fairsurv.errors import DataError

    g = np.atleast_1d(np.asarray(grid, dtype=float))
    if functional.kind in ("survival", "all_cause_survival", "cif"):
        return np.asarray(curve.evaluate(g), dtype=float)
    if functional.kind == "rmst":
        return restricted_means(curve, g, functional.horizon)
    if functional.kind == "cumulative_hazard":
        chf = np.cumsum(_increments(np.concatenate(
            ([curve.value_at_zero], curve.values))))
        return StepCurve(curve.breakpoints, chf, 0.0, "generic").evaluate(g)
    raise DataError(f"unsupported functional kind {functional.kind!r}")


def reference_plugin_po_many(nuisances, cohort, queries, functional, grid):
    """The per-cell loop `plugin_po_many` runs on blocks, kept as its
    oracle: each (z, w) cell's curve under each outcome group comes from
    `predict` and its functional from `functional_from_curve`, and each
    query's sums add the cells one at a time in order of first
    appearance.  A cell the outcome model cannot serve under a group is
    skipped for that group's queries.  Returns {query: (curve, report)}."""
    import numpy as np

    from fairsurv.curves import StepCurve
    from fairsurv.errors import CohortSchemaError, EmptyCohortError
    from fairsurv.identify import _project, cell_weights

    g = _validate_grid(grid)
    queries = list(dict.fromkeys(queries))
    ids, first = cohort.cells("zw")
    weights = cell_weights(nuisances, queries, cohort, first)
    weight_sums = np.stack([np.bincount(ids, weights=column[ids])
                            for column in weights.T], axis=1)
    counts = np.bincount(ids)
    arms = sorted({q.x_outcome for q in queries})
    totals = np.zeros((len(queries), g.size))
    n_included = [0] * len(queries)
    weight_total = [0.0] * len(queries)
    max_weight = [0.0] * len(queries)
    for weight, cell_sums, count, z, w in zip(
            weights.tolist(), weight_sums.tolist(), counts.tolist(),
            cohort.z_values[cohort.z_codes[first]].tolist(),
            cohort.w_values[cohort.w_codes[first]].tolist()):
        values = {}
        for x in arms:
            try:
                curve = nuisances.outcome.predict(x, z, w)
            except CohortSchemaError:
                continue
            values[x] = functional_from_curve(curve, functional, g)
        for qi, q in enumerate(queries):
            if q.x_outcome in values:
                totals[qi] += cell_sums[qi] * values[q.x_outcome]
                n_included[qi] += count
                weight_total[qi] += cell_sums[qi]
                max_weight[qi] = max(max_weight[qi], weight[qi])
    kind = functional.curve_kind
    out = {}
    for qi, q in enumerate(queries):
        if n_included[qi] == 0:
            raise EmptyCohortError(
                "every row was outside the outcome model schema")
        fixed, distance = _project(totals[qi] / n_included[qi], kind)
        out[q] = StepCurve(
            g, fixed, value_at_zero=1.0 if kind == "survival" else 0.0,
            kind=kind), {
            "n_rows": cohort.n,
            "n_excluded": cohort.n - n_included[qi],
            "mean_weight": weight_total[qi] / n_included[qi],
            "max_weight": max_weight[qi],
            "projection_distance": distance,
        }
    return out


def exact_plugin_po(outcome_model, tables, query, functional, grid):
    """Direct evaluation of sum_z P(z|x_cond) sum_w P(w|x_med,z) f(...).

    Matches plugin_po with unclipped frequency-table propensities up to
    floating rounding; exists as the transparent summation form.
    """
    import numpy as np

    from fairsurv.curves import StepCurve
    from fairsurv.errors import DataError
    from fairsurv.identify import _project

    g = _validate_grid(grid)
    conf = tables.confounder.get(query.x_condition)
    if conf is None:
        raise DataError("confounder table missing the conditioning group")
    totals = np.zeros(g.size)
    for z, pz in conf.items():
        med = tables.mediator.get((query.x_mediator, z))
        if med is None:
            raise DataError(
                f"mediator table missing stratum {(query.x_mediator, z)!r}"
            )
        for w, pw in med.items():
            f = functional_from_curve(
                outcome_model.predict(query.x_outcome, z, w), functional, g
            )
            totals += pz * pw * f
    kind = functional.curve_kind
    fixed, _ = _project(totals, kind)
    return StepCurve(
        g, fixed, value_at_zero=1.0 if kind == "survival" else 0.0, kind=kind
    )


# ---------------------------------------------------------------------------
# Single-row influence values: wrappers of `evaluate_influence`
# ---------------------------------------------------------------------------

def _row_cohort(row, n_causes):
    from fairsurv.scm import Cohort

    return Cohort(
        x=[row["x"]], z=[row["z"]], w=[row["w"]],
        m=[row["m"]], delta=[row["delta"]], n_causes=n_causes,
    )


def influence_survival(row, nuisances, query, t, *, psi=0.0,
                       p_condition=None, epsilon=0.01, cap=50.0):
    """Survival-scale influence value for a single row at one time.

    ``row`` is a mapping with keys x, z, w, m, delta.  ``psi`` is the
    centering value; the default 0 returns the uncentered contribution.
    """
    from fairsurv.dr import evaluate_influence
    from fairsurv.queries import Functional

    cohort = _row_cohort(row, nuisances.outcome.n_causes)
    kind = ("survival" if nuisances.outcome.n_causes == 1
            else "all_cause_survival")
    ev = evaluate_influence(
        cohort, nuisances, query, Functional(kind), [float(t)], psi=psi,
        p_condition=p_condition, epsilon=epsilon, cap=cap,
    )
    return float(ev.values[0, 0])


def influence_cif(row, nuisances, query, k, t, *, psi=0.0,
                  p_condition=None, epsilon=0.01, cap=50.0):
    """Cumulative-incidence influence value for a single row at one time."""
    from fairsurv.dr import evaluate_influence
    from fairsurv.queries import Functional

    cohort = _row_cohort(row, nuisances.outcome.n_causes)
    ev = evaluate_influence(
        cohort, nuisances, query, Functional("cif", cause=int(k)),
        [float(t)], psi=psi, p_condition=p_condition, epsilon=epsilon,
        cap=cap,
    )
    return float(ev.values[0, 0])


# ---------------------------------------------------------------------------
# The per-cell doubly robust influence evaluation, kept as the oracle of
# the block evaluation in `fairsurv.dr`: every (z, w) cell's predicted
# step curves are built and evaluated one cell at a time.
# ---------------------------------------------------------------------------

def reference_nu_values(nuisances, query, grid, cohort, z_wanted):
    """nu(z) = mean of the cross-arm prediction over the x_w group.

    Returns ({code: (T,) array}, n_fallback) for the confounder codes
    ``z_wanted`` of ``cohort``, where the fallback pools over every x_w
    row when a confounder value never co-occurs with X = x_w in the rows
    the bundle was fitted on (matched by value).  Curves are summed as
    they are predicted, so memory is one of the model's prediction
    blocks, one sum per confounder value and one pooled sum shared by
    every fallback value.
    """
    x_y, x_w = query.x_outcome, query.x_mediator
    wanted = dict(zip(z_wanted, cohort.z_values[z_wanted].tolist()))

    def f_hat(source, rows):  # x_y's outcome curves on the grid, in order
        return (curve.evaluate(grid) for curve in
                predict_rows(nuisances.outcome, x_y, source, rows))

    out = {}
    if nuisances.mediator_table is not None:
        laws = []
        for code, z in wanted.items():
            law = nuisances.mediator_table.get((x_w, z))
            if law is None:
                raise EstimationError(
                    f"mediator law missing for group {x_w} at z={z!r}")
            laws.append((code, law))
        zs, ws = zip(*((wanted[code], w) for code, law in laws for w in law))
        n = len(zs)
        values = f_hat(Cohort([0] * n, zs, ws, [0] * n, [0] * n), range(n))
        for code, law in laws:
            out[code] = sum(p * next(values) for p in law.values())
        return out, 0
    mediators = nuisances.mediator_cohort
    if mediators is None:
        raise EstimationError(
            "nuisance bundle carries neither a mediator cohort nor a table")
    # each x_w cell's first row and row count, in order of first appearance
    ids, first = mediators.cells("xzw")
    mine = mediators.x[first] == x_w
    first, counts = first[mine], np.bincount(ids)[mine].tolist()
    if not first.size:
        raise DegenerateGroupError(
            f"no rows with X={x_w} available to average the mediator over")
    cells = {}  # z value -> its x_w cells
    for cell, z in enumerate(mediators.z_values[mediators.z_codes[first]]):
        cells.setdefault(z, []).append(cell)
    seen = {code: cells[z] for code, z in wanted.items() if z in cells}
    if len(seen) < len(wanted):
        values = f_hat(mediators, first)
        out = dict.fromkeys(
            wanted, sum(c * next(values) for c in counts) / sum(counts))
    values = f_hat(mediators, first[[c for cs in seen.values() for c in cs]])
    for code, group in seen.items():
        out[code] = sum(counts[c] * next(values) for c in group) / sum(
            counts[c] for c in group)
    return out, len(wanted) - len(seen)


def _by_cell(ids, rows):
    """Positions in ``rows`` of every (z, w) cell among them, where ``ids``
    are the cohort's cell ids."""
    present, local = np.unique(ids[rows], return_inverse=True)
    return cell_members(local.reshape(-1), present.size) if rows.size else []


class ReferenceContributions(_Contributions):
    """`fairsurv.dr._Contributions` evaluating cell by cell, with nu(z)
    from `reference_nu_values`, and trimming each cell's rows at ``cap``
    as it goes."""

    def __init__(self, cohort, nuisances, queries, functional, grid,
                 p_conditions, epsilon, cap, rows):
        super().__init__(cohort, nuisances, queries, functional, grid,
                         p_conditions, epsilon, rows)
        self.cap = cap
        z_wanted = np.unique(cohort.z_codes[rows]).tolist()
        by_pair = {(q.x_outcome, q.x_mediator): q for q in queries}
        nu = {pair: reference_nu_values(nuisances, q, grid, cohort, z_wanted)
              for pair, q in by_pair.items()}
        self.nu_maps, self.n_fallback = zip(
            *(nu[(q.x_outcome, q.x_mediator)] for q in queries))

    def _parts(self, rows, cells):
        """Yield ``(query index, positions, parts)`` per cell of ``cells``
        (from ``_by_cell(ids, rows)``), query and group X: ``positions``
        index ``rows`` and ``parts`` holds the (component name, values)
        pairs that apply to those rows, in COMPONENT_NAMES order.  Each
        survival model predicts a cell's curves at a row of it, each
        propensity model all cells in one call; a cell's propensities,
        outcome curves and unweighted arm terms are derived once, and each
        query scales them by its own weights."""
        cohort, nuisances = self.cohort, self.nuisances
        first = rows[[pos[0] for pos in cells]]
        by_group = [{g: pos[cohort.x[rows[pos]] == g] for g in (0, 1)}
                    for pos in cells]
        groups = self.outcome_groups
        x_out = np.tile(groups, len(cells))
        at_out = np.repeat(first, len(groups))
        has_rows = np.array([at[g].size > 0 for at in by_group
                             for g in groups], dtype=bool)
        outcome = predict_rows(nuisances.outcome, x_out, cohort, at_out)
        censoring = predict_rows(nuisances.censoring, x_out[has_rows],
                                 cohort, at_out[has_rows])
        propensities = zip(*(model.predict_many(cohort, first).tolist()
                             for model in (nuisances.propensity_z,
                                           nuisances.propensity_zw)))
        for at, z, (p_z, p_zw) in zip(
                by_group, cohort.z_codes[first].tolist(), propensities):
            curves = {g: next(outcome) for g in groups}
            f = {g: curve.evaluate(self.grid) for g, curve in curves.items()}
            arms = {g: self._arm_terms(rows[at[g]], curves[g],
                                       next(censoring), f[g])
                    for g in curves if at[g].size}
            for qi, (query, p_condition, nu) in enumerate(zip(
                    self.queries, self.p_conditions, self.nu_maps)):
                x_y, x_w, x_z = query.as_tuple()
                parts = {0: [], 1: []}
                if at[x_y].size:
                    weight = p_z[x_z] * p_zw[x_w] / (
                        p_condition * p_z[x_w] * p_zw[x_y])
                    parts[x_y] += [(name, weight * term)
                                   for name, term in arms[x_y]]
                if at[x_w].size:
                    weight = p_z[x_z] / (p_condition * p_z[x_w])
                    parts[x_w].append(("mediator_centering", weight * (
                        f[x_y][None, :] - nu[z][None, :])))
                if at[x_z].size:
                    parts[x_z].append(("conditioning_centering",
                                       nu[z][None, :] / p_condition))
                for g in (0, 1):
                    if parts[g]:
                        yield qi, at[g], parts[g]

    def _arm_terms(self, sel, s_curve, g_curve, f_y):
        """Unweighted (component name, values) outcome-arm terms of the
        rows ``sel`` of one group in one (z, w) cell, whose outcome curve
        is ``s_curve``, its grid values ``f_y``, and censoring curve
        ``g_curve``.  ``xi_two`` is kept negated, as it enters the sum."""
        grid, epsilon = self.grid, self.epsilon
        m_rows = self.cohort.m[sel]
        d_rows = self.cohort.delta[sel]
        if self.base == "cif":
            g_left = np.maximum(g_curve.left_limit(m_rows), epsilon)
            hit = ((d_rows == self.cause)[:, None]
                   & (m_rows[:, None] <= grid[None, :]))
            return [("ipcw_core", hit / g_left[:, None] - f_y[None, :])]

        g_grid = np.maximum(g_curve.evaluate(grid), epsilon)
        core = (m_rows[:, None] > grid[None, :]) / g_grid[None, :]
        terms = [("ipcw_core", core - f_y[None, :])]

        cens = d_rows == 0
        if np.any(cens):
            s_m = np.maximum(s_curve.evaluate(m_rows), epsilon)
            g_m = np.maximum(g_curve.evaluate(m_rows), epsilon)
            before = m_rows[:, None] <= grid[None, :]
            terms.append(("xi_one", (cens[:, None] & before) * (
                f_y[None, :] / (s_m * g_m)[:, None])))

        lams = _increments(np.concatenate(([g_curve.value_at_zero],
                                           g_curve.values)))
        keep = (lams > 0.0) & (g_curve.breakpoints <= grid[-1])
        times, lams = g_curve.breakpoints[keep], lams[keep]
        if times.size:
            s_left = np.maximum(s_curve.left_limit(times), epsilon)
            g_at = np.maximum(g_curve.evaluate(times), epsilon)
            prefix = np.concatenate(
                ([0.0], np.cumsum(lams / (s_left * g_at))))
            i_m = np.searchsorted(times, m_rows, side="right")
            i_t = np.searchsorted(times, grid, side="right")
            terms.append(("xi_two", -(f_y[None, :] * prefix[
                np.minimum(i_m[:, None], i_t[None, :])])))
        return terms

    def evaluate(self, rows, cells, out, targets, comps=None):
        """Write query q's values of ``rows`` (grid columns) into
        ``out[q, targets]`` and return the number of rows trimmed per
        query; rows no component applies to are left alone.

        A row's value adds its components in COMPONENT_NAMES order.  A
        row with a non-finite value, or one above ``cap`` in magnitude,
        is trimmed: each such entry and its components are multiplied by
        min(cap / |entry|, 1), or zeroed if the entry is not finite.
        Given ``comps`` (component name -> arrays shaped like ``out``),
        the components after trimming go to ``comps[name][q, targets]``.
        """
        n_flagged = np.zeros(len(self.queries), dtype=int)
        for qi, pos, parts in self._parts(rows, cells):
            total = np.broadcast_to(sum(v for _, v in parts),
                                    (pos.size, self.grid.size))
            # NaN compares false, so non-finite rows are flagged too
            flagged = np.flatnonzero(
                ~(np.abs(total).max(axis=1) <= self.cap))
            if flagged.size:
                parts, total = self._trim(parts, total, flagged)
                n_flagged[qi] += flagged.size
            out[qi, targets[pos]] = total
            if comps is not None:
                for name, v in parts:
                    comps[name][qi, targets[pos]] = v
        return n_flagged

    def _trim(self, parts, total, flagged):
        """``parts`` and their sum ``total`` with the entries of the rows
        ``flagged`` scaled (or zeroed) as ``evaluate`` describes."""
        sub = total[flagged]
        bad = ~np.isfinite(sub)
        over = np.abs(sub) > self.cap
        scale = np.ones_like(sub)
        with np.errstate(divide="ignore", invalid="ignore"):
            scale[over] = self.cap / np.abs(sub[over])
        scale[bad] = 0.0

        def scaled(v):
            v = np.array(np.broadcast_to(v, total.shape))
            with np.errstate(invalid="ignore"):
                part = v[flagged] * scale
            part[bad] = 0.0
            v[flagged] = part
            return v
        return [(name, scaled(v)) for name, v in parts], scaled(total)



def reference_influence(cohort, nuisances, query, functional, grid, *,
                       psi=0.0, p_condition=None, epsilon=0.01, cap=50.0):
    """Influence values for every row at every grid time, centered at psi.

    ``p_condition`` defaults to the nuisance bundle's marginal for the
    conditioning group; cross-fitting passes the full-sample fraction
    explicitly so that centering is exact.
    """
    grid = _validate_grid(grid)
    query = _as_query(query)
    if p_condition is None:
        p1 = nuisances.propensity_z.marginal
        p_condition = p1 if query.x_condition == 1 else 1.0 - p1
    if not p_condition > 0.0:
        raise DegenerateGroupError("conditioning group has probability zero")
    ids, _ = cohort.cells("zw")
    rows = np.arange(cohort.n)
    comps = {name: np.zeros((1, cohort.n, grid.size))
             for name in COMPONENT_NAMES}
    (n_flagged,) = ReferenceContributions(
        cohort, nuisances, [query], functional, grid, [p_condition],
        epsilon, cap, rows).evaluate(
            rows, _by_cell(ids, rows), np.zeros((1, cohort.n, grid.size)),
            rows, comps)
    comps = {name: comp[0] for name, comp in comps.items()}
    psi_arr = np.broadcast_to(np.asarray(psi, dtype=float), grid.shape)
    ind_z = (cohort.x == query.x_condition).astype(float)
    comps["conditioning_centering"] = comps["conditioning_centering"] - (
        ind_z[:, None] / p_condition) * psi_arr[None, :]
    values = sum(comps[name] for name in COMPONENT_NAMES)
    return InfluenceEvaluation(grid=grid, values=values, components=comps,
                               n_flagged=int(n_flagged))


# ---------------------------------------------------------------------------
# Entry points only tests call: one query, one horizon, one stratum, and
# exact nuisances read off a generative spec
# ---------------------------------------------------------------------------

def crossfit_dr(plan, query, functional, grid=None):
    """Cross-fitted one-step estimate of one potential-outcome curve."""
    return crossfit_dr_many(plan, [query], functional, grid)[_as_query(query)]


def plugin_po(nuisances, cohort, query, functional, grid,
              return_report=False):
    """Weighted plug-in estimate of one potential-outcome curve; the
    one-query case of `plugin_po_many`."""
    curve, report = plugin_po_many(
        nuisances, cohort, [query], functional, grid)[query]
    return (curve, report) if return_report else curve


def restricted_mean(curve, horizon):
    """Exact integral of a survival step curve from 0 to `horizon`."""
    h = float(horizon)
    if not np.isfinite(h) or h <= 0.0:
        raise DataError("horizon must be positive and finite")
    return float(restricted_means(curve, [h])[0])


def stratum_curve(m, delta, target, n_causes):
    """Product-limit curve of one stratum's rows by the one-cohort
    estimators: cumulative incidence for a cause target, survival
    otherwise."""
    if isinstance(target, int):
        return aalen_johansen_cif(m, delta, cause=target, n_causes=n_causes)
    return kaplan_meier(m, _indicator(delta, target))


def copula_cdf(spec, u, v):
    """C(u, v) = phi^{-1}(phi(u) + phi(v))."""
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    out = generator_inverse(spec, generator(spec, u) + generator(spec, v))
    # exact on the boundary regardless of float noise in the generator
    out = np.where((u <= 0.0) | (v <= 0.0), 0.0, out)
    out = np.where(v >= 1.0, u, out)
    out = np.where(u >= 1.0, np.where(v >= 1.0, 1.0, v), out)
    return out if out.ndim else float(out)


class CoincidentJumpError(EstimationError):
    """The single-jump recursion met coincident jump times; use bounds."""


def cge_classical(cif_t, cif_c, spec):
    """Single-jump recursion: exact when the two curves never move together.

    Walks the merged jump times; an event jump updates S through
    phi(S) = phi(S_all) - phi(G), a censoring jump updates G
    symmetrically.  Returns the pair (S, G) of latent marginal survival
    curves on the merged jump grid.
    """
    _check_cif_inputs(cif_t, cif_c)
    jumps_t = _jump_times(cif_t)
    jumps_c = _jump_times(cif_c)
    shared = np.intersect1d(jumps_t, jumps_c)
    if shared.size:
        raise CoincidentJumpError(
            f"event and censoring incidence jump together at t={shared[0]:g}; "
            "the single-jump recursion does not apply — use the bounded "
            "variant")
    merged = np.union1d(jumps_t, jumps_c)
    if merged.size == 0:
        raise DataError("both incidence curves are identically zero")

    is_event = np.isin(merged, jumps_t).tolist()
    s_vals, g_vals = np.empty(merged.size), np.empty(merged.size)
    s_prev, g_prev = 1.0, 1.0
    for i, t in enumerate(merged):
        s_all = 1.0 - cif_t.evaluate(t) - cif_c.evaluate(t)
        if s_all < -_SUM_SLACK:
            raise DataError(f"incidence curves sum above one at t={t:g}")
        # the jumping curve's marginal moves, the other one's is held
        held = g_prev if is_event[i] else s_prev
        value = 0.0 if s_all <= 0.0 else float(_invert_nonneg(
            spec, generator(spec, s_all) - generator(spec, held))[0])
        if is_event[i]:
            s_prev = min(value, s_prev)
        else:
            g_prev = min(value, g_prev)
        s_vals[i], g_vals[i] = s_prev, g_prev
    s_vals = np.clip(s_vals, 0.0, 1.0)
    g_vals = np.clip(g_vals, 0.0, 1.0)
    return (StepCurve(merged, s_vals, value_at_zero=1.0, kind="survival"),
            StepCurve(merged, g_vals, value_at_zero=1.0, kind="survival"))


def component_gap(evaluation):
    """Largest gap between an `InfluenceEvaluation`'s values and the sum
    of its components."""
    total = sum(evaluation.components[name] for name in COMPONENT_NAMES)
    return float(np.max(np.abs(total - evaluation.values), initial=0.0))


def event_support(spec):
    """Sorted union of finite event-time atoms across strata and causes."""
    pts = set()
    for canon in spec._event:
        for times, probs in canon.values():
            pts.update(t for t, p in zip(times, probs) if np.isfinite(t) and p > 0)
    return np.array(sorted(pts))


def censor_hazard_increments(spec, x, z, w):
    """Discrete censoring hazard P(C = u) / P(C >= u) at each atom."""
    return spec._law_hazard("censor", x, z, w)


def model_from_curves(curves, target, n_causes=1, fit_report=None):
    """Wrap an explicit {(x, z, w): StepCurve} lookup as a model.

    Keys may also be (x, z), (x,), or () to serve as backoff levels.
    Useful for exact tables and for deliberately distorted inputs in
    robustness studies.
    """
    target = _normalize_target(target, math.inf)
    table = {}
    for key, curve in curves.items():
        key = tuple(key)
        if len(key) > 3:
            raise DataError("curve keys must be (), (x,), (x,z) or (x,z,w)")
        if not isinstance(curve, StepCurve):
            raise DataError("curve table values must be StepCurve")
        canon = tuple(
            int(part) if i == 0 else _canonical_item(part)
            for i, part in enumerate(key)
        )
        table[canon] = curve
    report = dict(fit_report or {})
    report.setdefault("learner", "stratified")
    report.setdefault("target", _target_label(target))
    report.setdefault("source", "curve-table")
    return ConditionalSurvivalModel(
        "stratified", target, n_causes, report, curves=table,
        grid=np.unique(np.concatenate([np.empty(0)] + [
            c.breakpoints for c in table.values()])))


def survival_model_from_spec(spec, target):
    """Exact per-stratum curves read off a generative spec's laws."""
    target = _normalize_target(target, math.inf)
    curves = {}
    for x, z, w in spec.strata():
        if target == "censoring":
            curve = spec.conditional_survival(x, z, w, cause="censor")
        elif target == "event":
            curve = spec.conditional_all_cause_survival(x, z, w)
        else:
            curve = spec.conditional_cif(x, z, w, cause=target)
        curves[(x, z, w)] = curve
    return model_from_curves(
        curves, target, n_causes=spec.n_causes,
        fit_report={"source": "generative-spec"},
    )


def propensity_from_spec(spec, conditioning):
    """Exact group probabilities implied by a generative spec."""
    if conditioning not in _CONDITIONING:
        raise DataError(f"conditioning must be one of {_CONDITIONING}")
    marginal = sum(spec.p_xz[(1, z)] for z in spec.z_support)
    table = {}
    if conditioning == "z":
        for z in spec.z_support:
            denom = spec.p_xz[(0, z)] + spec.p_xz[(1, z)]
            table[(z,)] = spec.p_xz[(1, z)] / denom
    elif conditioning == "zw":
        for z in spec.z_support:
            for w in spec.w_support:
                joint = {
                    x: spec.p_xz[(x, z)] * spec.p_w_given_xz[(x, z)][w]
                    for x in (0, 1)
                }
                table[(z, w)] = joint[1] / (joint[0] + joint[1])
    return PropensityModel(
        "frequency_table", conditioning, 0.0,
        {"source": "generative-spec", "conditioning": conditioning},
        table=table, marginal=marginal,
    )


def dr_nuisances_from_spec(spec, functional):
    """Exact nuisance bundle read off a generative spec (no estimation)."""
    target = _dr_target(functional)
    return DRNuisances(
        outcome=survival_model_from_spec(spec, target),
        censoring=survival_model_from_spec(spec, "censoring"),
        propensity_zw=propensity_from_spec(spec, "zw"),
        propensity_z=propensity_from_spec(spec, "z"),
        mediator_table=dict(spec.p_w_given_xz),
    )
