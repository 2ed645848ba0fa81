"""Plug-in estimation of interventional potential-outcome curves.

A query (x_outcome, x_mediator, x_condition) asks for the expected
structural functional when the direct path follows x_outcome, the
mediator law follows x_mediator, and the covariate mix is that of group
x_condition.  The weighted estimator averages the outcome model's
per-stratum functional over rows, reweighting each row by propensity
ratios so the mediator and conditioning arms land on the requested
groups.  The ratios read two propensity models, P(X = 1 | z, w) and
P(X = 1 | z), each asked once per covariate cell for both groups.  The
functional is computed on the outcome model's block values
(``predict_values``), every distinct curve of a block once.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .curves import StepCurve, _increments, restricted_mean_values
from .errors import DataError, EmptyCohortError
from .nuisance import (
    ConditionalSurvivalModel,
    PropensityModel,
    _quantiles,
    check_learners,
    fit_outcome,
    fit_propensity,
)


def outcome_target(functional):
    """Which conditional model a functional reads from."""
    if functional.kind == "cif":
        return functional.cause
    return "event"


def _functional_values(model, values, jumps, functional, grid):
    """The structural functional of every curve of a block of ``model``'s
    values and jumps (see `ConditionalSurvivalModel.predict_values`) at
    the times ``grid``, as (curves x grid)."""
    cols = np.searchsorted(model.grid, grid, side="right")
    if functional.kind in ("survival", "all_cause_survival", "cif"):
        return values[:, cols]
    if functional.kind == "rmst":
        return restricted_mean_values(model.grid, values, jumps, grid,
                                      functional.horizon)
    if functional.kind == "cumulative_hazard":
        # between a curve's jumps its increments are exact zeros
        chf = np.zeros_like(values)
        np.cumsum(_increments(values), axis=1, out=chf[:, 1:])
        return chf[:, cols]
    raise DataError(f"unsupported functional kind {functional.kind!r}")


def _validate_grid(grid):
    g = np.asarray(grid, dtype=float)
    if g.ndim != 1 or g.size == 0:
        raise DataError("grid must be a nonempty 1-d array")
    if np.any(~np.isfinite(g)) or np.any(g < 0.0):
        raise DataError("grid points must be finite and nonnegative")
    if g.size > 1 and np.any(np.diff(g) <= 0.0):
        raise DataError("grid must be strictly increasing")
    return g


def time_quantiles(cohort, levels):
    """``np.quantile(cohort.m, levels)`` by numpy's 'linear' rule, over
    the distinct times the codes count (where -0.0 reads 0.0)."""
    ordered = np.repeat(cohort.m_times, np.bincount(
        cohort.m_codes, minlength=cohort.m_times.size))
    return _quantiles(ordered, np.zeros(1, dtype=np.intp),
                      np.array([ordered.size]), np.asarray(levels, dtype=float))[0]


def default_grid(cohort):
    """Distinct observed event times up to the 95th percentile of M."""
    event_times = cohort.m_times[np.bincount(
        cohort.m_codes[cohort.delta > 0], minlength=cohort.m_times.size) > 0]
    pts = event_times[event_times <= time_quantiles(cohort, [0.95])[0]]
    if pts.size == 0:
        raise EmptyCohortError("no event times available to build a grid")
    return pts


def _pava_nonincreasing(values):
    """Pool-adjacent-violators projection onto nonincreasing sequences."""
    vals, counts = [], []
    for v in values:
        vals.append(float(v))
        counts.append(1)
        while len(vals) > 1 and vals[-2] < vals[-1]:
            pooled = vals[-1] * counts[-1] + vals[-2] * counts[-2]
            cnt = counts[-1] + counts[-2]
            vals[-2:] = [pooled / cnt]
            counts[-2:] = [cnt]
    out = np.empty(len(values))
    pos = 0
    for v, c in zip(vals, counts):
        out[pos:pos + c] = v
        pos += c
    return out


def _project(values, kind):
    """Clamp and monotone-project raw averages into a valid curve."""
    raw = np.asarray(values, dtype=float)
    if kind == "survival":
        fixed = _pava_nonincreasing(np.clip(raw, 0.0, 1.0))
    elif kind == "cif":
        fixed = -_pava_nonincreasing(-np.clip(raw, 0.0, 1.0))
    elif kind == "hazard":
        fixed = -_pava_nonincreasing(-np.maximum(raw, 0.0))
    else:
        fixed = raw
    return fixed, float(np.max(np.abs(fixed - raw))) if raw.size else 0.0


@dataclass(frozen=True)
class PluginNuisances:
    """The fitted pieces the weighted estimator consumes; ``outcome`` is
    None when only the propensities were fitted."""

    outcome: ConditionalSurvivalModel
    propensity_zw: PropensityModel
    propensity_z: PropensityModel


def fit_plugin_nuisances(cohort, functional, *, epsilon=0.01, **learners):
    """Fit the outcome model of ``functional`` (none if it is None) and
    both propensities on one cohort.  ``learners`` are the learner
    keywords of ``fit_dr_nuisances``; the censoring ones go unused."""
    learners = check_learners(learners)
    learner = learners.get("propensity_learner", "frequency_table")
    return PluginNuisances(
        outcome=None if functional is None else fit_outcome(
            cohort, outcome_target(functional), **learners),
        **{f"propensity_{conditioning}": fit_propensity(
            cohort, conditioning, learner=learner, epsilon=epsilon)
           for conditioning in ("zw", "z")})


def cell_weights(nuisances, queries, cohort, rows):
    """Propensity weights (rows x queries) of ``rows`` of ``cohort`` in a
    plug-in average: for a query, a row with covariates (z, w) weighs

        P(x_mediator | z, w)   P(x_condition | z)
        -------------------- * ------------------
        P(x_mediator | z)        P(x_condition)

    with P(x_condition) by the plug-in's rule in `fairsurv.dr`."""
    p_zw, p_z = (model.predict_many(cohort, rows)
                 for model in (nuisances.propensity_zw, nuisances.propensity_z))
    p_x = nuisances.propensity_z.group_fractions
    return np.stack([(p_zw[:, q.x_mediator] / p_z[:, q.x_mediator])
                     * (p_z[:, q.x_condition] / p_x[q.x_condition])
                     for q in queries], axis=1)


def plugin_po_many(nuisances, cohort, queries, functional, grid):
    """Weighted plug-in estimates of several potential-outcome curves.

    For each query, row i contributes f(x_outcome, z_i, w_i; t) times the
    `cell_weights` of its (z_i, w_i) cell, and the average is
    clamped/monotone-projected into a valid curve.  Rows whose covariates
    the outcome model cannot serve are dropped and counted in the report.
    Cells are visited once: a cell's propensities and its functional
    under each outcome group are computed once and shared by the
    queries, and each query's sum adds the cells in order of first
    appearance.  Returns {query: (curve, report)}.
    """
    g = _validate_grid(grid)
    queries = list(dict.fromkeys(queries))
    ids, first = cohort.cells("zw")
    weights = cell_weights(nuisances, queries, cohort, first)
    weight_sums = np.stack([np.bincount(ids, weights=column[ids])
                            for column in weights.T], axis=1)
    counts = np.bincount(ids)

    totals = np.zeros((len(queries), g.size))
    served = {}
    for x in sorted({q.x_outcome for q in queries}):
        served[x], start = [], 0
        for values, jumps, index in nuisances.outcome.predict_values(
                x, cohort, first, skip_unserved=True):
            mine = index >= 0
            served[x].append(mine)
            cells = start + np.flatnonzero(mine)
            start += index.size
            values = _functional_values(nuisances.outcome, values, jumps,
                                        functional, g)
            for qi, q in enumerate(queries):
                if q.x_outcome == x:
                    # the running total, then each cell's term in order
                    terms = np.empty((cells.size + 1, g.size))
                    terms[0] = totals[qi]
                    np.take(values, index[mine], axis=0, out=terms[1:])
                    terms[1:] *= weight_sums[cells, qi, None]
                    totals[qi] = np.cumsum(terms, axis=0, out=terms)[-1]
        served[x] = np.concatenate(served[x])

    kind = functional.curve_kind
    out = {}
    for qi, q in enumerate(queries):
        mine = served[q.x_outcome]
        n_included = int(counts[mine].sum())
        if n_included == 0:
            raise EmptyCohortError(
                "every row was outside the outcome model schema")
        weight_total = float(np.cumsum(weight_sums[mine, qi])[-1])
        fixed, distance = _project(totals[qi] / n_included, kind)
        curve = StepCurve(
            g, fixed, value_at_zero=1.0 if kind == "survival" else 0.0,
            kind=kind)
        out[q] = curve, {
            "n_rows": cohort.n,
            "n_excluded": cohort.n - n_included,
            "mean_weight": weight_total / n_included,
            "max_weight": float(np.max(weights[mine, qi], initial=0.0)),
            "projection_distance": distance,
        }
    return out
