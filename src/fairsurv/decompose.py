"""Decompositions of the group disparity in a time-to-event functional.

The total variation (TV) between two groups is split into a direct, an
indirect (mediator-borne), and a spurious (confounder-borne) channel by
contrasting four potential-outcome curves.  Writing po(a, b, c) for the
curve whose outcome law follows group a, mediator law group b, and
covariate mix group c:

    direct    = po(x1, x0, x0) - po(x0, x0, x0)
    indirect  = po(x1, x0, x0) - po(x1, x1, x0)
    spurious  = po(x1, x1, x0) - po(x1, x1, x1)
    tv        = po(x1, x1, x1) - po(x0, x0, x0)

so that tv = direct - indirect - spurious holds exactly at every grid
time.  The indirect and spurious contrasts run against the transition
direction, hence the minus signs: a positive indirect effect means the
mediator shift *away* from x1 raises the functional.

On the ratio scale the same four curves give

    direct    = po(x1, x0, x0) / po(x0, x0, x0)
    indirect  = po(x1, x0, x0) / po(x1, x1, x0)
    spurious  = po(x1, x1, x0) / po(x1, x1, x1)
    tv        = po(x1, x1, x1) / po(x0, x0, x0)

with the multiplicative identity tv = direct * indirect^-1 * spurious^-1.

Standard errors for composite effects are those of the per-row
influence combination of the curves entering the contrast -- not sums
of variances -- so the correlation induced by shared rows and shared
nuisance fits is accounted for.  The curves' shared influence moments
give them without per-row storage.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, replace

import numpy as np

from .curves import StepCurve
from .dr import DRCurveEstimate, FoldPlan, Z_CRITICAL, crossfit_dr_many
from .errors import DataError, RatioUndefinedError
from .identify import (
    _validate_grid,
    default_grid,
    fit_plugin_nuisances,
    outcome_target,
    plugin_po_many,
)
from .nuisance import fit_outcome
from .queries import EFFECT_NAMES, Functional, PotentialOutcomeQuery, \
    effect_contrasts, role_queries, table_csv

ESTIMATOR_KINDS = ("plugin", "doubly_robust", "oracle")


def _check_arms(x0, x1):
    if x0 not in (0, 1) or x1 not in (0, 1):
        raise DataError("group labels must be 0 or 1")
    if x0 == x1:
        raise DataError("the two comparison groups must differ")
    return int(x0), int(x1)


def _normalize_po(po_curves):
    out = {}
    for key, value in po_curves.items():
        query = key if isinstance(key, PotentialOutcomeQuery) \
            else PotentialOutcomeQuery(*key)
        out[query] = value
    return out


def _po_arrays(entry):
    """(own grid or None, values, influence moments or None) of one
    potential-outcome curve."""
    if isinstance(entry, DRCurveEstimate):
        return entry.grid, entry.estimate, entry.influence
    if isinstance(entry, StepCurve):
        return entry.breakpoints, entry.values, None
    return None, entry, None


def _collect(po_curves, x0, x1, grid):
    """Pull the four required curves onto one shared grid."""
    po_map = _normalize_po(po_curves)
    needed = role_queries(x0, x1)
    for query in needed:
        if query not in po_map:
            raise DataError(
                f"missing potential-outcome curve for query {query.as_tuple()}")
    arrays = {query: _po_arrays(po_map[query]) for query in needed}
    if grid is None:
        owned = [own for own, *_ in arrays.values() if own is not None]
        if not owned:
            raise DataError(
                "a grid is required when curves are plain value arrays")
        grid = owned[0]
    grid = _validate_grid(grid)

    values, influence = {}, {}
    for query, (own, v, moments) in arrays.items():
        if own is not None and not np.array_equal(
                np.asarray(own, dtype=float), grid):
            raise DataError(
                f"curve for query {query.as_tuple()} is on a different grid")
        v = np.asarray(v, dtype=float)
        if v.shape != (grid.size,):
            raise DataError(
                f"curve for query {query.as_tuple()} has {v.shape} values "
                f"but the grid has {grid.size} points")
        values[query], influence[query] = v, moments

    moments = influence[needed[0]]
    if any(influence[q] is None for q in needed):
        moments = None
    elif any(influence[q] is not moments for q in needed):
        raise DataError(
            "doubly robust curves come from different cross-fitting passes "
            "(fold plans); estimate all four queries in one pass")
    return grid, values, moments


def _resolve_estimator(estimator, have_if):
    if estimator is None:
        estimator = "doubly_robust" if have_if else "plugin"
    if estimator not in ESTIMATOR_KINDS:
        raise DataError(f"unknown estimator kind {estimator!r}")
    if estimator == "doubly_robust" and not have_if:
        raise DataError(
            "doubly robust series need the influence moments of a "
            "cross-fitted estimate for every query")
    return estimator


@dataclass
class EffectSeries:
    """One effect curve with its normal-approximation band."""

    name: str
    estimate: np.ndarray
    se: np.ndarray | None = None
    lo: np.ndarray | None = None
    hi: np.ndarray | None = None


@dataclass
class DecompositionSeries:
    """Per-time tv/direct/indirect/spurious curves on one grid."""

    grid: np.ndarray
    effects: dict
    scale: str
    functional: Functional
    estimator: str
    x0: int
    x1: int
    diagnostics: dict

    def effect(self, name):
        if name not in self.effects:
            raise DataError(f"unknown effect name {name!r}")
        return self.effects[name]

    def blocks(self, *labels):
        """One `t, *labels, effect, estimate, se, lo, hi` table block per
        effect, for `table_csv`."""
        out = []
        for name in EFFECT_NAMES:
            eff = self.effects[name]
            out.append([self.grid, *labels, name, eff.estimate, eff.se,
                        eff.lo, eff.hi])
        return out

    def to_csv(self, header_comment=None):
        return table_csv("t,effect,estimate,se,lo,hi", self.blocks(),
                         header_comment)

    def to_json(self, indent=2):
        def arr(values):
            return None if values is None else [float(v) for v in values]

        payload = {
            "scale": self.scale,
            "estimator": self.estimator,
            "x0": self.x0,
            "x1": self.x1,
            "functional": asdict(self.functional),
            "grid": [float(v) for v in self.grid],
            "effects": {
                name: {
                    "estimate": arr(eff.estimate),
                    "se": arr(eff.se),
                    "lo": arr(eff.lo),
                    "hi": arr(eff.hi),
                }
                for name, eff in self.effects.items()
            },
            "diagnostics": self.diagnostics,
        }
        return json.dumps(payload, indent=indent, sort_keys=True)


def _infer_functional(po_curves):
    for entry in po_curves.values():
        if isinstance(entry, DRCurveEstimate):
            return entry.functional
    return Functional("survival")


# A contrast maps two (values, influence coefficients) pairs to the
# effect's values and the coefficients (queries x grid) of its influence
# function in the queries' influence functions; None without them.

def _difference(pos, neg):
    (v_pos, c_pos), (v_neg, c_neg) = pos, neg
    return v_pos - v_neg, None if c_pos is None else c_pos - c_neg


def _ratio(pos, neg):
    (v_pos, c_pos), (v_neg, c_neg) = pos, neg
    ratio = v_pos / v_neg
    if c_pos is None:
        return ratio, None
    return ratio, (c_pos - ratio[None, :] * c_neg) / v_neg[None, :]


def _decompose(scale, po_curves, x0, x1, functional, estimator, grid,
               diagnostics):
    x0, x1 = _check_arms(x0, x1)
    grid, values, moments = _collect(po_curves, x0, x1, grid)
    estimator = _resolve_estimator(estimator, moments is not None)
    if functional is None:
        functional = _infer_functional(po_curves)
    if scale == "ratio":
        for query, vals in values.items():
            bad = np.flatnonzero(vals <= 0.0)
            if bad.size:
                j = int(bad[0])
                raise RatioUndefinedError(
                    f"potential outcome for query {query.as_tuple()} is "
                    f"{vals[j]:.6g} at t={grid[j]:g}; ratio-scale effects "
                    "need strictly positive curves")

    dr = estimator == "doubly_robust"
    curves = {q: (values[q], moments.unit(q) if dr else None)
              for q in values}
    contrast = _ratio if scale == "ratio" else _difference
    effects = {}
    for name, (estimate, coef) in effect_contrasts(
            curves, x0, x1, contrast).items():
        if coef is None:
            effects[name] = EffectSeries(name=name, estimate=estimate)
        else:
            se = moments.se(coef)
            effects[name] = EffectSeries(
                name=name, estimate=estimate, se=se,
                lo=estimate - Z_CRITICAL * se,
                hi=estimate + Z_CRITICAL * se)

    info = {"n_rows": moments.n} if moments is not None else {}
    if diagnostics:
        info.update(diagnostics)
    return DecompositionSeries(
        grid=grid, effects=effects, scale=scale,
        functional=functional, estimator=estimator, x0=x0, x1=x1,
        diagnostics=info)


def decompose_difference(po_curves, x0, x1, *, functional=None,
                         estimator=None, grid=None, diagnostics=None):
    """Additive decomposition tv = direct - indirect - spurious.

    `po_curves` maps each of the four queries to a curve: a cross-fitted
    estimate (carrying influence moments, which yield standard errors),
    a step curve, or a plain value array on `grid`.  All four must share
    one grid; cross-fitted estimates must all come from one
    `crossfit_dr_many` call.
    """
    return _decompose("difference", po_curves, x0, x1, functional,
                      estimator, grid, diagnostics)


def decompose_ratio(po_curves, x0, x1, *, functional=None, estimator=None,
                    grid=None, diagnostics=None):
    """Multiplicative decomposition tv = direct / (indirect * spurious).

    Every potential-outcome value must be strictly positive on the grid;
    the first nonpositive value aborts with the offending query and
    time.  Standard errors (for cross-fitted estimates) follow the delta
    method for a ratio, again from the combined influence functions.
    """
    return _decompose("ratio", po_curves, x0, x1, functional, estimator,
                      grid, diagnostics)


def cr_functionals(cohort, causes=None):
    """The functionals of a competing-causes run on ``cohort``: the
    incidence of each of ``causes`` (default: every cause), then
    all-cause survival."""
    if cohort.n_causes < 2:
        raise DataError("competing-cause analysis needs at least two causes")
    causes = [int(k) for k in (range(1, cohort.n_causes + 1)
                               if causes is None else causes)]
    if not causes:
        raise DataError("causes must name at least one event type")
    if len(set(causes)) != len(causes):
        raise DataError("causes must not repeat")
    for k in causes:
        if not 1 <= k <= cohort.n_causes:
            raise DataError(f"cause {k} outside 1..{cohort.n_causes}")
    return [*(Functional("cif", cause=k) for k in causes),
            Functional("all_cause_survival")]


def _series(cohort, functionals, x0, x1, estimator, grid, *,
            scale="difference", learners=None, epsilon=0.01, n_folds=2,
            seed=0, cap=50.0):
    """One decomposition series per functional, from one fit plan: a
    `FoldPlan`, or the plug-in's propensities plus one outcome model per
    functional (its series carry the reports of `plugin_po_many`).
    `learners` is the learner mapping of both estimators."""
    if estimator not in ("plugin", "doubly_robust"):
        raise DataError(f"unknown estimator kind {estimator!r}")
    reducer = decompose_ratio if scale == "ratio" else decompose_difference
    queries = role_queries(x0, x1)
    if estimator == "doubly_robust":
        plan = FoldPlan(cohort, n_folds, seed, learners=learners,
                        epsilon=epsilon, cap=cap)
    else:
        learners = learners or {}
        propensities = fit_plugin_nuisances(cohort, None, epsilon=epsilon,
                                            **learners)
    series = []
    for functional in functionals:
        if estimator == "doubly_robust":
            po = crossfit_dr_many(plan, queries, functional, grid=grid)
            diagnostics = None
        else:
            nuisances = replace(propensities, outcome=fit_outcome(
                cohort, outcome_target(functional), **learners))
            results = plugin_po_many(nuisances, cohort, queries, functional,
                                     grid)
            po = {q: curve for q, (curve, _) in results.items()}
            diagnostics = {"plugin_reports": {
                str(q.as_tuple()): report
                for q, (_, report) in results.items()}}
        series.append(reducer(po, x0, x1, functional=functional,
                              estimator=estimator, grid=grid,
                              diagnostics=diagnostics))
    return series


def decompose_cr(cohort, x0, x1, causes=None, estimator="plugin", *,
                 grid=None, learners=None, epsilon=0.01, n_folds=2, seed=0,
                 cap=50.0):
    """Per-cause incidence decompositions plus the all-cause survival one.

    Returns one difference-scale series per requested cause (on the
    cause's incidence scale) followed by one for all-cause survival, all
    from one fit plan: one `FoldPlan`, or one fit of each propensity and
    one outcome model per series.  All series share the outcome-model
    weights, under the plug-in estimator also the propensity fits, so
    the per-time identity

        sum_k tv_k(t) = -tv_all_cause(t)

    holds up to floating rounding whenever no propensity was clipped.
    `learners` is the learner mapping of both estimators, the learner
    keywords of `fit_dr_nuisances`; an unknown key is a DataError before
    any fit.
    """
    x0, x1 = _check_arms(x0, x1)
    functionals = cr_functionals(cohort, causes)
    grid = default_grid(cohort) if grid is None else _validate_grid(grid)
    return _series(cohort, functionals, x0, x1, estimator, grid,
                   learners=learners, epsilon=epsilon, n_folds=n_folds,
                   seed=seed, cap=cap)
