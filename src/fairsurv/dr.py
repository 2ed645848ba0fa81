"""Cross-fitted one-step debiased estimation of potential-outcome curves.

The estimator combines an outcome-regression / mediator-standardization
plug-in with inverse-propensity and inverse-censoring corrections.  Its
per-row influence contribution has five pieces:

* an IPCW core ``1(M > t)/G(t|.) - S(t|.)`` (survival scale) or
  ``1(M <= t, delta = k)/G(M-|.) - F_k(t|.)`` (cumulative-incidence
  scale), weighted by a propensity odds ratio,
* two censoring-martingale terms ``xi_1`` and ``xi_2`` (survival scale
  only) that debias the censoring model,
* a mediator-centering term comparing the cross-arm outcome prediction
  with its confounder-level average ``nu(Z)``,
* a conditioning-centering term comparing ``nu(Z)`` with the estimand.

All nuisance curves are step functions, so the correction integrals are
finite sums over curve atoms and the algebra below is exact for the
fitted models: with a correctly specified censoring model the row mean
is unbiased for any monotone outcome table whose atoms avoid the
censoring support, and with a correct outcome model it is unbiased for
any censoring table.  Denominators are floored at ``epsilon``, and
`_trim` caps the evaluated values at ``cap`` in magnitude, counting the
trimmed rows in the diagnostics; neither safeguard fires on well-behaved
cohorts.

No curve is built to evaluate them: the models' predictions at a run of
covariate cells come as block values (``predict_values``), every curve
a row of one (curves x union grid) array, read at the grid, the rows'
times and the censoring jump times by one ``searchsorted`` each, and
all cells of the run are evaluated as arrays.  Rows equal in group,
cell, event label and time have equal values, so each such class is
evaluated at one row; the standard errors' moments weight it by its
rows, and its rows read its values only where the estimates sum them.

P(x) = P(X = x_condition) has one rule per entry; the rules differ only
when a group's fraction is under the clip bound ``epsilon``.
`crossfit_dr_many` takes the cohort's exact fraction: the centering
weights ``1(X = x_condition) / P(x)`` then sum to the row count, so the
influence values centre exactly at the estimate.  The plug-in and Route
I (`identify.cell_weights`) take the z model's `group_fractions`, its
marginal clipped as its predictions are, so P(x | z) / P(x) is a ratio
of values clipped alike.  `evaluate_influence` defaults to the z model's
unclipped `marginal`, the fraction among the rows it was fitted on.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, replace

import numpy as np

from .curves import _BLOCK_ELEMENTS as _PIECE_ELEMENTS
from .curves import _increments, running_rmst
from .errors import (
    DataError,
    DegenerateGroupError,
    EstimationError,
    FoldAssignmentError,
)
from .identify import _validate_grid, default_grid, outcome_target
from .nuisance import (
    ConditionalSurvivalModel,
    PropensityModel,
    _check_epsilon,
    check_learners,
    fit_conditional_survival,
    fit_outcome,
    fit_propensity,
)
from .queries import Functional, PotentialOutcomeQuery, table_csv
from .scm import Cohort, _first_appearance

COMPONENT_NAMES = (
    "ipcw_core",
    "xi_one",
    "xi_two",
    "mediator_centering",
    "conditioning_centering",
)

Z_CRITICAL = 1.959963984540054  # two-sided 95% normal quantile


# ---------------------------------------------------------------------------
# Nuisance bundle
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DRNuisances:
    """Everything the influence function needs, fitted or injected.

    ``mediator_cohort`` is the cohort the bundle was fitted on; ``nu(Z)``
    is the per-confounder group mean over its (x, z, w) cells.  When an
    exact mediator law is known instead (generative-spec tables, or a
    deliberate misspecification study), pass ``mediator_table`` mapping
    ``(x, z) -> {w: probability}`` and it takes precedence.
    """

    outcome: ConditionalSurvivalModel
    censoring: ConditionalSurvivalModel
    propensity_zw: PropensityModel
    propensity_z: PropensityModel
    mediator_cohort: Cohort = None
    mediator_table: dict = None


def fit_dr_nuisances(cohort, functional, *, outcome_learner="stratified",
                     censoring_learner="stratified",
                     propensity_learner="frequency_table", epsilon=0.01,
                     outcome_params=None, censoring_params=None):
    """Fit the full nuisance bundle on one cohort (or fold complement)."""
    return DRNuisances(
        outcome=fit_outcome(cohort, _dr_target(functional), outcome_learner,
                            outcome_params),
        censoring=fit_conditional_survival(
            cohort, target="censoring", learner=censoring_learner,
            **(censoring_params or {})),
        propensity_zw=fit_propensity(
            cohort, "zw", learner=propensity_learner, epsilon=epsilon),
        propensity_z=fit_propensity(
            cohort, "z", learner=propensity_learner, epsilon=epsilon),
        mediator_cohort=cohort)


def _dr_target(functional):
    if functional.kind == "cumulative_hazard":
        raise DataError(
            "one-step estimation supports survival, all_cause_survival, cif "
            "and rmst functionals; request cumulative hazards from the "
            "plug-in path instead"
        )
    return outcome_target(functional)


def _base_kind(functional):
    """Scale the influence function is evaluated on ("survival"/"cif")."""
    return "cif" if functional.kind == "cif" else "survival"


# ---------------------------------------------------------------------------
# Influence evaluation
# ---------------------------------------------------------------------------

@dataclass
class InfluenceEvaluation:
    """Per-row influence values on a grid, split into named components.

    ``values`` is rows x grid and always equals the sum of the five
    ``components`` arrays entrywise.  The conditioning-centering
    component is reported relative to the ``psi`` the evaluation was
    centered at (zero when uncentered).
    """

    grid: np.ndarray
    values: np.ndarray
    components: dict
    n_flagged: int


def _nu_values(nuisances, query, grid, cohort, z_wanted):
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

    def f_hat(source, rows):  # x_y's outcome values on the grid, in order
        model = nuisances.outcome
        cols = np.searchsorted(model.grid, grid, side="right")
        for values, _, index in model.predict_values(x_y, source, rows):
            on_grid = values[:, cols]
            for i in index.tolist():
                yield on_grid[i]

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


def _check_cap(cap):
    if not np.isfinite(cap) or cap <= 0.0:
        raise DataError(f"cap must be positive and finite, got {cap!r}")


def _trim(values, counts, cap, comps=()):
    """Trim the values (queries x rows x grid) in place and return the
    rows trimmed per query, row r counting as ``counts[r]`` rows.  Each
    value v of a (query, row) with a value not finite or above ``cap`` in
    magnitude is multiplied by min(cap / |v|, 1), or zeroed if not finite,
    and so is its entry in each of the components ``comps``."""
    # NaN compares false, so rows with a non-finite value are flagged too;
    # row maxima and minima take no copy of the values
    q, r = np.nonzero(~((values.max(axis=2) <= cap)
                        & (values.min(axis=2) >= -cap)))
    step = max(1, _PIECE_ELEMENTS // values.shape[2])
    for lo in range(0, q.size, step):
        at = q[lo:lo + step], r[lo:lo + step]
        bad = ~np.isfinite(values[at])
        with np.errstate(divide="ignore", invalid="ignore"):
            scale = np.minimum(cap / np.abs(values[at]), 1.0)
            for array in (values, *comps):
                array[at] = np.where(bad, 0.0, array[at] * scale)
    return np.bincount(q, counts[r], len(values)).astype(int)


class _Contributions:
    """Uncentered influence contributions of several queries under one
    bundle, for rows of ``cohort`` among ``rows``.

    ``p_conditions`` are the queries' conditioning-group fractions.
    nu(z) is computed once per (x_outcome, x_mediator) pair, for the
    confounder values of ``rows`` (``nu[pair]``); ``n_fallback[q]``
    counts those that fell back to the pooled average for query q.
    """

    def __init__(self, cohort, nuisances, queries, functional, grid,
                 p_conditions, epsilon, rows):
        base = _base_kind(functional)
        if base == "cif":
            self.cause = int(functional.cause or 1)
            if nuisances.outcome.curve_kind != "cif" or \
                    nuisances.outcome.target != self.cause:
                raise EstimationError(
                    "outcome model does not predict the requested cause")
        elif nuisances.outcome.curve_kind != "survival":
            raise EstimationError(
                "outcome model predicts cumulative incidence but a "
                "survival-scale functional was requested")
        if nuisances.censoring.target != "censoring":
            raise EstimationError(
                "censoring bundle entry was not fitted with "
                "target='censoring'")
        self.cohort, self.nuisances = cohort, nuisances
        self.queries, self.p_conditions = queries, p_conditions
        self.base, self.grid, self.epsilon = base, grid, epsilon
        z_wanted = np.flatnonzero(np.bincount(cohort.z_codes[rows])).tolist()
        by_pair = {(q.x_outcome, q.x_mediator): q for q in queries}
        nu = {pair: _nu_values(nuisances, q, grid, cohort, z_wanted)
              for pair, q in by_pair.items()}
        self.nu = {pair: values for pair, (values, _) in nu.items()}
        self.n_fallback = [nu[q.x_outcome, q.x_mediator][1] for q in queries]
        self.outcome_groups = sorted({q.x_outcome for q in queries})
        # each model's block-value column of every grid time
        self.outcome_cols, self.censoring_cols = (
            np.searchsorted(model.grid, grid, side="right")
            for model in (nuisances.outcome, nuisances.censoring))

    def evaluate(self, rows, out, targets, comps=None):
        """Write query q's values of ``rows`` (grid columns) into
        ``out[q, targets]``, which holds zeros, untrimmed (`_trim` caps
        them).  A row's value adds its components in COMPONENT_NAMES
        order.  Given ``comps`` (component name -> arrays shaped like
        ``out``), the components go to ``comps[name][q, targets]``.

        Cells go in runs that fit one prediction block of each model,
        which predicts a run's cells, at a row of each, in one call per
        group.  Cells go in repr order of their (z, w) values, so nearby
        values, which tend to reach the same leaves, share a tree
        prediction block (in code order the `short-grid` probe took
        83.4 s, not 43.0 s, and peaked at 90.8, not 81.9 MB)."""
        if not rows.size:
            return
        cohort, nuisances = self.cohort, self.nuisances
        _, first, cell = np.unique(cohort.cells("zw")[0][rows],
                                   return_index=True, return_inverse=True)
        first, cell = rows[first], cell.reshape(-1)
        keys = list(map(repr, zip(
            cohort.z_values[cohort.z_codes[first]].tolist(),
            cohort.w_values[cohort.w_codes[first]].tolist())))
        order = sorted(range(first.size), key=keys.__getitem__)
        rank = np.empty(first.size, dtype=np.intp)
        rank[order] = np.arange(first.size)
        first, cell = first[order], rank[cell]
        p_z, p_zw = (model.predict_many(cohort, first)
                     for model in (nuisances.propensity_z,
                                   nuisances.propensity_zw))
        step = min(nuisances.outcome.block_rows,
                   nuisances.censoring.block_rows)
        order = np.lexsort((cell, cohort.x[rows], cell // step))
        rows, cell, targets = rows[order], cell[order], targets[order]
        runs = np.searchsorted(cell // step * step, np.arange(
            0, first.size + step, step))
        for lo, a, b in zip(range(0, first.size, step), runs, runs[1:]):
            run = slice(lo, lo + step)
            _CellRun(self, first[run], p_z[run], p_zw[run], rows[a:b],
                     cell[a:b] - lo).add_to(out, targets[a:b], comps)


class _CellRun:
    """The rows ``rows`` (by group and cell) of a run of (z, w) cells,
    ``cell`` the run's cell of each, with every model's curves at the
    cells' first rows ``first`` as block values and the cells'
    propensities ``p_z``, ``p_zw`` (cells x group)."""

    def __init__(self, contrib, first, p_z, p_zw, rows, cell):
        self.contrib, self.cell = contrib, cell
        cohort, nuisances = contrib.cohort, contrib.nuisances
        self.x, self.m = cohort.x[rows], cohort.m[rows]
        self.delta = cohort.delta[rows]
        # per (x_outcome, x_mediator) pair: nu(z) at each cell (cells x grid)
        z = cohort.z_codes[first].tolist()
        self.nu_z = {pair: np.array([nu[code] for code in z])
                     for pair, nu in contrib.nu.items()}
        self.s, self.g, self.censored, self.prefix = {}, {}, {}, {}
        for g in contrib.outcome_groups:
            ((values, _, index),) = nuisances.outcome.predict_values(
                g, cohort, first)
            self.s[g] = values, index
            mine = self.x == g
            # the cells with rows of group g
            at = np.flatnonzero(np.bincount(cell[mine], minlength=first.size))
            if not at.size:
                continue
            ((values, _, index),) = nuisances.censoring.predict_values(
                g, cohort, first[at])
            # each cell's censoring curve, as a row of the block values
            self.g[g] = values, np.zeros(first.size, dtype=np.intp)
            self.g[g][1][at] = index
            if contrib.base == "survival":
                self.censored[g] = np.zeros(first.size, dtype=bool)
                self.censored[g][cell[mine & (self.delta == 0)]] = True
                self.prefix[g] = self._prefix(g, at)
        self.weights = [  # per query: arm and mediator weights per cell
            (p_z[:, x_z] * p_zw[:, x_w] / (
                p_condition * p_z[:, x_w] * p_zw[:, x_y]),
             p_z[:, x_z] / (p_condition * p_z[:, x_w]))
            for (x_y, x_w, x_z), p_condition in zip(
                (q.as_tuple() for q in contrib.queries), contrib.p_conditions)]

    def _prefix(self, g, at):
        """The censoring grid up to the last grid time, the ``xi_two``
        prefix sums over it of the cells ``at`` (of group g), and each
        cell's row of those sums, -1 where ``xi_two`` does not apply (its
        censoring curve has no positive hazard increment there).  The
        increments 1 - G(u)/G(u-) are zero at times a cell's curve does
        not jump at, so its sums equal the sums over its jumps alone."""
        contrib = self.contrib
        eps, censoring = contrib.epsilon, contrib.nuisances.censoring
        u = np.searchsorted(censoring.grid, contrib.grid[-1], side="right")
        times = censoring.grid[:u]
        g_values, g_index = self.g[g][0], self.g[g][1][at]
        lams = _increments(g_values[:, :u + 1])
        keep = lams > 0.0
        s_values, s_index = self.s[g]
        den = np.maximum(s_values[:, np.searchsorted(
            contrib.nuisances.outcome.grid, times, side="left")], eps)[
                s_index[at]]
        den *= np.maximum(g_values[:, 1:u + 1], eps)[g_index]
        prefix = np.zeros((at.size, u + 1))
        np.divide(lams[g_index], den, out=prefix[:, 1:], where=keep[g_index])
        np.cumsum(prefix[:, 1:], axis=1, out=prefix[:, 1:])
        row = np.full(self.g[g][1].size, -1, dtype=np.intp)
        row[at] = np.where(keep.any(axis=1)[g_index], np.arange(at.size), -1)
        return times, prefix, row

    def add_to(self, out, targets, comps):
        """Write every query's values of the run's rows into ``out[q,
        targets]`` and their components into ``comps``, as
        `_Contributions.evaluate` describes.  The rows go in pieces of
        one group, of at most ``_PIECE_ELEMENTS`` values of every query
        (the budget of a prediction block), whose components are added
        one at a time."""
        n_queries, size = len(self.contrib.queries), self.contrib.grid.size
        step = max(1, _PIECE_ELEMENTS // (n_queries * size))
        for g, at in self._pieces(step):
            mine = targets[at]  # the rows' targets
            acc = np.zeros((n_queries, mine.size, size))
            for name, qi, where, values in self._terms(
                    g, self.m[at], self.delta[at], self.cell[at]):
                acc[qi][where] += values
                if comps:
                    comps[name][qi, mine[where]] = values
            out[:, mine] = acc

    def _pieces(self, step):
        """(group, rows) of each piece of the run: at most ``step`` rows of
        one group, cut only where the group changes."""
        split = np.searchsorted(self.x, 1)  # the run's rows go by group
        for g, (lo, end) in enumerate(((0, split), (split, self.cell.size))):
            for start in range(lo, end, step):
                yield g, slice(start, min(start + step, end))

    def _terms(self, g, m, delta, cell):
        """Yield ``(name, query index, at, values)`` for rows of group g
        (their m, delta and cell, ascending): query q's weighted component
        ``name`` at the rows ``at`` (a slice or indices), for every (name,
        q) that applies to them, in COMPONENT_NAMES order.  What depends
        on the cell alone is computed once per cell, and spread over the
        rows (broadcast, when they share one cell)."""
        contrib = self.contrib
        cells, row = np.unique(cell, return_inverse=True)

        def rows(per_cell):  # the rows' entries of per-cell values
            return per_cell if cells.size == 1 else per_cell[row]
        cols = contrib.outcome_cols
        f = {x_y: values[index[cells][:, None], cols]  # cells x grid
             for x_y, (values, index) in self.s.items()}
        for name in (COMPONENT_NAMES[:1] if contrib.base == "cif"
                     else COMPONENT_NAMES[:3]) if g in self.g else ():
            at, term = self._arm_term(name, g, m, delta, cells, row, rows,
                                      f[g])
            for qi, query in enumerate(contrib.queries):
                if query.x_outcome == g and term is not None:
                    weight = self.weights[qi][0][cell[at]]
                    yield name, qi, at, weight[:, None] * term
        everything = slice(None)
        for qi, (query, p_condition) in enumerate(zip(
                contrib.queries, contrib.p_conditions)):
            if g in (query.x_mediator, query.x_condition):
                nu_z = self.nu_z[query.x_outcome, query.x_mediator][cells]
            if g == query.x_mediator:
                weight = self.weights[qi][1][cells]
                yield "mediator_centering", qi, everything, rows(weight[
                    :, None] * (f[query.x_outcome] - nu_z))
            if g == query.x_condition:
                yield ("conditioning_centering", qi, everything,
                       rows(nu_z / p_condition))

    def _arm_term(self, name, g, m, delta, cells, row, rows, f_y):
        """The rows (a slice or indices) of rows of group g, with ``m``,
        ``delta``, cell ``cells[row]`` and their cells' outcome values
        ``f_y`` (``rows`` spreads per-cell values over the rows), that
        component ``name`` of the outcome arm applies to, and its
        unweighted values there; (None, None) if it applies to none.
        ``xi_two`` is kept negated, as it enters the sum."""
        contrib = self.contrib
        grid, eps = contrib.grid, contrib.epsilon
        outcome, censoring = (contrib.nuisances.outcome,
                              contrib.nuisances.censoring)
        g_values, g_row = self.g[g][0], self.g[g][1][cells]
        if name == "ipcw_core":
            if contrib.base == "cif":
                g_left = np.maximum(g_values[g_row[row], np.searchsorted(
                    censoring.grid, m, side="left")], eps)
                term = ((delta == contrib.cause)[:, None]
                        & (m[:, None] <= grid[None, :])) / g_left[:, None]
            else:
                g_grid = np.maximum(
                    g_values[g_row[:, None], contrib.censoring_cols], eps)
                term = (m[:, None] > grid[None, :]) / rows(g_grid)
            term -= rows(f_y)
            return slice(None), term
        # xi_one applies to the cells with a censored row of group g,
        # xi_two to those with a row of prefix sums
        times, prefix, prefix_row = self.prefix[g]
        prefix_row = prefix_row[cells][row]
        applies = self.censored[g][cells][row] if name == "xi_one" else (
            prefix_row >= 0)
        if not applies.any():
            return None, None
        if applies.all():
            at, f_at = slice(None), rows(f_y)
        else:
            at = np.flatnonzero(applies)
            f_at = f_y[row[at]]
        m, delta, row = m[at], delta[at], row[at]
        if name == "xi_one":
            s_values, s_index = self.s[g]
            s_m = np.maximum(s_values[s_index[cells][row], np.searchsorted(
                outcome.grid, m, side="right")], eps)
            g_m = np.maximum(g_values[g_row[row], np.searchsorted(
                censoring.grid, m, side="right")], eps)
            before = m[:, None] <= grid[None, :]
            return at, ((delta == 0)[:, None] & before) * (
                f_at / (s_m * g_m)[:, None])
        # at most i_m <= len(times) censoring times precede a row's m, so
        # the grid's censoring columns need no cap at the last grid time
        i_m = np.searchsorted(times, m, side="right")
        flat = (prefix_row[at] * prefix.shape[1])[:, None] + np.minimum(
            i_m[:, None], contrib.censoring_cols)
        return at, -(f_at * prefix.ravel()[flat])


def evaluate_influence(cohort, nuisances, query, functional, grid, *,
                       psi=0.0, p_condition=None, epsilon=0.01, cap=50.0):
    """Influence values for every row at every grid time, centered at psi;
    ``p_condition`` defaults to the z model's unclipped `marginal`."""
    grid = _validate_grid(grid)
    query = _as_query(query)
    if p_condition is None:
        p1 = nuisances.propensity_z.marginal
        p_condition = p1 if query.x_condition == 1 else 1.0 - p1
    if not p_condition > 0.0:
        raise DegenerateGroupError("conditioning group has probability zero")
    _check_cap(cap)
    # each row class is evaluated at its first row, then read by its rows
    classes, first = cohort.cells("xzwdm")
    totals = np.zeros((1, first.size, grid.size))
    comps = {name: np.zeros_like(totals) for name in COMPONENT_NAMES}
    _Contributions(cohort, nuisances, [query], functional, grid,
                   [p_condition], epsilon, np.arange(cohort.n)).evaluate(
        first, totals, np.arange(first.size), comps)
    (n_flagged,) = _trim(totals, np.bincount(classes), cap, comps.values())
    comps = {name: comp[0][classes] for name, comp in comps.items()}
    psi_arr = np.broadcast_to(np.asarray(psi, dtype=float), grid.shape)
    ind_z = (cohort.x == query.x_condition).astype(float)
    comps["conditioning_centering"] = comps["conditioning_centering"] - (
        ind_z[:, None] / p_condition) * psi_arr[None, :]
    values = sum(comps[name] for name in COMPONENT_NAMES)
    return InfluenceEvaluation(grid=grid, values=values, components=comps,
                               n_flagged=int(n_flagged))


def _as_query(query):
    if isinstance(query, PotentialOutcomeQuery):
        return query
    return PotentialOutcomeQuery(*query)


# ---------------------------------------------------------------------------
# Cross-fitting
# ---------------------------------------------------------------------------

def assign_folds(cohort, n_folds=2, seed=0):
    """Shuffled round-robin fold labels, stratified on (X, any-event)."""
    if n_folds < 2:
        raise DataError("cross-fitting needs at least two folds")
    if n_folds > cohort.n:
        raise DataError("more folds than rows")
    rng = np.random.default_rng(seed)
    fold = np.full(cohort.n, -1, dtype=int)
    for xv in (0, 1):
        for has_event in (False, True):
            sel = np.flatnonzero(
                (cohort.x == xv) & ((cohort.delta > 0) == has_event))
            if sel.size == 0:
                continue
            sel = sel[rng.permutation(sel.size)]
            fold[sel] = np.arange(sel.size) % n_folds
    _check_folds(cohort, fold, n_folds)
    return fold


def _fold_labels(cohort, fold_ids):
    """Validated integer fold labels 0..k-1 and k, their number of folds."""
    labels = np.asarray(fold_ids)
    if labels.shape != (cohort.n,):
        raise DataError("fold ids must give one label per row")
    if labels.dtype.kind not in "biuf" or not np.all(
            np.isfinite(labels) & (labels == np.floor(labels))):
        raise DataError("fold ids must be whole numbers")
    fold = labels.astype(int)
    n_folds = int(fold.max()) + 1
    if fold.min() < 0 or n_folds < 2:
        raise DataError("fold ids must lie in 0..k-1 for k >= 2 folds, got "
                        f"{fold.min()}..{n_folds - 1}")
    _check_folds(cohort, fold, n_folds)
    return fold, n_folds


def _check_folds(cohort, fold, n_folds):
    for f in range(n_folds):
        xs = cohort.x[fold == f]
        if xs.size == 0 or xs.min() == xs.max():
            raise FoldAssignmentError(
                f"fold {f} does not contain both groups")


class FoldPlan:
    """Folds, estimator settings and per-fold nuisance fits of a run.

    Folds are ``assign_folds(cohort, n_folds, seed)`` or the given
    ``fold_ids``.  A fold's first outcome target fits the whole bundle
    on its complement; later targets reuse its censoring model,
    propensities and mediator cohort and fit only an outcome model.  A
    fixed ``nuisances`` bundle is evaluated on every row instead (one
    part, fold id 0, ``n_folds`` 0).  Cells come from `Cohort.cells`.
    """

    def __init__(self, cohort, n_folds=2, seed=0, *, learners=None,
                 nuisances=None, epsilon=0.01, cap=50.0, fold_ids=None):
        _check_epsilon(epsilon)  # before any fit
        self.cohort, self.seed, self.epsilon, self.cap = (
            cohort, seed, epsilon, cap)
        self.learners = check_learners(learners)
        self._fixed = nuisances
        if nuisances is not None:
            self.fold_ids, self.n_folds = np.zeros(cohort.n, dtype=int), 0
        elif fold_ids is None:
            self.fold_ids = assign_folds(cohort, n_folds, seed)
            self.n_folds = n_folds
        else:
            self.fold_ids, self.n_folds = _fold_labels(cohort, fold_ids)
        self._bundles = [{} for _ in range(self.n_folds)]

    def parts(self, functional):
        """Yield ``(bundle, rows)`` per fold: the bundle fitted without the
        fold for the functional's target and the fold's row indices."""
        if self._fixed is not None:
            yield self._fixed, np.arange(self.cohort.n)
            return
        target = _dr_target(functional)
        for f, bundles in enumerate(self._bundles):
            if not bundles:
                bundles[target] = fit_dr_nuisances(
                    self.cohort.subset(self.fold_ids != f), functional,
                    epsilon=self.epsilon, **self.learners)
            elif target not in bundles:
                shared = next(iter(bundles.values()))
                bundles[target] = replace(shared, outcome=fit_outcome(
                    shared.mediator_cohort, target, **self.learners))
            yield bundles[target], np.flatnonzero(self.fold_ids == f)


# Most values (rows x grid points x queries) ``crossfit_dr_many`` holds in
# one row block; its influence working set is a few blocks, whatever the
# number of rows.
_BLOCK_ELEMENTS = 1 << 21


def crossfit_dr_many(plan, queries, functional, grid=None):
    """Cross-fitting of several queries over one ``FoldPlan``.

    Every fold's nuisances are fitted first.  Rows are then taken in row
    order, in blocks of at most ``_BLOCK_ELEMENTS`` values; each (fold,
    row class) pair of a block is evaluated once, under the bundle fitted
    without its fold.  Rows go into running column sums (the estimates),
    pairs into per-group moments (``InfluenceMoments``) that give every
    standard error; ``evaluate_influence`` gives per-row values.
    """
    cohort = plan.cohort
    grid = _validate_grid(default_grid(cohort) if grid is None else grid)
    queries = list(dict.fromkeys(_as_query(q) for q in queries))

    n = cohort.n
    base_functional, rmst = functional, None
    if functional.kind == "rmst":
        base_functional = Functional(
            "survival" if cohort.n_causes == 1 else "all_cause_survival")

        def rmst(values):
            return running_rmst(grid, values, functional.horizon)

    p_cond = {q: float(np.mean(cohort.x == q.x_condition)) for q in queries}
    for q, frac in p_cond.items():
        if frac == 0.0:
            raise DegenerateGroupError(
                f"no rows in conditioning group {q.x_condition}")
    _check_cap(plan.cap)

    contribs = [_Contributions(cohort, bundle, queries, base_functional,
                               grid, [p_cond[q] for q in queries],
                               plan.epsilon, rows)
                for bundle, rows in list(plan.parts(base_functional))]
    sums, groups, n_flagged = _stream_rows(plan, contribs, grid, rmst)

    raw = sums / n
    center = raw if rmst is None else rmst(raw)
    moments = InfluenceMoments(
        queries=tuple(queries),
        counts=np.array([count for count, _, _ in groups]),
        means=np.stack([mean for _, mean, _ in groups]),
        comoments=np.stack([m2 for _, _, m2 in groups]),
        condition_weights=np.array(
            [[(q.x_condition == g) / p_cond[q] for q in queries]
             for g in (0, 1)]),
        center=center)
    out = {}
    for qi, q in enumerate(queries):
        # the estimate's restricted mean: survival is one before the first
        # grid time
        estimate = raw[qi] if rmst is None else center[qi] + min(
            grid[0], functional.horizon or np.inf)
        se = moments.se(moments.unit(q))
        diagnostics = {
            "n_rows": n,
            "n_folds": plan.n_folds,
            "fold_sizes": np.bincount(plan.fold_ids, minlength=max(
                plan.n_folds, 1)).tolist(),
            "p_condition": p_cond[q],
            "n_flagged": int(n_flagged[qi]),
            "n_mediator_fallback": sum(
                contrib.n_fallback[qi] for contrib in contribs),
            "epsilon": plan.epsilon,
            "cap": plan.cap,
            "seed": plan.seed,
            "fixed_nuisances": plan.n_folds == 0,
        }
        out[q] = DRCurveEstimate(
            grid=grid, estimate=estimate, se=se,
            lo=estimate - Z_CRITICAL * se, hi=estimate + Z_CRITICAL * se,
            query=q, functional=functional, influence=moments,
            fold_ids=plan.fold_ids, diagnostics=diagnostics)
    return out


def _stream_rows(plan, contribs, grid, rmst):
    """Evaluate every row of ``plan.cohort`` in row blocks.

    ``contribs[f]`` holds the ``_Contributions`` of fold f's bundle.
    Returns the queries' column sums of the row contributions (queries x
    grid), the (count, means, co-moments) of the contributions of each
    group X = 0, 1 (mapped by ``rmst``, the running restricted mean, when
    given), and the number of trimmed rows of each query.

    A block's rows of one (fold, row class) have equal contributions, so
    each such slot is evaluated once, at its first row; the moments are
    taken over the slots, each weighted by its rows.  The column sums
    add the block's rows in row order (summing the slots' values times
    their counts instead moved the `ic` Route II estimates, which branch
    on their inputs, by up to 0.51), so every row reads its slot's values
    before they are summed.  One buffer, grown only when a block needs
    more rows, holds a row carrying the running sums, a gap the rows are
    gathered into ``_PIECE_ELEMENTS`` values at a time, and the slots,
    each row all queries' values; when every row of a block is its own
    slot, the slots are its rows in order and are summed where they are.
    """
    cohort = plan.cohort
    n, n_queries = cohort.n, len(contribs[0].queries)
    step = n if grid.size == 1 else max(
        1, _BLOCK_ELEMENTS // (grid.size * n_queries))
    chunk = max(1, _PIECE_ELEMENTS // (grid.size * n_queries))
    buf = np.empty((0, n_queries, grid.size))
    # -0.0 is the identity of addition: the first row adds nothing to it
    sums = np.full((n_queries, grid.size), -0.0)
    groups = [(0, np.zeros((n_queries, grid.size)),
               np.zeros((n_queries, n_queries, grid.size)))] * 2
    n_flagged = np.zeros(n_queries, dtype=int)
    classes = cohort.cells("xzwdm")[0]
    n_classes = int(classes.max()) + 1
    bound = (int(plan.fold_ids.max()) + 1) * n_classes
    for start in range(0, n, step):
        stop = min(start + step, n)
        # slot j of the block's (fold, class) pairs, numbered by first
        # appearance (the int64 fold ids keep the key's sum from wrapping)
        slot, first = _first_appearance(
            (plan.fold_ids[start:stop] * n_classes
             + classes[start:stop]).astype(
                 np.min_scalar_type(bound - 1)))
        first += start
        counts, k = np.bincount(slot), first.size
        gap = 0 if k == stop - start else min(chunk, stop - start)
        if len(buf) < 1 + gap + k:
            del buf  # no view of it is left, so it goes before the new one
            buf = np.empty((1 + gap + k, n_queries, grid.size))
        heads = buf[1 + gap:1 + gap + k]
        heads[...] = 0.0
        by_query = heads.transpose(1, 0, 2)
        folds = plan.fold_ids[first]
        for f, contrib in enumerate(contribs):
            mine = np.flatnonzero(folds == f)
            contrib.evaluate(first[mine], by_query, mine)
        n_flagged += _trim(by_query, counts, plan.cap)
        values = by_query if rmst is None else rmst(by_query)
        xs = cohort.x[first]
        for g in (0, 1):
            members = xs == g
            if np.any(members):
                groups[g] = _merge_moments(groups[g], _moments(
                    values[:, members], counts[members]))
        del values, by_query
        # numpy adds the rows of a matrix one after another unless it has
        # one column, which it sums pairwise; so running sums over chunks
        # reproduce the whole-matrix sums of each query bit for bit, and
        # one grid point takes one block, summed a query at a time
        if grid.size == 1:
            for qi in range(n_queries):
                np.add.reduce(heads[slot, qi], axis=0, out=sums[qi])
        else:
            for lo in range(0, stop - start, gap or k):
                hi = min(lo + (gap or k), stop - start)
                # in mode "clip", a gather into rows apart from the slots
                # it reads takes no buffer
                if gap:
                    np.take(heads, slot[lo:hi], axis=0,
                            out=buf[1:1 + hi - lo], mode="clip")
                buf[0] = sums
                np.add.reduce(buf[:1 + hi - lo], axis=0, out=sums)
        del heads
    return sums, groups, n_flagged


def _moments(values, counts):
    """Row count, column means (queries x grid) and centered co-moments
    (queries x queries x grid) of queries x classes x grid values, class
    c standing for ``counts[c]`` equal rows; ``values`` are overwritten
    with their deviations from the means."""
    count = int(counts.sum())
    weights = counts.astype(float)
    mean = np.einsum("c,qct->qt", weights, values) / count
    dev = np.subtract(values, mean[:, None, :], out=values)
    m2 = np.empty(mean.shape[:1] + mean.shape)
    for q in range(len(dev)):
        for p in range(q + 1):
            m2[q, p] = m2[p, q] = np.einsum("c,ct,ct->t", weights, dev[q],
                                            dev[p])
    return count, mean, m2


def _merge_moments(a, b):
    """Moments of the union of two row sets, from the moments of each
    (the pairwise update of Chan, Golub & LeVeque 1983)."""
    (n_a, mean_a, m2_a), (n_b, mean_b, m2_b) = a, b
    n = n_a + n_b
    delta = mean_b - mean_a
    return (n, mean_a + delta * (n_b / n),
            m2_a + m2_b + delta[:, None] * delta[None, :] * (n_a * n_b / n))


@dataclass(frozen=True)
class InfluenceMoments:
    """What the standard errors of one cross-fitting pass need.

    Per group g (X = g), over the uncentered contributions of the
    ``queries``: ``counts[g]`` rows, ``means[g]`` (queries x grid) and
    ``comoments[g]`` (queries x queries x grid, centered sums of
    products).  Query q's influence value on a row of group g is its
    contribution minus ``condition_weights[g, q] * center[q]``, where the
    weight is ``1(x_condition = g) / p_condition`` and ``center`` is the
    estimate; that shift is constant within a group, so the variance of
    any linear combination of the queries' influence values follows from
    these moments exactly.  For rmst, contributions and ``center`` are
    already mapped to the restricted-mean scale (``center`` without the
    integral up to the first grid time).
    """

    queries: tuple
    counts: np.ndarray
    means: np.ndarray
    comoments: np.ndarray
    condition_weights: np.ndarray
    center: np.ndarray

    @property
    def n(self):
        return int(self.counts.sum())

    def unit(self, query):
        """Coefficients (queries x grid) that pick out one query."""
        coef = np.zeros_like(self.center)
        coef[self.queries.index(query)] = 1.0
        return coef

    def se(self, coef):
        """Pointwise standard error of sum_q coef[q] * estimate[q]: the
        sample standard deviation (ddof 1) of the combined influence
        values, over sqrt(n)."""
        n = self.n
        within = sum(np.einsum("qt,qpt,pt->t", coef, m2, coef)
                     for m2 in self.comoments)
        shifted = [np.einsum("qt,qt->t", coef,
                             mean - weight[:, None] * self.center)
                   for mean, weight in zip(self.means,
                                           self.condition_weights)]
        overall = sum(c * s for c, s in zip(self.counts, shifted)) / n
        between = sum(c * (s - overall) ** 2
                      for c, s in zip(self.counts, shifted))
        # rounding can leave a zero variance a hair below zero
        return np.sqrt(np.maximum(within + between, 0.0) / (n - 1)) \
            / np.sqrt(n)


# ---------------------------------------------------------------------------
# Result container
# ---------------------------------------------------------------------------

@dataclass
class DRCurveEstimate:
    """Point estimates, normal-approximation band, and the influence
    moments shared by the queries of its cross-fitting pass."""

    grid: np.ndarray
    estimate: np.ndarray
    se: np.ndarray
    lo: np.ndarray
    hi: np.ndarray
    query: PotentialOutcomeQuery
    functional: Functional
    influence: InfluenceMoments
    fold_ids: np.ndarray
    diagnostics: dict

    def to_csv(self, header_comment=None):
        return table_csv("t,estimate,se,lo,hi",
                         [[self.grid, self.estimate, self.se, self.lo,
                           self.hi]], header_comment)

    def to_json(self, indent=2):
        payload = {
            "query": list(self.query.as_tuple()),
            "functional": asdict(self.functional),
            "grid": [float(v) for v in self.grid],
            "estimate": [float(v) for v in self.estimate],
            "se": [float(v) for v in self.se],
            "lo": [float(v) for v in self.lo],
            "hi": [float(v) for v in self.hi],
            "diagnostics": self.diagnostics,
        }
        return json.dumps(payload, indent=indent, sort_keys=True)
