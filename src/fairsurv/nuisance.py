"""Nuisance fits: conditional survival/censoring models and propensities.

Two survival learners are provided.  The stratified learner groups rows
by the exact (group, confounder, mediator) combination and fits a
product-limit curve per stratum, backing off to coarser strata when a
combination has no rows.  The tree learner bags log-rank-split survival
trees, one per bootstrap resample sorted by time once, and averages
cumulative hazards (or, for a cause target, incidence curves) across
trees.  A node's candidate splits are the midpoints between consecutive
distinct values of each feature, or at most `max_thresholds` distinct
interior quantiles; those leaving `min_leaf` rows on each side are scored
by the two-sample log-rank chi-square in chunks of at most
``_BLOCK_ELEMENTS`` // rows candidates, and the first strictly largest
positive score wins.  The fitted trees are flat parallel node arrays.  A
batch prediction takes its rows in blocks bounded by the length of the
curves they return.  The tree learner
routes a block through every tree at once and computes and checks the
values of each distinct leaf set (the tuple of leaves, one per tree) on
the forest's union grid once; the stratified learner looks up each
distinct (x, z code, w code) triple once.  Tree parameters: n_trees >= 1,
min_leaf >= 10, 0 <= max_depth <= 6, max_thresholds >= 1, seed.
Propensities P(X = 1 | z) and P(X = 1 | z, w) come from frequency
tables or IRLS logistic fits; a prediction gives both groups of each
row, P(X = 1) clipped away from 0 and 1 and P(X = 0) one minus it.  The
tree and logistic learners read z and w through one conversion,
`_numeric_covariates`: each distinct value-table entry among a call's
rows becomes floats once.  A fit refuses entries that are
not numbers, a prediction accepts numeric strings, and a row whose
entries are not numbers of the fitted widths is not served.  The
logistic learner refuses covariates that are not finite.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from .curves import (
    _BLOCK_ELEMENTS,
    StepCurve,
    _check_steps,
    product_limit_steps,
)
from .errors import (
    CohortSchemaError,
    DataError,
    DegenerateGroupError,
)
from .scm import Cohort


def _target_label(target):
    return f"cause:{target}" if isinstance(target, int) else target


def _normalize_target(target, n_causes):
    if target in ("event", "censoring"):
        return target
    if isinstance(target, (int, np.integer)) and not isinstance(target, bool):
        k = int(target)
        if k > n_causes:
            raise DataError("cause label exceeds the cohort's cause count")
        if k >= 1:
            return k
    raise DataError(
        "target must be 'event', 'censoring', or a cause label >= 1"
    )


def _indicator(delta, target):
    """0/1 indicator of the process the target model tracks."""
    if target == "censoring":
        return (delta == 0).astype(int)
    if target == "event":
        return (delta >= 1).astype(int)
    return (delta == target).astype(int)


def stratum_curves(cohort, target, levels):
    """Product-limit curve of every cell of ``cohort.cells(by)`` for each
    ``by`` in ``levels``, from the cell's rows alone: cumulative incidence
    for a cause target, survival otherwise.  Yields (by, first row of each
    cell, curves in cell order) per level, from one grouped pass over the
    rows by cell, each cell's rows in time order and ties in row order."""
    target = _normalize_target(target, cohort.n_causes)
    kind = "cif" if isinstance(target, int) else "survival"
    events = cohort.delta if kind == "cif" else _indicator(cohort.delta,
                                                          target)
    v0 = float(kind == "survival")
    # codes of at most 2^16 distinct times sort stably by radix
    by_time = np.argsort(cohort.m_codes, kind="stable")
    for by in levels:
        ids, first = cohort.cells(by)
        order = by_time[np.argsort(ids[by_time], kind="stable")]
        bounds = np.append(0, np.cumsum(np.bincount(ids)))
        jumps, values, sizes = product_limit_steps(
            cohort.m[order], events[order], bounds, kind, target)
        cuts = np.cumsum(sizes)[:-1]
        yield by, first, [StepCurve._checked(t, v, v0, kind) for t, v in zip(
            np.split(jumps, cuts), np.split(values, cuts))]


def _numeric_covariates(cohort, rows, columns, lead, widths=None):
    """The ``rows`` of ``cohort`` as one float matrix: the column ``lead``,
    then a block of floats per covariate in ``columns`` ("z", "w" or
    both); the blocks' widths; and per row the message of its first entry
    (z before w) that `_numeric_vector` refuses, "" where none is.  Each
    distinct value-table entry among the rows is converted once.  A fit
    passes no ``widths``: a covariate's first row sets its width, and a
    refused entry is a CohortSchemaError."""
    blocks, found = [np.asarray(lead, dtype=float)[:, None]], []
    why = np.full(rows.size, "", dtype=object)
    for name in columns:
        codes, values = (getattr(cohort, name + part)
                         for part in ("_codes", "_values"))
        present, inverse = np.unique(codes[rows], return_inverse=True)
        width = (Cohort._width(values[codes[rows[:1]]]) if widths is None
                 else widths[len(found)])
        table = np.full((present.size, width), np.nan)
        failed = np.full(present.size, "", dtype=object)
        for k, item in enumerate(values[present].tolist()):
            try:
                table[k] = _numeric_vector(item, width, name, widths is None)
            except CohortSchemaError as exc:
                if widths is None:
                    raise
                failed[k] = str(exc)
        blocks.append(table[inverse])
        why = np.where(why.astype(bool), why, failed[inverse])
        found.append(width)
    return np.hstack(blocks), tuple(found), why


def _numeric_vector(item, width, name, fit=False):
    """One value-table entry as ``width`` floats.  Numeric strings are
    accepted, except by a fit."""
    vals = item if isinstance(item, tuple) else (item,)
    if fit and not all(isinstance(v, (int, float)) for v in vals):
        raise CohortSchemaError(
            f"{name} must be numeric for this learner, got {item!r}")
    if len(vals) != width:
        raise CohortSchemaError(f"{name} has width {len(vals)}, expected {width}")
    try:
        return [float(v) for v in vals]
    except (TypeError, ValueError):
        raise CohortSchemaError(f"{name} must be numeric for this learner")


def _labelled(x, rows):
    """The group labels ``x`` (one, or one per row; anything but 0 or 1 is
    a DataError) and the row indices ``rows``, as arrays."""
    rows = np.asarray(rows, dtype=np.intp).reshape(-1)
    labels = np.broadcast_to(np.asarray(x, dtype=float), rows.shape)
    if not np.all((labels == 0.0) | (labels == 1.0)):
        raise DataError("group label must be 0 or 1")
    return labels.astype(int), rows


def _covariates(cohort, rows):
    """The z and w values of ``rows`` of ``cohort``, as two lists."""
    return (cohort.z_values[cohort.z_codes[rows]].tolist(),
            cohort.w_values[cohort.w_codes[rows]].tolist())


def _distinct(cohort, rows, x=0):
    """The first of each distinct (x, z code, w code) among ``rows`` of
    ``cohort`` under labels ``x``, and the index of every row's."""
    key = ((x * len(cohort.z_values) + cohort.z_codes[rows])
           * len(cohort.w_values) + cohort.w_codes[rows])
    return np.unique(key, return_index=True, return_inverse=True)[1:]


# ---------------------------------------------------------------------------
# Log-rank survival trees
# ---------------------------------------------------------------------------

def _logrank_scores(left, m, ind):
    """Two-sample log-rank chi-square of every candidate split of a node.

    The node's rows come in ascending time ``m``; row k of the boolean
    (candidates, rows) ``left`` marks the rows candidate k sends left.
    Event times (runs of equal times among the event rows), totals at
    risk and total events do not depend on the split; left at-risk
    counts are one cumulative count over the reversed columns, left
    event counts a per-time sum over the event rows.  A candidate whose
    variance is not positive scores 0.
    """
    ev_rows = np.flatnonzero(ind > 0)
    chi = np.zeros(left.shape[0])
    if ev_rows.size == 0:
        return chi
    t = m[ev_rows]
    starts = np.flatnonzero(np.concatenate(([True], t[1:] != t[:-1])))
    d = np.diff(np.append(starts, t.size))
    n = m.size - np.searchsorted(m, t[starts], side="left")
    n_l = np.cumsum(left[:, ::-1], axis=1)[:, n - 1]
    d_l = np.add.reduceat(left[:, ev_rows], starts, axis=1, dtype=np.intp)

    n_l, d_l = n_l.astype(float), d_l.astype(float)
    n, d = n.astype(float), d.astype(float)
    n_r = n - n_l
    observed_minus_expected = _row_sums(d_l - n_l * d / n)
    multi = np.count_nonzero(n > 1)  # a prefix: at-risk counts fall
    var = _row_sums(
        (n_l * n_r * d * (n - d))[:, :multi]
        / (n[:multi] ** 2 * (n[:multi] - 1.0))
    )
    # Squared with Python's float power, as a single split's statistic is:
    # libm pow and x * x can differ in the last place, enough to reorder
    # two nearly tied candidates.
    squared = np.array([o**2 for o in observed_minus_expected.tolist()])
    np.divide(squared, var, out=chi, where=var > 0.0)
    return chi


def _row_sums(a):
    """Sum each row exactly as np.sum sums a 1-D array: numpy sums a row
    pairwise only when the row is contiguous in memory, and fancy indexing
    along the last axis need not leave it so."""
    return np.sum(np.ascontiguousarray(a), axis=1)


def _run_starts(ordered):
    """Mask of the first entry of each run of equal values down every
    column of a column-sorted array.  NaNs, sorted last, form one run, as
    np.unique counts them."""
    starts = np.ones(ordered.shape, dtype=bool)
    starts[1:] = (ordered[1:] != ordered[:-1]) & ~np.isnan(ordered[:-1])
    return starts


def _quantiles(ordered, levels):
    """``np.quantile(columns, levels, axis=0)`` of column-sorted columns by
    numpy's 'linear' rule: virtual index (rows - 1) * level, numpy's
    interpolation between its floor and the next, NaN for NaN columns."""
    at = (ordered.shape[0] - 1) * levels
    lo = np.floor(at).astype(np.intp)
    lo, hi = np.where(at >= ordered.shape[0] - 1, -1, (lo, lo + 1))
    gamma = (at - lo)[:, None]
    below, above = ordered[lo], ordered[hi]
    diff = above - below
    q = below + diff * gamma
    np.subtract(above, diff * (1 - gamma), out=q, where=gamma >= 0.5)
    np.copyto(q, ordered[-1], where=np.isnan(ordered[-1]))
    return q


def _candidate_splits(feats, max_thresholds, levels):
    """(feature, threshold) of every candidate split of a node, features
    in column order and thresholds ascending within a feature: the
    midpoints between consecutive distinct values, or, where there are
    more than `max_thresholds` of them, the distinct interior quantiles
    at the `max_thresholds` equally spaced ``levels``.  The node's
    columns are sorted once; the quantiles come from the sorted
    columns."""
    ordered = np.sort(feats, axis=0)
    starts = _run_starts(ordered)
    many = starts.sum(axis=0) - 1 > max_thresholds
    if many.any():
        q = np.sort(_quantiles(ordered[:, many], levels), axis=0)
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


def _best_split(feats, m, ind, params):
    """(feature, threshold) of the first strictly largest positive
    log-rank score among the candidates leaving `min_leaf` rows on each
    side, or None.  Scoring candidates in chunks of at most
    ``_BLOCK_ELEMENTS`` // rows bounds the candidates x rows arrays."""
    feature, threshold = _candidate_splits(
        feats, params["max_thresholds"], params["levels"])
    n = m.size
    best, top = None, 0.0
    step = max(1, _BLOCK_ELEMENTS // n)
    for first in range(0, feature.size, step):
        f, thr = feature[first:first + step], threshold[first:first + step]
        left = feats[:, f].T <= thr[:, None]
        n_left = left.sum(axis=1)
        fits = np.minimum(n_left, n - n_left) >= params["min_leaf"]
        scores = _logrank_scores(left[fits], m, ind)
        if scores.size and scores.max() > top:
            k = int(np.argmax(scores))  # the first maximum wins
            top, best = scores[k], (int(f[fits][k]), float(thr[fits][k]))
    return best


def _grow_tree(feats, m, ind, rows, depth, params, nodes, leaves):
    """Append the tree grown on ``rows`` (indices into ``feats``, ``m``,
    ``ind`` in ascending time, kept by each split) to ``nodes`` in
    preorder as (feature, threshold, left, right, leaf), and its leaves'
    (rows, depth) to ``leaves``; returns the index of its root."""
    index = len(nodes)
    nodes.append(None)
    if depth < params["max_depth"] and rows.size >= 2 * params["min_leaf"]:
        split = _best_split(feats[rows], m[rows], ind[rows], params)
        if split is not None:
            mask = feats[rows, split[0]] <= split[1]
            lo, hi = (_grow_tree(feats, m, ind, rows[side], depth + 1, params,
                                 nodes, leaves) for side in (mask, ~mask))
            nodes[index] = (*split, lo, hi, -1)
            return index
    nodes[index] = (0, 0.0, index, index, len(leaves))
    leaves.append((rows, depth))
    return index


class _Forest:
    """The trees of an ensemble as flat parallel arrays over all their
    nodes, the layout of scikit-learn's ``Tree`` for one tree.

    Node i sends a feature row to ``left[i]`` if ``row[feature[i]] <=
    threshold[i]`` (NaN goes right) and to ``right[i]`` otherwise.  A
    leaf has ``leaf[i] >= 0``, its index among the ensemble's leaves, and
    points to itself on both sides.  Tree k is rooted at ``roots[k]``.
    On ``grid``, the union of every leaf's jump times, leaf j's step
    function is run-length encoded: for i in ``range(bounds[j],
    bounds[j + 1])`` it takes the value ``steps[i]`` on ``runs[i]``
    consecutive grid times (first the value before its first jump, then
    the value from each jump on).
    """

    def __init__(self, roots, nodes, leaves, times, values, n_jumps):
        self.roots = np.array(roots)
        self.feature, self.threshold, self.left, self.right, self.leaf = (
            np.array(column) for column in zip(*nodes))
        self.grid, pos = np.unique(times, return_inverse=True)
        ends = np.cumsum(n_jumps)
        self.bounds = np.concatenate(([0], ends + np.arange(1, ends.size + 1)))
        self.steps = np.insert(values, ends - n_jumps, 0.0)
        # a leaf's runs end at its jumps and at the end of the grid
        self.runs = (np.insert(pos, ends, self.grid.size)
                     - np.insert(pos, np.concatenate(([0], ends[:-1])), 0))
        self.n_rows = np.array([size for size, _ in leaves])
        self.depth = max(depth for _, depth in leaves)

    def leaf_sets(self, feats):
        """Leaf of every row of ``feats`` in every tree (rows x trees)."""
        node = np.tile(self.roots, (feats.shape[0], 1))
        rows = np.arange(feats.shape[0])[:, None]
        for _ in range(self.depth):
            go_left = feats[rows, self.feature[node]] <= self.threshold[node]
            node = np.where(go_left, self.left[node], self.right[node])
        return self.leaf[node]

    def predict(self, feats, kind):
        """Grid values of every row of ``feats``: ``mean_values`` of their
        distinct leaf sets, and the set each row reaches."""
        if not len(feats):
            return (np.empty((0, self.grid.size + 1)),
                    np.zeros((0, self.grid.size), dtype=bool),
                    np.zeros(0, dtype=np.intp))
        sets, inverse = np.unique(self.leaf_sets(feats), axis=0,
                                  return_inverse=True)
        return (*self.mean_values(sets, kind), inverse.reshape(-1))

    def mean_values(self, sets, kind):
        """The curve of every row of ``sets`` (distinct leaf sets, one leaf
        per tree) on ``grid``, the union of the leaves' jump times: the
        mean of the leaves' step functions, the leaves summed in tree
        order, and for a survival curve exp(-mean cumulative hazard).
        Returns the values (sets x 1 + grid; column 0 is the value at
        zero, the curve's before its first grid time) and the mask of
        each curve's jump times (sets x grid).  Between jumps a curve's
        value repeats exactly.  The jumps pass a step curve's checks,
        run once for all sets.

        The grid values of the leaves the sets reach are built for as
        many trees at a time as fit in ``_BLOCK_ELEMENTS`` values and
        added to the sets' running sums tree by tree, so a value is the
        same sum in the same order whatever the grouping."""
        n_trees = sets.shape[1]
        sums = np.zeros((len(sets), self.grid.size))
        jumps = np.zeros(sums.shape, dtype=bool)
        group = max(1, _BLOCK_ELEMENTS // (
            max(self.grid.size, 1) * min(len(sets), 2 ** self.depth)))
        for first in range(0, n_trees, group):
            leaves = sets[:, first:first + group]
            used, index = np.unique(leaves, return_inverse=True)
            values, at = self._on_grid(used)
            for local in index.reshape(leaves.shape).T:
                sums += values[local]
                jumps |= at[local]
        total = np.zeros((len(sets), self.grid.size + 1))
        np.divide(sums, n_trees, out=total[:, 1:])
        if kind != "cif":
            np.exp(np.negative(total, out=total), out=total)
        counts = jumps.sum(axis=1)
        _check_steps(np.broadcast_to(self.grid, jumps.shape)[jumps],
                     total[:, 1:][jumps], float(kind != "cif"), kind,
                     (np.cumsum(counts) - counts)[counts > 0])
        return total, jumps

    def _on_grid(self, leaves):
        """Values on ``grid`` of the step functions of ``leaves``, and the
        mask of their jump times (both leaves x grid), decoded from their
        runs; each leaf's last run ends its row."""
        lo = self.bounds[leaves]
        sizes = self.bounds[leaves + 1] - lo
        # the runs of every leaf, leaf after leaf
        at = np.arange(sizes.sum()) + np.repeat(
            lo - np.cumsum(sizes) + sizes, sizes)
        values = np.repeat(self.steps[at], self.runs[at])
        jumps = np.zeros(values.size, dtype=bool)
        jumps[np.delete(np.cumsum(self.runs[at]), np.cumsum(sizes) - 1)] = True
        return (values.reshape(leaves.size, -1),
                jumps.reshape(leaves.size, -1))


# ---------------------------------------------------------------------------
# Conditional survival model
# ---------------------------------------------------------------------------

class ConditionalSurvivalModel:
    """Predicts per-covariate survival (or cumulative incidence) curves.

    `learner` is "stratified" (exact grouping, lookup with coarser-stratum
    backoff) or "logrank_tree_ensemble" (bagged log-rank trees, mean
    cumulative hazard).  `target` is "event", "censoring", or a cause
    label; cause targets predict cumulative incidence, the others predict
    survival curves.
    """

    def __init__(self, learner, target, n_causes, fit_report, *,
                 curves=None, forest=None, widths=None, grid=None):
        self.learner = learner
        self.target = target
        self.n_causes = n_causes
        self.fit_report = fit_report
        self._curves = curves
        self._forest = forest
        self._widths = widths
        # the union grid of block values: every jump time of the forest's
        # leaves, or of the table's curves
        self.grid = grid

    @property
    def curve_kind(self):
        return "cif" if isinstance(self.target, int) else "survival"

    @property
    def block_rows(self):
        """Most rows of one prediction block: ``_BLOCK_ELEMENTS`` //
        (union-grid times)."""
        return max(1, _BLOCK_ELEMENTS // max(self.grid.size, 1))

    def predict(self, x, z, w):
        """Curve for one covariate triple; a table model's is the stored
        curve, the tree learner's is built from `predict_values`."""
        x, rows = _labelled(x, [0])
        cohort = Cohort([0], [z], [w], [0], [0])
        if self._curves is not None:
            return self._served(x, cohort, rows)[0][0]
        ((values, jumps, index),) = self.predict_values(x, cohort, rows)
        row, at = values[index[0]], jumps[index[0]]
        # the jumps were checked when the values were made
        return StepCurve._checked(self.grid[at], row[1:][at], float(row[0]),
                                  self.curve_kind)

    def predict_values(self, x, cohort, rows, *, skip_unserved=False):
        """Yield ``(values, jumps, index)`` per block of at most
        ``block_rows`` of ``rows`` of ``cohort`` (indices, repeats allowed)
        under group labels ``x`` (one, or one per row), in order;
        covariates match the fit's by value.  The block's i-th row's curve
        is ``values[index[i]]`` on ``grid``, with its value at zero in
        column 0, so that at times t, ``values[index, np.searchsorted(grid,
        t, side)]`` reads its ``evaluate`` (side "right") and
        ``left_limit`` (side "left") bit for bit, and ``jumps[index[i]]``
        marks its breakpoints on ``grid``.  A row outside the fitted schema
        is a CohortSchemaError, or with ``skip_unserved`` gets index -1."""
        x, rows = _labelled(x, rows)
        step = self.block_rows
        for start in range(0, rows.size, step):
            # not bound here, so no block is held while the next is made
            yield self._block(x[start:start + step], cohort,
                              rows[start:start + step], skip_unserved)

    def _block(self, x, cohort, rows, skip_unserved):
        """One block of `predict_values`: the tree learner routes its rows
        through all trees at once and computes the values of each distinct
        leaf set (the tuple of leaves a row reaches, one per tree) once; the
        table learner evaluates each distinct curve once."""
        found, served = self._served(x, cohort, rows, skip_unserved)
        if self._forest is not None:
            values, jumps, sets = self._forest.predict(found[served],
                                                       self.curve_kind)
        else:
            curves = found[served]
            _, first, sets = np.unique(list(map(id, curves)),
                                       return_index=True, return_inverse=True)
            values = np.empty((first.size, self.grid.size + 1))
            jumps = np.zeros((first.size, self.grid.size), dtype=bool)
            for k, curve in enumerate(curves[first].tolist()):
                values[k, 0] = curve.value_at_zero
                values[k, 1:] = curve.evaluate(self.grid)
                jumps[k, np.searchsorted(self.grid, curve.breakpoints)] = True
        index = np.full(rows.size, -1, dtype=np.intp)
        index[served] = sets
        return values, jumps, index

    def _served(self, x, cohort, rows, skip_unserved=False):
        """The tree learner's feature rows (x, then z and w as floats) or
        the table learner's stored curves (one lookup per distinct (x, z
        code, w code), backing off to (x, z), (x,) and ()) of ``rows`` of
        ``cohort`` under labels ``x``, with the mask of the rows served; an
        unserved row is a CohortSchemaError unless ``skip_unserved``."""
        if self._forest is not None:
            found, _, why = _numeric_covariates(cohort, rows, "zw", x,
                                                self._widths)
            served = ~why.astype(bool)
        else:
            first, inverse = _distinct(cohort, rows, x)
            keys = zip(x[first].tolist(), *_covariates(cohort, rows[first]))
            stored = (next((self._curves[key[:n]] for n in (3, 2, 1, 0)
                            if key[:n] in self._curves), None) for key in keys)
            found = np.fromiter(stored, object, first.size)[inverse]
            served = found.astype(bool)  # None where no stratum matches
        if not (skip_unserved or served.all()):
            i = int(np.argmin(served))
            (z,), (w,) = _covariates(cohort, rows[i:i + 1])
            raise CohortSchemaError(f"covariates {(int(x[i]), z, w)!r} "
                                    "outside the fitted schema")
        return found, served


def fit_conditional_survival(cohort, target="event", learner="stratified",
                             **params):
    """Fit S(t|x,z,w), G(t|x,z,w), or CIF_k(t|x,z,w) from cohort rows.

    target: "event" (all causes pooled), "censoring" (complementary
    indicator), or an integer cause label.  The stratified learner takes
    no params.  Tree params: n_trees, min_leaf, max_depth, seed,
    max_thresholds.
    """
    target = _normalize_target(target, cohort.n_causes)
    if learner == "stratified":
        return _fit_stratified(cohort, target, params)
    if learner == "logrank_tree_ensemble":
        return _fit_tree_ensemble(cohort, target, params)
    raise DataError(f"unknown learner {learner!r}")


# The keys of the learner mapping both estimators read: the learner
# keywords of `fit_dr_nuisances` (the plug-in has no censoring model).
LEARNER_KEYS = ("outcome_learner", "outcome_params", "censoring_learner",
                "censoring_params", "propensity_learner")
# The stratified learner refuses z or w with more distinct values.
_MAX_CATEGORIES = 128


def check_learners(learners):
    """A copy of the learner mapping ``learners`` (None: every default);
    a key outside LEARNER_KEYS is a DataError."""
    learners = dict(learners or {})
    unknown = [key for key in learners if key not in LEARNER_KEYS]
    if unknown:
        raise DataError(f"unknown learner keys {unknown}")
    return learners


def fit_outcome(cohort, target, outcome_learner="stratified",
                outcome_params=None, **_other_learners):
    """The outcome model of ``target``, from a learner mapping."""
    return fit_conditional_survival(
        cohort, target=target, learner=outcome_learner,
        **(outcome_params or {}))


def _fit_stratified(cohort, target, params):
    if params:
        raise DataError(f"unknown stratified params: {sorted(params)}")
    for name, codes in (("z", cohort.z_codes), ("w", cohort.w_codes)):
        if np.count_nonzero(np.bincount(codes)) > _MAX_CATEGORIES:
            raise CohortSchemaError(
                f"{name} has more than {_MAX_CATEGORIES} distinct values; "
                "it looks continuous — use the tree learner"
            )

    curves = {}
    for by, first, level in stratum_curves(cohort, target,
                                           ("", "x", "xz", "xzw")):
        keys = list(zip(cohort.x[first].tolist(), *_covariates(cohort, first)))
        curves.update((key[:len(by)], c) for key, c in zip(keys, level))
    full = set(keys)  # the (x, z, w) strata with rows
    levels = [sorted({k[i] for k in full}, key=repr) for i in range(3)]
    fallback = [c for c in itertools.product(*levels) if c not in full]
    report = {
        "learner": "stratified",
        "target": _target_label(target),
        "n_rows": cohort.n,
        "n_strata": len(full),
        "n_cells": math.prod(map(len, levels)),
        "n_fallback_cells": len(fallback),
        "fallback_cells": [repr(cell) for cell in fallback],
    }
    # the root stratum's curve jumps at every stratum's jump times
    return ConditionalSurvivalModel(
        "stratified", target, cohort.n_causes, report, curves=curves,
        grid=curves[()].breakpoints)


def _fit_tree_ensemble(cohort, target, params):
    opts = {
        "n_trees": int(params.pop("n_trees", 50)),
        "min_leaf": int(params.pop("min_leaf", 10)),
        "max_depth": int(params.pop("max_depth", 6)),
        "seed": int(params.pop("seed", 0)),
        "max_thresholds": int(params.pop("max_thresholds", 32)),
    }
    if params:
        raise DataError(f"unknown tree params: {sorted(params)}")
    if opts["n_trees"] < 1:
        raise DataError("n_trees must be at least 1")
    if opts["min_leaf"] < 10:
        raise DataError("min leaf size must be at least 10")
    if not 0 <= opts["max_depth"] <= 6:
        raise DataError("max depth must be between 0 and 6")
    if opts["max_thresholds"] < 1:
        raise DataError("max_thresholds must be at least 1")
    feats, widths, _ = _numeric_covariates(cohort, np.arange(cohort.n), "zw",
                                           cohort.x)
    ind = _indicator(cohort.delta, target)
    # quantile levels, which only nodes of max_thresholds + 2 rows need
    grow = dict(opts, levels=None if opts["max_thresholds"] + 2 > cohort.n
                else np.linspace(0.0, 1.0, opts["max_thresholds"] + 2)[1:-1])
    kind, labels = (("cif", cohort.delta) if isinstance(target, int)
                    else ("hazard", ind))
    rng = np.random.default_rng(opts["seed"])
    roots, nodes, leaves, passes = [], [], [], []
    for _ in range(opts["n_trees"]):
        boot = rng.integers(0, cohort.n, cohort.n)
        rows = boot[np.argsort(cohort.m_codes[boot], kind="stable")]
        tree = len(leaves)
        roots.append(_grow_tree(feats, cohort.m, ind, rows, 0, grow, nodes,
                                leaves))
        grown = leaves[tree:]
        rows = np.concatenate([r for r, _ in grown])
        passes.append(product_limit_steps(
            cohort.m[rows], labels[rows],
            np.cumsum([0] + [r.size for r, _ in grown]), kind, target))
        leaves[tree:] = [(r.size, depth) for r, depth in grown]
    # rebinding frees the per-tree parts before the forest is built
    passes = [np.concatenate(parts) for parts in zip(*passes)]
    forest = _Forest(roots, nodes, leaves, *passes)
    report = {
        "learner": "logrank_tree_ensemble",
        "target": _target_label(target),
        "n_rows": cohort.n,
        **opts,
        "mean_leaves_per_tree": forest.n_rows.size / opts["n_trees"],
        "min_leaf_size_observed": int(forest.n_rows.min()),
        "max_depth_observed": forest.depth,
    }
    return ConditionalSurvivalModel(
        "logrank_tree_ensemble", target, cohort.n_causes, report,
        forest=forest, widths=widths, grid=forest.grid)


# ---------------------------------------------------------------------------
# Propensity models
# ---------------------------------------------------------------------------

# the covariates each model conditions on
_CONDITIONING = ("z", "zw")
_NOT_FINITE = "z and w must be finite for the logistic propensity learner"


class PropensityModel:
    """P(X = 1 | z) or P(X = 1 | z, w), as ``conditioning`` says.

    Every prediction clips P(X = 1) to [eps, 1 - eps] and gives
    P(X = 0) as one minus the clipped value, so the two group
    probabilities always sum to one exactly.
    """

    def __init__(self, learner, conditioning, epsilon, fit_report, *,
                 table=None, marginal=None, beta=None, widths=None):
        self.learner = learner
        self.conditioning = conditioning
        self.epsilon = float(epsilon)
        self.fit_report = fit_report
        self._table = table
        self._marginal = marginal
        self._beta = beta
        self._widths = widths

    @property
    def marginal(self):
        """Unconditional P(X=1) seen at fit time (unclipped)."""
        return self._marginal

    @property
    def group_fractions(self):
        """P(X = 0) and P(X = 1) unconditionally, from `marginal` as a
        prediction is from a fitted P(X = 1)."""
        return self._groups(np.float64(self._marginal))

    def _groups(self, p1):
        """P(X = 0), P(X = 1) in the last axis, from fitted P(X = 1)."""
        p1 = np.minimum(np.maximum(p1, self.epsilon), 1.0 - self.epsilon)
        return np.stack([1.0 - p1, p1], axis=-1)

    def predict(self, z=None, w=None):
        return self.predict_group(1, z, w)

    def predict_group(self, x, z=None, w=None):
        if z is None or (self.conditioning == "zw" and w is None):
            raise DataError("this model conditions on "
                            + " and ".join(self.conditioning))
        (x,), _ = _labelled(x, [0])
        return float(self.predict_many(Cohort([0], [z], [w], [0], [0]),
                                       [0])[0, x])

    def predict_many(self, cohort, rows):
        """P(X = 0 | ...) and P(X = 1 | ...) of ``rows`` of ``cohort``
        (indices, repeats allowed), as a (rows x 2) array."""
        rows = np.asarray(rows, dtype=np.intp).reshape(-1)
        if self.learner == "frequency_table":
            first, inverse = _distinct(cohort, rows)
            p1 = np.array([self._table.get(
                pair[:len(self.conditioning)], self._marginal) for pair in
                zip(*_covariates(cohort, rows[first]))], dtype=float)[inverse]
        else:
            feats, _, why = _numeric_covariates(
                cohort, rows, self.conditioning, np.ones(rows.size),
                self._widths)
            bad = why.astype(bool) | ~np.isfinite(feats).all(axis=1)
            if bad.any():  # the first such row's first fault
                raise CohortSchemaError(why[np.argmax(bad)] or _NOT_FINITE)
            # a (1, k) @ (k, 1) product runs np.dot's kernel on each row, so
            # every sum is np.dot(beta, row)'s bit for bit (feats @ beta is not)
            p1 = _expit_array(np.matmul(feats[:, None, :],
                                        self._beta[:, None]).reshape(-1))
        return self._groups(p1)


def _check_epsilon(epsilon):
    if not 0.0 < epsilon < 0.5:
        raise DataError("clip bound must lie strictly between 0 and 0.5")


def fit_propensity(cohort, conditioning, learner="frequency_table",
                   epsilon=0.01):
    """Fit P(X=1 | z) or P(X=1 | z, w) by counting or IRLS logistic."""
    if conditioning not in _CONDITIONING:
        raise DataError(f"conditioning must be 'z' or 'zw', not "
                        f"{conditioning!r}")
    _check_epsilon(epsilon)
    y = (cohort.x == 1).astype(float)
    if y.min() == y.max():
        raise DegenerateGroupError("cohort contains a single group")
    report = {"learner": learner, "conditioning": conditioning,
              "n_rows": cohort.n, "epsilon": epsilon}

    if learner == "frequency_table":
        ids, first = cohort.cells(conditioning)
        share = (np.bincount(ids[cohort.x == 1], minlength=first.size)
                 / np.bincount(ids))
        keys = [pair[:len(conditioning)]
                for pair in zip(*_covariates(cohort, first))]
        fitted = {"table": dict(zip(keys, share.tolist()))}
        raw = share[ids]
        report["n_strata"] = len(fitted["table"])
    elif learner == "logistic_irls":
        design, widths, _ = _numeric_covariates(
            cohort, np.arange(cohort.n), conditioning, np.ones(cohort.n))
        if not np.all(np.isfinite(design)):
            raise CohortSchemaError(_NOT_FINITE)
        beta = np.zeros(design.shape[1])
        converged = False
        n_iter = 0
        for n_iter in range(1, 51):
            mu = _expit_array(design @ beta)
            weight = np.maximum(mu * (1.0 - mu), 1e-12)
            hess = (design * weight[:, None]).T @ design
            hess[np.diag_indices_from(hess)] += 1e-10
            step = np.linalg.solve(hess, design.T @ (y - mu))
            beta += step
            if np.max(np.abs(step)) < 1e-10:
                converged = True
                break
        fitted = {"beta": beta, "widths": widths}
        raw = _expit_array(design @ beta)
        report.update(n_iter=n_iter, converged=converged)
    else:
        raise DataError(f"unknown propensity learner {learner!r}")
    report["clip_rate"] = float(
        np.mean((raw < epsilon) | (raw > 1.0 - epsilon)))
    return PropensityModel(learner, conditioning, epsilon, report,
                           marginal=float(y.mean()), **fitted)


def _expit(v):
    """1 / (1 + exp(-v)), bit for bit ``scipy.special.expit``; 0.0 where
    exp(-v) overflows."""
    try:
        return 1.0 / (1.0 + math.exp(-v))
    except OverflowError:
        return 0.0


def _expit_array(v):
    """``_expit`` of every entry of ``v``: math.exp is mapped over the
    entries in C, and numpy's + and / round as Python's do."""
    over = v < -709.0  # where exp(-v) may overflow
    exp = map(math.exp, np.where(over, 0.0, -v).tolist())
    out = 1.0 / (1.0 + np.fromiter(exp, float, v.size))
    out[over] = [_expit(x) for x in v[over].tolist()]
    return out
