"""Nuisance fits: conditional survival/censoring models and propensities.

Two survival learners are provided.  The stratified learner groups rows
by the exact (group, confounder, mediator) combination and fits a
product-limit curve per stratum, backing off to coarser strata when a
combination has no rows.  The tree learner bags log-rank-split survival
trees, one per bootstrap resample, and averages cumulative hazards (or,
for a cause target, incidence curves) across trees.  A node's candidate
splits are the midpoints between consecutive distinct values of each
feature, or at most `max_thresholds` distinct interior quantiles; those
leaving fewer than `min_leaf` rows on a side are dropped, the rest are
scored together in one array pass by the two-sample log-rank
chi-square, and the first strictly largest positive score wins.  Tree
parameters: n_trees >= 1, min_leaf >= 10, 0 <= max_depth <= 6,
max_thresholds >= 1, seed.  Propensities come from frequency tables or
IRLS logistic fits, clipped away from 0 and 1.
"""

from __future__ import annotations

import itertools

import numpy as np

from .curves import (
    StepCurve,
    aalen_johansen_cif,
    hazard_increments,
    kaplan_meier,
    nelson_aalen,
)
from .errors import (
    CohortSchemaError,
    DataError,
    DegenerateGroupError,
    EstimationError,
)
from .scm import _canonical_item, cell_members


def _target_label(target):
    return f"cause:{target}" if isinstance(target, int) else target


def _normalize_target(target):
    if target in ("event", "censoring"):
        return target
    if isinstance(target, (int, np.integer)) and not isinstance(target, bool):
        k = int(target)
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


def stratum_curve(m, delta, target, n_causes):
    """Product-limit curve of one stratum's rows: cumulative incidence
    for a cause target, survival otherwise."""
    if isinstance(target, int):
        return aalen_johansen_cif(m, delta, cause=target, n_causes=n_causes)
    return kaplan_meier(m, _indicator(delta, target))


def _numeric_matrix(codes, values, name):
    """Covariate column as a float matrix, one row per cohort row;
    non-numeric entries are refused."""
    present, inverse = np.unique(codes, return_inverse=True)
    width = len(values[codes[0]]) if isinstance(values[codes[0]], tuple) else 1
    for item in values[present]:
        if not all(isinstance(v, (int, float))
                   for v in (item if isinstance(item, tuple) else (item,))):
            raise CohortSchemaError(
                f"{name} must be numeric for this learner, got {item!r}")
    table = [_numeric_vector(v, width, name) for v in values[present]]
    return np.array(table, dtype=float)[inverse.reshape(-1)]


def _numeric_vector(value, width, name):
    """One covariate entry as floats; numeric strings are accepted."""
    item = _canonical_item(value)
    vals = item if isinstance(item, tuple) else (item,)
    if len(vals) != width:
        raise CohortSchemaError(f"{name} has width {len(vals)}, expected {width}")
    try:
        return [float(v) for v in vals]
    except (TypeError, ValueError):
        raise CohortSchemaError(f"{name} must be numeric for this learner")


def _sorted_cells(values):
    return sorted(values, key=repr)


# ---------------------------------------------------------------------------
# Log-rank survival trees
# ---------------------------------------------------------------------------

class _Leaf:
    __slots__ = ("times", "chf", "curve", "n_rows")

    def __init__(self, times, chf, curve, n_rows):
        self.times = times
        self.chf = chf
        self.curve = curve
        self.n_rows = n_rows


class _Split:
    __slots__ = ("feature", "threshold", "left", "right")

    def __init__(self, feature, threshold, left, right):
        self.feature = feature
        self.threshold = threshold
        self.left = left
        self.right = right


def _logrank_scores(left, m, ind):
    """Two-sample log-rank chi-square of every candidate split of a node.

    `left` is a (candidates, rows) boolean matrix: row k marks the node
    rows candidate k sends left.  The event times, the totals at risk and
    the total events do not depend on the split, so they are computed
    once; left at-risk counts are a cumulative count over the rows in
    descending time order and left event counts a per-time sum over the
    event rows.  Every array is candidates x rows or candidates x event
    times.  A candidate whose variance is not positive scores 0.
    """
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


def _leaf_payload(m, delta, target, n_causes):
    if isinstance(target, int):
        curve = aalen_johansen_cif(m, delta, cause=target, n_causes=n_causes)
        return _Leaf(None, None, curve, m.size)
    chf = nelson_aalen(m, _indicator(delta, target))
    return _Leaf(chf.breakpoints, np.concatenate(([0.0], chf.values)), None,
                 m.size)


def _run_starts(ordered):
    """Mask of the first entry of each run of equal values down every
    column of a column-sorted array.  NaNs, sorted last, form one run, as
    np.unique counts them."""
    starts = np.ones(ordered.shape, dtype=bool)
    starts[1:] = (ordered[1:] != ordered[:-1]) & ~np.isnan(ordered[:-1])
    return starts


def _candidate_splits(feats, max_thresholds):
    """(feature, threshold) of every candidate split of a node, features
    in column order and thresholds ascending within a feature: the
    midpoints between consecutive distinct values, or, where there are
    more than `max_thresholds` of them, the distinct interior quantiles
    at `max_thresholds` equally spaced levels.  The node's columns are
    sorted once, and the quantiles of every feature that needs them are
    taken in one call."""
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


def _grow_tree(feats, m, delta, ind, target, n_causes, depth, params, stats):
    n = m.size
    stats["max_depth_observed"] = max(stats["max_depth_observed"], depth)
    if depth < params["max_depth"] and n >= 2 * params["min_leaf"]:
        feature, threshold = _candidate_splits(feats, params["max_thresholds"])
        left = feats[:, feature].T <= threshold[:, None]
        n_left = left.sum(axis=1)
        fits = np.minimum(n_left, n - n_left) >= params["min_leaf"]
        left, feature, threshold = left[fits], feature[fits], threshold[fits]
        scores = _logrank_scores(left, m, ind)
        if scores.size and scores.max() > 0.0:
            k = int(np.argmax(scores))  # the first maximum wins
            mask = left[k]
            return _Split(
                int(feature[k]), float(threshold[k]),
                _grow_tree(feats[mask], m[mask], delta[mask], ind[mask],
                           target, n_causes, depth + 1, params, stats),
                _grow_tree(feats[~mask], m[~mask], delta[~mask], ind[~mask],
                           target, n_causes, depth + 1, params, stats),
            )
    stats["n_leaves"] += 1
    stats["min_leaf_size_observed"] = min(stats["min_leaf_size_observed"], n)
    return _leaf_payload(m, delta, target, n_causes)


def _route(tree, features):
    node = tree
    while isinstance(node, _Split):
        node = node.left if features[node.feature] <= node.threshold else node.right
    return node


def _mean_chf_survival(leaves):
    times = [leaf.times for leaf in leaves if leaf.times.size]
    if not times:
        return StepCurve([], [], value_at_zero=1.0, kind="survival")
    grid = np.unique(np.concatenate(times))
    chf = np.zeros(grid.size)
    for leaf in leaves:
        chf += leaf.chf[np.searchsorted(leaf.times, grid, side="right")]
    chf /= len(leaves)
    return StepCurve(grid, np.exp(-chf), value_at_zero=1.0, kind="survival")


def _mean_cif(leaves):
    times = [leaf.curve.breakpoints for leaf in leaves if leaf.curve.breakpoints.size]
    if not times:
        return StepCurve([], [], value_at_zero=0.0, kind="cif")
    grid = np.unique(np.concatenate(times))
    total = np.zeros(grid.size)
    for leaf in leaves:
        total += leaf.curve.evaluate(grid)
    return StepCurve(grid, total / len(leaves), value_at_zero=0.0, kind="cif")


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
                 curves=None, trees=None, widths=None):
        self.learner = learner
        self.target = target
        self.n_causes = n_causes
        self.fit_report = fit_report
        self._curves = curves
        self._trees = trees
        self._widths = widths

    @property
    def curve_kind(self):
        return "cif" if isinstance(self.target, int) else "survival"

    @classmethod
    def from_curves(cls, curves, target, n_causes=1, fit_report=None):
        """Wrap an explicit {(x, z, w): StepCurve} lookup as a model.

        Keys may also be (x, z), (x,), or () to serve as backoff levels.
        Useful for exact tables and for deliberately distorted inputs in
        robustness studies.
        """
        target = _normalize_target(target)
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
        return cls("stratified", target, n_causes, report, curves=table)

    def predict(self, x, z, w):
        """Curve for one covariate triple."""
        x = int(x)
        if x not in (0, 1):
            raise DataError("group label must be 0 or 1")
        key = (x, _canonical_item(z), _canonical_item(w))
        if self._curves is not None:
            for probe in (key, key[:2], key[:1], ()):
                if probe in self._curves:
                    return self._curves[probe]
            raise CohortSchemaError(
                f"covariates {key!r} outside the fitted schema"
            )
        feats = (
            [float(x)]
            + _numeric_vector(z, self._widths[0], "z")
            + _numeric_vector(w, self._widths[1], "w")
        )
        leaves = [_route(tree, feats) for tree in self._trees]
        if isinstance(self.target, int):
            return _mean_cif(leaves)
        return _mean_chf_survival(leaves)

    def predict_survival(self, x, z, w):
        if self.curve_kind != "survival":
            raise EstimationError("model predicts cumulative incidence, not survival")
        return self.predict(x, z, w)

    def predict_cif(self, x, z, w):
        if self.curve_kind != "cif":
            raise EstimationError("model predicts survival, not cumulative incidence")
        return self.predict(x, z, w)


def fit_conditional_survival(cohort, target="event", learner="stratified",
                             **params):
    """Fit S(t|x,z,w), G(t|x,z,w), or CIF_k(t|x,z,w) from cohort rows.

    target: "event" (all causes pooled), "censoring" (complementary
    indicator), or an integer cause label.  Stratified params:
    max_categories.  Tree params: n_trees, min_leaf, max_depth, seed,
    max_thresholds.
    """
    target = _normalize_target(target)
    if isinstance(target, int) and target > cohort.n_causes:
        raise DataError("cause label exceeds the cohort's cause count")
    if learner == "stratified":
        return _fit_stratified(cohort, target, params)
    if learner == "logrank_tree_ensemble":
        return _fit_tree_ensemble(cohort, target, params)
    raise DataError(f"unknown learner {learner!r}")


def _fit_stratified(cohort, target, params):
    max_categories = int(params.pop("max_categories", 128))
    if params:
        raise DataError(f"unknown stratified params: {sorted(params)}")
    for name, codes in (("z", cohort.z_codes), ("w", cohort.w_codes)):
        if np.unique(codes).size > max_categories:
            raise CohortSchemaError(
                f"{name} has more than {max_categories} distinct values; "
                "it looks continuous — use the tree learner"
            )

    def curve_on(sel):
        return stratum_curve(
            cohort.m[sel], cohort.delta[sel], target, cohort.n_causes
        )

    curves = {(): curve_on(slice(None))}
    for by in ("x", "xz", "xzw"):
        ids, cells = cohort.cells(by)
        for key, rows in zip(cells, cell_members(ids, len(cells))):
            curves[key[:len(by)]] = curve_on(rows)
    full = set(cells)  # the (x, z, w) strata with rows

    xs = _sorted_cells({k[0] for k in full})
    zs = _sorted_cells({k[1] for k in full})
    ws = _sorted_cells({k[2] for k in full})
    fallback = [
        cell
        for cell in itertools.product(xs, zs, ws)
        if cell not in full
    ]
    report = {
        "learner": "stratified",
        "target": _target_label(target),
        "n_rows": cohort.n,
        "n_strata": len(full),
        "n_cells": len(xs) * len(zs) * len(ws),
        "n_fallback_cells": len(fallback),
        "fallback_cells": [repr(cell) for cell in fallback],
    }
    return ConditionalSurvivalModel(
        "stratified", target, cohort.n_causes, report, curves=curves
    )


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
    z_mat = _numeric_matrix(cohort.z_codes, cohort.z_values, "z")
    w_mat = _numeric_matrix(cohort.w_codes, cohort.w_values, "w")
    feats = np.column_stack(
        [cohort.x.astype(float), z_mat, w_mat]
    )
    ind = _indicator(cohort.delta, target)
    rng = np.random.default_rng(opts["seed"])
    stats = {
        "n_leaves": 0,
        "min_leaf_size_observed": cohort.n,
        "max_depth_observed": 0,
    }
    trees = []
    for _ in range(opts["n_trees"]):
        boot = rng.integers(0, cohort.n, cohort.n)
        trees.append(
            _grow_tree(
                feats[boot], cohort.m[boot], cohort.delta[boot], ind[boot],
                target, cohort.n_causes, 0, opts, stats,
            )
        )
    report = {
        "learner": "logrank_tree_ensemble",
        "target": _target_label(target),
        "n_rows": cohort.n,
        **opts,
        "mean_leaves_per_tree": stats["n_leaves"] / opts["n_trees"],
        "min_leaf_size_observed": stats["min_leaf_size_observed"],
        "max_depth_observed": stats["max_depth_observed"],
    }
    return ConditionalSurvivalModel(
        "logrank_tree_ensemble", target, cohort.n_causes, report,
        trees=trees, widths=(z_mat.shape[1], w_mat.shape[1]),
    )


def predict_censoring_hazard_increments(model, covariates, grid):
    """Discrete censoring-hazard increments up to max(grid).

    Returns (time, increment) pairs at the model's jump locations, with
    increments read off the predicted censoring-survival curve through
    the product identity 1 - G(u)/G(u-); on a per-stratum product-limit
    fit these equal the raw d/n increments exactly.
    """
    if model.target != "censoring":
        raise EstimationError(
            "hazard increments require a model fitted with target='censoring'"
        )
    g = np.asarray(grid, dtype=float)
    if g.size == 0 or np.any(~np.isfinite(g)):
        raise DataError("grid must be nonempty and finite")
    curve = model.predict(*covariates)
    inc = hazard_increments(curve)
    keep = (inc > 0.0) & (curve.breakpoints <= g.max())
    return list(zip(curve.breakpoints[keep].tolist(), inc[keep].tolist()))


# ---------------------------------------------------------------------------
# Propensity models
# ---------------------------------------------------------------------------

_CONDITIONING = ("marginal", "z", "zw")


class PropensityModel:
    """P(X=1 | conditioning set), clipped to [eps, 1-eps].

    Conditioning is "marginal", "z", or "zw".  predict_group(0, ...) is
    defined as one minus the clipped P(X=1|...), so the two group
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
        if beta is not None:
            # scipy loads only for the logistic learner; resolved once here,
            # not on every scalar predict
            from scipy.special import expit

            self._expit = expit

    @property
    def marginal(self):
        """Unconditional P(X=1) seen at fit time (unclipped)."""
        return self._marginal

    def _clip(self, p):
        return float(min(max(p, self.epsilon), 1.0 - self.epsilon))

    def predict(self, z=None, w=None):
        if self.conditioning != "marginal" and z is None:
            raise DataError("this model conditions on z")
        if self.conditioning == "zw" and w is None:
            raise DataError("this model conditions on z and w")
        if self.learner == "frequency_table":
            if self.conditioning == "marginal":
                raw = self._marginal
            else:
                key = (_canonical_item(z),) if self.conditioning == "z" else (
                    _canonical_item(z), _canonical_item(w))
                raw = self._table.get(key, self._marginal)
            return self._clip(raw)
        feats = [1.0]
        if self.conditioning in ("z", "zw"):
            feats += _numeric_vector(z, self._widths[0], "z")
        if self.conditioning == "zw":
            feats += _numeric_vector(w, self._widths[1], "w")
        return self._clip(self._expit(float(np.dot(self._beta, feats))))

    def predict_group(self, x, z=None, w=None):
        p1 = self.predict(z, w)
        return p1 if int(x) == 1 else 1.0 - p1


def fit_propensity(cohort, conditioning, learner="frequency_table",
                   epsilon=0.01):
    """Fit P(X=1 | marginal / z / z,w) by counting or IRLS logistic."""
    if conditioning not in _CONDITIONING:
        raise DataError(f"conditioning must be one of {_CONDITIONING}")
    if not 0.0 < epsilon < 0.5:
        raise DataError("clip bound must lie strictly between 0 and 0.5")
    y = (cohort.x == 1).astype(float)
    if y.min() == y.max():
        raise DegenerateGroupError("cohort contains a single group")
    marginal = float(y.mean())
    report = {
        "learner": learner,
        "conditioning": conditioning,
        "n_rows": cohort.n,
        "epsilon": epsilon,
    }

    if learner == "frequency_table":
        table = {}
        raw = np.full(cohort.n, marginal)
        if conditioning != "marginal":
            ids, cells = cohort.cells(conditioning)
            share = (np.bincount(ids[cohort.x == 1], minlength=len(cells))
                     / np.bincount(ids))
            keys = [cell[1:1 + len(conditioning)] for cell in cells]
            table = dict(zip(keys, share.tolist()))
            raw = share[ids]
        report["n_strata"] = len(table)
        report["clip_rate"] = float(
            np.mean((raw < epsilon) | (raw > 1.0 - epsilon))
        )
        return PropensityModel(
            learner, conditioning, epsilon, report,
            table=table, marginal=marginal,
        )

    if learner != "logistic_irls":
        raise DataError(f"unknown propensity learner {learner!r}")
    from scipy.special import expit

    blocks = [np.ones((cohort.n, 1))]
    widths = (0, 0)
    if conditioning in ("z", "zw"):
        z_mat = _numeric_matrix(cohort.z_codes, cohort.z_values, "z")
        blocks.append(z_mat)
        widths = (z_mat.shape[1], 0)
    if conditioning == "zw":
        w_mat = _numeric_matrix(cohort.w_codes, cohort.w_values, "w")
        blocks.append(w_mat)
        widths = (widths[0], w_mat.shape[1])
    design = np.hstack(blocks)
    beta = np.zeros(design.shape[1])
    converged = False
    n_iter = 0
    for n_iter in range(1, 51):
        mu = expit(design @ beta)
        weight = np.maximum(mu * (1.0 - mu), 1e-12)
        hess = (design * weight[:, None]).T @ design
        hess[np.diag_indices_from(hess)] += 1e-10
        step = np.linalg.solve(hess, design.T @ (y - mu))
        beta += step
        if np.max(np.abs(step)) < 1e-10:
            converged = True
            break
    raw = expit(design @ beta)
    report.update(
        n_iter=n_iter,
        converged=converged,
        clip_rate=float(np.mean((raw < epsilon) | (raw > 1.0 - epsilon))),
    )
    return PropensityModel(
        learner, conditioning, epsilon, report,
        beta=beta, marginal=marginal, widths=widths,
    )


# ---------------------------------------------------------------------------
# Exact tables from a generative spec
# ---------------------------------------------------------------------------

def survival_model_from_spec(spec, target):
    """Exact per-stratum curves read off a generative spec's laws."""
    target = _normalize_target(target)
    curves = {}
    for x, z, w in spec.strata():
        if target == "censoring":
            curve = spec.conditional_survival(x, z, w, cause="censor")
        elif target == "event":
            curve = spec.conditional_all_cause_survival(x, z, w)
        else:
            curve = spec.conditional_cif(x, z, w, cause=target)
        curves[(x, z, w)] = curve
    return ConditionalSurvivalModel.from_curves(
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
