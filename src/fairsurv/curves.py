"""Right-continuous step curves, classical survival estimators and the
curve functionals (restricted means, discrete hazard increments).

The step curve is the common currency of the package: Kaplan-Meier and
Aalen-Johansen output, conditional model predictions, potential-outcome
curves, and decomposition series all evaluate through it.  Curves are
right-continuous with left limits; ties between events and censorings at
the same time are resolved events-first throughout.
"""

from __future__ import annotations

import numpy as np

from .errors import DataError, EmptyCohortError

_MONOTONE_SLACK = 1e-12

# Curve kinds and the shape constraint each one enforces.
_KINDS = ("survival", "cif", "hazard", "generic")


class StepCurve:
    """A right-continuous piecewise-constant function on [0, inf).

    Parameters
    ----------
    breakpoints : array-like
        Strictly increasing, nonnegative, finite jump locations.
    values : array-like
        Value attained at (and after) each breakpoint.
    value_at_zero : float
        Value on [0, breakpoints[0]).  Defaults to 1.0 which suits
        survival curves; cumulative-incidence curves pass 0.0.
    kind : str
        One of ``survival`` (non-increasing, within [0, 1]), ``cif``
        (non-decreasing, within [0, 1]), ``hazard`` (non-decreasing,
        nonnegative) or ``generic`` (unconstrained).
    """

    __slots__ = ("breakpoints", "values", "value_at_zero", "kind")

    def __init__(self, breakpoints, values, value_at_zero=1.0, kind="survival"):
        bp = np.asarray(breakpoints, dtype=float)
        vals = np.asarray(values, dtype=float)
        if bp.ndim != 1 or vals.ndim != 1 or bp.size != vals.size:
            raise DataError("breakpoints and values must be 1-d and equally long")
        if bp.size and (not np.all(np.isfinite(bp)) or bp[0] < 0.0):
            raise DataError("breakpoints must be finite and nonnegative")
        if bp.size > 1 and np.any(np.diff(bp) <= 0.0):
            raise DataError("breakpoints must be strictly increasing")
        if kind not in _KINDS:
            raise DataError(f"unknown curve kind {kind!r}")
        v0 = float(value_at_zero)
        seq = np.concatenate(([v0], vals))
        if kind == "survival":
            if np.any(np.diff(seq) > _MONOTONE_SLACK):
                raise DataError("survival curve must be non-increasing")
            if np.any(seq > 1.0 + _MONOTONE_SLACK) or np.any(seq < -_MONOTONE_SLACK):
                raise DataError("survival curve must stay within [0, 1]")
        elif kind == "cif":
            if np.any(np.diff(seq) < -_MONOTONE_SLACK):
                raise DataError("cumulative incidence must be non-decreasing")
            if np.any(seq > 1.0 + _MONOTONE_SLACK) or np.any(seq < -_MONOTONE_SLACK):
                raise DataError("cumulative incidence must stay within [0, 1]")
        elif kind == "hazard":
            if np.any(np.diff(seq) < -_MONOTONE_SLACK) or v0 < -_MONOTONE_SLACK:
                raise DataError("cumulative hazard must be non-decreasing")
        object.__setattr__(self, "breakpoints", bp)
        object.__setattr__(self, "values", vals)
        object.__setattr__(self, "value_at_zero", v0)
        object.__setattr__(self, "kind", kind)

    def __setattr__(self, name, value):  # curves are immutable once built
        raise AttributeError("StepCurve is immutable")

    def __repr__(self):
        return (
            f"StepCurve(kind={self.kind!r}, jumps={self.breakpoints.size}, "
            f"v0={self.value_at_zero:g})"
        )

    # -- evaluation ---------------------------------------------------------

    def evaluate(self, t):
        """Value at time(s) t; scalar in, scalar out."""
        return self._lookup(t, "right")

    def left_limit(self, t):
        """Value just before time(s) t."""
        return self._lookup(t, "left")

    def _lookup(self, t, side):
        t_arr = np.asarray(t, dtype=float)
        if np.any(t_arr < 0.0):
            raise DataError("evaluation times must be nonnegative")
        idx = np.searchsorted(self.breakpoints, t_arr, side=side) - 1
        out = np.where(
            idx >= 0,
            self.values[np.maximum(idx, 0)] if self.values.size else 0.0,
            self.value_at_zero,
        )
        if np.ndim(t) == 0:
            return float(out)
        return out

    def restrict(self, grid):
        """Resample the curve onto an explicit grid (kind preserved)."""
        g = np.asarray(grid, dtype=float)
        if g.ndim != 1 or g.size == 0:
            raise DataError("grid must be a nonempty 1-d array")
        if np.any(np.diff(g) <= 0.0):
            raise DataError("grid must be strictly increasing")
        return StepCurve(g, self.evaluate(g), self.value_at_zero, self.kind)


class RiskTable:
    """Per-distinct-time risk set and event counts for a cohort."""

    __slots__ = ("times", "at_risk", "events", "censored", "n_causes")

    def __init__(self, times, at_risk, events, censored, n_causes):
        self.times = times
        self.at_risk = at_risk
        self.events = events          # shape (n_times, n_causes)
        self.censored = censored
        self.n_causes = n_causes


def _as_cohort_arrays(times, deltas):
    t = np.asarray(times, dtype=float)
    d = np.asarray(deltas, dtype=int)
    if t.size == 0:
        raise EmptyCohortError("estimator received zero rows")
    if t.shape != d.shape or t.ndim != 1:
        raise DataError("times and event indicators must be 1-d and aligned")
    if np.any(~np.isfinite(t)) or np.any(t < 0.0):
        raise DataError("observed times must be finite and nonnegative")
    if np.any(d < 0):
        raise DataError("event indicators must be nonnegative integers")
    return t, d


def risk_table(times, deltas, n_causes=None):
    """Tabulate at-risk counts, per-cause events, and censorings.

    The at-risk set at a distinct time u is everyone with observed time
    >= u, so tied censorings are still at risk for tied events.
    """
    t, d = _as_cohort_arrays(times, deltas)
    if n_causes is None:
        n_causes = max(int(d.max()), 1)
    if np.any(d > n_causes):
        raise DataError("event indicator exceeds the declared number of causes")
    order = np.argsort(t, kind="mergesort")
    t, d = t[order], d[order]
    uniq, start = np.unique(t, return_index=True)
    n = t.size
    at_risk = n - start
    events = np.zeros((uniq.size, n_causes), dtype=np.int64)
    censored = np.zeros(uniq.size, dtype=np.int64)
    slot = np.searchsorted(uniq, t)
    for k in range(1, n_causes + 1):
        np.add.at(events[:, k - 1], slot[d == k], 1)
    np.add.at(censored, slot[d == 0], 1)
    return RiskTable(uniq, at_risk, events, censored, n_causes)


def _event_steps(times, events):
    """Distinct event times with their event and at-risk counts; any
    positive indicator counts as an event."""
    rt = risk_table(times, np.minimum(np.asarray(events, dtype=int), 1),
                    n_causes=1)
    dj = rt.events[:, 0]
    keep = dj > 0
    return rt.times[keep], dj[keep], rt.at_risk[keep]


def kaplan_meier(times, events):
    """Product-limit estimate of the survival function.

    `events` is the 0/1 indicator of the terminal event; any positive
    integer is treated as an event so all-cause curves can reuse this
    entry point with multi-cause labels.
    """
    u, d, n = _event_steps(times, events)
    return StepCurve(u, np.cumprod(1.0 - d / n), value_at_zero=1.0,
                     kind="survival")


def nelson_aalen(times, events):
    """Cumulative-hazard estimate, the running sum of d_j / n_j."""
    u, d, n = _event_steps(times, events)
    return StepCurve(u, np.cumsum(d / n), value_at_zero=0.0, kind="hazard")


def aalen_johansen_cif(times, deltas, cause, n_causes=None):
    """Cumulative incidence of one cause under competing risks.

    dCIF_k(u) = S_all(u-) * d_k(u) / n(u), with S_all the all-cause
    product-limit curve; summing over causes complements S_all exactly.
    """
    t, d = _as_cohort_arrays(times, deltas)
    if cause < 1:
        raise DataError("cause labels start at 1 (0 is censoring)")
    rt = risk_table(t, d, n_causes=n_causes)
    if cause > rt.n_causes:
        raise DataError("cause exceeds the declared number of causes")
    d_all = rt.events.sum(axis=1)
    s_all_left = np.concatenate(([1.0], np.cumprod(1.0 - d_all / rt.at_risk)))[:-1]
    inc = s_all_left * rt.events[:, cause - 1] / rt.at_risk
    keep = d_all > 0  # curve only moves at event times
    cif = np.cumsum(inc)[keep]
    return StepCurve(rt.times[keep], cif, value_at_zero=0.0, kind="cif")


def hazard_increments(curve):
    """Discrete hazard 1 - S(u)/S(u-) of a survival step curve at each of
    its breakpoints u; 0 where S(u-) = 0."""
    vals = curve.values
    prev = np.concatenate(([curve.value_at_zero], vals))[:-1]
    alive = prev > 0.0
    return np.where(alive, 1.0 - vals / np.where(alive, prev, 1.0), 0.0)


def running_rmst(knots, values, horizon=None):
    """Running integral of the step function equal to ``values[..., l]``
    on [knots[l], knots[l + 1]): entry j integrates it from knots[0] to
    min(knots[j], horizon).  ``knots`` increase; ``values`` runs along
    them on its last axis and may carry leading axes (the map is linear
    in ``values``)."""
    knots = np.asarray(knots, dtype=float)
    values = np.asarray(values, dtype=float)
    cap = np.inf if horizon is None else float(horizon)
    widths = np.maximum(np.minimum(knots[1:], cap) - knots[:-1], 0.0)
    out = np.zeros_like(values)
    np.cumsum(values[..., :-1] * widths, axis=-1, out=out[..., 1:])
    return out


def restricted_means(curve, times, horizon=None):
    """Integral of a survival step curve from 0 to min(t, horizon), at
    every t of ``times`` (a 1-d array of nonnegative times)."""
    if curve.kind not in ("survival", "generic"):
        raise DataError("restricted mean expects a survival-like curve")
    times = np.asarray(times, dtype=float)
    knots = np.union1d(curve.breakpoints, times)
    running = running_rmst(knots, curve.evaluate(knots), horizon)
    head = knots[0] if horizon is None else min(knots[0], horizon)
    return curve.value_at_zero * head + running[np.searchsorted(knots, times)]


def restricted_mean(curve, horizon):
    """Exact integral of a survival step curve from 0 to `horizon`."""
    h = float(horizon)
    if not np.isfinite(h) or h <= 0.0:
        raise DataError("horizon must be positive and finite")
    return float(restricted_means(curve, [h])[0])
