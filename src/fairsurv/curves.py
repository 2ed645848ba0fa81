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

# Most values in a padded block of the grouped product-limit core, a
# block of tree predictions, of ``_Forest.mean_values`` leaf values or of
# Route I's incidence, and 4 to 16 times a batch of tree nodes' arrays.
# 2^20 ran a continuous confounder's decompose 4-19 % faster, but raised
# the plug-in peak from 76 to 104 MB at n = 10k.
_BLOCK_ELEMENTS = 1 << 18


def _check_steps(times, values, value_at_zero, kind, heads):
    """A step curve's checks on consecutive curves' jumps at once, heads
    the index of each curve's first: times finite, nonnegative and rising
    within a curve, values of ``kind``'s shape from ``value_at_zero``."""
    if times.size and (not np.all(np.isfinite(times))
                       or np.any(times[heads] < 0.0)):
        raise DataError("breakpoints must be finite and nonnegative")
    before = np.empty_like(times)
    before[1:] = times[:-1]
    before[heads] = -np.inf
    if np.any(times <= before):
        raise DataError("breakpoints must be strictly increasing")
    if kind not in _KINDS:
        raise DataError(f"unknown curve kind {kind!r}")
    before = np.empty_like(values)
    before[1:] = values[:-1]
    before[heads] = value_at_zero
    rise = values - before
    if kind in ("survival", "cif"):
        name, sign, trend = (("survival curve", -1.0, "increasing")
                             if kind == "survival" else
                             ("cumulative incidence", 1.0, "decreasing"))
        if np.any(sign * rise < -_MONOTONE_SLACK):
            raise DataError(f"{name} must be non-{trend}")
        seq = np.append(values, value_at_zero)
        if np.any(seq > 1.0 + _MONOTONE_SLACK) or np.any(seq < -_MONOTONE_SLACK):
            raise DataError(f"{name} must stay within [0, 1]")
    elif kind == "hazard":
        if np.any(rise < -_MONOTONE_SLACK) or value_at_zero < -_MONOTONE_SLACK:
            raise DataError("cumulative hazard must be non-decreasing")


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
        v0 = float(value_at_zero)
        _check_steps(bp, vals, v0, kind, [0] if bp.size else [])
        for name, value in zip(self.__slots__, (bp, vals, v0, kind)):
            object.__setattr__(self, name, value)

    @classmethod
    def _checked(cls, *fields):
        """The curve of (breakpoints, values, value_at_zero, kind) that
        already passed ``_check_steps``."""
        curve = object.__new__(cls)
        for name, value in zip(cls.__slots__, fields):
            object.__setattr__(curve, name, value)
        return curve

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


def product_limit_steps(times, events, bounds, kind, cause=None):
    """Jump times and values of the step function of each group of rows,
    from the group's rows alone, and each group's jump count.

    Group g is the rows ``bounds[g]:bounds[g + 1]`` (an integer array;
    nonempty groups) in ascending ``times``, ``events`` their labels;
    ``kind`` is ``hazard`` (Nelson-Aalen, any cause an event),
    ``survival`` (Kaplan-Meier, likewise) or ``cif`` (Aalen-Johansen
    incidence of ``cause``).  Tied censorings stay at risk for tied
    events.  The jumps pass the checks of a step curve of ``kind``.
    """
    new = np.ones(times.size, dtype=bool)
    new[1:] = times[1:] != times[:-1]
    new[bounds[:-1]] = True
    first = np.flatnonzero(new)
    d_all = np.add.reduceat(events > 0, first, dtype=np.intp)
    keep = d_all > 0
    group = np.searchsorted(bounds, first[keep], side="right") - 1
    d, n = d_all[keep], bounds[group + 1] - first[keep]
    sizes = np.bincount(group, minlength=bounds.size - 1)
    heads = (np.cumsum(sizes) - sizes)[sizes > 0]
    if kind == "hazard":
        values = _accumulate(np.add, d / n, sizes)
    else:
        values = _accumulate(np.multiply, 1.0 - d / n, sizes)
    if kind == "cif":  # dCIF_k(u) = S_all(u-) * d_k(u) / n(u)
        before = np.empty_like(values)
        before[1:] = values[:-1]
        before[heads] = 1.0
        own = np.add.reduceat(events == cause, first, dtype=np.intp)[keep]
        values = _accumulate(np.add, before * own / n, sizes)
    jumps = times[first[keep]]
    _check_steps(jumps, values, float(kind == "survival"), kind, heads)
    return jumps, values, sizes


def _accumulate(ufunc, values, sizes):
    """``ufunc.accumulate`` within each consecutive group of ``sizes``
    entries of ``values``, every group alone and in order.  Groups go in
    rows padded with the ufunc's identity, as many rows at a time as fit
    in ``_BLOCK_ELEMENTS`` values."""
    if sizes.size == 1:
        return ufunc.accumulate(values)
    out = np.empty_like(values)
    width = max(int(sizes.max()), 1)
    ends = np.cumsum(sizes)
    step = max(1, _BLOCK_ELEMENTS // width)
    for g in range(0, sizes.size, step):
        size = sizes[g:g + step]
        lo, hi = ends[g] - size[0], ends[g + size.size - 1]
        row = np.repeat(np.arange(size.size), size)
        col = np.arange(hi - lo) - np.repeat(np.cumsum(size) - size, size)
        block = np.full((size.size, width), float(ufunc.identity))
        block[row, col] = values[lo:hi]
        out[lo:hi] = ufunc.accumulate(block, axis=1)[row, col]
    return out


def _estimate(times, events, kind, cause=None):
    """The ``kind`` step curve of one cohort, its rows sorted by time."""
    order = np.argsort(times, kind="stable")
    jumps, values, _ = product_limit_steps(
        times[order], events[order], np.array([0, times.size]), kind, cause)
    return StepCurve._checked(jumps, values, float(kind == "survival"), kind)


def kaplan_meier(times, events):
    """Product-limit estimate of the survival function.

    `events` is the 0/1 indicator of the terminal event; any positive
    integer is treated as an event so all-cause curves can reuse this
    entry point with multi-cause labels.
    """
    return _estimate(*_as_cohort_arrays(times, events), "survival")


def nelson_aalen(times, events):
    """Cumulative-hazard estimate, the running sum of d_j / n_j."""
    return _estimate(*_as_cohort_arrays(times, events), "hazard")


def aalen_johansen_cif(times, deltas, cause, n_causes=None):
    """Cumulative incidence of one cause under competing risks.

    dCIF_k(u) = S_all(u-) * d_k(u) / n(u), with S_all the all-cause
    product-limit curve; summing over causes complements S_all exactly.
    """
    t, d = _as_cohort_arrays(times, deltas)
    if cause < 1:
        raise DataError("cause labels start at 1 (0 is censoring)")
    if n_causes is None:
        n_causes = max(int(d.max()), 1)
    if np.any(d > n_causes):
        raise DataError("event indicator exceeds the declared number of causes")
    if cause > n_causes:
        raise DataError("cause exceeds the declared number of causes")
    return _estimate(t, d, "cif", cause)


def _increments(values):
    """Discrete hazard increments along the last axis of survival values
    that start with the value at zero: 1 - S(u)/S(u-) at each later
    entry, 0 where S(u-) = 0."""
    prev, now = values[..., :-1], values[..., 1:]
    alive = prev > 0.0
    return np.where(alive, 1.0 - now / np.where(alive, prev, 1.0), 0.0)


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


def restricted_mean_values(grid, values, jumps, times, horizon=None):
    """`restricted_means` of a block of survival step curves (curves x
    times): curve i is ``values[i, 0]`` before ``grid[0]`` and ``values[i,
    j + 1]`` from ``grid[j]`` on, with breakpoints where ``jumps[i]``.  On
    the union of ``grid`` and ``times`` the running sum adds an exact zero
    off a curve's own knots (its breakpoints and ``times``), so each
    integral is the same sum in the same order as over those knots."""
    times = np.asarray(times, dtype=float)
    # union and places from one sort; np.union1d would load numpy.ma
    knots, place = np.unique(np.append(grid, times), return_inverse=True)
    at = place[grid.size:]
    own = np.zeros((len(values), knots.size), dtype=bool)
    own[:, place[:grid.size]] = jumps
    own[:, at] = True
    # each knot's step from its curve's previous knot, at the value just
    # before it
    last = np.maximum.accumulate(
        np.where(own, np.arange(knots.size), -1), axis=1)[:, :-1]
    cap = np.inf if horizon is None else float(horizon)
    widths = np.maximum(np.minimum(knots[1:], cap) - knots[last], 0.0)
    steps = np.zeros(own.shape)
    np.multiply(values[:, np.searchsorted(grid, knots[:-1], side="right")],
                widths, out=steps[:, 1:], where=own[:, 1:] & (last >= 0))
    del last, widths
    np.cumsum(steps, axis=1, out=steps)
    head = knots[np.argmax(own, axis=1)]
    if horizon is not None:
        head = np.minimum(head, horizon)
    return values[:, :1] * head[:, None] + steps[:, at]


def restricted_means(curve, times, horizon=None):
    """Integral of a survival step curve from 0 to min(t, horizon), at
    every t of ``times`` (a 1-d array of nonnegative times): the one-curve
    case of `restricted_mean_values`."""
    if curve.kind not in ("survival", "generic"):
        raise DataError("restricted mean expects a survival-like curve")
    bp = curve.breakpoints
    return restricted_mean_values(
        bp, np.append(curve.value_at_zero, curve.values)[None, :],
        np.ones((1, bp.size), dtype=bool), times, horizon)[0]
