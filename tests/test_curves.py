"""Tests for step curves and classical survival estimators.

Expected values below were computed by hand from the product-limit /
cumulative-hazard definitions before the implementation was written, and are
frozen here as the oracle for the estimators.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from fairsurv.curves import (
    StepCurve,
    _increments,
    aalen_johansen_cif,
    kaplan_meier,
    nelson_aalen,
    product_limit_steps,
    restricted_means,
    running_rmst,
)
from fairsurv.errors import DataError, EmptyCohortError

from testkit import restricted_mean


# ---------------------------------------------------------------------------
# StepCurve basics
# ---------------------------------------------------------------------------

def test_step_curve_is_right_continuous():
    c = StepCurve([1.0, 3.0], [0.5, 0.2], value_at_zero=1.0, kind="survival")
    assert c.evaluate(0.0) == 1.0
    assert c.evaluate(0.999) == 1.0
    assert c.evaluate(1.0) == 0.5          # jump value attained at the jump
    assert c.evaluate(2.9) == 0.5
    assert c.evaluate(3.0) == 0.2
    assert c.evaluate(100.0) == 0.2


def test_step_curve_left_limits():
    c = StepCurve([1.0, 3.0], [0.5, 0.2], value_at_zero=1.0, kind="survival")
    assert c.left_limit(1.0) == 1.0
    assert c.left_limit(3.0) == 0.5
    assert c.left_limit(2.0) == 0.5
    assert c.left_limit(0.5) == 1.0


def test_step_curve_vector_evaluate():
    c = StepCurve([1.0, 2.0], [0.6, 0.1], value_at_zero=1.0, kind="survival")
    out = c.evaluate(np.array([0.0, 1.0, 1.5, 2.0, 9.0]))
    assert_allclose(out, [1.0, 0.6, 0.6, 0.1, 0.1])


def test_step_curve_validation():
    with pytest.raises(DataError):
        StepCurve([2.0, 1.0], [0.5, 0.2], kind="survival")   # not increasing
    with pytest.raises(DataError):
        StepCurve([-1.0, 1.0], [0.5, 0.2], kind="survival")  # negative time
    with pytest.raises(DataError):
        StepCurve([1.0, 2.0], [0.2, 0.5], kind="survival")   # rising survival
    with pytest.raises(DataError):
        StepCurve([1.0, 2.0], [0.5, 0.2], kind="cif")        # falling CIF
    with pytest.raises(DataError):
        StepCurve([1.0], [1.5], kind="survival")             # above one


def test_step_curve_rejects_negative_eval_times():
    c = StepCurve([1.0], [0.5], kind="survival")
    with pytest.raises(DataError):
        c.evaluate(-0.5)


def test_restrict_agrees_on_grid():
    c = StepCurve([1.0, 2.0, 5.0], [0.7, 0.4, 0.1], kind="survival")
    grid = np.array([0.5, 1.0, 3.0, 7.0])
    r = c.restrict(grid)
    assert_allclose(r.evaluate(grid), c.evaluate(grid))
    assert r.kind == c.kind


# ---------------------------------------------------------------------------
# Kaplan-Meier
# ---------------------------------------------------------------------------

def test_km_three_subjects():
    # Risk sets 3 -> 1, factors (1 - 1/3) * (1 - 1/1).
    s = kaplan_meier([1.0, 2.0, 3.0], [1, 0, 1])
    assert_allclose(s.evaluate(1.0), 2.0 / 3.0)
    assert_allclose(s.evaluate(2.0), 2.0 / 3.0)   # censoring does not move S
    assert_allclose(s.evaluate(3.0), 0.0)
    assert s.evaluate(0.5) == 1.0


def test_km_tied_event_and_censoring():
    # Hand computation with the event-before-censoring tie rule:
    #   t=2: 5 at risk, 1 event            -> 4/5
    #   t=4: 4 at risk, 1 event, 1 censor  -> 4/5 * 3/4 = 3/5
    #   t=5: 2 at risk, 1 event            -> 3/5 * 1/2 = 3/10
    s = kaplan_meier([2, 4, 4, 5, 7], [1, 0, 1, 1, 0])
    assert_allclose(s.evaluate(1.9), 1.0)
    assert_allclose(s.evaluate(2.0), 0.8)
    assert_allclose(s.evaluate(4.0), 0.6)
    assert_allclose(s.evaluate(5.0), 0.3)
    assert_allclose(s.evaluate(7.0), 0.3)


def test_km_all_censored_is_flat():
    s = kaplan_meier([1.0, 2.0], [0, 0])
    assert s.evaluate(5.0) == 1.0
    assert s.breakpoints.size == 0


def test_km_empty_cohort_raises():
    with pytest.raises(EmptyCohortError):
        kaplan_meier([], [])


@given(
    st.lists(st.integers(min_value=1, max_value=8), min_size=1, max_size=40)
)
def test_km_without_censoring_is_empirical_survival(times):
    t = np.array(times, dtype=float)
    s = kaplan_meier(t, np.ones_like(t))
    for u in np.unique(t):
        assert_allclose(s.evaluate(float(u)), np.mean(t > u), atol=1e-12)


# ---------------------------------------------------------------------------
# Nelson-Aalen
# ---------------------------------------------------------------------------

def test_na_two_events():
    h = nelson_aalen([1.0, 2.0], [1, 1])
    assert_allclose(h.evaluate(1.0), 0.5)
    assert_allclose(h.evaluate(2.0), 1.5)


def test_na_with_ties_and_censoring():
    h = nelson_aalen([2, 4, 4, 5, 7], [1, 0, 1, 1, 0])
    assert_allclose(h.evaluate(2.0), 0.2)
    assert_allclose(h.evaluate(4.0), 0.45)
    assert_allclose(h.evaluate(7.0), 0.95)


# ---------------------------------------------------------------------------
# The grouped product-limit core
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("block", [1 << 18, 7])
def test_grouped_core_equals_one_estimate_per_group(monkeypatch, block):
    # a block of 7 values pads one group at a time
    import fairsurv.curves

    monkeypatch.setattr(fairsurv.curves, "_BLOCK_ELEMENTS", block)
    rng = np.random.default_rng(11)
    sizes = rng.integers(1, 40, 60)
    times = [np.sort(rng.integers(0, 12, k)).astype(float) for k in sizes]
    labels = [rng.choice(3, size=k, p=[0.5, 0.3, 0.2]) for k in sizes]
    labels[3][:] = 0  # a group without events
    bounds = np.concatenate(([0], np.cumsum(sizes)))
    for kind, one in (("survival", kaplan_meier), ("hazard", nelson_aalen),
                      ("cif", lambda m, d: aalen_johansen_cif(m, d, 2, 2))):
        jumps, values, n_jumps = product_limit_steps(
            np.concatenate(times), np.concatenate(labels), bounds, kind, 2)
        assert n_jumps[3] == 0
        ends = np.cumsum(n_jumps)
        for m, d, lo, hi in zip(times, labels, ends - n_jumps, ends):
            curve = one(m, d)
            assert jumps[lo:hi].tobytes() == curve.breakpoints.tobytes()
            assert values[lo:hi].tobytes() == curve.values.tobytes()


def test_grouped_core_keeps_the_step_curve_checks():
    events = np.ones(4, dtype=int)
    with pytest.raises(DataError, match="strictly increasing"):
        product_limit_steps(np.array([1.0, 2.0, 2.0, 1.0]), events,
                            np.array([0, 2, 4]), "hazard")
    with pytest.raises(DataError, match="finite and nonnegative"):
        product_limit_steps(np.array([1.0, 2.0, -1.0, 3.0]), events,
                            np.array([0, 2, 4]), "survival")


@given(
    st.lists(
        st.tuples(st.integers(1, 6), st.booleans()), min_size=1, max_size=40
    )
)
def test_km_dominated_by_exp_neg_na(rows):
    t = np.array([r[0] for r in rows], dtype=float)
    e = np.array([r[1] for r in rows], dtype=int)
    km = kaplan_meier(t, e)
    na = nelson_aalen(t, e)
    grid = np.unique(t)
    s_km = km.evaluate(grid)
    s_na = np.exp(-na.evaluate(grid))
    assert np.all(s_km <= s_na + 1e-12)
    assert np.all(s_na <= 1.0 + 1e-12)


# ---------------------------------------------------------------------------
# Aalen-Johansen cumulative incidence
# ---------------------------------------------------------------------------

def test_aj_two_causes_two_subjects():
    cif1 = aalen_johansen_cif([1.0, 2.0], [1, 2], cause=1)
    cif2 = aalen_johansen_cif([1.0, 2.0], [1, 2], cause=2)
    assert_allclose(cif1.evaluate(1.0), 0.5)
    assert_allclose(cif1.evaluate(2.0), 0.5)
    assert_allclose(cif2.evaluate(1.0), 0.0)
    assert_allclose(cif2.evaluate(2.0), 0.5)


def test_aj_with_censoring():
    # times [1,1,2,3], deltas [1,2,0,1]:
    #   t=1: 4 at risk, one event of each cause -> dCIF_1 = dCIF_2 = 1/4,
    #        all-cause survival drops to 1/2
    #   t=3: 1 at risk, cause-1 event           -> dCIF_1 = 1/2
    times, deltas = [1, 1, 2, 3], [1, 2, 0, 1]
    cif1 = aalen_johansen_cif(times, deltas, cause=1)
    cif2 = aalen_johansen_cif(times, deltas, cause=2)
    assert_allclose(cif1.evaluate(1.0), 0.25)
    assert_allclose(cif1.evaluate(3.0), 0.75)
    assert_allclose(cif2.evaluate(3.0), 0.25)


@given(
    st.lists(
        st.tuples(st.integers(1, 5), st.integers(0, 3)),
        min_size=1,
        max_size=50,
    )
)
@settings(max_examples=60)
def test_aj_normalization(rows):
    t = np.array([r[0] for r in rows], dtype=float)
    d = np.array([r[1] for r in rows], dtype=int)
    causes = [1, 2, 3]
    s_all = kaplan_meier(t, (d >= 1).astype(int))
    grid = np.unique(t)
    total = np.zeros_like(grid, dtype=float)
    for k in causes:
        total += aalen_johansen_cif(t, d, cause=k, n_causes=3).evaluate(grid)
    assert_allclose(total, 1.0 - s_all.evaluate(grid), atol=1e-12)


# ---------------------------------------------------------------------------
# Restricted mean survival time
# ---------------------------------------------------------------------------

def test_rmst_exact_integration():
    s = kaplan_meier([1.0, 2.0, 3.0], [1, 1, 1])
    assert_allclose(restricted_mean(s, 3.0), 2.0)
    assert_allclose(restricted_mean(s, 2.5), 1.0 + 2.0 / 3.0 + 0.5 / 3.0)


def test_rmst_beyond_last_jump():
    s = kaplan_meier([2, 4, 4, 5, 7], [1, 0, 1, 1, 0])
    # S: 1 on [0,2), .8 on [2,4), .6 on [4,5), .3 afterwards
    assert_allclose(restricted_mean(s, 6.0), 2 + 1.6 + 0.6 + 0.3)


def test_rmst_rejects_bad_horizon():
    s = kaplan_meier([1.0], [1])
    with pytest.raises(DataError):
        restricted_mean(s, 0.0)
    with pytest.raises(DataError):
        restricted_mean(s, -1.0)


def _rmst_knot_sum(curve, horizon):
    """Integral of a step curve from 0 to `horizon`, one knot at a time."""
    if horizon <= 0.0:
        return 0.0
    knots = [0.0] + [float(b) for b in curve.breakpoints if b < horizon]
    knots.append(float(horizon))
    return sum((right - left) * curve.evaluate(left)
               for left, right in zip(knots[:-1], knots[1:]))


def _random_survival_curve(rng):
    """A survival step curve with flat steps, and sometimes a drop to 0."""
    size = int(rng.integers(0, 12))
    bp = np.unique(np.round(rng.exponential(2.0, size), 2) + 0.01)
    factors = rng.choice([1.0, 0.9, 0.5, 0.3, 0.0], size=bp.size,
                         p=[0.25, 0.3, 0.2, 0.15, 0.1])
    v0 = float(rng.choice([1.0, 0.8]))
    return StepCurve(bp, v0 * np.cumprod(factors), value_at_zero=v0)


def test_restricted_means_match_the_knot_sum_oracle():
    rng = np.random.default_rng(23)
    for _ in range(300):
        curve = _random_survival_curve(rng)
        bp = curve.breakpoints
        last = float(bp[-1]) if bp.size else 1.0
        times = [0.0, last + 1.5, float(rng.uniform(0.0, last + 1.0))]
        if bp.size:
            times += [float(rng.choice(bp)), float((bp[0] + bp[-1]) / 2)]
        times = np.array(times)
        early = float(rng.uniform(0.0, 1.0) * np.min(times[times > 0.0]))
        for horizon in (None, float(rng.uniform(0.01, last + 1.0)),
                        float(rng.choice(bp)) if bp.size else 0.5, early):
            cap = np.inf if horizon is None else horizon
            # with and without the time 0, which moves the first knot
            for at in (times, times[1:]):
                want = [_rmst_knot_sum(curve, min(t, cap)) for t in at]
                got = restricted_means(curve, at, horizon)
                assert np.max(np.abs(got - want)) <= 1e-12
        for t in times[times > 0.0]:
            assert abs(restricted_mean(curve, t)
                       - _rmst_knot_sum(curve, t)) <= 1e-12


def test_restricted_means_of_a_curve_without_breakpoints():
    flat = StepCurve([], [], value_at_zero=0.7)
    assert_allclose(restricted_means(flat, [0.0, 2.0, 5.0]),
                    [0.0, 1.4, 3.5], rtol=0, atol=1e-15)
    assert_allclose(restricted_means(flat, [0.0, 2.0, 5.0], horizon=3.0),
                    [0.0, 1.4, 2.1], rtol=0, atol=1e-15)


def test_running_rmst_is_linear_along_the_last_axis():
    knots = np.array([0.5, 1.0, 2.5, 4.0])
    values = np.array([[1.0, 0.8, 0.5, 0.1], [0.0, 1.0, 2.0, 3.0]])
    got = running_rmst(knots, values, horizon=3.0)
    assert_allclose(got, [[0.0, 0.5, 1.7, 1.95], [0.0, 0.0, 1.5, 2.5]],
                    rtol=0, atol=1e-15)
    assert_allclose(got[0], running_rmst(knots, values[0], 3.0), atol=0)


# ---------------------------------------------------------------------------
# Discrete hazard increments
# ---------------------------------------------------------------------------

def _hazard_increments_loop(curve, t_max):
    """The scalar loop that read censoring-hazard increments off a
    predicted curve, kept as the oracle of `_increments`."""
    out = []
    prev = curve.value_at_zero
    for t, v in zip(curve.breakpoints, curve.values):
        if t > t_max:
            break
        if prev > 0.0:
            inc = 1.0 - v / prev
            if inc > 0.0:
                out.append((float(t), float(inc)))
        prev = v
    return out


def test_hazard_increments_equal_the_loop_oracle_exactly():
    rng = np.random.default_rng(29)
    for _ in range(500):
        curve = _random_survival_curve(rng)
        inc = _increments(np.concatenate(([curve.value_at_zero],
                                          curve.values)))
        assert inc.shape == curve.breakpoints.shape
        t_max = float(rng.uniform(0.0, 8.0))
        keep = (inc > 0.0) & (curve.breakpoints <= t_max)
        assert list(zip(curve.breakpoints[keep].tolist(),
                        inc[keep].tolist())) == \
            _hazard_increments_loop(curve, t_max)
        assert np.all(inc[~keep & (curve.breakpoints <= t_max)] == 0.0)


def test_hazard_increments_are_zero_once_the_curve_reaches_zero():
    assert _increments(np.array([1.0, 0.5, 0.5, 0.0, 0.0])).tolist() == [
        0.5, 0.0, 1.0, 0.0]
    assert _increments(np.array([1.0])).size == 0
