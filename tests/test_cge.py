"""Latent-survival reconstruction under copula-dependent censoring."""

import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fairsurv.cge
from fairsurv.cge import (
    CGEState,
    Route2Result,
    cge_bounded,
    incidence_estimates,
    route1_conditional,
    route2_population,
)
from fairsurv.cge import _bounded_rows, _draw_trajectories, _incidence, \
    _trajectories
from fairsurv.copulas import CopulaSpec, generator, generator_inverse
from fairsurv.curves import StepCurve, kaplan_meier
from fairsurv.dr import Z_CRITICAL, FoldPlan
from fairsurv.errors import (
    DataError,
    InfeasibleBandsError,
)
from fairsurv.identify import default_grid, fit_plugin_nuisances
from fairsurv.queries import Functional, PotentialOutcomeQuery, role_queries
from fairsurv.scm import Cohort, sample_cohort

from testkit import (
    CoincidentJumpError,
    brute_po,
    cge_classical,
    empirical_cif_pair,
    make_cr_two_cause,
    make_ic_clayton,
    make_nic_balanced,
    plugin_po,
    reference_envelope_draws,
    spec_of,
)

CLAYTON = CopulaSpec("clayton", 0.5)
INDEP = CopulaSpec("independence", 0.0)


def toy_pair():
    """Three disjoint jumps: event at 1 (0.2) and 3 (0.1), censor at 2 (0.3)."""
    cif_t = StepCurve([1.0, 3.0], [0.2, 0.3], value_at_zero=0.0, kind="cif")
    cif_c = StepCurve([2.0], [0.3], value_at_zero=0.0, kind="cif")
    return cif_t, cif_c


def smooth_pair(n_points):
    ts = np.linspace(3.0 / n_points, 3.0, n_points)
    cif_t = StepCurve(ts, 0.5 * (1 - np.exp(-ts)), value_at_zero=0.0,
                      kind="cif")
    cif_c = StepCurve(ts, 0.3 * (1 - np.exp(-0.8 * ts)), value_at_zero=0.0,
                      kind="cif")
    return ts, cif_t, cif_c


@pytest.fixture(scope="module")
def nic_cohort():
    return sample_cohort(spec_of(make_nic_balanced()), 4000, seed=5)


# ---------------------------------------------------------------------------
# single-jump recursion
# ---------------------------------------------------------------------------

def test_classical_clayton_hand_values():
    # theta = 2, phi(u) = (u^-2 - 1)/2, phi_inv(s) = (1 + 2s)^(-1/2):
    # S(1) = phi_inv(phi(0.8)) = 0.8
    # G(2) = phi_inv(phi(0.5) - phi(0.8)) = (55/16)^(-1/2) = 4/sqrt(55)
    # S(3) = phi_inv(phi(0.4) - phi(G(2))) = (61/16)^(-1/2) = 4/sqrt(61)
    cif_t, cif_c = toy_pair()
    surv, cens = cge_classical(cif_t, cif_c, CLAYTON)
    np.testing.assert_array_equal(surv.breakpoints, [1.0, 2.0, 3.0])
    np.testing.assert_allclose(
        surv.values, [0.8, 0.8, 4.0 / math.sqrt(61.0)], rtol=0, atol=1e-12)
    np.testing.assert_allclose(
        cens.values,
        [1.0, 4.0 / math.sqrt(55.0), 4.0 / math.sqrt(55.0)],
        rtol=0, atol=1e-12)


def test_classical_independence_matches_km(nic_cohort):
    times = np.unique(nic_cohort.m)
    cif_t, cif_c = empirical_cif_pair(nic_cohort.m, nic_cohort.delta, times)
    surv, cens = cge_classical(cif_t, cif_c, INDEP)
    km_event = kaplan_meier(nic_cohort.m, nic_cohort.delta)
    km_censor = kaplan_meier(nic_cohort.m, 1 - nic_cohort.delta)
    np.testing.assert_allclose(
        surv.evaluate(times), km_event.evaluate(times), rtol=0, atol=1e-8)
    np.testing.assert_allclose(
        cens.evaluate(times), km_censor.evaluate(times), rtol=0, atol=1e-8)


def test_classical_no_censoring_is_complement_of_incidence():
    cif_t = StepCurve([1.0, 2.0, 3.0], [0.2, 0.5, 0.8], value_at_zero=0.0,
                      kind="cif")
    cif_c = StepCurve([1.0], [0.0], value_at_zero=0.0, kind="cif")
    for spec in (CLAYTON, INDEP, CopulaSpec("gumbel", 0.4),
                 CopulaSpec("frank", -0.3)):
        surv, cens = cge_classical(cif_t, cif_c, spec)
        np.testing.assert_allclose(
            surv.values, [0.8, 0.5, 0.2], rtol=0, atol=1e-12)
        np.testing.assert_array_equal(cens.values, [1.0, 1.0, 1.0])


def test_classical_coincident_jump_rejected():
    cif_t = StepCurve([1.0, 2.0], [0.2, 0.4], value_at_zero=0.0, kind="cif")
    cif_c = StepCurve([2.0], [0.3], value_at_zero=0.0, kind="cif")
    with pytest.raises(CoincidentJumpError, match="bounded"):
        cge_classical(cif_t, cif_c, CLAYTON)


def test_classical_flat_breakpoint_is_not_a_jump():
    # a breakpoint where the curve does not move must not count as a jump
    cif_t = StepCurve([1.0], [0.2], value_at_zero=0.0, kind="cif")
    cif_c = StepCurve([1.0, 2.0], [0.0, 0.3], value_at_zero=0.0, kind="cif")
    surv, _ = cge_classical(cif_t, cif_c, CLAYTON)
    np.testing.assert_allclose(surv.evaluate(1.0), 0.8, rtol=0, atol=1e-12)


def test_classical_both_curves_flat_rejected():
    cif_t = StepCurve([1.0], [0.0], value_at_zero=0.0, kind="cif")
    cif_c = StepCurve([2.0], [0.0], value_at_zero=0.0, kind="cif")
    with pytest.raises(DataError, match="identically zero"):
        cge_classical(cif_t, cif_c, CLAYTON)


# ---------------------------------------------------------------------------
# bounded recursion
# ---------------------------------------------------------------------------

def test_bounded_collapses_to_classical_on_disjoint_jumps():
    cif_t, cif_c = toy_pair()
    grid = np.array([1.0, 2.0, 3.0])
    surv, cens = cge_classical(cif_t, cif_c, CLAYTON)
    state = cge_bounded(cif_t, cif_c, CLAYTON, grid)
    np.testing.assert_allclose(state.s_hat, surv.evaluate(grid),
                               rtol=0, atol=1e-10)
    np.testing.assert_allclose(state.g_hat, cens.evaluate(grid),
                               rtol=0, atol=1e-10)
    assert state.max_width() <= 1e-10


def test_bounded_collapses_to_classical_on_cohort_curves(nic_cohort):
    # event atoms {1..4} and censoring atoms {0.5..3.5} never coincide
    times = np.unique(nic_cohort.m)
    times = times[times <= 4.0]
    cif_t, cif_c = empirical_cif_pair(nic_cohort.m, nic_cohort.delta, times)
    surv, cens = cge_classical(cif_t, cif_c, CLAYTON)
    state = cge_bounded(cif_t, cif_c, CLAYTON, times)
    np.testing.assert_allclose(state.s_hat, surv.evaluate(times),
                               rtol=0, atol=1e-10)
    np.testing.assert_allclose(state.g_hat, cens.evaluate(times),
                               rtol=0, atol=1e-10)
    assert state.max_width() <= 1e-10


def test_bounded_zero_increment_steps_collapse():
    cif_t, cif_c = toy_pair()
    grid = np.array([1.0, 2.0, 3.0])
    state = cge_bounded(cif_t, cif_c, CLAYTON, grid)
    # t=2 moves only the censoring curve: the event bounds pinch onto
    # the previous midpoint; t=1 and t=3 pinch the censoring bounds.
    assert abs(state.s_hi[1] - state.s_lo[1]) <= 1e-12
    assert abs(state.s_hi[1] - state.s_hat[0]) <= 1e-12
    assert abs(state.g_hi[0] - state.g_lo[0]) <= 1e-12
    assert abs(state.g_hi[2] - state.g_lo[2]) <= 1e-12


def test_bounded_requires_jump_times_on_grid():
    cif_t, cif_c = toy_pair()
    with pytest.raises(DataError, match="missing t=3"):
        cge_bounded(cif_t, cif_c, CLAYTON, np.array([1.0, 2.0]))


def test_bounded_rejects_incidence_sum_above_one():
    cif_t = StepCurve([1.0, 2.0], [0.3, 0.7], value_at_zero=0.0, kind="cif")
    cif_c = StepCurve([1.5], [0.4], value_at_zero=0.0, kind="cif")
    with pytest.raises(DataError, match=r"sum to .* at t=2"):
        cge_bounded(cif_t, cif_c, CLAYTON, np.array([1.0, 1.5, 2.0]))


def test_bounded_grid_refinement_shrinks_width():
    widths = []
    for n_points in (10, 40, 160):
        ts, cif_t, cif_c = smooth_pair(n_points)
        widths.append(cge_bounded(cif_t, cif_c, CLAYTON, ts).max_width())
    # frozen from the hand recursion on the same inputs
    np.testing.assert_allclose(
        widths,
        [0.029839404613538, 0.0021076029871335, 0.00013534650962221],
        rtol=0, atol=1e-12)
    assert widths[0] > widths[1] > widths[2]
    assert widths[2] < 1e-3


def test_bounded_midpoint_tracks_product_limit_at_independence():
    # continuous-time limit under independent censoring:
    # S(t) = exp(-int_0^t dCIF_T(u) / S_all(u)); 160 points get within 5e-6
    ts, cif_t, cif_c = smooth_pair(160)
    state = cge_bounded(cif_t, cif_c, INDEP, ts)
    from scipy.integrate import quad

    def hazard(u):
        s_all = 1.0 - 0.5 * (1 - np.exp(-u)) - 0.3 * (1 - np.exp(-0.8 * u))
        return 0.5 * np.exp(-u) / s_all

    exact = np.array([math.exp(-quad(hazard, 0.0, t, limit=200)[0])
                      for t in ts])
    assert float(np.max(np.abs(state.s_hat - exact))) < 5e-6


def test_bounded_state_invariants(nic_cohort):
    times = np.unique(nic_cohort.m)
    times = times[times <= 4.0]
    cif_t, cif_c = empirical_cif_pair(nic_cohort.m, nic_cohort.delta, times)
    state = cge_bounded(cif_t, cif_c, CLAYTON, times)
    for seq in (state.s_lo, state.s_hi, state.g_lo, state.g_hi,
                state.s_hat, state.g_hat):
        assert np.all(seq >= 0.0) and np.all(seq <= 1.0)
        assert np.all(np.diff(seq) <= 1e-12)
    assert np.all(state.s_lo <= state.s_hat) and np.all(
        state.s_hat <= state.s_hi)
    assert np.all(state.g_lo <= state.g_hat) and np.all(
        state.g_hat <= state.g_hi)
    assert state.identity_gap() <= 1e-8
    assert state.diagnostics["n_negative_phi_clamps"] >= 0
    assert isinstance(state.survival, StepCurve)
    assert state.survival.kind == "survival"


def test_bounded_independence_matches_km(nic_cohort):
    times = np.unique(nic_cohort.m)
    times = times[times <= 4.0]
    cif_t, cif_c = empirical_cif_pair(nic_cohort.m, nic_cohort.delta, times)
    state = cge_bounded(cif_t, cif_c, INDEP, times)
    km = kaplan_meier(nic_cohort.m, nic_cohort.delta)
    np.testing.assert_allclose(state.s_hat, km.evaluate(times),
                               rtol=0, atol=1e-8)


def test_bounded_exhausted_followup_widens_to_sharp_interval():
    # once CIF_T + CIF_C reaches one, the latent marginal is unidentified:
    # the lower bound drops to zero and the midpoint halves
    cif_t = StepCurve([1.0], [0.3], value_at_zero=0.0, kind="cif")
    cif_c = StepCurve([1.0, 2.0], [0.2, 0.7], value_at_zero=0.0, kind="cif")
    state = cge_bounded(cif_t, cif_c, CLAYTON, np.array([1.0, 2.0]))
    assert state.s_lo[-1] == 0.0
    assert abs(state.s_hat[-1] - 0.5 * state.s_hi[-1]) <= 1e-12
    assert state.s_hi[-1] <= state.s_hat[0] + 1e-12


@st.composite
def incidence_pairs(draw):
    n_steps = draw(st.integers(min_value=1, max_value=6))
    fracs = st.floats(min_value=0.0, max_value=1.0)
    raw_t = np.array([draw(fracs) for _ in range(n_steps)])
    raw_c = np.array([draw(fracs) for _ in range(n_steps)])
    total = raw_t.sum() + raw_c.sum()
    budget = draw(st.floats(min_value=0.1, max_value=0.95))
    if total > 0:
        # divide first: budget / total overflows for a subnormal total
        raw_t = raw_t / total * budget
        raw_c = raw_c / total * budget
    grid = np.cumsum(np.array([draw(
        st.floats(min_value=0.1, max_value=1.0)) for _ in range(n_steps)]))
    family, tau = draw(st.sampled_from([
        ("independence", 0.0), ("clayton", 0.3), ("clayton", 0.7),
        ("gumbel", 0.5), ("frank", 0.4), ("frank", -0.4)]))
    return grid, np.cumsum(raw_t), np.cumsum(raw_c), CopulaSpec(family, tau)


@settings(max_examples=40, deadline=None)
@given(incidence_pairs())
def test_bounded_invariants_property(case):
    grid, ct_vals, cc_vals, spec = case
    cif_t = StepCurve(grid, ct_vals, value_at_zero=0.0, kind="cif")
    cif_c = StepCurve(grid, cc_vals, value_at_zero=0.0, kind="cif")
    state = cge_bounded(cif_t, cif_c, spec, grid)
    assert np.all(state.s_lo <= state.s_hi + 1e-12)
    assert np.all(state.g_lo <= state.g_hi + 1e-12)
    assert np.all(state.s_lo - 1e-12 <= state.s_hat)
    assert np.all(state.s_hat <= state.s_hi + 1e-12)
    for seq in (state.s_lo, state.s_hi, state.g_lo, state.g_hi,
                state.s_hat, state.g_hat):
        assert np.all(seq >= 0.0) and np.all(seq <= 1.0)
        assert np.all(np.diff(seq) <= 1e-12)
    assert state.identity_gap() <= 1e-6


def scalar_bounded(ct, cc, spec):
    """Reference: the per-step bounded recursion written one scalar at a
    time, as cge_bounded ran before it was batched over trajectories."""
    def phi(u):
        return float(generator(spec, u))

    def invert(difference):
        if math.isnan(difference):
            return 0.0, True
        if difference < 0.0:
            return float(generator_inverse(spec, 0.0)), True
        return float(generator_inverse(spec, difference)), False

    s_all = np.clip(1.0 - (ct + cc), 0.0, 1.0)
    d_t = np.diff(np.concatenate(([0.0], ct)))
    d_c = np.diff(np.concatenate(([0.0], cc)))
    out = {key: np.empty(ct.size) for key in
           ("s_lo", "s_hi", "g_lo", "g_hi", "s_hat", "g_hat")}
    n_clamps = 0
    s_prev = g_prev = s_all_prev = 1.0
    for i in range(ct.size):
        s_all_i = float(s_all[i])
        h_low = max(s_all_prev - float(d_c[i]), 0.0)
        h_up = max(s_all_prev - float(d_t[i]), 0.0)
        phi_all = phi(s_all_i)
        hi_g, c1 = invert(phi(h_low) - phi(s_prev))
        lo_s, c2 = invert(phi_all - phi(hi_g)) if hi_g > 0.0 \
            else (s_all_i, False)
        hi_s, c3 = invert(phi(h_up) - phi(g_prev))
        lo_g, c4 = invert(phi_all - phi(hi_s)) if hi_s > 0.0 \
            else (s_all_i, False)
        n_clamps += sum((c1, c2, c3, c4))
        mid_s = min(0.5 * (lo_s + hi_s), s_prev)
        if mid_s <= 0.0:
            mid_g = 0.0 if s_all_i <= 0.0 else g_prev
        else:
            mid_g, _ = invert(phi_all - phi(mid_s))
        mid_g = min(mid_g, g_prev)
        for key, value in zip(out, (lo_s, hi_s, lo_g, hi_g, mid_s, mid_g)):
            out[key][i] = value
        s_prev, g_prev, s_all_prev = mid_s, mid_g, s_all_i
    for key in ("s_lo", "s_hi", "g_lo", "g_hi"):
        out[key] = np.minimum.accumulate(np.clip(out[key], 0.0, 1.0))
    out["s_lo"] = np.minimum(out["s_lo"], out["s_hat"])
    out["s_hi"] = np.maximum(out["s_hi"], out["s_hat"])
    out["g_lo"] = np.minimum(out["g_lo"], out["g_hat"])
    out["g_hi"] = np.maximum(out["g_hi"], out["g_hat"])
    return out, n_clamps


def random_incidence_rows(rng, k, m):
    """k admissible incidence pairs on m steps.  Many steps move both
    curves; every third row exhausts follow-up at its last step, and
    the rows after those lose all remaining mass to the event one step
    earlier, so their last step takes phi differences of inf - inf."""
    inc_t = rng.random((k, m)) * (rng.random((k, m)) < 0.7)
    inc_c = rng.random((k, m)) * (rng.random((k, m)) < 0.7)
    scale = 0.45 / np.maximum(inc_t.sum(axis=1), inc_c.sum(axis=1))
    ct = np.cumsum(inc_t * scale[:, None], axis=1)
    cc = np.cumsum(inc_c * scale[:, None], axis=1)
    ct[::3, -1], cc[::3, -1] = 0.5, 0.5  # sum = 1: follow-up exhausted
    cc[1::3, -2:] = cc[1::3, -3:-2]
    ct[1::3, -2:] = 1.0 - cc[1::3, -3:-2]
    return ct, cc


KERNEL_SPECS = [CopulaSpec("clayton", 0.6), CopulaSpec("gumbel", 0.5),
                CopulaSpec("frank", -0.5), CopulaSpec("frank", 0.5), INDEP]


@pytest.mark.parametrize("spec", KERNEL_SPECS,
                         ids=lambda sp: f"{sp.family}{sp.kendall_tau:g}")
def test_batched_recursion_matches_scalar_reference(spec):
    rng = np.random.default_rng(17)
    ct, cc = random_incidence_rows(rng, 30, 12)
    assert np.any((np.diff(ct, axis=1) > 0) & (np.diff(cc, axis=1) > 0))
    grid = np.arange(1.0, 13.0)
    rows = _bounded_rows(ct, cc, spec)
    keys = ("s_lo", "s_hi", "g_lo", "g_hi", "s_hat", "g_hat")
    for r in range(ct.shape[0]):
        want, want_clamps = scalar_bounded(ct[r], cc[r], spec)
        state = cge_bounded(
            StepCurve(grid, ct[r], value_at_zero=0.0, kind="cif"),
            StepCurve(grid, cc[r], value_at_zero=0.0, kind="cif"),
            spec, grid)
        for j, key in enumerate(keys):
            np.testing.assert_allclose(rows[j][r], want[key],
                                       rtol=0, atol=1e-12)
            np.testing.assert_allclose(getattr(state, key), want[key],
                                       rtol=0, atol=1e-12)
        assert rows[6][r] == want_clamps
        assert state.diagnostics["n_negative_phi_clamps"] == want_clamps
    assert np.any(rows[6][1::3] > 0)
    # exhausted rows: sharp interval [0, s_hi] with the midpoint halving
    assert np.all(rows[0][::3, -1] == 0.0)
    np.testing.assert_allclose(rows[4][::3, -1], 0.5 * rows[1][::3, -1],
                               rtol=0, atol=1e-12)


# ---------------------------------------------------------------------------
# Route I: stratum-level reconstruction
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def ic_cohort():
    return sample_cohort(spec_of(make_ic_clayton(0.5)), 50000, seed=101)


@pytest.fixture(scope="module")
def ic_nuisances(ic_cohort):
    return fit_plugin_nuisances(ic_cohort, Functional("survival"))


def ic_grid(cohort):
    times = np.unique(cohort.m)
    return times[times <= 4.0]  # inside follow-up: see exhaustion test


def test_route1_independence_equals_plugin(ic_cohort, ic_nuisances):
    grid = ic_grid(ic_cohort)
    query = PotentialOutcomeQuery(1, 1, 1)
    [curves] = route1_conditional(ic_cohort, [INDEP], ic_nuisances, [query],
                                  grid)
    base = plugin_po(ic_nuisances, ic_cohort, query, Functional("survival"),
                     grid)
    np.testing.assert_allclose(curves[query].values, base.values, rtol=0,
                               atol=1e-6)


def test_route1_single_stratum_equals_bounded_midpoint():
    rng = np.random.default_rng(3)
    n = 600
    cohort = Cohort(
        rng.integers(0, 2, n), np.zeros(n, int), np.zeros(n, int),
        rng.choice([1.0, 2.0, 3.0], n), rng.integers(0, 2, n), n_causes=1)
    nuis = fit_plugin_nuisances(cohort, Functional("survival"))
    grid = np.array([1.0, 2.0, 3.0])
    query = PotentialOutcomeQuery(1, 1, 1)
    [curves] = route1_conditional(cohort, [CLAYTON], nuis, [query], grid)
    arm = cohort.subset(cohort.x == 1)
    cif_t, cif_c = empirical_cif_pair(arm.m, arm.delta, grid)
    state = cge_bounded(cif_t, cif_c, CLAYTON, grid)
    np.testing.assert_allclose(curves[query].values, state.s_hat, rtol=0,
                               atol=1e-12)


def test_route1_row_order_sum_on_continuous_times():
    # continuous times make the grid about as long as the cohort; the
    # stratum curves must still be summed exactly as a row-by-row
    # accumulation over the cohort would, for every query and copula of
    # one call
    rng = np.random.default_rng(11)
    n = 400
    cohort = Cohort(
        rng.integers(0, 2, n), rng.integers(0, 3, n), rng.integers(0, 2, n),
        rng.exponential(5.0, n), rng.integers(0, 2, n), n_causes=1)
    nuis = fit_plugin_nuisances(cohort, Functional("survival"))
    queries = role_queries(0, 1)
    specs = [CLAYTON, CopulaSpec("frank", -0.4)]
    grid = np.unique(cohort.m)[:-1]
    results = route1_conditional(cohort, specs, nuis, queries, grid)
    assert len(results) == len(specs)

    z_items, w_items = cohort.z_items, cohort.w_items
    weights = {}
    for q in queries:
        for zi, wi in set(zip(z_items, w_items)):
            weights[q, zi, wi] = (
                nuis.propensity_zw.predict_group(q.x_mediator, zi, wi)
                / nuis.propensity_z.predict_group(q.x_mediator, zi)
                * (nuis.propensity_z.predict_group(q.x_condition, zi)
                   / nuis.propensity_z.group_fractions[q.x_condition]))
    for spec, curves in zip(specs, results):
        latent = {}
        for x in (0, 1):
            for zi, wi in set(zip(z_items, w_items)):
                idx = np.array([j for j in range(n) if cohort.x[j] == x
                                and z_items[j] == zi and w_items[j] == wi])
                cif_t, cif_c = empirical_cif_pair(
                    cohort.m[idx], cohort.delta[idx], grid)
                latent[x, zi, wi] = cge_bounded(cif_t, cif_c, spec,
                                                grid).s_hat
        assert set(curves) == set(queries)
        for q in queries:
            totals = np.zeros(grid.size)
            for zi, wi in zip(z_items, w_items):
                totals += weights[q, zi, wi] * latent[q.x_outcome, zi, wi]
            np.testing.assert_array_equal(curves[q].values,
                                          np.clip(totals / n, 0.0, 1.0))


def _four_cell_cohort(n=400, seed=5):
    rng = np.random.default_rng(seed)
    return Cohort(
        rng.integers(0, 2, n), rng.integers(0, 2, n), rng.integers(0, 2, n),
        rng.choice([1.0, 2.0, 3.0, 4.0], n), rng.integers(0, 2, n),
        n_causes=1)


def _count_recursions(monkeypatch):
    calls = []
    for name in ("_bounded_rows", "cge_bounded"):
        def counted(*args, _fn=getattr(fairsurv.cge, name), _name=name,
                    **kwargs):
            # rows of a batched recursion; cge_bounded runs one pair
            calls.append((_name, len(args[0]) if _name == "_bounded_rows"
                          else 1))
            return _fn(*args, **kwargs)
        monkeypatch.setattr(fairsurv.cge, name, counted)
    return calls


def test_route1_runs_one_recursion_per_copula(monkeypatch):
    # every query and tau from one set of cell incidence arrays: on four
    # cells, 4 queries x 3 taus take one batched recursion per tau and no
    # single-pair cge_bounded call
    cohort = _four_cell_cohort()
    nuis = fit_plugin_nuisances(cohort, None)
    calls = _count_recursions(monkeypatch)
    specs = [CopulaSpec("clayton", tau) for tau in (0.2, 0.5, 0.8)]
    results = route1_conditional(cohort, specs, nuis, role_queries(0, 1),
                                 np.array([1.0, 2.0, 3.0]))
    assert [len(curves) for curves in results] == [4, 4, 4]
    # 4 cells under each of the two outcome arms
    assert calls == [("_bounded_rows", 8)] * 3


def test_route1_blocks_are_bounded_and_leave_curves_unchanged(monkeypatch):
    cohort = _four_cell_cohort()
    nuis = fit_plugin_nuisances(cohort, None)
    specs = [CLAYTON, CopulaSpec("gumbel", 0.6)]
    queries = role_queries(1, 0)
    grid = np.array([1.0, 2.0, 3.0])
    whole = route1_conditional(cohort, specs, nuis, queries, grid)
    calls = _count_recursions(monkeypatch)
    monkeypatch.setattr(fairsurv.cge, "_BLOCK_ELEMENTS", 3 * grid.size)
    blocked = route1_conditional(cohort, specs, nuis, queries, grid)
    assert calls == [("_bounded_rows", k) for k in (3, 3, 3, 3, 2, 2)]
    for got, want in zip(blocked, whole):
        for q in queries:
            assert got[q].values.tobytes() == want[q].values.tobytes()


def _cell_incidence_levels(cohort, grid):
    """Check Route I's incidence of every (cell, arm) against the empirical
    pair of the rows it reads: the cell's rows in the arm, else the arm's
    rows sharing its confounder, else the whole arm.  Returns the levels
    read, the member sets, the (cells x arms) pick and the censoring
    incidence of each set."""
    x, z, m, delta = cohort.x, np.array(cohort.z_items), cohort.m, \
        cohort.delta
    zw_ids, first = cohort.cells("zw")
    members, pick = _trajectories(cohort, [0, 1])
    cif_t, cif_c = _incidence(cohort, members, grid)
    levels = set()
    for c, row in enumerate(first):
        for a, arm in enumerate((0, 1)):
            for level, rows in (("zw", zw_ids == c), ("z", z == z[row]),
                                ("x", np.ones(x.size, bool))):
                rows &= x == arm
                if rows.any():
                    break
            levels.add(level)
            want_t, want_c = empirical_cif_pair(m[rows], delta[rows], grid)
            assert cif_t[pick[c, a]].tobytes() == want_t.values.tobytes()
            assert cif_c[pick[c, a]].tobytes() == want_c.values.tobytes()
    return levels, members, pick, cif_c


def test_cell_incidence_equals_per_time_reference():
    # arm 1 has no row in cell (z=1, w=1), so that cell reads arm 1's
    # z=1 rows; arm 0 has no row with z=2, so those cells read all of arm
    # 0; arm 1's cell (0, 0) has no censored rows.  Grid times tie
    # observed times, fall between them and lie beyond them all.
    rng = np.random.default_rng(8)
    cells = {1: [(0, 0, 7), (0, 1, 11), (1, 0, 13), (2, 0, 9), (2, 1, 5)],
             0: [(0, 0, 6), (0, 1, 17), (1, 0, 3), (1, 1, 19)]}
    x, z, w = (np.array(col) for col in zip(*(
        (arm, zi, wi) for arm, rows in cells.items()
        for zi, wi, k in rows for _ in range(k))))
    order = rng.permutation(x.size)
    x, z, w = x[order], z[order], w[order]
    m = rng.choice([1.0, 2.0, 3.0, 4.0, 5.0], x.size)
    delta = rng.integers(0, 2, x.size)
    delta[(x == 1) & (z == 0) & (w == 0)] = 1
    cohort = Cohort(x, z, w, m, delta, n_causes=1)
    grid = np.array([0.5, 1.0, 2.5, 3.0, 4.0, 6.0])
    levels, members, pick, cif_c = _cell_incidence_levels(cohort, grid)
    assert levels == {"zw", "z", "x"}
    # one member set per arm and seen cell, one per arm's fallback
    assert len(members) == 4 + 5 + 1 + 1
    no_censoring = pick[cohort.cells("zw")[0][np.flatnonzero(
        (x == 1) & (z == 0) & (w == 0))[0]], 1]
    assert np.all(cif_c[no_censoring] == 0.0)
    # 150 confounder values, so uint8 ids, and one mediator value; arm 0
    # has no row at z >= 120, whose cells read all of arm 0 through a
    # fallback index past 255
    z = rng.integers(0, 150, 3000)
    x = np.where(z >= 120, 1, rng.integers(0, 2, z.size))
    cohort = Cohort(x, z, np.zeros_like(z), rng.choice(m, z.size),
                    rng.integers(0, 2, z.size), n_causes=1)
    assert cohort.cells("z")[0].dtype == np.uint8
    assert _cell_incidence_levels(cohort, grid)[0] == {"zw", "x"}


def test_route1_recovers_latent_truth_under_true_copula(ic_cohort,
                                                        ic_nuisances):
    raw = make_ic_clayton(0.5)
    grid = ic_grid(ic_cohort)
    queries = [PotentialOutcomeQuery(1, 1, 1), PotentialOutcomeQuery(0, 0, 0)]
    [curves] = route1_conditional(ic_cohort, [CLAYTON], ic_nuisances,
                                  queries, grid)
    for query in queries:
        arm = query.x_outcome
        latent = np.array([brute_po(raw, arm, arm, arm, t, kind="survival")
                           for t in grid])
        assert float(np.max(np.abs(curves[query].values - latent))) <= 0.04


def test_route1_rejects_competing_causes():
    cohort = sample_cohort(spec_of(make_cr_two_cause()), 500, seed=9)
    nuis = fit_plugin_nuisances(cohort, Functional("all_cause_survival"))
    with pytest.raises(DataError, match="single event"):
        route1_conditional(cohort, [CLAYTON], nuis,
                           [PotentialOutcomeQuery(1, 1, 1)],
                           np.array([1.0, 2.0]))


def test_route1_unseen_stratum_falls_back_to_arm():
    # arm 1 has rows only at (z=0, w=0); every other cell borrows the arm
    rng = np.random.default_rng(11)
    x = np.array([1] * 80 + [0] * 80)
    z = np.array([0] * 80 + [0] * 40 + [1] * 40)
    w = np.array([0] * 80 + [1] * 40 + [1] * 40)
    cohort = Cohort(x, z, w, rng.choice([1.0, 2.0], 160),
                    rng.integers(0, 2, 160), n_causes=1)
    nuis = fit_plugin_nuisances(cohort, Functional("survival"))
    grid = np.array([1.0, 2.0])
    query = PotentialOutcomeQuery(1, 1, 1)
    [curves] = route1_conditional(cohort, [CLAYTON], nuis, [query], grid)
    arm = cohort.subset(cohort.x == 1)
    cif_t, cif_c = empirical_cif_pair(arm.m, arm.delta, grid)
    state = cge_bounded(cif_t, cif_c, CLAYTON, grid)
    np.testing.assert_allclose(curves[query].values, state.s_hat, rtol=0,
                               atol=1e-12)


# ---------------------------------------------------------------------------
# Route II: population-level reconstruction with an envelope
# ---------------------------------------------------------------------------

def _estimate(grid, values, ses):
    return SimpleNamespace(grid=np.asarray(grid, float),
                           estimate=np.asarray(values, float),
                           se=np.asarray(ses, float))


@pytest.fixture(scope="module")
def route2_toy_cohort():
    return sample_cohort(spec_of(make_ic_clayton(0.5)), 400, seed=21)


GRID3 = np.array([1.0, 2.0, 3.0])


def test_route2_zero_width_bands_collapse_to_central():
    est_t = _estimate(GRID3, [0.2, 0.3, 0.35], [0.0, 0.0, 0.0])
    est_c = _estimate(GRID3, [0.1, 0.2, 0.25], [0.0, 0.0, 0.0])
    (result,) = route2_population((est_t, est_c), [CLAYTON], n_samples=25)
    np.testing.assert_array_equal(result.env_lo, result.central)
    np.testing.assert_array_equal(result.env_hi, result.central)


def test_route2_envelope_contains_central_and_is_monotone(ic_cohort):
    grid = ic_grid(ic_cohort)
    estimates = incidence_estimates(
        FoldPlan(ic_cohort.censoring_as_cause()),
        PotentialOutcomeQuery(1, 1, 1), grid)
    (result,) = route2_population(estimates, [CLAYTON], n_samples=40)
    assert np.all(result.env_lo <= result.central)
    assert np.all(result.central <= result.env_hi)
    assert np.all(np.diff(result.env_lo) <= 1e-12)
    assert np.all(np.diff(result.env_hi) <= 1e-12)
    assert np.all(result.env_lo >= 0.0) and np.all(result.env_hi <= 1.0)


def test_route2_central_tracks_latent_oracle_across_tau():
    query = PotentialOutcomeQuery(1, 1, 1)
    for tau in (0.1, 0.5, 0.8):
        raw = make_ic_clayton(tau)
        cohort = sample_cohort(spec_of(raw), 50000, seed=101)
        times = np.unique(cohort.m)
        grid = times[times <= 4.0]
        estimates = incidence_estimates(
            FoldPlan(cohort.censoring_as_cause()), query, grid)
        (result,) = route2_population(estimates,
                                      [CopulaSpec("clayton", tau)])
        latent = np.array([brute_po(raw, 1, 1, 1, t, kind="survival")
                           for t in grid])
        assert float(np.max(np.abs(result.central - latent))) <= 0.05
        assert np.all(result.env_lo <= result.central)
        assert np.all(result.central <= result.env_hi)


def test_route2_infeasible_bands_raise():
    est_t = _estimate(GRID3, [0.7, 0.7, 0.7], [0.0, 0.0, 0.0])
    est_c = _estimate(GRID3, [0.6, 0.6, 0.6], [0.0, 0.0, 0.0])
    with pytest.raises(InfeasibleBandsError, match="t=1"):
        route2_population((est_t, est_c), [CLAYTON])


def test_route2_widening_bands_never_shrink_corner_envelope():
    est_t = _estimate(GRID3, [0.30, 0.42, 0.47], [0.04, 0.05, 0.05])
    est_c = _estimate(GRID3, [0.28, 0.40, 0.46], [0.04, 0.05, 0.05])
    wide_t = _estimate(GRID3, est_t.estimate, 2.0 * est_t.se)
    wide_c = _estimate(GRID3, est_c.estimate, 2.0 * est_c.se)
    (narrow,) = route2_population((est_t, est_c), [CLAYTON], n_samples=0)
    (wide,) = route2_population((wide_t, wide_c), [CLAYTON], n_samples=0)
    assert np.all(wide.env_lo <= narrow.env_lo + 1e-12)
    assert np.all(wide.env_hi >= narrow.env_hi - 1e-12)


def _rejecting_estimates():
    # bands wide enough that upper corners break the sum constraint
    return (_estimate(GRID3, [0.30, 0.42, 0.47], [0.04, 0.05, 0.05]),
            _estimate(GRID3, [0.28, 0.40, 0.46], [0.04, 0.05, 0.05]))


def test_route2_sampling_rejects_inadmissible_trajectories():
    # some draws must be rejected, yet the run stays deterministic
    kwargs = dict(n_samples=50, seed=7)
    (result,) = route2_population(_rejecting_estimates(), [CLAYTON],
                                  **kwargs)
    assert result.diagnostics["n_samples_accepted"] == 50
    assert result.diagnostics["n_sample_attempts"] > 50
    assert result.diagnostics["n_corner_scaled_points"] > 0
    (rerun,) = route2_population(_rejecting_estimates(), [CLAYTON],
                                 **kwargs)
    np.testing.assert_array_equal(result.env_lo, rerun.env_lo)
    np.testing.assert_array_equal(result.env_hi, rerun.env_hi)


def _bands(est_t, est_c):
    return [np.maximum.accumulate(np.clip(
        est.estimate + sign * Z_CRITICAL * est.se, 0.0, 1.0))
        for est in (est_t, est_c) for sign in (-1.0, 1.0)]


@pytest.mark.parametrize("n_samples", [0, 1, 7, 50])
def test_batched_envelope_draws_match_one_attempt_at_a_time(n_samples):
    bands = _bands(*_rejecting_estimates())
    draws_t, draws_c, attempts = _draw_trajectories(*bands, n_samples, 7)
    ref_t, ref_c, accepted, ref_attempts = reference_envelope_draws(
        GRID3, *bands, n_samples, 7)
    assert len(draws_t) == len(draws_c) == accepted == n_samples
    assert attempts == ref_attempts
    if n_samples:
        assert attempts > n_samples     # the bands do reject draws
    np.testing.assert_array_equal(draws_t, np.reshape(ref_t, (-1, 3)))
    np.testing.assert_array_equal(draws_c, np.reshape(ref_c, (-1, 3)))


def test_batched_envelope_draws_give_up_at_the_attempt_cap():
    # every draw sums above one, though the lower corner is admissible
    est = _estimate(GRID3, [0.75, 0.75, 0.75], [0.128, 0.128, 0.128])
    bands = _bands(est, est)
    draws_t, draws_c, attempts = _draw_trajectories(*bands, 3, 0)
    assert reference_envelope_draws(GRID3, *bands, 3, 0) \
        == ([], [], 0, 1500)
    assert draws_t.shape == draws_c.shape == (0, 3)
    assert attempts == 1500
    with pytest.raises(InfeasibleBandsError,
                       match="only 0 of 3 .* after 1500 attempts"):
        route2_population((est, est), [CLAYTON], n_samples=3)


def test_route2_sweep_equals_one_call_per_spec():
    specs = [CopulaSpec("clayton", 0.3), CopulaSpec("gumbel", 0.5),
             CopulaSpec("frank", -0.4)]
    sweep = route2_population(_rejecting_estimates(), specs, n_samples=30,
                              seed=4)
    assert [r.tau for r in sweep] == [0.3, 0.5, -0.4]
    for spec, swept in zip(specs, sweep):
        (single,) = route2_population(_rejecting_estimates(), [spec],
                                      n_samples=30, seed=4)
        for name in ("grid", "central", "env_lo", "env_hi"):
            np.testing.assert_array_equal(getattr(swept, name),
                                          getattr(single, name))
        for name in ("s_lo", "s_hi", "g_lo", "g_hi", "s_hat", "g_hat"):
            np.testing.assert_array_equal(getattr(swept.state, name),
                                          getattr(single.state, name))
        assert swept.state.diagnostics == single.state.diagnostics
        assert swept.diagnostics == single.diagnostics
        assert swept.family == spec.family


def test_route2_default_grid_resolves_censoring_jumps(route2_toy_cohort):
    # after recoding, censoring times are incidence jumps: the default
    # grid must carry them alongside the event times
    estimates = incidence_estimates(
        FoldPlan(route2_toy_cohort.censoring_as_cause()),
        PotentialOutcomeQuery(1, 1, 1))
    (result,) = route2_population(estimates, [CLAYTON], n_samples=10)
    recoded = Cohort(route2_toy_cohort.x, route2_toy_cohort.z_items,
                     route2_toy_cohort.w_items, route2_toy_cohort.m,
                     np.where(route2_toy_cohort.delta == 1, 1, 2),
                     n_causes=2)
    np.testing.assert_array_equal(result.grid, default_grid(recoded))
    assert result.grid.size > default_grid(route2_toy_cohort).size


def test_route2_rejects_competing_causes():
    # Route II's estimates come from the censoring-recoded cohort
    cohort = sample_cohort(spec_of(make_cr_two_cause()), 400, seed=9)
    with pytest.raises(DataError, match="single event"):
        cohort.censoring_as_cause()


def test_route2_csv_layout():
    est_t = _estimate(GRID3, [0.2, 0.3, 0.35], [0.01, 0.01, 0.01])
    est_c = _estimate(GRID3, [0.1, 0.2, 0.25], [0.01, 0.01, 0.01])
    (result,) = route2_population((est_t, est_c), [CLAYTON], n_samples=5)
    text = result.to_csv(header_comment="config=abc123")
    lines = text.strip().split("\n")
    assert lines[0] == "# config=abc123"
    assert lines[1] == "t,central,env_lo,env_hi,tau"
    assert len(lines) == 2 + GRID3.size
    for line in lines[2:]:
        cells = line.split(",")
        assert len(cells) == 5
        assert cells[4] == "0.5"
    assert result.tau == 0.5 and result.family == "clayton"
