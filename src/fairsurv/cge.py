"""Reconstruction of latent survival under informative censoring.

When the event time T and the censoring time C are dependent, their
joint survival is modeled by an Archimedean copula on the marginals,
H(t, c) = C_tau(S(t), G(c)), so phi(H) = phi(S) + phi(G).  Everything
observable is carried by the pair of sub-distribution incidence curves
CIF_T(t) = P(M <= t, event) and CIF_C(t) = P(M <= t, censored), whose
sum fixes the joint survival S_all = 1 - CIF_T - CIF_C on the diagonal.
The recursion here inverts that relation step by step to recover the
latent marginals S and G for a fixed dependence strength tau.

One recursion serves every route.  Where one incidence curve moves in a
grid step the inversion is exact; where both move it is not unique, so
each step takes sharp lower and upper bounds for both marginals (one
cause's increment first within the step) and, as point estimates, their
midpoints re-projected onto the additive identity.  The bounds collapse
as the grid refines, and onto the exact inversion where the two curves
never jump together.

Route I applies the bounded recursion inside covariate strata, one
batched call per copula over blocks of strata for every query, and
aggregates with the same propensity weighting as the plug-in estimator;
Route II applies it to population-level potential-outcome incidence
curves estimated by cross-fitted one-step correction (censoring recoded
as a competing event, so no row is treated as incomplete), and wraps
the result in an uncertainty envelope built from band corners plus
uniformly sampled admissible incidence trajectories.  Neither the
incidence pair nor the envelope draws depend on the copula, so one
call reconstructs a query under every assumed dependence.  The envelope
is a sensitivity band: it propagates the incidence-band uncertainty
through a nonlinear map and carries no formal coverage guarantee.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .copulas import CopulaSpec, generator, generator_inverse
from .curves import _BLOCK_ELEMENTS, StepCurve
from .dr import Z_CRITICAL, crossfit_dr_many
from .errors import DataError, InfeasibleBandsError
from .identify import _validate_grid, cell_weights
from .queries import Functional, table_csv
from .scm import cell_members

_SUM_SLACK = 1e-12


def _invert_nonneg(spec, difference):
    """phi-inverse of generator differences, clamped into [0, inf).

    Exact arithmetic keeps a difference nonnegative; float noise can
    push it slightly below zero, and saturated generators (both inputs
    at the clip floor) can produce nan.  A negative difference maps to
    phi-inverse(0) and nan to 0; both are flagged so callers can count
    them.  Returns the values and the flags, shaped like the input.
    """
    nan = np.isnan(difference)
    value = np.where(nan, 0.0, generator_inverse(spec, difference))
    return value, nan | (difference < 0.0)


def _jump_times(curve):
    """Breakpoints where the curve actually moves."""
    seq = np.concatenate(([curve.value_at_zero], curve.values))
    moved = np.diff(seq) != 0.0
    return curve.breakpoints[moved]


def _check_cif_inputs(cif_t, cif_c):
    for name, curve in (("event", cif_t), ("censoring", cif_c)):
        if not isinstance(curve, StepCurve):
            raise DataError(f"{name} incidence must be a step curve")
        if curve.value_at_zero != 0.0:
            raise DataError(f"{name} incidence must start at zero")


@dataclass
class CGEState:
    """Grid-wise bounds, midpoints, and inputs of one bounded recursion."""

    grid: np.ndarray
    s_lo: np.ndarray
    s_hi: np.ndarray
    g_lo: np.ndarray
    g_hi: np.ndarray
    s_hat: np.ndarray
    g_hat: np.ndarray
    cif_t: StepCurve
    cif_c: StepCurve
    s_all: StepCurve
    spec: CopulaSpec
    diagnostics: dict

    @property
    def survival(self):
        return StepCurve(self.grid, self.s_hat, value_at_zero=1.0,
                         kind="survival")

    def max_width(self):
        width_s = float(np.max(self.s_hi - self.s_lo))
        width_g = float(np.max(self.g_hi - self.g_lo))
        return max(width_s, width_g)

    def identity_gap(self):
        """sup |phi(S_all) - phi(S) - phi(G)| over points where finite."""
        with np.errstate(invalid="ignore"):
            total = generator(self.spec, self.s_all.values)
            parts = generator(self.spec, self.s_hat) \
                + generator(self.spec, self.g_hat)
            gap = np.abs(total - parts)[np.isfinite(total)
                                        & np.isfinite(parts)]
        return float(gap.max()) if gap.size else 0.0


def _bounded_rows(ct, cc, spec):
    """The bounded recursion on k incidence pairs sharing one grid.

    ``ct`` and ``cc`` are (k, m) arrays of event and censoring incidence
    on the m grid points.  The loop runs over grid steps; each step
    updates all k trajectories at once.  Returns the (k, m) arrays
    s_lo, s_hi, g_lo, g_hi, s_hat, g_hat and the per-row clamp counts.
    """
    ct = np.atleast_2d(np.asarray(ct, dtype=float)).T
    cc = np.atleast_2d(np.asarray(cc, dtype=float)).T
    s_all = np.clip(1.0 - (ct + cc), 0.0, 1.0)
    zero = np.zeros((1, ct.shape[1]))
    d_t = np.diff(np.concatenate((zero, ct)), axis=0)
    d_c = np.diff(np.concatenate((zero, cc)), axis=0)
    out = np.empty((6,) + ct.shape)
    n_clamps = np.zeros(ct.shape[1], dtype=int)

    s_prev = g_prev = s_all_prev = np.ones(ct.shape[1])
    for i in range(ct.shape[0]):
        s_all_i = s_all[i]
        h_low = np.maximum(s_all_prev - d_c[i], 0.0)
        h_up = np.maximum(s_all_prev - d_t[i], 0.0)
        with np.errstate(invalid="ignore"):  # inf - inf: clamped as nan
            phi_all = generator(spec, s_all_i)
            hi_g, c1 = _invert_nonneg(
                spec, generator(spec, h_low) - generator(spec, s_prev))
            lo_s, c2 = _invert_nonneg(spec, phi_all - generator(spec, hi_g))
            hi_s, c3 = _invert_nonneg(
                spec, generator(spec, h_up) - generator(spec, g_prev))
            lo_g, c4 = _invert_nonneg(spec, phi_all - generator(spec, hi_s))
            lo_s = np.where(hi_g > 0.0, lo_s, s_all_i)
            lo_g = np.where(hi_s > 0.0, lo_g, s_all_i)
            mid_s = np.minimum(0.5 * (lo_s + hi_s), s_prev)
            mid_g, _ = _invert_nonneg(spec, phi_all - generator(spec, mid_s))
        n_clamps += c1.astype(int) + (c2 & (hi_g > 0.0)) + c3 \
            + (c4 & (hi_s > 0.0))
        mid_g = np.where(mid_s <= 0.0,
                         np.where(s_all_i <= 0.0, 0.0, g_prev), mid_g)
        mid_g = np.minimum(mid_g, g_prev)
        out[:, i] = lo_s, hi_s, lo_g, hi_g, mid_s, mid_g
        s_prev, g_prev, s_all_prev = mid_s, mid_g, s_all_i

    bounds = np.minimum.accumulate(np.clip(out[:4], 0.0, 1.0), axis=1)
    s_hat, g_hat = out[4], out[5]
    return (np.minimum(bounds[0], s_hat).T, np.maximum(bounds[1], s_hat).T,
            np.minimum(bounds[2], g_hat).T, np.maximum(bounds[3], g_hat).T,
            s_hat.T, g_hat.T, n_clamps)


def _bounded_state(grid, cif_t, cif_c, spec, rows):
    """CGEState of the first row of a `_bounded_rows` result, whose
    inputs were the values of `cif_t` and `cif_c` on `grid`."""
    s_lo, s_hi, g_lo, g_hi, s_hat, g_hat = (np.array(a[0]) for a in rows[:6])
    state = CGEState(
        grid=grid, s_lo=s_lo, s_hi=s_hi, g_lo=g_lo, g_hi=g_hi,
        s_hat=s_hat, g_hat=g_hat, cif_t=cif_t, cif_c=cif_c,
        s_all=StepCurve(grid, np.clip(1.0 - (cif_t.values + cif_c.values),
                                      0.0, 1.0),
                        value_at_zero=1.0, kind="survival"),
        spec=spec,
        diagnostics={"n_negative_phi_clamps": int(rows[6][0])},
    )
    state.diagnostics["max_width"] = state.max_width()
    state.diagnostics["identity_gap"] = state.identity_gap()
    return state


def cge_bounded(cif_t, cif_c, spec, grid):
    """Sharp per-step bounds plus midpoint estimates on an explicit grid.

    Per step the extremes attribute the whole joint decrease to one
    cause first: holding the censoring share fixed maximizes G and
    minimizes S, and symmetrically.  Midpoints are re-projected onto
    the additive identity (G solved from S via phi) before the next
    step, so drift cannot compound; the stored bound sequences are
    monotonized by a running minimum, which keeps them valid and keeps
    the midpoints inside.

    Where the two incidences sum to one, follow-up is exhausted and the
    latent marginal is no longer identified: the sharp interval there
    is [0, previous value] and the midpoint halves.  Grids meant for
    point reconstruction should stay inside follow-up.
    """
    _check_cif_inputs(cif_t, cif_c)
    grid = _validate_grid(grid)
    for name, curve in (("event", cif_t), ("censoring", cif_c)):
        missing = np.setdiff1d(_jump_times(curve), grid)
        if missing.size:
            raise DataError(
                f"grid must contain every jump of the {name} incidence; "
                f"missing t={missing[0]:g}")

    ct = np.asarray(cif_t.evaluate(grid), dtype=float)
    cc = np.asarray(cif_c.evaluate(grid), dtype=float)
    sums = ct + cc
    over = np.flatnonzero(sums > 1.0 + _SUM_SLACK)
    if over.size:
        j = int(over[0])
        raise DataError(
            f"incidence curves sum to {sums[j]:.6g} > 1 at t={grid[j]:g}")
    return _bounded_state(grid, cif_t.restrict(grid), cif_c.restrict(grid),
                          spec, _bounded_rows(ct, cc, spec))


# ---------------------------------------------------------------------------
# Route I: per-stratum reconstruction, aggregated by propensity weights
# ---------------------------------------------------------------------------

def _trajectories(cohort, arms):
    """The distinct row sets of Route I's latent curves, and the (cells x
    arms) index of the one each cell reads in an arm: its rows there,
    else the arm's rows sharing its confounder, else the whole arm."""
    zw_ids, first = cohort.cells("zw")
    z_ids, z_first = cohort.cells("z")
    members, pick = [], []
    for arm in arms:
        rows = np.flatnonzero(cohort.x == arm)
        if rows.size == 0:
            raise DataError(f"no rows in outcome arm {arm}")
        groups = cell_members(zw_ids[rows], first.size) + cell_members(
            z_ids[rows], z_first.size) + [np.arange(rows.size)]
        sizes, source = np.array(list(map(len, groups))), np.arange(first.size)
        # in intp: small unsigned ids would wrap past their type's range
        for fallback in (first.size + z_ids[first].astype(np.intp),
                         len(groups) - 1):
            source = np.where(sizes[source] > 0, source, fallback)
        used, index = np.unique(source, return_inverse=True)
        pick.append(len(members) + index)
        members += [rows[groups[g]] for g in used.tolist()]
    return members, np.stack(pick, axis=1)


def _incidence(cohort, members, grid):
    """Event and censoring incidence on `grid` of each row set, as (k, m)
    arrays: counts over set sizes, equal to `np.mean` bit for bit."""
    sizes = np.array(list(map(len, members)))
    rows = np.concatenate(members)
    key = (np.repeat(2 * np.arange(sizes.size), sizes) + cohort.delta[rows]) \
        * (grid.size + 1) + np.searchsorted(grid, cohort.m[rows])
    counts = np.bincount(key, minlength=2 * sizes.size * (grid.size + 1))
    cif = np.cumsum(counts.reshape(sizes.size, 2, -1)[:, :, :-1], axis=2)
    cif = cif / sizes[:, None, None]
    return cif[:, 1], cif[:, 0]


def route1_conditional(cohort, specs, nuisances, queries, grid):
    """Stratum-wise bounded reconstruction, plug-in weighted into PO curves.

    In every covariate cell of an outcome arm (`_trajectories` for unseen
    ones) the rows' empirical event/censoring incidence goes through the
    bounded recursion, one call per copula and block of at most
    ``_BLOCK_ELEMENTS`` values, and the latent midpoints are averaged with
    the plug-in estimator's propensity ratios.  Returns one {query:
    StepCurve} per spec of `specs`, in spec order.
    """
    if cohort.n_causes != 1:
        raise DataError("informative-censoring reconstruction covers a "
                        "single event type")
    grid = _validate_grid(grid)
    queries = list(dict.fromkeys(queries))
    arms = sorted({q.x_outcome for q in queries})
    zw_ids, first = cohort.cells("zw")
    members, pick = _trajectories(cohort, arms)
    latent = np.empty((len(specs), len(members), grid.size))
    step = max(1, _BLOCK_ELEMENTS // grid.size)
    for b in range(0, len(members), step):
        cif_t, cif_c = _incidence(cohort, members[b:b + step], grid)
        for s, spec in enumerate(specs):
            latent[s, b:b + step] = _bounded_rows(cif_t, cif_c, spec)[4]
    weights = cell_weights(nuisances, queries, cohort, first)
    pick = pick[:, [arms.index(q.x_outcome) for q in queries]]
    # summed row by row, in row order: np.sum would round differently,
    # and a cumsum over rows x grid holds that matrix or runs slower
    totals = np.zeros((len(specs), len(queries), grid.size))
    for c in zw_ids.tolist():
        totals += weights[c, :, None] * latent[:, pick[c]]
    return [{q: StepCurve(grid, v, value_at_zero=1.0, kind="survival")
             for q, v in zip(queries, values)}
            for values in np.clip(totals / cohort.n, 0.0, 1.0)]


# ---------------------------------------------------------------------------
# Route II: population-level incidence with an uncertainty envelope
# ---------------------------------------------------------------------------

def _suffix_min(values):
    return np.minimum.accumulate(values[::-1])[::-1]


def _sanitize_cif_pair(ct, cc):
    """Force a pair of value arrays into admissible incidence curves.

    Clips into [0, 1], enforces non-decreasing values by a running
    maximum, and scales both curves proportionally wherever their sum
    exceeds one.  Scaling can dent monotonicity, so it is followed by a
    suffix minimum — the largest non-decreasing curve that never rises
    above the scaled values — which cannot push a sum back over one.
    Returns the arrays plus the number of scaled points.
    """
    ct = np.maximum.accumulate(np.clip(np.asarray(ct, float), 0.0, 1.0))
    cc = np.maximum.accumulate(np.clip(np.asarray(cc, float), 0.0, 1.0))
    sums = ct + cc
    scale = np.where(sums > 1.0, 1.0 / np.where(sums > 1.0, sums, 1.0), 1.0)
    n_scaled = int(np.sum(sums > 1.0 + _SUM_SLACK))
    ct = _suffix_min(ct * scale)
    cc = _suffix_min(cc * scale)
    return ct, cc, n_scaled


def incidence_estimates(plan, query, grid=None):
    """Cross-fitted event (cause 1) and censoring (cause 2) incidence of
    one query, over a fold plan on a censoring-recoded cohort
    (``Cohort.censoring_as_cause``).  The default grid is that of the
    recoded cohort, whose censoring times are jumps of the second curve,
    so it resolves them as well as the event times."""
    return tuple(crossfit_dr_many(
        plan, [query], Functional("cif", cause=k), grid=grid)[query]
        for k in (1, 2))


def _draw_trajectories(lo_t, hi_t, lo_c, hi_c, n_samples, seed):
    """Up to `n_samples` admissible incidence pairs drawn inside the bands.

    Attempt i sorts lo + u * (hi - lo) for each band, where u is the
    attempt's event, then censoring, uniforms of one seeded stream; it
    is admissible when both stay inside their bands and sum to at most
    one.  Attempts are drawn `n_samples` at a time, at most
    500 * n_samples in all.  Returns the accepted (k, m) event and
    censoring arrays in attempt order, and the number of attempts up to
    the last accepted one (all of them when fewer than `n_samples` were
    accepted).
    """
    rng = np.random.default_rng(seed)
    cap = 500 * n_samples
    kept_t, kept_c = [np.empty((0, lo_t.size))], [np.empty((0, lo_t.size))]
    accepted = attempts = 0
    while accepted < n_samples and attempts < cap:
        u = rng.random((min(n_samples, cap - attempts), 2, lo_t.size))
        draw_t = np.sort(lo_t + u[:, 0] * (hi_t - lo_t), axis=1)
        draw_c = np.sort(lo_c + u[:, 1] * (hi_c - lo_c), axis=1)
        ok = np.flatnonzero(np.all(
            (draw_t >= lo_t) & (draw_t <= hi_t) & (draw_c >= lo_c)
            & (draw_c <= hi_c) & (draw_t + draw_c <= 1.0 + _SUM_SLACK),
            axis=1))[:n_samples - accepted]
        kept_t.append(draw_t[ok])
        kept_c.append(draw_c[ok])
        accepted += ok.size
        attempts += int(ok[-1]) + 1 if accepted == n_samples else len(u)
    return np.concatenate(kept_t), np.concatenate(kept_c), attempts


@dataclass
class Route2Result:
    """Central latent-survival curve plus its sensitivity envelope.

    The envelope is the pointwise min/max of reconstructions over the
    four band corners, the accepted sampled incidence trajectories, and
    the central curve itself; it propagates incidence uncertainty and
    is not a calibrated confidence band.
    """

    grid: np.ndarray
    central: np.ndarray
    env_lo: np.ndarray
    env_hi: np.ndarray
    tau: float
    family: str
    state: CGEState
    cif_t_estimate: object
    cif_c_estimate: object
    diagnostics: dict

    @property
    def survival(self):
        return StepCurve(self.grid, self.central, value_at_zero=1.0,
                         kind="survival")

    def to_csv(self, header_comment=None):
        return table_csv("t,central,env_lo,env_hi,tau",
                         [[self.grid, self.central, self.env_lo,
                           self.env_hi, self.tau]], header_comment)


def route2_population(cif_estimates, specs, *, n_samples=200, seed=0):
    """Population-route reconstruction of one latent potential outcome
    under each copula of `specs`; returns one `Route2Result` per spec.

    `cif_estimates` is a query's (event, censoring) incidence pair, as
    `incidence_estimates` returns it: objects carrying grid, estimate
    and se on one shared grid.  The bounded recursion on the central
    curves gives the point reconstruction; the four corners of the
    bands and `n_samples` admissible trajectories sampled uniformly
    inside them (seeded by `seed`) span the envelope.  None of these
    depends on the copula, so they are built once and each spec runs one
    recursion over all of them.
    """
    est_t, est_c = cif_estimates
    grid = _validate_grid(est_t.grid)
    if not np.array_equal(np.asarray(est_c.grid, float), grid):
        raise DataError("incidence estimates must share the grid")
    if n_samples < 0:
        raise DataError("n_samples must be nonnegative")

    lo_t, hi_t, lo_c, hi_c = (np.maximum.accumulate(np.clip(
        np.asarray(est.estimate) + sign * Z_CRITICAL * np.asarray(est.se),
        0.0, 1.0)) for est in (est_t, est_c) for sign in (-1.0, 1.0))
    infeasible = np.flatnonzero(lo_t + lo_c > 1.0 + _SUM_SLACK)
    if infeasible.size:
        j = int(infeasible[0])
        raise InfeasibleBandsError(
            f"incidence bands force a sum above one at t={grid[j]:g}; no "
            "admissible trajectory exists")

    ct_central, cc_central, n_scaled = _sanitize_cif_pair(
        np.asarray(est_t.estimate), np.asarray(est_c.estimate))
    corners = [_sanitize_cif_pair(band_t, band_c)
               for band_t in (lo_t, hi_t) for band_c in (lo_c, hi_c)]
    draws_t, draws_c, attempts = _draw_trajectories(
        lo_t, hi_t, lo_c, hi_c, n_samples, seed)
    accepted = len(draws_t)
    if accepted < n_samples:
        raise InfeasibleBandsError(
            f"only {accepted} of {n_samples} sampled incidence "
            f"trajectories were admissible after {attempts} attempts")
    # per spec, one recursion over the central pair, corners and samples
    members_t = np.vstack([ct_central, *(c[0] for c in corners), draws_t])
    members_c = np.vstack([cc_central, *(c[1] for c in corners), draws_c])
    cif_t = StepCurve(grid, ct_central, value_at_zero=0.0, kind="cif")
    cif_c = StepCurve(grid, cc_central, value_at_zero=0.0, kind="cif")
    results = []
    for spec in specs:
        rows = _bounded_rows(members_t, members_c, spec)
        state = _bounded_state(grid, cif_t, cif_c, spec, rows)
        results.append(Route2Result(
            grid=grid, central=state.s_hat, env_lo=rows[4].min(axis=0),
            env_hi=rows[4].max(axis=0), tau=spec.kendall_tau,
            family=spec.family, state=state, cif_t_estimate=est_t,
            cif_c_estimate=est_c, diagnostics={
                "n_samples_accepted": accepted,
                "n_sample_attempts": attempts,
                "n_central_scaled_points": n_scaled,
                "n_corner_scaled_points": sum(c[2] for c in corners),
            }))
    return results
