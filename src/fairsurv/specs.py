"""Generative scenario of the library quick start, also used by tests.

A severely imbalanced two-group cohort: the focal group (x = 0) carries
4.2% of the population, events (times 1-8) are rare, below 10% of rows,
and censoring (times 0.5-8.5) is heavy, so inverse-weighting code paths
run at a realistic operating point.  `fairsurv simulate --spec example`
samples another model, `data/example_spec.json`: the same group mix but
its own mediator law, events on 10-90 and censoring on 15-95.
"""

from __future__ import annotations

from .scm import SCMSpec

EVENT_GRID = [float(k) for k in range(1, 9)]
CENSOR_GRID = [k + 0.5 for k in range(8)]
ADMIN_END = 8.5  # administrative end of follow-up


def _geometric(grid, hazard, tail):
    """Constant per-period hazard on `grid`; leftover mass at `tail`."""
    law, alive = {}, 1.0
    for t in grid:
        law[t] = alive * hazard
        alive *= 1.0 - hazard
    law[tail] = 1.0 - sum(law.values())
    return law


def bundled_scenario():
    """The quick-start scenario (see module docstring)."""
    p_xz = {(0, 0): 0.025, (0, 1): 0.017, (1, 0): 0.52, (1, 1): 0.438}
    p_w = {
        (x, z): {1: 0.25 + 0.35 * x + 0.15 * z, 0: 0.75 - 0.35 * x - 0.15 * z}
        for x in (0, 1)
        for z in (0, 1)
    }
    event_law = {
        (x, z, w): _geometric(
            EVENT_GRID, 0.022 - 0.008 * x + 0.006 * w + 0.004 * z, float("inf")
        )
        for x in (0, 1)
        for z in (0, 1)
        for w in (0, 1)
    }
    censor_law = {
        (x, z, w): _geometric(CENSOR_GRID, 0.16 + 0.02 * x + 0.01 * z, ADMIN_END)
        for x in (0, 1)
        for z in (0, 1)
        for w in (0, 1)
    }
    return SCMSpec(
        z_support=[0, 1],
        w_support=[0, 1],
        p_xz=p_xz,
        p_w_given_xz=p_w,
        event_laws=event_law,
        censor_law=censor_law,
    )
