"""Seeded input generators for the benchmark workloads.

The benchmark makes its own cohorts instead of calling ``fairsurv
simulate``, so the inputs a commit receives do not depend on the code
under test: the same seed gives byte-identical CSV files on every commit.
Each generator returns the CSV text in the layout ``Cohort.from_csv``
reads (columns ``x``, ``z``/``z1..``, ``w``, ``m``, ``delta``).
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

SPEC_DIR = Path(__file__).resolve().parent / "specs"


def _law(table):
    """(times, probs) of one stratum law, times ascending, inf allowed."""
    pairs = sorted((float(t), float(p)) for t, p in table.items())
    return (np.array([t for t, _ in pairs]), np.array([p for _, p in pairs]))


def _draw(times, probs, u):
    """Inverse-CDF draw from a discrete law for uniforms ``u``."""
    idx = np.searchsorted(np.cumsum(probs), u, side="right")
    return times[np.minimum(idx, times.size - 1)]


def spec_cohort_csv(spec_name, n, seed):
    """Cohort CSV of ``n`` rows sampled from a tabulated spec JSON.

    The spec uses the package's JSON layout (``p_xz``, ``p_w_given_xz``,
    ``event_law`` or ``event_laws``, ``censor_law``, all keyed by
    ``x|z|w``), with independent censoring.  Ties between an event and
    censoring go to the event, ties among causes to the lowest cause.
    """
    spec = json.loads((SPEC_DIR / f"{spec_name}.json").read_text())
    if spec.get("coupling", {}).get("family", "independence") != "independence":
        raise ValueError("the benchmark sampler covers independent censoring")
    event_tables = spec.get("event_laws") or [spec["event_law"]]
    rng = np.random.default_rng(seed)

    xz_keys = sorted(spec["p_xz"])
    xz_probs = np.array([spec["p_xz"][k] for k in xz_keys])
    xz_idx = rng.choice(len(xz_keys), size=n, p=xz_probs / xz_probs.sum())
    x = np.array([int(k.split("|")[0]) for k in xz_keys])[xz_idx]
    z = np.array([int(k.split("|")[1]) for k in xz_keys])[xz_idx]
    w = np.empty(n, dtype=int)
    for i, key in enumerate(xz_keys):
        rows = np.flatnonzero(xz_idx == i)
        tab = spec["p_w_given_xz"][key]
        values = sorted(tab, key=int)
        probs = np.array([tab[v] for v in values])
        w[rows] = np.array([int(v) for v in values])[
            rng.choice(len(values), size=rows.size, p=probs / probs.sum())]

    u_event = rng.random((n, len(event_tables)))
    u_censor = rng.random(n)
    t_event = np.empty((n, len(event_tables)))
    c_time = np.empty(n)
    for stratum in event_tables[0]:
        xs, zs, ws = (int(v) for v in stratum.split("|"))
        rows = np.flatnonzero((x == xs) & (z == zs) & (w == ws))
        for k, table in enumerate(event_tables):
            t_event[rows, k] = _draw(*_law(table[stratum]), u_event[rows, k])
        c_time[rows] = _draw(*_law(spec["censor_law"][stratum]), u_censor[rows])

    t_min = t_event.min(axis=1)
    delta = np.where(t_min <= c_time, t_event.argmin(axis=1) + 1, 0)
    m = np.minimum(t_min, c_time)
    if not np.all(np.isfinite(m)):
        raise ValueError("spec leaves some rows without a finite time")
    lines = ["x,z,w,m,delta"]
    lines += [f"{a},{b},{c},{t:.12g},{d}"
              for a, b, c, t, d in zip(x.tolist(), z.tolist(), w.tolist(),
                                       m.tolist(), delta.tolist())]
    return "\n".join(lines) + "\n"


def continuous_cohort_csv(n, seed):
    """Cohort CSV with two continuous confounders and a binary mediator.

    Group membership, the mediator, the event hazard and the censoring
    hazard all depend on the confounders, so every row is its own
    covariate cell and the tree and logistic learners have signal to fit.
    Follow-up ends administratively at t = 12.
    """
    rng = np.random.default_rng(seed)
    z = rng.normal(size=(n, 2))

    def bernoulli(logit):
        return (rng.random(n) < 1.0 / (1.0 + np.exp(-logit))).astype(int)

    x = bernoulli(0.3 + 0.6 * z[:, 0] - 0.4 * z[:, 1])
    w = bernoulli(-0.2 + 0.8 * x + 0.5 * z[:, 1])
    t = rng.exponential(1.0 / (0.08 * np.exp(0.5 * x + 0.4 * w + 0.3 * z[:, 0])))
    c = np.minimum(rng.exponential(1.0 / (0.05 * np.exp(0.2 * z[:, 1]))), 12.0)
    m = np.round(np.minimum(t, c), 4)
    delta = (t <= c).astype(int)
    lines = ["x,z1,z2,w,m,delta"]
    lines += [f"{a},{b:.6f},{e:.6f},{c_},{t_:.12g},{d}"
              for a, (b, e), c_, t_, d in zip(x.tolist(), z.tolist(), w.tolist(),
                                             m.tolist(), delta.tolist())]
    return "\n".join(lines) + "\n"
