"""Peak resident memory of `fairsurv decompose` on continuous event times.

Draws `n` rows from the bundled example spec (as `fairsurv simulate`
does), adds U(0, 1) jitter to every time `m` so that almost no two times
tie, and runs `fairsurv decompose` (doubly robust, default grid) on it in
a child process.  The default grid takes every distinct event time up to
the 95th percentile, so it grows with `n` (about 1.9k points at n = 5k).
The child's peak RSS comes from `os.wait4` in a small launcher process
that spawns it: `ru_maxrss` carries over the memory of the process a
child execs from, so a child spawned straight from the probe would read
at least the probe's own high-water mark (about 75 MB after building
the 200k-row `integer` cohort).

With `continuous-z`, the confounder also gets U(0, 1) jitter, so almost
every row is its own covariate cell and no confounder value of one fold
recurs in the other: nu(z) falls back to the pooled average over every
row of the other fold.  That case fits with the tree and logistic
learners, since the stratified learner refuses continuous covariates.

With `rmst`, the run decomposes restricted mean survival times
(`--functional rmst`): every row block's influence values are mapped to
running restricted means along the whole grid.

With `short-grid`, the `continuous-z` cohort is decomposed on a
5-point grid (`--grid-points 5`).  The predicted curves still have as
many points as the forest's union of leaf jump times, so this case
checks that their memory is bounded by that length, not by the grid's.

With `plugin`, the `continuous-z` cohort is decomposed by the plug-in
estimator (`--estimator plugin`, same learners).  Its working memory is
one curve per query, whatever the number of covariate cells; keeping
each cell's curves of both groups would take about 600 MB at n = 10k.

With `plugin-rmst`, the `plugin` case decomposes restricted mean
survival times (`--functional rmst`).  Each prediction block's
restricted means are summed over the union of the forest's grid and the
evaluation grid, so its arrays are longer than the `plugin` case's.

With `ic`, the example spec's discrete times are kept (no jitter) and
the cohort is decomposed in `ic` mode under three taus with 2,000
envelope samples per query (`--mode ic --tau 0.2,0.5,0.8
--envelope-samples 2000`).  Each query's envelope is drawn once, in
batches of at most 2,000 attempts; drawing the whole 10^6-attempt cap
at once would take about 290 MB for the uniforms alone.

With `integer`, the example spec's discrete times are kept (no jitter)
and the cohort is decomposed as in the default case.  Its CSV body holds
integers alone, which the cohort reader parses in one numpy pass, and
its rows repeat: a few hundred (fold, row class) pairs at any n.

With `decimal`, the example spec's times get U(0, 1) jitter rounded to
one decimal place, and the cohort is decomposed as in the default case.
Its CSV body holds integers and one-decimal times, which the cohort
reader parses in one numpy pass, as it does the `integer` case's.

With `ic-plugin`, the jittered cohort of the default case is decomposed
in `ic` mode by the plug-in estimator under three taus (`--mode ic
--estimator plugin --tau 0.2,0.5,0.8`).  Every (outcome arm, covariate
cell) latent curve spans the whole default grid; the recursions run over
blocks of cells, so their working set does not grow with the number of
cells.

With `ic-plugin-continuous-z`, the `continuous-z` cohort goes through
the `ic-plugin` run, with the logistic propensity learner (Route I fits
no survival model).  Almost every row is a covariate cell of its own,
so about n cells each read a latent curve per arm, most of them through
the arm's fallback row set.

    PYTHONPATH=src python tests/rss_probe.py N LIMIT_MB [CASE]

with CASE one of continuous-z, short-grid, rmst, plugin, plugin-rmst,
ic, ic-plugin, ic-plugin-continuous-z, integer and decimal, prints the run's
figures as JSON and exits 1 unless the child succeeded with a peak RSS
below LIMIT_MB.  The child runs the `fairsurv` package that the probe
itself imports (the first one on its PYTHONPATH), so the cohort and the
run under test come from the same code.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile
from importlib import resources
from pathlib import Path

import numpy as np

import fairsurv
from fairsurv.scm import Cohort, SCMSpec, sample_cohort

# the directory that holds the imported package, for the child's path
SRC = Path(fairsurv.__file__).resolve().parent.parent
CLI_CODE = ("import sys; from fairsurv.cli import main; "
            "sys.exit(main(sys.argv[1:]))")
# runs its arguments as a child and prints [exit code, wall s, peak KB]
LAUNCHER_CODE = (
    "import json, os, subprocess, sys, time; start = time.perf_counter(); "
    "proc = subprocess.Popen(sys.argv[1:], stdout=subprocess.DEVNULL); "
    "_, status, usage = os.wait4(proc.pid, 0); "
    "proc.returncode = os.waitstatus_to_exitcode(status); "
    "print(json.dumps([proc.returncode, time.perf_counter() - start, "
    "usage.ru_maxrss]))")


LOGISTIC_PROPENSITY = ("--propensity-learner", "logistic_irls")
CONTINUOUS_Z_LEARNERS = ("--learner", "logrank_tree_ensemble",
                         *LOGISTIC_PROPENSITY)
IC_ARGS = ("--mode", "ic", "--tau", "0.2,0.5,0.8",
           "--envelope-samples", "2000")
IC_PLUGIN_ARGS = ("--mode", "ic", "--estimator", "plugin",
                  "--tau", "0.2,0.5,0.8")


def probe_cohort_csv(n, seed=0, continuous_z=False, continuous_m=True,
                     time_decimals=None):
    spec = SCMSpec.from_json((resources.files("fairsurv.data")
                              / "example_spec.json").read_text())
    cohort = sample_cohort(spec, n, seed=seed)
    rng = np.random.default_rng(seed)
    m = cohort.m + rng.uniform(0.0, 1.0, n) if continuous_m else cohort.m
    if time_decimals is not None:
        m = np.round(m, time_decimals)
    z = cohort.z_items
    if continuous_z:
        z = np.round(np.asarray(z, dtype=float) + rng.uniform(0.0, 1.0, n),
                     6).tolist()
    return Cohort(cohort.x, z, cohort.w_items, m, cohort.delta).to_csv()


def decompose_peak_rss(n, workdir, seed=0, continuous_z=False, rmst=False,
                       plugin=False, grid_points=None, ic=False,
                       ic_plugin=False, integer=False, decimal=False):
    """Run `decompose` on an n-row cohort under `workdir`, jittered
    unless `ic` or `integer`, with times of one decimal place if
    `decimal`; returns
    {"exit_code", "grid_points", "wall_s", "peak_rss_mb", "stderr"}."""
    workdir = Path(workdir)
    cohort = workdir / "cohort.csv"
    cohort.write_text(probe_cohort_csv(n, seed, continuous_z,
                                       continuous_m=not (ic or integer),
                                       time_decimals=1 if decimal else None))
    learners = CONTINUOUS_Z_LEARNERS if continuous_z else ()
    if ic:
        learners += IC_ARGS
    if ic_plugin:  # Route I fits no survival model
        learners = (LOGISTIC_PROPENSITY if continuous_z else ()) \
            + IC_PLUGIN_ARGS
    if rmst:
        learners += ("--functional", "rmst")
    if plugin:
        learners += ("--estimator", "plugin")
    if grid_points is not None:
        learners += ("--grid-points", str(grid_points))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in [env.get("PYTHONPATH")] if p])
    proc = subprocess.run(
        [sys.executable, "-c", LAUNCHER_CODE, sys.executable, "-c",
         CLI_CODE, "decompose", *learners, "--cohort", str(cohort),
         "--outdir", str(workdir / "out")],
        env=env, capture_output=True, text=True, errors="replace")
    exit_code, wall, peak_kb = json.loads(proc.stdout)
    grid_points = None
    diagnostics = workdir / "out" / "diagnostics.json"
    if diagnostics.is_file():
        grid_points = json.loads(diagnostics.read_text()).get("grid_points")
    return {"exit_code": exit_code, "grid_points": grid_points,
            "wall_s": round(wall, 2),
            "peak_rss_mb": round(peak_kb / 1024.0, 1),
            "stderr": proc.stderr[-2000:]}


def main(argv):
    n, limit_mb = int(argv[0]), float(argv[1])
    case = argv[2] if argv[2:] else None
    if argv[3:] or case not in (None, "continuous-z", "short-grid", "rmst",
                                "plugin", "plugin-rmst", "ic", "ic-plugin",
                                "ic-plugin-continuous-z", "integer",
                                "decimal"):
        sys.exit(f"unknown case {' '.join(argv[2:])!r}; the cases are "
                 "continuous-z, short-grid, rmst, plugin, plugin-rmst, ic, "
                 "ic-plugin, ic-plugin-continuous-z, integer and decimal")
    with tempfile.TemporaryDirectory() as workdir:
        result = decompose_peak_rss(
            n, workdir,
            continuous_z=case in ("continuous-z", "short-grid", "plugin",
                                  "plugin-rmst", "ic-plugin-continuous-z"),
            rmst=case in ("rmst", "plugin-rmst"),
            plugin=case in ("plugin", "plugin-rmst"),
            grid_points=5 if case == "short-grid" else None,
            ic=case == "ic",
            ic_plugin=case in ("ic-plugin", "ic-plugin-continuous-z"),
            integer=case == "integer", decimal=case == "decimal")
    print(json.dumps({"n": n, "limit_mb": limit_mb, "case": case,
                      **result}))
    ok = result["exit_code"] == 0 and result["peak_rss_mb"] < limit_mb
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
