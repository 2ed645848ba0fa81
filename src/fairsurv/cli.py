"""Command-line front end: simulate cohorts, estimate group curves, and
run pathway decompositions, emitting plot-ready tables.

Three subcommands cover the pipeline:

* ``simulate`` — draw a cohort from a generative spec (JSON) and write it
  as CSV together with an echo of the spec.
* ``curves`` — per-group outcome curves plus their pointwise difference,
  in long format (``t,series,value``).
* ``decompose`` — total-variation pathway decomposition: four potential
  outcomes reduced to direct/indirect/spurious/total effect curves, per
  cause under competing risks, or per dependence strength tau under
  informative censoring (with sensitivity envelopes).

Every output file starts with a comment line carrying the artifact
version and a hash of the resolved configuration; identical
configuration and seed produce byte-identical files.  A JSON file passed
via ``--config`` overrides command-line flags.  Exit codes: 0 success,
2 usage, 3 data validation, 4 estimation failure.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
from importlib import resources
from pathlib import Path

import numpy as np

from . import __version__
from .cge import incidence_estimates, route1_conditional, \
    route2_population
from .copulas import CopulaSpec
from .decompose import _series, cr_functionals, decompose_cr
from .dr import FoldPlan, _check_cap
from .errors import DataError, EmptyCohortError, EstimationError
from .identify import _validate_grid, default_grid, fit_plugin_nuisances, \
    outcome_target, time_quantiles
from .nuisance import _check_epsilon, stratum_curves
from .queries import EFFECT_NAMES, Functional, PotentialOutcomeQuery, \
    effect_contrasts, role_queries, table_csv
from .scm import Cohort, SCMSpec, sample_cohort

_MODES = ("nic", "cr", "ic")
_ESTIMATORS = ("dr", "plugin")


# ---------------------------------------------------------------------------
# configuration plumbing
# ---------------------------------------------------------------------------

def _parse_float_list(text):
    try:
        values = [float(tok) for tok in str(text).split(",") if tok.strip()]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(
            f"not a comma-separated float list: {text!r}") from exc
    if not values:
        raise argparse.ArgumentTypeError("empty list")
    return values


def build_parser():
    parser = argparse.ArgumentParser(
        prog="fairsurv",
        description="Pathway decomposition of survival disparities.",
    )
    parser.add_argument("--version", action="version",
                        version=f"fairsurv {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="JSON file whose entries override flags")
        p.add_argument("--outdir", help="output directory "
                       "(default: $FAIRSURV_OUTDIR or the working directory)")
        p.add_argument("--seed", type=int, default=0)

    sim = sub.add_parser("simulate", help="draw a cohort from a spec")
    common(sim)
    sim.add_argument("--spec", required=True,
                     help="path to a spec JSON, or 'example' for the bundled one")
    sim.add_argument("--n", type=int, required=True, help="cohort size")

    def analysis(p):
        common(p)
        p.add_argument("--cohort", required=True, help="cohort CSV path")
        p.add_argument("--mode", choices=_MODES, default="nic")
        p.add_argument("--estimator", choices=_ESTIMATORS, default="dr")
        p.add_argument("--functional",
                       choices=("survival", "cif", "rmst",
                                "all_cause_survival", "cumulative_hazard"),
                       default="survival")
        p.add_argument("--cause", type=int, default=None)
        p.add_argument("--horizon", type=float, default=None)
        p.add_argument("--grid", type=_parse_float_list, default=None,
                       help="explicit comma-separated evaluation times")
        p.add_argument("--grid-points", type=int, default=None,
                       help="number of quantile-spaced evaluation times")
        p.add_argument("--n-causes", type=int, default=None,
                       help="number of competing causes in the cohort CSV")
        p.add_argument("--folds", type=int, default=2)
        p.add_argument("--epsilon", type=float, default=0.01)
        p.add_argument("--cap", type=float, default=50.0)
        p.add_argument("--learner", default="stratified")
        p.add_argument("--propensity-learner", default="frequency_table",
                       dest="propensity_learner")
        p.add_argument("--tau", type=_parse_float_list, default=None,
                       help="comma-separated Kendall tau values (ic mode)")
        p.add_argument("--family", default="clayton",
                       choices=("independence", "clayton", "gumbel", "frank"))
        p.add_argument("--envelope-samples", type=int, default=200,
                       dest="envelope_samples")

    dec = sub.add_parser("decompose", help="pathway decomposition tables")
    analysis(dec)
    dec.add_argument("--scale", choices=("difference", "ratio"),
                     default="difference")
    dec.add_argument("--x0", type=int, choices=(0, 1), default=0)
    dec.add_argument("--x1", type=int, choices=(0, 1), default=1)

    cur = sub.add_parser("curves", help="per-group outcome curves")
    analysis(cur)
    return parser


def _resolve_config(argv, parser):
    """Parse `argv`, then merge --config JSON over it; returns a plain dict.

    The config entries are appended to `argv` as flags and the whole is
    parsed again, so each entry goes through its flag's own conversion
    and checks (a list entry as a comma-separated value) and overrides
    the command line.
    """
    args = parser.parse_args(argv)
    if args.config:
        try:
            overrides = json.loads(
                Path(args.config).read_text(encoding="utf-8-sig"))
        except OSError as exc:
            parser.error(f"cannot read config file: {exc}")
        except UnicodeDecodeError as exc:
            parser.error(f"config file is not UTF-8 text: {exc}")
        except json.JSONDecodeError as exc:
            parser.error(f"config file is not valid JSON: {exc}")
        if not isinstance(overrides, dict):
            parser.error("config file must hold a JSON object")
        flags = []
        for key, value in overrides.items():
            slot = key.replace("-", "_")
            if slot not in vars(args) or slot in ("command", "config"):
                parser.error(f"unknown config entry {key!r}")
            if value is None:
                parser.error(f"config entry {key!r} is null")
            if isinstance(value, list):
                value = ",".join(map(str, value))
            flags.append(f"--{slot.replace('_', '-')}={value}")
        args = parser.parse_args([*argv, *flags])
    config = {k: v for k, v in vars(args).items() if k != "config"}
    _validate_config(config, parser)
    return config


def _validate_config(config, parser):
    if config["seed"] < 0:
        parser.error("--seed must be a nonnegative integer")
    command = config["command"]
    if command == "simulate":
        if config["n"] <= 0:
            parser.error("--n must be a positive integer")
        return
    mode = config["mode"]
    functional = config["functional"]
    if functional == "cif":
        if config.get("cause") is None:
            parser.error("the cif functional needs --cause")
    elif config.get("cause") is not None:
        parser.error("--cause only applies to the cif functional")
    if config.get("horizon") is not None and functional != "rmst":
        parser.error("--horizon only applies to the rmst functional")
    tau = config.get("tau")
    if mode == "ic":
        if not tau:
            parser.error("ic mode needs --tau with at least one value")
        if functional != "survival":
            parser.error("ic mode reconstructs survival curves only")
        if len(set(tau)) != len(tau) \
                or len({_tau_tag(t) for t in tau}) != len(tau):
            parser.error("--tau values must be distinct, also as %g tags")
        for t in tau:
            try:
                CopulaSpec(config["family"], t)
            except DataError as exc:
                parser.error(f"--tau {_tau_tag(t)}: {exc}")
    elif tau:
        parser.error("--tau only applies to ic mode")
    if mode == "cr" and functional != "survival":
        parser.error("cr mode reports cause-specific incidence and "
                     "all-cause survival; --functional does not apply")
    if config["envelope_samples"] < 0:
        parser.error("--envelope-samples must be nonnegative")
    if config["folds"] < 2:
        parser.error("--folds must be at least 2")
    if config.get("grid") is not None and config.get("grid_points") is not None:
        parser.error("--grid and --grid-points are mutually exclusive")
    if config.get("grid_points") is not None and config["grid_points"] <= 0:
        parser.error("--grid-points must be a positive integer")
    if config.get("n_causes") is not None and config["n_causes"] <= 0:
        parser.error("--n-causes must be a positive integer")
    if command == "curves" and mode == "nic" \
            and functional not in ("survival", "cif"):
        parser.error("curves reports survival or cif functionals only")
    if command == "decompose":
        if config.get("scale") == "ratio" and mode != "nic":
            parser.error("--scale ratio is only available in nic mode")
        if config["x0"] == config["x1"]:
            parser.error("--x0 and --x1 must name different groups")


def _json_default(value):
    if isinstance(value, np.integer):
        return int(value)
    if isinstance(value, np.floating):
        return float(value)
    if isinstance(value, np.ndarray):
        return [_json_default(v) for v in value]
    return str(value)


def _config_hash(config):
    """Stable short hash of everything that affects output content."""
    payload = {k: v for k, v in sorted(config.items()) if k != "outdir"}
    text = json.dumps(payload, sort_keys=True, default=_json_default)
    return hashlib.sha256(text.encode()).hexdigest()[:12]


def _header(config):
    return (f"fairsurv {__version__} config sha256:{_config_hash(config)} "
            f"seed={config.get('seed', 0)}")


def _outdir(config):
    target = config.get("outdir") or os.environ.get("FAIRSURV_OUTDIR") or "."
    path = Path(target)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _flush(writes):
    """Single writer: every command stages (path, text) pairs and all
    files land here, after the computation has fully succeeded."""
    for path, text in writes:
        with open(path, "w", newline="") as fh:
            fh.write(text)
    return [path for path, _ in writes]


def _json_payload(config, body):
    return json.dumps(
        {"artifact_version": __version__,
         "config_hash": _config_hash(config), **body},
        sort_keys=True, indent=2, default=_json_default) + "\n"


# ---------------------------------------------------------------------------
# shared analysis helpers
# ---------------------------------------------------------------------------

def _load_cohort(config):
    path = Path(config["cohort"])
    try:
        text = path.read_text(encoding="utf-8-sig")
    except OSError as exc:
        raise DataError(f"cannot read cohort CSV: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise DataError(f"cohort CSV is not UTF-8 text: {exc}") from exc
    return Cohort.from_csv(text, n_causes=config.get("n_causes"))


def _resolve_grid(config, cohort):
    if config.get("grid") is not None:
        grid = np.asarray(sorted(set(config["grid"])), dtype=float)
    elif config.get("grid_points") is not None:
        qs = np.linspace(0.05, 0.95, int(config["grid_points"]))
        # with an inverse, np.unique does not load numpy.ma
        grid = np.unique(time_quantiles(cohort, qs), return_inverse=True)[0]
        grid = grid[grid > 0.0]
    elif config.get("mode") == "ic":
        # reconstruction treats censoring as a second event type, so the
        # grid must resolve censoring jumps as well as event jumps
        grid = default_grid(cohort.censoring_as_cause())
    else:
        grid = default_grid(cohort)
    return _validate_grid(grid)


def _functional(config):
    return Functional(config["functional"], cause=config.get("cause"),
                      horizon=config.get("horizon"))


def _dr_config(config):
    """`FoldPlan` keywords, whose learner mapping both estimators read."""
    learners = {"outcome_learner": config["learner"],
                "censoring_learner": config["learner"],
                "propensity_learner": config["propensity_learner"]}
    return {"n_folds": config["folds"], "seed": config["seed"],
            "epsilon": config["epsilon"], "cap": config["cap"],
            "learners": learners}


def _tau_tag(tau):
    return f"{tau:g}"


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------

def _load_spec_text(spec_arg):
    source = (resources.files("fairsurv.data") / "example_spec.json"
              if spec_arg == "example" else Path(spec_arg))
    try:
        return source.read_text(encoding="utf-8-sig")
    except OSError as exc:
        raise DataError(f"cannot read spec file: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise DataError(f"spec file is not UTF-8 text: {exc}") from exc


def cmd_simulate(config):
    spec = SCMSpec.from_json(_load_spec_text(config["spec"]))
    cohort = sample_cohort(spec, config["n"], seed=config["seed"])
    outdir = _outdir(config)
    echo = json.loads(spec.to_json())
    return _flush([
        (outdir / "cohort.csv", cohort.to_csv(header_comment=_header(config))),
        (outdir / "spec.json", _json_payload(config, echo)),
    ])


# ---------------------------------------------------------------------------
# curves
# ---------------------------------------------------------------------------

def _group_blocks(grid, suffix, c0, c1):
    """`curves.csv` blocks for the two groups' curves and their contrast."""
    return [[grid, f"x0{suffix}", c0], [grid, f"x1{suffix}", c1],
            [grid, f"tv{suffix}", c1 - c0]]


def cmd_curves(config):
    cohort = _load_cohort(config)
    grid = _resolve_grid(config, cohort)
    mode = config["mode"]
    blocks = []
    if mode == "ic":
        queries = [PotentialOutcomeQuery.observational(g) for g in (0, 1)]
        for tau, curves in zip(config["tau"], _ic_curves(
                config, cohort, grid, queries)[0]):
            blocks += _group_blocks(grid, f":tau{_tau_tag(tau)}",
                                    *(curves[q][0] for q in queries))
    else:
        if mode == "cr":
            tagged = [(f":cause{f.cause}" if f.kind == "cif"
                       else ":allcause", f) for f in cr_functionals(cohort)]
        else:
            tagged = [("", _functional(config))]
        for suffix, functional in tagged:
            (_, first, curves), = stratum_curves(
                cohort, outcome_target(functional), ["x"])
            by_group = dict(zip(cohort.x[first].tolist(), curves))
            if len(by_group) < 2:
                raise EmptyCohortError("curves needs rows in both groups")
            blocks += _group_blocks(grid, suffix, *(
                by_group[g].evaluate(grid) for g in (0, 1)))
    outdir = _outdir(config)
    return _flush([(outdir / "curves.csv",
                    table_csv("t,series,value", blocks, _header(config)))])


# ---------------------------------------------------------------------------
# decompose
# ---------------------------------------------------------------------------

def _ic_curves(config, cohort, grid, queries):
    """Latent survival of each query under every --tau value.

    Returns one {query: (central, env_lo, env_hi)} dict per tau, and the
    envelope counts of each query.  The plugin route fits only the
    propensities (all the conditional route reads), makes one call for
    every query and tau and has no envelope: its bounds and counts are
    None.  The dr route estimates a query's event and censoring incidence
    once, over one fold plan on the censoring-recoded cohort, and draws
    its envelope once for every tau.
    """
    specs = [CopulaSpec(config["family"], tau) for tau in config["tau"]]
    per_tau = [{} for _ in specs]
    fit_config = _dr_config(config)
    if config["estimator"] == "plugin":
        nuisances = fit_plugin_nuisances(
            cohort, None, epsilon=config["epsilon"], **fit_config["learners"])
        for curves, result in zip(per_tau, route1_conditional(
                cohort, specs, nuisances, queries, grid)):
            for q in queries:
                curves[q] = (result[q].values, None, None)
        return per_tau, None
    plan = FoldPlan(cohort.censoring_as_cause(), **fit_config)
    counts = {}
    for q in queries:
        results = route2_population(
            incidence_estimates(plan, q, grid), specs,
            n_samples=config["envelope_samples"], seed=config["seed"])
        for curves, result in zip(per_tau, results):
            curves[q] = (result.central, result.env_lo, result.env_hi)
        counts[str(q.as_tuple())] = results[0].diagnostics
    return per_tau, counts


def _envelope_difference(pos, neg):
    """Contrast of two (central, env_lo, env_hi) triples.

    Interval arithmetic: every pair of admissible trajectories inside the
    two envelopes yields a difference inside these bounds, so the effect
    band is conservative but sound.  Without envelopes the bounds are None.
    """
    (c_pos, lo_pos, hi_pos), (c_neg, lo_neg, hi_neg) = pos, neg
    if lo_pos is None:
        return c_pos - c_neg, None, None
    return c_pos - c_neg, lo_pos - hi_neg, hi_pos - lo_neg


def _floats(values):
    return None if values is None else [float(v) for v in values]


def cmd_decompose(config):
    cohort = _load_cohort(config)
    grid = _resolve_grid(config, cohort)
    outdir = _outdir(config)
    header = _header(config)
    writes = []
    diagnostics = {"command": "decompose", "mode": config["mode"],
                   "estimator": config["estimator"], "n_rows": cohort.n,
                   "grid_points": int(grid.size)}

    estimator = "doubly_robust" if config["estimator"] == "dr" else "plugin"
    if config["mode"] == "nic":
        (series,) = _series(
            cohort, [_functional(config)], config["x0"], config["x1"],
            estimator, grid, scale=config.get("scale"), **_dr_config(config))
        writes.append((outdir / "decomposition.csv",
                       series.to_csv(header_comment=header)))
        writes.append((outdir / "decomposition.json",
                       _json_payload(config, json.loads(series.to_json()))))
        diagnostics["series"] = series.diagnostics
    elif config["mode"] == "cr":
        series_list = decompose_cr(
            cohort, config["x0"], config["x1"], estimator=estimator,
            grid=grid, **_dr_config(config))
        tags = [str(s.functional.cause) if s.functional.kind == "cif"
                else "all" for s in series_list]
        blocks = [block for tag, s in zip(tags, series_list)
                  for block in s.blocks(tag)]
        writes.append((outdir / "decomposition.csv",
                       table_csv("t,cause,effect,estimate,se,lo,hi", blocks,
                                 header)))
        payload = {"series": {tag: json.loads(s.to_json())
                              for tag, s in zip(tags, series_list)}}
        writes.append((outdir / "decomposition.json",
                       _json_payload(config, payload)))
        diagnostics["causes"] = tags
    else:  # ic
        tau_list = config["tau"]
        x0, x1 = config["x0"], config["x1"]
        per_tau, counts = _ic_curves(config, cohort, grid,
                                     role_queries(x0, x1))
        blocks, payload = [], {}
        for tau, curves in zip(tau_list, per_tau):
            effects = effect_contrasts(curves, x0, x1, _envelope_difference)
            tag = _tau_tag(tau)
            blocks += [[grid, tag, name, *effects[name]]
                       for name in EFFECT_NAMES]
            payload[tag] = {
                name: dict(zip(("estimate", "lo", "hi"),
                               map(_floats, effects[name])))
                for name in EFFECT_NAMES}
            if effects["tv"][1] is not None:
                writes.append((outdir / f"envelope_tau{tag}.csv", table_csv(
                    "t,central,env_lo,env_hi,tau",
                    [[grid, *effects["tv"], tau]], header)))
        writes.append((outdir / "decomposition.csv",
                       table_csv("t,tau,effect,estimate,lo,hi", blocks,
                                 header)))
        writes.append((outdir / "decomposition.json",
                       _json_payload(config, {"grid": _floats(grid),
                                              "effects": payload})))
        diagnostics["tau"] = [float(t) for t in tau_list]
        if counts is not None:
            diagnostics["envelopes"] = counts

    writes.append((outdir / "diagnostics.json",
                   _json_payload(config, diagnostics)))
    return _flush(writes)


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def main(argv=None):
    parser = build_parser()
    try:
        config = _resolve_config(
            sys.argv[1:] if argv is None else list(argv), parser)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        if config["command"] == "simulate":
            paths = cmd_simulate(config)
        else:
            _check_cap(config["cap"])  # before the cohort is read
            _check_epsilon(config["epsilon"])
            paths = (cmd_curves if config["command"] == "curves"
                     else cmd_decompose)(config)
    except DataError as exc:
        print(f"fairsurv: data error: {exc}", file=sys.stderr)
        return 3
    except EstimationError as exc:
        print(f"fairsurv: estimation error: {exc}", file=sys.stderr)
        return 4
    for path in paths:
        print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
