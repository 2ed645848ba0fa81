"""End-to-end command-line runs: files, formats, exit codes, determinism."""

import csv
import json
import sys
import warnings
from importlib import resources

import numpy as np
import pytest

from fairsurv.cli import main
from fairsurv.dr import FoldPlan
from fairsurv.identify import default_grid, fit_plugin_nuisances, \
    plugin_po_many
from fairsurv.nuisance import fit_conditional_survival
from fairsurv.queries import Functional, _cell, role_queries
from fairsurv.scm import Cohort, SCMSpec, sample_cohort

from testkit import (
    brute_po,
    count_fits,
    make_cr_two_cause,
    make_ic_clayton,
    make_nic_balanced,
    make_no_censoring,
    make_symmetric_null,
    spec_of,
    stratum_curve,
)


def read_table(path):
    """Rows of a CSV output, header comment stripped; returns (header, rows)."""
    with open(path) as fh:
        rows = [r for r in csv.reader(fh) if r and not r[0].startswith("#")]
    return rows[0], rows[1:]


def first_line(path):
    with open(path) as fh:
        return fh.readline().rstrip("\n")


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("cli")


@pytest.fixture(scope="module")
def nc_cohort_csv(workdir):
    cohort = sample_cohort(spec_of(make_no_censoring()), 4000, seed=9)
    path = workdir / "nc.csv"
    path.write_text(cohort.to_csv())
    return path


@pytest.fixture(scope="module")
def ic_cohort_csv(workdir):
    cohort = sample_cohort(spec_of(make_ic_clayton(0.5)), 8000, seed=11)
    path = workdir / "ic.csv"
    path.write_text(cohort.to_csv())
    return path


@pytest.fixture(scope="module")
def cr_cohort_csv(workdir):
    cohort = sample_cohort(spec_of(make_cr_two_cause()), 6000, seed=3)
    path = workdir / "cr.csv"
    path.write_text(cohort.to_csv())
    return path


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------

def test_simulate_reruns_byte_identical(tmp_path):
    spec_text = (resources.files("fairsurv.data")
                 / "example_spec.json").read_text()
    spec_path = tmp_path / "s.json"
    spec_path.write_text(spec_text)
    args = ["simulate", "--spec", str(spec_path), "--n", "1000", "--seed", "7"]
    assert main(args + ["--outdir", str(tmp_path / "a")]) == 0
    assert main(args + ["--outdir", str(tmp_path / "b")]) == 0
    for name in ("cohort.csv", "spec.json"):
        assert (tmp_path / "a" / name).read_bytes() \
            == (tmp_path / "b" / name).read_bytes()


def test_simulate_rejects_nonpositive_n(tmp_path, capsys):
    rc = main(["simulate", "--spec", "example", "--n", "0",
               "--outdir", str(tmp_path)])
    assert rc == 2
    assert not (tmp_path / "cohort.csv").exists()


def test_bundled_spec_minority_group_fraction(tmp_path):
    rc = main(["simulate", "--spec", "example", "--n", "20000",
               "--seed", "1", "--outdir", str(tmp_path)])
    assert rc == 0
    _, rows = read_table(tmp_path / "cohort.csv")
    frac = np.mean([int(r[0]) == 0 for r in rows])
    assert abs(frac - 0.042) < 0.006


def test_simulate_spec_echo_reloadable(tmp_path):
    assert main(["simulate", "--spec", "example", "--n", "50",
                 "--outdir", str(tmp_path)]) == 0
    echo = json.loads((tmp_path / "spec.json").read_text())
    assert echo["artifact_version"]
    assert len(echo["config_hash"]) == 12
    spec = SCMSpec.from_json((tmp_path / "spec.json").read_text())
    cohort = sample_cohort(spec, 50, seed=0)
    assert cohort.n == 50


# ---------------------------------------------------------------------------
# curves
# ---------------------------------------------------------------------------

def series_of(path):
    _, rows = read_table(path)
    out = {}
    for t, name, v in rows:
        out.setdefault(name, []).append((float(t), float(v)))
    return out


def test_curves_uncensored_equal_empirical_survival(nc_cohort_csv, tmp_path):
    assert main(["curves", "--cohort", str(nc_cohort_csv),
                 "--outdir", str(tmp_path)]) == 0
    cohort = Cohort.from_csv(nc_cohort_csv.read_text())
    series = series_of(tmp_path / "curves.csv")
    for g, name in ((0, "x0"), (1, "x1")):
        mg = cohort.m[cohort.x == g]
        for t, v in series[name]:
            assert v == pytest.approx(np.mean(mg > t), abs=1e-12)


def test_curves_tv_rows_are_the_difference(nc_cohort_csv, tmp_path):
    assert main(["curves", "--cohort", str(nc_cohort_csv),
                 "--outdir", str(tmp_path)]) == 0
    series = series_of(tmp_path / "curves.csv")
    x0 = np.array([v for _, v in series["x0"]])
    x1 = np.array([v for _, v in series["x1"]])
    tv = np.array([v for _, v in series["tv"]])
    # the file carries 12 significant digits, so equality holds to ~4e-12
    assert np.max(np.abs(tv - (x1 - x0))) < 4e-12


def test_curves_match_enumeration_oracle(tmp_path):
    raw = make_no_censoring()
    cohort = sample_cohort(spec_of(raw), 100_000, seed=23)
    path = tmp_path / "big.csv"
    path.write_text(cohort.to_csv())
    assert main(["curves", "--cohort", str(path),
                 "--outdir", str(tmp_path)]) == 0
    series = series_of(tmp_path / "curves.csv")
    sup = 0.0
    for g, name in ((0, "x0"), (1, "x1")):
        for t, v in series[name]:
            sup = max(sup, abs(v - brute_po(raw, g, g, g, t)))
    assert sup <= 0.01


def test_curves_cr_mode_emits_per_cause_series(cr_cohort_csv, tmp_path):
    assert main(["curves", "--cohort", str(cr_cohort_csv), "--mode", "cr",
                 "--outdir", str(tmp_path)]) == 0
    series = series_of(tmp_path / "curves.csv")
    assert set(series) == {
        "x0:cause1", "x1:cause1", "tv:cause1",
        "x0:cause2", "x1:cause2", "tv:cause2",
        "x0:allcause", "x1:allcause", "tv:allcause",
    }
    # incidence curves for both causes plus all-cause survival add to one
    for name in ("x0", "x1"):
        total = (np.array([v for _, v in series[f"{name}:cause1"]])
                 + np.array([v for _, v in series[f"{name}:cause2"]])
                 + np.array([v for _, v in series[f"{name}:allcause"]]))
        assert np.max(np.abs(total - 1.0)) < 4e-12


def test_curves_ic_mode_emits_per_tau_series(ic_cohort_csv, tmp_path):
    assert main(["curves", "--cohort", str(ic_cohort_csv), "--mode", "ic",
                 "--tau", "0.2,0.6", "--estimator", "plugin",
                 "--grid", "1,2,3", "--outdir", str(tmp_path)]) == 0
    series = series_of(tmp_path / "curves.csv")
    assert set(series) == {
        "x0:tau0.2", "x1:tau0.2", "tv:tau0.2",
        "x0:tau0.6", "x1:tau0.6", "tv:tau0.6",
    }
    # stronger assumed dependence moves the reconstruction
    a = np.array([v for _, v in series["x0:tau0.2"]])
    b = np.array([v for _, v in series["x0:tau0.6"]])
    assert np.max(np.abs(a - b)) > 1e-4


def _jittered_cr_cohort(n, seed):
    """A two-cause cohort whose times are continuous: the cr example's
    times plus a jitter below 0.01, so ties are rare."""
    base = sample_cohort(spec_of(make_cr_two_cause()), n, seed=seed)
    jitter = np.random.default_rng(seed).random(n) * 0.01
    return Cohort(base.x, base.z_items, base.w_items, base.m + jitter,
                  base.delta, n_causes=2)


@pytest.mark.parametrize("args, series", [
    ([], {"": "event"}),
    (["--functional", "cif", "--cause", "2"], {"": 2}),
    (["--mode", "cr"], {":cause1": 1, ":cause2": 2, ":allcause": "event"}),
])
def test_curves_equal_the_per_group_estimators_bit_for_bit(tmp_path, args,
                                                           series):
    # each group's curve from the grouped product-limit pass has the bits
    # of kaplan_meier / aalen_johansen_cif on that group's rows
    cohort = _jittered_cr_cohort(1200, 8)
    path = tmp_path / "c.csv"
    path.write_text(cohort.to_csv())
    cohort = Cohort.from_csv(path.read_text())
    assert main(["curves", "--cohort", str(path), *args,
                 "--outdir", str(tmp_path)]) == 0
    _, rows = read_table(tmp_path / "curves.csv")
    grid = default_grid(cohort)
    want = []
    for suffix, target in series.items():
        curves = [stratum_curve(cohort.m[cohort.x == g],
                                cohort.delta[cohort.x == g], target,
                                cohort.n_causes).evaluate(grid)
                  for g in (0, 1)]
        for name, values in zip(("x0", "x1", "tv"),
                                (*curves, curves[1] - curves[0])):
            want += [[_cell(t), name + suffix, _cell(v)]
                     for t, v in zip(grid, values)]
    assert rows == want


def _float_sorts(monkeypatch):
    """Record (function, calling module, dtype kind) of every np.argsort
    and np.unique call a fairsurv module makes from now on."""
    calls = []
    for name in ("argsort", "unique"):
        def record(a, *args, _name=name, _original=getattr(np, name),
                   **kwargs):
            caller = sys._getframe(1).f_globals.get("__name__", "")
            if caller.startswith("fairsurv"):
                calls.append((_name, caller, np.asarray(a).dtype.kind))
            return _original(a, *args, **kwargs)
        monkeypatch.setattr(np, name, record)
    return calls


def test_fits_grids_and_curves_sort_no_float_times(tmp_path, monkeypatch):
    # the cohort codes its times once, at construction; a fold
    # complement's stratified fit, the default grid and the curves command
    # sort its integer codes, never the float times
    cohort = _jittered_cr_cohort(1500, 5)
    path = tmp_path / "c.csv"
    path.write_text(cohort.to_csv())
    complement = cohort.subset(FoldPlan(cohort, seed=3).fold_ids != 0)
    calls = _float_sorts(monkeypatch)
    for target in ("event", "censoring", 1, 2):
        fit_conditional_survival(complement, target=target)
    assert default_grid(complement).size > 100
    for args in ([], ["--functional", "cif", "--cause", "1"],
                 ["--mode", "cr"]):
        assert main(["curves", "--cohort", str(path), *args,
                     "--outdir", str(tmp_path / "out")]) == 0
    floats = [call for call in calls
              if call[2] == "f" and call[1] != "fairsurv.scm"]
    assert floats == []
    assert ("argsort", "fairsurv.nuisance", "u") in calls


@pytest.mark.parametrize("command", ["curves", "decompose"])
@pytest.mark.parametrize("mode", ["nic", "cr"])
@pytest.mark.parametrize("grid", ["nan", "inf", "1,nan", "-1,2"])
def test_grid_that_is_not_finite_and_nonnegative_is_exit_3(
        cr_cohort_csv, tmp_path, capsys, command, mode, grid):
    out = tmp_path / "out"
    assert main([command, "--cohort", str(cr_cohort_csv), "--mode", mode,
                 f"--grid={grid}", "--outdir", str(out)]) == 3
    assert "grid points must be finite and nonnegative" \
        in capsys.readouterr().err
    assert not out.exists() or not list(out.iterdir())


@pytest.mark.parametrize("command", ["curves", "decompose"])
def test_quantile_grid_with_no_positive_point_is_exit_3(tmp_path, capsys,
                                                        command):
    path = tmp_path / "zeros.csv"
    path.write_text("x,z,w,m,delta\n" + "".join(
        f"{i % 2},0,0,0,{i % 3 > 0:d}\n" for i in range(40)))
    out = tmp_path / "out"
    assert main([command, "--cohort", str(path), "--grid-points", "3",
                 "--outdir", str(out)]) == 3
    assert "grid must be a nonempty 1-d array" in capsys.readouterr().err
    assert not out.exists() or not list(out.iterdir())


@pytest.mark.parametrize("args, message", [
    (["--functional", "cif", "--cause", "3"],
     "cause label exceeds the cohort's cause count"),
    (["--mode", "cr"], "needs at least two causes"),
])
def test_curves_cause_beyond_the_cohort_is_exit_3(nc_cohort_csv, tmp_path,
                                                  capsys, args, message):
    assert main(["curves", "--cohort", str(nc_cohort_csv), *args,
                 "--outdir", str(tmp_path)]) == 3
    assert message in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


def test_curves_on_one_group_is_exit_3(tmp_path, capsys):
    path = tmp_path / "one_group.csv"
    path.write_text("x,z,w,m,delta\n" + "".join(
        f"1,0,0,{1 + i % 4},1\n" for i in range(20)))
    out = tmp_path / "out"
    assert main(["curves", "--cohort", str(path), "--outdir", str(out)]) == 3
    assert "curves needs rows in both groups" in capsys.readouterr().err
    assert not out.exists()


# ---------------------------------------------------------------------------
# decompose
# ---------------------------------------------------------------------------

def decomposition_rows(path):
    header, rows = read_table(path)
    return header, rows


def test_symmetric_cohort_effects_within_two_se(tmp_path):
    cohort = sample_cohort(spec_of(make_symmetric_null()), 20_000, seed=0)
    path = tmp_path / "sym.csv"
    path.write_text(cohort.to_csv())
    assert main(["decompose", "--cohort", str(path), "--estimator", "dr",
                 "--outdir", str(tmp_path)]) == 0
    _, rows = decomposition_rows(tmp_path / "decomposition.csv")
    assert rows
    for t, effect, est, se, lo, hi in rows:
        assert abs(float(est)) <= 2.0 * float(se)


def test_plugin_and_dr_tv_curves_agree(tmp_path):
    cohort = sample_cohort(spec_of(make_nic_balanced()), 50_000, seed=41)
    path = tmp_path / "bal.csv"
    path.write_text(cohort.to_csv())
    tv = {}
    for est in ("plugin", "dr"):
        out = tmp_path / est
        assert main(["decompose", "--cohort", str(path), "--estimator", est,
                     "--outdir", str(out)]) == 0
        _, rows = decomposition_rows(out / "decomposition.csv")
        tv[est] = np.array([float(r[2]) for r in rows if r[1] == "tv"])
    assert tv["plugin"].size > 0
    assert np.max(np.abs(tv["plugin"] - tv["dr"])) <= 0.03


def test_decompose_ratio_scale(nc_cohort_csv, tmp_path):
    # interior grid: survival reaches zero at the last support point,
    # where ratio-scale effects are undefined (and rejected)
    assert main(["decompose", "--cohort", str(nc_cohort_csv),
                 "--estimator", "plugin", "--scale", "ratio",
                 "--grid", "1,2,3", "--outdir", str(tmp_path)]) == 0
    payload = json.loads((tmp_path / "decomposition.json").read_text())
    assert payload["scale"] == "ratio"
    effects = payload["effects"]
    tv = np.array(effects["tv"]["estimate"])
    composite = (np.array(effects["direct"]["estimate"])
                 / np.array(effects["indirect"]["estimate"])
                 / np.array(effects["spurious"]["estimate"]))
    assert np.max(np.abs(tv - composite)) < 1e-10


def test_decompose_cr_mode_per_cause_tables(cr_cohort_csv, tmp_path):
    assert main(["decompose", "--cohort", str(cr_cohort_csv), "--mode", "cr",
                 "--estimator", "plugin", "--outdir", str(tmp_path)]) == 0
    header, rows = decomposition_rows(tmp_path / "decomposition.csv")
    assert header == ["t", "cause", "effect", "estimate", "se", "lo", "hi"]
    causes = {r[1] for r in rows}
    assert causes == {"1", "2", "all"}
    # per-time incidence disparities balance the all-cause survival one
    tv = {c: {} for c in causes}
    for r in rows:
        if r[2] == "tv":
            tv[r[1]][float(r[0])] = float(r[3])
    for t in tv["all"]:
        assert tv["1"][t] + tv["2"][t] == pytest.approx(-tv["all"][t],
                                                        abs=1e-6)


def test_ic_mode_emits_one_envelope_file_per_tau(ic_cohort_csv, tmp_path):
    assert main(["decompose", "--cohort", str(ic_cohort_csv), "--mode", "ic",
                 "--tau", "0.1,0.5,0.8", "--estimator", "dr",
                 "--envelope-samples", "40", "--grid", "1,2,3",
                 "--outdir", str(tmp_path)]) == 0
    for tag in ("0.1", "0.5", "0.8"):
        env = tmp_path / f"envelope_tau{tag}.csv"
        assert env.exists()
        header, rows = read_table(env)
        assert header == ["t", "central", "env_lo", "env_hi", "tau"]
        for t, central, lo, hi, tau in rows:
            assert float(lo) <= float(central) <= float(hi)
            assert tau == tag


def test_ic_plugin_route_emits_centrals_only(ic_cohort_csv, tmp_path):
    assert main(["decompose", "--cohort", str(ic_cohort_csv), "--mode", "ic",
                 "--tau", "0.5", "--estimator", "plugin", "--grid", "1,2,3",
                 "--outdir", str(tmp_path)]) == 0
    assert not list(tmp_path.glob("envelope_tau*.csv"))
    _, rows = decomposition_rows(tmp_path / "decomposition.csv")
    for r in rows:
        assert r[4] == "" and r[5] == ""


def test_ic_plugin_reconstructs_every_query_and_tau_in_one_call(
        ic_cohort_csv, tmp_path, monkeypatch):
    import fairsurv.cli
    from fairsurv.cge import route1_conditional

    calls = []

    def counted(cohort, specs, nuisances, queries, grid):
        calls.append((len(specs), len(queries)))
        return route1_conditional(cohort, specs, nuisances, queries, grid)

    monkeypatch.setattr(fairsurv.cli, "route1_conditional", counted)
    assert main(["decompose", "--cohort", str(ic_cohort_csv), "--mode", "ic",
                 "--tau", "0.2,0.5", "--estimator", "plugin", "--grid",
                 "1,2,3", "--outdir", str(tmp_path)]) == 0
    assert calls == [(2, 4)]


def test_ic_incidence_estimated_once_per_query(ic_cohort_csv, tmp_path,
                                              monkeypatch):
    import fairsurv.cge
    from fairsurv.dr import crossfit_dr_many

    calls = []

    def counted(plan, queries, functional, **kwargs):
        calls.append((tuple(queries), functional.cause))
        return crossfit_dr_many(plan, queries, functional, **kwargs)

    monkeypatch.setattr(fairsurv.cge, "crossfit_dr_many", counted)
    assert main(["decompose", "--cohort", str(ic_cohort_csv), "--mode", "ic",
                 "--tau", "0.2,0.5,0.8", "--envelope-samples", "10",
                 "--grid", "1,2,3", "--outdir", str(tmp_path)]) == 0
    # two causes (event, censoring) per query, none repeated per tau
    assert len(calls) == 8
    assert len(set(calls)) == 8
    assert {cause for _, cause in calls} == {1, 2}


def test_ic_envelope_drawn_once_per_query(ic_cohort_csv, tmp_path,
                                          monkeypatch):
    import fairsurv.cge
    import fairsurv.cli
    from fairsurv.cge import _draw_trajectories, route2_population

    calls, draws = [], []

    def counted(estimates, specs, **kwargs):
        calls.append(len(specs))
        return route2_population(estimates, specs, **kwargs)

    def drawn(*args):
        draws.append(args[4])
        return _draw_trajectories(*args)

    monkeypatch.setattr(fairsurv.cli, "route2_population", counted)
    monkeypatch.setattr(fairsurv.cge, "_draw_trajectories", drawn)
    assert main(["decompose", "--cohort", str(ic_cohort_csv), "--mode", "ic",
                 "--tau", "0.2,0.5,0.8", "--envelope-samples", "10",
                 "--grid", "1,2,3", "--outdir", str(tmp_path)]) == 0
    # one envelope per query, shared by the three taus
    assert calls == [3] * 4
    assert draws == [10] * 4


def test_ic_diagnostics_report_each_envelope_once(ic_cohort_csv, tmp_path):
    args = ["decompose", "--cohort", str(ic_cohort_csv), "--mode", "ic",
            "--tau", "0.2,0.5", "--envelope-samples", "10",
            "--grid", "1,2,3"]
    assert main(args + ["--outdir", str(tmp_path / "a")]) == 0
    assert main(args + ["--outdir", str(tmp_path / "b")]) == 0
    text = (tmp_path / "a" / "diagnostics.json").read_text()
    assert (tmp_path / "b" / "diagnostics.json").read_text() == text
    envelopes = json.loads(text)["envelopes"]
    assert sorted(envelopes) == sorted(str(q.as_tuple())
                                       for q in role_queries(0, 1))
    for counts in envelopes.values():
        assert sorted(counts) == ["n_central_scaled_points",
                                  "n_corner_scaled_points",
                                  "n_sample_attempts", "n_samples_accepted"]
        assert counts["n_samples_accepted"] == 10
        assert counts["n_sample_attempts"] >= 10
    # the conditional route draws no envelope
    assert main(args + ["--estimator", "plugin",
                        "--outdir", str(tmp_path / "p")]) == 0
    assert "envelopes" not in json.loads(
        (tmp_path / "p" / "diagnostics.json").read_text())


def test_ic_nuisances_fitted_once_per_fold_and_cause(ic_cohort_csv, tmp_path,
                                                    monkeypatch):
    fits = count_fits(monkeypatch)
    assert main(["decompose", "--cohort", str(ic_cohort_csv), "--mode", "ic",
                 "--tau", "0.2,0.5,0.8", "--envelope-samples", "10",
                 "--grid", "1,2,3", "--outdir", str(tmp_path)]) == 0
    # per fold: one censoring model, one outcome model per cause (event,
    # recoded censoring) and both propensities, shared by the four
    # queries and the three taus
    assert fits == {"survival": 6, "propensity": 4}


BASE_FILES = ["decomposition.csv", "decomposition.json", "diagnostics.json"]
IC_RERUN = ["--mode", "ic", "--tau", "0.3,0.5", "--envelope-samples", "30"]


@pytest.mark.parametrize("cohort, args, names", [
    ("nc", ["--estimator", "dr"], BASE_FILES),
    ("nc", ["--estimator", "dr", "--scale", "ratio"], BASE_FILES),
    ("nc", ["--estimator", "plugin"], BASE_FILES),
    ("cr", ["--mode", "cr", "--estimator", "dr"], BASE_FILES),
    ("cr", ["--mode", "cr", "--estimator", "plugin"], BASE_FILES),
    ("ic", [*IC_RERUN, "--estimator", "dr"],
     BASE_FILES + ["envelope_tau0.3.csv", "envelope_tau0.5.csv"]),
    ("ic", [*IC_RERUN, "--estimator", "plugin"], BASE_FILES),
], ids=["nic-dr", "nic-dr-ratio", "nic-plugin", "cr-dr", "cr-plugin",
        "ic-dr", "ic-plugin"])
def test_decompose_reruns_byte_identical(request, tmp_path, cohort, args,
                                         names):
    path = request.getfixturevalue(f"{cohort}_cohort_csv")
    args = ["decompose", "--cohort", str(path), *args, "--grid", "1,2,3"]
    assert main(args + ["--outdir", str(tmp_path / "a")]) == 0
    assert main(args + ["--outdir", str(tmp_path / "b")]) == 0
    assert [p.name for p in sorted((tmp_path / "a").iterdir())] == names
    for name in names:
        assert (tmp_path / "a" / name).read_bytes() \
            == (tmp_path / "b" / name).read_bytes()


@pytest.mark.parametrize("cohort, args", [
    ("nc", []),
    ("cr", ["--mode", "cr"]),
    ("ic", [*IC_RERUN, "--estimator", "dr"]),
    ("ic", [*IC_RERUN, "--estimator", "plugin"]),
], ids=["nic", "cr", "ic-dr", "ic-plugin"])
def test_curves_reruns_byte_identical(request, tmp_path, cohort, args):
    path = request.getfixturevalue(f"{cohort}_cohort_csv")
    args = ["curves", "--cohort", str(path), *args, "--grid", "1,2,3"]
    assert main(args + ["--outdir", str(tmp_path / "a")]) == 0
    assert main(args + ["--outdir", str(tmp_path / "b")]) == 0
    assert [p.name for p in sorted((tmp_path / "a").iterdir())] == [
        "curves.csv"]
    assert ((tmp_path / "a" / "curves.csv").read_bytes()
            == (tmp_path / "b" / "curves.csv").read_bytes())


def test_ic_plugin_route_fits_no_outcome_model(ic_cohort_csv, tmp_path,
                                              monkeypatch):
    fits = count_fits(monkeypatch)
    assert main(["decompose", "--cohort", str(ic_cohort_csv), "--mode", "ic",
                 "--tau", "0.2,0.5", "--estimator", "plugin",
                 "--grid", "1,2,3", "--outdir", str(tmp_path)]) == 0
    # the conditional route weights empirical cell incidences by the
    # two propensities and reads no outcome model
    assert fits == {"survival": 0, "propensity": 2}


def test_nic_plugin_writes_plugin_reports(nc_cohort_csv, tmp_path):
    assert main(["decompose", "--cohort", str(nc_cohort_csv),
                 "--estimator", "plugin", "--grid", "1,2,3",
                 "--outdir", str(tmp_path)]) == 0
    cohort = Cohort.from_csv(nc_cohort_csv.read_text())
    survival = Functional("survival")
    results = plugin_po_many(fit_plugin_nuisances(cohort, survival), cohort,
                             role_queries(0, 1), survival, [1.0, 2.0, 3.0])
    expected = {str(q.as_tuple()): report
                for q, (_, report) in results.items()}
    decomposition = json.loads((tmp_path / "decomposition.json").read_text())
    diagnostics = json.loads((tmp_path / "diagnostics.json").read_text())
    assert decomposition["diagnostics"]["plugin_reports"] == expected
    assert diagnostics["series"]["plugin_reports"] == expected


def test_plugin_rmst_without_horizon_integrates_to_each_time(nc_cohort_csv,
                                                             tmp_path):
    assert main(["decompose", "--cohort", str(nc_cohort_csv),
                 "--estimator", "plugin", "--functional", "rmst",
                 "--grid", "1,2,3", "--outdir", str(tmp_path)]) == 0
    tv = {float(r[0]): float(r[2]) for r in
          read_table(tmp_path / "decomposition.csv")[1] if r[1] == "tv"}
    assert sorted(tv) == [1.0, 2.0, 3.0]
    assert all(np.isfinite(v) for v in tv.values())


IC_DR = ["--mode", "ic", "--tau", "0.5", "--envelope-samples", "5"]


@pytest.mark.parametrize("command, cohort, args, name, header, n_rows", [
    ("decompose", "nc", [], "decomposition.csv",
     "t,effect,estimate,se,lo,hi", 4 * 3),
    ("decompose", "cr", ["--mode", "cr", "--estimator", "plugin"],
     "decomposition.csv", "t,cause,effect,estimate,se,lo,hi", 3 * 4 * 3),
    ("decompose", "ic", IC_DR, "decomposition.csv",
     "t,tau,effect,estimate,lo,hi", 4 * 3),
    ("decompose", "ic", IC_DR, "envelope_tau0.5.csv",
     "t,central,env_lo,env_hi,tau", 3),
    ("curves", "nc", [], "curves.csv", "t,series,value", 3 * 3),
    ("curves", "cr", ["--mode", "cr"], "curves.csv", "t,series,value",
     9 * 3),
    ("curves", "ic", ["--mode", "ic", "--tau", "0.5", "--estimator",
                      "plugin"], "curves.csv", "t,series,value", 3 * 3),
])
def test_csv_outputs_pin_header_and_column_count(
        request, tmp_path, command, cohort, args, name, header, n_rows):
    path = request.getfixturevalue(f"{cohort}_cohort_csv")
    assert main([command, "--cohort", str(path), *args, "--grid", "1,2,3",
                 "--outdir", str(tmp_path)]) == 0
    lines = (tmp_path / name).read_text().splitlines()
    assert lines[0].startswith("# fairsurv ")
    assert lines[1] == header
    assert len(lines) == 2 + n_rows
    width = header.count(",") + 1
    assert all(len(line.split(",")) == width for line in lines[2:])


def test_diagnostics_written_in_every_mode(nc_cohort_csv, cr_cohort_csv,
                                           ic_cohort_csv, tmp_path):
    runs = [
        ("nic", ["--cohort", str(nc_cohort_csv), "--estimator", "plugin"]),
        ("cr", ["--cohort", str(cr_cohort_csv), "--mode", "cr",
                "--estimator", "plugin"]),
        ("ic", ["--cohort", str(ic_cohort_csv), "--mode", "ic",
                "--tau", "0.5", "--estimator", "plugin",
                "--grid", "1,2,3"]),
    ]
    for mode, args in runs:
        out = tmp_path / mode
        assert main(["decompose", *args, "--outdir", str(out)]) == 0
        diag = json.loads((out / "diagnostics.json").read_text())
        assert diag["mode"] == mode
        assert diag["n_rows"] > 0


# ---------------------------------------------------------------------------
# configuration, headers, exit codes
# ---------------------------------------------------------------------------

def test_config_file_overrides_flags(nc_cohort_csv, tmp_path):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"grid": "1,2", "estimator": "plugin"}))
    assert main(["decompose", "--cohort", str(nc_cohort_csv),
                 "--estimator", "dr", "--grid", "1,2,3,4",
                 "--config", str(cfg), "--outdir", str(tmp_path)]) == 0
    _, rows = decomposition_rows(tmp_path / "decomposition.csv")
    assert sorted({float(r[0]) for r in rows}) == [1.0, 2.0]
    assert all(r[3] == "" for r in rows)  # plugin has no SE column


@pytest.mark.parametrize("entry, flags", [
    ({"grid_points": "5"}, ["--grid-points", "5"]),
    ({"folds": "3"}, ["--folds", "3"]),
    ({"epsilon": "0.05"}, ["--epsilon", "0.05"]),
    ({"tau": ["0.5"]}, ["--tau", "0.5"]),
])
def test_config_numeric_strings_convert_as_flags_do(nc_cohort_csv,
                                                    ic_cohort_csv, tmp_path,
                                                    entry, flags):
    ic = "tau" in entry
    base = ["decompose", "--estimator", "plugin", "--cohort",
            str(ic_cohort_csv if ic else nc_cohort_csv)]
    if ic:
        base += ["--mode", "ic", "--grid", "1,2,3"]
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps(entry))
    assert main(base + ["--config", str(cfg),
                        "--outdir", str(tmp_path / "config")]) == 0
    assert main(base + flags + ["--outdir", str(tmp_path / "flags")]) == 0
    for name in ("decomposition.csv", "decomposition.json"):
        assert (tmp_path / "config" / name).read_bytes() \
            == (tmp_path / "flags" / name).read_bytes()
    for bad in ({key: "many"} for key in entry):
        cfg.write_text(json.dumps(bad))
        assert main(base + ["--config", str(cfg),
                            "--outdir", str(tmp_path / "bad")]) == 2
    assert not (tmp_path / "bad").exists()


def test_unknown_config_key_is_usage_error(nc_cohort_csv, tmp_path, capsys):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"no_such_option": 1}))
    rc = main(["decompose", "--cohort", str(nc_cohort_csv),
               "--config", str(cfg), "--outdir", str(tmp_path)])
    assert rc == 2
    # an unknown mode or estimator is refused by the flag's own choices,
    # as a flag or as a config entry
    for key in ("mode", "estimator"):
        base = ["decompose", "--cohort", str(nc_cohort_csv),
                "--outdir", str(tmp_path / "out")]
        assert main(base + [f"--{key}", "xx"]) == 2
        assert "invalid choice: 'xx'" in capsys.readouterr().err
        cfg.write_text(json.dumps({key: "xx"}))
        assert main(base + ["--config", str(cfg)]) == 2
        assert "invalid choice: 'xx'" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_header_comment_carries_version_and_hash(nc_cohort_csv, tmp_path):
    assert main(["curves", "--cohort", str(nc_cohort_csv), "--grid", "1,2",
                 "--seed", "5", "--outdir", str(tmp_path / "a")]) == 0
    line = first_line(tmp_path / "a" / "curves.csv")
    assert line.startswith("# fairsurv ")
    assert "config sha256:" in line and "seed=5" in line
    token = line.split("config sha256:")[1].split()[0]
    assert len(token) == 12

    # same config elsewhere -> same hash; changed seed -> different hash
    assert main(["curves", "--cohort", str(nc_cohort_csv), "--grid", "1,2",
                 "--seed", "5", "--outdir", str(tmp_path / "b")]) == 0
    assert first_line(tmp_path / "b" / "curves.csv") == line
    assert main(["curves", "--cohort", str(nc_cohort_csv), "--grid", "1,2",
                 "--seed", "6", "--outdir", str(tmp_path / "c")]) == 0
    other = first_line(tmp_path / "c" / "curves.csv")
    assert other != line


def test_outdir_env_var_fallback(nc_cohort_csv, tmp_path, monkeypatch):
    target = tmp_path / "fromenv"
    monkeypatch.setenv("FAIRSURV_OUTDIR", str(target))
    assert main(["curves", "--cohort", str(nc_cohort_csv),
                 "--grid", "1,2"]) == 0
    assert (target / "curves.csv").exists()


def test_exit_code_3_on_unreadable_cohort(tmp_path, capsys):
    rc = main(["decompose", "--cohort", str(tmp_path / "missing.csv"),
               "--outdir", str(tmp_path)])
    assert rc == 3
    assert "data error" in capsys.readouterr().err


def test_exit_code_3_on_single_cause_cohort_in_cr_mode(nc_cohort_csv,
                                                       tmp_path):
    rc = main(["decompose", "--cohort", str(nc_cohort_csv), "--mode", "cr",
               "--outdir", str(tmp_path)])
    assert rc == 3


def test_exit_code_4_on_estimation_failure_writes_nothing(nc_cohort_csv,
                                                          tmp_path, capsys):
    cohort = Cohort.from_csv(nc_cohort_csv.read_text())
    lone = cohort.subset(cohort.x == 1)
    path = tmp_path / "lone.csv"
    path.write_text(lone.to_csv())
    out = tmp_path / "out"
    rc = main(["decompose", "--cohort", str(path), "--estimator", "dr",
               "--outdir", str(out)])
    assert rc == 4
    assert "estimation error" in capsys.readouterr().err
    assert not (out / "decomposition.csv").exists()


def test_usage_errors_for_flag_conflicts(nc_cohort_csv, tmp_path, capsys):
    base = ["decompose", "--cohort", str(nc_cohort_csv),
            "--outdir", str(tmp_path)]
    assert main(base + ["--tau", "0.5"]) == 2          # tau outside ic
    assert main(base + ["--mode", "ic"]) == 2          # ic without tau
    assert main(base + ["--mode", "ic", "--tau", "0.5",
                        "--functional", "rmst"]) == 2  # ic is survival-only
    assert main(base + ["--grid", "1,2",
                        "--grid-points", "4"]) == 2    # grid forms conflict
    assert main(base + ["--x0", "1", "--x1", "1"]) == 2
    assert main(base + ["--functional", "cif"]) == 2   # cif needs --cause
    assert main(base + ["--grid-points", "0"]) == 2
    assert main(base + ["--grid-points", "-3"]) == 2
    ic = base + ["--mode", "ic", "--tau"]
    assert main(ic + ["0.3,0.3"]) == 2                 # repeated tau
    assert main(ic + ["0.2,0.2000001"]) == 2           # equal %g tags
    assert main(ic + ["0,-0", "--family", "independence"]) == 2
    absent = ["decompose", "--cohort", str(tmp_path / "absent.csv"),
              "--outdir", str(tmp_path)]
    for folds in ("1", "0", "-2"):     # rejected before the cohort is read
        assert main(absent + ["--folds", folds]) == 2
    assert not list(tmp_path.iterdir())
    assert "--folds must be at least 2" in capsys.readouterr().err
    # more folds than rows is a property of the data
    tiny = tmp_path / "tiny.csv"
    tiny.write_text("x,z,w,m,delta\n0,0,0,1.0,1\n1,0,0,2.0,1\n"
                    "0,0,0,1.5,0\n1,0,0,2.5,1\n")
    assert main(["decompose", "--cohort", str(tiny), "--folds", "5",
                 "--grid", "1,2", "--outdir", str(tmp_path / "out")]) == 3
    assert "more folds than rows" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["decompose", "curves"])
@pytest.mark.parametrize("n_causes", ["0", "-1"])
def test_nonpositive_n_causes_is_usage_error(tmp_path, capsys, command,
                                             n_causes):
    # rejected before the cohort is read, even when every delta is 0
    censored = tmp_path / "censored.csv"
    censored.write_text("x,z,w,m,delta\n0,0,0,1,0\n1,0,0,2,0\n")
    for cohort in (censored, tmp_path / "absent.csv"):
        assert main([command, "--cohort", str(cohort), "--estimator",
                     "plugin", "--n-causes", n_causes,
                     "--outdir", str(tmp_path / "out")]) == 2
        assert "--n-causes must be a positive integer" in \
            capsys.readouterr().err
    assert [p.name for p in tmp_path.iterdir()] == ["censored.csv"]


@pytest.mark.parametrize("family, tau", [
    ("clayton", "1.5"), ("independence", "0.5"), ("gumbel", "-0.2"),
    ("frank", "0.999999")])
def test_tau_outside_the_family_range_is_usage_error(tmp_path, capsys,
                                                     family, tau):
    # rejected before the cohort is read, without a stray warning
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["decompose", "--cohort", str(tmp_path / "absent.csv"),
                     "--mode", "ic", "--family", family, "--tau", tau,
                     "--outdir", str(tmp_path)]) == 2
    assert not caught
    err = capsys.readouterr().err
    assert f"--tau {tau}: " in err and "RuntimeWarning" not in err
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("command", ["decompose", "curves"])
def test_cr_mode_rejects_functional_flags(cr_cohort_csv, tmp_path, capsys,
                                          command):
    # cr mode fixes its own functionals (each cause's incidence, all-cause
    # survival), so a chosen functional would be silently ignored
    base = [command, "--cohort", str(cr_cohort_csv), "--mode", "cr",
            "--estimator", "plugin", "--grid", "1,2,3",
            "--outdir", str(tmp_path)]
    assert main(base + ["--functional", "rmst", "--horizon", "3"]) == 2
    assert main(base + ["--functional", "cif", "--cause", "1"]) == 2
    assert main(base + ["--functional", "all_cause_survival"]) == 2
    assert "--functional" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("command", [
    ["simulate", "--spec", "example", "--n", "50"],
    ["decompose"],
    ["decompose", "--mode", "ic", "--tau", "0.5"],
])
def test_negative_seed_is_usage_error(tmp_path, capsys, command):
    # rejected before the cohort is read, as a flag or as a config entry
    if command[0] == "decompose":
        command = command + ["--cohort", str(tmp_path / "absent.csv")]
    base = command + ["--outdir", str(tmp_path)]
    assert main(base + ["--seed", "-1"]) == 2
    assert "--seed must be a nonnegative integer" in capsys.readouterr().err
    config = tmp_path / "config.json"
    config.write_text('{"seed": -1}')
    assert main(base + ["--config", str(config)]) == 2
    assert "--seed must be a nonnegative integer" in capsys.readouterr().err
    assert [p.name for p in tmp_path.iterdir()] == ["config.json"]


@pytest.mark.parametrize("arms", [["--x0", "2"], ["--x0", "-1", "--x1", "0"],
                                  ["--x1", "3"]])
def test_arm_outside_zero_one_is_usage_error(tmp_path, capsys, arms):
    # rejected before the cohort is read, as a flag or as a config entry
    base = ["decompose", "--cohort", str(tmp_path / "absent.csv"),
            "--outdir", str(tmp_path)]
    assert main(base + arms) == 2
    assert "invalid choice" in capsys.readouterr().err
    config = tmp_path / "config.json"
    config.write_text(json.dumps(
        {flag.lstrip("-"): int(value)
         for flag, value in zip(arms[::2], arms[1::2])}))
    assert main(base + ["--config", str(config)]) == 2
    assert "invalid choice" in capsys.readouterr().err
    assert [p.name for p in tmp_path.iterdir()] == ["config.json"]


def test_negative_envelope_samples_is_usage_error(ic_cohort_csv, tmp_path,
                                                  capsys):
    # rejected before the cohort is read, let alone cross-fitted
    assert main(["decompose", "--cohort", str(tmp_path / "absent.csv"),
                 "--mode", "ic", "--tau", "0.5", "--envelope-samples", "-1",
                 "--outdir", str(tmp_path)]) == 2
    assert "--envelope-samples" in capsys.readouterr().err
    config = tmp_path / "config.json"
    config.write_text('{"envelope_samples": "many"}')
    assert main(["decompose", "--cohort", str(ic_cohort_csv), "--mode", "ic",
                 "--tau", "0.5", "--config", str(config),
                 "--outdir", str(tmp_path)]) == 2
    assert not (tmp_path / "decomposition.csv").exists()
    config.write_text('{"envelope_samples": "0"}')
    assert main(["decompose", "--cohort", str(ic_cohort_csv), "--mode", "ic",
                 "--tau", "0.5", "--grid", "1,2,3", "--config", str(config),
                 "--outdir", str(tmp_path)]) == 0


@pytest.mark.parametrize("column, token", [("x", "a"), ("delta", "x"),
                                           ("m", "abc")])
def test_exit_code_3_on_non_numeric_csv_entry(tmp_path, capsys, column,
                                              token):
    row = {"x": "1", "z": "0", "w": "0", "m": "2.5", "delta": "1"}
    row[column] = token
    path = tmp_path / "bad.csv"
    path.write_text("x,z,w,m,delta\n0,0,0,1.5,1\n" + ",".join(row.values())
                    + "\n")
    rc = main(["decompose", "--cohort", str(path), "--outdir", str(tmp_path)])
    assert rc == 3
    assert f"column '{column}'" in capsys.readouterr().err


def test_exit_code_3_on_non_finite_confounder_for_the_logistic_learner(
        tmp_path, capsys):
    # one NaN in z1 of a 60-row cohort
    rng = np.random.default_rng(8)
    n = 60
    z = [tuple(r) for r in np.round(rng.normal(size=(n, 2)), 3).tolist()]
    z[7] = (float("nan"), z[7][1])
    cohort = Cohort(x=[i % 2 for i in range(n)], z=z,
                    w=[i % 3 % 2 for i in range(n)],
                    m=np.round(rng.exponential(2.0, n), 2) + 0.01,
                    delta=rng.integers(0, 2, n))
    path = tmp_path / "nan.csv"
    path.write_text(cohort.to_csv())
    assert "nan" in path.read_text().splitlines()[8]
    out = tmp_path / "out"
    rc = main(["decompose", "--learner", "logrank_tree_ensemble",
               "--propensity-learner", "logistic_irls", "--cohort", str(path),
               "--outdir", str(out)])
    assert rc == 3
    assert "finite" in capsys.readouterr().err
    assert not out.exists() or not any(out.iterdir())


def test_cohort_with_a_utf8_bom_reads_like_one_without(nc_cohort_csv,
                                                      tmp_path):
    bom = tmp_path / "bom.csv"
    bom.write_bytes(b"\xef\xbb\xbf" + nc_cohort_csv.read_bytes())
    for name, path in (("plain", nc_cohort_csv), ("bom", bom)):
        assert main(["curves", "--cohort", str(path), "--grid", "1,2,3",
                     "--outdir", str(tmp_path / name)]) == 0
    # the header comment differs: it hashes the config, cohort path included
    assert (read_table(tmp_path / "bom" / "curves.csv")
            == read_table(tmp_path / "plain" / "curves.csv"))


def test_exit_code_3_on_cohort_that_is_not_utf8(tmp_path, capsys):
    path = tmp_path / "latin1.csv"
    path.write_bytes(b"x,z,w,m,delta\n0,caf\xe9,0,1.5,1\n1,0,0,2.5,1\n")
    rc = main(["decompose", "--cohort", str(path), "--outdir", str(tmp_path)])
    assert rc == 3
    assert "cohort CSV is not UTF-8" in capsys.readouterr().err


def test_exit_code_3_on_cohort_with_a_superscript_column_suffix(tmp_path,
                                                                capsys):
    path = tmp_path / "z_squared.csv"
    path.write_text("x,z\u00b2,w,m,delta\n0,0,0,1.5,1\n1,1,0,2.5,1\n",
                    encoding="utf-8")
    rc = main(["curves", "--cohort", str(path), "--outdir", str(tmp_path)])
    assert rc == 3
    assert "must include z and w columns" in capsys.readouterr().err
    assert not (tmp_path / "curves.csv").exists()


def test_exit_code_3_on_cohort_with_ambiguous_header(tmp_path, capsys):
    path = tmp_path / "two_z.csv"
    path.write_text("x,z,w,z1,m,delta\n0,0,0,1,1.5,1\n1,0,0,1,2.5,1\n")
    rc = main(["decompose", "--cohort", str(path), "--outdir", str(tmp_path)])
    assert rc == 3
    assert "cohort CSV header is ambiguous" in capsys.readouterr().err
    assert not (tmp_path / "decomposition.csv").exists()


def test_config_that_is_not_utf8_is_usage_error(nc_cohort_csv, tmp_path,
                                                capsys):
    config = tmp_path / "config.json"
    config.write_bytes(b'{"seed": 5, "note": "caf\xe9"}')
    rc = main(["decompose", "--cohort", str(nc_cohort_csv),
               "--config", str(config), "--outdir", str(tmp_path / "out")])
    assert rc == 2
    assert "config file is not UTF-8" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("cap", ["0", "-1", "inf", "nan"])
def test_exit_code_3_on_nonpositive_or_infinite_cap(nc_cohort_csv,
                                                    ic_cohort_csv, tmp_path,
                                                    capsys, cap):
    # every analysis command and estimator, the cap read or not
    for i, (args, cohort) in enumerate([
            (["decompose"], nc_cohort_csv),
            (["decompose", "--estimator", "plugin"], nc_cohort_csv),
            (["decompose", "--mode", "ic", "--tau", "0.5", "--estimator",
              "plugin"], ic_cohort_csv),
            (["curves"], nc_cohort_csv)]):
        out = tmp_path / f"out{i}"
        rc = main([*args, "--cohort", str(cohort), "--cap", cap,
                   "--outdir", str(out)])
        assert rc == 3, args
        assert (f"fairsurv: data error: cap must be positive and finite, "
                f"got {float(cap)!r}") in capsys.readouterr().err
        assert not out.exists() or not any(out.iterdir())


@pytest.mark.parametrize("epsilon", ["0", "-0.1", "0.5", "0.6", "nan"])
def test_exit_code_3_on_a_clip_bound_outside_zero_to_half(nc_cohort_csv,
                                                          ic_cohort_csv,
                                                          tmp_path, capsys,
                                                          epsilon):
    # every analysis command and estimator, propensities fitted or not
    for i, (args, cohort) in enumerate([
            (["decompose"], nc_cohort_csv),
            (["decompose", "--estimator", "plugin"], nc_cohort_csv),
            (["decompose", "--mode", "ic", "--tau", "0.5", "--estimator",
              "plugin"], ic_cohort_csv),
            (["curves"], nc_cohort_csv)]):
        out = tmp_path / f"out{i}"
        rc = main([*args, "--cohort", str(cohort), "--epsilon", epsilon,
                   "--outdir", str(out)])
        assert rc == 3, args
        assert ("fairsurv: data error: clip bound must lie strictly between "
                "0 and 0.5") in capsys.readouterr().err
        assert not out.exists() or not any(out.iterdir())


def test_multicolumn_covariates_autodetected(tmp_path):
    rng = np.random.default_rng(4)
    n = 400
    z = [(int(a), int(b)) for a, b in rng.integers(0, 2, size=(n, 2))]
    cohort = Cohort(
        x=rng.integers(0, 2, size=n),
        z=z,
        w=rng.integers(0, 2, size=n),
        m=rng.integers(1, 5, size=n).astype(float),
        delta=rng.integers(0, 2, size=n),
    )
    path = tmp_path / "wide.csv"
    path.write_text(cohort.to_csv())
    assert "z1,z2" in path.read_text().splitlines()[0]
    assert main(["curves", "--cohort", str(path),
                 "--outdir", str(tmp_path)]) == 0
    series = series_of(tmp_path / "curves.csv")
    assert set(series) == {"x0", "x1", "tv"}


def test_version_flag_exits_cleanly(capsys):
    assert main(["--version"]) == 0
    assert "fairsurv" in capsys.readouterr().out


def test_exit_code_3_on_a_field_past_the_csv_field_limit(tmp_path, capsys):
    path = tmp_path / "long.csv"
    long_field = "z" * (csv.field_size_limit() + 1)
    path.write_text(f"x,z,w,m,delta\n0,{long_field},0,1.5,1\n1,0,0,2.5,1\n")
    rc = main(["decompose", "--cohort", str(path), "--outdir", str(tmp_path)])
    assert rc == 3
    err = capsys.readouterr().err
    assert "field larger than field limit" in err
    assert "Traceback" not in err


def test_spec_with_a_utf8_bom_reads_like_one_without(tmp_path):
    spec_bytes = (resources.files("fairsurv.data")
                  / "example_spec.json").read_bytes()
    for name, data in (("plain", spec_bytes),
                       ("bom", b"\xef\xbb\xbf" + spec_bytes)):
        spec = tmp_path / f"{name}.json"
        spec.write_bytes(data)
        assert main(["simulate", "--spec", str(spec), "--n", "200",
                     "--outdir", str(tmp_path / name)]) == 0
    # the config hash covers the spec path, so it alone differs
    plain, bom = ((tmp_path / name / "cohort.csv").read_text().split("\n", 1)
                  for name in ("plain", "bom"))
    assert plain[1] == bom[1]
    plain, bom = (json.loads((tmp_path / name / "spec.json").read_text())
                  for name in ("plain", "bom"))
    assert plain.pop("config_hash") != bom.pop("config_hash")
    assert plain == bom


def test_exit_code_3_on_spec_that_is_not_utf8(tmp_path, capsys):
    spec = tmp_path / "latin1.json"
    spec.write_bytes(b'{"note": "caf\xe9"}')
    rc = main(["simulate", "--spec", str(spec), "--n", "10",
               "--outdir", str(tmp_path / "out")])
    assert rc == 3
    assert "spec file is not UTF-8" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()
