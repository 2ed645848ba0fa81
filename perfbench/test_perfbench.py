"""Tests of the benchmark's own logic.

Run from the repository root: python3 -m pytest -q perfbench
"""

import hashlib
import json
from pathlib import Path

import pytest

import check
import inputs
import run
from tracing import layer_metrics, self_times

EFFECT_VALUES = {"direct": [0.5, 0.25], "indirect": [0.125, 0.0],
                 "spurious": [0.25, -0.125]}


def _decomposition(tv):
    effects = {name: {"estimate": values, "se": None, "lo": None, "hi": None}
               for name, values in {**EFFECT_VALUES, "tv": tv}.items()}
    return {"grid": [1.0, 2.0], "effects": effects}


def _identity_tv():
    d, i, s = (EFFECT_VALUES[k] for k in ("direct", "indirect", "spurious"))
    return [a - b - c for a, b, c in zip(d, i, s)]


def _write_artifacts(outdir, payload, artifacts=run.BASE_ARTIFACTS):
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    for name in artifacts:
        (outdir / name).write_text("{}\n")
    (outdir / "decomposition.json").write_text(json.dumps(payload))


def test_self_time_subtracts_children_only():
    spans = [
        ("cli.main", 0.0, 10.0, -1),
        ("dr.crossfit_dr_many", 1.0, 6.0, 0),
        ("scm.subset", 1.5, 2.0, 1),
        ("dr.fit_dr_nuisances", 2.0, 4.0, 1),
        ("nuisance.fit_conditional_survival", 2.0, 3.0, 3),
        ("nuisance.fit_propensity", 3.0, 3.5, 3),
        ("decompose.decompose_difference", 7.0, 7.75, 0),
    ]
    assert self_times(spans) == [10.0 - 5.0 - 0.75, 5.0 - 0.5 - 2.0, 0.5,
                                 2.0 - 1.0 - 0.5, 1.0, 0.5, 0.75]
    metrics = layer_metrics(spans, {"copulas.generator": 7})
    assert metrics["cli.self_s"] == 4.25
    assert metrics["dr.influence_s"] == 2.5
    assert metrics["decompose.self_s"] == 0.75
    assert metrics["nuisance.fit_survival_s"] == 1.0
    assert metrics["scm.subset_calls"] == 1
    assert metrics["dr.crossfit_calls"] == 1
    assert metrics["dr.nuisance_bundles"] == 1
    assert metrics["copulas.generator_calls"] == 7
    assert metrics["cge.bounded_calls"] == 0 and metrics["cge.bounded_s"] == 0.0


def test_self_time_clips_children_to_the_parent_and_merges_overlaps():
    spans = [("cli.main", 0.0, 4.0, -1),
             ("scm.subset", 1.0, 3.0, 0),
             ("scm.subset", 2.0, 5.0, 0)]
    assert self_times(spans)[0] == 1.0


def test_nested_spans_of_one_layer_count_once_in_totals():
    spans = [("curves.kaplan_meier", 0.0, 2.0, -1),
             ("curves.aalen_johansen_cif", 0.5, 1.0, 0),
             ("curves.kaplan_meier", 3.0, 3.5, -1)]
    metrics = layer_metrics(spans, {})
    assert metrics["curves.product_limit_s"] == 2.5
    assert metrics["curves.product_limit_calls"] == 3


def test_effect_blocks_cover_every_cause_and_tau():
    block = _decomposition(_identity_tv())["effects"]
    cr = {"series": {tag: {"effects": block} for tag in ("1", "2", "all")}}
    ic = {"grid": [1.0], "effects": {tau: block for tau in ("0.2", "0.5")}}
    assert sorted(check.effect_blocks(cr)) == ["/series/1/effects",
                                               "/series/2/effects",
                                               "/series/all/effects"]
    assert sorted(check.effect_blocks(ic)) == ["/effects/0.2", "/effects/0.5"]


def test_identity_holds_and_passes(tmp_path):
    _write_artifacts(tmp_path, _decomposition(_identity_tv()))
    result = check.check_invocation(0, tmp_path, run.BASE_ARTIFACTS)
    assert result["ok"], result["reason"]


def test_broken_identity_fails(tmp_path):
    tv = _identity_tv()
    tv[1] += 1e-9
    _write_artifacts(tmp_path, _decomposition(tv))
    result = check.check_invocation(0, tmp_path, run.BASE_ARTIFACTS)
    assert not result["ok"]
    assert "identity" in result["reason"]


def test_golden_drift_fails_and_hash_mismatch_only_counts(tmp_path):
    payload = _decomposition(_identity_tv())
    _write_artifacts(tmp_path, payload)
    golden = {"hashes": {"diagnostics.json": check.sha256_file(
                  tmp_path / "diagnostics.json")},
              "estimates": check.effect_blocks(payload)}
    result = check.check_invocation(0, tmp_path, run.BASE_ARTIFACTS, golden)
    assert result["ok"] and result["hash_matches"] == 1
    golden["estimates"]["/effects"]["direct"] = [0.5, 0.25 + 1e-6]
    result = check.check_invocation(0, tmp_path, run.BASE_ARTIFACTS, golden)
    assert not result["ok"] and "golden" in result["reason"]


def test_missing_artifact_and_exit_code_fail(tmp_path):
    _write_artifacts(tmp_path, _decomposition(_identity_tv()))
    assert not check.check_invocation(3, tmp_path, run.BASE_ARTIFACTS)["ok"]
    (tmp_path / "diagnostics.json").unlink()
    result = check.check_invocation(0, tmp_path, run.BASE_ARTIFACTS)
    assert not result["ok"] and "missing" in result["reason"]


def test_broken_identity_counts_as_a_failed_invocation(tmp_path, monkeypatch):
    """A CLI whose decomposition.json breaks the identity is reported as
    failed in the result line, with success_rate below one."""
    def fake_spawn(cmd, cwd, deadline):
        if "--outdir" in cmd:
            tv = _identity_tv()
            tv[0] += 0.01
            _write_artifacts(Path(cwd) / cmd[cmd.index("--outdir") + 1],
                             _decomposition(tv))
        return run.Sample(0, 0.5, 0.5, 10.0, "")

    monkeypatch.setattr(run, "ROOT", tmp_path)
    monkeypatch.setattr(run, "spawn", fake_spawn)
    line, details = run.run_workload("tree-dr-500", 1, 0.0, 0)
    assert line["attempted"] == 1 and line["failed"] == 1
    assert line["correct"] is False
    assert line["metrics"]["success_rate"]["value"] == 0.0
    assert "identity" in details["failures"][0]["reason"]


def test_inputs_are_seeded():
    assert inputs.continuous_cohort_csv(50, 3) == inputs.continuous_cohort_csv(50, 3)
    assert inputs.continuous_cohort_csv(50, 3) != inputs.continuous_cohort_csv(50, 4)
    a = inputs.spec_cohort_csv("cr_two_cause", 200, 3)
    assert a == inputs.spec_cohort_csv("cr_two_cause", 200, 3)
    assert {line.split(",")[-1] for line in a.splitlines()[1:]} == {"0", "1", "2"}


def test_benchmark_json_names_every_reported_metric():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)


@pytest.mark.parametrize("name", sorted(run.WORKLOADS))
def test_golden_references_exist(name):
    seeds = json.loads((run.GOLDEN_DIR / f"{name}.json").read_text())["seeds"]
    assert seeds and all(set(e) == {"input_sha256", "hashes", "estimates"}
                         for e in seeds.values())
    text = run.WORKLOADS[name].make_input(0)
    assert hashlib.sha256(text.encode()).hexdigest() == seeds["0"]["input_sha256"]
