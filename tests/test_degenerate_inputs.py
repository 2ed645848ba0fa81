"""Degenerate inputs through the command line: tiny cohorts, one group,
tied times and short grids end in a documented exit code, never in an
exception, a partial output or a non-finite number.

The examples are derandomized, so every run of the suite draws the same
cohorts and flag combinations.
"""

import contextlib
import csv
import io
import json
import math
import tempfile
from pathlib import Path

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from fairsurv.cli import main

EXIT_CODES = (0, 2, 3, 4)


@st.composite
def cohort_csvs(draw):
    """Cohort CSV text of 1-60 rows and its cause count: sometimes one
    group, sometimes one tied time, integer or two-decimal times."""
    n = draw(st.integers(1, 60))
    n_causes = draw(st.integers(1, 2))
    one_group = draw(st.sampled_from([None, None, None, None, None, 0, 1]))
    decimal = draw(st.booleans())
    tied = draw(st.booleans())
    time = (st.integers(1, 600).map(lambda t: f"{t / 100:.2f}") if decimal
            else st.integers(0, 6).map(str))
    row = st.tuples(st.integers(0, 1) if one_group is None
                    else st.just(one_group),
                    st.integers(0, 2), st.integers(0, 1), time,
                    st.integers(0, n_causes))
    rows = draw(st.lists(row, min_size=n, max_size=n))
    if tied:
        rows = [(x, z, w, rows[0][3], d) for x, z, w, _, d in rows]
    body = "".join(",".join(map(str, r)) + "\n" for r in rows)
    return "x,z,w,m,delta\n" + body, n_causes


@st.composite
def decompose_flags(draw):
    """Mode, estimator, functional, scale, learners and grid of one run;
    the functional and the scale where the mode takes them."""
    mode = draw(st.sampled_from(["nic", "cr", "ic"]))
    flags = ["--mode", mode,
             "--estimator", draw(st.sampled_from(["dr", "plugin"])),
             "--learner", draw(st.sampled_from(
                 ["stratified", "logrank_tree_ensemble"])),
             "--propensity-learner", draw(st.sampled_from(
                 ["frequency_table", "logistic_irls"]))]
    if mode == "nic":
        functional = draw(st.sampled_from(
            ["survival", "cif", "rmst", "all_cause_survival",
             "cumulative_hazard"]))
        flags += ["--functional", functional,
                  "--scale", draw(st.sampled_from(["difference", "ratio"]))]
        if functional == "cif":
            flags += ["--cause", str(draw(st.integers(1, 2)))]
        if functional == "rmst":
            flags += ["--horizon", draw(st.sampled_from(["1.5", "4"]))]
    if mode == "ic":
        flags += ["--tau", draw(st.sampled_from(["0.5", "0.2,0.8"])),
                  "--envelope-samples", draw(st.sampled_from(["0", "20"]))]
    grid = draw(st.sampled_from(["default", "points", "explicit"]))
    if grid == "points":
        flags += ["--grid-points", str(draw(st.integers(1, 3)))]
    elif grid == "explicit":
        times = draw(st.lists(st.sampled_from([0.5, 1.0, 2.0, 3.5, 6.0]),
                              min_size=1, max_size=3, unique=True))
        flags += ["--grid", ",".join(map(str, sorted(times)))]
    return flags


def _run(args):
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        return main(args)


def _assert_finite(value, where):
    if isinstance(value, float):
        assert math.isfinite(value), where
    elif isinstance(value, dict):
        for item in value.values():
            _assert_finite(item, where)
    elif isinstance(value, list):
        for item in value:
            _assert_finite(item, where)


def _assert_outputs_finite(outdir):
    for path in outdir.iterdir():
        text = path.read_text()
        if path.suffix == ".json":
            _assert_finite(json.loads(text), path.name)
            continue
        for row in csv.reader(io.StringIO(text)):
            if not row or row[0].startswith("#"):
                continue
            for cell in row:
                try:
                    value = float(cell)
                except ValueError:
                    continue
                assert math.isfinite(value), (path.name, row)


@settings(derandomize=True, max_examples=130, deadline=None, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(cohort=cohort_csvs(), flags=decompose_flags())
def test_degenerate_cohorts_end_in_a_documented_exit_code(cohort, flags):
    text, n_causes = cohort
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        (tmp / "cohort.csv").write_text(text)
        args = ["decompose", "--cohort", str(tmp / "cohort.csv"),
                "--n-causes", str(n_causes), *flags]
        first = tmp / "first"
        code = _run(args + ["--outdir", str(first)])
        assert code in EXIT_CODES
        if code != 0:
            # a failed run leaves no partial outputs
            assert not first.exists() or not any(first.iterdir())
            return
        _assert_outputs_finite(first)
        again = tmp / "again"
        assert _run(args + ["--outdir", str(again)]) == 0
        names = sorted(p.name for p in first.iterdir())
        assert names == sorted(p.name for p in again.iterdir())
        for name in names:
            assert (first / name).read_bytes() == (again / name).read_bytes()
