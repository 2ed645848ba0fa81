"""Import cost: scipy stays off the import path and loads only where used,
and numpy's lazily loaded numpy.ma stays unloaded by a decompose, with
either survival learner, a quantile grid or restricted means.

Each check runs in a fresh interpreter, since this test process has
scipy loaded already.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import fairsurv
from fairsurv.scm import sample_cohort

from testkit import make_nic_balanced, spec_of

SRC = str(Path(fairsurv.__file__).resolve().parents[1])


def _run(code):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, env.get("PYTHONPATH")) if p)
    done = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout)


def _scipy_modules():
    return ("sorted(m for m in sys.modules "
            "if m == 'scipy' or m.startswith('scipy.'))")


@pytest.mark.parametrize("module", ["fairsurv", "fairsurv.cli"])
def test_import_loads_no_scipy(module):
    code = f"import json, sys, {module}; print(json.dumps({_scipy_modules()}))"
    assert _run(code) == []


def test_scipy_paths_return_the_same_values_in_a_fresh_process():
    # the values these calls returned while scipy was imported at module
    # level; the Frank calibration loads it on first use
    code = f"""
import json, sys
import fairsurv.cli
from fairsurv.copulas import tau_to_theta
from fairsurv.nuisance import fit_propensity
from fairsurv.scm import Cohort
n = 40
cohort = Cohort(x=[int(i * 5 % 7 < 3) for i in range(n)],
                z=[(i * 7 % 11) / 10 for i in range(n)],
                w=[i % 3 for i in range(n)],
                m=[1.0 + i % 4 for i in range(n)], delta=[1] * n)
theta = tau_to_theta("frank", 0.3)
model = fit_propensity(cohort, "zw", learner="logistic_irls")
print(json.dumps({{"theta": repr(theta),
                  "p": repr(model.predict(0.5, 1)),
                  "n_iter": model.fit_report["n_iter"],
                  "scipy_loaded": bool({_scipy_modules()})}}))
"""
    assert _run(code) == {"theta": "2.9174344459245236",
                          "p": "0.42146272469649115",
                          "n_iter": 5,
                          "scipy_loaded": True}


def test_logistic_learner_loads_no_scipy():
    # the values the logistic fit returned when it called scipy's expit
    code = f"""
import json, sys
from fairsurv.nuisance import fit_propensity
from fairsurv.scm import Cohort
n = 40
cohort = Cohort(x=[int(i * 5 % 7 < 3) for i in range(n)],
                z=[(i * 7 % 11) / 10 for i in range(n)],
                w=[i % 3 for i in range(n)],
                m=[1.0 + i % 4 for i in range(n)], delta=[1] * n)
model = fit_propensity(cohort, "zw", learner="logistic_irls")
print(json.dumps({{"p": repr(model.predict(0.5, 1)),
                  "n_iter": model.fit_report["n_iter"],
                  "scipy": {_scipy_modules()}}}))
"""
    assert _run(code) == {"p": "0.42146272469649115", "n_iter": 5,
                          "scipy": []}


def _decompose_loads_numpy_ma(tmp_path, args):
    path = tmp_path / "cohort.csv"
    path.write_text(sample_cohort(spec_of(make_nic_balanced()), 400,
                                  seed=1).to_csv())
    code = f"""
import contextlib, io, json, sys
from fairsurv.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    code = main(["decompose", "--cohort", {str(path)!r},
                 "--outdir", {str(tmp_path / "out")!r}, *{args!r}])
print(json.dumps([code, "numpy.ma" in sys.modules]))
"""
    return _run(code)


def test_default_decompose_loads_no_numpy_ma(tmp_path):
    # numpy loads numpy.ma on first use, which np.percentile and a bare
    # np.unique make; a decompose on the default grid needs neither
    assert _decompose_loads_numpy_ma(tmp_path, []) == [0, False]


@pytest.mark.parametrize("args", [
    ["--learner", "logrank_tree_ensemble",
     "--propensity-learner", "logistic_irls"],
    ["--grid-points", "5"],
    ["--estimator", "plugin", "--functional", "rmst"],
], ids=["tree-logistic", "grid-points", "plugin-rmst"])
def test_decompose_loads_no_numpy_ma(tmp_path, args):
    # the forest's grid and leaf sets, the quantile grid and the union
    # knots of restricted means are sorted without a bare np.unique
    assert _decompose_loads_numpy_ma(tmp_path, args) == [0, False]
