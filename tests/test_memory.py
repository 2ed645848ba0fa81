"""Peak memory of the doubly robust path on continuous event times.

With continuous times the default grid grows with the cohort, so the
influence evaluation must not hold rows x grid matrices.  README quotes
the CI probes' limits, not readings, so the two cannot drift apart.
"""

import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np

import fairsurv
from rss_probe import decompose_peak_rss


def test_continuous_time_decompose_stays_under_300_mb(tmp_path):
    # n = 5k jittered times give a grid of ~1.9k points; holding the
    # per-row influence matrices took ~900 MB here
    result = decompose_peak_rss(5000, tmp_path)
    assert result["exit_code"] == 0, result["stderr"]
    assert result["grid_points"] > 1500
    assert result["peak_rss_mb"] < 300.0, result


def test_the_probe_reads_the_cli_peak_not_its_callers(tmp_path):
    # a caller holding 256 MB of touched memory: a CLI spawned straight
    # from it would read at least the caller's high-water mark
    ballast = np.ones(256 << 17)
    result = decompose_peak_rss(300, tmp_path, integer=True)
    del ballast
    assert result["exit_code"] == 0, result["stderr"]
    assert result["peak_rss_mb"] < 128.0, result


def test_the_probe_child_runs_the_package_the_probe_imports(tmp_path):
    # a copy of the package, first on the probe's PYTHONPATH, whose CLI
    # names its own file on stderr before it runs
    package = Path(fairsurv.__file__).resolve().parent
    copy = tmp_path / "other" / "fairsurv"
    shutil.copytree(package, copy,
                    ignore=shutil.ignore_patterns("__pycache__"))
    with open(copy / "cli.py", "a") as cli:
        cli.write("\n_main = main\n\n\ndef main(argv=None):\n"
                  "    import sys as _sys\n"
                  "    print('cli from', __file__, file=_sys.stderr)\n"
                  "    return _main(argv)\n")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(copy.parent)] + [p for p in [os.environ.get("PYTHONPATH")]
                              if p]))
    probe = Path(__file__).resolve().parent / "rss_probe.py"
    proc = subprocess.run([sys.executable, str(probe), "300", "1000",
                           "integer"], env=env, capture_output=True,
                          text=True, timeout=300)
    result = json.loads(proc.stdout)
    assert proc.returncode == 0 and result["exit_code"] == 0, result
    assert f"cli from {copy / 'cli.py'}" in result["stderr"]


def test_readme_memory_figures_are_the_ci_probe_limits():
    # every "under N MB (CI step `tests/rss_probe.py n N [case]`)" in
    # README names a workflow step with that limit, and README states no
    # other memory figure
    root = Path(__file__).resolve().parents[1]
    readme = (root / "README.md").read_text()
    workflow = (root / ".github" / "workflows" / "tests.yml").read_text()
    steps = set(re.findall(
        r"python tests/rss_probe\.py (\d+) (\d+)((?: [\w-]+)?)\n", workflow))
    quoted = re.findall(
        r"under\s+(\d+)\s+MB\s+\(CI\s+step\s+"
        r"`tests/rss_probe\.py (\d+) (\d+)((?: [\w-]+)?)`\)", readme)
    assert len(quoted) >= 4
    for limit, n, step_limit, case in quoted:
        assert limit == step_limit, (n, case)
        assert (n, step_limit, case) in steps, (n, step_limit, case)
    assert len(re.findall(r"\d\s+MB\b", readme)) == len(quoted)
