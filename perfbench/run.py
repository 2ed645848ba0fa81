"""End-to-end benchmark of the fairsurv command line.

Usage:
    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S --trace 0|1

Run from the repository root.  Each run generates its workload's input
cohort from ``--seed``, then drives the CLI from outside as a closed
loop with one client: one ``fairsurv decompose`` process at a time,
spawned, waited for and checked, until ``--seconds`` have passed (at
least one invocation).

``--trace 0`` reports the end-to-end metrics: medians over the run's
invocations of wall time, child CPU time and child peak RSS (both from
``os.wait4``), the share of invocations that passed every check, and
the median import time of ``fairsurv.cli`` in a fresh interpreter.
``--trace 1`` alternates plain invocations with traced ones (the CLI run
in-process under ``trace_child.py``) and reports the per-layer metrics.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before
it holds the run's details (input and artifact hashes, golden status,
every sample, machine info).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from importlib import metadata
from pathlib import Path

import numpy as np

import check
import inputs
from tracing import layer_metrics

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
GOLDEN_DIR = BENCH_DIR / "golden"

CLI_CODE = "import sys; from fairsurv.cli import main; sys.exit(main(sys.argv[1:]))"
IMPORT_CODE = "import fairsurv.cli"
SETUP_REPEATS = 3  # timed imports per run, after one untimed warm-up
RUN_LIMIT_S = 170.0  # a run must end within 180 s; children are killed past this

BASE_ARTIFACTS = ("decomposition.csv", "decomposition.json", "diagnostics.json")

END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
    "success_rate": "ratio",
}
PER_LAYER = {
    "scm.from_csv_s": "s",
    "scm.subset_s": "s",
    "scm.subset_calls": "count",
    "curves.product_limit_s": "s",
    "curves.product_limit_calls": "count",
    "nuisance.fit_survival_s": "s",
    "nuisance.fit_survival_calls": "count",
    "nuisance.fit_propensity_s": "s",
    "nuisance.fit_propensity_calls": "count",
    "dr.crossfit_calls": "count",
    "dr.nuisance_bundles": "count",
    "dr.influence_s": "s",
    "cge.bounded_s": "s",
    "cge.bounded_calls": "count",
    "cge.route2_self_s": "s",
    "copulas.generator_calls": "count",
    "decompose.self_s": "s",
    "cli.self_s": "s",
    "cli.artifact_hash_match": "count",
    "trace.overhead_s": "s",
}


@dataclass(frozen=True)
class Workload:
    make_input: object  # seed -> cohort CSV text
    argv: tuple  # CLI arguments before --cohort/--outdir
    artifacts: tuple


WORKLOADS = {
    "nic-dr-200k": Workload(
        lambda seed: inputs.spec_cohort_csv("example", 200_000, seed),
        ("decompose",), BASE_ARTIFACTS),
    "ic-dr-20k": Workload(
        lambda seed: inputs.spec_cohort_csv("example", 20_000, seed),
        ("decompose", "--mode", "ic", "--family", "clayton",
         "--tau", "0.2,0.5,0.8"),
        BASE_ARTIFACTS + tuple(f"envelope_tau{t}.csv" for t in ("0.2", "0.5", "0.8"))),
    "cr-dr-100k": Workload(
        lambda seed: inputs.spec_cohort_csv("cr_two_cause", 100_000, seed),
        ("decompose", "--mode", "cr"), BASE_ARTIFACTS),
    "tree-dr-500": Workload(
        lambda seed: inputs.continuous_cohort_csv(500, seed),
        ("decompose", "--learner", "logrank_tree_ensemble",
         "--propensity-learner", "logistic_irls", "--grid-points", "20"),
        BASE_ARTIFACTS),
}


@dataclass
class Sample:
    returncode: int
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    stderr: str


def machine_info():
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": metadata.version("scipy"),
        "platform": platform.platform(),
    }


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def spawn(cmd, cwd, deadline):
    """Run ``cmd`` to completion; wall time from spawn to exit, and the
    child's own CPU time and peak RSS from ``os.wait4``.  The child is
    killed at ``deadline`` (a ``time.perf_counter`` value)."""
    err_path = Path(cwd) / "stderr.txt"
    with open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=cwd, env=child_env(),
                                stdout=subprocess.DEVNULL, stderr=err)
        timer = threading.Timer(max(deadline - start, 1.0), proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Sample(proc.returncode, wall, usage.ru_utime + usage.ru_stime,
                  usage.ru_maxrss / 1024.0, err_path.read_text(errors="replace")[-2000:])


def load_golden(name, seed, input_sha):
    """Golden reference for (workload, seed) and a status string."""
    path = GOLDEN_DIR / f"{name}.json"
    seeds = json.loads(path.read_text())["seeds"] if path.is_file() else {}
    entry = seeds.get(str(seed))
    if entry is None:
        return None, "no reference for this seed"
    if entry["input_sha256"] != input_sha:
        return None, "reference was captured on a different input"
    return entry, "compared"


class Run:
    """One benchmark run of one workload in a private work directory."""

    def __init__(self, name, seed, work):
        self.work = work
        self.workload = WORKLOADS[name]
        self.deadline = time.perf_counter() + RUN_LIMIT_S
        text = self.workload.make_input(seed)
        (work / "cohort.csv").write_text(text)
        self.input_sha = check.sha256_file(work / "cohort.csv")
        self.golden, self.golden_status = load_golden(name, seed, self.input_sha)
        self.first_hashes = None
        self.attempted = 0
        self.failures = []

    def setup_times(self):
        cmd = [sys.executable, "-c", IMPORT_CODE]
        times = []
        for _ in range(SETUP_REPEATS + 1):
            sample = spawn(cmd, self.work, self.deadline)
            if sample.returncode != 0:
                raise RuntimeError(f"importing fairsurv.cli failed:\n{sample.stderr}")
            times.append(sample.wall_s)
        return times[1:]

    def invoke(self, traced=False):
        """One checked CLI invocation; returns (sample, check result)."""
        index = self.attempted
        self.attempted += 1
        outdir = f"out{index}"
        argv = [*self.workload.argv, "--cohort", "cohort.csv", "--outdir", outdir]
        if traced:
            cmd = [sys.executable, str(BENCH_DIR / "trace_child.py"),
                   f"spans{index}.json", *argv]
        else:
            cmd = [sys.executable, "-c", CLI_CODE, *argv]
        sample = spawn(cmd, self.work, self.deadline)
        result = check.check_invocation(sample.returncode, self.work / outdir,
                                        self.workload.artifacts, self.golden)
        if result["ok"]:
            if self.first_hashes is None:
                self.first_hashes = result["hashes"]
            elif result["hashes"] != self.first_hashes:
                result["ok"] = False
                result["reason"] = "artifacts differ from the run's first invocation"
        if not result["ok"]:
            self.failures.append({"invocation": index, "reason": result["reason"],
                                  "stderr": sample.stderr})
        shutil.rmtree(self.work / outdir, ignore_errors=True)
        return sample, result

    def spans(self, index):
        path = self.work / f"spans{index}.json"
        payload = json.loads(path.read_text())
        path.unlink()
        return [tuple(s) for s in payload["spans"]], payload["counts"]


def _median(values):
    return statistics.median(values) if values else 0.0


def run_workload(name, seed, seconds, trace):
    """Run one workload; returns (result line dict, details dict)."""
    work = ROOT / ".perfbench_work" / f"{name}-seed{seed}-pid{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        run = Run(name, seed, work)
        details = {"workload": name, "seed": seed,
                   "input_sha256": run.input_sha,
                   "golden": run.golden_status, "machine": machine_info()}
        if trace:
            metrics = _traced(run, seconds, details)
        else:
            metrics = _timed(run, seconds, details)
        details["failures"] = run.failures
        details["artifact_sha256"] = run.first_hashes
    finally:
        shutil.rmtree(work, ignore_errors=True)
    units = PER_LAYER if trace else END_TO_END
    line = {
        "correct": not run.failures,
        "attempted": run.attempted,
        "failed": len(run.failures),
        "metrics": {key: {"value": metrics[key], "unit": units[key]}
                    for key in units},
    }
    return line, details


def _timed(run, seconds, details):
    setup = run.setup_times()
    samples = []
    start = time.perf_counter()
    while not samples or time.perf_counter() - start < seconds:
        samples.append(run.invoke()[0])
    details["setup_s"] = setup
    details["samples"] = [vars(s) | {"stderr": None} for s in samples]
    return {
        "wall_s": _median([s.wall_s for s in samples]),
        "setup_s": _median(setup),
        "cpu_s": _median([s.cpu_s for s in samples]),
        "peak_rss_mb": _median([s.peak_rss_mb for s in samples]),
        "success_rate": (run.attempted - len(run.failures)) / run.attempted,
    }


def _traced(run, seconds, details):
    plain, traced, layers, hash_matches = [], [], [], []
    start = time.perf_counter()
    while not traced or time.perf_counter() - start < seconds:
        sample, result = run.invoke()
        plain.append(sample.wall_s)
        hash_matches.append(result["hash_matches"])
        index = run.attempted
        sample, result = run.invoke(traced=True)
        traced.append(sample.wall_s)
        if sample.returncode == 0:
            layers.append(layer_metrics(*run.spans(index)))
    metrics = {key: _median([m[key] for m in layers]) for key in PER_LAYER
               if key not in ("cli.artifact_hash_match", "trace.overhead_s")}
    counts = {key: sorted({m[key] for m in layers}) for key in metrics
              if PER_LAYER[key] == "count"}
    details["plain_wall_s"], details["traced_wall_s"] = plain, traced
    details["layers"] = layers
    details["repeatable_counts"] = all(len(v) <= 1 for v in counts.values())
    metrics["cli.artifact_hash_match"] = hash_matches[0]
    metrics["trace.overhead_s"] = _median(traced) - _median(plain)
    return metrics


def _table(results, units):
    names = list(results)
    rows = [["metric", "unit", *names]]
    for key, unit in units.items():
        rows.append([key, unit, *(f"{results[n][0]['metrics'][key]['value']:.6g}"
                                  for n in names)])
    if units is END_TO_END:
        rows.append(["error_rate", "ratio", *(
            f"{results[n][0]['failed'] / results[n][0]['attempted']:.6g}"
            for n in names)])
    widths = [max(len(r[i]) for r in rows) for i in range(len(rows[0]))]
    return "\n".join("  ".join(c.ljust(w) for c, w in zip(r, widths)) for r in rows)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    if not (ROOT / "src" / "fairsurv" / "cli.py").is_file():
        print(f"perfbench: no fairsurv sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {name: run_workload(name, args.seed, args.seconds, args.trace)
               for name in names}
    if args.workload == "all":
        print(_table(results, PER_LAYER if args.trace else END_TO_END))
        print(json.dumps({name: line for name, (line, _) in results.items()}))
    else:
        line, details = results[args.workload]
        print(json.dumps(details))
        print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
