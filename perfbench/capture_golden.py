"""Capture golden references for a workload over a range of seeds.

Usage (from the repository root):
    python3 perfbench/capture_golden.py --workload NAME --seeds 0-31

For each seed the workload's input is generated, the CLI is run once and
its outputs are checked (exit code, artifacts, tv identity).  The input
hash, every artifact's sha256 and the central estimates of every effect
table are stored in ``perfbench/golden/NAME.json``, replacing entries for
the same seeds.  Run it only on a commit whose outputs are known good,
and say so when references are replaced.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys

import check
import run


def capture(name, seed):
    work = run.ROOT / ".perfbench_work" / f"golden-{name}-seed{seed}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        bench = run.Run(name, seed, work)
        bench.golden = None
        sample, result = bench.invoke()
        if not result["ok"]:
            raise SystemExit(f"{name} seed {seed}: {result['reason']}\n{sample.stderr}")
        return {"input_sha256": bench.input_sha, "hashes": result["hashes"],
                "estimates": result["estimates"]}
    finally:
        shutil.rmtree(work, ignore_errors=True)


def write_golden(path, seeds):
    """One seed per line, so a recapture shows as a readable diff."""
    lines = ["{", f'"tolerance": {check.GOLDEN_TOL!r},', '"seeds": {']
    keys = sorted(seeds, key=int)
    for i, key in enumerate(keys):
        sep = "," if i < len(keys) - 1 else ""
        lines.append(f'"{key}": {json.dumps(seeds[key], sort_keys=True)}{sep}')
    lines += ["}", "}"]
    path.write_text("\n".join(lines) + "\n")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=list(run.WORKLOADS))
    parser.add_argument("--seeds", required=True, help="range such as 0-31")
    args = parser.parse_args(argv)
    first, _, last = args.seeds.partition("-")
    path = run.GOLDEN_DIR / f"{args.workload}.json"
    seeds = json.loads(path.read_text())["seeds"] if path.is_file() else {}
    run.GOLDEN_DIR.mkdir(exist_ok=True)
    for seed in range(int(first), int(last or first) + 1):
        seeds[str(seed)] = capture(args.workload, seed)
        print(f"{args.workload} seed {seed} captured", flush=True)
        write_golden(path, seeds)
    return 0


if __name__ == "__main__":
    sys.exit(main())
