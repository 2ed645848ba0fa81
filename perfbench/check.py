"""Correctness checks on the artifacts of one CLI invocation.

An invocation fails when its exit code is not 0, an expected artifact is
missing, ``tv = direct - indirect - spurious`` is off by more than
IDENTITY_TOL in any effect block of ``decomposition.json``, or an
estimate differs from the golden reference by more than GOLDEN_TOL.
Artifact hashes are compared with the golden ones too, but a mismatch
is only counted, never a failure.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

EFFECTS = ("tv", "direct", "indirect", "spurious")
IDENTITY_TOL = 1e-12
# absolute drift allowed per estimate; wide enough for last-digit changes
# in float summation order, far below any change in what is estimated
GOLDEN_TOL = 1e-9


def sha256_file(path):
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def effect_blocks(payload, path=""):
    """Every ``{tv, direct, indirect, spurious}`` table in a decomposition
    JSON, keyed by its path: one for nic, one per cause in cr, one per
    tau in ic (central estimates)."""
    if not isinstance(payload, dict):
        return {}
    if all(isinstance(payload.get(name), dict) for name in EFFECTS):
        return {path: {name: payload[name]["estimate"] for name in EFFECTS}}
    found = {}
    for key in sorted(payload):
        found.update(effect_blocks(payload[key], f"{path}/{key}"))
    return found


def identity_gap(blocks):
    """Largest |tv - (direct - indirect - spurious)| over all blocks."""
    gap = 0.0
    for block in blocks.values():
        for tv, d, i, s in zip(*(block[name] for name in EFFECTS)):
            gap = max(gap, abs(tv - (d - i - s)))
    return gap


def golden_drift(blocks, golden_blocks):
    """Largest |estimate - golden| (inf when the tables do not line up)."""
    if set(blocks) != set(golden_blocks):
        return float("inf")
    drift = 0.0
    for key, block in blocks.items():
        for name in EFFECTS:
            ours, ref = block[name], golden_blocks[key][name]
            if len(ours) != len(ref):
                return float("inf")
            drift = max([drift] + [abs(a - b) for a, b in zip(ours, ref)])
    return drift


def check_invocation(returncode, outdir, artifacts, golden=None):
    """Check one invocation's outputs.

    ``golden`` is the reference for this workload and seed
    (``{"hashes": ..., "estimates": ...}``) or None when none exists.
    Returns a dict with ``ok``, the failure ``reason`` if any, the
    artifact ``hashes``, ``hash_matches`` (count equal to golden) and the
    ``estimates`` read from ``decomposition.json``.
    """
    result = {"ok": False, "reason": None, "hashes": {}, "hash_matches": 0,
              "estimates": {}}
    if returncode != 0:
        result["reason"] = f"exit code {returncode}"
        return result
    outdir = Path(outdir)
    missing = [name for name in artifacts if not (outdir / name).is_file()]
    if missing:
        result["reason"] = f"missing artifacts {missing}"
        return result
    result["hashes"] = {name: sha256_file(outdir / name) for name in artifacts}
    try:
        blocks = effect_blocks(json.loads((outdir / "decomposition.json").read_text()))
    except ValueError as exc:
        result["reason"] = f"decomposition.json unreadable: {exc}"
        return result
    result["estimates"] = blocks
    if not blocks:
        result["reason"] = "decomposition.json has no effect table"
        return result
    gap = identity_gap(blocks)
    if not gap <= IDENTITY_TOL:
        result["reason"] = f"tv identity off by {gap:.3g}"
        return result
    if golden is not None:
        drift = golden_drift(blocks, golden["estimates"])
        if not drift <= GOLDEN_TOL:
            result["reason"] = f"estimates drift {drift:.3g} from golden"
            return result
        result["hash_matches"] = sum(
            golden["hashes"].get(name) == digest
            for name, digest in result["hashes"].items())
    result["ok"] = True
    return result
