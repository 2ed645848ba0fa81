"""Descriptors shared by the oracle and the estimators.

A potential-outcome query names which group drives each of the three
mechanisms: the outcome law, the mediator draw, and the conditioning
population.  A functional names the scale on which curves are reported.
Every decomposition rests on the same four queries and contrasts them in
the same four effect pairs; both tables, and the one cell format every
result table is written in, are defined here.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DataError

FUNCTIONAL_KINDS = (
    "survival",
    "cif",
    "rmst",
    "all_cause_survival",
    "cumulative_hazard",
)


@dataclass(frozen=True)
class PotentialOutcomeQuery:
    """E[outcome under arm `x_outcome` with mediators drawn under
    `x_mediator`, averaged over the group `x_condition`]."""

    x_outcome: int
    x_mediator: int
    x_condition: int

    def __post_init__(self):
        for v in (self.x_outcome, self.x_mediator, self.x_condition):
            if v not in (0, 1):
                raise DataError("query arms must be 0 or 1")

    @classmethod
    def observational(cls, x):
        """The factual query for group x: all three arms equal."""
        return cls(x, x, x)

    def as_tuple(self):
        return (self.x_outcome, self.x_mediator, self.x_condition)


@dataclass(frozen=True)
class Functional:
    """Outcome scale: survival, cause-specific incidence, restricted mean,
    all-cause survival, or cumulative hazard.

    For `cif` the cause label (1-based) is required.  For `rmst` the
    evaluation time is the integration horizon; an explicit `horizon`
    caps it, so curve values flatten beyond the cap.
    """

    kind: str = "survival"
    cause: int | None = None
    horizon: float | None = None

    def __post_init__(self):
        if self.kind not in FUNCTIONAL_KINDS:
            raise DataError(f"unknown functional kind {self.kind!r}")
        if self.kind == "cif":
            if self.cause is None or self.cause < 1:
                raise DataError("cif functional needs a cause label >= 1")
        elif self.cause is not None:
            raise DataError("cause only applies to the cif functional")
        if self.horizon is not None:
            if self.kind != "rmst":
                raise DataError("horizon only applies to the rmst functional")
            if not np.isfinite(self.horizon) or self.horizon <= 0.0:
                raise DataError("rmst horizon must be positive and finite")

    @property
    def curve_kind(self):
        """StepCurve kind appropriate for curves on this scale."""
        return {
            "survival": "survival",
            "cif": "cif",
            "rmst": "generic",
            "all_cause_survival": "survival",
            "cumulative_hazard": "hazard",
        }[self.kind]


# The four queries every decomposition rests on, written as role triples
# where 1 stands for the target group x1 and 0 for the baseline x0.
_ROLES = ((0, 0, 0), (1, 0, 0), (1, 1, 0), (1, 1, 1))

# Each effect contrasts a positive and a negative query of the four.
_EFFECT_PAIRS = {
    "tv": ((1, 1, 1), (0, 0, 0)),
    "direct": ((1, 0, 0), (0, 0, 0)),
    "indirect": ((1, 0, 0), (1, 1, 0)),
    "spurious": ((1, 1, 0), (1, 1, 1)),
}

EFFECT_NAMES = tuple(_EFFECT_PAIRS)


def _role_query(roles, x0, x1):
    return PotentialOutcomeQuery(*(x1 if r else x0 for r in roles))


def role_queries(x0, x1):
    """The four decomposition queries for baseline x0 and target x1."""
    return [_role_query(r, x0, x1) for r in _ROLES]


def effect_contrasts(values, x0, x1, contrast):
    """{effect name: contrast(positive, negative)} over `values`, a map
    from each of the four queries to whatever the contrast consumes."""
    return {name: contrast(values[_role_query(pos, x0, x1)],
                           values[_role_query(neg, x0, x1)])
            for name, (pos, neg) in _EFFECT_PAIRS.items()}


def _cell(value):
    if value is None:
        return ""
    return value if isinstance(value, str) else "%.12g" % value


def table_csv(header, blocks, header_comment=None):
    """Long-format CSV text: an optional `# comment` line, the `header`
    line, then one row per grid point of each block.

    A block is a list of columns whose first is the time grid; every
    later column is aligned with it or is one value repeated down the
    block.  Numbers are written with 12 significant digits, strings as
    they are, and None as an empty cell.
    """
    lines = [f"# {header_comment}"] if header_comment else []
    lines.append(header)
    for block in blocks:
        n = len(block[0])
        columns = [[_cell(col)] * n if np.ndim(col) == 0
                   else [_cell(v) for v in col] for col in block]
        lines.extend(",".join(row) for row in zip(*columns))
    return "\n".join(lines) + "\n"
