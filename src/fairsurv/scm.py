"""Discrete structural causal model simulator and its exact oracle.

The model follows the standard two-group layout: group label X in {0, 1}
with confounders Z (association with X left unrestricted), mediators W
drawn given (X, Z), latent event times for one or more causes drawn given
(X, Z, W), and a latent censoring time.  Event and censoring times may be
independent given covariates or coupled through an Archimedean copula on
the survival scale.  All laws live on finite grids, so every population
functional is computable by exact enumeration; the `oracle_*` functions
are the ground truth the estimator tests compare against.
"""

from __future__ import annotations

import csv
import io
import itertools
import json
import math

import numpy as np

from .copulas import CopulaSpec, sample_uniform_pairs
from .curves import StepCurve, restricted_means
from .errors import (
    CohortSchemaError,
    DataError,
    DegenerateGroupError,
    EmptyCohortError,
    SpecValidationError,
)
from .queries import PotentialOutcomeQuery, effect_contrasts, role_queries

_PROB_TOL = 1e-12


def _canonical_value(v):
    """Coerce numpy scalars to plain python so table keys hash stably."""
    if isinstance(v, np.generic):
        v = v.item()
    if isinstance(v, bool):
        return int(v)
    return v


def _check_distribution(table, name):
    total = 0.0
    for key, p in table.items():
        if not np.isfinite(p) or p < -_PROB_TOL:
            raise SpecValidationError(f"{name}: negative or non-finite mass at {key!r}")
        total += p
    if abs(total - 1.0) > _PROB_TOL:
        raise SpecValidationError(f"{name}: masses sum to {total!r}, not 1")


def _canonical_law(law, name):
    """Sort a {time: prob} law, validate the grid, return (times, probs)."""
    times = []
    for t in law:
        t = float(t)
        if math.isnan(t) or t < 0.0:
            raise SpecValidationError(f"{name}: time grid must be nonnegative")
        times.append(t)
    if len(set(times)) != len(times):
        raise SpecValidationError(f"{name}: duplicate time grid entries")
    order = np.argsort(times)
    t_arr = np.asarray(times, dtype=float)[order]
    p_arr = np.asarray([law[k] for k in law], dtype=float)[order]
    _check_distribution(dict(zip(t_arr.tolist(), p_arr.tolist())), name)
    return t_arr, p_arr


class SCMSpec:
    """Full parameterization of the simulator.

    Parameters
    ----------
    z_support, w_support : sequences of hashable values.
    p_xz : dict {(x, z): prob}, the joint law of group and confounder.
    p_w_given_xz : dict {(x, z): {w: prob}}.
    event_laws : dict {(x, z, w): {time: prob}} for a single cause, or a
        list of such dicts for competing causes (cause k = list index + 1).
        Time grids may include math.inf for never-occurring mass.
    censor_law : dict {(x, z, w): {time: prob}}.
    coupling : CopulaSpec or None (independent censoring).  Dependent
        coupling is only supported with a single cause.
    """

    def __init__(self, z_support, w_support, p_xz, p_w_given_xz,
                 event_laws, censor_law, coupling=None):
        self.z_support = [_canonical_value(z) for z in z_support]
        self.w_support = [_canonical_value(w) for w in w_support]
        if len(set(map(str, self.z_support))) != len(self.z_support):
            raise SpecValidationError("z support values collide when rendered")
        if len(set(map(str, self.w_support))) != len(self.w_support):
            raise SpecValidationError("w support values collide when rendered")

        self.p_xz = {
            (int(x), _canonical_value(z)): float(p) for (x, z), p in p_xz.items()
        }
        _check_distribution(self.p_xz, "p_xz")
        for x, z in self.p_xz:
            if x not in (0, 1) or z not in self.z_support:
                raise SpecValidationError(f"p_xz key ({x}, {z!r}) outside supports")

        self.p_w_given_xz = {}
        for x in (0, 1):
            for z in self.z_support:
                if (x, z) not in p_w_given_xz:
                    raise SpecValidationError(f"p_w_given_xz missing stratum ({x}, {z!r})")
                tab = {
                    _canonical_value(w): float(p)
                    for w, p in p_w_given_xz[(x, z)].items()
                }
                for w in tab:
                    if w not in self.w_support:
                        raise SpecValidationError(f"mediator value {w!r} outside support")
                _check_distribution(tab, f"p_w_given_xz[{x},{z!r}]")
                self.p_w_given_xz[(x, z)] = tab

        if isinstance(event_laws, dict):
            event_laws = [event_laws]
        self.n_causes = len(event_laws)
        if self.n_causes < 1:
            raise SpecValidationError("at least one cause is required")

        self._event = []  # per cause: {(x,z,w): (times, probs)}
        for k, law_table in enumerate(event_laws, start=1):
            canon = {}
            for x, z, w in self.strata():
                if (x, z, w) not in law_table:
                    raise SpecValidationError(
                        f"event law (cause {k}) missing stratum ({x}, {z!r}, {w!r})"
                    )
                canon[(x, z, w)] = _canonical_law(
                    law_table[(x, z, w)], f"event law cause {k} ({x},{z!r},{w!r})"
                )
            self._event.append(canon)

        self._censor = {}
        for x, z, w in self.strata():
            if (x, z, w) not in censor_law:
                raise SpecValidationError(f"censor law missing stratum ({x}, {z!r}, {w!r})")
            self._censor[(x, z, w)] = _canonical_law(
                censor_law[(x, z, w)], f"censor law ({x},{z!r},{w!r})"
            )

        if coupling is None:
            coupling = CopulaSpec("independence", 0.0)
        if not isinstance(coupling, CopulaSpec):
            raise SpecValidationError("coupling must be a CopulaSpec")
        if coupling.family != "independence" and self.n_causes != 1:
            raise SpecValidationError(
                "dependent event-censoring coupling requires a single cause"
            )
        self.coupling = coupling

    # -- bookkeeping ---------------------------------------------------------

    def strata(self):
        """All (x, z, w) cells in a fixed deterministic order."""
        return [
            (x, z, w)
            for x in (0, 1)
            for z in self.z_support
            for w in self.w_support
        ]

    def group_probability(self, x):
        return sum(p for (xx, _), p in self.p_xz.items() if xx == x)

    def confounder_given_group(self, x):
        px = self.group_probability(x)
        if px <= 0.0:
            raise DegenerateGroupError(f"group {x} has zero probability")
        return {z: self.p_xz.get((x, z), 0.0) / px for z in self.z_support}

    # -- conditional laws ----------------------------------------------------

    def _law(self, which, x, z, w):
        if which == "censor":
            return self._censor[(x, z, w)]
        return self._event[which - 1][(x, z, w)]

    def conditional_survival(self, x, z, w, cause=1):
        """P(T_cause > t | x, z, w) as a step curve on the finite atoms;
        cause "censor" reads the censoring law."""
        times, probs = self._law(cause, x, z, w)
        finite = np.isfinite(times)
        surv = 1.0 - np.cumsum(probs[finite])
        surv = np.clip(surv, 0.0, 1.0)
        return StepCurve(times[finite], surv, value_at_zero=1.0, kind="survival")

    def _law_hazard(self, which, x, z, w):
        """Finite atoms u of a law with positive mass, and its discrete
        hazard P(T = u) / P(T >= u) at each, from the law's masses."""
        times, probs = self._law(which, x, z, w)
        finite = np.isfinite(times) & (probs > 0)
        t = times[finite]
        p = probs[finite]
        at_risk = 1.0 - np.concatenate(([0.0], np.cumsum(p)[:-1]))
        return t, p / at_risk

    def conditional_cif(self, x, z, w, cause):
        """P(cause wins by t | x, z, w) by enumeration over cause products.

        Competing causes are independent given covariates; ties go to the
        lowest cause index, matching the sampler.
        """
        if not 1 <= cause <= self.n_causes:
            raise DataError("cause outside the declared range")
        per_cause = [
            list(zip(*self._law(k, x, z, w)))
            for k in range(1, self.n_causes + 1)
        ]
        mass = {}
        for combo in itertools.product(*per_cause):
            times = [c[0] for c in combo]
            prob = math.prod(c[1] for c in combo)
            if prob == 0.0:
                continue
            t_min = min(times)
            if not np.isfinite(t_min):
                continue
            winner = times.index(t_min) + 1  # lowest index wins ties
            if winner == cause:
                mass[t_min] = mass.get(t_min, 0.0) + prob
        if not mass:
            return StepCurve([], [], value_at_zero=0.0, kind="cif")
        t_sorted = sorted(mass)
        cif = np.cumsum([mass[t] for t in t_sorted])
        return StepCurve(t_sorted, np.clip(cif, 0.0, 1.0), value_at_zero=0.0, kind="cif")

    def conditional_all_cause_survival(self, x, z, w):
        """P(min_k T_k > t | x, z, w); product form over independent causes."""
        grids = [self.conditional_survival(x, z, w, k) for k in range(1, self.n_causes + 1)]
        pts = np.unique(np.concatenate([g.breakpoints for g in grids]))
        if pts.size == 0:
            return StepCurve([], [], value_at_zero=1.0, kind="survival")
        vals = np.ones_like(pts)
        for g in grids:
            vals = vals * g.evaluate(pts)
        return StepCurve(pts, vals, value_at_zero=1.0, kind="survival")

    def conditional_cum_hazard(self, x, z, w):
        """Discrete cumulative hazard sum_{u<=t} P(T=u)/P(T>=u); one cause only."""
        if self.n_causes != 1:
            raise DataError("cumulative hazard functional requires a single cause")
        t, hazard = self._law_hazard(1, x, z, w)
        return StepCurve(t, np.cumsum(hazard), value_at_zero=0.0, kind="hazard")

    def functional_values(self, x, z, w, functional, t_arr):
        """E[functional at each t | x, z, w], exact; expects a 1-d grid."""
        t_arr = np.atleast_1d(np.asarray(t_arr, dtype=float))
        kind = functional.kind
        if kind == "survival":
            return self.conditional_survival(x, z, w).evaluate(t_arr)
        if kind == "cif":
            return self.conditional_cif(x, z, w, functional.cause).evaluate(t_arr)
        if kind == "all_cause_survival":
            return self.conditional_all_cause_survival(x, z, w).evaluate(t_arr)
        if kind == "cumulative_hazard":
            return self.conditional_cum_hazard(x, z, w).evaluate(t_arr)
        # rmst: integrate survival up to min(t, horizon)
        return restricted_means(self.conditional_survival(x, z, w), t_arr,
                                functional.horizon)

    # -- serialization -------------------------------------------------------

    def to_json(self, indent=2):
        def law_out(canon):
            return {
                f"{x}|{z}|{w}": {repr(float(t)): float(p) for t, p in zip(*canon[(x, z, w)])}
                for (x, z, w) in self.strata()
            }

        payload = {
            "z_support": self.z_support,
            "w_support": self.w_support,
            "p_xz": {f"{x}|{z}": p for (x, z), p in sorted(self.p_xz.items(), key=str)},
            "p_w_given_xz": {
                f"{x}|{z}": {str(w): p for w, p in tab.items()}
                for (x, z), tab in sorted(self.p_w_given_xz.items(), key=str)
            },
            "censor_law": law_out(self._censor),
            "coupling": {
                "family": self.coupling.family,
                "kendall_tau": self.coupling.kendall_tau,
            },
        }
        if self.n_causes == 1:
            payload["event_law"] = law_out(self._event[0])
        else:
            payload["event_laws"] = [law_out(c) for c in self._event]
        return json.dumps(payload, sort_keys=True, indent=indent)

    @classmethod
    def from_json(cls, text):
        try:
            payload = json.loads(text)
        except json.JSONDecodeError as exc:
            raise SpecValidationError(f"spec is not valid JSON: {exc}") from exc
        z_support = payload.get("z_support")
        w_support = payload.get("w_support")
        if z_support is None or w_support is None:
            raise SpecValidationError("spec must declare z_support and w_support")
        z_lookup = {str(z): _canonical_value(z) for z in z_support}
        w_lookup = {str(w): _canonical_value(w) for w in w_support}

        def xz_key(key):
            x_str, z_str = key.split("|", 1)
            return int(x_str), z_lookup[z_str]

        def xzw_key(key):
            x_str, z_str, w_str = key.split("|", 2)
            return int(x_str), z_lookup[z_str], w_lookup[w_str]

        def law_in(table):
            return {
                xzw_key(k): {float(t): p for t, p in sub.items()}
                for k, sub in table.items()
            }

        p_xz = {xz_key(k): p for k, p in payload["p_xz"].items()}
        p_w = {
            xz_key(k): {w_lookup[w]: p for w, p in sub.items()}
            for k, sub in payload["p_w_given_xz"].items()
        }
        if "event_laws" in payload:
            event = [law_in(tab) for tab in payload["event_laws"]]
        else:
            event = law_in(payload["event_law"])
        censor = law_in(payload["censor_law"])
        coupling = None
        if "coupling" in payload:
            coupling = CopulaSpec(
                payload["coupling"].get("family", "independence"),
                payload["coupling"].get("kendall_tau", 0.0),
            )
        return cls(z_support, w_support, p_xz, p_w, event, censor, coupling)


# ---------------------------------------------------------------------------
# Cohort
# ---------------------------------------------------------------------------

def _canonical_item(v):
    """One covariate entry as a hashable key: a scalar, or a tuple for the
    multi-column layout."""
    if isinstance(v, (tuple, list)):
        return tuple(_canonical_value(u) for u in v)
    return _canonical_value(v)


def _dedupe(items):
    """Codes of hashable items, in order of first appearance, plus a
    read-only code -> value table.  Equal items share a code even across
    types (1 and 1.0) and the table keeps the first one seen."""
    seen = {}  # item -> index of the first row holding an equal item
    try:
        first = np.fromiter(map(seen.setdefault, items, itertools.count()),
                            dtype=np.intp, count=len(items))
    except TypeError as exc:
        raise CohortSchemaError(
            f"covariate entries must be hashable: {exc}") from exc
    heads, codes = np.unique(first, return_inverse=True)
    table = np.fromiter((items[i] for i in heads.tolist()), dtype=object,
                        count=heads.size)
    table.flags.writeable = False
    return codes.reshape(-1), table


def _encode(column, n, name):
    """(codes, value table) of one covariate column or 2-d block; the
    one place covariate entries are canonicalized."""
    if isinstance(column, np.ndarray):
        if column.ndim == 2 and column.shape[1] == 1:
            column = column[:, 0]
        column = column.tolist()
    items = [_canonical_item(v) for v in column]
    if len(items) != n:
        raise CohortSchemaError(f"{name} column length mismatch")
    return _dedupe(items)


def _parse_token(token):
    token = token.strip()
    try:
        return int(token)
    except ValueError:
        pass
    try:
        return float(token)
    except ValueError:
        return token


def _parse_numbers(tokens, kind, name):
    """A column's tokens parsed by ``kind``.  An int column parses each
    distinct token once, in order of first appearance, so the first
    invalid one is still the one reported; times seldom repeat and are
    parsed token by token."""
    try:
        if kind is int:
            distinct = dict.fromkeys(tokens)
            parsed = dict(zip(distinct, np.fromiter(
                map(int, distinct), dtype=int, count=len(distinct)).tolist()))
            return np.fromiter(map(parsed.__getitem__, tokens), dtype=int,
                               count=len(tokens))
        return np.fromiter(map(kind, tokens), dtype=kind, count=len(tokens))
    except (ValueError, OverflowError) as exc:
        raise CohortSchemaError(
            f"cohort CSV column {name!r} holds an invalid number: {exc}"
        ) from exc


def _parse_covariate(columns):
    """(codes, value table) of a z or w block from its token columns: what
    `_dedupe` gives over the rows' parsed entries (one value per row, or a
    tuple per row for a multi-column block), parsing each distinct token
    once.  A column holding a NaN is parsed row by row instead: a NaN
    equals nothing, so each NaN row keeps its own code."""
    parsed = []
    for column in columns:
        memo = {token: _parse_token(token) for token in set(column)}
        if any(v != v for v in memo.values()):
            parsed.append(list(map(_parse_token, column)))
        else:
            parsed.append(list(map(memo.__getitem__, column)))
    return _dedupe(parsed[0] if len(parsed) == 1 else list(zip(*parsed)))


def _csv_cells(text):
    """Header fields, the set of data row widths, and every data cell in
    one row-major list.  Blank lines and lines starting with "#" are
    skipped.  Text without a quote character is split on commas in bulk,
    which is what csv.reader makes of it; anything else (quoted fields, a
    line past the csv module's field limit) goes through csv.reader."""
    lines = [ln for ln in text.splitlines()
             if ln.strip() and not ln.startswith("#")]
    if not lines:
        raise EmptyCohortError("cohort CSV has no rows")
    if '"' in text or max(map(len, lines)) > csv.field_size_limit():
        try:
            rows = list(csv.reader(lines))
        except csv.Error as exc:
            raise CohortSchemaError(f"cohort CSV is malformed: {exc}") from exc
        return (rows[0], set(map(len, rows[1:])),
                list(itertools.chain.from_iterable(rows[1:])))
    header, body = lines[0].split(","), lines[1:]
    del lines
    widths = {commas + 1
              for commas in set(map(str.count, body, itertools.repeat(",")))}
    joined = ",".join(body)
    del body
    return header, widths, joined.split(",")


# The most digits of a token `_numeric_table` parses: any 18 fit in an
# int64.
_TOKEN_DIGITS = 18
# 10.0 ** k for every count k of decimal places a token may hold; each
# is exact, as every power of ten up to 10 ** 22 is.
_POWERS_OF_TEN = np.array([float(10 ** k) for k in range(_TOKEN_DIGITS + 1)])
# A float holds every integer of at most this size exactly, and a
# quotient of exact floats is correctly rounded: such a mantissa over an
# exact power of ten is float(token) to the bit (Clinger's fast path).
_EXACT_MANTISSA = 2 ** 53
_NEWLINES_TO_COMMAS = bytes.maketrans(b"\n", b",")


def _numeric_table(text):
    """The numbers of a cohort CSV whose body, everything after the
    header line, is nothing but numeric tokens, commas and "\\n": every
    line as wide as the header, every token an optional leading "-" and
    1 to 18 ASCII digits with at most one "." among them, and no token
    with a "." past 2 ** 53 in size once the "." is dropped; None for any
    other text.

    Returns the header `_csv_cells` finds, the rows x header-width int64
    table of the tokens' mantissas (each token without its ".", so "2.50"
    reads 250 and "-0" reads 0), parsed by one numpy call, and a dict
    from each column holding a "." or a "-" to a pair: every token's
    float(token), and a mask of the tokens holding a ".".  A token with
    "." reads as a float, any other as an int."""
    start = 0
    while True:  # skip blank and "#" lines, as `_csv_cells` does
        end = text.find("\n", start)
        if end < 0:
            return None
        line = text[start:end]
        if line.strip() and not line.startswith("#"):
            break
        start = end + 1
    head = text[:end + 1]
    if ('"' in line or len(line) > csv.field_size_limit()
            or head.splitlines() != head.split("\n")[:-1]):
        return None
    header = line.split(",")
    body = text[end + 1:]
    if not body.isascii():
        return None
    body = body.encode("ascii")
    if body.translate(None, b"0123456789,\n.-"):
        return None
    if not body.endswith(b"\n"):
        body += b"\n"
    chars = np.frombuffer(body, dtype=np.uint8)
    ends = np.flatnonzero(chars <= ord(","))  # each token's separator
    width = len(header)
    rows = ends.size // width
    # a "\n" ends every width-th token and no other
    if (ends.size % width or body.count(b"\n") != rows
            or np.any(chars[ends[width - 1::width]] != ord("\n"))):
        return None
    dots = np.flatnonzero(chars == ord("."))
    minus = np.flatnonzero(chars == ord("-"))
    dotted = np.searchsorted(ends, dots)  # the token of each "."
    signed = np.searchsorted(ends, minus)
    # a "-" leads its token (the body ends in "\n", so chars[-1] does
    # for a "-" at 0), and no token holds two "."
    if (np.any(chars[minus - 1] > ord(","))
            or np.any(dotted[1:] == dotted[:-1])):
        return None
    digits = np.empty_like(ends)
    digits[0] = ends[0] + 1
    np.subtract(ends[1:], ends[:-1], out=digits[1:])
    digits -= 1
    digits[dotted] -= 1
    digits[signed] -= 1
    if digits.min() < 1 or digits.max() > _TOKEN_DIGITS:
        return None
    del digits
    mantissas = np.fromstring(body.translate(_NEWLINES_TO_COMMAS, b"."),
                              dtype=np.int64, sep=",")
    if np.abs(mantissas[dotted]).max(initial=0) > _EXACT_MANTISSA:
        return None
    mantissas = mantissas.reshape(rows, width)
    places = ends[dotted] - dots - 1
    dot_rows, dot_cols = np.divmod(dotted, width)
    minus_rows, minus_cols = np.divmod(signed, width)
    decimals = {}
    for col in np.flatnonzero(np.bincount(np.concatenate(
            (dot_cols, minus_cols)), minlength=width)).tolist():
        floats = mantissas[:, col].astype(float)
        at = dot_rows[dot_cols == col]
        floats[at] /= _POWERS_OF_TEN[places[dot_cols == col]]
        at_minus = minus_rows[minus_cols == col]  # "-0" and "-0.0" too
        floats[at_minus] = np.copysign(floats[at_minus], -1.0)
        mask = np.zeros(rows, dtype=bool)
        mask[at] = True
        decimals[col] = floats, mask
    return header, mantissas, decimals


def _float_key(floats, mantissas):
    """int64 keys of a `_numeric_table` column, equal where the tokens'
    numbers are: the bits of each float once -0.0 reads 0.0, or for an
    int past 2 ** 53 in size, which equals no float of the column (each
    at most 2 ** 53 in size), the int itself.  No float's bits take such
    an int's value: any float of 18 decimal places or fewer but 0.0 has
    bits past 4e18 in size, any int token is below 1e18."""
    key = (floats + 0.0).view(np.int64)
    big = np.abs(mantissas) > _EXACT_MANTISSA
    key[big] = mantissas[big]
    return key


def _numeric_covariate(mantissas, decimals, cols):
    """What `_parse_covariate` gives for the z or w columns ``cols`` of a
    `_numeric_table`: codes in order of first appearance and a read-only
    table of each code's first entry, a Python int or float as its token
    reads (a tuple of them when the block has several columns)."""
    keys = [mantissas[:, c] if c not in decimals else _float_key(
        decimals[c][0], mantissas[:, c]) for c in cols]
    key = keys[0] if len(keys) == 1 else np.unique(
        np.column_stack(keys), axis=0, return_inverse=True)[1].reshape(-1)
    if key.min() >= 0:  # in the smallest type, which a few values make
        key = key.astype(np.min_scalar_type(int(key.max())))  # quick to sort
    codes, first = _first_appearance(key)
    entries = []
    for c in cols:
        values = mantissas[first, c].tolist()
        if c in decimals:
            floats, dotted = decimals[c]
            values = [f if d else v for v, f, d in zip(
                values, floats[first].tolist(), dotted[first].tolist())]
        entries.append(values)
    table = np.fromiter(entries[0] if len(cols) == 1 else zip(*entries),
                        dtype=object, count=first.size)
    table.flags.writeable = False
    return codes, table


# Largest cell key `Cohort.cells` builds before it renumbers the key.
_KEY_LIMIT = np.iinfo(np.int64).max


def _first_appearance(key):
    """Codes of an integer key array numbered in order of first
    appearance, and the first row of each code."""
    _, first, inverse = np.unique(key, return_index=True, return_inverse=True)
    order = np.argsort(first)
    return np.argsort(order)[inverse.reshape(-1)], first[order]


def cell_members(ids, n_cells):
    """Row indices of every cell, each ascending, as a list of arrays."""
    order = np.argsort(ids, kind="stable")
    return np.split(order, np.cumsum(np.bincount(ids, minlength=n_cells))[:-1])


class Cohort:
    """Observed rows: group, confounders, mediators, time, event label.

    delta = 0 marks censoring; labels 1..K mark event causes.  Confounder
    and mediator entries are hashable scalars, or tuples for the
    multi-column layout.  Each column is encoded once, at construction,
    as integer codes (``z_codes``, ``w_codes``) plus a read-only
    code -> canonical value table (``z_values``, ``w_values``); equal
    entries (1 and 1.0) share a code.  The times ``m`` keep the given
    floats and are encoded once too: ``m_codes`` ranks each row among the
    ascending distinct times ``m_times`` (where -0.0 reads 0.0), in the
    smallest unsigned type.  Subsets and recodes slice the codes and share
    the tables, which may hold entries that none of a subset's rows has.
    ``z_items``/``w_items`` rebuild the per-row values on demand, and
    `cells` numbers each key once per cohort (a subset is a new cohort).
    """

    def __init__(self, x, z, w, m, delta, n_causes=None):
        x = np.asarray(x, dtype=int)
        self._assign(x, _encode(z, x.size, "z"), _encode(w, x.size, "w"), m,
                     delta, n_causes)

    @classmethod
    def _from_codes(cls, x, *fields):
        """Cohort over encoded (codes, table) pairs z, w and maybe m_coded."""
        cohort = cls.__new__(cls)
        cohort._assign(np.asarray(x, dtype=int), *fields)
        return cohort

    def _assign(self, x, z, w, m, delta, n_causes, m_coded=None):
        n = x.size
        if n == 0:
            raise EmptyCohortError("cohort has no rows")
        if np.any((x != 0) & (x != 1)):
            raise CohortSchemaError("group labels must be 0 or 1")
        self.x = x
        self.z_codes, self.z_values = z
        self.w_codes, self.w_values = w
        self.m = np.asarray(m, dtype=float)
        self.delta = np.asarray(delta, dtype=int)
        if self.m.shape != (n,) or self.delta.shape != (n,):
            raise CohortSchemaError("m and delta must align with x")
        if np.any(~np.isfinite(self.m)) or np.any(self.m < 0.0):
            raise CohortSchemaError("observed times must be finite and nonnegative")
        if np.any(self.delta < 0):
            raise CohortSchemaError("delta must be a nonnegative integer")
        inferred = max(1, int(self.delta.max(initial=0)))
        self.n_causes = int(n_causes) if n_causes is not None else inferred
        if self.n_causes < 1:
            raise CohortSchemaError("the number of causes must be at least 1")
        if self.n_causes < inferred:
            raise CohortSchemaError("delta exceeds the declared number of causes")
        if m_coded is None:  # after the checks: no NaN reaches np.unique
            times, codes = np.unique(self.m, return_inverse=True)
            times += 0.0  # -0.0 + 0.0 is 0.0
            times.flags.writeable = False
            m_coded = codes.astype(np.min_scalar_type(times.size - 1)), times
        self.m_codes, self.m_times = m_coded
        self._cells = {}  # by -> (ids, first), numbered on first request

    @property
    def n(self):
        return self.x.size

    @property
    def z_items(self):
        """Per-row confounder values (a fresh list)."""
        return self.z_values[self.z_codes].tolist()

    @property
    def w_items(self):
        """Per-row mediator values (a fresh list)."""
        return self.w_values[self.w_codes].tolist()

    def subset(self, index):
        idx = np.asarray(index)
        if idx.dtype == bool:
            idx = np.flatnonzero(idx)
        return Cohort._from_codes(
            self.x[idx],
            (self.z_codes[idx], self.z_values),
            (self.w_codes[idx], self.w_values),
            self.m[idx],
            self.delta[idx],
            self.n_causes,
            (self.m_codes[idx], self.m_times),
        )

    def censoring_as_cause(self):
        """Single-cause cohort with censoring recoded as a second cause,
        so every row is fully observed."""
        if self.n_causes != 1:
            raise DataError(
                "informative-censoring reconstruction covers a single event "
                "type")
        return Cohort._from_codes(
            self.x, (self.z_codes, self.z_values),
            (self.w_codes, self.w_values), self.m,
            np.where(self.delta == 1, 1, 2), 2, (self.m_codes, self.m_times))

    def cells(self, by):
        """Cell id of every row over the columns named in ``by``, any of
        "x", "z", "w", "d" (the event label) and "m" (the observed time),
        numbered in order of first appearance, plus the first row of each
        cell.  Each ``by`` is numbered once per cohort: every call returns
        the same two read-only arrays, the ids in the smallest unsigned
        type that holds the cell count (cast them before adding a number
        they may not hold)."""
        if by in self._cells:
            return self._cells[by]
        columns = {"x": (self.x, 2),
                   "z": (self.z_codes, len(self.z_values)),
                   "w": (self.w_codes, len(self.w_values)),
                   "d": (self.delta, self.n_causes + 1),
                   "m": (self.m_codes, len(self.m_times))}
        key, bound = np.zeros(self.n, dtype=np.int64), 1  # key < bound
        for name in by:
            codes, size = columns[name]
            if bound * size > _KEY_LIMIT:  # renumber the key densely first
                distinct, key = np.unique(key, return_inverse=True)
                bound = distinct.size
            key = key * size + codes
            bound *= size
        # in the smallest type, which a few cells make quick to sort
        ids, first = _first_appearance(
            key.astype(np.min_scalar_type(bound - 1)))
        ids = ids.astype(np.min_scalar_type(first.size))
        ids.flags.writeable = first.flags.writeable = False
        return self._cells.setdefault(by, (ids, first))

    # -- CSV ------------------------------------------------------------------

    @staticmethod
    def _width(values):
        first = values[0]
        return len(first) if isinstance(first, tuple) else 1

    def to_csv(self, header_comment=None):
        pz, pw = self._width(self.z_values), self._width(self.w_values)
        z_cols = ["z"] if pz == 1 else [f"z{i + 1}" for i in range(pz)]
        w_cols = ["w"] if pw == 1 else [f"w{i + 1}" for i in range(pw)]
        buf = io.StringIO()
        if header_comment:
            buf.write(f"# {header_comment}\n")
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["x", *z_cols, *w_cols, "m", "delta"])

        def render(v):
            return f"{v:.12g}" if isinstance(v, float) else str(v)

        for x, z, w, m, d in zip(self.x.tolist(), self.z_items, self.w_items,
                                 self.m.tolist(), self.delta.tolist()):
            writer.writerow(
                [
                    str(x),
                    *map(render, z if pz > 1 else (z,)),
                    *map(render, w if pw > 1 else (w,)),
                    f"{m:.12g}",
                    str(d),
                ]
            )
        return buf.getvalue()

    @classmethod
    def from_csv(cls, text, n_causes=None):
        """Cohort of a CSV text.  A body of numeric tokens alone
        (`_numeric_table`) is parsed by numpy in one pass, unless its x or
        delta column holds a "."; any other goes through `_csv_cells`
        token by token.  Both give the same cohort."""
        numeric = _numeric_table(text)
        if numeric is None:
            header, widths, cells = _csv_cells(text)
        else:
            header, mantissas, decimals = numeric
        header = [h.strip() for h in header]

        def ambiguous(cols):  # a CohortSchemaError naming header[cols]
            cols = sorted(cols)
            return CohortSchemaError(
                "cohort CSV header is ambiguous: "
                + ", ".join(repr(header[i]) for i in cols) + " at columns "
                + ", ".join(str(i + 1) for i in cols))

        def block(prefix):
            exact = [i for i, h in enumerate(header) if h == prefix]
            numbered = sorted(
                (int(h[len(prefix):]), i)
                for i, h in enumerate(header)
                if h.startswith(prefix) and h[len(prefix):].isdecimal()
            )
            # one bare column, or numbered ones of distinct numbers
            if (len(exact) + bool(numbered) > 1
                    or len({k for k, _ in numbered}) < len(numbered)):
                raise ambiguous(exact + [i for _, i in numbered])
            return exact or [i for _, i in numbered]

        for name in ("x", "m", "delta"):
            if header.count(name) > 1:
                raise ambiguous(
                    [i for i, h in enumerate(header) if h == name])
        try:
            x_col = header.index("x")
            m_col = header.index("m")
            d_col = header.index("delta")
        except ValueError as exc:
            raise CohortSchemaError("cohort CSV must include x, m, delta columns") from exc
        z_cols = block("z")
        w_cols = block("w")
        if not z_cols or not w_cols:
            raise CohortSchemaError("cohort CSV must include z and w columns")

        if numeric is not None:
            if not any(decimals[c][1].any() for c in (x_col, d_col)
                       if c in decimals):
                return cls._from_codes(
                    mantissas[:, x_col].copy(),
                    _numeric_covariate(mantissas, decimals, z_cols),
                    _numeric_covariate(mantissas, decimals, w_cols),
                    decimals[m_col][0] if m_col in decimals
                    else mantissas[:, m_col].astype(float),
                    mantissas[:, d_col].copy(),
                    n_causes,
                )
            # a "." in an int column: the token reader reports it
            _, widths, cells = _csv_cells(text)
        if not widths:
            raise EmptyCohortError("cohort CSV has a header but no rows")
        if widths != {len(header)}:
            raise CohortSchemaError("cohort CSV row width does not match header")

        def column(i):
            return cells[i::len(header)]

        return cls._from_codes(
            _parse_numbers(column(x_col), int, "x"),
            _parse_covariate([column(i) for i in z_cols]),
            _parse_covariate([column(i) for i in w_cols]),
            _parse_numbers(column(m_col), float, "m"),
            _parse_numbers(column(d_col), int, "delta"),
            n_causes,
        )


# ---------------------------------------------------------------------------
# Sampling
# ---------------------------------------------------------------------------

def _invert_survival(times, probs, u):
    """Map uniforms to law atoms so that {T > t} = {u <= P(T > t)}."""
    cdf = np.cumsum(probs)
    idx = np.searchsorted(cdf, 1.0 - u, side="right")
    idx = np.minimum(idx, times.size - 1)
    return times[idx]


def sample_cohort(spec, n, seed=None, return_latents=False):
    """Draw a cohort of size n; deterministic given the seed.

    Ties between an event time and the censoring time go to the event;
    ties among competing causes go to the lowest cause index.
    """
    if n <= 0:
        raise DataError("cohort size must be positive")
    rng = np.random.default_rng(seed)

    xz_keys = [(x, z) for x in (0, 1) for z in spec.z_support]
    xz_probs = np.array([spec.p_xz.get(k, 0.0) for k in xz_keys])
    xz_idx = rng.choice(len(xz_keys), size=n, p=xz_probs)
    x_arr = np.array([x for x, _ in xz_keys])[xz_idx]

    w_slot = np.empty(n, dtype=int)
    for i, key in enumerate(xz_keys):
        rows = np.flatnonzero(xz_idx == i)
        if rows.size == 0:
            continue
        tab = spec.p_w_given_xz[key]
        probs = np.array([tab.get(w, 0.0) for w in spec.w_support])
        w_slot[rows] = rng.choice(len(spec.w_support), size=rows.size, p=probs)

    if spec.coupling.family == "independence":
        u_event = rng.random((n, spec.n_causes))
        u_censor = rng.random(n)
    else:
        u_t, u_c = sample_uniform_pairs(spec.coupling, n, rng)
        u_event = u_t[:, None]
        u_censor = u_c

    t_event = np.empty((n, spec.n_causes))
    c_time = np.empty(n)
    w_support_index = {w: j for j, w in enumerate(spec.w_support)}
    for i, (x, z) in enumerate(xz_keys):
        for w in spec.w_support:
            rows = np.flatnonzero((xz_idx == i) & (w_slot == w_support_index[w]))
            if rows.size == 0:
                continue
            for k in range(1, spec.n_causes + 1):
                times, probs = spec._law(k, x, z, w)
                t_event[rows, k - 1] = _invert_survival(times, probs, u_event[rows, k - 1])
            ct, cp = spec._law("censor", x, z, w)
            c_time[rows] = _invert_survival(ct, cp, u_censor[rows])

    t_min = t_event.min(axis=1)
    winner = t_event.argmin(axis=1)  # argmin takes the lowest index on ties
    m = np.minimum(t_min, c_time)
    delta = np.where(t_min <= c_time, winner + 1, 0)
    if np.any(~np.isfinite(m)):
        raise SpecValidationError(
            "event and censoring laws both put mass at infinity in some stratum"
        )
    z_codes, z_values = _encode(spec.z_support, len(spec.z_support), "z")
    w_codes, w_values = _encode(spec.w_support, len(spec.w_support), "w")
    z_slot = xz_idx % len(spec.z_support)
    cohort = Cohort._from_codes(
        x_arr, (z_codes[z_slot], z_values), (w_codes[w_slot], w_values), m,
        delta, spec.n_causes)
    if return_latents:
        return cohort, {"event_times": t_event, "censor_times": c_time}
    return cohort


# ---------------------------------------------------------------------------
# Oracle
# ---------------------------------------------------------------------------

def oracle_potential_outcome(spec, query, functional, t):
    """Exact value of the identified potential-outcome functional.

    Sums E[functional | x_outcome, z, w] * P(w | x_mediator, z)
    * P(z | x_condition) over the finite supports.
    """
    if not isinstance(query, PotentialOutcomeQuery):
        raise DataError("query must be a PotentialOutcomeQuery")
    if functional.kind == "cif" and functional.cause > spec.n_causes:
        raise DataError("cif cause outside the spec's causes")
    p_z = spec.confounder_given_group(query.x_condition)
    t_arr = np.atleast_1d(np.asarray(t, dtype=float))
    total = np.zeros_like(t_arr)
    for z in spec.z_support:
        if p_z[z] == 0.0:
            continue
        med = spec.p_w_given_xz[(query.x_mediator, z)]
        for w in spec.w_support:
            pw = med.get(w, 0.0)
            if pw == 0.0:
                continue
            vals = spec.functional_values(query.x_outcome, z, w, functional, t_arr)
            total += p_z[z] * pw * np.atleast_1d(vals)
    return float(total[0]) if np.ndim(t) == 0 else total


def oracle_po_curve(spec, query, functional, grid):
    g = np.asarray(grid, dtype=float)
    vals = oracle_potential_outcome(spec, query, functional, g)
    zero = oracle_potential_outcome(spec, query, functional, 0.0)
    return StepCurve(g, vals, value_at_zero=zero, kind="generic")


def oracle_decomposition(spec, grid, functional, x0=0, x1=1):
    """Ground-truth effect curves on `grid`; keys tv/direct/indirect/spurious.

    tv = direct - indirect - spurious holds exactly by construction.
    """
    g = np.asarray(grid, dtype=float)
    po = {query: oracle_potential_outcome(spec, query, functional, g)
          for query in role_queries(x0, x1)}
    return {
        name: StepCurve(g, vals, value_at_zero=0.0, kind="generic")
        for name, vals in effect_contrasts(po, x0, x1, np.subtract).items()
    }
