"""Simulator and oracle tests, checked against the brute-force enumerator."""

import csv
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose
from scipy.stats import kendalltau

from fairsurv.copulas import CopulaSpec
from fairsurv.errors import (
    CohortSchemaError,
    DataError,
    DegenerateGroupError,
    EmptyCohortError,
    SpecValidationError,
)
from fairsurv.queries import Functional, PotentialOutcomeQuery
from fairsurv.scm import (
    Cohort,
    SCMSpec,
    _dedupe,
    _parse_token,
    oracle_decomposition,
    oracle_potential_outcome,
    sample_cohort,
)

from testkit import (
    brute_po,
    geometric_law,
    make_cr_two_cause,
    make_ic_clayton,
    make_nic_balanced,
    spec_of,
)

ALL_QUERIES = [(0, 0, 0), (1, 0, 0), (1, 1, 0), (1, 1, 1), (0, 1, 1), (0, 0, 1)]


def _tiny_spec(event_law=None, censor_law=None, coupling=None, p_xz=None):
    """One-confounder, one-mediator shell for targeted edge cases."""
    strata = {(x, 0, 0): None for x in (0, 1)}
    event = {k: dict(event_law or {2.0: 1.0}) for k in strata}
    censor = {k: dict(censor_law or {math.inf: 1.0}) for k in strata}
    return SCMSpec(
        z_support=[0],
        w_support=[0],
        p_xz=p_xz or {(0, 0): 0.5, (1, 0): 0.5},
        p_w_given_xz={(0, 0): {0: 1.0}, (1, 0): {0: 1.0}},
        event_laws=event,
        censor_law=censor,
        coupling=coupling,
    )


# ---------------------------------------------------------------------------
# Validation
# ---------------------------------------------------------------------------

def test_spec_rejects_bad_probability_sums():
    raw = make_nic_balanced()
    raw["p_xz"][(0, 0)] += 0.01
    with pytest.raises(SpecValidationError):
        spec_of(raw)


def test_spec_rejects_negative_mass():
    raw = make_nic_balanced()
    key = (0, 0, 0)
    raw["event_laws"][key][1.0] = -0.05
    raw["event_laws"][key][math.inf] += 0.05
    with pytest.raises(SpecValidationError):
        spec_of(raw)


def test_spec_rejects_missing_stratum():
    raw = make_nic_balanced()
    del raw["censor_law"][(1, 1, 1)]
    with pytest.raises(SpecValidationError):
        spec_of(raw)


def test_spec_rejects_coupled_competing_risks():
    raw = make_cr_two_cause()
    raw["coupling"] = CopulaSpec("clayton", 0.5)
    with pytest.raises(SpecValidationError):
        spec_of(raw)


def test_spec_rejects_colliding_support_rendering():
    raw = make_nic_balanced()
    raw["z_support"] = [1, "1"]
    with pytest.raises(SpecValidationError):
        spec_of(raw)


# ---------------------------------------------------------------------------
# Sampling mechanics
# ---------------------------------------------------------------------------

def test_sampling_is_deterministic_given_seed():
    spec = spec_of(make_nic_balanced())
    a = sample_cohort(spec, 500, seed=11)
    b = sample_cohort(spec, 500, seed=11)
    c = sample_cohort(spec, 500, seed=12)
    assert np.array_equal(a.x, b.x)
    assert np.array_equal(a.m, b.m)
    assert np.array_equal(a.delta, b.delta)
    assert a.z_items == b.z_items and a.w_items == b.w_items
    assert not np.array_equal(a.m, c.m)


def test_sampled_frequencies_match_tables():
    raw = make_nic_balanced()
    spec = spec_of(raw)
    cohort = sample_cohort(spec, 60000, seed=3)
    z = np.array(cohort.z_items)
    w = np.array(cohort.w_items)
    for (x, zv), p in raw["p_xz"].items():
        assert abs(np.mean((cohort.x == x) & (z == zv)) - p) < 0.01
    for (x, zv), tab in raw["p_w_given_xz"].items():
        rows = (cohort.x == x) & (z == zv)
        for wv, pw in tab.items():
            assert abs(np.mean(w[rows] == wv) - pw) < 0.02


def test_sampled_latents_follow_event_law():
    spec = spec_of(make_nic_balanced())
    cohort, latents = sample_cohort(spec, 60000, seed=5, return_latents=True)
    z = np.array(cohort.z_items)
    w = np.array(cohort.w_items)
    for x, zv, wv in [(0, 0, 0), (1, 1, 1)]:
        rows = (cohort.x == x) & (z == zv) & (w == wv)
        emp = np.mean(latents["event_times"][rows, 0] > 2.0)
        assert abs(emp - spec.conditional_survival(x, zv, wv).evaluate(2.0)) < 0.02


def test_all_events_when_censoring_never_happens():
    spec = _tiny_spec(event_law={1.0: 0.4, 2.0: 0.6}, censor_law={math.inf: 1.0})
    cohort = sample_cohort(spec, 200, seed=0)
    assert np.all(cohort.delta >= 1)


def test_all_censored_when_event_never_happens():
    spec = _tiny_spec(event_law={math.inf: 1.0}, censor_law={1.5: 1.0})
    cohort = sample_cohort(spec, 200, seed=0)
    assert np.all(cohort.delta == 0)
    assert np.all(cohort.m == 1.5)


def test_tie_between_event_and_censoring_goes_to_event():
    spec = _tiny_spec(event_law={2.0: 1.0}, censor_law={2.0: 1.0})
    cohort = sample_cohort(spec, 50, seed=0)
    assert np.all(cohort.delta == 1)
    assert np.all(cohort.m == 2.0)


def test_independent_coupling_has_zero_latent_kendall_tau():
    # Pooled T and C are dependent through shared (x, z, w); the coupling
    # property is conditional, so test within a single stratum.
    spec = spec_of(make_nic_balanced())
    cohort, latents = sample_cohort(spec, 50000, seed=9, return_latents=True)
    rows = (
        (cohort.x == 1)
        & (np.array(cohort.z_items) == 0)
        & (np.array(cohort.w_items) == 1)
    )
    est, _ = kendalltau(
        latents["event_times"][rows, 0], latents["censor_times"][rows]
    )
    assert abs(est) <= 0.02


def test_clayton_coupling_produces_positive_dependence():
    spec = spec_of(make_ic_clayton(0.5))
    _, latents = sample_cohort(spec, 50000, seed=9, return_latents=True)
    est, _ = kendalltau(latents["event_times"][:, 0], latents["censor_times"])
    assert est > 0.25  # discrete ties attenuate tau; sign and size must show


def test_group_specific_censor_law_shifts_delta_rate():
    raw = make_nic_balanced()
    spec = spec_of(raw)
    cohort = sample_cohort(spec, 40000, seed=21)
    d0 = np.mean(cohort.delta[cohort.x == 0] == 0)
    d1 = np.mean(cohort.delta[cohort.x == 1] == 0)
    assert d0 != pytest.approx(d1, abs=1e-3)


# ---------------------------------------------------------------------------
# Oracle vs brute force
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("arms", ALL_QUERIES)
def test_oracle_survival_matches_brute_force(arms):
    raw = make_nic_balanced()
    spec = spec_of(raw)
    q = PotentialOutcomeQuery(*arms)
    for t in [0.0, 0.5, 1.0, 2.0, 3.0, 4.0, 9.0]:
        expect = brute_po(raw, *arms, t, kind="survival")
        got = oracle_potential_outcome(spec, q, Functional("survival"), t)
        assert_allclose(got, expect, atol=1e-12)


def test_oracle_rmst_matches_brute_force():
    raw = make_nic_balanced()
    spec = spec_of(raw)
    q = PotentialOutcomeQuery(1, 0, 0)
    for t in [1.0, 2.5, 4.0, 6.0]:
        expect = brute_po(raw, 1, 0, 0, t, kind="rmst")
        got = oracle_potential_outcome(spec, q, Functional("rmst"), t)
        assert_allclose(got, expect, atol=1e-12)
    capped = oracle_potential_outcome(spec, q, Functional("rmst", horizon=2.0), 6.0)
    assert_allclose(capped, brute_po(raw, 1, 0, 0, 6.0, kind="rmst", horizon=2.0), atol=1e-12)


def test_oracle_cum_hazard_matches_brute_force():
    raw = make_nic_balanced()
    spec = spec_of(raw)
    q = PotentialOutcomeQuery(0, 1, 1)
    for t in [1.0, 3.0, 5.0]:
        expect = brute_po(raw, 0, 1, 1, t, kind="cumulative_hazard")
        got = oracle_potential_outcome(spec, q, Functional("cumulative_hazard"), t)
        assert_allclose(got, expect, atol=1e-12)


@pytest.mark.parametrize("cause", [1, 2])
def test_oracle_cif_matches_brute_force(cause):
    raw = make_cr_two_cause()
    spec = spec_of(raw)
    q = PotentialOutcomeQuery(1, 0, 0)
    for t in [0.5, 1.0, 2.0, 3.0, 8.0]:
        expect = brute_po(raw, 1, 0, 0, t, kind="cif", cause=cause)
        got = oracle_potential_outcome(spec, q, Functional("cif", cause=cause), t)
        assert_allclose(got, expect, atol=1e-12)


def test_oracle_all_cause_matches_brute_force_and_complements_cifs():
    raw = make_cr_two_cause()
    spec = spec_of(raw)
    q = PotentialOutcomeQuery(1, 1, 0)
    for t in [1.0, 2.0, 3.0]:
        s_all = oracle_potential_outcome(spec, q, Functional("all_cause_survival"), t)
        assert_allclose(s_all, brute_po(raw, 1, 1, 0, t, kind="all_cause_survival"), atol=1e-12)
        total = sum(
            oracle_potential_outcome(spec, q, Functional("cif", cause=k), t)
            for k in (1, 2)
        )
        assert_allclose(total, 1.0 - s_all, atol=1e-12)


def test_oracle_decomposition_identity_and_antisymmetry():
    spec = spec_of(make_nic_balanced())
    grid = np.array([0.5, 1.0, 2.0, 3.0, 4.0])
    eff = oracle_decomposition(spec, grid, Functional("survival"))
    lhs = eff["tv"].evaluate(grid)
    rhs = (
        eff["direct"].evaluate(grid)
        - eff["indirect"].evaluate(grid)
        - eff["spurious"].evaluate(grid)
    )
    assert_allclose(lhs, rhs, atol=1e-12)
    flipped = oracle_decomposition(spec, grid, Functional("survival"), x0=1, x1=0)
    assert_allclose(flipped["tv"].evaluate(grid), -lhs, atol=1e-12)


def test_oracle_ic_spec_reads_latent_marginal():
    # Coupling must not distort the latent event marginal.
    raw_nic = make_ic_clayton(0.5)
    raw_nic["coupling"] = None
    coupled = spec_of(make_ic_clayton(0.5))
    uncoupled = spec_of(raw_nic)
    q = PotentialOutcomeQuery(1, 0, 0)
    f = Functional("survival")
    for t in [1.0, 2.0, 3.0]:
        assert_allclose(
            oracle_potential_outcome(coupled, q, f, t),
            oracle_potential_outcome(uncoupled, q, f, t),
            atol=1e-15,
        )


def test_oracle_degenerate_group_raises():
    spec = _tiny_spec(p_xz={(0, 0): 0.0, (1, 0): 1.0})
    with pytest.raises(DegenerateGroupError):
        oracle_potential_outcome(
            spec, PotentialOutcomeQuery(1, 1, 0), Functional("survival"), 1.0
        )


# ---------------------------------------------------------------------------
# Serialization round trips
# ---------------------------------------------------------------------------

def test_spec_json_round_trip():
    spec = spec_of(make_ic_clayton(0.5))
    text = spec.to_json()
    back = SCMSpec.from_json(text)
    assert back.to_json() == text
    a = sample_cohort(spec, 300, seed=4)
    b = sample_cohort(back, 300, seed=4)
    assert np.array_equal(a.m, b.m) and np.array_equal(a.delta, b.delta)


def test_spec_json_round_trips_infinity_atoms():
    spec = spec_of(make_nic_balanced())
    back = SCMSpec.from_json(spec.to_json())
    s1 = spec.conditional_survival(1, 0, 1)
    s2 = back.conditional_survival(1, 0, 1)
    assert_allclose(s1.values, s2.values, atol=0)


def test_cohort_csv_round_trip():
    spec = spec_of(make_cr_two_cause())
    cohort = sample_cohort(spec, 120, seed=8)
    text = cohort.to_csv(header_comment="config=abc")
    back = Cohort.from_csv(text)
    assert np.array_equal(back.x, cohort.x)
    assert np.array_equal(back.m, cohort.m)
    assert np.array_equal(back.delta, cohort.delta)
    assert back.z_items == cohort.z_items
    assert back.n_causes == cohort.n_causes


def test_cohort_csv_multicolumn_round_trip():
    cohort = Cohort(
        x=[0, 1, 1],
        z=[(0, 1.5), (1, 2.5), (0, 0.5)],
        w=[2, 0, 1],
        m=[1.0, 2.0, 3.0],
        delta=[1, 0, 1],
    )
    text = cohort.to_csv()
    assert text.splitlines()[0] == "x,z1,z2,w,m,delta"
    back = Cohort.from_csv(text)
    assert back.z_items == cohort.z_items
    assert back.w_items == cohort.w_items


@pytest.mark.parametrize("z, w", [
    ([(0, 1.5), (1, 2.5), (0, 0.5), (1, 2.5)], [2, 0, 1, 0]),
    (["a", "b c", "a", "d"], ["lo", "hi", "hi", "lo"]),
    (np.array([[0.5, 1.0], [0.5, 2.0], [1.5, 1.0], [0.5, 2.0]]),
     np.array([[3], [1], [3], [2]])),
])
def test_covariates_round_trip_through_csv_and_subset(z, w):
    cohort = Cohort(x=[0, 1, 1, 0], z=z, w=w, m=[1.0, 2.0, 3.0, 4.0],
                    delta=[1, 0, 1, 1])
    back = Cohort.from_csv(cohort.to_csv())
    assert back.z_items == cohort.z_items
    assert back.w_items == cohort.w_items
    part = back.subset(np.array([3, 1]))
    assert part.z_items == [cohort.z_items[3], cohort.z_items[1]]
    assert part.w_items == [cohort.w_items[3], cohort.w_items[1]]


def test_subset_and_recode_share_value_tables():
    cohort = sample_cohort(spec_of(make_nic_balanced()), 200, seed=2)
    part = cohort.subset(cohort.x == 1)
    assert part.z_values is cohort.z_values
    assert part.w_values is cohort.w_values
    assert np.array_equal(part.z_codes, cohort.z_codes[cohort.x == 1])
    recoded = cohort.censoring_as_cause()
    assert recoded.z_values is cohort.z_values
    assert recoded.n_causes == 2
    assert np.array_equal(recoded.delta, np.where(cohort.delta == 1, 1, 2))


def _check_time_codes(cohort, table):
    """The cohort's time codes index ``table`` and rank its rows' times."""
    assert cohort.m_times is table
    assert not table.flags.writeable
    assert np.all(table[cohort.m_codes] == cohort.m)
    codes = cohort.m_codes.astype(np.int64)
    assert np.array_equal(np.sign(codes[:, None] - codes[None, :]),
                          np.sign(cohort.m[:, None] - cohort.m[None, :]))


@settings(max_examples=200, deadline=None)
@given(st.lists(st.floats(0.0, 1e6, allow_nan=False, allow_infinity=False)
                | st.sampled_from([0.0, -0.0, 1.0, 2.5]), min_size=1,
                max_size=40), st.integers(0, 2 ** 32 - 1))
def test_times_are_coded_once_and_shared_by_subsets(times, seed):
    n = len(times)
    cohort = Cohort([i // 2 % 2 for i in range(n)], [0] * n, [0] * n, times,
                    [i % 2 for i in range(n)])
    table = cohort.m_times
    # the ascending distinct times, each row's rank in the smallest type
    assert np.array_equal(table, np.unique(times))
    assert np.all(np.diff(table) > 0.0) and not np.signbit(table).any()
    assert cohort.m_codes.dtype == np.min_scalar_type(table.size - 1)
    assert cohort.m.tobytes() == np.asarray(times, dtype=float).tobytes()
    _check_time_codes(cohort, table)
    rng = np.random.default_rng(seed)
    mask = rng.random(n) < 0.5
    mask[rng.integers(n)] = True
    repeats = rng.integers(0, n, 2 * n)
    perm = rng.permutation(n)
    for index in (mask, repeats, perm):
        part = cohort.subset(index)
        assert part.m.tobytes() == cohort.m[index].tobytes()
        _check_time_codes(part, table)
    _check_time_codes(cohort.censoring_as_cause(), table)
    _check_time_codes(cohort.subset(perm).censoring_as_cause(), table)


def test_zero_and_negative_zero_times_share_one_code():
    # -0.0 == 0.0: one code, and the table holds +0.0; m keeps each row's
    # sign bit
    cohort = Cohort([0, 1, 0, 1], [0] * 4, [0] * 4, [-0.0, 1.0, 0.0, -0.0],
                    [1, 1, 0, 1])
    assert cohort.m_codes.tolist() == [0, 1, 0, 0]
    assert cohort.m_times.tobytes() == np.array([0.0, 1.0]).tobytes()
    assert np.signbit(cohort.m).tolist() == [True, False, False, True]
    assert cohort.cells("m")[0].tolist() == [0, 1, 0, 0]


@pytest.mark.parametrize("m, message", [
    ([[1.0, 2.0]], "m and delta must align with x"),
    ([1.0], "m and delta must align with x"),
    ([1.0, float("nan")], "observed times must be finite and nonnegative"),
    ([1.0, float("inf")], "observed times must be finite and nonnegative"),
    ([1.0, -2.0], "observed times must be finite and nonnegative"),
])
def test_bad_times_fail_before_they_are_coded(m, message):
    with pytest.raises(CohortSchemaError) as caught:
        Cohort([0, 1], [0, 0], [0, 0], m, [1, 1])
    assert type(caught.value) is CohortSchemaError
    assert str(caught.value) == message


@pytest.mark.parametrize("n_causes", [0, -1])
def test_fewer_than_one_cause_is_its_own_schema_error(n_causes):
    # all rows censored: no delta exceeds the declared number
    with pytest.raises(CohortSchemaError) as caught:
        Cohort([0, 1], [0, 0], [0, 0], [1.0, 2.0], [0, 0], n_causes=n_causes)
    assert str(caught.value) == "the number of causes must be at least 1"
    with pytest.raises(CohortSchemaError) as caught:
        Cohort.from_csv("x,z,w,m,delta\n0,0,0,1,0\n1,0,0,2,0\n",
                        n_causes=n_causes)
    assert str(caught.value) == "the number of causes must be at least 1"


def test_equal_csv_tokens_form_one_stratum():
    text = "x,z,w,m,delta\n0,1,0,1,1\n1,1.0,0,2,1\n1,2,0,3,0\n0, 1,0,4,1\n"
    cohort = Cohort.from_csv(text)
    assert cohort.z_items == [1, 1, 2, 1]
    assert cohort.z_values.tolist() == [1, 2]
    ids, first = cohort.cells("z")
    assert ids.tolist() == [0, 0, 1, 0]
    assert [cohort.z_items[i] for i in first] == [1, 2]


@pytest.mark.parametrize("key_limit", [None, 7])
def test_cells_by_label_and_time_number_rows_by_value(monkeypatch,
                                                       key_limit):
    # rows equal in group, confounder, mediator, event label and time
    # share a cell, numbered in order of first appearance; a key that
    # would pass the limit is renumbered densely on the way, ids unchanged
    import fairsurv.scm

    if key_limit is not None:
        monkeypatch.setattr(fairsurv.scm, "_KEY_LIMIT", key_limit)
    cohort = sample_cohort(spec_of(make_nic_balanced()), 300, seed=4)
    cohort = Cohort(cohort.x, cohort.z_items, cohort.w_items,
                    np.where(cohort.x == 1, cohort.m, cohort.m + 0.5),
                    cohort.delta)
    for by, columns in (("xzwdm", (cohort.x.tolist(), cohort.z_items,
                                   cohort.w_items, cohort.delta.tolist(),
                                   cohort.m.tolist())),
                        ("dm", (cohort.delta.tolist(), cohort.m.tolist())),
                        ("zw", (cohort.z_items, cohort.w_items))):
        numbered = {}
        want = [numbered.setdefault(key, len(numbered))
                for key in zip(*columns)]
        ids, first = cohort.cells(by)
        assert ids.tolist() == want
        assert first.tolist() == [want.index(i) for i in range(len(numbered))]
    assert 1 < cohort.cells("xzwdm")[1].size < cohort.n  # rows repeat


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 600), st.integers(1, 300), st.integers(0, 2 ** 32 - 1),
       st.sampled_from(["", "x", "z", "zw", "xzw", "dm", "xzwdm"]))
def test_cells_are_numbered_once_in_compact_read_only_ids(n, n_values, seed,
                                                           by):
    rng = np.random.default_rng(seed)
    cohort = Cohort(rng.integers(0, 2, n), rng.integers(0, n_values, n),
                    rng.integers(0, 3, n), rng.integers(0, n_values, n) / 4,
                    rng.integers(0, 2, n))
    ids, first = cohort.cells(by)
    assert not ids.flags.writeable and not first.flags.writeable
    # the smallest unsigned type that holds the cell count
    assert ids.dtype.kind == "u"
    assert ids.dtype == np.min_scalar_type(first.size)
    again = cohort.cells(by)
    assert again[0] is ids and again[1] is first
    # a subset or a recode numbers its own cells, as a fresh cohort of
    # its rows does
    part = cohort.subset(rng.integers(0, n, rng.integers(1, 2 * n)))
    recoded = cohort.censoring_as_cause()
    for derived in (part, recoded):
        fresh = Cohort(derived.x, derived.z_items, derived.w_items,
                       derived.m, derived.delta, derived.n_causes)
        for got, want in zip(derived.cells(by), fresh.cells(by)):
            assert got.dtype == want.dtype
            assert np.array_equal(got, want)


def _reference_from_csv(text, n_causes=None):
    """The row-by-row cohort reader: csv.reader rows transposed with zip,
    every token parsed and deduplicated on its own."""
    lines = [ln for ln in text.splitlines() if ln.strip() and not ln.startswith("#")]
    if not lines:
        raise EmptyCohortError("cohort CSV has no rows")
    rows = list(csv.reader(lines))
    header = [h.strip() for h in rows[0]]

    def block(prefix):
        exact = [i for i, h in enumerate(header) if h == prefix]
        if exact:
            return exact
        numbered = [
            (int(h[len(prefix):]), i)
            for i, h in enumerate(header)
            if h.startswith(prefix) and h[len(prefix):].isdigit()
        ]
        return [i for _, i in sorted(numbered)]

    def numbers(tokens, kind, name):
        try:
            return np.fromiter(map(kind, tokens), dtype=kind, count=len(tokens))
        except (ValueError, OverflowError) as exc:
            raise CohortSchemaError(
                f"cohort CSV column {name!r} holds an invalid number: {exc}"
            ) from exc

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

    if len(rows) == 1:
        raise EmptyCohortError("cohort CSV has a header but no rows")
    if set(map(len, rows)) != {len(header)}:
        raise CohortSchemaError("cohort CSV row width does not match header")
    columns = list(zip(*rows[1:]))

    def covariate(cols):
        values = [list(map(_parse_token, columns[i])) for i in cols]
        return _dedupe(values[0] if len(cols) == 1 else list(zip(*values)))

    return Cohort._from_codes(
        numbers(columns[x_col], int, "x"),
        covariate(z_cols), covariate(w_cols),
        numbers(columns[m_col], float, "m"),
        numbers(columns[d_col], int, "delta"),
        n_causes,
    )


def _typed(value):
    """A table entry with the type of each part, so 1 and 1.0 differ."""
    parts = value if isinstance(value, tuple) else (value,)
    return [(type(v), repr(v)) for v in parts]


def _read(reader, text):
    """Everything a reader returns, or the error it raises."""
    try:
        c = reader(text)
    except (DataError, csv.Error) as exc:
        return type(exc), str(exc)
    return (c.x.dtype, c.x.tolist(), c.m.dtype, c.m.tobytes(),
            c.delta.dtype, c.delta.tolist(), c.n_causes,
            c.z_codes.tolist(), list(map(_typed, c.z_values)),
            c.w_codes.tolist(), list(map(_typed, c.w_values)))


@pytest.mark.parametrize("tokens", [["1", "b", "a", "b"], ["9" * 20, "a"],
                                    ["1", "a", "9" * 20, "a"]])
def test_an_int_column_reports_its_first_invalid_token(tokens):
    # the token reader parses each distinct token of x and delta once, and
    # still reports the error a row-by-row parse meets first
    text = "x,z,w,m,delta\n" + "".join(f"0,0,0,1.5,{t}\n" for t in tokens)
    got = _read(Cohort.from_csv, text)
    assert got == _read(_reference_from_csv, text)
    assert got[0] is CohortSchemaError and "'delta'" in got[1]


_PLAIN_TOKENS = ["1", "1.0", " 1", "1 ", "2", "-0", "0.0", "a", "b c", "",
                 "1e3", "1000"]
# integer tokens, with leading zeros and the longest token the one-pass
# reader parses (18 digits)
_INTEGER_TOKENS = ["0", "1", "2", "007", "7", "10", "9" * 18]
# decimal and negative tokens it parses too: equal numbers of either
# kind, -0.0 and the largest mantissa it reads exactly (2 ** 53), beside
# ints on either side of it
_DECIMAL_TOKENS = ["1.5", "2.0", "1.00", "1.", ".5", "0.50", "007.250",
                   "0.1", "-3", "-0", "-0.0", "-1.5", "-.5", "-007",
                   "9007199254740.992", "9007199254740992.",
                   "9007199254740992", "9007199254740993"]
# nonnegative times of both kinds, and the two negative zeros
_TIME_TOKENS = ["1.5", "2.0", "1.", ".5", "0.50", "007.250", "0.1",
                "12345678.90123456", "-0", "-0.0"]
# each sends a text to the token reader: a token, or a line layout
_TOKEN_MISSES = ["1.2.3", ".", "-", "1-2", "+1", "1e5", "17 digits",
                 "19 digits", "int point"]
_NEAR_MISSES = _TOKEN_MISSES + ["blank line", "\r\n", "short row"]
_QUOTED_TOKENS = ["x,y", 'say "hi"']


def _field(token, quote):
    if quote or "," in token or '"' in token:
        return '"' + token.replace('"', '""') + '"'
    return token


@st.composite
def _cohort_texts(draw):
    z_names = draw(st.sampled_from([["z"], ["z1", "z2"], ["z2", "z1", "z3"]]))
    w_names = draw(st.sampled_from([["w"], ["w1", "w2"]]))
    names = ["x", *z_names, *w_names, "m", "delta"]
    if draw(st.booleans()):
        names.append("note")
    names = draw(st.permutations(names))
    if draw(st.booleans()):
        return draw(_numeric_cohort_texts(names))
    number = {
        "x": st.sampled_from(["0", "1", " 1", "1 "]),
        "m": st.sampled_from(["0.5", "1", "2.25", " 3", "3.0", "1e1"]),
        "delta": st.sampled_from(["0", "1", "2", " 1"]),
    }
    bad = draw(st.sampled_from([None, None, "x", "m", "delta"]))
    covariate = st.sampled_from(draw(st.sampled_from(
        [_PLAIN_TOKENS, _PLAIN_TOKENS + _QUOTED_TOKENS])))
    quote = draw(st.sampled_from([0.0, 0.3]))  # share of quoted fields
    lines = [",".join(names)]
    for _ in range(draw(st.integers(1, 25))):
        row = [draw(number.get(name, covariate)) for name in names]
        if bad is not None and draw(st.integers(0, 9)) == 0:
            row[names.index(bad)] = draw(st.sampled_from(["a", "1.5", ""]))
        lines.append(",".join(
            _field(token, quote and draw(st.floats(0, 1)) < quote)
            for token in row))
        extra = draw(st.sampled_from([None, None, None, "# note", "",
                                      "   ", "#x,z,w"]))
        if extra is not None:
            lines.append(extra)
    if draw(st.integers(0, 9)) == 0:  # a short or long row
        at = draw(st.integers(1, len(lines) - 1))
        lines[at] = lines[at] + ",9" if draw(st.booleans()) else "0,1"
    if draw(st.booleans()):
        lines.insert(0, "# generated")
    return draw(st.sampled_from(["\n", "\r\n"])).join(lines) + "\n"


@st.composite
def _numeric_cohort_texts(draw, names):
    """Cohort texts under the header ``names`` whose body is numeric
    tokens alone (integers alone in half of them), or one near miss
    away."""
    integers = draw(st.booleans())
    number = {"x": st.sampled_from(["0", "1", "01", "00"]
                                   + ["-0"] * (not integers)),
              "delta": st.sampled_from(["0", "1", "2", "001"]),
              "m": st.sampled_from(_INTEGER_TOKENS
                                   + _TIME_TOKENS * (not integers))}
    token = st.sampled_from(_INTEGER_TOKENS
                            + _DECIMAL_TOKENS * (not integers))
    rows = [[draw(number.get(name, token)) for name in names]
            for _ in range(draw(st.integers(1, 25)))]
    near_miss = draw(st.one_of(st.none(), st.sampled_from(_NEAR_MISSES)))
    if near_miss in _TOKEN_MISSES:
        row = draw(st.sampled_from(rows))
        at = draw(st.sampled_from([names.index("x"), names.index("delta")])
                  if near_miss == "int point"
                  else st.integers(0, len(names) - 1))
        row[at] = {"17 digits": "12345678.901234567",
                   "19 digits": "1" + "0" * 18,
                   "int point": "1.0"}.get(near_miss, near_miss)
    lines = [",".join(row) for row in rows]
    if near_miss == "blank line":
        lines.insert(draw(st.integers(0, len(lines))), "")
    if near_miss == "short row":
        at = draw(st.integers(0, len(lines) - 1))
        lines[at] = lines[at].rsplit(",", 1)[0]
    lead = draw(st.lists(st.sampled_from(["# generated", "", "   ", "#x,z"]),
                         max_size=3))
    text = "\n".join([*lead, ",".join(names), *lines])
    if near_miss == "\r\n":
        text = text.replace("\n", "\r\n")
    return text + draw(st.sampled_from(["", "\n"]))


# half the texts have numeric bodies; the other half keep the 300 of the
# token reader
@settings(max_examples=600, deadline=None)
@given(_cohort_texts())
def test_csv_reader_matches_the_row_by_row_reference(text):
    assert _read(Cohort.from_csv, text) == _read(_reference_from_csv, text)


def _count_token_reads(monkeypatch):
    """The texts `Cohort.from_csv` hands the token reader from now on."""
    import fairsurv.scm

    tokens, calls = fairsurv.scm._csv_cells, []

    def token_reader(text):
        calls.append(text)
        return tokens(text)

    monkeypatch.setattr(fairsurv.scm, "_csv_cells", token_reader)
    return calls


_INTEGER_BODY = ("# fairsurv simulate\n\n   \n"
                 "z2,x,w1,z1,extra,w2,m,delta\n"
                 "007,0,1,7,5,0,010,1\n"
                 "7,1,1,007,5,0,10,0\n"
                 "999999999999999999,01,0,7,9,00,999999999999999999,2\n")

# -0.0 and 0, or 7, 7. and 7.00, share a code, and the table keeps the
# first; m keeps the sign of -0 and -0.0
_DECIMAL_BODY = ("z2,x,w1,z1,extra,w2,m,delta\n"
                 "-0.0,0,1,7,5,-0,-0,1\n"
                 "0,1,1,007.,.5,0,-0.0,0\n"
                 "-.5,01,-1.,7.00,-9,00,2.50,2\n")


@pytest.mark.parametrize("near_miss, text", [
    (None, _INTEGER_BODY),
    (None, _INTEGER_BODY[:-1]),  # no final newline
    (None, "x,z,w,m,delta\n0,1,2,3,1"),
    (None, _INTEGER_BODY.replace("010", "1.5")),
    (None, _INTEGER_BODY.replace(",9,", ",-9,")),
    (None, _DECIMAL_BODY),
    # 2 ** 53 as a float and as an int share a code, 2 ** 53 + 1 has its
    # own
    (None, _INTEGER_BODY.replace("007,0", "9007199254740992.,0")
     .replace("7,1,1", "9007199254740993,1,1")
     .replace("999999999999999999,01", "9007199254740992,01")),
    ("blank line", _INTEGER_BODY.replace("1\n7,", "1\n\n7,")),
    ("\r\n", _INTEGER_BODY.replace("\n", "\r\n")),
    ("short row", _INTEGER_BODY.replace(",5,0,10,0", ",5,0,10")),
    ("19 digits", _INTEGER_BODY.replace("999999999999999999,0", "1" + "0" * 18
                                         + ",0")),
    ("1.2.3", _INTEGER_BODY.replace(",9,", ",1.2.3,")),
    (".", _INTEGER_BODY.replace(",9,", ",.,")),
    ("-", _INTEGER_BODY.replace(",9,", ",-,")),
    ("1-2", _INTEGER_BODY.replace(",9,", ",1-2,")),
    ("+1", _INTEGER_BODY.replace(",9,", ",+1,")),
    ("1e5", _INTEGER_BODY.replace("010", "1e5")),
    ("17 digits", _INTEGER_BODY.replace("010", "12345678.901234567")),
    ("x = 1.0", _INTEGER_BODY.replace("7,1,1", "7,1.0,1")),
], ids=["integers", "no_final_newline", "one_row", "decimal_point", "sign",
        "decimals", "exact_mantissa", "blank_line", "crlf",
        "short_row", "19_digits", "two_points", "point", "minus",
        "inner_minus", "plus", "exponent", "17_digit_decimal", "x_point"])
def test_integer_bodies_bypass_the_token_reader(monkeypatch, near_miss,
                                                text):
    # a body of numeric tokens alone (integers, decimals, signs) is parsed
    # in one pass, never token by token; one near miss sends the text to
    # the token reader; both read it as the row-by-row reference does
    calls = _count_token_reads(monkeypatch)
    assert _read(Cohort.from_csv, text) == _read(_reference_from_csv, text)
    assert len(calls) == (near_miss is not None)


@pytest.mark.parametrize("column, token", [
    ("x", "a"), ("x", "1.0"), ("x", ""), ("x", "9" * 30),
    ("m", "abc"), ("m", ""), ("m", "1.5.1"),
    ("delta", "x"), ("delta", " "), ("delta", "9" * 30),
])
def test_csv_bad_number_names_its_column_as_the_reference_does(column,
                                                               token):
    row = {"x": "1", "z": "0", "w": "0", "m": "2.5", "delta": "1"}
    row[column] = token
    text = "x,z,w,m,delta\n0,0,0,1.5,1\n" + ",".join(row.values()) + "\n"
    with pytest.raises(CohortSchemaError, match=f"column '{column}'") as got:
        Cohort.from_csv(text)
    with pytest.raises(CohortSchemaError) as want:
        _reference_from_csv(text)
    assert str(got.value) == str(want.value)


def _header_text(header, body):
    """Two rows under ``header``: integers alone, or with a decimal m, or
    with an m the one-pass reader does not parse."""
    m = {"integer": "2", "decimal": "2.5", "exponent": "25e-1"}[body]
    rows = [[m if name.strip() == "m" else str(value)
             for name in header.split(",")] for value in (0, 1)]
    return "\n".join([header, *map(",".join, rows)]) + "\n"


@pytest.mark.parametrize("body", ["integer", "decimal", "exponent"])
@pytest.mark.parametrize("header, names", [
    ("x,x,z,w,m,delta", "'x', 'x' at columns 1, 2"),
    ("x ,z,w, x,m,delta", "'x', 'x' at columns 1, 4"),
    ("x,z,m,w,m,delta", "'m', 'm' at columns 3, 5"),
    ("delta,x,z,w,m,delta", "'delta', 'delta' at columns 1, 6"),
    ("x,z,w,z,m,delta", "'z', 'z' at columns 2, 4"),
    ("x,z,w,m,delta,w", "'w', 'w' at columns 3, 6"),
    ("x,z1,w,z01,m,delta", "'z1', 'z01' at columns 2, 4"),
    ("x,z,w1,w01,m,delta", "'w1', 'w01' at columns 3, 4"),
    ("x,z1,z,w,m,delta", "'z1', 'z' at columns 2, 3"),
    ("x,z,w,w2,m,delta", "'w', 'w2' at columns 3, 4"),
], ids=["x", "x_spaced", "m", "delta", "z", "w", "z1_z01", "w1_w01",
        "z_z1", "w_w2"])
def test_csv_ambiguous_header_is_a_schema_error(monkeypatch, header, names,
                                                body):
    # on both reader paths: a numeric body never reaches the token
    # reader, one with an exponent does
    calls = _count_token_reads(monkeypatch)
    with pytest.raises(CohortSchemaError, match=f"ambiguous: {names}$"):
        Cohort.from_csv(_header_text(header, body))
    assert len(calls) == (body == "exponent")


@pytest.mark.parametrize("body", ["integer", "decimal", "exponent"])
@pytest.mark.parametrize("header", ["x,z\u00b2,w,m,delta",
                                    "x,z,w\u00b3,m,delta"])
def test_csv_superscript_suffix_numbers_no_column(header, body):
    # "\u00b2" is a digit to str.isdigit but no number to int(): the column
    # is not a numbered z or w column, so the block is missing
    with pytest.raises(CohortSchemaError,
                       match="must include z and w columns$"):
        Cohort.from_csv(_header_text(header, body))
    # beside a numbered column it is an unused one
    assert (_read(Cohort.from_csv, _header_text(
        header.replace("x,", "x,z1,w1,").replace(",z,", ",")
        .replace(",w,", ","), body))
        == _read(Cohort.from_csv, _header_text("x,z1,w1,m,delta", body)))


@pytest.mark.parametrize("body", ["integer", "decimal", "exponent"])
def test_csv_repeated_unused_column_is_ignored(monkeypatch, body):
    calls = _count_token_reads(monkeypatch)
    assert (_read(Cohort.from_csv, _header_text("note,x,z,w,note,m,delta",
                                                body))
            == _read(Cohort.from_csv, _header_text("x,z,w,m,delta", body)))
    assert len(calls) == 2 * (body == "exponent")


@pytest.mark.parametrize("header", ["x,z,w,m,delta", "x,z1,z2,w,m,delta"])
def test_csv_nan_covariate_rows_each_keep_their_own_code(header):
    width = header.count(",") + 1
    z = ["nan", "1", "nan", "1.0", " nan"]
    rows = [",".join(["0", *[t] * (width - 4), "0", "1", "1"]) for t in z]
    text = "\n".join([header, *rows]) + "\n"
    got, want = Cohort.from_csv(text), _reference_from_csv(text)
    assert got.z_codes.tolist() == want.z_codes.tolist() == [0, 1, 2, 1, 3]
    assert list(map(repr, got.z_values)) == list(map(repr, want.z_values))


def test_cohort_rejects_bad_rows():
    with pytest.raises(CohortSchemaError):
        Cohort(x=[2], z=[0], w=[0], m=[1.0], delta=[1])
    with pytest.raises(CohortSchemaError):
        Cohort(x=[0], z=[0], w=[0], m=[-1.0], delta=[1])
    with pytest.raises(CohortSchemaError):
        Cohort.from_csv("a,b\n1,2")
    with pytest.raises(DataError):
        sample_cohort(spec_of(make_nic_balanced()), 0, seed=1)


def test_geometric_law_helper_masses_sum_to_one():
    law = geometric_law([1.0, 2.0], 0.3)
    assert_allclose(sum(law.values()), 1.0, atol=1e-15)
    assert_allclose(law[1.0], 0.3)
    assert_allclose(law[2.0], 0.21)
