"""Archimedean copula machinery tests.

Closed-form values below come straight from the family definitions
(independent derivations, frozen before implementation):

  clayton  C(u,v) = (u^-t + v^-t - 1)^(-1/t),    tau = t / (t + 2)
  gumbel   C(u,v) = exp(-((-ln u)^t + (-ln v)^t)^(1/t)),  tau = 1 - 1/t
  frank    C(u,v) = -(1/t) ln[1 + (e^{-tu}-1)(e^{-tv}-1)/(e^{-t}-1)]
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose
from scipy.stats import kendalltau

from fairsurv.copulas import (
    CopulaSpec,
    conditional_cdf,
    conditional_inverse,
    generator,
    generator_inverse,
    sample_uniform_pairs,
    tau_to_theta,
    theta_to_tau,
)
from fairsurv.errors import DataError

from testkit import copula_cdf

U_GRID = np.linspace(0.02, 0.98, 25)


def test_tau_theta_maps_closed_form():
    assert_allclose(tau_to_theta("clayton", 0.5), 2.0, atol=1e-12)
    assert_allclose(tau_to_theta("clayton", 0.2), 0.5, atol=1e-12)
    assert_allclose(tau_to_theta("gumbel", 0.5), 2.0, atol=1e-12)
    assert_allclose(tau_to_theta("gumbel", 0.8), 5.0, atol=1e-12)
    assert_allclose(theta_to_tau("clayton", 2.0), 0.5, atol=1e-12)
    assert_allclose(theta_to_tau("gumbel", 5.0), 0.8, atol=1e-12)


@pytest.mark.parametrize("tau", [0.1, 0.5, 0.8, -0.4])
def test_frank_debye_inversion_round_trip(tau):
    theta = tau_to_theta("frank", tau)
    assert abs(theta_to_tau("frank", theta) - tau) <= 1e-8
    assert np.sign(theta) == np.sign(tau)


def test_frank_theta_for_half_tau_in_known_range():
    # Literature value is roughly 5.74.
    theta = tau_to_theta("frank", 0.5)
    assert 5.5 < theta < 6.0


@pytest.mark.parametrize(
    "family,tau",
    [("independence", 0.0), ("clayton", 0.35), ("gumbel", 0.6), ("frank", -0.3)],
)
def test_generator_round_trip(family, tau):
    spec = CopulaSpec(family, tau)
    s = generator(spec, U_GRID)
    assert_allclose(generator_inverse(spec, s), U_GRID, atol=1e-10)
    # boundary behaviour: phi(1) = 0 and phi decreasing
    assert_allclose(generator(spec, 1.0), 0.0, atol=1e-12)
    assert np.all(np.diff(s) < 0.0)


def test_clayton_cdf_matches_closed_form():
    spec = CopulaSpec("clayton", 0.5)  # theta = 2
    assert_allclose(copula_cdf(spec, 0.5, 0.5), 7.0 ** -0.5, atol=1e-12)
    u, v = np.meshgrid(U_GRID, U_GRID)
    direct = (u ** -2.0 + v ** -2.0 - 1.0) ** -0.5
    assert_allclose(copula_cdf(spec, u, v), direct, atol=1e-10)


def test_gumbel_cdf_matches_closed_form():
    spec = CopulaSpec("gumbel", 0.5)  # theta = 2
    assert_allclose(copula_cdf(spec, 0.5, 0.5), 2.0 ** -np.sqrt(2.0), atol=1e-12)


def test_frank_cdf_matches_closed_form():
    for theta in (3.0, -4.0):
        spec = CopulaSpec("frank", theta_to_tau("frank", theta))
        u, v = np.meshgrid(U_GRID[::3], U_GRID[::3])
        direct = -np.log1p(
            np.expm1(-theta * u) * np.expm1(-theta * v) / np.expm1(-theta)
        ) / theta
        assert_allclose(copula_cdf(spec, u, v), direct, atol=1e-8)


@pytest.mark.parametrize(
    "family,tau",
    [("independence", 0.0), ("clayton", 0.5), ("gumbel", 0.3), ("frank", 0.7)],
)
def test_cdf_boundaries(family, tau):
    spec = CopulaSpec(family, tau)
    assert_allclose(copula_cdf(spec, U_GRID, np.ones_like(U_GRID)), U_GRID, atol=1e-9)
    assert_allclose(
        copula_cdf(spec, U_GRID, np.zeros_like(U_GRID)), 0.0, atol=1e-12
    )


def test_independence_cdf_is_product():
    spec = CopulaSpec("independence", 0.0)
    u, v = np.meshgrid(U_GRID, U_GRID)
    assert_allclose(copula_cdf(spec, u, v), u * v, atol=1e-12)


@pytest.mark.parametrize(
    "family,tau",
    [("clayton", 0.5), ("gumbel", 0.5), ("frank", -0.4), ("independence", 0.0)],
)
def test_monte_carlo_kendall_tau(family, tau):
    spec = CopulaSpec(family, tau)
    rng = np.random.default_rng(20260815)
    u, v = sample_uniform_pairs(spec, 20000, rng)
    est, _ = kendalltau(u, v)
    assert abs(est - tau) <= 0.02


def test_sampled_marginals_are_uniform():
    spec = CopulaSpec("clayton", 0.5)
    rng = np.random.default_rng(7)
    u, v = sample_uniform_pairs(spec, 40000, rng)
    for arr in (u, v):
        assert abs(np.mean(arr) - 0.5) < 0.01
        assert abs(np.mean(arr <= 0.3) - 0.3) < 0.02


@given(
    family_tau=st.sampled_from(
        [("clayton", 0.5), ("gumbel", 0.6), ("frank", -0.3), ("frank", 0.8)]
    ),
    u=st.floats(0.02, 0.98),
    p=st.floats(0.02, 0.98),
)
@settings(max_examples=120, deadline=None)
def test_conditional_inverse_round_trip(family_tau, u, p):
    spec = CopulaSpec(*family_tau)
    v = conditional_inverse(spec, np.array([u]), np.array([p]))[0]
    assert 0.0 < v < 1.0
    back = conditional_cdf(spec, np.array([u]), np.array([v]))[0]
    assert abs(back - p) <= 1e-8


def test_conditional_cdf_is_monotone_in_v():
    for family, tau in [("clayton", 0.5), ("gumbel", 0.7), ("frank", 0.4)]:
        spec = CopulaSpec(family, tau)
        u = np.full_like(U_GRID, 0.4)
        f = conditional_cdf(spec, u, U_GRID)
        assert np.all(np.diff(f) > 0.0)


@pytest.mark.parametrize(
    "family,tau",
    [
        ("clayton", 0.0),
        ("clayton", -0.2),
        ("clayton", 1.0),
        ("gumbel", 0.0),
        ("gumbel", -0.5),
        ("frank", 0.0),
        ("frank", 1.0),
        ("independence", 0.3),
        ("nonsense", 0.5),
    ],
)
def test_inadmissible_specs_raise(family, tau):
    with pytest.raises(DataError):
        CopulaSpec(family, tau)
