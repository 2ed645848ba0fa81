"""Archimedean copula generators, Kendall-tau calibration, and sampling.

Supported families: independence, clayton, gumbel, frank.  Each family is
driven by its additive generator phi, so the joint survival model
H(t, c) = C(S(t), G(c)) used elsewhere reduces to the additive identity
phi(H) = phi(S) + phi(G).  Dependence strength is always specified on the
Kendall-tau scale and converted to the family parameter internally.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DataError

_FAMILIES = ("independence", "clayton", "gumbel", "frank")

_TINY = 1e-15


def _debye1(theta):
    # D1(x) = (1/x) * int_0^x t / (e^t - 1) dt, the order-1 Debye function.
    # scipy is imported here, not at module level: only the frank family
    # needs it, and loading it costs more than the rest of the package.
    from scipy.integrate import quad

    with np.errstate(over="ignore"):  # expm1 overflows to inf: t/inf = 0
        val, _ = quad(lambda t: t / np.expm1(t), 0.0, theta, limit=200)
    return val / theta


def theta_to_tau(family, theta):
    """Kendall tau implied by the family parameter."""
    if family == "independence":
        return 0.0
    if family == "clayton":
        return theta / (theta + 2.0)
    if family == "gumbel":
        return 1.0 - 1.0 / theta
    if family == "frank":
        if theta == 0.0:
            return 0.0
        a = abs(theta)
        tau = 1.0 - 4.0 / a * (1.0 - _debye1(a))
        return float(np.sign(theta) * tau)
    raise DataError(f"unknown copula family {family!r}")


def tau_to_theta(family, tau):
    """Family parameter for a target Kendall tau.

    Clayton and gumbel invert in closed form.  Frank is solved by
    bracketed root finding on the Debye-function relation, tight enough
    that |tau - tau(theta)| <= 1e-8.
    """
    if family == "independence":
        return 0.0
    if family == "clayton":
        return 2.0 * tau / (1.0 - tau)
    if family == "gumbel":
        return 1.0 / (1.0 - tau)
    if family == "frank":
        from scipy.optimize import brentq

        target = abs(tau)
        hi = 1.0
        while theta_to_tau("frank", hi) < target:
            hi *= 2.0
            if hi > 1e5:
                raise DataError("frank tau too close to 1 to calibrate")
        theta = brentq(
            lambda th: theta_to_tau("frank", th) - target,
            1e-10,
            hi,
            xtol=1e-13,
            rtol=8.9e-16,
        )
        return float(np.sign(tau) * theta)
    raise DataError(f"unknown copula family {family!r}")


@dataclass(frozen=True)
class CopulaSpec:
    """A copula family plus dependence strength on the Kendall-tau scale.

    Admissible ranges: clayton and gumbel cover tau in (0, 1); frank
    covers tau in (-1, 1) except 0; independence requires tau = 0.
    """

    family: str
    kendall_tau: float
    theta: float = field(init=False)

    def __post_init__(self):
        if self.family not in _FAMILIES:
            raise DataError(f"unknown copula family {self.family!r}")
        tau = float(self.kendall_tau)
        if self.family == "independence":
            if tau != 0.0:
                raise DataError("independence copula requires tau = 0")
        elif self.family in ("clayton", "gumbel"):
            if not 0.0 < tau < 1.0:
                raise DataError(f"{self.family} requires tau in (0, 1)")
        else:  # frank
            if not -1.0 < tau < 1.0 or tau == 0.0:
                raise DataError("frank requires tau in (-1, 1) and nonzero")
        object.__setattr__(self, "kendall_tau", tau)
        object.__setattr__(self, "theta", tau_to_theta(self.family, tau))


def generator(spec, u):
    """phi(u), vectorized; phi(1) = 0 and phi(0+) = +inf for all families."""
    u = np.asarray(u, dtype=float)
    clipped = np.clip(u, _TINY, 1.0)
    th = spec.theta
    if spec.family == "independence":
        out = -np.log(clipped)
    elif spec.family == "clayton":
        out = (clipped ** -th - 1.0) / th
    elif spec.family == "gumbel":
        out = (-np.log(clipped)) ** th
    else:  # frank
        out = -np.log(np.expm1(-th * clipped) / np.expm1(-th))
    return np.where(u <= 0.0, np.inf, out)


def generator_inverse(spec, s):
    """phi^{-1}(s); negative inputs are treated as 0 (float-noise guard)."""
    s = np.asarray(s, dtype=float)
    s = np.where(s < 0.0, 0.0, s)
    th = spec.theta
    if spec.family == "independence":
        out = np.exp(-s)
    elif spec.family == "clayton":
        out = (1.0 + th * s) ** (-1.0 / th)
    elif spec.family == "gumbel":
        out = np.exp(-(s ** (1.0 / th)))
    else:  # frank
        with np.errstate(over="ignore"):
            out = -np.log1p(np.exp(-s) * np.expm1(-th)) / th
    return np.where(np.isinf(s), 0.0, out)


def conditional_cdf(spec, u, v):
    """P(V <= v | U = u) = d C(u, v) / du, vectorized over arrays."""
    u = np.clip(np.asarray(u, dtype=float), _TINY, 1.0 - _TINY)
    v = np.clip(np.asarray(v, dtype=float), _TINY, 1.0 - _TINY)
    th = spec.theta
    if spec.family == "independence":
        return v.copy()
    if spec.family == "clayton":
        return (1.0 + (u ** th) * (v ** -th - 1.0)) ** (-(th + 1.0) / th)
    if spec.family == "frank":
        num = np.exp(-th * u) * np.expm1(-th * v)
        den = np.expm1(-th) + np.expm1(-th * u) * np.expm1(-th * v)
        return num / den
    # gumbel:  phi'(u) / phi'(C) = (C/u) * (ln u / ln C)^(theta-1)
    lu, lv = -np.log(u), -np.log(v)
    lc = (lu ** th + lv ** th) ** (1.0 / th)
    c = np.exp(-lc)
    return (c / u) * (lu / lc) ** (th - 1.0)


def _conditional_inverse_bisect(spec, u, p, iters=64):
    lo = np.full_like(p, _TINY)
    hi = np.full_like(p, 1.0 - _TINY)
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        below = conditional_cdf(spec, u, mid) < p
        lo = np.where(below, mid, lo)
        hi = np.where(below, hi, mid)
    return 0.5 * (lo + hi)


def conditional_inverse(spec, u, p):
    """Solve conditional_cdf(spec, u, v) = p for v.

    Closed form for independence, clayton, and frank; monotone bisection
    for gumbel (deterministic, no rejection step).
    """
    u = np.clip(np.asarray(u, dtype=float), _TINY, 1.0 - _TINY)
    p = np.clip(np.asarray(p, dtype=float), _TINY, 1.0 - _TINY)
    th = spec.theta
    if spec.family == "independence":
        return p.copy()
    if spec.family == "clayton":
        return (1.0 + (u ** -th) * (p ** (-th / (th + 1.0)) - 1.0)) ** (-1.0 / th)
    if spec.family == "frank":
        x = p * np.expm1(-th) / (np.exp(-th * u) - p * np.expm1(-th * u))
        return -np.log1p(x) / th
    return _conditional_inverse_bisect(spec, u, p)


def sample_uniform_pairs(spec, n, rng):
    """Draw n pairs with uniform marginals and joint CDF C(u, v).

    Conditional-inverse method: u and the conditional rank p are iid
    uniforms, v = F^{-1}(p | u).  Deterministic given the generator state.
    """
    if n <= 0:
        raise DataError("sample size must be positive")
    u = rng.random(n)
    p = rng.random(n)
    v = conditional_inverse(spec, u, p)
    return u, v
