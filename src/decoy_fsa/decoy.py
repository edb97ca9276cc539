"""Weak+vacuum decoy-state estimation and the GLLP key-rate evaluation.

These are the formulas the legitimate users run on whatever observables they
measure; they are oblivious to whether an attack produced those observables.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from . import security
from .model import SystemParams
from .observables import AttackStrategy, Observables, PNRD, observables_for


@dataclass(frozen=True)
class DecoyBounds:
    """Single-photon bounds estimated from the signal/decoy observables.

    ``e1_upper`` is the raw bound and may be infinite when the yield bound hit
    zero; the rate evaluation clamps it to [0, 1/2] separately.
    """

    y1_lower: float
    q1_lower: float
    e1_upper: float
    y1_clamped: bool = False

    @property
    def e1_unbounded(self) -> bool:
        return math.isinf(self.e1_upper)


@dataclass(frozen=True)
class RateReport:
    """One (distance, strategy) evaluation of the full pipeline."""

    distance: float
    strategy: AttackStrategy
    observables: Observables
    bounds: DecoyBounds
    rate: float
    r_absolute: float | None = None

    @property
    def flags(self) -> tuple[str, ...]:
        fired = (("clamped_y1", self.bounds.y1_clamped), ("unbounded_e1", self.bounds.e1_unbounded))
        return tuple(name for name, on in fired if on)


def binary_entropy(x: float) -> float:
    """Binary Shannon entropy H2(x) in bits, with H2(0) = H2(1) = 0."""
    if not 0.0 <= x <= 1.0:
        raise ValueError(f"binary_entropy defined on [0, 1], got {x}")
    if x == 0.0 or x == 1.0:
        return 0.0
    return -x * math.log2(x) - (1.0 - x) * math.log2(1.0 - x)


def _y1_raw(obs: Observables, params: SystemParams) -> float:
    """Weak+vacuum lower bound on the single-photon yield, before clamping."""
    mu, nu, d = params.mu, params.nu, params.dark_count
    return (
        mu
        / (mu * nu - nu**2)
        * (
            obs.q_nu * math.exp(nu)
            - obs.q_mu * math.exp(mu) * nu**2 / mu**2
            - (mu**2 - nu**2) / mu**2 * d
        )
    )


def y1_lower(obs: Observables, params: SystemParams) -> float:
    """Lower bound on the single-photon yield, clamped to [0, 1]."""
    return min(max(_y1_raw(obs, params), 0.0), 1.0)


def q1_lower(y1: float, mu: float) -> float:
    """Lower bound on the single-photon gain, mu*exp(-mu)*Y1."""
    if not 0.0 <= y1 <= 1.0:
        raise ValueError(f"y1 must be in [0, 1], got {y1}")
    return mu * math.exp(-mu) * y1


def e1_upper(obs: Observables, y1: float, params: SystemParams) -> float:
    """Upper bound on the single-photon error rate; +inf when y1 == 0."""
    if y1 <= 0.0:
        return math.inf
    nu, d = params.nu, params.dark_count
    return (obs.enu_qnu * math.exp(nu) - 0.5 * d) / (y1 * nu)


def decoy_bounds(obs: Observables, params: SystemParams) -> DecoyBounds:
    """Run the bound estimators and record the clamp/divergence flags."""
    raw_y1 = _y1_raw(obs, params)
    y1 = min(max(raw_y1, 0.0), 1.0)
    return DecoyBounds(
        y1_lower=y1,
        q1_lower=q1_lower(y1, params.mu),
        e1_upper=e1_upper(obs, y1, params),
        y1_clamped=raw_y1 != y1,
    )


def key_rate(obs: Observables, bounds: DecoyBounds, params: SystemParams) -> float:
    """GLLP secret key rate per pulse; negative means no key is distillable.

    The single-photon error bound is clamped to [0, 1/2]: past 1/2 the privacy
    amplification term is already zero and the entropy would turn back down.
    """
    e1 = min(max(bounds.e1_upper, 0.0), 0.5)
    return params.q_sift * (
        -obs.q_mu * params.f_ec * binary_entropy(obs.e_mu)
        + bounds.q1_lower * (1.0 - binary_entropy(e1))
    )


def q1_expansion(yields: Sequence[float], mu: float, nu: float) -> float:
    """Single-photon gain bound as a truncated series over per-photon-number yields.

    ``yields[i-1]`` is the yield of an i-photon pulse, i = 1..N.  Every term
    with i >= 2 is non-positive for nu < mu, which is what makes blocking all
    multi-photon pulses optimal for the eavesdropper.
    """
    if not 0.0 < nu < mu:
        raise ValueError(f"need 0 < nu < mu, got nu={nu}, mu={mu}")
    if len(yields) < 2:
        raise ValueError("need yields up to photon number 2 at least")
    for y in yields:
        if not 0.0 <= y <= 1.0:
            raise ValueError(f"yields must lie in [0, 1], got {y}")
    prefactor = mu**2 * math.exp(-mu) / (mu * nu - nu**2)
    total = 0.0
    for i, y in enumerate(yields, start=1):
        total += y * nu**2 * (nu ** (i - 2) - mu ** (i - 2)) / math.factorial(i)
    return prefactor * total


def evaluate(params: SystemParams, strategy: AttackStrategy) -> RateReport:
    """Full pipeline: observables -> decoy bounds -> rate (-> residual secure rate)."""
    obs = observables_for(params, strategy)
    bounds = decoy_bounds(obs, params)
    rate = key_rate(obs, bounds, params)
    r_abs = None
    if isinstance(strategy, PNRD):
        r_abs = security.r_absolute_for(params, strategy)
    return RateReport(
        distance=params.distance,
        strategy=strategy,
        observables=obs,
        bounds=bounds,
        rate=rate,
        r_absolute=r_abs,
    )
