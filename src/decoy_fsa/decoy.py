"""Weak+vacuum decoy-state estimation and the GLLP key-rate evaluation.

These are the formulas the legitimate users run on whatever observables they
measure; they are oblivious to whether an attack produced those observables.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

from . import security
from .model import SystemParams
from .observables import (
    PNRD,
    AttackStrategy,
    DegenerateObservablesError,
    Observables,
    checked_qber,
    rates_for,
    resend_curve,
)
from .observables import observables_for  # noqa: F401 -- a name bench/tracing.py binds here


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


class RateReport(NamedTuple):
    """One evaluation of the full pipeline; ``r_absolute`` is NaN unless the strategy is PNRD.

    The fields are the four observables, the four bound fields, the rate and
    ``r_absolute``; ``flags`` names the bound flags that fired.
    """

    q_mu: float
    q_nu: float
    emu_qmu: float
    enu_qnu: float
    y1_lower: float
    q1_lower: float
    e1_upper: float
    y1_clamped: bool
    rate: float
    r_absolute: float

    @property
    def flags(self) -> tuple[str, ...]:
        fired = (("clamped_y1", self.y1_clamped), ("unbounded_e1", math.isinf(self.e1_upper)))
        return tuple(name for name, on in fired if on)


def binary_entropy(x: float) -> float:
    """Binary Shannon entropy H2(x) in bits, with H2(0) = H2(1) = 0."""
    if not 0.0 <= x <= 1.0:
        raise ValueError(f"binary_entropy defined on [0, 1], got {x}")
    if x == 0.0 or x == 1.0:
        return 0.0
    return -x * math.log2(x) - (1.0 - x) * math.log2(1.0 - x)


def _bounds_for(params: SystemParams) -> Callable[[float, float, float], tuple]:
    """The bounds at ``params``: (q_mu, q_nu, enu_qnu) -> the :class:`DecoyBounds` fields Y1,
    Q1 = mu*exp(-mu)*Y1, e1 and the clamp flag.

    Y1 is the weak+vacuum bound clamped to [0, 1]; e1 is +inf at Y1 = 0.  The
    terms of ``params`` alone are computed once, each by the operations the
    whole expression would apply, left to right, so that no bit moves."""
    mu, nu, d = params.mu, params.nu, params.dark_count
    mu2, nu2, exp_nu, exp_mu = mu**2, nu**2, math.exp(nu), math.exp(mu)
    scale = mu / (mu * nu - nu2)
    dark = (mu2 - nu2) / mu2 * d
    half_d = 0.5 * d
    single = mu * math.exp(-mu)

    def bounds(q_mu: float, q_nu: float, enu_qnu: float) -> tuple[float, float, float, bool]:
        raw_y1 = scale * (q_nu * exp_nu - q_mu * exp_mu * nu2 / mu2 - dark)
        y1 = min(max(raw_y1, 0.0), 1.0)
        e1 = math.inf if y1 <= 0.0 else (enu_qnu * exp_nu - half_d) / (y1 * nu)
        return y1, single * y1, e1, raw_y1 != y1

    return bounds


def decoy_bounds(obs: Observables, params: SystemParams) -> DecoyBounds:
    """Run the bound estimators and record the clamp/divergence flags."""
    return DecoyBounds(*_bounds_for(params)(obs.q_mu, obs.q_nu, obs.enu_qnu))


def _key_rate(q_mu: float, e_mu: float, q1: float, e1_raw: float, params: SystemParams) -> float:
    e1 = min(max(e1_raw, 0.0), 0.5)
    return params.q_sift * (
        -q_mu * params.f_ec * binary_entropy(e_mu) + q1 * (1.0 - binary_entropy(e1))
    )


def key_rate(obs: Observables, bounds: DecoyBounds, params: SystemParams) -> float:
    """GLLP secret key rate per pulse; negative means no key is distillable.

    The single-photon error bound is clamped to [0, 1/2]: past 1/2 the privacy
    amplification term is already zero and the entropy would turn back down.
    """
    return _key_rate(obs.q_mu, obs.e_mu, bounds.q1_lower, bounds.e1_upper, params)


def _report(rates: tuple, bounds: Callable, params: SystemParams, pnrd: bool) -> RateReport:
    """Check the observables of :func:`observables.rates_for`, bound them and rate them."""
    q_mu, q_nu, emu_qmu, enu_qnu, attacked_mu, blind_arm = rates
    e_mu = checked_qber(q_mu, q_nu, emu_qmu, enu_qnu)
    y1, q1, e1, clamped = bounds(q_mu, q_nu, enu_qnu)
    rate = _key_rate(q_mu, e_mu, q1, e1, params)
    r_abs = security.r_absolute(attacked_mu, blind_arm) if pnrd else math.nan
    return RateReport(q_mu, q_nu, emu_qmu, enu_qnu, y1, q1, e1, clamped, rate, r_abs)


def attack_curve(params: SystemParams, k: float, eta_e: float) -> Callable[[float], float]:
    """The attacked key rate as a function of mu_prime at fixed (params, k, eta_e).

    Everything that does not depend on mu_prime (the efficiencies, the gated
    shares p_single and the bounds' constants) is computed once, and k and eta_e
    are checked here; each call checks its mu_prime.  A degenerate point (zero
    gain: no faked states, no darks) has nothing to distill and reads -inf.
    """
    rates, bounds = resend_curve(params, k, eta_e), _bounds_for(params)

    def rate(mu_prime: float) -> float:
        try:
            return _report(rates(mu_prime), bounds, params, False).rate
        except DegenerateObservablesError:
            return -math.inf

    return rate


def evaluate(params: SystemParams, strategy: AttackStrategy) -> RateReport:
    """Full pipeline in one pass: observables -> decoy bounds -> rate (-> residual secure rate)."""
    return _report(rates_for(params, strategy), _bounds_for(params), params,
                   isinstance(strategy, PNRD))
