"""Gain and error observables Alice and Bob measure under each attack strategy."""

from __future__ import annotations

from dataclasses import dataclass
from math import exp, inf, nan
from typing import Callable, ClassVar, Union

from . import faked_states
from .model import SystemParams, efficiency_matrix

_SLACK = 1e-12


class DegenerateObservablesError(ValueError):
    """Raised when the signal gain vanishes and the QBER is undefined."""


@dataclass(frozen=True)
class Baseline:
    """No eavesdropper; standard linear-channel weak+vacuum model."""


def _check_mu_prime(mu_prime: float) -> None:
    if not 0.0 <= mu_prime < inf:
        raise ValueError(f"mu_prime must be finite and non-negative, got {mu_prime}")


@dataclass(frozen=True)
class _ResendAttack:
    """Faked-state intercept-resend gated on a measured photon count of one.

    Attributes:
        mu_prime: faked-state mean photon number (same at both timings).
        k: detector efficiency mismatch ratio engineered by the eavesdropper.
    """

    mu_prime: float
    k: float

    def __post_init__(self) -> None:
        _check_mu_prime(self.mu_prime)
        if not 1.0 <= self.k < inf:
            raise ValueError(f"k must be finite and >= 1, got {self.k}")


@dataclass(frozen=True)
class QND(_ResendAttack):
    """Intercept-resend on every true single-photon pulse; multi-photon pulses blocked.

    This is the PNRD attack with a perfect detector, so ``eta_e`` is fixed at 1.
    """

    eta_e: ClassVar[float] = 1.0


@dataclass(frozen=True)
class PNRD(_ResendAttack):
    """Intercept-resend gated by a photon-number-resolving measurement.

    The eavesdropper resends only when her detectors report exactly one photon,
    which for single-photon efficiency eta_e happens with probability
    mu*eta_e*exp(-mu*eta_e) per signal pulse.
    """

    eta_e: float

    def __post_init__(self) -> None:
        super().__post_init__()
        if not 0.0 < self.eta_e <= 1.0:
            raise ValueError(f"eta_e must be in (0, 1], got {self.eta_e}")


AttackStrategy = Union[Baseline, QND, PNRD]


@dataclass(frozen=True)
class Observables:
    """Per-pulse rates as seen by the legitimate users.

    A zero signal gain leaves the QBER undefined and raises
    :class:`DegenerateObservablesError`.
    """

    q_mu: float
    q_nu: float
    emu_qmu: float
    enu_qnu: float

    def __post_init__(self) -> None:
        checked_qber(self.q_mu, self.q_nu, self.emu_qmu, self.enu_qnu)

    @property
    def e_mu(self) -> float:
        """The overall QBER emu_qmu/q_mu of the signal state."""
        return self.emu_qmu / self.q_mu


def checked_qber(q_mu: float, q_nu: float, emu_qmu: float, enu_qnu: float) -> float:
    """The signal QBER emu_qmu/q_mu, once the four rates pass the :class:`Observables` checks."""
    if q_mu <= 0.0:
        raise DegenerateObservablesError("signal gain is zero; QBER undefined")
    for err, gain, tag in ((emu_qmu, q_mu, "mu"), (enu_qnu, q_nu, "nu")):
        if not (-_SLACK <= err <= gain + _SLACK and gain <= 1.0 + _SLACK):
            raise ValueError(f"need 0 <= E_{tag}*Q_{tag} <= Q_{tag} <= 1, got ({err}, {gain})")
    e_mu = emu_qmu / q_mu
    if not -_SLACK <= e_mu <= 1.0 + _SLACK:
        raise ValueError(f"QBER must be in [0, 1], got {e_mu}")
    return e_mu


def p_single(mu: float, eta_e: float) -> float:
    """Probability that a PNRD with efficiency ``eta_e`` reports exactly one photon.

    Equals the binomially thinned single-count sum over the Poisson photon
    number distribution, mu*eta_e*exp(-mu*eta_e).
    """
    if not 0.0 <= mu < inf:
        raise ValueError(f"mu must be finite and non-negative, got {mu}")
    if not 0.0 < eta_e <= 1.0:
        raise ValueError(f"eta_e must be in (0, 1], got {eta_e}")
    return mu * eta_e * exp(-mu * eta_e)


def resend_curve(params: SystemParams, k: float, eta_e: float) -> Callable[[float], tuple]:
    """:func:`rates_for` along mu_prime when resends are gated on a measured photon count of one.

    Everything but the faked states' own probabilities is computed once, by the
    operations the per-point expressions would apply, and the returned function
    checks each mu_prime it is given.  The QND strategy
    is the case eta_e = 1, where p_single(mu, 1) = mu*exp(-mu) attacks every
    true single-photon pulse.  Pulses the eavesdropper does not resend reach Bob
    as vacuum and click only via the dark count probability d, erring half the
    time.  The attack leaves Bob's receiver as it is, so its intrinsic detector
    error e flips the bit of every click, faked state or dark count alike:
    E'Q = (1 - 2e)*EQ + e*Q, the rule the baseline's d/2 + e*(1 - exp(-eta*x))
    embodies.  At e = 0 the composition is exact.
    """
    d = params.dark_count
    matched, blind = efficiency_matrix(params, k)
    attacked_mu = p_single(params.mu, eta_e)
    attacked_nu = p_single(params.nu, eta_e)
    dark_mu = (1.0 - attacked_mu) * d
    dark_nu = (1.0 - attacked_nu) * d
    dark_err_mu = 0.5 * (1.0 - attacked_mu) * d
    dark_err_nu = 0.5 * (1.0 - attacked_nu) * d
    e = params.e_detector
    kept = 1.0 - 2.0 * e

    def rates(mu_prime: float) -> tuple[float, ...]:
        _check_mu_prime(mu_prime)
        _, arrive, error, blind_arm = faked_states.resend_probs(mu_prime, matched, blind, d)
        q_mu = arrive * attacked_mu + dark_mu
        q_nu = arrive * attacked_nu + dark_nu
        emu_qmu = kept * (error * attacked_mu + dark_err_mu) + e * q_mu
        enu_qnu = kept * (error * attacked_nu + dark_err_nu) + e * q_nu
        return q_mu, q_nu, emu_qmu, enu_qnu, attacked_mu, blind_arm

    return rates


def _baseline_gains(params: SystemParams) -> tuple[float, float, float, float]:
    """Observables of the undisturbed linear channel (Ma, Qi, Zhao & Lo, PRA 72, 012326).

    Q_x = d + 1 - exp(-eta*x) and E_x*Q_x = d/2 + e_detector*(1 - exp(-eta*x))
    with eta the end-to-end transmittance t_AB*eta_bob.  This is the standard
    additive form, which omits the light-and-dark coincidence d*(1 - exp(-eta*x))
    (half of it in E_x*Q_x), negligible at GYS's d = 1.7e-6.  The mismatch geometry
    plays no role because the users calibrate at the nominal timing.
    """
    eta = params.transmittance
    d = params.dark_count
    unlit_mu = exp(-eta * params.mu)
    unlit_nu = exp(-eta * params.nu)
    q_mu = d + 1.0 - unlit_mu
    q_nu = d + 1.0 - unlit_nu
    emu_qmu = 0.5 * d + params.e_detector * (1.0 - unlit_mu)
    enu_qnu = 0.5 * d + params.e_detector * (1.0 - unlit_nu)
    return q_mu, q_nu, emu_qmu, enu_qnu


def rates_for(params: SystemParams, strategy: AttackStrategy) -> tuple[float, ...]:
    """The observables as floats (q_mu, q_nu, emu_qmu, enu_qnu), unchecked, then two resend terms.

    The two are the attacked share p_single(mu, eta_e) of signal pulses and the
    blind-arm probability of :func:`faked_states.resend_probs`, which the residual
    secure rate reads; both are NaN for the baseline.
    """
    if isinstance(strategy, _ResendAttack):
        return resend_curve(params, strategy.k, strategy.eta_e)(strategy.mu_prime)
    if isinstance(strategy, Baseline):
        return (*_baseline_gains(params), nan, nan)
    raise TypeError(f"unknown strategy type: {type(strategy).__name__}")


def observables_for(params: SystemParams, strategy: AttackStrategy) -> Observables:
    """Dispatch to the per-strategy observable model."""
    return Observables(*rates_for(params, strategy)[:4])


def strategy_label(strategy: AttackStrategy) -> str:
    return type(strategy).__name__.lower()
