"""Gain and error observables Alice and Bob measure under each attack strategy."""

from __future__ import annotations

from dataclasses import dataclass
from math import exp, inf
from typing import ClassVar, Union

from . import faked_states
from .model import SystemParams, channel_transmittance, efficiency_matrix

_SLACK = 1e-12


class DegenerateObservablesError(ValueError):
    """Raised when the signal gain vanishes and the QBER is undefined."""


@dataclass(frozen=True)
class Baseline:
    """No eavesdropper; standard linear-channel weak+vacuum model."""


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
        if not 0.0 <= self.mu_prime < inf:
            raise ValueError(f"mu_prime must be finite and non-negative, got {self.mu_prime}")
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
        if self.q_mu <= 0.0:
            raise DegenerateObservablesError("signal gain is zero; QBER undefined")
        for err, gain, tag in (
            (self.emu_qmu, self.q_mu, "mu"),
            (self.enu_qnu, self.q_nu, "nu"),
        ):
            if err < -_SLACK or err > gain + _SLACK or gain > 1.0 + _SLACK:
                raise ValueError(
                    f"need 0 <= E_{tag}*Q_{tag} <= Q_{tag} <= 1, got ({err}, {gain})"
                )
        if not -_SLACK <= self.e_mu <= 1.0 + _SLACK:
            raise ValueError(f"QBER must be in [0, 1], got {self.e_mu}")

    @property
    def e_mu(self) -> float:
        """The overall QBER emu_qmu/q_mu of the signal state."""
        return self.emu_qmu / self.q_mu


def p_single(mu: float, eta_e: float) -> float:
    """Probability that a PNRD with efficiency ``eta_e`` reports exactly one photon.

    Equals the binomially thinned single-count sum over the Poisson photon
    number distribution, mu*eta_e*exp(-mu*eta_e).
    """
    if mu < 0.0:
        raise ValueError(f"mu must be non-negative, got {mu}")
    if not 0.0 < eta_e <= 1.0:
        raise ValueError(f"eta_e must be in (0, 1], got {eta_e}")
    return mu * eta_e * exp(-mu * eta_e)


def _attack_observables(
    arrive: float,
    error: float,
    attacked_mu: float,
    attacked_nu: float,
    d: float,
    e_detector: float,
) -> Observables:
    """Assemble observables from resend statistics and per-intensity attack fractions.

    Pulses the eavesdropper does not resend reach Bob as vacuum and click only
    via the dark count probability d, erring half the time.  The attack leaves
    Bob's receiver as it is, so its intrinsic detector error ``e_detector``
    flips the bit of every click, faked state or dark count alike:
    E'Q = (1 - 2e)*EQ + e*Q, the rule the baseline's d/2 + e*(1 - exp(-eta*x))
    embodies.  At e = 0 the composition is exact.
    """
    q_mu = arrive * attacked_mu + (1.0 - attacked_mu) * d
    q_nu = arrive * attacked_nu + (1.0 - attacked_nu) * d
    emu_qmu = error * attacked_mu + 0.5 * (1.0 - attacked_mu) * d
    enu_qnu = error * attacked_nu + 0.5 * (1.0 - attacked_nu) * d
    emu_qmu = (1.0 - 2.0 * e_detector) * emu_qmu + e_detector * q_mu
    enu_qnu = (1.0 - 2.0 * e_detector) * enu_qnu + e_detector * q_nu
    return Observables(q_mu=q_mu, q_nu=q_nu, emu_qmu=emu_qmu, enu_qnu=enu_qnu)


def observables_pnrd(params: SystemParams, strategy: QND | PNRD) -> Observables:
    """Observables when resends are gated on a measured photon count of one.

    The QND strategy is the case eta_e = 1, where p_single(mu, 1) = mu*exp(-mu)
    attacks every true single-photon pulse.
    """
    eff = efficiency_matrix(params, strategy.k)
    fs = faked_states.FakedStateIntensities.symmetric(strategy.mu_prime)
    d = params.dark_count
    arrive = faked_states.p_arrive(fs, eff, d)
    error = faked_states.p_error(fs, eff, d)
    attacked_mu = p_single(params.mu, strategy.eta_e)
    attacked_nu = p_single(params.nu, strategy.eta_e)
    return _attack_observables(arrive, error, attacked_mu, attacked_nu, d, params.e_detector)


def observables_baseline(params: SystemParams) -> Observables:
    """Observables of the undisturbed linear channel (Ma, Qi, Zhao & Lo, PRA 72, 012326).

    Q_x = d + 1 - exp(-eta*x) and E_x*Q_x = d/2 + e_detector*(1 - exp(-eta*x))
    with eta the end-to-end transmittance t_AB*eta_bob.  This is the standard
    additive form, which omits the light-and-dark coincidence d*(1 - exp(-eta*x))
    (half of it in E_x*Q_x), negligible at GYS's d = 1.7e-6.  The mismatch geometry
    plays no role because the users calibrate at the nominal timing.
    """
    eta = channel_transmittance(params.alpha, params.distance) * params.eta_bob
    d = params.dark_count
    q_mu = d + 1.0 - exp(-eta * params.mu)
    q_nu = d + 1.0 - exp(-eta * params.nu)
    emu_qmu = 0.5 * d + params.e_detector * (1.0 - exp(-eta * params.mu))
    enu_qnu = 0.5 * d + params.e_detector * (1.0 - exp(-eta * params.nu))
    return Observables(q_mu=q_mu, q_nu=q_nu, emu_qmu=emu_qmu, enu_qnu=enu_qnu)


def observables_for(params: SystemParams, strategy: AttackStrategy) -> Observables:
    """Dispatch to the per-strategy observable model."""
    if isinstance(strategy, Baseline):
        return observables_baseline(params)
    if isinstance(strategy, _ResendAttack):
        return observables_pnrd(params, strategy)
    raise TypeError(f"unknown strategy type: {type(strategy).__name__}")


def strategy_label(strategy: AttackStrategy) -> str:
    return type(strategy).__name__.lower()
