"""Residual security of the attacked link.

Even under a successful intercept-resend, rounds in which the eavesdropper's
basis differed from both Alice's and Bob's can leave the legitimate users with
correlated bits she cannot account for.  The outcome table below enumerates the
Z-basis preparation cases (the X-basis ones are symmetric) and feeds the
residual absolutely-secure rate.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import exp

from .faked_states import FakedStateIntensities
from .model import EfficiencyMatrix, SystemParams, efficiency_matrix
from .observables import PNRD, QND, p_single


@dataclass(frozen=True)
class Table1Probs:
    """Bob's outcome probabilities for the two resend cases, dark counts ignored.

    ``r*``: Alice sent Z, the eavesdropper measured 0 in X and resent
    (Z, bit 1, mu_0, t0).  ``s*``: she measured 1 and resent (Z, bit 0, mu_1,
    t1).  In both cases the resent state addresses a single detector, so one
    outcome is exactly zero and the double-click probability vanishes.
    """

    r0: float
    r1: float
    s0: float
    s1: float
    double_r: float
    double_s: float
    loss_r: float
    loss_s: float

    def __post_init__(self) -> None:
        if self.r0 != 0.0 or self.s1 != 0.0:
            raise ValueError("r0 and s1 must be exactly zero")
        for name in ("r1", "s0", "double_r", "double_s", "loss_r", "loss_s"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {value}")


def table1_probs(fs: FakedStateIntensities, eff: EfficiencyMatrix) -> Table1Probs:
    """Outcome probabilities of the basis-mismatch resend cases."""
    r1 = 1.0 - exp(-fs.mu_0 * eff.eta_10)
    s0 = 1.0 - exp(-fs.mu_1 * eff.eta_01)
    r0 = 0.0
    s1 = 0.0
    return Table1Probs(
        r0=r0,
        r1=r1,
        s0=s0,
        s1=s1,
        double_r=r0 * r1,
        double_s=s0 * s1,
        loss_r=1.0 - (r0 + r1 - r0 * r1),
        loss_s=1.0 - (s0 + s1 - s0 * s1),
    )


def r_absolute_for(
    params: SystemParams, strategy: PNRD | QND, *, allow_qnd: bool = False
) -> float:
    """Per-pulse rate of key bits the eavesdropper cannot know.

    (1/8)*p_att*(r1 + s0): the 1/4 chance that her basis differs from both
    parties', times the 1/2 per-case secure fraction, times the probability
    p_att that she mounted the resend at all; r1 and s0 come from the outcome
    table of the strategy's own faked states.  Stated for the PNRD strategy;
    pass ``allow_qnd=True`` to apply the same accounting to the ideal
    photon-number-measurement strategy, its eta_e = 1 case.
    """
    if not (isinstance(strategy, PNRD) or (allow_qnd and isinstance(strategy, QND))):
        raise TypeError(
            "residual-rate accounting is defined for the PNRD strategy "
            "(pass allow_qnd=True to extend it to the ideal strategy)"
        )
    eff = efficiency_matrix(params, strategy.k)
    probs = table1_probs(FakedStateIntensities.symmetric(strategy.mu_prime), eff)
    p_att = p_single(params.mu, strategy.eta_e)
    return 0.125 * p_att * (probs.r1 + probs.s0)
