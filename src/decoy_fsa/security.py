"""Residual security of the attacked link.

Even under a successful intercept-resend, rounds in which the eavesdropper's
basis differed from both Alice's and Bob's can leave the legitimate users with
correlated bits she cannot account for.  The outcome table below holds the two
nonzero outcomes of those cases for a Z-basis preparation (the X-basis ones
are symmetric), r1 and s0, which set the residual absolutely-secure rate.
"""

from __future__ import annotations

from dataclasses import dataclass

from .faked_states import FakedStateIntensities, resend_probs
from .model import SystemParams, efficiency_matrix
from .observables import PNRD, QND, p_single


@dataclass(frozen=True)
class Table1Probs:
    """Bob's nonzero outcome probabilities for the two resend cases, dark counts ignored.

    ``r1``: Alice sent Z, the eavesdropper measured 0 in X and resent
    (Z, bit 1, mu_prime, t0), and detector 1 clicks.  ``s0``: she measured 1
    and resent (Z, bit 0, mu_prime, t1), and detector 0 clicks.  In both cases
    the resent state reaches a single detector, at full amplitude and at its
    blind timing, so r1 = s0; the other outcome (r0, s1) is exactly zero and
    so is the double-click probability.
    """

    r1: float
    s0: float


def table1_probs(fs: FakedStateIntensities, eff: tuple[float, float]) -> Table1Probs:
    """Outcome probabilities of the basis-mismatch resend cases."""
    blind_arm = resend_probs(fs.mu_prime, *eff, 0.0)[3]
    return Table1Probs(r1=blind_arm, s0=blind_arm)


def r_absolute(attacked: float, blind_arm: float) -> float:
    """Per-pulse rate of key bits the eavesdropper cannot know.

    (1/8)*p_att*(r1 + s0): the 1/4 chance that her basis differs from both
    parties', times the 1/2 per-case secure fraction, times the probability
    ``attacked`` = p_att that she mounted the resend at all.  r1 = s0 =
    ``blind_arm``, the chance that a full-amplitude resend lights its blind
    detector (:func:`faked_states.resend_probs`).
    """
    return 0.125 * attacked * (blind_arm + blind_arm)


def r_absolute_for(params: SystemParams, strategy: PNRD | QND) -> float:
    """:func:`r_absolute` of the strategy's own faked states.

    ``decoy.evaluate`` reports it for PNRD only, and NaN for QND (the case
    eta_e = 1) and the baseline.
    """
    blind_arm = resend_probs(strategy.mu_prime, *efficiency_matrix(params, strategy.k), 0.0)[3]
    return r_absolute(p_single(params.mu, strategy.eta_e), blind_arm)
