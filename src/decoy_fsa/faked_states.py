"""Closed-form detection and error probabilities of resent faked states.

The eavesdropper intercepts with a random basis and resends the opposite bit in
the opposite basis as a weak coherent pulse of intensity mu_prime, at timing t0
when her result was 0 and t1 when it was 1.  Bob's receiver draws a uniform
basis; a basis-matched faked state lands with full amplitude on the
opposite-bit detector (blinded at that timing), while a mismatched one splits
half/half across both detectors.  Each detector additionally fires a dark
count with probability d per gate.  Averaging the four equally likely
(result, basis) cases yields :func:`resend_probs`, of which each wrapper below
reads one entry; the geometry is mirror-symmetric, so both detectors click alike.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import exp, inf


@dataclass(frozen=True)
class FakedStateIntensities:
    """Mean photon number mu_prime of the faked states resent at either timing."""

    mu_prime: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.mu_prime < inf:
            raise ValueError(f"faked-state intensity must be finite and >= 0, got {self.mu_prime}")

    @classmethod
    def symmetric(cls, mu_prime: float) -> "FakedStateIntensities":
        """The one intensity mu_prime resent at both timings."""
        return cls(mu_prime)


def resend_probs(mu_prime: float, matched: float, blind: float, d: float) -> tuple[float, ...]:
    """Probabilities (click, arrive, error, blind_arm) of one resent faked state.

    ``click``: one given detector clicks.  ``arrive``: any click at all.
    ``error``: a click with the wrong bit, double clicks resolving to a random
    bit at half weight.  ``blind_arm``: a full-amplitude resend lights its blind
    detector, dark counts aside; it sets both Table 1 outcomes r1 = s0.
    ``matched`` and ``blind`` are Bob's efficiencies at the two timings and
    ``d`` the dark count probability per gate.
    """
    # no light at half amplitude (matched, blind), at full (blind), at both arms of a split
    half_matched = exp(-0.5 * mu_prime * matched)
    half_blind = exp(-0.5 * mu_prime * blind)
    full_blind = exp(-mu_prime * blind)
    split = exp(-0.5 * mu_prime * matched - 0.5 * mu_prime * blind)
    quiet = 1.0 - d  # no dark count at one detector
    quiet2 = quiet**2
    full_arm = full_blind + full_blind
    split_arms = split + split
    click = 0.75 + 0.25 * d - 0.25 * quiet * (half_matched + half_blind + full_blind)
    arrive = (
        1.0 - 0.25 * quiet * full_arm + 0.25 * d * quiet * full_arm - 0.25 * quiet2 * split_arms
    )
    error = (
        0.125 * quiet * (
            half_matched + half_matched - half_blind - half_blind - full_blind - full_blind
        )
        - 0.125 * quiet2 * split_arms
        + 0.125 * d * quiet * full_arm
        + 0.5
    )
    return click, arrive, error, 1.0 - full_blind


def p_click_det0(fs: FakedStateIntensities, eff: tuple[float, float], d: float) -> float:
    """Probability that Bob's detector 0 clicks on a resent faked state."""
    return resend_probs(fs.mu_prime, *eff, d)[0]


# Detector 1 sees the mirror image of detector 0's geometry, so it clicks alike.
p_click_det1 = p_click_det0


def p_arrive(fs: FakedStateIntensities, eff: tuple[float, float], d: float) -> float:
    """Total probability that a resent faked state produces any click at Bob."""
    return resend_probs(fs.mu_prime, *eff, d)[1]


def p_error(fs: FakedStateIntensities, eff: tuple[float, float], d: float) -> float:
    """Joint probability that a resent faked state clicks and yields a wrong bit.

    Double clicks resolve to a random bit and therefore carry half weight.
    """
    return resend_probs(fs.mu_prime, *eff, d)[2]
