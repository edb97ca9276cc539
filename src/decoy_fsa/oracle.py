"""Pulse-level Monte Carlo simulator of the Alice -> eavesdropper -> Bob chain.

This is the brute-force cross-check for every closed-form probability in the
package, so no draw is computed from a closed form.  Every pulse is simulated
mechanistically, in as much detail as the tallies read:

* Source: a Poisson photon number per pulse.
* Gate: the eavesdropper attacks the pulses whose photon count, thinned by a
  per-pulse binomial draw at her detector efficiency eta_e, is one.  At
  eta_e = 1 (the ideal QND strategy) the count is the photon number itself and
  nothing is drawn.
* Blocked pulses reach Bob as a bare dark-count opportunity with probability d
  per gate: their click count is one Binomial(blocked, d) draw, and each click
  gets a random bit and a random Alice bit.
* Resent faked states draw the receiver's four equally likely (result, basis)
  cases explicitly, then one uniform u per detector: light if u < q, a dark
  count alone if q <= u < q + (1 - q)*d, no click otherwise.  Double clicks
  resolve to a random bit and so contribute half weight to the error tallies.
* Bob's intrinsic detector error flips the bit of each resent click with
  probability e_detector, drawn as one binomial count over the wrong and one
  over the right bits; the users' error tallies carry the flipped bits.
* Baseline: each non-vacuum pulse is thinned by a binomial draw at t_AB*eta_bob;
  the unlit pulses, the errors of light (e_detector) and dark (1/2) clicks and
  detector 1's share of clicks (1/2) are then each one binomial count.

Runs are deterministic: work is cut into fixed-size shards whose RNG streams
are spawned from the master seed by shard index, and tallies merge in shard
order no matter how shards are executed.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from math import exp
from typing import Mapping

import numpy as np

from .model import SystemParams, channel_transmittance, efficiency_matrix
from .observables import AttackStrategy, Baseline, PNRD, QND, strategy_label

DEFAULT_SHARD_SIZE = 1_000_000

# Closed-form agreement is judged at 3 sigma: two-sided tail erfc(3/sqrt 2).
_Z_LIMIT = 3.0
_P_LIMIT = math.erfc(_Z_LIMIT / math.sqrt(2.0))

_STREAMS = ("signal", "decoy")
_TALLY_KEYS = ("click0", "click1", "double_click", "loss", "sifted", "sifted_error")


# Estimates read from resent pulses: the faked-state click, arrival and error
# probabilities over all resends, and the light-only Table 1 entries over the
# basis-matched resends of bit 0 (r1) and bit 1 (s0).
_RESEND_ESTIMATES = ("p_click0", "p_click1", "p_arrive", "p_error", "r1", "s0")


@dataclass(frozen=True)
class EmpiricalObservables:
    """Estimates and binomial standard errors from one simulation run.

    ``counts`` maps each estimated quantity (``q_mu``, ``q_nu``, ``emu_qmu``,
    ``enu_qnu``, ``p_click0``, ``p_click1``, ``p_arrive``, ``p_error``, ``r1``,
    ``s0``) to its integer (successes, trials).  Each name reads as an
    attribute, successes/trials (nan without trials), and ``<name>_se`` as its
    binomial standard error.  ``tallies`` holds the users' per-stream counts.
    """

    params: SystemParams
    strategy: AttackStrategy
    n_pulses: int
    seed: int
    tallies: Mapping[str, Mapping[str, int]]
    counts: Mapping[str, tuple[int, int]]

    @property
    def n_resend(self) -> int:
        """Pulses the eavesdropper resent, over both streams."""
        return self.counts["p_arrive"][1]

    @property
    def n_match_v0(self) -> int:
        """Resent bit-0 faked states that Bob measured in their basis."""
        return self.counts["r1"][1]

    @property
    def n_match_v1(self) -> int:
        """Resent bit-1 faked states that Bob measured in their basis."""
        return self.counts["s0"][1]

    def __getattr__(self, name: str) -> float:
        counts = self.__dict__.get("counts", {})
        if name in counts:
            return _ratio(*counts[name])
        if name.endswith("_se") and name[:-3] in counts:
            return _binom_se(getattr(self, name[:-3]), counts[name[:-3]][1])
        raise AttributeError(name)

    def manifest_json(self) -> str:
        """JSON record of the run for regression archiving; estimates without trials are null."""
        manifest = {
            "strategy": strategy_label(self.strategy),
            "strategy_fields": dict(vars(self.strategy)),
            "params": dict(vars(self.params)),
            "n_pulses": self.n_pulses,
            "seed": self.seed,
            "estimates": {
                key: getattr(self, key) if trials else None
                for name, (_, trials) in self.counts.items()
                for key in (name, f"{name}_se")
            },
            "n_resend": self.n_resend,
            "n_match_v0": self.n_match_v0,
            "n_match_v1": self.n_match_v1,
            "tallies": {s: dict(t) for s, t in self.tallies.items()},
        }
        return json.dumps(manifest, indent=2, sort_keys=True, allow_nan=False)


def _binom_se(p: float, trials: int) -> float:
    return math.sqrt(max(p * (1.0 - p), 0.0) / trials) if trials else math.nan


def _ratio(successes: int, trials: int) -> float:
    return successes / trials if trials else math.nan


def _binomial_two_sided_p(successes: int, trials: int, p: float) -> float:
    """2 * min(P[X <= successes], P[X >= successes]) for X ~ Binomial(trials, p).

    Sums the pmf from ``successes`` outward, away from the mean, where the terms
    shrink geometrically; requires 0 < p < 1.
    """
    term = math.exp(
        math.lgamma(trials + 1) - math.lgamma(successes + 1)
        - math.lgamma(trials - successes + 1)
        + successes * math.log(p) + (trials - successes) * math.log1p(-p)
    )
    odds = p / (1.0 - p)
    total = term
    j = successes
    if successes >= trials * p:
        while j < trials and term > total * 1e-17:
            term *= (trials - j) / (j + 1) * odds
            total += term
            j += 1
    else:
        while j > 0 and term > total * 1e-17:
            term *= j / (trials - j + 1) / odds
            total += term
            j -= 1
    return min(1.0, 2.0 * total)


def binomial_verdict(successes: int, trials: int, p: float) -> tuple[float, float, bool]:
    """Standard error, z-score and 3-sigma verdict of ``successes``/``trials`` against ``p``.

    The z-score uses the normal approximation, but a quantity fails only when
    |z| > 3 and the exact two-sided binomial tail is also below that of 3
    sigma: at expected counts well below one, |z| alone flags far more often
    than 3 sigma allows.  With no trials, or a rate of exactly 0 or 1, the
    estimate must equal ``p``.
    """
    sigma = _binom_se(p, trials)
    measured = _ratio(successes, trials)
    if not sigma or math.isnan(sigma):
        same = measured == p
        return sigma, 0.0 if same else math.inf, same
    z = (measured - p) / sigma
    ok = abs(z) <= _Z_LIMIT or _binomial_two_sided_p(successes, trials, p) >= _P_LIMIT
    return sigma, z, ok


def _resend_click_tables(strategy: QND | PNRD, params: SystemParams):
    """Per-detector light and click thresholds for each (bob_matches, result) case.

    Case index is 2*bob_matches + result; a basis-matched faked state puts all
    its amplitude on the opposite-bit detector, a mismatched one splits in half.
    Row 0 is detector 0, row 1 detector 1.  A detector sees light with
    probability q and, independently, a dark count with probability d, so it
    clicks with probability q + (1 - q)*d; one uniform u per detector decides
    light (u < q), dark only (q <= u < q + (1 - q)*d) or nothing.
    """
    eff = efficiency_matrix(params, strategy.k)
    mu0 = mu1 = strategy.mu_prime
    light = np.array([
        [
            1.0 - exp(-0.5 * mu0 * eff.eta_00),   # mismatch, result 0
            1.0 - exp(-0.5 * mu1 * eff.eta_01),   # mismatch, result 1
            0.0,                                  # match, result 0: bit-1 state
            1.0 - exp(-mu1 * eff.eta_01),         # match, result 1: full arm
        ],
        [
            1.0 - exp(-0.5 * mu0 * eff.eta_10),
            1.0 - exp(-0.5 * mu1 * eff.eta_11),
            1.0 - exp(-mu0 * eff.eta_10),
            0.0,
        ],
    ])
    click = light + (1.0 - light) * params.dark_count
    return light, click


def _simulate_attack_shard(
    rng: np.random.Generator,
    params: SystemParams,
    strategy: QND | PNRD,
    intensity: float,
    m: int,
    tally: dict[str, int],
    resend: dict[str, list[int]],
    light: np.ndarray,
    click: np.ndarray,
) -> None:
    photons = rng.poisson(intensity, size=m)
    if strategy.eta_e < 1.0:
        # Binomial(0, p) consumes no random numbers, so only the non-vacuum
        # pulses need a gate draw.
        photons = rng.binomial(photons[photons > 0], strategy.eta_e)
    ka = int(np.count_nonzero(photons == 1))
    kb = m - ka

    # Blocked pulses: a single dark-count opportunity, random bit on click.
    n_block_click = int(rng.binomial(kb, params.dark_count))
    block_bits = rng.integers(0, 2, size=n_block_click, dtype=np.uint8)
    block_alice = rng.integers(0, 2, size=n_block_click, dtype=np.uint8)
    block_det1 = int(np.count_nonzero(block_bits))
    n_block_err = int(np.count_nonzero(block_bits != block_alice))

    # Resent pulses: draw the receiver case, then one uniform per detector.
    case = rng.integers(0, 4, size=ka, dtype=np.uint8)
    matches = case >= 2
    result = (case & 1).view(bool)
    u0 = rng.random(ka)
    u1 = rng.random(ka)
    click0 = u0 < click[0].take(case)
    click1 = u1 < click[1].take(case)
    single = click0 ^ click1
    double = click0 & click1
    # A double click resolves to a coin, drawn for the double clicks only.
    coin = rng.integers(0, 2, size=int(np.count_nonzero(double)), dtype=np.uint8)
    # Bob-mismatch means the eavesdropper read Alice's basis, so her result is
    # Alice's bit; on Bob-match her basis differed and Alice's bit is fresh.
    fresh = rng.integers(0, 2, size=ka, dtype=np.uint8).view(bool)
    alice = result ^ (matches & (fresh ^ result))

    n_click0 = int(np.count_nonzero(click0))
    n_click1 = int(np.count_nonzero(click1))
    n_double = coin.size
    n_clicked = int(np.count_nonzero(single)) + n_double
    # A single click reads detector 1's bit; it errs where that differs from Alice.
    n_errors = int(np.count_nonzero(single & (click1 ^ alice))) + int(
        np.count_nonzero(coin != alice[double])
    )
    # Bob's intrinsic detector error flips each clicked bit with probability
    # e_detector, wrong bits first, then right ones.  It reaches the users'
    # error tallies only; p_error stays the faked-state count.  A blocked
    # pulse's bit is a fair coin already, and a flip leaves it one.
    n_user_errors = n_errors
    if params.e_detector:
        wrong_flipped = int(rng.binomial(n_errors, params.e_detector))
        right_flipped = int(rng.binomial(n_clicked - n_errors, params.e_detector))
        n_user_errors += right_flipped - wrong_flipped

    tally["click0"] += n_click0 + (n_block_click - block_det1)
    tally["click1"] += n_click1 + block_det1
    tally["double_click"] += n_double
    tally["loss"] += (ka - n_clicked) + (kb - n_block_click)
    tally["sifted"] += n_clicked + n_block_click
    tally["sifted_error"] += n_user_errors + n_block_err

    # Light-only tallies: detector 1 on (match, result 0), detector 0 on
    # (match, result 1).
    match_v0 = case == 2
    match_v1 = case == 3
    for name, successes, trials in (
        ("p_click0", n_click0, ka),
        ("p_click1", n_click1, ka),
        ("p_arrive", n_clicked, ka),
        ("p_error", n_errors, ka),
        ("r1", np.count_nonzero(match_v0 & (u1 < light[1, 2])), np.count_nonzero(match_v0)),
        ("s0", np.count_nonzero(match_v1 & (u0 < light[0, 3])), np.count_nonzero(match_v1)),
    ):
        resend[name][0] += int(successes)
        resend[name][1] += int(trials)


def _simulate_baseline_shard(
    rng: np.random.Generator,
    params: SystemParams,
    intensity: float,
    m: int,
    tally: dict[str, int],
) -> None:
    eta = channel_transmittance(params.alpha, params.distance) * params.eta_bob

    photons = rng.poisson(intensity, size=m)
    # Binomial(0, p) consumes no random numbers: only non-vacuum pulses are thinned.
    n_light = int(np.count_nonzero(rng.binomial(photons[photons > 0], eta)))
    n_dark = int(rng.binomial(m - n_light, params.dark_count))
    n_clicked = n_light + n_dark
    # A light click errs with probability e_detector; a dark click's bit is a coin.
    n_errors = int(rng.binomial(n_light, params.e_detector)) + int(rng.binomial(n_dark, 0.5))
    n_det1 = int(rng.binomial(n_clicked, 0.5))  # unbiased bit stream on a calibrated link

    tally["click0"] += n_clicked - n_det1
    tally["click1"] += n_det1
    tally["loss"] += m - n_clicked
    tally["sifted"] += n_clicked
    tally["sifted_error"] += n_errors


def simulate_pulses(
    params: SystemParams,
    strategy: AttackStrategy,
    n_pulses: int,
    seed: int,
    shard_size: int = DEFAULT_SHARD_SIZE,
) -> EmpiricalObservables:
    """Simulate ``n_pulses`` signal pulses and ``n_pulses`` decoy pulses.

    The shard layout depends only on ``n_pulses`` and ``shard_size``, and each
    shard's RNG stream is spawned from ``seed`` by index, so identical inputs
    give identical tallies regardless of how the shards are scheduled.
    """
    if n_pulses < 1:
        raise ValueError(f"n_pulses must be >= 1, got {n_pulses}")
    if shard_size < 1:
        raise ValueError(f"shard_size must be >= 1, got {shard_size}")

    tallies = {stream: dict.fromkeys(_TALLY_KEYS, 0) for stream in _STREAMS}
    resend = {name: [0, 0] for name in _RESEND_ESTIMATES}
    n_shards = (n_pulses + shard_size - 1) // shard_size
    children = np.random.SeedSequence(seed).spawn(n_shards)
    attack = not isinstance(strategy, Baseline)
    if attack:
        light, click = _resend_click_tables(strategy, params)
    for index in range(n_shards):
        rng = np.random.default_rng(children[index])
        m = min(shard_size, n_pulses - index * shard_size)
        for stream, intensity in zip(_STREAMS, (params.mu, params.nu)):
            if attack:
                _simulate_attack_shard(rng, params, strategy, intensity, m, tallies[stream],
                                       resend, light, click)
            else:
                _simulate_baseline_shard(rng, params, intensity, m, tallies[stream])

    signal, decoy = tallies["signal"], tallies["decoy"]
    return EmpiricalObservables(
        params=params,
        strategy=strategy,
        n_pulses=n_pulses,
        seed=seed,
        tallies=tallies,
        counts={
            "q_mu": (signal["sifted"], n_pulses),
            "q_nu": (decoy["sifted"], n_pulses),
            "emu_qmu": (signal["sifted_error"], n_pulses),
            "enu_qnu": (decoy["sifted_error"], n_pulses),
            **{name: tuple(pair) for name, pair in resend.items()},
        },
    )
