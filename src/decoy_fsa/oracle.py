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

Runs are deterministic: work is cut into fixed-size shards whose RNG streams
are spawned from the master seed by shard index, and tallies merge in shard
order no matter how shards are executed.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
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


@dataclass
class _Counts:
    """Raw integer tallies accumulated over shards."""

    per_stream: dict[str, dict[str, int]] = field(
        default_factory=lambda: {s: {k: 0 for k in _TALLY_KEYS} for s in _STREAMS}
    )
    n_resend: int = 0
    resend_click0: int = 0
    resend_click1: int = 0
    resend_any: int = 0
    resend_error: int = 0
    n_match_v0: int = 0
    light1_match_v0: int = 0
    n_match_v1: int = 0
    light0_match_v1: int = 0


@dataclass(frozen=True)
class EmpiricalObservables:
    """Estimates and binomial standard errors from one simulation run.

    ``counts`` maps each estimated quantity (``q_mu``, ``q_nu``, ``emu_qmu``,
    ``enu_qnu``, ``p_click0``, ``p_click1``, ``p_arrive``, ``p_error``, ``r1``,
    ``s0``) to its integer (successes, trials).  Each name reads as an
    attribute, successes/trials (nan without trials), and ``<name>_se`` as its
    binomial standard error.
    """

    params: SystemParams
    strategy: AttackStrategy
    n_pulses: int
    seed: int
    n_resend: int
    n_match_v0: int
    n_match_v1: int
    tallies: Mapping[str, Mapping[str, int]]
    counts: Mapping[str, tuple[int, int]]

    def __getattr__(self, name: str) -> float:
        counts = self.__dict__.get("counts", {})
        if name in counts:
            return _ratio(*counts[name])
        if name.endswith("_se") and name[:-3] in counts:
            return _binom_se(*counts[name[:-3]])
        raise AttributeError(name)

    def manifest_json(self) -> str:
        """JSON record of the run for regression archiving."""
        manifest = {
            "strategy": strategy_label(self.strategy),
            "strategy_fields": dict(vars(self.strategy)),
            "params": dict(vars(self.params)),
            "n_pulses": self.n_pulses,
            "seed": self.seed,
            "estimates": {
                key: getattr(self, key) for name in self.counts for key in (name, f"{name}_se")
            },
            "n_resend": self.n_resend,
            "n_match_v0": self.n_match_v0,
            "n_match_v1": self.n_match_v1,
            "tallies": {s: dict(t) for s, t in self.tallies.items()},
        }
        return json.dumps(manifest, indent=2, sort_keys=True)


def _binom_se(successes: int, trials: int) -> float:
    if trials == 0:
        return math.nan
    p = successes / trials
    return math.sqrt(max(p * (1.0 - p), 0.0) / trials)


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
    sigma = math.sqrt(max(p * (1.0 - p), 0.0) / trials) if trials else math.nan
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
    stream: str,
    m: int,
    counts: _Counts,
    light: np.ndarray,
    click: np.ndarray,
) -> None:
    intensity = params.mu if stream == "signal" else params.nu

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
    # error tallies only; resend_error stays the faked-state count.  A blocked
    # pulse's bit is a fair coin already, and a flip leaves it one.
    n_user_errors = n_errors
    if params.e_detector:
        wrong_flipped = int(rng.binomial(n_errors, params.e_detector))
        right_flipped = int(rng.binomial(n_clicked - n_errors, params.e_detector))
        n_user_errors += right_flipped - wrong_flipped

    tally = counts.per_stream[stream]
    tally["click0"] += n_click0 + (n_block_click - block_det1)
    tally["click1"] += n_click1 + block_det1
    tally["double_click"] += n_double
    tally["loss"] += (ka - n_clicked) + (kb - n_block_click)
    tally["sifted"] += n_clicked + n_block_click
    tally["sifted_error"] += n_user_errors + n_block_err

    counts.n_resend += ka
    counts.resend_click0 += n_click0
    counts.resend_click1 += n_click1
    counts.resend_any += n_clicked
    counts.resend_error += n_errors

    # Light-only tallies: detector 1 on (match, result 0), detector 0 on
    # (match, result 1).
    match_v0 = case == 2
    match_v1 = case == 3
    counts.n_match_v0 += int(np.count_nonzero(match_v0))
    counts.light1_match_v0 += int(np.count_nonzero(match_v0 & (u1 < light[1, 2])))
    counts.n_match_v1 += int(np.count_nonzero(match_v1))
    counts.light0_match_v1 += int(np.count_nonzero(match_v1 & (u0 < light[0, 3])))


def _simulate_baseline_shard(
    rng: np.random.Generator,
    params: SystemParams,
    stream: str,
    m: int,
    counts: _Counts,
) -> None:
    intensity = params.mu if stream == "signal" else params.nu
    eta = channel_transmittance(params.alpha, params.distance) * params.eta_bob
    d = params.dark_count

    photons = rng.poisson(intensity, size=m)
    light = rng.binomial(photons, eta) > 0
    dark = rng.random(m) < d
    clicked = light | dark
    flip = rng.random(m) < params.e_detector
    coin = rng.random(m) < 0.5
    errors = clicked & np.where(light, flip, coin)
    det1 = rng.integers(0, 2, size=m) == 1  # unbiased bit stream on a calibrated link

    tally = counts.per_stream[stream]
    tally["click0"] += int((clicked & ~det1).sum())
    tally["click1"] += int((clicked & det1).sum())
    tally["loss"] += int((~clicked).sum())
    tally["sifted"] += int(clicked.sum())
    tally["sifted_error"] += int(errors.sum())


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

    counts = _Counts()
    n_shards = (n_pulses + shard_size - 1) // shard_size
    children = np.random.SeedSequence(seed).spawn(n_shards)
    attack = not isinstance(strategy, Baseline)
    if attack:
        light, click = _resend_click_tables(strategy, params)
    for index in range(n_shards):
        rng = np.random.default_rng(children[index])
        m = min(shard_size, n_pulses - index * shard_size)
        for stream in _STREAMS:
            if attack:
                _simulate_attack_shard(
                    rng, params, strategy, stream, m, counts, light, click
                )
            else:
                _simulate_baseline_shard(rng, params, stream, m, counts)

    signal, decoy = counts.per_stream["signal"], counts.per_stream["decoy"]
    return EmpiricalObservables(
        params=params,
        strategy=strategy,
        n_pulses=n_pulses,
        seed=seed,
        n_resend=counts.n_resend,
        n_match_v0=counts.n_match_v0,
        n_match_v1=counts.n_match_v1,
        tallies=counts.per_stream,
        counts={
            "q_mu": (signal["sifted"], n_pulses),
            "q_nu": (decoy["sifted"], n_pulses),
            "emu_qmu": (signal["sifted_error"], n_pulses),
            "enu_qnu": (decoy["sifted_error"], n_pulses),
            "p_click0": (counts.resend_click0, counts.n_resend),
            "p_click1": (counts.resend_click1, counts.n_resend),
            "p_arrive": (counts.resend_any, counts.n_resend),
            "p_error": (counts.resend_error, counts.n_resend),
            "r1": (counts.light1_match_v0, counts.n_match_v0),
            "s0": (counts.light0_match_v1, counts.n_match_v1),
        },
    )
