"""Pulse-level Monte Carlo simulator of the Alice -> eavesdropper -> Bob chain.

This is the brute-force cross-check for every closed-form probability in the
package, so no draw is computed from a closed form.  Every pulse is simulated
mechanistically, in as much detail as the tallies read:

* Source: per shard and stream, a Poisson(intensity*m) photon total, of which
  the number that pass a detector of efficiency keep is one Binomial(total,
  keep) draw (the sum of the per-photon trials), each passing photon at a
  uniform pulse index: by Poisson splitting, iid Poisson counts per pulse.
* Gate: the eavesdropper's detector passes photons at keep = eta_e (nothing
  is drawn at eta_e = 1, the ideal QND strategy), and she attacks the pulses
  left with exactly one photon.  Those pulses are counted by sorting the
  passing photons' 4-byte pulse indices in place.
* Blocked pulses reach Bob as a bare dark-count opportunity with probability d
  per gate: their click count is one Binomial(blocked, d) draw.  Each click's
  bit and Alice's bit are independent coins, so the clicks on detector 1 and
  the errors are one Binomial(clicks, 1/2) draw each.
* Resent faked states fall into the receiver's four equally likely (result,
  basis) cases, and in each case each detector independently sees light with
  probability q, a dark count alone with probability (1 - q)*d, or nothing.
  The resends are counted over those 4 x 3 x 3 outcomes with one multinomial
  draw: a sum of iid categorical draws, so no per-pulse value is drawn.  A
  single click reads its detector's bit; a double click resolves to a random
  bit, as does Alice's bit when Bob's basis matched the faked state, so those
  clicks err as one Binomial(clicks, 1/2) draw.
* Bob's intrinsic detector error flips the bit of each resent click with
  probability e_detector, drawn as one binomial count over the wrong and one
  over the right bits; the users' error tallies carry the flipped bits.
* Baseline: photons pass the channel and Bob's detector at keep =
  t_AB*eta_bob, and a pulse is lit if at least one of its photons passes; the
  unlit pulses, the errors of light (e_detector) and dark (1/2) clicks and
  detector 1's share of clicks (1/2) are then each one binomial count.

Runs are deterministic: shards of at most ``DEFAULT_SHARD_SIZE`` pulses and
about as many signal photons run in index order, each drawing from its own RNG
stream spawned from the master seed, and tallies add up in that order.

numpy is imported inside the functions that simulate, not at module level:
the closed-form commands (``rate``, ``scan``, ``sweep``, ``kmin``) import this
module through the command line but never simulate, and loading numpy took
more than half of their start-up.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Mapping

from .model import SystemParams, efficiency_matrix
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
    shrink geometrically; requires 0 < p < 1.  Below the mean the count is
    mirrored first: P[X <= s] at p is P[X >= trials - s] at 1 - p.
    """
    log_p, log_q = math.log(p), math.log1p(-p)
    if successes < trials * p:
        successes, log_p, log_q = trials - successes, log_q, log_p
    term = math.exp(
        math.lgamma(trials + 1) - math.lgamma(successes + 1)
        - math.lgamma(trials - successes + 1) + successes * log_p + (trials - successes) * log_q
    )
    odds = math.exp(log_p - log_q)
    total = term
    j = successes
    while j < trials and term > total * 1e-17:
        term *= (trials - j) / (j + 1) * odds
        total += term
        j += 1
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


def _resend_click_tables(strategy: QND | PNRD, params: SystemParams) -> list[float]:
    """Probabilities of the 36 (case, detector-0, detector-1) outcomes of one resend.

    Case index is 2*bob_matches + result, each case with probability 1/4; a
    basis-matched faked state puts all its amplitude on the opposite-bit
    detector, a mismatched one splits in half.  Detector m meets a timing-t_m
    resend at the matched efficiency and the other at the blind one.  It sees
    light with probability q and, independently, a dark count with probability
    d, so its outcome is light, dark only or none with probabilities
    (q, (1 - q)*d, (1 - q)*(1 - d)).  The two detectors are independent, so the table is
    1/4 * row0 (x) row1 per case, in C order: entry 9*case + 3*o0 + o1.
    """
    matched, blind = efficiency_matrix(params, strategy.k)
    mu = strategy.mu_prime
    half_matched = 1.0 - math.exp(-0.5 * mu * matched)
    half_blind = 1.0 - math.exp(-0.5 * mu * blind)
    full_blind = 1.0 - math.exp(-mu * blind)
    light = (  # per case, (detector 0, detector 1)
        (half_matched, half_blind),  # mismatch, result 0: t0 state
        (half_blind, half_matched),  # mismatch, result 1: t1 state
        (0.0, full_blind),           # match, result 0: bit-1 state
        (full_blind, 0.0),           # match, result 1: full arm
    )
    d = params.dark_count
    rows = [[(q, (1.0 - q) * d, (1.0 - q) * (1.0 - d)) for q in case] for case in light]
    return [0.25 * a * b for row0, row1 in rows for a in row0 for b in row1]


def draw_photons(rng: np.random.Generator, mean: float, m: int, keep: float) -> np.ndarray:
    """Pulse index of each photon that passes, of Poisson(mean*m) photons on m pulses.

    Each photon passes independently with probability ``keep``: the number that
    pass is one Binomial(total, keep) draw (none at ``keep`` = 1), and only
    those photons get a pulse index.  The indices are int32, which numpy draws
    from the same 32-bit stream as int64 ones, since m < 2**31.
    """
    import numpy as np

    total = rng.poisson(mean * m)
    if keep < 1.0:
        total = rng.binomial(total, keep)
    return rng.integers(0, m, size=total, dtype=np.int32)


def _gate_counts(photons: np.ndarray) -> tuple[int, int]:
    """Pulses holding exactly one photon and pulses holding any.

    ``photons`` holds one pulse index per photon and is sorted in place: a
    pulse's photons then sit side by side, each pulse starts where an index
    differs from the one before it, and a pulse with one photon differs from
    both neighbours.
    """
    import numpy as np

    if photons.size < 2:
        return photons.size, photons.size
    photons.sort()
    new = photons[1:] != photons[:-1]
    single = int(np.count_nonzero(new[1:] & new[:-1])) + int(new[0]) + int(new[-1])
    return single, 1 + int(np.count_nonzero(new))


def _simulate_attack_shard(
    rng: np.random.Generator,
    params: SystemParams,
    strategy: QND | PNRD,
    intensity: float,
    m: int,
    tally: dict[str, int],
    resend: dict[str, list[int]],
    table: list[float],
) -> None:
    ka, _ = _gate_counts(draw_photons(rng, intensity, m, strategy.eta_e))
    kb = m - ka

    # Blocked pulses: a single dark-count opportunity; a click's bit and
    # Alice's bit are independent coins.
    n_block_click = int(rng.binomial(kb, params.dark_count))
    block_det1 = int(rng.binomial(n_block_click, 0.5))
    n_block_err = int(rng.binomial(n_block_click, 0.5))

    # Resent pulses: counts per case of (detector-0 outcome, detector-1
    # outcome), an outcome being light (0), dark only (1) or none (2).
    n = rng.multinomial(ka, table).reshape(4, 3, 3).tolist()
    only0 = [g[0][2] + g[1][2] for g in n]  # per case, detector 0 clicked alone
    only1 = [g[2][0] + g[2][1] for g in n]
    n_double = sum(g[0][0] + g[0][1] + g[1][0] + g[1][1] for g in n)
    n_click0 = sum(only0) + n_double
    n_click1 = sum(only1) + n_double
    n_clicked = n_click0 + n_click1 - n_double
    # A single click reads its detector's bit.  On Bob-mismatch Alice's bit is
    # the eavesdropper's result, so result 0 errs on detector 1 alone and
    # result 1 on detector 0 alone; on Bob-match Alice's bit is fresh, and a
    # double click resolves to a coin, so each of those errs with probability 1/2.
    n_coin = sum(only0[2:]) + sum(only1[2:]) + n_double
    n_errors = only1[0] + only0[1] + int(rng.binomial(n_coin, 0.5))
    # Bob's intrinsic detector error flips each clicked bit with probability
    # e_detector, wrong bits first, then right ones.  It reaches the users'
    # error tallies only; p_error stays the faked-state count.  A blocked
    # pulse's bit is a fair coin already, and a flip leaves it one.
    wrong_flipped = int(rng.binomial(n_errors, params.e_detector))
    right_flipped = int(rng.binomial(n_clicked - n_errors, params.e_detector))
    n_user_errors = n_errors + right_flipped - wrong_flipped

    tally["click0"] += n_click0 + (n_block_click - block_det1)
    tally["click1"] += n_click1 + block_det1
    tally["double_click"] += n_double
    tally["loss"] += (ka - n_clicked) + (kb - n_block_click)
    tally["sifted"] += n_clicked + n_block_click
    tally["sifted_error"] += n_user_errors + n_block_err

    # Light-only tallies: detector 1 on (match, result 0), detector 0 on
    # (match, result 1).
    for name, successes, trials in (
        ("p_click0", n_click0, ka),
        ("p_click1", n_click1, ka),
        ("p_arrive", n_clicked, ka),
        ("p_error", n_errors, ka),
        ("r1", sum(row[0] for row in n[2]), sum(map(sum, n[2]))),
        ("s0", sum(n[3][0]), sum(map(sum, n[3]))),
    ):
        resend[name][0] += successes
        resend[name][1] += trials


def _simulate_baseline_shard(
    rng: np.random.Generator,
    params: SystemParams,
    intensity: float,
    m: int,
    tally: dict[str, int],
) -> None:
    _, n_light = _gate_counts(draw_photons(rng, intensity, m, params.transmittance))
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
) -> EmpiricalObservables:
    """Simulate ``n_pulses`` signal pulses and ``n_pulses`` decoy pulses.

    A shard holds at most ``DEFAULT_SHARD_SIZE`` pulses and about as many
    signal photons.  Shards run in index order, each drawing from its own RNG
    stream spawned from ``seed``, so identical inputs give identical tallies.
    """
    if n_pulses < 1:
        raise ValueError(f"n_pulses must be >= 1, got {n_pulses}")
    shard_size = max(1, int(min(DEFAULT_SHARD_SIZE, DEFAULT_SHARD_SIZE // params.mu)))
    import numpy as np

    tallies = {stream: dict.fromkeys(_TALLY_KEYS, 0) for stream in _STREAMS}
    resend = {name: [0, 0] for name in _RESEND_ESTIMATES}
    n_shards = (n_pulses + shard_size - 1) // shard_size
    children = np.random.SeedSequence(seed).spawn(n_shards)
    table = None if isinstance(strategy, Baseline) else _resend_click_tables(strategy, params)
    for index in range(n_shards):
        rng = np.random.default_rng(children[index])
        m = min(shard_size, n_pulses - index * shard_size)
        for stream, intensity in zip(_STREAMS, (params.mu, params.nu)):
            if table is None:
                _simulate_baseline_shard(rng, params, intensity, m, tallies[stream])
            else:
                _simulate_attack_shard(rng, params, strategy, intensity, m, tallies[stream],
                                       resend, table)

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
