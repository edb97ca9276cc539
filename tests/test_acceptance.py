"""Acceptance suite: the seven commissioned criteria, each at its stated tolerance.

Every test prints one ``CRITERION n [PASS|FAIL]`` line with the measured values
(run pytest with ``-rA`` or ``-s`` to see the lines for passing tests too).
The targets are encoded verbatim from the acceptance checklist this build was
commissioned against; tests are not loosened to fit the implementation, so a
criterion whose target the model genuinely cannot reproduce fails honestly.
See the repository README for the measured-versus-target discussion.
"""

import math
import time

import numpy as np

from decoy_fsa import decoy
from decoy_fsa.decoy import binary_entropy, evaluate
from decoy_fsa.faked_states import (
    FakedStateIntensities,
    p_arrive,
    p_click_det0,
    p_click_det1,
    p_error,
)
from decoy_fsa.model import GYS, efficiency_matrix
from decoy_fsa.observables import (
    Baseline,
    PNRD,
    QND,
    observables_for,
    p_single,
)
from decoy_fsa.oracle import simulate_pulses
from decoy_fsa.search import k_min
from decoy_fsa.security import table1_probs
from reference import poisson_pmf

QND_FIG3 = QND(mu_prime=300.0, k=310.0)
PNRD_FIG6 = PNRD(mu_prime=900.0, k=1000.0, eta_e=0.1)
ORACLE_SEED = 20250809
# Intrinsic detector error of the GYS experiment (Gobby, Yuan & Shields,
# APL 84, 3762 (2004)), on which the published 140 km vacuum+weak decoy
# figure (Ma, Qi, Zhao & Lo, PRA 72, 012326 (2005)) rests.
GYS_E_DETECTOR = 0.033


def rate_at(strategy, distance, params):
    return evaluate(params.replace(distance=distance), strategy).rate


def zero_crossing(strategy, params, lo=1.0, hi=220.0):
    """Largest distance with a positive rate, by coarse scan plus bisection."""
    grid = np.arange(lo, hi, 2.0)
    rates = [rate_at(strategy, L, params) for L in grid]
    positive = [L for L, r in zip(grid, rates) if r > 0.0]
    if not positive:
        return math.nan
    a = positive[-1]
    b = min(a + 2.0, hi)
    for _ in range(40):
        mid = 0.5 * (a + b)
        if rate_at(strategy, mid, params) > 0.0:
            a = mid
        else:
            b = mid
    return 0.5 * (a + b)


def report(number, ok, detail):
    print(f"CRITERION {number} [{'PASS' if ok else 'FAIL'}] {detail}")


def test_criterion_1_secure_distance_extension():
    """Baseline rate crosses zero at 140 +- 5 km; attacked rate at 160 +- 5 km.

    Both crossings are taken on the same receiver: the GYS link with its
    intrinsic detector error e_detector = 0.033 (Gobby, Yuan & Shields,
    APL 84, 3762 (2004)), the value behind the published 140 km figure.
    """
    start = time.monotonic()
    params = GYS.replace(e_detector=GYS_E_DETECTOR)
    base_cross = zero_crossing(Baseline(), params)
    qnd_cross = zero_crossing(QND_FIG3, params)
    elapsed = time.monotonic() - start
    ok = 135.0 <= base_cross <= 145.0 and 155.0 <= qnd_cross <= 165.0
    report(1, ok, f"e_detector {GYS_E_DETECTOR} (GYS, APL 84, 3762): "
                  f"baseline crossing {base_cross:.2f} km (target 140+-5), "
                  f"attack crossing {qnd_cross:.2f} km (target 160+-5), {elapsed:.1f}s")
    assert elapsed < 10.0
    assert 135.0 <= base_cross <= 145.0, f"baseline crossing {base_cross:.3f} km outside 140+-5"
    assert 155.0 <= qnd_cross <= 165.0, f"attack crossing {qnd_cross:.3f} km outside 160+-5"


def test_criterion_2_gain_stealth_under_ideal_attack():
    """Attacked signal gain within 10% of baseline at every L in [40, 140] km."""
    start = time.monotonic()
    deviations = {}
    for distance in range(40, 141, 10):
        params = GYS.replace(distance=float(distance))
        q_attack = observables_for(params, QND_FIG3).q_mu
        q_base = observables_for(params, Baseline()).q_mu
        deviations[distance] = abs(q_attack - q_base) / q_base
    elapsed = time.monotonic() - start
    worst = max(deviations.values())
    ok = worst <= 0.10
    report(2, ok, f"worst relative gain deviation {worst:.3f} over [40,140] km "
                  f"(target <= 0.10), {elapsed:.1f}s")
    assert elapsed < 10.0
    assert ok, f"gain deviations exceed 10%: {deviations}"


def test_criterion_3_minimum_attackable_mismatch():
    """min over L in [1, 140] of k_min(L) equals 35 +- 2 and k_min is monotone."""
    start = time.monotonic()
    distances = [1.0] + [float(x) for x in range(10, 141, 10)]
    results = [k_min(GYS.replace(distance=distance), tol=0.5) for distance in distances]
    elapsed = time.monotonic() - start
    assert all(r.converged for r in results), "k_min failed to converge somewhere"
    ks = [r.k_min for r in results]
    minimum = min(ks)
    monotone = all(b >= a - 0.5 for a, b in zip(ks, ks[1:]))
    ok = 33.0 <= minimum <= 37.0 and monotone
    report(3, ok, f"min k_min {minimum:.2f} (target 35+-2), "
                  f"monotone={monotone}, {elapsed:.1f}s")
    assert elapsed < 120.0
    assert monotone, f"k_min not monotone along {list(zip(distances, ks))}"
    assert 33.0 <= minimum <= 37.0, f"min k_min {minimum:.2f} outside 35+-2"


def test_criterion_4_pnrd_stealth_profile():
    """PNRD attack within 10% of baseline (rate and gain) beyond 30 km, not below."""
    start = time.monotonic()
    def deviations(distance):
        params = GYS.replace(distance=float(distance))
        attack = evaluate(params, PNRD_FIG6)
        base = evaluate(params, Baseline())
        dev_q = abs(attack.q_mu - base.q_mu) / base.q_mu
        dev_r = abs(attack.rate - base.rate) / abs(base.rate)
        return dev_q, dev_r

    far = {L: deviations(L) for L in range(35, 141, 5)}
    near = {L: deviations(L) for L in range(5, 30, 5)}
    elapsed = time.monotonic() - start
    worst_far = max(max(pair) for pair in far.values())
    best_near = max(max(pair) for pair in near.values())
    ok = worst_far <= 0.10 and best_near > 0.10
    report(4, ok, f"worst deviation beyond 30 km {worst_far:.3f} (target <= 0.10), "
                  f"max deviation below 30 km {best_near:.3f} (target > 0.10), {elapsed:.1f}s")
    assert elapsed < 10.0
    assert best_near > 0.10, "expected a visible deviation somewhere below 30 km"
    assert worst_far <= 0.10, f"deviations beyond 30 km exceed 10%: {far}"


def test_criterion_5_residual_rate_stays_below_key_rate():
    """Wherever the attacked rate is positive, the absolutely-secure rate is smaller."""
    start = time.monotonic()
    violations = []
    positive_points = 0
    for distance in range(5, 171, 5):
        rep = evaluate(GYS.replace(distance=float(distance)), PNRD_FIG6)
        if rep.rate > 0.0:
            positive_points += 1
            if not rep.r_absolute < rep.rate:
                violations.append(distance)
    elapsed = time.monotonic() - start
    ok = positive_points > 0 and not violations
    report(5, ok, f"residual rate below key rate at all {positive_points} "
                  f"positive-rate distances, {elapsed:.1f}s")
    assert elapsed < 10.0
    assert positive_points > 0
    assert not violations, f"residual rate not below key rate at {violations}"


def test_criterion_6_monte_carlo_oracle_equivalence():
    """12 randomized points, 1e7 pulses each: every closed form within 3 sigma."""
    start = time.monotonic()
    rng = np.random.default_rng(ORACLE_SEED)
    failures = []
    checked = 0
    for index in range(12):
        k = float(rng.uniform(1.0, 1000.0))
        mu_prime = float(rng.uniform(0.0, 2000.0))
        distance = float(rng.uniform(10.0, 150.0))
        if index % 2 == 0:
            strategy = QND(mu_prime=mu_prime, k=k)
        else:
            strategy = PNRD(mu_prime=mu_prime, k=k, eta_e=float(rng.uniform(0.05, 1.0)))
        params = GYS.replace(distance=distance)
        run = simulate_pulses(params, strategy, 10_000_000, seed=ORACLE_SEED + index)

        obs = observables_for(params, strategy)
        eff = efficiency_matrix(params, k)
        fs = FakedStateIntensities.symmetric(mu_prime)
        d = params.dark_count
        probs = table1_probs(fs, eff)
        comparisons = [
            ("q_mu", run.q_mu, obs.q_mu, run.n_pulses),
            ("q_nu", run.q_nu, obs.q_nu, run.n_pulses),
            ("emu_qmu", run.emu_qmu, obs.emu_qmu, run.n_pulses),
            ("p_click0", run.p_click0, p_click_det0(fs, eff, d), run.n_resend),
            ("p_click1", run.p_click1, p_click_det1(fs, eff, d), run.n_resend),
            ("p_arrive", run.p_arrive, p_arrive(fs, eff, d), run.n_resend),
            ("p_error", run.p_error, p_error(fs, eff, d), run.n_resend),
            ("r1", run.r1, probs.r1, run.n_match_v0),
            ("s0", run.s0, probs.s0, run.n_match_v1),
        ]
        for name, measured, analytic, trials in comparisons:
            checked += 1
            sigma = math.sqrt(max(analytic * (1.0 - analytic), 0.0) / trials)
            if sigma == 0.0:
                if measured != analytic:
                    failures.append((index, name, measured, analytic, math.inf))
                continue
            z = (measured - analytic) / sigma
            if abs(z) > 3.0:
                failures.append((index, name, measured, analytic, z))
    elapsed = time.monotonic() - start
    ok = not failures
    report(6, ok, f"{checked} oracle comparisons at 12 points, "
                  f"{len(failures)} beyond 3 sigma, {elapsed:.0f}s")
    assert elapsed < 300.0
    assert not failures, f"oracle disagreements: {failures}"


def test_criterion_7_property_suites():
    """Identity, equivalence, sign, and endpoint properties at their tolerances."""
    start = time.monotonic()

    # thinned-count series identity at 1e-10
    mu, eta = 0.48, 0.1
    series = sum(poisson_pmf(mu, i) * i * eta * (1 - eta) ** (i - 1) for i in range(1, 61))
    assert abs(p_single(mu, eta) - series) < 1e-10

    # unit-efficiency gating reproduces the ideal attack at 1e-12
    rng = np.random.default_rng(99)
    for _ in range(25):
        params = GYS.replace(distance=float(rng.uniform(5.0, 180.0)))
        k = float(rng.uniform(1.0, 1000.0))
        mu_prime = float(rng.uniform(0.0, 2000.0))
        ideal = observables_for(params, QND(mu_prime=mu_prime, k=k))
        gated = observables_for(params, PNRD(mu_prime=mu_prime, k=k, eta_e=1.0))
        for field in ("q_mu", "q_nu", "emu_qmu", "enu_qnu", "e_mu"):
            a, b = getattr(ideal, field), getattr(gated, field)
            assert abs(a - b) <= 1e-12 * max(1.0, abs(a))

    # multi-photon series terms are non-positive on 1000 draws
    for _ in range(1000):
        mu_r = float(rng.uniform(0.05, 2.0))
        nu_r = float(rng.uniform(0.01, 0.95)) * mu_r
        i = int(rng.integers(2, 40))
        y = float(rng.uniform(0.0, 1.0))
        term = y * nu_r**2 * (nu_r ** (i - 2) - mu_r ** (i - 2)) / math.factorial(i)
        assert term <= 1e-18

    # entropy endpoints and symmetry
    assert binary_entropy(0.0) == 0.0 and binary_entropy(1.0) == 0.0
    assert binary_entropy(0.5) == 1.0
    for x in (0.01, 0.2, 0.37, 0.499):
        assert abs(binary_entropy(x) - binary_entropy(1.0 - x)) < 1e-12

    # trivial zero cases of the faked-state forms
    eff = efficiency_matrix(GYS.replace(distance=100.0), 310.0)
    vacuum = FakedStateIntensities.symmetric(0.0)
    for fn in (p_click_det0, p_click_det1, p_arrive, p_error):
        assert abs(fn(vacuum, eff, 0.0)) < 1e-15
    # vacuum gains and no dark counts leave no single-photon gain
    assert decoy._bounds_for(GYS.replace(dark_count=0.0))(0.0, 0.0, 0.0)[1] == 0.0

    elapsed = time.monotonic() - start
    report(7, True, f"identity/equivalence/sign/endpoint properties hold, {elapsed:.1f}s")
    assert elapsed < 30.0
