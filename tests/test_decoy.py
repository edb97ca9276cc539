"""Tests for the decoy-state bounds, GLLP rate, and the gain series expansion."""

import math

import numpy as np
import pytest

from decoy_fsa.decoy import (
    RateReport,
    binary_entropy,
    decoy_bounds,
    e1_upper,
    evaluate,
    key_rate,
    q1_expansion,
    q1_lower,
    y1_lower,
)
from decoy_fsa.model import GYS, channel_transmittance
from decoy_fsa.observables import (
    Baseline,
    Observables,
    QND,
    observables_baseline,
    observables_for,
)

# Frozen with 40-digit arithmetic.
H2_011 = 0.49991595816452800
QND_Y1 = 8.4180306339777336e-4
QND_E1 = 8.4109379618175635e-3
QND_RATE = 1.0314446629775996e-4
BASE_Y1_100 = 3.5399335146868116e-4
BASE_RATE_100 = 4.6538875364717839e-5
BASE_CROSSING = 157.279
BASE_CROSSING_MISALIGNED = 140.619
ATTACK_CROSSING_MISALIGNED = 159.960
P1 = 0.29701602806694761


def obs_with(q_mu, q_nu, emu_qmu, enu_qnu):
    return Observables(q_mu=q_mu, q_nu=q_nu, emu_qmu=emu_qmu, enu_qnu=enu_qnu)


class TestBinaryEntropy:
    def test_maximum(self):
        assert binary_entropy(0.5) == 1.0

    def test_endpoints(self):
        assert binary_entropy(0.0) == 0.0
        assert binary_entropy(1.0) == 0.0

    def test_near_half_point(self):
        assert binary_entropy(0.11) == pytest.approx(H2_011, rel=1e-12)

    def test_symmetry(self):
        for x in (0.01, 0.11, 0.3, 0.497):
            assert binary_entropy(x) == pytest.approx(binary_entropy(1.0 - x), rel=1e-12)

    def test_domain_rejected(self):
        with pytest.raises(ValueError):
            binary_entropy(-1e-9)
        with pytest.raises(ValueError):
            binary_entropy(1.0 + 1e-9)


class TestY1Lower:
    def test_all_zero_observables(self):
        params = GYS.replace(dark_count=0.0)
        obs = obs_with(1e-300, 1e-300, 0.0, 0.0)  # vanishing gains, no darks
        assert y1_lower(obs, params) == pytest.approx(0.0, abs=1e-12)

    def test_baseline_matches_brute_force_yield(self):
        # Independent model: in a linear channel Y1 = eta + d - eta*d; the
        # weak+vacuum bound must sit at or just below that truth.
        for distance in (20.0, 60.0, 100.0, 140.0):
            params = GYS.replace(distance=distance)
            eta = channel_transmittance(params.alpha, distance) * params.eta_bob
            truth = eta + params.dark_count - eta * params.dark_count
            bound = y1_lower(observables_baseline(params), params)
            assert bound <= truth * (1.0 + 1e-9)
            assert bound == pytest.approx(truth, rel=0.05)

    def test_baseline_frozen_point(self):
        params = GYS.replace(distance=100.0)
        assert y1_lower(observables_baseline(params), params) == pytest.approx(
            BASE_Y1_100, rel=1e-9
        )

    def test_attack_frozen_point(self):
        params = GYS.replace(distance=100.0)
        obs = observables_for(params, QND(mu_prime=300.0, k=310.0))
        assert y1_lower(obs, params) == pytest.approx(QND_Y1, rel=1e-9)

    def test_attack_estimate_recovers_arrival_probability(self):
        # Under the resend attack all detections are single-photon sourced, so
        # the decoy estimate reproduces the arrival probability up to a
        # residue of order the dark count.
        from decoy_fsa.faked_states import FakedStateIntensities, p_arrive
        from decoy_fsa.model import efficiency_matrix

        params = GYS.replace(distance=100.0)
        obs = observables_for(params, QND(mu_prime=300.0, k=310.0))
        eff = efficiency_matrix(params, 310.0)
        arrive = p_arrive(FakedStateIntensities.symmetric(300.0), eff, params.dark_count)
        assert y1_lower(obs, params) == pytest.approx(arrive, rel=1e-4)

    def test_clamping_flagged(self):
        params = GYS.replace(distance=100.0)
        # Gains rigged so the raw estimate is negative.
        obs = obs_with(1e-3, 1e-9, 1e-6, 1e-10)
        bounds = decoy_bounds(obs, params)
        assert bounds.y1_lower == 0.0
        assert bounds.y1_clamped
        assert bounds.e1_unbounded
        # No physical GYS point fires these flags, so the report reads them here.
        report = RateReport(distance=params.distance, strategy=Baseline(), observables=obs,
                            bounds=bounds, rate=key_rate(obs, bounds, params))
        assert report.flags == ("clamped_y1", "unbounded_e1")


class TestQ1Lower:
    def test_zero(self):
        assert q1_lower(0.0, 0.48) == 0.0

    def test_unit_yield(self):
        assert q1_lower(1.0, 0.48) == pytest.approx(P1, rel=1e-12)

    def test_roundtrip_identity(self):
        params = GYS.replace(distance=100.0)
        y1 = y1_lower(observables_baseline(params), params)
        assert q1_lower(y1, params.mu) / (params.mu * math.exp(-params.mu)) == pytest.approx(
            y1, rel=1e-12
        )

    def test_domain(self):
        with pytest.raises(ValueError):
            q1_lower(1.1, 0.48)


class TestE1Upper:
    def test_exactly_zero_numerator(self):
        params = GYS.replace(distance=100.0)
        enu = 0.5 * params.dark_count * math.exp(-params.nu)
        obs = obs_with(1e-4, 1e-5, 1e-6, enu)
        assert e1_upper(obs, 1e-4, params) == pytest.approx(0.0, abs=1e-18)

    def test_divergence_flagged(self):
        params = GYS.replace(distance=100.0)
        obs = obs_with(1e-4, 1e-5, 1e-6, 1e-6)
        assert math.isinf(e1_upper(obs, 0.0, params))

    def test_attack_frozen_point(self):
        params = GYS.replace(distance=100.0)
        obs = observables_for(params, QND(mu_prime=300.0, k=310.0))
        y1 = y1_lower(obs, params)
        assert e1_upper(obs, y1, params) == pytest.approx(QND_E1, rel=1e-9)


class TestKeyRate:
    def test_pure_cost_is_negative(self):
        params = GYS.replace(distance=100.0)
        obs = obs_with(1e-3, 1e-9, 1e-4, 1e-10)
        bounds = decoy_bounds(obs, params)
        assert bounds.q1_lower == 0.0
        assert key_rate(obs, bounds, params) < 0.0

    def test_error_free_ceiling(self):
        params = GYS.replace(distance=100.0)
        obs = obs_with(1e-3, 1e-4, 0.0, 0.0)
        from decoy_fsa.decoy import DecoyBounds

        bounds = DecoyBounds(y1_lower=1e-3, q1_lower=q1_lower(1e-3, params.mu),
                             e1_upper=0.0)
        assert key_rate(obs, bounds, params) == pytest.approx(
            params.q_sift * bounds.q1_lower, rel=1e-12
        )

    def test_frozen_rates(self):
        params = GYS.replace(distance=100.0)
        assert evaluate(params, QND(mu_prime=300.0, k=310.0)).rate == pytest.approx(
            QND_RATE, rel=1e-9
        )
        assert evaluate(params, Baseline()).rate == pytest.approx(BASE_RATE_100, rel=1e-9)

    def test_monotone_in_error_bounds(self):
        params = GYS.replace(distance=100.0)
        obs_base = observables_baseline(params)
        bounds = decoy_bounds(obs_base, params)
        from decoy_fsa.decoy import DecoyBounds

        rates = []
        for e1 in (0.0, 0.05, 0.15, 0.3, 0.5):
            b = DecoyBounds(bounds.y1_lower, bounds.q1_lower, e1)
            rates.append(key_rate(obs_base, b, params))
        assert all(b <= a + 1e-15 for a, b in zip(rates, rates[1:]))

        rates_e = []
        for e_mu in (0.0, 0.05, 0.15, 0.3, 0.5):
            obs = obs_with(obs_base.q_mu, obs_base.q_nu, e_mu * obs_base.q_mu,
                           obs_base.enu_qnu)
            rates_e.append(key_rate(obs, bounds, params))
        assert all(b <= a + 1e-15 for a, b in zip(rates_e, rates_e[1:]))


def _crossing(params_for, lo, hi):
    """Bisect the R = 0 distance of a strategy pipeline."""
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if params_for(mid) > 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


class TestPositiveRateRegion:
    def test_baseline_crossing_regression(self):
        rate_at = lambda L: evaluate(GYS.replace(distance=L), Baseline()).rate
        crossing = _crossing(rate_at, 140.0, 170.0)
        assert crossing == pytest.approx(BASE_CROSSING, abs=0.05)

    def test_baseline_crossing_with_standard_misalignment(self):
        # With the 3.3% intrinsic detector error of the original experiment the
        # positive region ends near 140 km; this pins the reconciliation of the
        # published 140 km figure against the zero-misalignment default.
        rate_at = lambda L: evaluate(
            GYS.replace(distance=L, e_detector=0.033), Baseline()
        ).rate
        crossing = _crossing(rate_at, 120.0, 160.0)
        assert crossing == pytest.approx(BASE_CROSSING_MISALIGNED, abs=0.05)

    def test_attack_crossing_with_standard_misalignment(self):
        # The faked states reach the same receiver, so its 3.3% intrinsic
        # error also shortens the attacked link, from 169.7 km to 160.0 km.
        rate_at = lambda L: evaluate(
            GYS.replace(distance=L, e_detector=0.033), QND(mu_prime=300.0, k=310.0)
        ).rate
        crossing = _crossing(rate_at, 140.0, 180.0)
        assert crossing == pytest.approx(ATTACK_CROSSING_MISALIGNED, abs=0.05)


class TestQ1Expansion:
    def test_all_zero_yields(self):
        assert q1_expansion([0.0] * 10, 0.48, 0.05) == 0.0

    def test_single_photon_only_identity(self):
        # With only Y_1 nonzero the series collapses to mu*exp(-mu)*Y_1.
        for mu, nu, y in ((0.48, 0.05, 0.37), (0.7, 0.1, 0.9), (1.2, 0.3, 0.04)):
            yields = [y] + [0.0] * 19
            assert q1_expansion(yields, mu, nu) == pytest.approx(
                mu * math.exp(-mu) * y, rel=1e-12
            )

    def test_multiphoton_terms_nonpositive_on_random_draws(self):
        rng = np.random.default_rng(20240817)
        for _ in range(1000):
            mu = rng.uniform(0.05, 2.0)
            nu = rng.uniform(0.0, 1.0) * mu * 0.9 + 1e-6
            if not nu < mu:
                continue
            i = int(rng.integers(2, 30))
            y = rng.uniform(0.0, 1.0)
            term = y * nu**2 * (nu ** (i - 2) - mu ** (i - 2)) / math.factorial(i)
            assert term <= 1e-18

    def test_blocking_multiphoton_is_an_upper_envelope(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            mu = rng.uniform(0.2, 1.5)
            nu = rng.uniform(0.02, 0.9) * mu
            yields = rng.uniform(0.0, 1.0, size=15).tolist()
            blocked = [yields[0]] + [0.0] * 14
            assert q1_expansion(blocked, mu, nu) >= q1_expansion(yields, mu, nu) - 1e-18

    def test_preconditions(self):
        with pytest.raises(ValueError):
            q1_expansion([0.5], 0.48, 0.05)
        with pytest.raises(ValueError):
            q1_expansion([0.5, 0.5], 0.05, 0.48)
        with pytest.raises(ValueError):
            q1_expansion([0.5, 1.5], 0.48, 0.05)
