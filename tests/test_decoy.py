"""Tests for the decoy-state bounds, GLLP rate, and the gain series expansion."""

import math
from dataclasses import astuple

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
)
from decoy_fsa.model import GYS, channel_transmittance
from decoy_fsa.observables import (
    Baseline,
    Observables,
    PNRD,
    QND,
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
        # The range check, not a math domain error further on, rejects these.
        for x in (-5e-324, -1e-9, math.nextafter(1.0, 2.0), 1.0 + 1e-9):
            with pytest.raises(ValueError, match="binary_entropy defined on"):
                binary_entropy(x)


class TestY1Lower:
    def test_all_zero_observables(self):
        params = GYS.replace(dark_count=0.0)
        obs = obs_with(1e-300, 1e-300, 0.0, 0.0)  # vanishing gains, no darks
        assert decoy_bounds(obs, params).y1_lower == pytest.approx(0.0, abs=1e-12)

    def test_baseline_matches_brute_force_yield(self):
        # Independent model: in a linear channel Y1 = eta + d - eta*d; the
        # weak+vacuum bound must sit at or just below that truth.
        for distance in (20.0, 60.0, 100.0, 140.0):
            params = GYS.replace(distance=distance)
            eta = channel_transmittance(params.alpha, distance) * params.eta_bob
            truth = eta + params.dark_count - eta * params.dark_count
            bound = decoy_bounds(observables_for(params, Baseline()), params).y1_lower
            assert bound <= truth * (1.0 + 1e-9)
            assert bound == pytest.approx(truth, rel=0.05)

    def test_baseline_frozen_point(self):
        params = GYS.replace(distance=100.0)
        obs = observables_for(params, Baseline())
        assert decoy_bounds(obs, params).y1_lower == pytest.approx(BASE_Y1_100, rel=1e-9)

    def test_attack_frozen_point(self):
        params = GYS.replace(distance=100.0)
        obs = observables_for(params, QND(mu_prime=300.0, k=310.0))
        assert decoy_bounds(obs, params).y1_lower == pytest.approx(QND_Y1, rel=1e-9)

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
        assert decoy_bounds(obs, params).y1_lower == pytest.approx(arrive, rel=1e-4)

    def test_upper_clamp_sits_at_one(self):
        # Gains rigged so the raw estimate is 1.4, then 0.995: the first is
        # clamped to exactly 1, the second passes through unflagged.
        params = GYS.replace(distance=100.0)
        mu, nu, d = params.mu, params.nu, params.dark_count
        q_mu = 1e-3

        def q_nu_for(raw_y1):
            return (raw_y1 * (mu * nu - nu**2) / mu + q_mu * math.exp(mu) * nu**2 / mu**2
                    + (mu**2 - nu**2) / mu**2 * d) * math.exp(-nu)

        bounds = decoy_bounds(obs_with(q_mu, q_nu_for(1.4), 1e-5, 1e-4), params)
        assert bounds.y1_lower == 1.0 and bounds.y1_clamped
        assert bounds.q1_lower == q1_lower(1.0, mu)
        bounds = decoy_bounds(obs_with(q_mu, q_nu_for(0.995), 1e-5, 1e-4), params)
        assert bounds.y1_lower == pytest.approx(0.995, rel=1e-9)
        assert not bounds.y1_clamped

    def test_clamping_flagged(self):
        params = GYS.replace(distance=100.0)
        # Gains rigged so the raw estimate is negative.
        obs = obs_with(1e-3, 1e-9, 1e-6, 1e-10)
        bounds = decoy_bounds(obs, params)
        assert bounds.y1_lower == 0.0
        assert bounds.y1_clamped
        assert bounds.e1_unbounded
        # No physical GYS point fires these flags, so the report reads them here.
        report = RateReport(*astuple(obs), *astuple(bounds),
                            rate=key_rate(obs, bounds, params), r_absolute=math.nan)
        assert report.flags == ("clamped_y1", "unbounded_e1")


class TestQ1Lower:
    def test_zero(self):
        assert q1_lower(0.0, 0.48) == 0.0

    def test_unit_yield(self):
        assert q1_lower(1.0, 0.48) == pytest.approx(P1, rel=1e-12)

    def test_roundtrip_identity(self):
        params = GYS.replace(distance=100.0)
        y1 = decoy_bounds(observables_for(params, Baseline()), params).y1_lower
        assert q1_lower(y1, params.mu) / (params.mu * math.exp(-params.mu)) == pytest.approx(
            y1, rel=1e-12
        )

    def test_domain(self):
        for y1 in (-5e-324, 1.1, math.nextafter(1.0, 2.0)):
            with pytest.raises(ValueError, match="y1 must be in"):
                q1_lower(y1, 0.48)


class TestE1Upper:
    def test_exactly_zero_numerator(self):
        params = GYS.replace(distance=100.0)
        enu = 0.5 * params.dark_count * math.exp(-params.nu)
        obs = obs_with(1e-4, 1e-5, 1e-6, enu)
        assert e1_upper(obs.enu_qnu, math.exp(params.nu), 1e-4, params) == pytest.approx(
            0.0, abs=1e-18)

    def test_divergence_flagged(self):
        params = GYS.replace(distance=100.0)
        obs = obs_with(1e-4, 1e-5, 1e-6, 1e-6)
        assert math.isinf(e1_upper(obs.enu_qnu, math.exp(params.nu), 0.0, params))

    def test_attack_frozen_point(self):
        params = GYS.replace(distance=100.0)
        obs = observables_for(params, QND(mu_prime=300.0, k=310.0))
        y1 = decoy_bounds(obs, params).y1_lower
        assert e1_upper(obs.enu_qnu, math.exp(params.nu), y1, params) == pytest.approx(
            QND_E1, rel=1e-9)


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

    def test_r_absolute_only_for_pnrd(self):
        params = GYS.replace(distance=100.0)
        assert math.isnan(evaluate(params, Baseline()).r_absolute)
        assert math.isnan(evaluate(params, QND(mu_prime=300.0, k=310.0)).r_absolute)
        pnrd = evaluate(params, PNRD(mu_prime=900.0, k=1000.0, eta_e=0.1))
        assert math.isfinite(pnrd.r_absolute)

    def test_monotone_in_error_bounds(self):
        params = GYS.replace(distance=100.0)
        obs_base = observables_for(params, Baseline())
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
        with pytest.raises(ValueError, match="need 0 < nu < mu"):
            q1_expansion([0.5, 0.5], 0.48, 0.0)
        for y in (-5e-324, math.nextafter(1.0, 2.0), 1.5):
            with pytest.raises(ValueError, match="yields must lie in"):
                q1_expansion([0.5, y], 0.48, 0.05)

    def test_nu_squared_must_be_a_normal_float(self):
        # nu**2 reaches the smallest normal float at nu = 1.4917e-154; below it the
        # series lost its digits, and then its value (0.0 at 1e-300, ZeroDivisionError
        # at 5e-324).
        assert q1_expansion([0.5, 0.5], 0.48, 1.495e-154) == pytest.approx(
            0.5 * 0.48 * math.exp(-0.48), rel=1e-12)
        for nu in (1.49e-154, 1e-300, 5e-324):
            with pytest.raises(ValueError, match=r"nu=\S+ is too small"):
                q1_expansion([0.5, 0.5], 0.48, nu)

    def test_edges_of_the_domain_are_accepted(self):
        # Two yields suffice, each may be 0 or 1, and nu may be small; the
        # two-photon term of the series is identically zero.
        assert q1_expansion([1.0, 0.0], 0.48, 1e-3) == pytest.approx(
            0.48 * math.exp(-0.48), rel=1e-12)
        assert q1_expansion([0.0, 1.0], 0.48, 0.05) == 0.0
