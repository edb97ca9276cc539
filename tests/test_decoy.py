"""Tests for the decoy-state bounds and the GLLP rate; the Q1 bound is checked against its
series over photon-number yields."""

import math
import random
from dataclasses import astuple

import numpy as np
import pytest

from decoy_fsa import decoy
from decoy_fsa.decoy import (
    RateReport,
    attack_curve,
    binary_entropy,
    decoy_bounds,
    evaluate,
    key_rate,
)
from decoy_fsa.model import GYS
from decoy_fsa.observables import (
    Baseline,
    DegenerateObservablesError,
    Observables,
    PNRD,
    QND,
    observables_for,
)
from reference import one_pass_report, photon_gain, q1_series

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


def q_nu_for(raw_y1, q_mu, params):
    """The decoy gain at which the weak+vacuum estimate, before its clamp, is ``raw_y1``."""
    mu, nu, d = params.mu, params.nu, params.dark_count
    return (raw_y1 * (mu * nu - nu**2) / mu + q_mu * math.exp(mu) * nu**2 / mu**2
            + (mu**2 - nu**2) / mu**2 * d) * math.exp(-nu)


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
            eta = params.transmittance
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
        mu, q_mu = params.mu, 1e-3
        bounds = decoy_bounds(obs_with(q_mu, q_nu_for(1.4, q_mu, params), 1e-5, 1e-4), params)
        assert bounds.y1_lower == 1.0 and bounds.y1_clamped
        assert bounds.q1_lower == mu * math.exp(-mu) * 1.0
        bounds = decoy_bounds(obs_with(q_mu, q_nu_for(0.995, q_mu, params), 1e-5, 1e-4), params)
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
        bounds = decoy_bounds(obs_with(1e-3, 1e-9, 1e-6, 1e-10), GYS)
        assert bounds.y1_lower == 0.0 and bounds.y1_clamped
        assert bounds.q1_lower == 0.0

    def test_unit_yield(self):
        bounds = decoy_bounds(obs_with(1e-3, q_nu_for(1.4, 1e-3, GYS), 1e-5, 1e-4), GYS)
        assert GYS.mu == 0.48
        assert bounds.y1_lower == 1.0 and bounds.y1_clamped
        assert bounds.q1_lower == pytest.approx(P1, rel=1e-12)

    def test_roundtrip_identity(self):
        params = GYS.replace(distance=100.0)
        bounds = decoy_bounds(observables_for(params, Baseline()), params)
        assert bounds.q1_lower / (params.mu * math.exp(-params.mu)) == pytest.approx(
            bounds.y1_lower, rel=1e-12
        )

    @pytest.mark.parametrize("field", ["q_mu", "q_nu", "emu_qmu", "enu_qnu"])
    def test_nan_observable_rejected(self, field, monkeypatch):
        # NaN fails every comparison, so the range checks are written to pass only
        # inside the range; Q_nu and E_nu*Q_nu used to slip through them.
        fields = {"q_mu": 1e-3, "q_nu": 1e-4, "emu_qmu": 1e-5, "enu_qnu": 1e-6, field: math.nan}
        monkeypatch.setattr(decoy, "rates_for", lambda p, s: (*fields.values(), 0.0, 0.0))
        for entry in (lambda: Observables(**fields),
                      lambda: decoy_bounds(obs_with(**fields), GYS),
                      lambda: evaluate(GYS, Baseline()),
                      lambda: evaluate(GYS, QND(300.0, 310.0)),
                      lambda: evaluate(GYS, PNRD(900.0, 1000.0, 0.1))):
            with pytest.raises(ValueError) as raised:
                entry()
            assert not isinstance(raised.value, DegenerateObservablesError)


class TestE1Upper:
    def test_exactly_zero_numerator(self):
        params = GYS.replace(distance=100.0)
        enu = 0.5 * params.dark_count * math.exp(-params.nu)
        bounds = decoy_bounds(obs_with(1e-4, q_nu_for(1e-4, 1e-4, params), 1e-6, enu), params)
        assert bounds.y1_lower == pytest.approx(1e-4, rel=1e-9)
        assert bounds.e1_upper == pytest.approx(0.0, abs=1e-18)

    def test_divergence_flagged(self):
        params = GYS.replace(distance=100.0)
        bounds = decoy_bounds(obs_with(1e-3, 1e-6, 1e-7, 1e-6), params)
        assert bounds.y1_lower == 0.0
        assert math.isinf(bounds.e1_upper)

    def test_attack_frozen_point(self):
        params = GYS.replace(distance=100.0)
        obs = observables_for(params, QND(mu_prime=300.0, k=310.0))
        assert decoy_bounds(obs, params).e1_upper == pytest.approx(QND_E1, rel=1e-9)


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

        bounds = DecoyBounds(y1_lower=1e-3, q1_lower=params.mu * math.exp(-params.mu) * 1e-3,
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


# tuple(evaluate(...)) at dark_count 1e-3, keyed by (e_detector, distance, strategy),
# recorded bit for bit.  Every recipe runs at e_detector 0, where the intrinsic flip
# is the identity, so only these points pin the order of its float operations; at
# 0.04, unlike 0.033, 1 - 2e and 1 - e - e round apart.
EVALUATE_PINS = {
    (0.033, 20.0, "baseline"): (
        0.009178463854129681, 0.001855060369083783, 0.0007698893071862831,
        0.0005282169921797684, 0.01786209083096295, 0.005305327271583659,
        0.06191801062551168, False, -0.0005634867003510089, math.nan),
    (0.033, 20.0, "qnd"): (
        0.012741958909799109, 0.00288025152867536, 0.001090449639940027,
        0.0005945492865910604, 0.04052849592564793, 0.012037612883363417,
        0.06170102171743405, False, 0.0007310998037924118, math.nan),
    (0.033, 20.0, "pnrd"): (
        0.01334686844833496, 0.0023426420683283593, 0.0009514764250909418,
        0.0005490951404983456, 0.02767385713386964, 0.008219579127194123,
        0.05582731022478265, False, -0.0001851252171386742, 1.7597696399895796e-05),
    (0.033, 100.0, "baseline"): (
        0.0011715601805691866, 0.001017872225571037, 0.0005056614859587868,
        0.0005005897834438478, 0.0013477153526995573, 0.00040029306102366786,
        0.3896307988635567, False, -0.0006978848581161336, math.nan),
    (0.033, 100.0, "qnd"): (
        0.001545243527275265, 0.0010873103869239484, 0.0006579299370223967,
        0.0005252894774876235, 0.0028311519291141954, 0.0008408975008395747,
        0.3689074003848446, False, -0.0009064657722621931, math.nan),
    (0.033, 100.0, "pnrd"): (
        0.0014110784470864417, 0.0010447021217364456, 0.0005354227679208261,
        0.0005038519968513592, 0.0018836501929630576, 0.0005594742985814267,
        0.3151863467227066, False, -0.0007960683623343194, 3.679452056891279e-07),
    (0.04, 20.0, "qnd"): (
        0.012741958909799109, 0.00288025152867536, 0.0011696010504426326,
        0.0006072238804759134, 0.04052849592564793, 0.012037612883363417,
        0.06827636279788998, False, 0.0004165388952655437, math.nan),
    (0.04, 100.0, "pnrd"): (
        0.0014110784470864417, 0.0010447021217364456, 0.0005379726933798343,
        0.0005041292847488283, 0.0018836501929630576, 0.0005594742985814267,
        0.3182814516744994, False, -0.0007981239860308651, 3.679452056891279e-07),
}
PIN_STRATEGIES = {
    "baseline": Baseline(),
    "qnd": QND(mu_prime=300.0, k=310.0),
    "pnrd": PNRD(mu_prime=900.0, k=1000.0, eta_e=0.1),
}


@pytest.mark.parametrize("e_detector, distance, label", list(EVALUATE_PINS))
def test_evaluate_is_pinned_bit_for_bit(e_detector, distance, label):
    params = GYS.replace(e_detector=e_detector, dark_count=1e-3, distance=distance)
    report = tuple(evaluate(params, PIN_STRATEGIES[label]))
    expected = EVALUATE_PINS[e_detector, distance, label]
    assert report[:-1] == expected[:-1]
    assert report[-1] == expected[-1] or math.isnan(report[-1]) and math.isnan(expected[-1])


# Declared before the first run of the test below.
CURVE_SEED = 20261021


def _outcome(run):
    """``repr`` of the report, which tells every float bit and nan apart, or the error raised."""
    try:
        return repr(run())
    except ValueError as exc:
        return type(exc), str(exc)


def test_attack_curve_is_evaluate_bit_for_bit():
    # One curve per (params, k, eta_e) and five intensities on it, 0 and 2000 among them.
    # evaluate's report and the curve's rate must equal the pipeline written out point by
    # point in its earlier order; the curve reads -inf where that pipeline is degenerate.
    rng = random.Random(CURVE_SEED)
    degenerate = 0
    for _ in range(300):
        params = GYS.replace(
            dark_count=rng.choice((0.0, 1.7e-6, 1e-3, 0.05)),
            e_detector=rng.choice((0.0, 0.01, 0.033)),
            distance=rng.uniform(0.0, 200.0),
        )
        k = rng.uniform(1.0, 1000.0)
        pnrd = rng.random() < 0.5
        eta_e = rng.choice((1.0, rng.uniform(0.01, 1.0))) if pnrd else 1.0
        curve = attack_curve(params, k, eta_e)
        for mu_prime in (0.0, 2000.0, *(rng.uniform(0.0, 2000.0) for _ in range(3))):
            strategy = PNRD(mu_prime, k, eta_e) if pnrd else QND(mu_prime, k)
            expected = _outcome(lambda: one_pass_report(params, strategy))
            assert _outcome(lambda: evaluate(params, strategy)) == expected, (params, strategy)
            is_degenerate = expected == (DegenerateObservablesError,
                                         "signal gain is zero; QBER undefined")
            rate = repr(-math.inf) if is_degenerate else _outcome(
                lambda: one_pass_report(params, strategy).rate)
            assert _outcome(lambda: curve(mu_prime)) == rate, (params, strategy)
            degenerate += is_degenerate
    assert degenerate  # no faked states and no darks: the checks ran on the curve too


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


# Declared before the first run of the tests below.
SERIES_SEED = 20261020
DARK_COUNTS = (0.0, 1.7e-6, 1e-3, 0.05)


def q1_bound(yields, mu, nu, dark_count):
    """``_bounds_for``' Q1 and clamp flag on the gains that photon-number yields give."""
    params = GYS.replace(mu=mu, nu=nu, dark_count=dark_count)
    q_mu, q_nu = (photon_gain(x, yields, dark_count) for x in (mu, nu))
    _, q1, _, clamped = decoy._bounds_for(params)(q_mu, q_nu, 0.0)
    return q1, clamped


@pytest.fixture(scope="module")
def yield_draws():
    """(mu, nu, dark_count, yields, Q1) at 5,000 seeded draws, the clamped ones skipped."""
    rng = np.random.default_rng(SERIES_SEED)
    kept = []
    for _ in range(5000):
        mu = float(rng.uniform(0.05, 2.0))
        nu = float(rng.uniform(0.01, 0.95)) * mu
        dark_count = DARK_COUNTS[int(rng.integers(len(DARK_COUNTS)))]
        yields = rng.uniform(0.0, 1.0, size=30).tolist()
        q1, clamped = q1_bound(yields, mu, nu, dark_count)
        if not clamped:
            kept.append((mu, nu, dark_count, yields, q1))
    assert len(kept) >= 2000
    return kept


class TestQ1Expansion:
    """The Q1 bound every ``evaluate`` runs, against its series over photon-number yields."""

    def test_bound_is_the_series(self, yield_draws):
        worst = max(abs(q1 / q1_series(yields, mu, nu) - 1.0)
                    for mu, nu, _, yields, q1 in yield_draws)
        assert worst <= 1e-10

    def test_single_photon_only_identity(self, yield_draws):
        # With only Y_1 set the series collapses to mu*exp(-mu)*Y_1.
        worst = 0.0
        for mu, nu, dark_count, yields, _ in yield_draws:
            q1, clamped = q1_bound([yields[0]] + [0.0] * 29, mu, nu, dark_count)
            if not clamped:
                worst = max(worst, abs(q1 / (mu * math.exp(-mu) * yields[0]) - 1.0))
        assert worst <= 1e-12

    def test_blocking_multiphoton_is_an_upper_envelope(self, yield_draws):
        # Every term with n >= 2 is non-positive, so zeroing those yields never lowers Q1.
        for mu, nu, dark_count, yields, q1 in yield_draws:
            assert q1_bound([yields[0]] + [0.0] * 29, mu, nu, dark_count)[0] >= q1
