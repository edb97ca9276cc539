"""Tests for baseline/QND/PNRD observables and the PNRD gating probability."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from decoy_fsa import faked_states
from decoy_fsa.model import GYS
from decoy_fsa.observables import (
    Baseline,
    DegenerateObservablesError,
    Observables,
    PNRD,
    QND,
    observables_for,
    p_single,
    rates_for,
)
from reference import next_up, poisson_pmf

# Frozen with 40-digit arithmetic.
QND_310_300_100 = {
    "q_mu": 2.5122639054993621e-4,
    "q_nu": 4.1656908457993356e-5,
    "emu_qmu": 2.6940966912383044e-6,
    "enu_qnu": 1.1452970325788099e-6,
    "e_mu": 1.0723780592241560e-2,
}
PNRD_1000_900_100 = {
    "q_mu": 3.6788215169136387e-4,
    "q_nu": 4.1519940059223967e-5,
    "emu_qmu": 1.6215331505039340e-6,
    "enu_qnu": 9.3389923884838935e-7,
}
BASE_100 = {"q_mu": 1.7326018056927876e-4, "q_nu": 1.9572225571169981e-5}


class TestPSingle:
    def test_perfect_detector_sees_true_single_fraction(self):
        for mu in (0.1, 0.48, 1.3):
            assert p_single(mu, 1.0) == pytest.approx(poisson_pmf(mu, 1), rel=1e-12)

    def test_vacuum(self):
        assert p_single(0.0, 0.3) == 0.0

    def test_series_identity(self):
        # Thinned-count series: sum_i p(i) * i * eta * (1-eta)^(i-1).
        mu, eta = 0.48, 0.1
        series = sum(
            poisson_pmf(mu, i) * i * eta * (1.0 - eta) ** (i - 1) for i in range(1, 61)
        )
        assert p_single(mu, eta) == pytest.approx(series, abs=1e-10)

    def test_bad_efficiency_rejected(self):
        with pytest.raises(ValueError):
            p_single(0.48, 0.0)
        with pytest.raises(ValueError):
            p_single(0.48, 1.1)


class TestResendStrategies:
    @pytest.mark.parametrize("make", [QND, lambda **kw: PNRD(eta_e=0.5, **kw)], ids=["qnd", "pnrd"])
    @pytest.mark.parametrize("name, value", [
        ("mu_prime", math.nan), ("mu_prime", math.inf), ("mu_prime", -1.0),
        ("k", math.nan), ("k", math.inf), ("k", 0.5),
    ])
    def test_bad_attack_parameter_named(self, make, name, value):
        with pytest.raises(ValueError, match=rf"^{name} must be finite"):
            make(**{"mu_prime": 300.0, "k": 310.0, name: value})

    def test_qnd_is_pnrd_at_unit_efficiency(self):
        qnd = QND(mu_prime=300.0, k=310.0)
        assert qnd.eta_e == 1.0
        assert vars(qnd) == {"mu_prime": 300.0, "k": 310.0}
        params = GYS.replace(distance=100.0, e_detector=0.033)
        assert observables_for(params, qnd) == observables_for(
            params, PNRD(mu_prime=300.0, k=310.0, eta_e=1.0))


class TestQndObservables:
    def test_degenerate_when_no_light_and_no_darks(self):
        params = GYS.replace(dark_count=0.0)
        with pytest.raises(DegenerateObservablesError):
            observables_for(params, QND(mu_prime=0.0, k=310.0))

    def test_perfect_resend_limit(self, monkeypatch):
        # Forcing unit arrival and zero error leaves the bare single-photon gain.
        perfect = (math.nan, 1.0, 0.0, math.nan)  # click and blind arm play no part here
        monkeypatch.setattr(faked_states, "resend_probs", lambda *args: perfect)
        obs = observables_for(GYS.replace(dark_count=0.0), QND(mu_prime=300.0, k=310.0))
        assert obs.q_mu == pytest.approx(0.48 * math.exp(-0.48), rel=1e-12)
        assert obs.q_nu == pytest.approx(0.05 * math.exp(-0.05), rel=1e-12)
        assert obs.e_mu == 0.0

    def test_frozen_point(self):
        obs = observables_for(GYS.replace(distance=100.0), QND(mu_prime=300.0, k=310.0))
        for name, expected in QND_310_300_100.items():
            assert getattr(obs, name) == pytest.approx(expected, rel=1e-9), name

    def test_gain_nondecreasing_in_mu_prime(self):
        params = GYS.replace(distance=100.0)
        gains = [
            observables_for(params, QND(mu_prime=mp, k=310.0)).q_mu
            for mp in (0.0, 10.0, 100.0, 300.0, 1000.0, 2000.0)
        ]
        assert all(b >= a - 1e-15 for a, b in zip(gains, gains[1:]))

    def test_dark_dominated_qber_approaches_half(self):
        params = GYS.replace(distance=100.0)
        obs = observables_for(params, QND(mu_prime=1e-6, k=310.0))
        assert obs.e_mu == pytest.approx(0.5, abs=1e-3)


class TestPnrdObservables:
    def test_unit_efficiency_reduces_to_ideal_gate(self):
        for distance in (10.0, 60.0, 100.0, 150.0):
            for k, mp in ((1.0, 50.0), (310.0, 300.0), (1000.0, 900.0)):
                params = GYS.replace(distance=distance)
                ideal = observables_for(params, QND(mu_prime=mp, k=k))
                gated = observables_for(params, PNRD(mu_prime=mp, k=k, eta_e=1.0))
                for field in ("q_mu", "q_nu", "emu_qmu", "enu_qnu", "e_mu"):
                    assert getattr(gated, field) == pytest.approx(
                        getattr(ideal, field), rel=1e-12
                    ), (field, distance, k)

    def test_vanishing_efficiency_kills_the_gains(self):
        params = GYS.replace(distance=100.0, dark_count=0.0)
        obs = observables_for(params, PNRD(mu_prime=900.0, k=1000.0, eta_e=1e-9))
        assert obs.q_mu == pytest.approx(0.0, abs=1e-9)
        assert obs.q_nu == pytest.approx(0.0, abs=1e-9)

    def test_frozen_point(self):
        obs = observables_for(
            GYS.replace(distance=100.0), PNRD(mu_prime=900.0, k=1000.0, eta_e=0.1)
        )
        for name, expected in PNRD_1000_900_100.items():
            assert getattr(obs, name) == pytest.approx(expected, rel=1e-9), name

    def test_dark_dominated_qber_approaches_half(self):
        params = GYS.replace(distance=100.0)
        obs = observables_for(params, PNRD(mu_prime=1e-6, k=310.0, eta_e=0.1))
        assert obs.e_mu == pytest.approx(0.5, abs=1e-3)


class TestBaselineObservables:
    def test_long_distance_dark_dominated(self):
        obs = observables_for(GYS.replace(distance=1000.0), Baseline())
        assert obs.q_mu == pytest.approx(GYS.dark_count, rel=1e-6)
        assert obs.e_mu == pytest.approx(0.5, abs=1e-6)

    def test_error_free_with_no_darks_and_no_misalignment(self):
        obs = observables_for(GYS.replace(dark_count=1e-30), Baseline())
        assert obs.e_mu == pytest.approx(0.0, abs=1e-15)

    def test_frozen_point(self):
        obs = observables_for(GYS.replace(distance=100.0), Baseline())
        for name, expected in BASE_100.items():
            assert getattr(obs, name) == pytest.approx(expected, rel=1e-9), name
        assert obs.emu_qmu == pytest.approx(0.5 * GYS.dark_count, rel=1e-12)

    def test_misalignment_contributes(self):
        obs = observables_for(GYS.replace(distance=100.0, e_detector=0.033), Baseline())
        expected = 0.5 * GYS.dark_count + 0.033 * (BASE_100["q_mu"] - GYS.dark_count)
        assert obs.emu_qmu == pytest.approx(expected, rel=1e-9)


class TestIntrinsicDetectorError:
    @pytest.mark.parametrize("strategy", [
        Baseline(),
        QND(mu_prime=300.0, k=310.0),
        PNRD(mu_prime=900.0, k=1000.0, eta_e=0.1),
    ], ids=["baseline", "qnd", "pnrd"])
    @pytest.mark.parametrize("e", [0.033, 0.1, 0.5])
    def test_errors_compose_a_per_click_bit_flip(self, strategy, e):
        # Every click's bit flips with probability e, whether the attack is on
        # or not: E'Q = (1 - 2e)*EQ|_{e=0} + e*Q, with the gains untouched.
        params = GYS.replace(distance=100.0)
        clean = observables_for(params, strategy)
        obs = observables_for(params.replace(e_detector=e), strategy)
        assert obs.q_mu == pytest.approx(clean.q_mu, rel=1e-12)
        assert obs.q_nu == pytest.approx(clean.q_nu, rel=1e-12)
        assert obs.emu_qmu == pytest.approx(
            (1.0 - 2.0 * e) * clean.emu_qmu + e * clean.q_mu, rel=1e-12
        )
        assert obs.enu_qnu == pytest.approx(
            (1.0 - 2.0 * e) * clean.enu_qnu + e * clean.q_nu, rel=1e-12
        )


class TestDispatch:
    def test_dispatch_matches_direct_calls(self):
        params = GYS.replace(distance=80.0)
        for strategy in (Baseline(), QND(mu_prime=300.0, k=310.0),
                         PNRD(mu_prime=900.0, k=1000.0, eta_e=0.1)):
            obs = observables_for(params, strategy)
            assert (obs.q_mu, obs.q_nu, obs.emu_qmu, obs.enu_qnu) == rates_for(
                params, strategy)[:4]

    def test_strategy_validation(self):
        with pytest.raises(ValueError):
            QND(mu_prime=-1.0, k=310.0)
        with pytest.raises(ValueError):
            QND(mu_prime=300.0, k=0.9)
        with pytest.raises(ValueError):
            PNRD(mu_prime=900.0, k=1000.0, eta_e=0.0)

    @given(
        k=st.floats(min_value=1.0, max_value=1000.0),
        mu_prime=st.floats(min_value=0.0, max_value=2000.0),
        distance=st.floats(min_value=0.0, max_value=200.0),
    )
    @settings(max_examples=150, deadline=None)
    def test_attack_qber_stays_physical(self, k, mu_prime, distance):
        params = GYS.replace(distance=distance)
        obs = observables_for(params, QND(mu_prime=mu_prime, k=k))
        assert 0.0 <= obs.e_mu <= 1.0


_SLACK = 1e-12  # the rounding slack Observables allows on E*Q, Q and the QBER


# (build, a value just inside, a value just outside, the error, a pattern naming the field)
OBSERVABLES_GUARDS = [
    pytest.param(lambda v: Observables(v, 0.0, 0.0, 0.0), 5e-324, 0.0,
                 DegenerateObservablesError, "signal gain", id="Observables.q_mu"),
    pytest.param(lambda v: Observables(1.0, 1.0, v, 0.0), -_SLACK, -next_up(_SLACK),
                 ValueError, r"E_mu\*Q_mu", id="Observables.emu_qmu"),
    pytest.param(lambda v: Observables(1.0, 0.5, 0.0, v), 0.5 + _SLACK, next_up(0.5 + _SLACK),
                 ValueError, r"E_nu\*Q_nu", id="Observables.enu_qnu"),
    pytest.param(lambda v: Observables(1.0, v, 0.0, 0.0), 1.0 + _SLACK, next_up(1.0 + _SLACK),
                 ValueError, r"Q_nu <= 1", id="Observables.q_nu"),
    # At a tiny gain the slack on E*Q lets through a QBER above 1.
    pytest.param(lambda v: Observables(1e-13, 0.0, v, 0.0), 1e-13, 5e-13,
                 ValueError, "QBER", id="Observables.e_mu"),
    pytest.param(lambda v: p_single(v, 0.5), 0.0, -5e-324, ValueError, r"\bmu\b",
                 id="p_single.mu"),
    *(pytest.param(lambda v: p_single(v, 0.5), 0.48, bad, ValueError, r"\bmu\b",
                   id=f"p_single.mu={bad}") for bad in (math.nan, math.inf)),
    pytest.param(lambda v: p_single(0.48, v), 5e-324, 0.0, ValueError, "eta_e",
                 id="p_single.eta_e=0"),
    pytest.param(lambda v: p_single(0.48, v), 1.0, next_up(1.0), ValueError, "eta_e",
                 id="p_single.eta_e>1"),
    pytest.param(lambda v: PNRD(mu_prime=900.0, k=1000.0, eta_e=v), 5e-324, 0.0, ValueError,
                 "eta_e", id="PNRD.eta_e=0"),
    pytest.param(lambda v: PNRD(mu_prime=900.0, k=1000.0, eta_e=v), 1.0, next_up(1.0), ValueError,
                 "eta_e", id="PNRD.eta_e>1"),
    pytest.param(lambda v: observables_for(GYS, v), Baseline(), object(), TypeError,
                 "unknown strategy type: object", id="observables_for.strategy"),
]


@pytest.mark.parametrize("build, inside, outside, error, named", OBSERVABLES_GUARDS)
def test_guard_edges(build, inside, outside, error, named):
    build(inside)
    with pytest.raises(error, match=named):
        build(outside)
