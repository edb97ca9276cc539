"""Tests for the faked-state click/arrival/error closed forms."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from decoy_fsa.faked_states import (
    FakedStateIntensities,
    p_arrive,
    p_click_det0,
    p_click_det1,
    p_error,
)
from decoy_fsa.model import GYS, efficiency_matrix

D_GYS = 1.7e-6

# Frozen with 40-digit arithmetic at (mu' = 300, k = 310, L = 100 km, d = 1.7e-6).
P0_REF = 4.2090836982897457e-4
P1_REF = 4.2090836982897457e-4
PA_REF = 8.4181085924862207e-4
PE_REF = 7.0587447039142404e-6


@pytest.fixture
def point_310():
    eff = efficiency_matrix(GYS.replace(distance=100.0), 310.0)
    return FakedStateIntensities.symmetric(300.0), eff


def anyeff(k=5.0):
    return efficiency_matrix(GYS.replace(distance=0.0), k)


class TestTrivialLimits:
    def test_vacuum_no_darks_gives_zero_everywhere(self):
        fs = FakedStateIntensities.symmetric(0.0)
        eff = anyeff()
        assert p_click_det0(fs, eff, 0.0) == pytest.approx(0.0, abs=1e-15)
        assert p_click_det1(fs, eff, 0.0) == pytest.approx(0.0, abs=1e-15)
        assert p_arrive(fs, eff, 0.0) == pytest.approx(0.0, abs=1e-15)
        assert p_error(fs, eff, 0.0) == pytest.approx(0.0, abs=1e-15)

    def test_certain_dark_count(self):
        fs = FakedStateIntensities.symmetric(0.0)
        assert p_click_det0(fs, anyeff(), 1.0) == pytest.approx(1.0, abs=1e-15)
        assert p_click_det1(fs, anyeff(), 1.0) == pytest.approx(1.0, abs=1e-15)

    def test_bright_limit_always_arrives(self):
        fs = FakedStateIntensities.symmetric(1e12)
        assert p_arrive(fs, anyeff(), 0.0) == pytest.approx(1.0, abs=1e-12)

    def test_symmetric_matrix_equal_click_rates(self):
        fs = FakedStateIntensities.symmetric(123.0)
        eff = anyeff(k=1.0)
        assert p_click_det0(fs, eff, D_GYS) == pytest.approx(
            p_click_det1(fs, eff, D_GYS), rel=1e-12
        )

    def test_symmetric_cancellation_leaves_nonnegative_error(self):
        fs = FakedStateIntensities.symmetric(200.0)
        eff = anyeff(k=1.0)
        assert p_error(fs, eff, 0.0) >= 0.0


class TestFrozenPoint:
    def test_click_probabilities(self, point_310):
        fs, eff = point_310
        assert p_click_det0(fs, eff, D_GYS) == pytest.approx(P0_REF, rel=1e-9)
        assert p_click_det1(fs, eff, D_GYS) == pytest.approx(P1_REF, rel=1e-9)

    def test_arrival_and_error(self, point_310):
        fs, eff = point_310
        assert p_arrive(fs, eff, D_GYS) == pytest.approx(PA_REF, rel=1e-9)
        assert p_error(fs, eff, D_GYS) == pytest.approx(PE_REF, rel=1e-9)


class TestRandomizedInvariants:
    @given(
        mu_prime=st.floats(min_value=0.0, max_value=2000.0),
        k=st.floats(min_value=1.0, max_value=1000.0),
        d=st.floats(min_value=0.0, max_value=1e-3),
        distance=st.floats(min_value=0.0, max_value=200.0),
    )
    @settings(max_examples=300, deadline=None)
    def test_error_below_arrival_below_one(self, mu_prime, k, d, distance):
        eff = efficiency_matrix(GYS.replace(distance=distance), k)
        fs = FakedStateIntensities.symmetric(mu_prime)
        arrive = p_arrive(fs, eff, d)
        error = p_error(fs, eff, d)
        assert -1e-12 <= error <= arrive + 1e-12
        assert arrive <= 1.0 + 1e-12

    @given(
        mu_prime=st.floats(min_value=0.0, max_value=1e9),
        k=st.floats(min_value=1.0, max_value=1000.0),
        distance=st.floats(min_value=0.0, max_value=200.0),
        d=st.floats(min_value=0.0, max_value=0.5),
    )
    @settings(max_examples=300, deadline=None)
    def test_arrival_is_click_sum_minus_double_clicks(self, mu_prime, k, distance, d):
        # p_arrive = p0 + p1 - p_double, with p_double built case by case from
        # the light exponents (detector 0, detector 1) of the four equally
        # likely receiver cases and independent per-detector dark counts.
        eff = efficiency_matrix(GYS.replace(distance=distance), k)
        matched, blind = eff
        fs = FakedStateIntensities.symmetric(mu_prime)
        half_matched, half_blind = 0.5 * mu_prime * matched, 0.5 * mu_prime * blind
        full_blind = mu_prime * blind
        cases = [
            (half_matched, half_blind),  # mismatched basis, result 0 (t0)
            (half_blind, half_matched),  # mismatched basis, result 1 (t1)
            (0.0, full_blind),           # matched basis, result 0: detector 1
            (full_blind, 0.0),           # matched basis, result 1: detector 0
        ]
        p_double = 0.25 * sum(
            (1 - (1 - d) * math.exp(-x)) * (1 - (1 - d) * math.exp(-y)) for x, y in cases
        )
        clicks = p_click_det0(fs, eff, d) + p_click_det1(fs, eff, d)
        assert p_arrive(fs, eff, d) == pytest.approx(clicks - p_double, rel=0, abs=1e-15)

    @given(
        mu_prime=st.floats(min_value=0.0, max_value=1000.0),
        bump=st.floats(min_value=0.1, max_value=500.0),
        k=st.floats(min_value=1.0, max_value=1000.0),
    )
    @settings(max_examples=200, deadline=None)
    def test_arrival_monotone_in_intensity(self, mu_prime, bump, k):
        eff = efficiency_matrix(GYS.replace(distance=50.0), k)
        base = p_arrive(FakedStateIntensities(mu_prime), eff, D_GYS)
        more = p_arrive(FakedStateIntensities(mu_prime + bump), eff, D_GYS)
        assert more >= base - 1e-15

    @pytest.mark.parametrize("mu_prime", [-1.0, math.nan, math.inf])
    def test_negative_or_non_finite_intensity_rejected(self, mu_prime):
        with pytest.raises(ValueError, match="faked-state intensity"):
            FakedStateIntensities(mu_prime)
