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


class TestAsymmetricIntensityRegression:
    """The det-1 click form keeps mu_0 in its full-amplitude exponent.

    An alternative transcription with mu_1 there instead coincides for the
    symmetric intensities used everywhere, but disagrees with the arrival and
    error forms once mu_0 != mu_1; this pins the consistent choice.
    """

    @staticmethod
    def _p1_variant_mu1(fs, eff, d):
        return 0.75 + 0.25 * d - 0.25 * (1 - d) * (
            math.exp(-0.5 * fs.mu_0 * eff.eta_10)
            + math.exp(-0.5 * fs.mu_1 * eff.eta_11)
            + math.exp(-fs.mu_1 * eff.eta_10)
        )

    def test_variants_coincide_for_symmetric_intensities(self):
        fs = FakedStateIntensities.symmetric(321.0)
        eff = anyeff(k=50.0)
        assert p_click_det1(fs, eff, D_GYS) == self._p1_variant_mu1(fs, eff, D_GYS)

    def test_variants_differ_for_asymmetric_intensities(self):
        fs = FakedStateIntensities(mu_0=100.0, mu_1=900.0)
        eff = anyeff(k=50.0)
        ours = p_click_det1(fs, eff, D_GYS)
        other = self._p1_variant_mu1(fs, eff, D_GYS)
        assert ours != other

    def test_consistent_variant_matches_arrival_bookkeeping(self):
        # Summing the two exclusive-click decompositions must reproduce
        # p_arrive only with the mu_0 exponent; checked via the identity
        # p_arrive = p0 + p1 - p_double where p_double is derived from the
        # same case-by-case model with independent per-detector clicks.
        fs = FakedStateIntensities(mu_0=40.0, mu_1=70.0)
        eff = anyeff(k=50.0)
        d = 0.0
        # per-case double-click probabilities (both detectors, same case)
        cases = [
            # (det0 light exponent, det1 light exponent) per receiver case
            (0.5 * fs.mu_0 * eff.eta_00, 0.5 * fs.mu_0 * eff.eta_10),
            (0.5 * fs.mu_1 * eff.eta_01, 0.5 * fs.mu_1 * eff.eta_11),
            (0.0, fs.mu_0 * eff.eta_10),
            (fs.mu_1 * eff.eta_01, 0.0),
        ]
        p_double = 0.25 * sum(
            (1 - math.exp(-a)) * (1 - math.exp(-b)) for a, b in cases
        )
        lhs = p_arrive(fs, eff, d)
        rhs = p_click_det0(fs, eff, d) + p_click_det1(fs, eff, d) - p_double
        assert lhs == pytest.approx(rhs, rel=1e-12)


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
        mu_prime=st.floats(min_value=0.0, max_value=1000.0),
        bump=st.floats(min_value=0.1, max_value=500.0),
        k=st.floats(min_value=1.0, max_value=1000.0),
    )
    @settings(max_examples=200, deadline=None)
    def test_arrival_monotone_in_each_intensity(self, mu_prime, bump, k):
        eff = efficiency_matrix(GYS.replace(distance=50.0), k)
        base = p_arrive(FakedStateIntensities(mu_prime, mu_prime), eff, D_GYS)
        more0 = p_arrive(FakedStateIntensities(mu_prime + bump, mu_prime), eff, D_GYS)
        more1 = p_arrive(FakedStateIntensities(mu_prime, mu_prime + bump), eff, D_GYS)
        assert more0 >= base - 1e-15
        assert more1 >= base - 1e-15

    def test_negative_intensity_rejected(self):
        with pytest.raises(ValueError):
            FakedStateIntensities(-1.0, 5.0)
